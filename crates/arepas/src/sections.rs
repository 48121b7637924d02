//! Skyline section splitting (lines 1–4 of the paper's Algorithm 1).

/// Whether a section sits at-or-under or over the allocation threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Every sample `<= threshold`: copied unchanged by the simulator.
    Under,
    /// Every sample `> threshold`: flattened and lengthened, preserving area.
    Over,
}

/// A maximal contiguous run of skyline samples on one side of the
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Side of the threshold.
    pub kind: SectionKind,
    /// Start index (seconds) in the original skyline.
    pub start: usize,
    /// The samples of this section.
    pub samples: Vec<f64>,
}

impl Section {
    /// Area (token-seconds) of this section.
    pub fn area(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> usize {
        self.samples.len()
    }
}

/// Split a skyline into maximal sections entirely under (`<= threshold`) or
/// over (`> threshold`) the new allocation, in order.
///
/// Returns an empty vector for an empty skyline.
pub fn split_sections(skyline: &[f64], threshold: f64) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for (i, &s) in skyline.iter().enumerate() {
        let kind = if s > threshold { SectionKind::Over } else { SectionKind::Under };
        match sections.last_mut() {
            Some(last) if last.kind == kind => last.samples.push(s),
            _ => sections.push(Section { kind, start: i, samples: vec![s] }),
        }
    }
    sections
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_threshold_crossings() {
        let skyline = [1.0, 2.0, 5.0, 6.0, 2.0, 1.0, 7.0];
        let sections = split_sections(&skyline, 3.0);
        assert_eq!(sections.len(), 4);
        assert_eq!(sections[0].kind, SectionKind::Under);
        assert_eq!(sections[0].samples, vec![1.0, 2.0]);
        assert_eq!(sections[1].kind, SectionKind::Over);
        assert_eq!(sections[1].samples, vec![5.0, 6.0]);
        assert_eq!(sections[2].kind, SectionKind::Under);
        assert_eq!(sections[2].samples, vec![2.0, 1.0]);
        assert_eq!(sections[3].kind, SectionKind::Over);
        assert_eq!(sections[3].start, 6);
    }

    #[test]
    fn boundary_value_is_under() {
        // Exactly at the threshold counts as under (fits the allocation).
        let sections = split_sections(&[3.0, 3.0], 3.0);
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].kind, SectionKind::Under);
    }

    #[test]
    fn all_over_single_section() {
        let sections = split_sections(&[10.0, 12.0, 11.0], 3.0);
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].kind, SectionKind::Over);
        assert_eq!(sections[0].area(), 33.0);
        assert_eq!(sections[0].duration(), 3);
    }

    #[test]
    fn empty_skyline() {
        assert!(split_sections(&[], 5.0).is_empty());
    }

    #[test]
    fn sections_partition_the_skyline() {
        let skyline = [1.0, 9.0, 1.0, 9.0, 1.0];
        let sections = split_sections(&skyline, 4.0);
        let total_len: usize = sections.iter().map(Section::duration).sum();
        let total_area: f64 = sections.iter().map(Section::area).sum();
        assert_eq!(total_len, skyline.len());
        assert_eq!(total_area, skyline.iter().sum::<f64>());
        // Starts are contiguous.
        let mut expected_start = 0;
        for s in &sections {
            assert_eq!(s.start, expected_start);
            expected_start += s.duration();
        }
    }
}
