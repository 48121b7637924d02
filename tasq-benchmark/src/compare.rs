//! `compare`: judge one set of runs against another with the bounds the
//! benchmark fixed in `BENCHMARK.json`.

use crate::report::read_results;
use crate::stats::{quantile, Better};
use crate::sut::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a comparison of one metric on one workload concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse and no better than A's by more than the
    /// bound, and both sets are tighter than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians agree within the bound but a set's own run-to-run
    /// spread is wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of a set: range over median (0 for a single run).
pub fn spread(values: &[f64]) -> f64 {
    let median = quantile(values, 0.5);
    if values.len() < 2 || median == 0.0 {
        return 0.0;
    }
    (quantile(values, 1.0) - quantile(values, 0.0)) / median.abs()
}

/// Relative worsening of B's median against A's (negative = better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (median_a, median_b) = (quantile(a, 0.5), quantile(b, 0.5));
    if median_a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    }
}

/// Judge set B against set A for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let change = worsening(a, b, better);
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// `name -> (direction, bound)` of the end-to-end metrics registered in
/// a `BENCHMARK.json` document.
pub fn read_bounds(spec: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let doc = json::parse(spec).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|metric| {
            let name = metric
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without name")?;
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without bound")?;
            let better = match metric.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("metric {name} without a direction")),
            };
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

type Table = BTreeMap<(String, String), Vec<f64>>;

fn table(files: &[String]) -> Result<Table, String> {
    let mut table = Table::new();
    for text in files {
        for (workload, metric, value) in read_results(text)? {
            table.entry((workload, metric)).or_default().push(value);
        }
    }
    Ok(table)
}

/// Compare the results files of set A with those of set B. Returns the
/// report and whether any metric came out worse.
pub fn compare_sets(a: &[String], b: &[String], spec: &str) -> Result<(String, bool), String> {
    let bounds = read_bounds(spec)?;
    let (table_a, table_b) = (table(a)?, table(b)?);
    let mut report = String::new();
    let mut any_worse = false;
    let mut judged = 0;
    for ((workload, metric), values_a) in &table_a {
        let Some((_, better, bound)) = bounds.iter().find(|(name, _, _)| name == metric) else {
            continue;
        };
        let Some(values_b) = table_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = judge(values_a, values_b, *better, *bound);
        any_worse |= verdict == Verdict::Worse;
        judged += 1;
        let _ = writeln!(
            report,
            "{workload} {metric} {}  a {:.4} ({} runs, spread {:.1} %)  b {:.4} ({} runs, spread {:.1} %)  \
             worsening {:+.1} % of bound {:.0} %",
            verdict.word(),
            quantile(values_a, 0.5),
            values_a.len(),
            spread(values_a) * 100.0,
            quantile(values_b, 0.5),
            values_b.len(),
            spread(values_b) * 100.0,
            worsening(values_a, values_b, *better) * 100.0,
            bound * 100.0,
        );
    }
    if judged == 0 {
        return Err("the two sets share no workload with an end-to-end metric".to_string());
    }
    Ok((report, any_worse))
}

/// The `compare` subcommand; returns the exit code.
pub fn command(args: &[String]) -> Result<i32, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut sets = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--spec" {
            spec_path = iter.next().ok_or("--spec needs a path")?.clone();
        } else {
            sets.push(arg);
        }
    }
    let [a, b] = sets[..] else {
        return Err("compare takes two sets of results files".to_string());
    };
    let read = |list: &String| -> Result<Vec<String>, String> {
        list.split(',')
            .map(|path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let spec = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let (report, any_worse) = compare_sets(&read(a)?, &read(b)?, &spec)?;
    print!("{report}");
    Ok(i32::from(any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "capacity_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#;

    fn file(capacity: f64, latency: f64) -> String {
        format!(
            "{{\"machine\": {{}}, \"runs\": [\n{{\"workload\": \"serve_adhoc\", \"metrics\": {{\
             \"capacity_per_s\": {{\"value\": {capacity}, \"unit\": \"1/s\"}}, \
             \"latency_p50_us\": {{\"value\": {latency}, \"unit\": \"us\"}}, \
             \"core.score.nn_ns\": {{\"value\": 1, \"unit\": \"ns\"}}}}}}\n]}}"
        )
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(&[100.0], &[95.0], Higher, 0.1), Verdict::Within);
        assert_eq!(judge(&[100.0], &[85.0], Higher, 0.1), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[115.0], Higher, 0.1), Verdict::Better);
        assert_eq!(judge(&[100.0], &[115.0], Lower, 0.1), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[85.0], Lower, 0.1), Verdict::Better);
        // Medians agree, but set B ranges over 30 % of its median.
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[85.0, 100.0, 115.0], Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[98.0, 100.0, 103.0], Lower, 0.1),
            Verdict::Within
        );
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn hand_made_files_give_the_expected_report() {
        let a = [file(1000.0, 600.0), file(1010.0, 610.0), file(990.0, 590.0)];
        let same = [file(1005.0, 605.0), file(995.0, 600.0), file(1000.0, 598.0)];
        let (report, worse) = compare_sets(&a, &same, SPEC).expect("compares");
        assert!(!worse, "{report}");
        assert_eq!(
            report.lines().count(),
            2,
            "per-layer metrics are not judged: {report}"
        );
        assert!(
            report.lines().all(|line| line.contains(" within ")),
            "{report}"
        );

        let slower = [file(800.0, 601.0), file(820.0, 600.0), file(810.0, 602.0)];
        let (report, worse) = compare_sets(&a, &slower, SPEC).expect("compares");
        assert!(worse);
        assert!(
            report.contains("serve_adhoc capacity_per_s worse"),
            "{report}"
        );
        assert!(
            report.contains("serve_adhoc latency_p50_us within"),
            "{report}"
        );

        assert!(compare_sets(&a, &["{\"runs\": []}".to_string()], SPEC).is_err());
    }

    #[test]
    fn bounds_come_from_the_spec() {
        let bounds = read_bounds(SPEC).expect("reads");
        assert_eq!(
            bounds[0],
            ("capacity_per_s".to_string(), Better::Higher, 0.1)
        );
        assert!(read_bounds("{}").is_err());
    }
}
