//! Quantile binning of features for histogram-based split finding.
//!
//! Each feature is discretized into at most 256 bins whose edges are
//! empirical quantiles of the training data; trees then search splits over
//! bin boundaries instead of raw values, which makes split finding
//! `O(samples + bins)` per feature per node.

use serde::{Deserialize, Serialize};

/// Maximum number of bins per feature (bin indices fit in a `u8`).
pub const MAX_BINS: usize = 256;

/// Per-feature mapping from raw values to bin indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinMapper {
    /// For each feature, the ascending upper-edge value of each bin except
    /// the last (a value `v` falls in the first bin whose edge is `>= v`).
    edges: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Build a mapper from training rows (`n x f`, row-major slices).
    ///
    /// # Panics
    /// Panics if rows are ragged or `max_bins` is not in `2..=256`.
    pub fn fit(rows: &[Vec<f64>], max_bins: usize) -> Self {
        assert!((2..=MAX_BINS).contains(&max_bins), "max_bins must be in 2..=256");
        let num_features = rows.first().map_or(0, Vec::len);
        let mut edges = Vec::with_capacity(num_features);
        for f in 0..num_features {
            let mut values: Vec<f64> = rows
                .iter()
                .map(|r| {
                    assert_eq!(r.len(), num_features, "BinMapper::fit: ragged rows");
                    r[f]
                })
                .collect();
            values.sort_by(|a, b| a.total_cmp(b));
            values.dedup();
            let feature_edges = if values.len() <= max_bins {
                // One bin per distinct value: edges at midpoints.
                values.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
            } else {
                // Quantile edges.
                let mut e = Vec::with_capacity(max_bins - 1);
                for b in 1..max_bins {
                    let q = b as f64 / max_bins as f64;
                    let idx = ((values.len() - 1) as f64 * q).round() as usize;
                    e.push(values[idx]);
                }
                #[expect(clippy::float_cmp, reason = "drops exact repeats of sampled values")]
                e.dedup_by(|a, b| a == b);
                e
            };
            edges.push(feature_edges);
        }
        Self { edges }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins for feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// Bin index of `value` for feature `f`.
    #[inline]
    pub fn bin(&self, f: usize, value: f64) -> u8 {
        let edges = &self.edges[f];
        // Binary search for the first edge >= value.
        let idx = edges.partition_point(|&e| e < value);
        idx as u8
    }

    /// The raw-value threshold corresponding to "bin index <= b" for
    /// feature `f`: values `<= threshold` go left.
    pub fn threshold_value(&self, f: usize, b: u8) -> f64 {
        let edges = &self.edges[f];
        let i = b as usize;
        if i < edges.len() {
            edges[i]
        } else {
            f64::INFINITY
        }
    }
}

/// A dataset pre-binned for training: bin indices in row-major layout
/// (`sample * num_features + feature`), so a node's split search reads
/// each of its samples' bins as one contiguous row and fills every
/// feature's histogram in one pass over the node's indices.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    bins: Vec<u8>,
    num_samples: usize,
    num_features: usize,
}

impl BinnedDataset {
    /// Bin all rows with the given mapper.
    pub fn new(mapper: &BinMapper, rows: &[Vec<f64>]) -> Self {
        let num_features = mapper.num_features();
        let bins =
            rows.iter().flat_map(|row| (0..num_features).map(|f| mapper.bin(f, row[f]))).collect();
        Self { bins, num_samples: rows.len(), num_features }
    }

    /// Number of samples.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bin of sample `s` for feature `f`.
    #[inline]
    pub fn bin(&self, f: usize, s: usize) -> u8 {
        self.bins[s * self.num_features + f]
    }

    /// Contiguous bins of every feature for sample `s`.
    #[inline]
    pub fn row(&self, s: usize) -> &[u8] {
        &self.bins[s * self.num_features..(s + 1) * self.num_features]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0], vec![2.0]];
        let mapper = BinMapper::fit(&rows, 16);
        assert_eq!(mapper.num_bins(0), 3);
        assert_eq!(mapper.bin(0, 1.0), 0);
        assert_eq!(mapper.bin(0, 2.0), 1);
        assert_eq!(mapper.bin(0, 3.0), 2);
        // Unseen values land in the right bins.
        assert_eq!(mapper.bin(0, 0.0), 0);
        assert_eq!(mapper.bin(0, 2.4), 1);
        assert_eq!(mapper.bin(0, 99.0), 2);
    }

    #[test]
    fn thresholds_separate_bins() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mapper = BinMapper::fit(&rows, 16);
        let t0 = mapper.threshold_value(0, 0);
        assert!((1.0..2.0).contains(&t0));
        assert_eq!(mapper.threshold_value(0, 2), f64::INFINITY);
    }

    #[test]
    fn many_values_use_quantile_edges() {
        let rows: Vec<Vec<f64>> = (0..10_000).map(|i| vec![i as f64]).collect();
        let mapper = BinMapper::fit(&rows, 64);
        assert!(mapper.num_bins(0) <= 64);
        assert!(mapper.num_bins(0) >= 32);
        // Bins should be roughly equally populated.
        let mut counts = vec![0usize; mapper.num_bins(0)];
        for row in &rows {
            counts[mapper.bin(0, row[0]) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 3 + 10, "unbalanced bins: {min}..{max}");
    }

    #[test]
    fn binned_dataset_layout() {
        let rows = vec![vec![1.0, 30.0], vec![2.0, 10.0], vec![3.0, 20.0]];
        let mapper = BinMapper::fit(&rows, 8);
        let ds = BinnedDataset::new(&mapper, &rows);
        assert_eq!(ds.num_samples(), 3);
        assert_eq!(ds.num_features(), 2);
        for s in 0..3 {
            assert_eq!(ds.bin(0, s), s as u8);
            assert_eq!(ds.bin(1, s), ((s + 2) % 3) as u8);
        }
        // Row-major: each sample's bins are one contiguous row.
        assert_eq!(ds.row(0), &[0, 2]);
        assert_eq!(ds.row(1), &[1, 0]);
        assert_eq!(ds.row(2), &[2, 1]);
    }

    #[test]
    fn constant_feature_single_bin() {
        let rows = vec![vec![5.0]; 10];
        let mapper = BinMapper::fit(&rows, 8);
        assert_eq!(mapper.num_bins(0), 1);
        assert_eq!(mapper.bin(0, 5.0), 0);
        assert_eq!(mapper.bin(0, -1.0), 0);
    }
}
