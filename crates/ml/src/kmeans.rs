//! Lloyd's k-means with k-means++ initialization.
//!
//! Used by the paper's job-subset-selection procedure (Section 5.1, step 2):
//! the workload population is clustered so that a stratified sample can
//! match cluster-size proportions.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here

use crate::matrix::Matrix;
use crate::rand_ext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasq_par::Pool;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Stop when total centroid movement falls below this.
    pub tolerance: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self { k: 8, max_iterations: 100, tolerance: 1e-6 }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids, `k x dims`.
    pub centroids: Matrix,
    /// Cluster assignment of each training point.
    pub assignments: Vec<usize>,
    /// Total within-cluster sum of squared distances.
    pub inertia: f64,
    /// Iterations actually run.
    pub iterations: usize,
}

impl KMeans {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Predict the nearest centroid for a single point.
    ///
    /// # Panics
    /// Panics if the point dimensionality does not match the centroids.
    pub fn predict(&self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.centroids.cols(), "KMeans::predict: dim mismatch");
        nearest_centroid(&self.centroids, point).0
    }

    /// Cluster sizes over the training assignments.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest_centroid(centroids: &Matrix, point: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for c in 0..centroids.rows() {
        let d = squared_distance(centroids.row(c), point);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// k-means++ seeding: the first centroid is uniform, each next one is chosen
/// with probability proportional to its squared distance from the nearest
/// already-chosen centroid.
fn kmeans_pp_init<R: Rng + ?Sized>(rng: &mut R, data: &Matrix, k: usize) -> Matrix {
    let n = data.rows();
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut dist_sq: Vec<f64> =
        (0..n).map(|r| squared_distance(data.row(r), centroids.row(0))).collect();

    for c in 1..k {
        let total: f64 = dist_sq.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = n - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        for r in 0..n {
            let d = squared_distance(data.row(r), centroids.row(c));
            if d < dist_sq[r] {
                dist_sq[r] = d;
            }
        }
    }
    centroids
}

/// Run k-means on the rows of `data`.
///
/// # Panics
/// Panics if `data` is empty or `k == 0`. If `k > n`, `k` is reduced to `n`.
pub fn kmeans<R: Rng + ?Sized>(rng: &mut R, data: &Matrix, config: &KMeansConfig) -> KMeans {
    kmeans_with_pool(rng, data, config, &Pool::sequential())
}

/// [`kmeans`] with the assignment step fanned out over `pool`.
///
/// The assignment step is pure (each row's nearest centroid depends only
/// on the shared centroid matrix), so parallelizing it is bit-identical
/// to the sequential loop; the update step and the empty-cluster re-seed
/// draw from `rng` and stay sequential to preserve the RNG stream.
pub fn kmeans_with_pool<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Matrix,
    config: &KMeansConfig,
    pool: &Pool,
) -> KMeans {
    let n = data.rows();
    assert!(n > 0, "kmeans: empty data");
    assert!(config.k > 0, "kmeans: k must be positive");
    let k = config.k.min(n);

    let mut centroids = kmeans_pp_init(rng, data, k);
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Assignment step (parallel over row blocks).
        assign_rows(data, &centroids, &mut assignments, pool);
        // Update step.
        let mut sums = Matrix::zeros(k, data.cols());
        let mut counts = vec![0usize; k];
        for r in 0..n {
            let a = assignments[r];
            counts[a] += 1;
            for (s, &x) in sums.row_mut(a).iter_mut().zip(data.row(r)) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at a random point.
                let r = rng.gen_range(0..n);
                movement += squared_distance(centroids.row(c), data.row(r)).sqrt();
                centroids.row_mut(c).copy_from_slice(data.row(r));
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let mut move_sq = 0.0;
            for (cent, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                let new = s * inv;
                move_sq += (new - *cent) * (new - *cent);
                *cent = new;
            }
            movement += move_sq.sqrt();
        }
        if movement < config.tolerance {
            break;
        }
    }

    // Final assignment + per-row distances in parallel; the inertia sum
    // stays sequential in row order so float accumulation matches the
    // single-threaded path bit-for-bit.
    let mut distances = vec![0.0f64; n];
    assign_rows_with_distances(data, &centroids, &mut assignments, &mut distances, pool);
    let inertia = distances.iter().sum();
    KMeans { centroids, assignments, inertia, iterations }
}

/// Rows per parallel assignment task; small enough to balance, large
/// enough that a task amortizes scheduling.
const ASSIGN_CHUNK: usize = 64;

fn assign_rows(data: &Matrix, centroids: &Matrix, assignments: &mut [usize], pool: &Pool) {
    let result = pool.par_for_chunks(assignments, ASSIGN_CHUNK, |ci, chunk| {
        let base = ci * ASSIGN_CHUNK;
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = nearest_centroid(centroids, data.row(base + j)).0;
        }
    });
    if let Err(e) = result {
        // nearest_centroid cannot panic for matching dims; runtime bug.
        std::panic::resume_unwind(Box::new(e.to_string()));
    }
}

fn assign_rows_with_distances(
    data: &Matrix,
    centroids: &Matrix,
    assignments: &mut [usize],
    distances: &mut [f64],
    pool: &Pool,
) {
    let n = assignments.len();
    // Pair up (assignment, distance) per row so one parallel sweep fills
    // both output arrays without sharing mutable state across tasks.
    let mut pairs: Vec<(usize, f64)> = vec![(0, 0.0); n];
    let result = pool.par_for_chunks(&mut pairs, ASSIGN_CHUNK, |ci, chunk| {
        let base = ci * ASSIGN_CHUNK;
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = nearest_centroid(centroids, data.row(base + j));
        }
    });
    if let Err(e) = result {
        std::panic::resume_unwind(Box::new(e.to_string()));
    }
    for (r, (a, d)) in pairs.into_iter().enumerate() {
        assignments[r] = a;
        distances[r] = d;
    }
}

/// Run `restarts` independently seeded k-means fits in parallel and keep
/// the best (lowest inertia; ties broken by lowest restart index).
///
/// Each restart's RNG is pre-split from `base_seed` via
/// [`rand_ext::split_seed`], so the winner — and every field of the
/// returned model — is bit-identical at any thread count.
///
/// # Panics
/// Panics if `restarts == 0` or on empty data / `k == 0` (as [`kmeans`]).
pub fn kmeans_restarts(
    data: &Matrix,
    config: &KMeansConfig,
    base_seed: u64,
    restarts: usize,
    pool: &Pool,
) -> KMeans {
    assert!(restarts > 0, "kmeans_restarts: need at least one restart");
    let seeds: Vec<u64> =
        (0..restarts).map(|i| rand_ext::split_seed(base_seed, i as u64)).collect();
    let fits = match pool.par_map_grain(&seeds, 1, |_, &seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Restarts are the parallel axis; each fit assigns sequentially.
        kmeans_with_pool(&mut rng, data, config, &Pool::sequential())
    }) {
        Ok(fits) => fits,
        Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
    };
    let mut iter = fits.into_iter();
    let Some(mut best) = iter.next() else {
        // Unreachable: restarts > 0 is asserted above.
        let mut rng = StdRng::seed_from_u64(base_seed);
        return kmeans(&mut rng, data, config);
    };
    for fit in iter {
        if fit.inertia < best.inertia {
            best = fit;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_blobs(rng: &mut StdRng, per_blob: usize) -> Matrix {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut rows = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..per_blob {
                rows.push(vec![
                    cx + crate::rand_ext::standard_normal(rng) * 0.5,
                    cy + crate::rand_ext::standard_normal(rng) * 0.5,
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn separates_well_separated_blobs() {
        let mut rng = StdRng::seed_from_u64(17);
        let data = three_blobs(&mut rng, 50);
        let model = kmeans(&mut rng, &data, &KMeansConfig { k: 3, ..Default::default() });
        let sizes = model.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 150);
        // Every cluster should capture exactly one blob.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![50, 50, 50], "sizes {sizes:?}");
        // All points in the same blob share an assignment.
        for blob in 0..3 {
            let first = model.assignments[blob * 50];
            assert!(model.assignments[blob * 50..(blob + 1) * 50].iter().all(|&a| a == first));
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = StdRng::seed_from_u64(23);
        let data = three_blobs(&mut rng, 40);
        let m1 = kmeans(&mut rng, &data, &KMeansConfig { k: 1, ..Default::default() });
        let m3 = kmeans(&mut rng, &data, &KMeansConfig { k: 3, ..Default::default() });
        assert!(m3.inertia < m1.inertia * 0.2, "{} vs {}", m3.inertia, m1.inertia);
    }

    #[test]
    fn predict_matches_training_assignment() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = three_blobs(&mut rng, 30);
        let model = kmeans(&mut rng, &data, &KMeansConfig { k: 3, ..Default::default() });
        for r in 0..data.rows() {
            assert_eq!(model.predict(data.row(r)), model.assignments[r]);
        }
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let model = kmeans(&mut rng, &data, &KMeansConfig { k: 10, ..Default::default() });
        assert_eq!(model.k(), 2);
    }

    #[test]
    fn parallel_assignment_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(41);
        let data = three_blobs(&mut rng, 60);
        let config = KMeansConfig { k: 5, ..Default::default() };
        let mut rng_seq = StdRng::seed_from_u64(77);
        let seq = kmeans(&mut rng_seq, &data, &config);
        for threads in [2, 4] {
            let mut rng_par = StdRng::seed_from_u64(77);
            let par = kmeans_with_pool(&mut rng_par, &data, &config, &Pool::new(threads));
            assert_eq!(par.centroids, seq.centroids, "threads={threads}");
            assert_eq!(par.assignments, seq.assignments);
            assert_eq!(par.inertia.to_bits(), seq.inertia.to_bits());
            assert_eq!(par.iterations, seq.iterations);
        }
    }

    #[test]
    fn restarts_deterministic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = three_blobs(&mut rng, 40);
        let config = KMeansConfig { k: 3, ..Default::default() };
        let base = kmeans_restarts(&data, &config, 99, 6, &Pool::sequential());
        for threads in [2, 4] {
            let par = kmeans_restarts(&data, &config, 99, 6, &Pool::new(threads));
            assert_eq!(par.centroids, base.centroids, "threads={threads}");
            assert_eq!(par.assignments, base.assignments);
            assert_eq!(par.inertia.to_bits(), base.inertia.to_bits());
        }
        // More restarts can only improve (or match) the best inertia.
        let single = kmeans_restarts(&data, &config, 99, 1, &Pool::sequential());
        assert!(base.inertia <= single.inertia);
    }

    #[test]
    fn single_point_converges() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let model = kmeans(&mut rng, &data, &KMeansConfig { k: 1, ..Default::default() });
        assert_eq!(model.centroids.row(0), &[3.0, 4.0]);
        assert_eq!(model.inertia, 0.0);
    }
}
