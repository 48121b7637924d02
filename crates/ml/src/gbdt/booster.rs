//! The gradient-boosting driver: round loop, shrinkage, subsampling.

use super::binning::{BinMapper, BinnedDataset};
use super::objective::Objective;
use super::tree::{GrowthParams, Tree};
use crate::rand_ext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::Infallible;
use tasq_codec::Wire;

/// Hyper-parameters for [`Booster::train`].
#[derive(Debug, Clone)]
pub struct BoosterConfig {
    /// Training objective.
    pub objective: Objective,
    /// Number of boosting rounds (trees).
    pub num_rounds: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Shrinkage (eta).
    pub learning_rate: f64,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum loss reduction to make a split.
    pub min_split_gain: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Fraction of rows sampled per round (1.0 = no subsampling).
    pub subsample: f64,
    /// Number of histogram bins per feature.
    pub max_bins: usize,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for BoosterConfig {
    fn default() -> Self {
        Self {
            objective: Objective::SquaredError,
            num_rounds: 100,
            max_depth: 6,
            learning_rate: 0.1,
            lambda: 1.0,
            min_split_gain: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            max_bins: 64,
            seed: 0,
        }
    }
}

/// A checkpoint callback of the round loop; an `Err` halts training.
type OnRound<'a, E> = &'a mut dyn FnMut(&BoosterCheckpoint) -> Result<(), E>;

/// Mid-training state captured after each completed boosting round.
///
/// Everything the round loop carries across iterations is here — the
/// completed-round count, the subsampling RNG's raw state, the per-row
/// margins, the trees grown so far and the loss curve — while the
/// binned dataset and gradients are recomputed deterministically from
/// the inputs. Feeding a checkpoint back into
/// [`Booster::train_resumable_with_pool`] replays the remaining rounds
/// bit-identically to a run that was never interrupted.
#[derive(Debug, Clone, Wire)]
pub struct BoosterCheckpoint {
    /// Boosting rounds completed.
    pub round: usize,
    /// Raw subsampling-RNG state after `round` rounds.
    pub rng_state: [u64; 4],
    /// Base margin (recomputable, carried for validation).
    pub base_score: f64,
    /// Per-row raw margins after `round` rounds.
    pub raw: Vec<f64>,
    /// Trees grown so far.
    pub trees: Vec<Tree>,
    /// Mean training loss per completed round.
    pub training_loss: Vec<f64>,
}

/// A trained gradient-boosted tree ensemble.
///
/// # Examples
///
/// ```
/// use tasq_ml::gbdt::{Booster, BoosterConfig};
///
/// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
/// let targets: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 5.0).collect();
/// let booster = Booster::train(&rows, &targets, &BoosterConfig::default());
/// let prediction = booster.predict_row(&[50.0]);
/// assert!((prediction - 155.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, Wire)]
pub struct Booster {
    objective: Objective,
    base_score: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
    num_features: usize,
    /// Mean training loss after each round, for diagnostics.
    pub training_loss: Vec<f64>,
}

impl Booster {
    /// Train an ensemble on rows (`n` feature vectors) and targets.
    ///
    /// # Panics
    /// Panics if lengths mismatch, the dataset is empty, or a Gamma
    /// objective is given non-positive targets.
    pub fn train(rows: &[Vec<f64>], targets: &[f64], config: &BoosterConfig) -> Self {
        Self::train_with_pool(rows, targets, config, &tasq_par::Pool::sequential())
    }

    /// [`Booster::train`] with the per-feature split search of every tree
    /// fanned out over `pool`. The round loop, subsampling RNG stream and
    /// prediction updates are untouched, and the split search reduces
    /// deterministically, so the trained ensemble is bit-identical to the
    /// sequential one at any thread count.
    ///
    /// # Panics
    /// As [`Booster::train`].
    pub fn train_with_pool(
        rows: &[Vec<f64>],
        targets: &[f64],
        config: &BoosterConfig,
        pool: &tasq_par::Pool,
    ) -> Self {
        let Ok(booster) = Self::fit::<Infallible>(rows, targets, config, pool, None, None);
        booster
    }

    /// [`Booster::train_with_pool`] with per-round checkpointing.
    ///
    /// After every completed round the freshly captured
    /// [`BoosterCheckpoint`] is handed to `on_round`; returning `false`
    /// halts training right there (the crash-injection hook the chaos
    /// harness uses) and yields `None`. Passing a previous checkpoint as
    /// `resume` skips its completed rounds and restores the subsampling
    /// RNG mid-stream, so an interrupted-and-resumed run grows exactly
    /// the trees an uninterrupted one would — bit for bit.
    ///
    /// # Panics
    /// As [`Booster::train`], and if `resume` does not match the
    /// dataset's row count or its own round count.
    pub fn train_resumable_with_pool(
        rows: &[Vec<f64>],
        targets: &[f64],
        config: &BoosterConfig,
        pool: &tasq_par::Pool,
        resume: Option<BoosterCheckpoint>,
        on_round: &mut dyn FnMut(&BoosterCheckpoint) -> bool,
    ) -> Option<Self> {
        let mut on_round =
            |checkpoint: &BoosterCheckpoint| on_round(checkpoint).then_some(()).ok_or(());
        Self::fit(rows, targets, config, pool, resume, Some(&mut on_round)).ok()
    }

    /// The round loop behind both entry points. A checkpoint is built
    /// only when there is an `on_round` to hand it to, and an `Err` from
    /// `on_round` halts training with that error.
    fn fit<E>(
        rows: &[Vec<f64>],
        targets: &[f64],
        config: &BoosterConfig,
        pool: &tasq_par::Pool,
        resume: Option<BoosterCheckpoint>,
        mut on_round: Option<OnRound<'_, E>>,
    ) -> Result<Self, E> {
        assert_eq!(rows.len(), targets.len(), "Booster::train: length mismatch");
        assert!(!rows.is_empty(), "Booster::train: empty dataset");
        if config.objective.requires_positive_targets() {
            assert!(
                targets.iter().all(|&y| y > 0.0),
                "Booster::train: Gamma objective requires strictly positive targets"
            );
        }
        let n = rows.len();
        let mapper = BinMapper::fit(rows, config.max_bins);
        let data = BinnedDataset::new(&mapper, rows);

        let base_score = config.objective.base_score(targets);
        let (start_round, mut rng, mut raw, mut trees, mut training_loss) = match resume {
            Some(ckpt) => {
                assert_eq!(ckpt.raw.len(), n, "Booster::resume: row count mismatch");
                assert_eq!(ckpt.trees.len(), ckpt.round, "Booster::resume: round mismatch");
                (
                    ckpt.round,
                    StdRng::from_state(ckpt.rng_state),
                    ckpt.raw,
                    ckpt.trees,
                    ckpt.training_loss,
                )
            }
            None => (
                0,
                StdRng::seed_from_u64(config.seed),
                vec![base_score; n],
                Vec::with_capacity(config.num_rounds),
                Vec::with_capacity(config.num_rounds),
            ),
        };
        let mut grads = vec![0.0; n];
        let mut hess = vec![0.0; n];

        let growth = GrowthParams {
            max_depth: config.max_depth,
            lambda: config.lambda,
            min_split_gain: config.min_split_gain,
            min_child_weight: config.min_child_weight,
        };

        let all: Vec<usize> = (0..n).collect();
        for round in start_round..config.num_rounds {
            let _span = tasq_obs::span(
                tasq_obs::Level::Debug,
                "gbdt_round",
                &[
                    ("round", tasq_obs::FieldValue::U64(round as u64)),
                    ("rows", tasq_obs::FieldValue::U64(n as u64)),
                ],
            );
            for i in 0..n {
                grads[i] = config.objective.gradient(raw[i], targets[i]);
                hess[i] = config.objective.hessian(raw[i], targets[i]);
            }
            let sample: Vec<usize> = if config.subsample < 1.0 {
                let k = ((n as f64) * config.subsample).ceil().max(1.0) as usize;
                rand_ext::sample_indices(&mut rng, n, k)
            } else {
                all.clone()
            };
            let tree = Tree::grow_with_pool(&data, &mapper, &grads, &hess, &sample, &growth, pool);
            for (i, r) in raw.iter_mut().enumerate() {
                *r += config.learning_rate * tree.predict_row(&rows[i]);
            }
            trees.push(tree);
            training_loss.push(Self::mean_loss(config.objective, &raw, targets));

            if let Some(on_round) = on_round.as_mut() {
                on_round(&BoosterCheckpoint {
                    round: round + 1,
                    rng_state: rng.state(),
                    base_score,
                    raw: raw.clone(),
                    trees: trees.clone(),
                    training_loss: training_loss.clone(),
                })?;
            }
        }

        Ok(Self {
            objective: config.objective,
            base_score,
            learning_rate: config.learning_rate,
            trees,
            num_features: mapper.num_features(),
            training_loss,
        })
    }

    fn mean_loss(objective: Objective, raw: &[f64], targets: &[f64]) -> f64 {
        let total: f64 = raw
            .iter()
            .zip(targets)
            .map(|(&r, &y)| match objective {
                Objective::SquaredError => 0.5 * (r - y) * (r - y),
                Objective::GammaDeviance => y * (-r).exp() + r,
                Objective::Quantile(q) => {
                    let e = y - r;
                    (q * e).max((q - 1.0) * e)
                }
            })
            .sum();
        total / raw.len() as f64
    }

    /// Predict in target space (the Gamma objective exponentiates).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.objective.transform(self.predict_raw(row))
    }

    /// Predict the raw (margin) score.
    pub fn predict_raw(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "Booster::predict: feature count mismatch");
        let mut score = self.base_score;
        for tree in &self.trees {
            score += self.learning_rate * tree.predict_row(row);
        }
        score
    }

    /// Predict a batch of rows in target space.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total node count across all trees (a proxy for model size).
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Tree::num_nodes).sum()
    }

    /// Split-count feature importance (how often each feature is used).
    pub fn feature_importance(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_features];
        for tree in &self.trees {
            tree.accumulate_split_counts(&mut counts);
        }
        counts
    }

    /// The training objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn fits_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> =
            (0..500).map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig { num_rounds: 200, learning_rate: 0.2, ..Default::default() },
        );
        let preds = booster.predict(&rows);
        let mae = crate::stats::mean_absolute_error(&preds, &targets);
        let spread = targets.iter().cloned().fold(f64::MIN, f64::max)
            - targets.iter().cloned().fold(f64::MAX, f64::min);
        assert!(mae < spread * 0.05, "mae {mae} vs spread {spread}");
    }

    #[test]
    fn training_loss_decreases() {
        let mut rng = StdRng::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen_range(-3.0..3.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[0].sin() * 10.0).collect();
        let booster = Booster::train(&rows, &targets, &BoosterConfig::default());
        let first = booster.training_loss[0];
        let last = *booster.training_loss.last().unwrap();
        assert!(last < first * 0.2, "loss {first} -> {last}");
        // Loss must be non-increasing within noise (monotone for full-batch
        // squared error).
        for w in booster.training_loss.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn gamma_objective_predicts_positive_skewed_targets() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..600).map(|_| vec![rng.gen_range(1.0..5.0)]).collect();
        // Multiplicative target: y = exp(x) * noise.
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| (r[0]).exp() * rng.gen_range(0.9..1.1))
            .collect();
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig {
                objective: Objective::GammaDeviance,
                num_rounds: 150,
                learning_rate: 0.15,
                ..Default::default()
            },
        );
        let preds = booster.predict(&rows);
        assert!(preds.iter().all(|&p| p > 0.0), "gamma predictions must be positive");
        let mape = crate::stats::median_ape(&preds, &targets);
        assert!(mape < 0.1, "median APE {mape}");
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn gamma_rejects_nonpositive_targets() {
        let rows = vec![vec![1.0], vec![2.0]];
        let targets = vec![1.0, 0.0];
        let _ = Booster::train(
            &rows,
            &targets,
            &BoosterConfig { objective: Objective::GammaDeviance, ..Default::default() },
        );
    }

    #[test]
    fn subsampling_still_learns() {
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 10.0 } else { 0.0 }).collect();
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig { subsample: 0.5, num_rounds: 80, ..Default::default() },
        );
        let preds = booster.predict(&rows);
        let mae = crate::stats::mean_absolute_error(&preds, &targets);
        assert!(mae < 1.0, "mae {mae}");
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect();
        let config = BoosterConfig { subsample: 0.7, seed: 99, ..Default::default() };
        let b1 = Booster::train(&rows, &targets, &config);
        let b2 = Booster::train(&rows, &targets, &config);
        assert_eq!(b1.predict(&rows), b2.predict(&rows));
    }

    /// `train_with_pool` equals `train` to the bit on both sides of the
    /// fan-out threshold: at the benchmark's shape, where every node now
    /// searches sequentially, and at a shape whose root and upper nodes
    /// still take the one-task-per-feature arm.
    #[test]
    fn parallel_split_search_bit_identical_to_sequential() {
        use super::super::tree::split_search_fans_out;
        let pool2 = tasq_par::Pool::new(2);
        for (num_rows, num_features, fans_out) in [(2400, 51, false), (4200, 128, true)] {
            assert_eq!(split_search_fans_out(&pool2, num_rows, num_features), fans_out);
            assert!(!split_search_fans_out(&tasq_par::Pool::sequential(), num_rows, num_features));

            let mut rng = StdRng::seed_from_u64(11);
            let rows: Vec<Vec<f64>> = (0..num_rows)
                .map(|_| (0..num_features).map(|_| rng.gen_range(-5.0..5.0)).collect())
                .collect();
            let targets: Vec<f64> =
                rows.iter().map(|r| r[0] * 3.0 - r[7] * r[7] + r[13].sin() * 4.0).collect();
            // Every row in every round, so the root is `num_rows` wide.
            let config = BoosterConfig {
                num_rounds: 3,
                max_depth: 3,
                subsample: 1.0,
                seed: 7,
                ..Default::default()
            };
            let seq = Booster::train(&rows, &targets, &config);
            for threads in [2, 4] {
                let pool = tasq_par::Pool::new(threads);
                let par = Booster::train_with_pool(&rows, &targets, &config, &pool);
                let bits = |b: &Booster| -> Vec<u64> {
                    b.predict(&rows[..200]).iter().map(|p| p.to_bits()).collect()
                };
                assert_eq!(bits(&seq), bits(&par), "{num_rows}x{num_features}, threads={threads}");
                assert_eq!(seq.total_nodes(), par.total_nodes());
                assert_eq!(seq.feature_importance(), par.feature_importance());
            }
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_every_round() {
        // Subsample < 1.0 so the RNG stream is actually exercised: the
        // restored generator must continue mid-stream, not restart.
        let rows: Vec<Vec<f64>> = (0..120).map(|i| vec![i as f64, (i * 3 % 7) as f64]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1] * r[1]).collect();
        let config =
            BoosterConfig { num_rounds: 8, subsample: 0.6, seed: 17, ..Default::default() };
        let pool = tasq_par::Pool::sequential();
        let baseline = Booster::train_with_pool(&rows, &targets, &config, &pool);
        let baseline_bits: Vec<u64> =
            baseline.predict(&rows).iter().map(|p| p.to_bits()).collect();

        for kill_at in 1..config.num_rounds {
            // "Crash" after `kill_at` rounds, keeping the last checkpoint.
            let mut saved = None;
            let halted = Booster::train_resumable_with_pool(
                &rows,
                &targets,
                &config,
                &pool,
                None,
                &mut |ckpt| {
                    saved = Some(ckpt.clone());
                    ckpt.round < kill_at
                },
            );
            assert!(halted.is_none(), "kill_at {kill_at}: training should have halted");
            let ckpt = saved.expect("at least one checkpoint");
            assert_eq!(ckpt.round, kill_at);

            // Resume and finish; the ensemble must match bit for bit.
            let resumed = Booster::train_resumable_with_pool(
                &rows,
                &targets,
                &config,
                &pool,
                Some(ckpt),
                &mut |_| true,
            )
            .expect("resumed training should finish");
            let resumed_bits: Vec<u64> =
                resumed.predict(&rows).iter().map(|p| p.to_bits()).collect();
            assert_eq!(baseline_bits, resumed_bits, "kill_at {kill_at}");
            assert_eq!(baseline.total_nodes(), resumed.total_nodes());
            assert_eq!(
                baseline.training_loss.len(),
                resumed.training_loss.len(),
                "loss curve must cover all rounds"
            );
        }
    }

    #[test]
    fn quantile_objective_covers_the_quantile() {
        let mut rng = StdRng::seed_from_u64(21);
        // Heteroscedastic target: y = 10x + noise scaled by x.
        let rows: Vec<Vec<f64>> = (0..800).map(|_| vec![rng.gen_range(1.0..5.0)]).collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * r[0] + r[0] * crate::rand_ext::standard_normal(&mut rng))
            .collect();
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig {
                objective: Objective::Quantile(0.9),
                num_rounds: 120,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        let preds = booster.predict(&rows);
        let covered = preds
            .iter()
            .zip(&targets)
            .filter(|(p, y)| *p >= *y)
            .count() as f64
            / rows.len() as f64;
        assert!(
            (0.82..=0.97).contains(&covered),
            "P90 predictions should cover ~90% of targets, got {covered}"
        );
    }

    #[test]
    fn feature_importance_identifies_signal() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        // Only feature 0 matters. Use few rounds: once the signal is fit,
        // later trees would split noise on both features equally.
        let targets: Vec<f64> = rows.iter().map(|r| r[0] * 100.0).collect();
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig { num_rounds: 10, learning_rate: 0.3, ..Default::default() },
        );
        let imp = booster.feature_importance();
        assert!(imp[0] > imp[1] * 2, "importance {imp:?}");
    }
}
