//! # tasq — Token Allocation for Scalable Queries
//!
//! A from-scratch Rust reproduction of **TASQ** (Pimpley et al., *Towards
//! Optimal Resource Allocation for Big Data Analytics*, EDBT 2022): an
//! end-to-end ML pipeline that predicts, at compile time, the
//! **performance characteristic curve (PCC)** — run time as a function of
//! allocated tokens — of a SCOPE-like analytics job, and uses it to choose
//! the optimal token allocation.
//!
//! ## Highlights
//!
//! * [`pcc`] — the power-law PCC `runtime = b · A^a`, its log-log fit,
//!   monotonicity, elbow finding, and optimal-token search.
//! * [`policy`] — allocation policies (default / peak / adaptive peak) and
//!   the token-request-reduction analysis behind the paper's Figure 2.
//! * [`featurize`] — Table 1 / Table 2 featurization: aggregated job-level
//!   vectors for XGBoost and the NN, operator-level feature matrices plus
//!   the plan DAG for the GNN.
//! * [`augment`] — AREPAS-driven training-data augmentation: synthesize
//!   run times at unobserved token counts from a single observed skyline.
//! * [`models`] — the four predictors the paper compares: XGBoost SS,
//!   XGBoost PL, NN, and GNN, behind one [`models::PccPredictor`] trait.
//! * [`loss`] — the constrained loss functions LF1/LF2/LF3 of Section 4.5.
//! * [`selection`] — the flighting job-subset selection of Section 5.1
//!   (filter → k-means → stratified under-sampling → KS quality check).
//! * [`eval`] — the paper's evaluation metrics (Pattern / curve-parameter
//!   MAE / run-time Median AE) and workload-level savings analysis.
//! * [`pipeline`] — the in-process equivalent of Figure 4's system:
//!   repository → featurize → train → model store → scoring service.
//! * [`validate`] — the PCC parameter/curve invariants (positivity,
//!   monotonicity, the Amdahl ceiling) enforced at training time and by
//!   deploy probes.
//!
//! ## Quickstart
//!
//! ```
//! use scope_sim::{WorkloadConfig, WorkloadGenerator};
//! use tasq::augment::AugmentConfig;
//! use tasq::dataset::Dataset;
//! use tasq::models::{NnPcc, NnTrainConfig, PccPredictor};
//!
//! // 1. A (synthetic) historical workload.
//! let jobs = WorkloadGenerator::new(WorkloadConfig {
//!     num_jobs: 60,
//!     seed: 7,
//!     ..Default::default()
//! })
//! .generate();
//!
//! // 2. Execute once per job and augment with AREPAS.
//! let dataset = Dataset::build(&jobs, &AugmentConfig::default());
//!
//! // 3. Train the NN PCC model (tiny epoch count for the doctest).
//! let model = NnPcc::train(
//!     &dataset,
//!     &NnTrainConfig { epochs: 3, ..Default::default() },
//! );
//!
//! // 4. Predict the PCC for a job and pick an optimal allocation.
//! let pcc = model.predict_pcc(&dataset.examples[0].features);
//! assert!(pcc.is_non_increasing());
//! let optimal = pcc.optimal_tokens(0.01, 1, 6287);
//! assert!(optimal >= 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod augment;
pub mod baselines;
pub mod codec;
pub mod dataset;
pub mod eval;
pub mod featurize;
pub mod loss;
pub mod models;
pub mod pcc;
pub mod pipeline;
pub mod platforms;
pub mod policy;
pub mod selection;
pub mod slo;
pub mod validate;

pub use pcc::PowerLawPcc;
pub use validate::{validate_curve, validate_pcc, CurveViolation, PccViolation};
