//! # tasq-ml — from-scratch ML substrate for the TASQ reproduction
//!
//! The TASQ paper (EDBT 2022) compares three model families — XGBoost,
//! feed-forward neural networks, and graph neural networks — for predicting
//! performance-characteristic-curve (PCC) parameters of big-data jobs.
//! There are no mature Rust crates for the GNN the paper uses (a
//! SimGNN-style GCN + attention-pooling network) nor a suitable
//! gradient-boosted tree implementation with a Gamma-deviance objective, so
//! this crate implements the entire ML stack from first principles:
//!
//! * [`matrix`] — dense row-major matrices with the linear algebra needed by
//!   the networks (matmul in all transpose flavours, broadcasting helpers).
//!   Their dense loops live in the private `kernels` module, compiled for
//!   the portable target and for AVX2 and picked once per process.
//! * [`rand_ext`] — normal / lognormal / Pareto / truncated sampling built on
//!   top of `rand` (so no extra distribution crate is needed).
//! * [`optim`] — Adam optimizer with bias correction and gradient clipping.
//! * [`nn`] — multi-layer perceptrons with manual reverse-mode gradients.
//! * [`gnn`] — graph convolution layers and SimGNN-style attention pooling
//!   with manual reverse-mode gradients.
//! * [`gbdt`] — second-order gradient-boosted regression trees ("XGBoost
//!   from scratch"): exact greedy splits, shrinkage, L2 leaf regularization,
//!   squared-error and Gamma-deviance (log link) objectives.
//! * [`spline`] — natural cubic smoothing spline (Reinsch algorithm).
//! * [`kmeans`] — Lloyd's algorithm with k-means++ initialization.
//! * [`linreg`] — ordinary least squares (used for log-log power-law fits).
//! * [`stats`] — quantiles, two-sample Kolmogorov–Smirnov test, and the
//!   error metrics the paper reports (MAE, MedianAE%, MeanAPE, MedianAPE).
//!
//! Everything is deterministic given a seed; nothing here does I/O.

#![warn(missing_docs)]

pub mod gbdt;
pub mod gnn;
mod kernels;
pub mod kmeans;
pub mod linreg;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod rand_ext;
pub mod spline;
pub mod stats;

pub use matrix::Matrix;
