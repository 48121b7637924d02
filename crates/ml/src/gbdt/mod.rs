//! Gradient-boosted regression trees ("XGBoost from scratch").
//!
//! The paper's point-prediction baseline trains XGBoost with Gamma
//! regression trees on job run time (Section 4.4). This module implements
//! the same algorithm family: second-order boosting (Chen & Guestrin 2016)
//! with histogram-based split finding, shrinkage, L2 leaf regularization,
//! minimum-gain pruning, and row subsampling. Two objectives are provided —
//! squared error, and Gamma deviance with a log link (predictions are
//! `exp(raw score)`, appropriate for strictly positive right-skewed targets
//! like run times).

mod binning;
mod booster;
mod objective;
mod tree;

pub use binning::{BinMapper, BinnedDataset};
pub use booster::{Booster, BoosterConfig};
pub use objective::Objective;
pub use tree::Tree;
