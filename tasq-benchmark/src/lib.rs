//! The TASQ benchmark of record: four workloads measured end to end and,
//! in a separate traced run, per layer. See `README.md`.

pub mod compare;
pub mod layers;
pub mod load;
pub mod report;
pub mod run;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod training;
