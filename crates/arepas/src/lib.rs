//! # arepas — Area-Preserving Allocation Simulator
//!
//! AREPAS (TASQ paper, Section 3.2) synthesizes a job's resource skyline at
//! an alternative (lower) token allocation from a single observed skyline,
//! under the core assumption that *the total amount of work — the area
//! under the skyline in token-seconds — stays constant*.
//!
//! Algorithm (the paper's Algorithm 1):
//!
//! 1. Split the skyline into maximal contiguous sections that are entirely
//!    at-or-under or entirely over the new allocation threshold.
//! 2. Sections at or under the threshold are copied unchanged (Figure 6).
//! 3. Sections over the threshold are flattened to the threshold and
//!    lengthened so their area is preserved (Figure 7).
//! 4. Concatenating the sections yields the simulated skyline; its length
//!    is the simulated run time.
//!
//! The module also provides the validation analyses of Section 5.2:
//! area-conservation tolerance matching across flights of the same job,
//! per-job outlier counting, and percent-error summaries against ground
//! truth re-executions.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod sections;
pub mod simulator;
pub mod validation;

pub use sections::{split_sections, Section, SectionKind};
pub use simulator::{simulate, simulate_runtime, simulate_truncating, SimulatedSkyline};
pub use validation::{
    area_match_fraction, count_outliers_per_job, AreaConservationReport, ErrorSummary,
};
