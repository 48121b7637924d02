//! # tasq-resil — crash consistency and fault tolerance for TASQ
//!
//! PR 1 made the *simulated* cluster fault-tolerant; this crate makes
//! the real tasq processes fault-tolerant. Three pieces:
//!
//! * [`snapshot`] — the one durable format: whole-file atomic snapshots
//!   (write-temp → fsync → rename → fsync-dir), CRC32-checked on load.
//!   Model artifacts, pipeline checkpoints (one file per stage) and the
//!   registry's deployment manifest each keep only their newest record;
//!   a crash mid-commit tears the temp, never the committed file, so a
//!   committed file that fails to load is refused.
//! * [`breaker`] — a tick-driven circuit breaker (closed → open →
//!   half-open → closed) that never reads the wall clock, so serving
//!   degradation replays deterministically under test.
//! * [`chaos`] — seeded [`ChaosPlan`]s: every injected fault is a pure
//!   function of `(preset, seed)`, which is what lets CI assert
//!   `resumed_bit_identical` and zero-silent-loss on real kill/recover
//!   runs.
//!
//! The crate deliberately depends only on `tasq-obs` (for the `resil_*`
//! counters and commit/restore spans); core, serve, scope-sim, and the
//! CLI all layer on top of it.

#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod crc;
pub mod error;
pub mod metrics;
pub mod snapshot;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{ChaosPlan, DeadlineStorm, PRESET_NAMES};
pub use error::ResilError;
pub use metrics::metrics;
