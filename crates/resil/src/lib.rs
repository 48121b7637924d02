//! # tasq-resil — crash consistency and fault tolerance for TASQ
//!
//! PR 1 made the *simulated* cluster fault-tolerant; this crate makes
//! the real tasq processes fault-tolerant. Four pieces:
//!
//! * [`frame`] — append-only CRC32-framed checkpoint logs with an
//!   fsync-per-append commit protocol. Recovery scans the valid prefix,
//!   types a torn tail ([`ResilError::TornTail`]) as distinct from
//!   post-commit corruption ([`ResilError::CrcMismatch`]), and trims it.
//! * [`snapshot`] — whole-file atomic snapshots (write-temp → fsync →
//!   rename → fsync-dir) for artifacts replaced wholesale, with the same
//!   CRC discipline on load.
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
pub mod frame;
pub mod metrics;
pub mod snapshot;
pub mod store;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{ChaosPlan, DeadlineStorm, PRESET_NAMES};
pub use error::ResilError;
pub use frame::{Frame, FrameLog, Recovery};
pub use metrics::metrics;
pub use store::CheckpointStore;
