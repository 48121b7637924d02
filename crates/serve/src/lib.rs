//! `tasq-serve`: an embeddable concurrent scoring server for TASQ.
//!
//! The training pipeline (`tasq::pipeline`) produces versioned model
//! artifacts; this crate turns them into a production-shaped serving
//! stack, mirroring how TASQ runs inside a job-submission service:
//!
//! - [`signature`] — deterministic 64-bit plan signatures, so recurring
//!   jobs (the dominant production traffic) are recognizable on arrival.
//! - [`cache`] — a sharded response cache keyed by signature: a CLOCK
//!   ring per shard behind a frequency-sketch (TinyLFU) admission filter,
//!   with hit/miss/eviction/rejection counters.
//! - [`registry`] — an atomically hot-swappable model deployment with
//!   probe validation and rollback-by-not-swapping.
//! - [`server`] — the worker pool itself, behind one entry point
//!   ([`ScoringServer::submit`], taking a [`ScoreRequest`] or a bare
//!   job): work-conserving dispatch (a worker scores the moment it holds
//!   a request; backlog, capped at `max_batch`, is what forms a
//!   micro-batch — there is no batch timer), bounded-queue admission
//!   control with shed-to-analytic-tier degradation, and lock-free
//!   latency stats ([`stats`]).
//!
//! - [`scaling`] — queue-utilization worker autoscaling (min/max pool
//!   bounds, up/down thresholds, cooldown) applied through the server's
//!   dynamic worker pool.
//!
//! Everything is std-threads + channels + atomics over the workspace's
//! vendored dependencies; there is no async runtime and no network
//! surface *in this crate* — the server embeds into a host process
//! (the `tasq` CLI `serve` subcommand), and `tasq-net` puts it on a
//! socket.

#![warn(missing_docs)]

pub mod cache;
pub mod registry;
pub mod scaling;
pub mod server;
pub mod signature;
pub mod stats;

pub use cache::{CacheConfig, CacheStats, SignatureCache};
pub use scaling::{AutoScaler, ScaleAction, ScalingConfig};
pub use registry::{
    ActiveModel, DurableDeployError, ManifestRecord, ModelRegistry, SwapError,
};
pub use server::{
    RequestError, ScoreRequest, ScoringServer, ServeConfig, ServedResponse, ServedVia,
    SubmitError, Ticket,
};
pub use signature::PlanSignature;
pub use stats::{
    LatencyHistogram, LatencySnapshot, ServerStatsSnapshot, SlowRequest, SlowestTracker,
    SLOWEST_SLOTS,
};
