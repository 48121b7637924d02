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
//! - [`server`] — the server itself, behind one entry point
//!   ([`ScoringServer::submit`], taking a [`ScoreRequest`] or a bare
//!   job): every request is answered on the thread that submits it,
//!   from the cache or by scoring it there under a panic boundary, the
//!   circuit breaker and its deadline; at most `workers` misses score at
//!   once and a miss beyond that is refused. Lock-free latency stats
//!   live in [`stats`].
//!
//! The server owns no threads: whoever submits does the work, so the
//! host's threads (a CLI loop, a benchmark's generator, `tasq-net`'s
//! event-loop shards) are the concurrency. There is no async runtime
//! and no network surface *in this crate* — the server embeds into a
//! host process (the `tasq` CLI `serve` subcommand), and `tasq-net`
//! puts it on a socket.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod cache;
pub mod registry;
pub mod server;
pub mod signature;
pub mod stats;

pub use cache::{CacheConfig, CacheStats, SignatureCache};
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
