//! Observability for the TASQ workspace, built from scratch (the crate
//! registry is unreachable, so no `tracing` / `prometheus` dependencies).
//!
//! Three subsystems share this crate:
//!
//! * [`span`] — hierarchical structured spans with `key=value` fields,
//!   recorded into thread-owned ring buffers and drained into a global
//!   in-memory collector. The global subscriber switches between *off*
//!   (the disabled check is a single relaxed atomic load — no clock read,
//!   no thread-local touch), human stderr logging with level filtering,
//!   and collection for trace export.
//! * [`metrics`] — named counters, gauges, and log-linear histograms in a
//!   process-global registry with Prometheus-style text exposition.
//!   Counters and histograms record into single-writer cells, one per
//!   recording thread, so a record takes no locked read-modify-write.
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) rendering collected spans, plus arbitrary extra
//!   tracks (the simulator injects its virtual-time events here).
//!
//! Two request-scoped subsystems build on those:
//!
//! * [`trace`] — the compact [`trace::TraceContext`] (128-bit trace id,
//!   span id, sampled flag) that one request carries across threads and
//!   processes, with `traceparent` header and binary wire encodings.
//! * [`slo`] — declarative latency/availability objectives evaluated as
//!   multi-window error-budget burn rates over bounded ring buffers,
//!   deterministic under explicit timestamps.
//!
//! [`clock`] is the single wall-clock read site: every timestamp in the
//! workspace's instrumentation flows through it, which keeps the
//! wall-clock ban in this crate's `clippy.toml` enforceable everywhere
//! else. [`json`] is the workspace's one JSON reader and one JSON writer:
//! every JSON document the workspace emits is a [`json::JsonValue`]
//! printed through its `Display`. [`sync`] holds the workspace's one
//! `Mutex` and one `RwLock`: every lock has a rank, and debug builds check
//! lock order and blocking-under-lock where each lock is taken.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

mod cell;
pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod sync;
pub mod trace;

pub use export::{validate_chrome_trace, ChromeTrace};
pub use metrics::{Counter, Exemplar, Gauge, Histogram, Registry};
pub use slo::{BurnSample, SloConfig, SloEngine, SloKind, SloObjective, SloWindow};
pub use span::{
    collect_enabled, current_span_id, event, set_subscriber, span, span_with_parent,
    subscriber_off, FieldValue, Level, SpanEvent, SpanGuard,
};
pub use trace::TraceContext;
