//! Attribution: where a request's outcome and its time are counted.
//!
//! A [`Tally`] counts for `ScoringServer::stats` and for `/metrics` at
//! once, so the drained identity (`submitted == completed + rejected +
//! worker_lost + deadline_timeouts`) reads the same from both;
//! [`Shared::finish_traced`] cuts a completed request's time into the
//! segment chain behind `/debug/slowest` and the `segment_*_us` histograms.

use super::{ServedVia, Shared};
use crate::stats::SlowRequest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use tasq::pipeline::ServedTier;
use tasq_obs::{Counter, TraceContext};

/// Process-wide serving metrics with no per-server twin.
struct ServeMetrics {
    /// Equal to `serve_cache_hits_total` by construction: `submit` answers
    /// every hit on its caller's thread and both are bumped there. Kept
    /// only because `tasq-benchmark` reads `serve_fastpath_hits_total` by
    /// name (`net.fastpath_share`); a `benchmark` PR that re-points it at
    /// `serve_cache_hits_total` can delete this counter.
    fastpath_hits: Counter,
    /// Process-wide latency histogram; each server also keeps its own
    /// detached histogram for per-server snapshots.
    latency: tasq_obs::Histogram,
    /// Tail-latency attribution: each request's end-to-end time is
    /// decomposed into contiguous segments whose sums equal the
    /// end-to-end total, so `sum(segment sums) ≈ serve_latency_us_sum`
    /// is a checkable invariant. Traced requests leave exemplars.
    seg_fastpath_probe: tasq_obs::Histogram,
    seg_queue_wait: tasq_obs::Histogram,
    seg_batch_wait: tasq_obs::Histogram,
    seg_score_primary: tasq_obs::Histogram,
    seg_score_fallback: tasq_obs::Histogram,
    seg_score_analytic: tasq_obs::Histogram,
    seg_flush: tasq_obs::Histogram,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tasq_obs::Registry::global();
        ServeMetrics {
            fastpath_hits: r.counter(
                "serve_fastpath_hits_total",
                "cache hits answered on the submitting thread (equals serve_cache_hits_total)",
            ),
            latency: r
                .histogram("serve_latency_us", "end-to-end request latency in microseconds"),
            seg_fastpath_probe: r.histogram(
                "segment_fastpath_probe_us",
                "submit entry to admission decision (whole request for inline answers)",
            ),
            seg_queue_wait: r
                .histogram("segment_queue_wait_us", "enqueue to worker dequeue"),
            seg_batch_wait: r.histogram(
                "segment_batch_wait_us",
                "worker dequeue to this request's scoring turn",
            ),
            seg_score_primary: r
                .histogram("segment_score_primary_us", "scoring time, primary tier"),
            seg_score_fallback: r
                .histogram("segment_score_fallback_us", "scoring time, fallback tier"),
            seg_score_analytic: r
                .histogram("segment_score_analytic_us", "scoring time, analytic tier"),
            seg_flush: r
                .histogram("segment_flush_us", "score end to completion bookkeeping"),
        }
    })
}

/// One always-on count, kept twice: for this server's stats snapshot and
/// in the global metrics registry, so the expositions see serving activity
/// live. [`Tally::count`] is the only way to bump either, so the two
/// cannot drift. Relaxed increments; never contended.
pub(super) struct Tally {
    server: AtomicU64,
    registry: Counter,
}

impl Tally {
    fn new(name: &str, help: &str) -> Self {
        let registry = tasq_obs::Registry::global().counter(name, help);
        Self { server: AtomicU64::new(0), registry }
    }

    pub(super) fn count(&self) {
        self.server.fetch_add(1, Ordering::Relaxed);
        self.registry.inc();
    }

    /// This server's count.
    pub(super) fn get(&self) -> u64 {
        self.server.load(Ordering::Relaxed)
    }
}

pub(super) struct Counters {
    pub(super) submitted: Tally,
    pub(super) completed: Tally,
    pub(super) cache_hits: Tally,
    pub(super) model_scored: Tally,
    pub(super) shed: Tally,
    pub(super) rejected: Tally,
    pub(super) batches: Tally,
    pub(super) worker_lost: Tally,
    pub(super) deadline_timeouts: Tally,
    pub(super) worker_respawns: Tally,
    pub(super) breaker_trips: Tally,
    pub(super) breaker_recoveries: Tally,
    pub(super) batched_requests: AtomicU64,
    pub(super) peak_queue_depth: AtomicU64,
    /// Per-envelope sequence numbers keying trace channels/resources.
    pub(super) trace_seq: AtomicU64,
}

impl Counters {
    pub(super) fn new() -> Self {
        let t = Tally::new;
        Self {
            submitted: t("serve_submitted_total", "requests accepted by submit"),
            completed: t("serve_completed_total", "requests answered on any path"),
            cache_hits: t("serve_cache_hits_total", "requests answered from the signature cache"),
            model_scored: t("serve_model_scored_total", "requests scored by the worker pool"),
            shed: t("serve_shed_total", "requests shed to the analytic tier"),
            rejected: t("serve_rejected_total", "requests refused at admission"),
            batches: t("serve_batches_total", "micro-batches executed"),
            worker_lost: t("serve_worker_lost_total", "admitted requests resolved as WorkerLost"),
            deadline_timeouts: t(
                "serve_deadline_timeouts",
                "requests resolved as over their deadline",
            ),
            worker_respawns: t(
                "serve_worker_respawns",
                "panicked workers respawned by the supervisor",
            ),
            breaker_trips: t(
                "serve_breaker_trips",
                "primary-tier circuit breaker open transitions",
            ),
            breaker_recoveries: t(
                "serve_breaker_recoveries_total",
                "primary-tier circuit breaker half-open to closed recoveries",
            ),
            batched_requests: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
        }
    }
}

/// Stage timestamps for a request that went through the worker pool;
/// inline (cache/shed) answers have no stages — their whole life is the
/// fastpath probe.
pub(super) struct StageClock {
    pub(super) dequeued: Instant,
    pub(super) score_start: Instant,
    pub(super) score_end: Instant,
    pub(super) tier: ServedTier,
}

/// Microseconds between two instants, saturating (clock steps between
/// threads can make a later stamp read earlier).
fn stage_us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros().min(u128::from(u64::MAX)) as u64
}

fn tier_label(tier: ServedTier) -> &'static str {
    match tier {
        ServedTier::Primary => "primary",
        ServedTier::Fallback => "fallback",
        ServedTier::Analytic => "analytic",
    }
}

fn via_label(via: ServedVia) -> &'static str {
    match via {
        ServedVia::Cache => "cache",
        ServedVia::Model => "model",
        ServedVia::Shed => "shed",
    }
}

/// Record `value` plainly, or with an exemplar when the request is
/// traced.
fn record_segment(histogram: &tasq_obs::Histogram, value: u64, ctx: TraceContext) {
    if ctx.is_active() {
        histogram.record_traced(value, ctx.trace_id);
    } else {
        histogram.record(value);
    }
}

impl Shared {
    /// Complete one request: latency + segment histograms (with trace
    /// exemplars), SLO accounting, and slowest-request retention. The
    /// segment chain is contiguous — probe → queue → batch → score →
    /// flush for pooled requests, probe-only for inline answers — so
    /// per-request segment sums equal the end-to-end total.
    pub(super) fn finish_traced(
        &self,
        via: ServedVia,
        submitted: Instant,
        enqueued: Instant,
        ctx: TraceContext,
        stages: Option<StageClock>,
    ) {
        let done = Instant::now();
        let elapsed = done.saturating_duration_since(submitted);
        let total_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        if ctx.is_active() {
            self.latency.record_traced(elapsed, ctx.trace_id);
        } else {
            self.latency.record(elapsed);
        }
        let metrics = serve_metrics();
        record_segment(&metrics.latency, total_us, ctx);
        self.counters.completed.count();
        match via {
            ServedVia::Cache => {
                metrics.fastpath_hits.inc();
                &self.counters.cache_hits
            }
            ServedVia::Model => &self.counters.model_scored,
            ServedVia::Shed => &self.counters.shed,
        }
        .count();

        let now_us = tasq_obs::clock::now_micros();
        self.slo.record_latency(now_us, total_us);
        // A shed answer is valid but degraded: it spends availability
        // budget alongside rejects and lost workers.
        self.slo.record_outcome(now_us, via != ServedVia::Shed);

        let slow = match stages {
            None => {
                record_segment(&metrics.seg_fastpath_probe, total_us, ctx);
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: via_label(via),
                    tier: "-",
                    fastpath_probe_us: total_us,
                    queue_wait_us: 0,
                    batch_wait_us: 0,
                    score_us: 0,
                    flush_us: 0,
                }
            }
            Some(st) => {
                let probe = stage_us(submitted, enqueued);
                let queue_wait = stage_us(enqueued, st.dequeued);
                let batch_wait = stage_us(st.dequeued, st.score_start);
                let score = stage_us(st.score_start, st.score_end);
                let flush = stage_us(st.score_end, done);
                record_segment(&metrics.seg_fastpath_probe, probe, ctx);
                record_segment(&metrics.seg_queue_wait, queue_wait, ctx);
                record_segment(&metrics.seg_batch_wait, batch_wait, ctx);
                let score_histogram = match st.tier {
                    ServedTier::Primary => &metrics.seg_score_primary,
                    ServedTier::Fallback => &metrics.seg_score_fallback,
                    ServedTier::Analytic => &metrics.seg_score_analytic,
                };
                record_segment(score_histogram, score, ctx);
                record_segment(&metrics.seg_flush, flush, ctx);
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: via_label(via),
                    tier: tier_label(st.tier),
                    fastpath_probe_us: probe,
                    queue_wait_us: queue_wait,
                    batch_wait_us: batch_wait,
                    score_us: score,
                    flush_us: flush,
                }
            }
        };
        self.slowest.offer(slow);
    }

    /// An admitted request failed (reject, lost worker, deadline): burn
    /// availability budget without recording a completion latency.
    pub(super) fn record_failure(&self) {
        self.slo.record_outcome(tasq_obs::clock::now_micros(), false);
    }
}
