//! Attribution: where a request's outcome and its time are counted.
//!
//! A [`Tally`] counts for `ScoringServer::stats` and for `/metrics` at
//! once, so the drained identity (`submitted == completed + rejected +
//! worker_lost + deadline_timeouts`) reads the same from both;
//! [`ScoringServer::finish`] cuts a completed request's time into the
//! segment chain behind `/debug/slowest` and the `segment_*_us` histograms.
//!
//! Each fact is recorded once, into `tasq_obs`'s single-writer cells (a
//! relaxed load and store each). A cache hit records its latency (server
//! and global histogram) and four counts (submitted, completed, cache and
//! fastpath hits); a scored miss records its latency, three counts
//! (submitted, completed, model scored), its probe and its score segment.

use super::ScoringServer;
use crate::stats::SlowRequest;
use std::sync::atomic::AtomicU64;
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
    /// Tail-latency attribution of a scored miss: its end-to-end time is
    /// cut into two contiguous segments, probe then score, whose sum is
    /// the total. A hit's whole life is its probe, which its latency
    /// already records. Traced requests leave exemplars.
    seg_fastpath_probe: tasq_obs::Histogram,
    seg_score_primary: tasq_obs::Histogram,
    seg_score_fallback: tasq_obs::Histogram,
    seg_score_analytic: tasq_obs::Histogram,
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
                "submit entry to score start of a scored miss",
            ),
            seg_score_primary: r
                .histogram("segment_score_primary_us", "scoring time, primary tier"),
            seg_score_fallback: r
                .histogram("segment_score_fallback_us", "scoring time, fallback tier"),
            seg_score_analytic: r
                .histogram("segment_score_analytic_us", "scoring time, analytic tier"),
        }
    })
}

/// Register the segments that are never recorded: a miss is scored where
/// it arrives, by itself, and its score's end is its completion, so the
/// queue wait, the batch wait and the flush are 0 by construction. Kept
/// only because `tasq-benchmark` reads them by name (an empty histogram
/// reads 0 there, as a histogram of zeros did); a `benchmark` PR that
/// drops those rows can delete them.
fn register_zero_segments() {
    let r = tasq_obs::Registry::global();
    r.histogram("segment_queue_wait_us", "always empty: a miss is scored where it arrives");
    r.histogram("segment_batch_wait_us", "always empty: a miss is scored by itself");
    r.histogram("segment_flush_us", "always empty: a miss completes when its score ends");
}

/// One always-on count, kept twice: for this server's stats snapshot and
/// in the global metrics registry, so the expositions see serving activity
/// live. [`Tally::count`] is the only way to bump either, so the two
/// cannot drift. Both are single-writer cells: no locked instruction.
pub(super) struct Tally {
    server: Counter,
    registry: Counter,
}

impl Tally {
    fn new(name: &str, help: &str) -> Self {
        let registry = tasq_obs::Registry::global().counter(name, help);
        Self { server: Counter::new(), registry }
    }

    pub(super) fn count(&self) {
        self.server.inc();
        self.registry.inc();
    }

    /// This server's count.
    pub(super) fn get(&self) -> u64 {
        self.server.get()
    }
}

pub(super) struct Counters {
    pub(super) submitted: Tally,
    pub(super) completed: Tally,
    pub(super) cache_hits: Tally,
    pub(super) model_scored: Tally,
    pub(super) rejected: Tally,
    pub(super) worker_lost: Tally,
    pub(super) deadline_timeouts: Tally,
    pub(super) breaker_trips: Tally,
    pub(super) breaker_recoveries: Tally,
    /// Most misses in flight at once; written only when exceeded.
    pub(super) peak_queue_depth: AtomicU64,
    /// Miss sequence numbers, the ticks of the breaker and the chaos plan.
    pub(super) seq: AtomicU64,
}

impl Counters {
    pub(super) fn new() -> Self {
        register_zero_segments();
        let t = Tally::new;
        Self {
            submitted: t("serve_submitted_total", "requests accepted by submit"),
            completed: t("serve_completed_total", "requests answered on any path"),
            cache_hits: t("serve_cache_hits_total", "requests answered from the signature cache"),
            model_scored: t("serve_model_scored_total", "requests scored against the model"),
            rejected: t("serve_rejected_total", "requests refused at admission"),
            worker_lost: t("serve_worker_lost_total", "admitted requests whose score panicked"),
            deadline_timeouts: t(
                "serve_deadline_timeouts",
                "requests resolved as over their deadline",
            ),
            breaker_trips: t(
                "serve_breaker_trips",
                "primary-tier circuit breaker open transitions",
            ),
            breaker_recoveries: t(
                "serve_breaker_recoveries_total",
                "primary-tier circuit breaker half-open to closed recoveries",
            ),
            peak_queue_depth: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }
}

/// Stage timestamps of a scored miss; a cache hit has no stages — its
/// whole life is the fastpath probe. The score's end is the miss's
/// completion time.
pub(super) struct StageClock {
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

/// Record `value` plainly, or with an exemplar when the request is
/// traced.
fn record_segment(histogram: &tasq_obs::Histogram, value: u64, ctx: TraceContext) {
    if ctx.is_active() {
        histogram.record_traced(value, ctx.trace_id);
    } else {
        histogram.record(value);
    }
}

impl ScoringServer {
    /// Complete one answered request: latency + segment histograms (with
    /// trace exemplars), SLO accounting, and slowest-request retention.
    /// The segment chain is contiguous — probe → score for a scored miss,
    /// probe-only for a cache hit — so per-request segment sums equal the
    /// end-to-end total. A hit reads the clock here; a miss completes at
    /// its score's end and reads none.
    pub(super) fn finish(&self, submitted: Instant, ctx: TraceContext, stages: Option<StageClock>) {
        let done = stages.as_ref().map_or_else(Instant::now, |st| st.score_end);
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
        self.slo.record_success(tasq_obs::clock::micros_at(done), total_us);

        let slow = match stages {
            None => {
                self.counters.cache_hits.count();
                metrics.fastpath_hits.inc();
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: "cache",
                    tier: "-",
                    fastpath_probe_us: total_us,
                    score_us: 0,
                    flush_us: 0,
                }
            }
            Some(st) => {
                self.counters.model_scored.count();
                let probe = stage_us(submitted, st.score_start);
                let score = stage_us(st.score_start, st.score_end);
                record_segment(&metrics.seg_fastpath_probe, probe, ctx);
                let score_histogram = match st.tier {
                    ServedTier::Primary => &metrics.seg_score_primary,
                    ServedTier::Fallback => &metrics.seg_score_fallback,
                    ServedTier::Analytic => &metrics.seg_score_analytic,
                };
                record_segment(score_histogram, score, ctx);
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: "model",
                    tier: tier_label(st.tier),
                    fastpath_probe_us: probe,
                    score_us: score,
                    flush_us: 0,
                }
            }
        };
        self.slowest.offer(slow);
    }

    /// A request failed (overload, panicked score, deadline): burn
    /// availability budget without recording a completion latency.
    pub(super) fn record_failure(&self) {
        self.slo.record_outcome(tasq_obs::clock::now_micros(), false);
    }
}
