//! Serving statistics: lock-free latency histograms and counter snapshots.
//!
//! Latencies are recorded into the shared log-linear histogram from
//! [`tasq_obs::metrics`] — 4 linear sub-buckets per power-of-two octave —
//! with atomic increments, so the hot path never takes a lock.
//! Percentiles are derived at snapshot time with intra-bucket linear
//! interpolation, bounding the relative error per observation to one
//! quarter-octave (~12.5%) instead of the 2x a pure power-of-two
//! bucketing allows (which collapsed p50 and p95 into the same value on
//! realistic unimodal latency distributions).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use tasq_obs::json::JsonValue;

/// Lock-free log-linear latency histogram (microsecond resolution).
///
/// Thin wrapper over [`tasq_obs::Histogram`] that speaks [`Duration`] on
/// the way in and serving-style percentile snapshots on the way out. The
/// wrapped handle is shareable: construct with [`LatencyHistogram::from_handle`]
/// to record into a histogram that is also registered in the global
/// metrics [`tasq_obs::Registry`], so one `record` feeds both the server
/// snapshot and the Prometheus exposition.
pub struct LatencyHistogram {
    inner: tasq_obs::Histogram,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty, detached histogram.
    pub fn new() -> Self {
        Self { inner: tasq_obs::Histogram::new() }
    }

    /// Wrap an existing histogram handle (typically one obtained from the
    /// global metrics registry).
    pub fn from_handle(inner: tasq_obs::Histogram) -> Self {
        Self { inner }
    }

    /// Record one observed latency.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.inner.record(micros);
    }

    /// Record one observed latency attributed to a trace, retaining it
    /// as an exemplar when it lands in the histogram's slow tail.
    pub fn record_traced(&self, latency: Duration, trace_id: u128) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.inner.record_traced(micros, trace_id);
    }

    /// Snapshot with derived percentiles.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.inner.count();
        LatencySnapshot {
            count,
            mean_us: self.inner.mean(),
            p50_us: self.inner.quantile(0.50),
            p95_us: self.inner.quantile(0.95),
            p99_us: self.inner.quantile(0.99),
            p999_us: self.inner.quantile(0.999),
        }
    }
}

/// Derived latency summary.
#[derive(Debug, Clone, Default)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Arithmetic mean in microseconds (exact, not bucketed).
    pub mean_us: f64,
    /// Median estimate in microseconds (intra-bucket interpolated).
    pub p50_us: f64,
    /// 95th-percentile estimate in microseconds.
    pub p95_us: f64,
    /// 99th-percentile estimate in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile estimate in microseconds (the tail the SLO
    /// burn-rate engine and exemplars exist to explain).
    pub p999_us: f64,
}

/// Point-in-time server statistics (see `ScoringServer::stats`).
#[derive(Debug, Clone, Default)]
pub struct ServerStatsSnapshot {
    /// Calls to `submit` that reached its counter: every call but one
    /// the signature probe never saw (cache hits included).
    pub submitted: u64,
    /// Requests answered (any path).
    pub completed: u64,
    /// Requests answered from the signature cache, always on the thread
    /// that called `submit` (a network shard's event loop included).
    pub cache_hits: u64,
    /// Requests scored against the model (a miss answered by the
    /// analytic rung of an open breaker included).
    pub model_scored: u64,
    /// Always 0: a miss beyond the in-flight bound is refused, never shed
    /// to the analytic tier. Kept because the benchmark names it.
    pub shed: u64,
    /// Requests refused after being counted as submitted: `Overloaded`,
    /// `InvalidPlan`, or `ShuttingDown` after `close`.
    pub rejected: u64,
    /// Misses admitted to scoring: each is scored by itself, so it counts
    /// as one batch. Kept under its old name because the benchmark reads
    /// it.
    pub batches: u64,
    /// Equal to `batches` (each batch carries one request), so
    /// `mean_batch_size()` is 1 once anything has been scored.
    pub batched_requests: u64,
    /// Most misses in flight at once, across every submitting thread
    /// (bounded by `ServeConfig::workers`).
    pub peak_queue_depth: u64,
    /// Admitted requests resolved as `WorkerLost`: their score panicked.
    pub worker_lost: u64,
    /// Admitted requests resolved as over their deadline budget.
    pub deadline_timeouts: u64,
    /// Primary-tier circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Circuit-breaker half-open → closed recoveries.
    pub breaker_recoveries: u64,
    /// Model-registry generation at snapshot time.
    pub generation: u64,
    /// End-to-end latency summary.
    pub latency: LatencySnapshot,
    /// Signature-cache counters.
    pub cache: crate::cache::CacheStats,
}

impl ServerStatsSnapshot {
    /// Submissions that resolved to *some* terminal outcome: a response
    /// (`completed`), a refusal (`rejected`), a typed `WorkerLost`, or a
    /// typed deadline timeout. The zero-silent-loss invariant the chaos
    /// harness enforces is `submitted == resolved()`.
    pub fn resolved(&self) -> u64 {
        self.completed + self.rejected + self.worker_lost + self.deadline_timeouts
    }

    /// Mean batch size: 1 once anything has been scored, since each miss
    /// is its own batch (0 when nothing was).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// The one JSON rendering of a snapshot: what `/stats` serves, what
    /// `serve --listen` prints when drained, and the chaos report's
    /// `serving` block.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("submitted", self.submitted.into()),
            ("completed", self.completed.into()),
            ("cache_hits", self.cache_hits.into()),
            ("model_scored", self.model_scored.into()),
            ("shed", self.shed.into()),
            ("rejected", self.rejected.into()),
            ("worker_lost", self.worker_lost.into()),
            ("deadline_timeouts", self.deadline_timeouts.into()),
            ("resolved", self.resolved().into()),
            ("breaker_trips", self.breaker_trips.into()),
            ("breaker_recoveries", self.breaker_recoveries.into()),
            ("p50_us", self.latency.p50_us.into()),
            ("p99_us", self.latency.p99_us.into()),
            ("p999_us", self.latency.p999_us.into()),
        ])
    }
}

/// Retained slots in a [`SlowestTracker`] — fixed so sustained load can
/// never grow the tracker's memory.
pub const SLOWEST_SLOTS: usize = 8;

/// One slow request retained for `/debug/slowest`: its trace identity
/// plus the per-segment breakdown that explains where the time went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRequest {
    /// Trace id (0 when the request was untraced).
    pub trace_id: u128,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// Which serving path answered (`"cache"` or `"model"`).
    pub via: &'static str,
    /// Model tier that scored it (`"-"` for inline paths).
    pub tier: &'static str,
    /// Submit entry → score start (the whole request, for a cache hit).
    pub fastpath_probe_us: u64,
    /// Scoring proper.
    pub score_us: u64,
    /// Score end → completion bookkeeping.
    pub flush_us: u64,
}

/// Fixed-slot top-N-by-latency tracker behind `/debug/slowest`.
///
/// Same retention discipline as the histogram exemplars: an atomic floor
/// makes the common case (request faster than everything retained) one
/// relaxed load with no lock, and the slot array never grows.
pub struct SlowestTracker {
    /// Smallest retained total; `u64::MAX` until the slots fill.
    floor: AtomicU64,
    slots: Mutex<[Option<SlowRequest>; SLOWEST_SLOTS]>,
}

impl Default for SlowestTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SlowestTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self {
            floor: AtomicU64::new(u64::MAX),
            slots: Mutex::new(std::array::from_fn(|_| None)),
        }
    }

    /// Offer one completed request; retained iff it beats the slowest-N
    /// floor. Requests faster than the floor cost one relaxed load.
    pub fn offer(&self, request: SlowRequest) {
        let floor = self.floor.load(Ordering::Relaxed);
        if floor != u64::MAX && request.total_us <= floor {
            return;
        }
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.iter_mut().find(|s| s.is_none()) {
            *slot = Some(request);
            return;
        }
        let Some(min_index) = (0..slots.len())
            .min_by_key(|&i| slots[i].as_ref().map_or(0, |s| s.total_us))
        else {
            return;
        };
        let min_total = slots[min_index].as_ref().map_or(0, |s| s.total_us);
        if request.total_us > min_total {
            slots[min_index] = Some(request);
        }
        let new_floor = slots
            .iter()
            .flatten()
            .map(|s| s.total_us)
            .min()
            .unwrap_or(u64::MAX);
        self.floor.store(new_floor, Ordering::Relaxed);
    }

    /// Retained requests, slowest first.
    pub fn snapshot(&self) -> Vec<SlowRequest> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<SlowRequest> = slots.iter().flatten().cloned().collect();
        drop(slots);
        out.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        out
    }

    /// JSON for the `/debug/slowest` endpoint.
    pub fn render_json(&self) -> String {
        let entries = self.snapshot().into_iter().map(|s| {
            JsonValue::object([
                ("trace_id", format!("{:032x}", s.trace_id).into()),
                ("total_us", s.total_us.into()),
                ("via", s.via.into()),
                ("tier", s.tier.into()),
                (
                    "segments",
                    JsonValue::object([
                        ("fastpath_probe_us", s.fastpath_probe_us.into()),
                        ("score_us", s.score_us.into()),
                        ("flush_us", s.flush_us.into()),
                    ]),
                ),
            ])
        });
        JsonValue::object([("slowest", JsonValue::Array(entries.collect()))]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_buckets_latencies() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(5));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        // 10 µs lands in the [10, 12) sub-bucket; interpolation keeps the
        // median near the true value instead of reporting the octave top.
        assert!((10.0..12.0).contains(&snap.p50_us), "p50 {}", snap.p50_us);
        // 5 ms lands in [4096, 5120): p99 interpolates inside it.
        assert!((4096.0..5120.0).contains(&snap.p99_us), "p99 {}", snap.p99_us);
        assert!(snap.p95_us <= snap.p99_us);
        // The bimodal split is resolved: p95 sits in the slow mode, far
        // from the 10 µs median (the old power-of-two buckets collapsed
        // these within one octave).
        assert!(snap.p95_us - snap.p50_us > 4000.0);
        assert!((snap.mean_us - (90.0 * 10.0 + 10.0 * 5000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshots_zeros() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_us, 0.0);
        assert_eq!(snap.p99_us, 0.0);
        assert_eq!(snap.mean_us, 0.0);
    }

    #[test]
    fn sub_microsecond_and_huge_latencies_stay_in_range() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(60 * 60 * 24 * 30));
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.p99_us >= snap.p50_us);
        assert!(snap.p99_us.is_finite());
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(Duration::from_micros(1 + i * 7));
        }
        let snap = h.snapshot();
        assert!(snap.p50_us <= snap.p95_us && snap.p95_us <= snap.p99_us);
        assert!(snap.p99_us <= snap.p999_us, "p999 {} < p99 {}", snap.p999_us, snap.p99_us);
        // Interpolation may overshoot the true max (6994) up to the top
        // occupied bucket's upper edge.
        assert!(snap.p999_us <= 7168.0, "p999 {} out of range", snap.p999_us);
        // Uniform over [1, 6994]: interpolated percentiles track the true
        // quantiles within one quarter-octave.
        assert!((snap.p50_us / 3497.0 - 1.0).abs() < 0.15, "p50 {}", snap.p50_us);
        assert!((snap.p95_us / 6644.0 - 1.0).abs() < 0.15, "p95 {}", snap.p95_us);
    }

    #[test]
    fn registry_handle_feeds_exposition_and_snapshot() {
        let registry = tasq_obs::Registry::new();
        let h = LatencyHistogram::from_handle(
            registry.histogram("serve_latency_us", "end-to-end latency"),
        );
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(200));
        assert_eq!(h.snapshot().count, 2);
        let text = registry.render_prometheus();
        assert!(text.contains("serve_latency_us_count 2"));
        assert!(text.contains("serve_latency_us_sum 300"));
    }

    fn slow(total_us: u64, trace_id: u128) -> SlowRequest {
        SlowRequest {
            trace_id,
            total_us,
            via: "model",
            tier: "primary",
            fastpath_probe_us: 1,
            score_us: total_us.saturating_sub(2),
            flush_us: 1,
        }
    }

    #[test]
    fn slowest_tracker_keeps_the_worst_n_and_stays_bounded() {
        let tracker = SlowestTracker::new();
        for i in 0..10_000u64 {
            tracker.offer(slow(i, u128::from(i) + 1));
        }
        let snap = tracker.snapshot();
        assert_eq!(snap.len(), SLOWEST_SLOTS, "retention is slot-bounded");
        assert_eq!(snap[0].total_us, 9_999, "worst request retained");
        for pair in snap.windows(2) {
            assert!(pair[0].total_us >= pair[1].total_us, "sorted slowest-first");
        }
        assert!(
            snap.iter().all(|s| s.total_us >= 10_000 - SLOWEST_SLOTS as u64),
            "only the global worst survive"
        );
    }

    #[test]
    fn slowest_json_carries_trace_ids_and_segments() {
        let tracker = SlowestTracker::new();
        tracker.offer(slow(5000, 0xabcdef01));
        let json = tracker.render_json();
        assert!(json.contains("\"trace_id\":\"000000000000000000000000abcdef01\""), "{json}");
        assert!(json.contains("\"total_us\":5000"), "{json}");
        assert!(json.contains("\"score_us\":4998"), "{json}");
        let parsed = tasq_obs::json::parse(&json).expect("slowest json parses");
        drop(parsed);
    }

    #[test]
    fn mean_batch_size_divides_safely() {
        let mut snap = ServerStatsSnapshot::default();
        assert_eq!(snap.mean_batch_size(), 0.0);
        snap.batches = 4;
        snap.batched_requests = 10;
        assert!((snap.mean_batch_size() - 2.5).abs() < 1e-12);
    }
}
