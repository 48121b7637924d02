//! Named counters, gauges, and log-linear histograms with Prometheus-style
//! text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones:
//! the registry lock is taken only at registration, never on the record
//! path. Counters and histograms record into single-writer cells (the
//! private `cell` module): one per recording thread, written with a relaxed
//! load and store, summed by readers. The process-global registry
//! ([`Registry::global`]) is what a listening server serves at
//! `/metrics`; fresh registries can be built for tests.
//!
//! # Histogram buckets
//!
//! Pure power-of-two buckets collapse nearby quantiles (the original
//! serve histogram reported p50 == p95 because both landed in the same
//! octave). Buckets here are **log-linear**: values 0..=3 get unit
//! buckets, then every power-of-two octave is split into 4 linear
//! sub-buckets, and [`Histogram::quantile`] interpolates linearly within
//! the landing bucket — worst-case relative error drops from 2× to ~6%.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cell::{self, Padded, SLOTS};
use crate::sync::{Mutex, Rank};

/// Monotonically increasing counter. Clones share the underlying cells.
#[derive(Clone)]
pub struct Counter(Arc<[Padded<AtomicU64>; SLOTS + 1]>);

impl Default for Counter {
    fn default() -> Self {
        Self(Arc::new(std::array::from_fn(|_| Padded::default())))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Fresh counter at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`: to this thread's own cell, or to the shared last cell
    /// when every slot is taken.
    #[inline]
    pub fn add(&self, n: u64) {
        match cell::current() {
            Some(slot) => cell::bump(&self.0[slot].0, n),
            None => {
                self.0[SLOTS].0.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Current value: the sum of every thread's cell.
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0, |total, c| total.wrapping_add(c.0.load(Ordering::Relaxed)))
    }
}

/// Last-write-wins gauge holding an `f64`. Clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Fresh gauge at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram.
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 4;
/// First sub-divided octave: values `0..4` get exact unit buckets.
const FIRST_OCTAVE: u32 = 2;
/// Last octave (`2^39..2^40`, ~12.7 days in microseconds); larger values
/// clamp into the final bucket.
const LAST_OCTAVE: u32 = 39;
/// Total bucket count.
pub const NUM_BUCKETS: usize = 4 + (LAST_OCTAVE - FIRST_OCTAVE + 1) as usize * SUB_BUCKETS;

/// Bucket index for a recorded value.
fn bucket_index(value: u64) -> usize {
    if value < 4 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros();
    if octave > LAST_OCTAVE {
        return NUM_BUCKETS - 1;
    }
    let sub = ((value - (1u64 << octave)) >> (octave - 2)) as usize;
    4 + (octave - FIRST_OCTAVE) as usize * SUB_BUCKETS + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < 4 {
        return (index as u64, index as u64 + 1);
    }
    let k = index - 4;
    let octave = FIRST_OCTAVE + (k / SUB_BUCKETS) as u32;
    let step = 1u64 << (octave - 2);
    let lo = (1u64 << octave) + (k % SUB_BUCKETS) as u64 * step;
    (lo, lo + step)
}

/// Exemplar slots retained per histogram: enough to cover the tail
/// buckets that matter, fixed so sustained load cannot grow memory.
pub const EXEMPLAR_SLOTS: usize = 8;

/// One retained high observation: the value, the trace that produced it,
/// and when it was recorded (microseconds on the [`crate::clock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample.
    pub value: u64,
    /// Trace id of the request that produced it (0 = untraced).
    pub trace_id: u128,
    /// Recording timestamp, microseconds since the process clock anchor.
    pub ts_us: u64,
}

/// One recording thread's share of a histogram.
#[repr(align(64))]
struct Cells {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Cells {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

struct HistogramCore {
    /// One set of cells per slot, allocated when its first owner records.
    owned: [OnceLock<Box<Cells>>; SLOTS],
    /// Written with `fetch_add` by threads that found no free slot.
    shared: Cells,
    /// Smallest value currently retained in a full exemplar set (0 while
    /// slots remain): the lock below is only taken when a new value
    /// qualifies, so the common record path stays lock-free.
    exemplar_floor: AtomicU64,
    exemplars: Mutex<[Option<Exemplar>; EXEMPLAR_SLOTS]>,
}

/// Concurrent log-linear histogram of `u64` samples (typically
/// microseconds). Clones share the underlying cells; recording is a
/// relaxed load and store into three of the recording thread's own cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Fresh empty histogram (detached from any registry).
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramCore {
            owned: std::array::from_fn(|_| OnceLock::new()),
            shared: Cells::new(),
            exemplar_floor: AtomicU64::new(u64::MAX),
            exemplars: Mutex::new(Rank::MetricExemplars, [None; EXEMPLAR_SLOTS]),
        }))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = bucket_index(value);
        match cell::current() {
            Some(slot) => {
                let cells = self.0.owned[slot].get_or_init(|| Box::new(Cells::new()));
                cell::bump(&cells.buckets[bucket], 1);
                cell::bump(&cells.count, 1);
                cell::bump(&cells.sum, value);
            }
            None => {
                let cells = &self.0.shared;
                cells.buckets[bucket].fetch_add(1, Ordering::Relaxed);
                cells.count.fetch_add(1, Ordering::Relaxed);
                cells.sum.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    /// Every thread's cells, the shared ones included.
    fn cells(&self) -> impl Iterator<Item = &Cells> {
        let owned = self.0.owned.iter().filter_map(|slot| slot.get().map(|cells| &**cells));
        owned.chain(std::iter::once(&self.0.shared))
    }

    /// Sum of one cell over every thread's cells.
    fn total(&self, cell: impl Fn(&Cells) -> &AtomicU64) -> u64 {
        self.cells().fold(0, |total, c| total.wrapping_add(cell(c).load(Ordering::Relaxed)))
    }

    /// Record one sample and offer it as an exemplar. Exemplar retention
    /// is top-[`EXEMPLAR_SLOTS`]-by-value in fixed slots: the hot path
    /// pays one extra relaxed load unless the value beats the current
    /// floor, and memory never grows under sustained load.
    #[inline]
    pub fn record_traced(&self, value: u64, trace_id: u128) {
        self.record(value);
        // Floor starts at MAX so the first EXEMPLAR_SLOTS offers always
        // take the lock; once full it holds the smallest retained value.
        let floor = self.0.exemplar_floor.load(Ordering::Relaxed);
        if floor == u64::MAX || value > floor {
            self.offer_exemplar(value, trace_id);
        }
    }

    /// Slow path of [`Histogram::record_traced`]: insert into an empty
    /// slot or replace the smallest retained exemplar.
    fn offer_exemplar(&self, value: u64, trace_id: u128) {
        let ts_us = crate::clock::now_micros();
        let mut slots = self.0.exemplars.lock();
        let mut min_index = 0usize;
        let mut min_value = u64::MAX;
        for (index, slot) in slots.iter().enumerate() {
            match slot {
                None => {
                    slots[index] = Some(Exemplar { value, trace_id, ts_us });
                    return;
                }
                Some(e) => {
                    if e.value < min_value {
                        min_value = e.value;
                        min_index = index;
                    }
                }
            }
        }
        // Slots full: establish the floor, replace the minimum if beaten.
        if value > min_value {
            slots[min_index] = Some(Exemplar { value, trace_id, ts_us });
            min_value = slots
                .iter()
                .flatten()
                .map(|e| e.value)
                .min()
                .unwrap_or(u64::MAX);
        }
        self.0.exemplar_floor.store(min_value, Ordering::Relaxed);
    }

    /// Currently retained exemplars, largest value first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let slots = self.0.exemplars.lock();
        let mut out: Vec<Exemplar> = slots.iter().flatten().copied().collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.value));
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total(|c| &c.count)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.total(|c| &c.sum)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Snapshot of per-bucket counts (index via [`bucket_le`]).
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; NUM_BUCKETS];
        for cells in self.cells() {
            for (total, bucket) in counts.iter_mut().zip(&cells.buckets) {
                *total = total.wrapping_add(bucket.load(Ordering::Relaxed));
            }
        }
        counts
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`), with linear
    /// interpolation inside the landing bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        let mut last_nonempty = 0usize;
        for (index, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cumulative + count;
            if next as f64 >= target {
                let (lo, hi) = bucket_bounds(index);
                let within = ((target - cumulative as f64) / count as f64).clamp(0.0, 1.0);
                return lo as f64 + (hi - lo) as f64 * within;
            }
            cumulative = next;
            last_nonempty = index;
        }
        bucket_bounds(last_nonempty).1 as f64
    }
}

/// Inclusive upper bound of bucket `index` as used in the Prometheus
/// `le=` label (the bucket covers values `< bound + 1`, i.e. `<= bound`
/// for integers).
pub fn bucket_le(index: usize) -> u64 {
    bucket_bounds(index.min(NUM_BUCKETS - 1)).1 - 1
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Kind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    help: String,
    kind: Kind,
}

/// A named collection of metrics. Registration takes the registry lock;
/// the returned handles never do.
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self { entries: Mutex::new(Rank::MetricRegistry, BTreeMap::new()) }
    }

    /// The process-global registry every instrumented crate publishes to.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or register the counter `name`. On a kind clash (the name is
    /// already a gauge/histogram) a detached counter is returned so the
    /// caller keeps working; nothing panics.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = self.entries.lock();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            kind: Kind::Counter(Counter::new()),
        });
        match &entry.kind {
            Kind::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get or register the gauge `name` (detached handle on kind clash).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = self.entries.lock();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            kind: Kind::Gauge(Gauge::new()),
        });
        match &entry.kind {
            Kind::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get or register the histogram `name` (detached handle on kind
    /// clash).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut entries = self.entries.lock();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            kind: Kind::Histogram(Histogram::new()),
        });
        match &entry.kind {
            Kind::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Convenience: set gauge `name` to `value`, registering it if new.
    pub fn set_gauge(&self, name: &str, help: &str, value: f64) {
        self.gauge(name, help).set(value);
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers,
    /// histograms as cumulative `_bucket{le="…"}` series (empty leading
    /// and trailing buckets elided) plus `_sum` / `_count`. Histogram
    /// exemplars render in OpenMetrics syntax on their landing bucket
    /// line. Labeled series (names carrying `{…}` like
    /// `slo_burn_rate{objective="x",window="fast"}`) share one family
    /// `# HELP` / `# TYPE` header keyed by the base name.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, entry) in entries.iter() {
            // The metric family is the name before any label block; the
            // BTreeMap keeps labeled series of one family adjacent, so
            // one header per family is enough.
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                last_family = family.to_string();
                if !entry.help.is_empty() {
                    out.push_str(&format!("# HELP {family} {}\n", entry.help));
                }
                let kind = match &entry.kind {
                    Kind::Counter(_) => "counter",
                    Kind::Gauge(_) => "gauge",
                    Kind::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {family} {kind}\n"));
            }
            match &entry.kind {
                Kind::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Kind::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Kind::Histogram(h) => {
                    let counts = h.bucket_counts();
                    // At most one exemplar per bucket line: keep the
                    // largest value landing in each bucket.
                    let mut by_bucket: BTreeMap<usize, Exemplar> = BTreeMap::new();
                    for exemplar in h.exemplars() {
                        by_bucket.entry(bucket_index(exemplar.value)).or_insert(exemplar);
                    }
                    let last_used = counts.iter().rposition(|&c| c > 0);
                    let mut cumulative = 0u64;
                    if let Some(last) = last_used {
                        for (index, &count) in counts.iter().enumerate().take(last + 1) {
                            cumulative += count;
                            if count == 0 {
                                continue;
                            }
                            out.push_str(&format!(
                                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                                bucket_le(index)
                            ));
                            if let Some(e) = by_bucket.get(&index) {
                                out.push_str(&format!(
                                    " # {{trace_id=\"{:032x}\"}} {} {:.6}",
                                    e.trace_id,
                                    e.value,
                                    e.ts_us as f64 / 1e6
                                ));
                            }
                            out.push('\n');
                        }
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_exactly_across_threads() {
        let counter = Counter::new();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    }

    /// `threads` counters adding `per_thread` each, all alive at once, so
    /// that beyond [`SLOTS`] some must share the last cell.
    fn count_concurrently(threads: usize, per_thread: u64) -> u64 {
        let counter = Counter::new();
        let all_claimed = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    counter.inc();
                    all_claimed.wait();
                    for _ in 1..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        counter.get()
    }

    #[test]
    fn counts_are_exact_just_below_and_just_above_the_slot_count() {
        for threads in [SLOTS - 1, SLOTS + 3] {
            assert_eq!(count_concurrently(threads, 20_000), threads as u64 * 20_000, "{threads}");
        }
    }

    #[test]
    fn short_lived_threads_reuse_slots_and_carry_their_counts_on() {
        let counter = Counter::new();
        let hist = Histogram::new();
        for round in 0..3 * SLOTS as u64 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    counter.add(round + 1);
                    hist.record(round);
                });
            });
        }
        let n = 3 * SLOTS as u64;
        assert_eq!(counter.get(), n * (n + 1) / 2);
        assert_eq!((hist.count(), hist.sum()), (n, n * (n - 1) / 2));
    }

    #[test]
    fn concurrent_records_keep_count_buckets_and_sum_exact() {
        let hist = Histogram::new();
        let threads = SLOTS + 2;
        let per_thread = 20_000u64;
        let started = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let (hist, started) = (&hist, &started);
                scope.spawn(move || {
                    started.wait();
                    for i in 0..per_thread {
                        hist.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        let records = threads as u64 * per_thread;
        let expected_sum: u64 = (0..threads as u64)
            .flat_map(|t| (0..per_thread).map(move |i| t * 1_000 + i % 997))
            .sum();
        assert_eq!(hist.count(), records);
        assert_eq!(hist.bucket_counts().iter().sum::<u64>(), records);
        assert_eq!(hist.sum(), expected_sum);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let gauge = Gauge::new();
        gauge.set(2.5);
        assert_eq!(gauge.get(), 2.5);
        gauge.set(-0.125);
        assert_eq!(gauge.get(), -0.125);
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        for value in (0..4096u64).chain([u64::MAX / 2, u64::MAX]) {
            let index = bucket_index(value);
            let (lo, hi) = bucket_bounds(index);
            if value < (1u64 << (LAST_OCTAVE + 1)) {
                assert!(lo <= value && value < hi, "value {value} not in [{lo},{hi})");
            } else {
                assert_eq!(index, NUM_BUCKETS - 1);
            }
        }
        // Bucket ranges tile the axis with no gaps.
        for index in 1..NUM_BUCKETS {
            assert_eq!(bucket_bounds(index - 1).1, bucket_bounds(index).0);
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let hist = Histogram::new();
        for value in 1..=1000u64 {
            hist.record(value);
        }
        // Golden values: log-linear buckets + interpolation keep every
        // quantile within one sub-bucket (~6% relative) of truth.
        for (q, truth) in [(0.50, 500.0), (0.90, 900.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = hist.quantile(q);
            let err = (got - truth).abs() / truth;
            assert!(err < 0.07, "q={q}: got {got}, want ~{truth} (err {err:.3})");
        }
        assert_eq!(hist.count(), 1000);
        assert_eq!(hist.sum(), 500_500);
        assert!((hist.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn small_exact_values_have_exact_quantiles() {
        let hist = Histogram::new();
        for _ in 0..99 {
            hist.record(2);
        }
        hist.record(3000);
        let p50 = hist.quantile(0.50);
        assert!((2.0..3.0).contains(&p50), "p50 {p50} should sit in the unit bucket [2,3)");
        assert!(hist.quantile(1.0) >= 2048.0);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn nearby_quantiles_no_longer_collapse() {
        // The regression this crate fixes: with pure power-of-two buckets
        // a [600, 1000] spread reported p50 == p95 == 1024.
        let hist = Histogram::new();
        for value in 600..=1000u64 {
            hist.record(value);
        }
        let p50 = hist.quantile(0.50);
        let p95 = hist.quantile(0.95);
        assert!(p95 - p50 > 100.0, "p50 {p50} and p95 {p95} must separate");
    }

    #[test]
    fn registry_exposes_prometheus_text() {
        let registry = Registry::new();
        registry.counter("jobs_total", "Jobs processed").add(3);
        registry.set_gauge("queue_depth", "Current depth", 4.0);
        let hist = registry.histogram("latency_us", "Request latency");
        hist.record(10);
        hist.record(100);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 3"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 4"));
        assert!(text.contains("# TYPE latency_us histogram"));
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_us_sum 110"));
        assert!(text.contains("latency_us_count 2"));
        // Cumulative buckets are non-decreasing.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_us_bucket")) {
            let value: u64 = line.rsplit(' ').next().and_then(|v| v.parse().ok()).unwrap();
            assert!(value >= prev);
            prev = value;
        }
    }

    #[test]
    fn exemplar_retention_is_bounded_under_sustained_load() {
        let hist = Histogram::new();
        // Golden invariant: fixed slots, no growth, regardless of volume.
        for i in 0..100_000u64 {
            hist.record_traced(i % 977, u128::from(i) + 1);
        }
        let exemplars = hist.exemplars();
        assert!(exemplars.len() <= EXEMPLAR_SLOTS);
        assert_eq!(exemplars.len(), EXEMPLAR_SLOTS, "slots should be full after 100k offers");
        // Top-by-value retention: every retained value sits in the tail.
        for e in &exemplars {
            assert!(e.value >= 976 - EXEMPLAR_SLOTS as u64, "kept a low value {}", e.value);
            assert_ne!(e.trace_id, 0);
        }
        assert_eq!(hist.count(), 100_000);
    }

    #[test]
    fn exemplars_render_in_openmetrics_syntax() {
        let registry = Registry::new();
        let hist = registry.histogram("seg_us", "segment latency");
        hist.record(10);
        hist.record_traced(5_000, 0xabcd_ef01);
        let text = registry.render_prometheus();
        assert!(
            text.contains("# {trace_id=\"000000000000000000000000abcdef01\"} 5000"),
            "missing exemplar in:\n{text}"
        );
        // Exemplar rides a bucket line, after the cumulative count.
        let line = text
            .lines()
            .find(|l| l.contains("trace_id"))
            .expect("exemplar line present");
        assert!(line.starts_with("seg_us_bucket{le=\""), "exemplar on wrong line: {line}");
    }

    #[test]
    fn json_reports_p999() {
        let registry = Registry::new();
        let hist = registry.histogram("tail_us", "");
        for value in 1..=1000u64 {
            hist.record(value);
        }
        // Emitters put quantiles into a `JsonValue` and print it; the tail
        // figure must survive that trip within one sub-bucket of truth.
        let tail = crate::json::JsonValue::object([("p999", hist.quantile(0.999).into())]);
        let dump = crate::json::JsonValue::object([("tail_us", tail)]).to_string();
        let value = crate::json::parse(&dump).expect("json parses");
        let p999 = value.get("tail_us").and_then(|v| v.get("p999")).and_then(|v| v.as_f64());
        let p999 = p999.expect("p999 present");
        assert!((930.0..=1070.0).contains(&p999), "p999 {p999} out of range");
    }

    #[test]
    fn labeled_series_share_one_family_header() {
        let registry = Registry::new();
        registry.set_gauge("burn{objective=\"a\",window=\"fast\"}", "burn rate", 1.0);
        registry.set_gauge("burn{objective=\"a\",window=\"slow\"}", "burn rate", 2.0);
        registry.set_gauge("burn{objective=\"b\",window=\"fast\"}", "burn rate", 3.0);
        let text = registry.render_prometheus();
        assert_eq!(text.lines().filter(|l| l.starts_with("# TYPE burn ")).count(), 1);
        assert_eq!(text.lines().filter(|l| l.starts_with("# HELP burn ")).count(), 1);
        assert!(text.contains("burn{objective=\"b\",window=\"fast\"} 3"));
    }

    #[test]
    fn reregistration_returns_the_same_cell() {
        let registry = Registry::new();
        registry.counter("shared_total", "first").inc();
        registry.counter("shared_total", "second").inc();
        assert_eq!(registry.counter("shared_total", "").get(), 2);
        // Kind clash degrades to a detached handle, never a panic.
        let detached = registry.gauge("shared_total", "");
        detached.set(9.0);
        assert_eq!(registry.counter("shared_total", "").get(), 2);
    }
}
