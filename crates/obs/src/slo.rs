//! Declarative service-level objectives with multi-window burn rates.
//!
//! An [`SloEngine`] turns raw request outcomes into the one number an
//! operator actually wants: **how fast is the error
//! budget burning?** Objectives are declarative —
//! "`p99` latency ≤ X µs" or "availability ≥ Y" — and each one is
//! evaluated over two sliding windows (a *fast* window that reacts to
//! sudden regressions and a *slow* window that confirms sustained ones),
//! the standard multi-window burn-rate construction.
//!
//! A latency objective `pQ ≤ X` has an error budget of `1 − Q`: up to
//! that fraction of requests may exceed `X`. The burn rate of a window is
//! the observed violating fraction divided by the budget, so `burn = 1`
//! means "exactly on budget", `burn = 10` means "burning ten times too
//! fast". Availability objectives work the same way with failed requests
//! (rejected, worker-lost, timed out) as the violations.
//!
//! The engine is **tick-driven and deterministic**: every method takes an
//! explicit `now_us` timestamp (callers pass [`crate::clock::now_micros`]
//! in production and synthetic time in tests — the engine itself never
//! reads a clock). History lives in fixed-size per-second ring buffers,
//! so memory is bounded no matter how long the process runs.

use crate::json::JsonValue;
use crate::metrics::Registry;
use std::sync::{Mutex, PoisonError};

/// What one objective demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// `quantile` of request latency must stay at or under
    /// `threshold_us`. Error budget: `1 − quantile`.
    Latency {
        /// Target quantile in `(0, 1)`, e.g. `0.99`.
        quantile: f64,
        /// Latency bound in microseconds.
        threshold_us: u64,
    },
    /// Fraction of requests that succeed must stay at or above `target`.
    /// Error budget: `1 − target`.
    Availability {
        /// Target success fraction in `(0, 1)`, e.g. `0.999`.
        target: f64,
    },
}

/// One named objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// Stable name used in gauges, JSON, and logs (e.g. `latency_p99`).
    pub name: String,
    /// The demand itself.
    pub kind: SloKind,
}

/// Engine configuration: the objectives plus the two window widths.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Objectives to evaluate.
    pub objectives: Vec<SloObjective>,
    /// Fast (alerting) window in seconds.
    pub fast_window_secs: u64,
    /// Slow (confirming) window in seconds.
    pub slow_window_secs: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            objectives: vec![
                SloObjective {
                    name: "latency_p99".to_string(),
                    kind: SloKind::Latency { quantile: 0.99, threshold_us: 100_000 },
                },
                SloObjective {
                    name: "availability".to_string(),
                    kind: SloKind::Availability { target: 0.999 },
                },
            ],
            fast_window_secs: 30,
            slow_window_secs: 300,
        }
    }
}

/// Which window a burn-rate sample was computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloWindow {
    /// The short, reactive window.
    Fast,
    /// The long, confirming window.
    Slow,
}

impl SloWindow {
    /// Label used in gauges and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SloWindow::Fast => "fast",
            SloWindow::Slow => "slow",
        }
    }
}

/// One evaluated (objective, window) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnSample {
    /// Objective name.
    pub objective: String,
    /// Window the sample covers.
    pub window: SloWindow,
    /// Observed violating fraction divided by the error budget
    /// (1.0 = exactly on budget; 0.0 when the window saw no events).
    pub burn_rate: f64,
    /// Events observed in the window.
    pub events: u64,
    /// Violations observed in the window.
    pub violations: u64,
}

/// One ring slot: event/violation counts for a single wall second.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Which second this slot currently holds (u64::MAX = never used).
    epoch_sec: u64,
    good: u64,
    bad: u64,
}

/// Per-objective ring of per-second slots.
struct ObjectiveRing {
    objective: SloObjective,
    slots: Vec<Slot>,
}

impl ObjectiveRing {
    fn record(&mut self, now_sec: u64, bad: bool) {
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(now_sec % len) as usize];
        if slot.epoch_sec != now_sec {
            *slot = Slot { epoch_sec: now_sec, good: 0, bad: 0 };
        }
        if bad {
            slot.bad += 1;
        } else {
            slot.good += 1;
        }
    }

    /// Sum events/violations over the trailing `window_secs` ending at
    /// `now_sec` (inclusive).
    fn window_totals(&self, now_sec: u64, window_secs: u64) -> (u64, u64) {
        let oldest = now_sec.saturating_sub(window_secs.saturating_sub(1));
        let mut events = 0u64;
        let mut violations = 0u64;
        for slot in &self.slots {
            if slot.epoch_sec >= oldest && slot.epoch_sec <= now_sec {
                events += slot.good + slot.bad;
                violations += slot.bad;
            }
        }
        (events, violations)
    }
}

/// The burn-rate engine. Cheap to record into (one short mutex hold, no
/// allocation after construction); evaluation walks the bounded rings.
pub struct SloEngine {
    fast_window_secs: u64,
    slow_window_secs: u64,
    rings: Mutex<Vec<ObjectiveRing>>,
}

/// Ring capacity ceiling: a slow window longer than an hour still only
/// keeps one hour of per-second history.
const MAX_RING_SLOTS: u64 = 3600;

impl SloEngine {
    /// Build an engine from `config`. Window widths are floored at one
    /// second; ring capacity is the slow window (capped at one hour).
    pub fn new(config: SloConfig) -> Self {
        let fast = config.fast_window_secs.max(1);
        let slow = config.slow_window_secs.max(fast);
        let capacity = slow.clamp(1, MAX_RING_SLOTS) as usize;
        let rings = config
            .objectives
            .into_iter()
            .map(|objective| ObjectiveRing {
                objective,
                slots: vec![Slot { epoch_sec: u64::MAX, good: 0, bad: 0 }; capacity],
            })
            .collect();
        Self { fast_window_secs: fast, slow_window_secs: slow, rings: Mutex::new(rings) }
    }

    /// Feed one completed request's latency into every latency objective.
    pub fn record_latency(&self, now_us: u64, latency_us: u64) {
        let now_sec = now_us / 1_000_000;
        let mut rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        for ring in rings.iter_mut() {
            if let SloKind::Latency { threshold_us, .. } = ring.objective.kind {
                ring.record(now_sec, latency_us > threshold_us);
            }
        }
    }

    /// Feed one answered request into every objective at once: its
    /// latency into the latency objectives, a success into the
    /// availability ones. One lock, where [`SloEngine::record_latency`]
    /// plus [`SloEngine::record_outcome`] take two.
    pub fn record_success(&self, now_us: u64, latency_us: u64) {
        let now_sec = now_us / 1_000_000;
        let mut rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        for ring in rings.iter_mut() {
            let bad = match ring.objective.kind {
                SloKind::Latency { threshold_us, .. } => latency_us > threshold_us,
                SloKind::Availability { .. } => false,
            };
            ring.record(now_sec, bad);
        }
    }

    /// Feed one request outcome (`ok = false` for rejected /
    /// worker-lost / timed-out) into every availability objective.
    pub fn record_outcome(&self, now_us: u64, ok: bool) {
        let now_sec = now_us / 1_000_000;
        let mut rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        for ring in rings.iter_mut() {
            if matches!(ring.objective.kind, SloKind::Availability { .. }) {
                ring.record(now_sec, !ok);
            }
        }
    }

    /// Evaluate every objective over both windows at `now_us`.
    pub fn tick(&self, now_us: u64) -> Vec<BurnSample> {
        let now_sec = now_us / 1_000_000;
        let rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(rings.len() * 2);
        for ring in rings.iter() {
            let budget = match ring.objective.kind {
                SloKind::Latency { quantile, .. } => (1.0 - quantile).max(1e-9),
                SloKind::Availability { target } => (1.0 - target).max(1e-9),
            };
            for (window, secs) in [
                (SloWindow::Fast, self.fast_window_secs),
                (SloWindow::Slow, self.slow_window_secs),
            ] {
                let (events, violations) = ring.window_totals(now_sec, secs);
                let burn_rate = if events == 0 {
                    0.0
                } else {
                    (violations as f64 / events as f64) / budget
                };
                out.push(BurnSample {
                    objective: ring.objective.name.clone(),
                    window,
                    burn_rate,
                    events,
                    violations,
                });
            }
        }
        out
    }

    /// The largest fast-window burn rate across objectives.
    pub fn max_fast_burn(&self, now_us: u64) -> f64 {
        self.tick(now_us)
            .into_iter()
            .filter(|s| s.window == SloWindow::Fast)
            .map(|s| s.burn_rate)
            .fold(0.0, f64::max)
    }

    /// Publish `slo_burn_rate{objective,window}` gauges into `registry`.
    pub fn publish(&self, registry: &Registry, now_us: u64) {
        for sample in self.tick(now_us) {
            registry.set_gauge(
                &format!(
                    "slo_burn_rate{{objective=\"{}\",window=\"{}\"}}",
                    sample.objective,
                    sample.window.label()
                ),
                "error-budget burn rate (1.0 = on budget)",
                sample.burn_rate,
            );
        }
    }

    /// Render the `/slo` JSON document: objectives, windows, burn rates.
    pub fn render_json(&self, now_us: u64) -> String {
        let samples = self.tick(now_us);
        let objectives: Vec<JsonValue> = self
            .rings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|ring| {
                let name = &ring.objective.name;
                let mut members = vec![("name", name.as_str().into())];
                match ring.objective.kind {
                    SloKind::Latency { quantile, threshold_us } => members.extend([
                        ("kind", "latency".into()),
                        ("quantile", quantile.into()),
                        ("threshold_us", threshold_us.into()),
                    ]),
                    SloKind::Availability { target } => members
                        .extend([("kind", "availability".into()), ("target", target.into())]),
                }
                let windows = samples.iter().filter(|s| &s.objective == name).map(|s| {
                    JsonValue::object([
                        ("window", s.window.label().into()),
                        ("burn_rate", s.burn_rate.into()),
                        ("events", s.events.into()),
                        ("violations", s.violations.into()),
                    ])
                });
                members.push(("windows", JsonValue::Array(windows.collect())));
                JsonValue::object(members)
            })
            .collect();
        JsonValue::object([
            ("fast_window_secs", self.fast_window_secs.into()),
            ("slow_window_secs", self.slow_window_secs.into()),
            ("objectives", objectives.into()),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(fast: u64, slow: u64) -> SloEngine {
        SloEngine::new(SloConfig {
            objectives: vec![
                SloObjective {
                    name: "latency_p99".into(),
                    kind: SloKind::Latency { quantile: 0.99, threshold_us: 1_000 },
                },
                SloObjective {
                    name: "availability".into(),
                    kind: SloKind::Availability { target: 0.99 },
                },
            ],
            fast_window_secs: fast,
            slow_window_secs: slow,
        })
    }

    fn sample(ticks: &[BurnSample], objective: &str, window: SloWindow) -> BurnSample {
        ticks
            .iter()
            .find(|s| s.objective == objective && s.window == window)
            .cloned()
            .expect("sample present")
    }

    #[test]
    fn on_budget_traffic_burns_at_one() {
        let slo = engine(10, 100);
        // Exactly 1% of latencies violate the 1ms bound: burn == 1.0.
        let mut now = 0u64;
        for i in 0..1000u64 {
            let latency = if i % 100 == 0 { 5_000 } else { 100 };
            slo.record_latency(now, latency);
            now += 1_000; // 1ms apart; all within one second
        }
        let ticks = slo.tick(now);
        let fast = sample(&ticks, "latency_p99", SloWindow::Fast);
        assert_eq!(fast.events, 1000);
        assert_eq!(fast.violations, 10);
        assert!((fast.burn_rate - 1.0).abs() < 1e-9, "burn {}", fast.burn_rate);
    }

    #[test]
    fn total_outage_burns_at_budget_inverse() {
        let slo = engine(10, 100);
        let now = 3_000_000;
        for _ in 0..50 {
            slo.record_outcome(now, false);
        }
        let ticks = slo.tick(now);
        let fast = sample(&ticks, "availability", SloWindow::Fast);
        // 100% failures against a 1% budget: burn = 100.
        assert!((fast.burn_rate - 100.0).abs() < 1e-6, "burn {}", fast.burn_rate);
    }

    #[test]
    fn fast_window_recovers_before_slow_window() {
        let slo = engine(5, 60);
        // A bad second at t=0 …
        for _ in 0..100 {
            slo.record_outcome(0, false);
        }
        // … then healthy traffic for 20 seconds.
        for sec in 1..=20u64 {
            for _ in 0..100 {
                slo.record_outcome(sec * 1_000_000, true);
            }
        }
        let ticks = slo.tick(20_000_000);
        let fast = sample(&ticks, "availability", SloWindow::Fast);
        let slow = sample(&ticks, "availability", SloWindow::Slow);
        assert!(fast.burn_rate < 1e-9, "fast window forgot the outage: {}", fast.burn_rate);
        assert!(slow.burn_rate > 1.0, "slow window still remembers: {}", slow.burn_rate);
    }

    #[test]
    fn ring_is_bounded_and_old_slots_are_reused() {
        let slo = engine(2, 4);
        // Record across far more seconds than the ring holds.
        for sec in 0..1000u64 {
            slo.record_outcome(sec * 1_000_000, sec < 996);
        }
        let ticks = slo.tick(999_000_000);
        let fast = sample(&ticks, "availability", SloWindow::Fast);
        let slow = sample(&ticks, "availability", SloWindow::Slow);
        // Last 2 seconds (998, 999) are failures; last 4 include 996..999.
        assert_eq!(fast.events, 2);
        assert_eq!(fast.violations, 2);
        assert_eq!(slow.events, 4);
        assert_eq!(slow.violations, 4);
    }

    #[test]
    fn empty_windows_burn_zero_and_json_renders() {
        let slo = engine(10, 100);
        for s in slo.tick(0) {
            assert_eq!(s.burn_rate, 0.0);
            assert_eq!(s.events, 0);
        }
        slo.record_latency(0, 50);
        slo.record_outcome(0, true);
        let doc = slo.render_json(0);
        let parsed = crate::json::parse(&doc).expect("slo json parses");
        let objectives = parsed
            .get("objectives")
            .and_then(crate::json::JsonValue::as_array)
            .expect("objectives array");
        assert_eq!(objectives.len(), 2);
        assert!(doc.contains("\"burn_rate\""));
        assert!(doc.contains("\"window\":\"fast\""));
    }

    #[test]
    fn a_recorded_success_counts_as_latency_plus_outcome() {
        let (one, two) = (engine(10, 100), engine(10, 100));
        for (latency, sec) in [(50, 0), (5_000_000, 1), (70, 1)] {
            one.record_success(sec * 1_000_000, latency);
            two.record_latency(sec * 1_000_000, latency);
            two.record_outcome(sec * 1_000_000, true);
        }
        let counts = |slo: &SloEngine| -> Vec<(u64, u64)> {
            slo.tick(1_000_000).iter().map(|s| (s.events, s.violations)).collect()
        };
        assert_eq!(counts(&one), counts(&two));
        assert!(counts(&one).iter().any(|&(_, violations)| violations == 1));
    }

    #[test]
    fn json_escapes_objective_names() {
        let name = "p99 \"tight\"\\\n";
        let slo = SloEngine::new(SloConfig {
            objectives: vec![SloObjective {
                name: name.into(),
                kind: SloKind::Availability { target: 0.99 },
            }],
            fast_window_secs: 10,
            slow_window_secs: 100,
        });
        let doc = slo.render_json(0);
        let parsed = crate::json::parse(&doc).expect("slo json parses");
        let objectives = parsed.get("objectives").and_then(JsonValue::as_array).unwrap();
        assert_eq!(objectives[0].get("name").and_then(JsonValue::as_str), Some(name));
    }

    #[test]
    fn gauges_publish_with_objective_and_window_labels() {
        let slo = engine(10, 100);
        slo.record_outcome(0, false);
        let registry = Registry::new();
        slo.publish(&registry, 0);
        let text = registry.render_prometheus();
        assert!(
            text.contains("slo_burn_rate{objective=\"availability\",window=\"fast\"}"),
            "missing labeled gauge in:\n{text}"
        );
        // One TYPE header for the metric family, not one per labeled series.
        let type_lines =
            text.lines().filter(|l| l.starts_with("# TYPE slo_burn_rate ")).count();
        assert_eq!(type_lines, 1, "family header must be deduplicated:\n{text}");
    }

    #[test]
    fn max_fast_burn_picks_the_worst_objective() {
        let slo = engine(10, 100);
        slo.record_latency(0, 10); // healthy latency
        slo.record_outcome(0, false); // failing availability
        let burn = slo.max_fast_burn(0);
        assert!(burn > 50.0, "expected availability burn to dominate, got {burn}");
    }
}
