//! Simulator metrics published into the `tasq-obs` global registry.
//!
//! Handles are registered once (first use) and incremented with relaxed
//! atomics on the flighting hot path. The counts are telemetry only:
//! nothing here touches seeds, RNG streams, or float accumulation order,
//! so flight results stay bit-identical whether or not anyone reads them.
//! Note also that everything recorded is *simulated* — the counters tally
//! virtual-cluster events, and no wall-clock is read in this crate (the
//! `disallowed_methods` ban in its `clippy.toml` enforces that;
//! timestamps live in `tasq_obs::clock`).

use crate::faults::FaultReport;
use tasq_obs::{Counter, Registry};

pub(crate) struct SimMetrics {
    /// Flights executed (one per (job, allocation, repetition) attempt set).
    pub flights: Counter,
    /// Flight re-submissions after a `SimError`.
    pub flight_retries: Counter,
    /// Flighted jobs dropped by the anomaly filter.
    pub anomalous_jobs: Counter,
    /// Simulated task crashes (from [`FaultReport`]).
    pub task_crashes: Counter,
    /// Simulated task re-queues after crashes/preemptions.
    pub task_retries: Counter,
    /// Simulated token-lease preemptions.
    pub preemptions: Counter,
    /// Simulated straggler tasks.
    pub stragglers: Counter,
    /// Speculative copies launched.
    pub speculative_launches: Counter,
    /// Speculative copies that beat the original.
    pub speculative_wins: Counter,
}

pub(crate) fn metrics() -> &'static SimMetrics {
    static METRICS: std::sync::OnceLock<SimMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        SimMetrics {
            flights: registry.counter("sim_flights_total", "Simulated flights executed"),
            flight_retries: registry.counter(
                "sim_flight_retries_total",
                "Flights re-submitted with a perturbed seed after a SimError",
            ),
            anomalous_jobs: registry.counter(
                "sim_anomalous_jobs_total",
                "Flighted jobs dropped by the Section 5.1 anomaly filter",
            ),
            task_crashes: registry
                .counter("sim_task_crashes_total", "Simulated task crashes injected"),
            task_retries: registry.counter(
                "sim_task_retries_total",
                "Simulated task re-queues after crashes or preemptions",
            ),
            preemptions: registry
                .counter("sim_preemptions_total", "Simulated token-lease preemptions"),
            stragglers: registry
                .counter("sim_stragglers_total", "Simulated straggler slowdowns"),
            speculative_launches: registry.counter(
                "sim_speculative_launches_total",
                "Speculative task copies launched by the simulated scheduler",
            ),
            speculative_wins: registry.counter(
                "sim_speculative_wins_total",
                "Speculative copies that finished before the original attempt",
            ),
        }
    })
}

/// Fold one execution's [`FaultReport`] into the global counters.
pub(crate) fn publish_fault_report(report: &FaultReport) {
    let m = metrics();
    m.task_crashes.add(report.task_crashes as u64);
    m.task_retries.add(report.task_retries as u64);
    m.preemptions.add(report.preemptions as u64);
    m.stragglers.add(report.straggler_tasks as u64);
    m.speculative_launches.add(report.speculative_launches as u64);
    m.speculative_wins.add(report.speculative_wins as u64);
}
