//! Always-on resilience counters, registered in the global
//! [`tasq_obs::Registry`] on first touch so every binary that links this
//! crate exposes them without wiring.

use tasq_obs::Counter;

/// Handles to the `resil_*` counters.
pub struct ResilMetrics {
    /// Snapshots durably committed.
    pub checkpoint_writes: Counter,
    /// Successful recoveries (a snapshot read back and accepted).
    pub recoveries: Counter,
    /// Truncated snapshots detected (and refused) on load.
    pub torn_detected: Counter,
}

/// Global `resil_*` counters (idempotent registration).
pub fn metrics() -> &'static ResilMetrics {
    static METRICS: std::sync::OnceLock<ResilMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tasq_obs::Registry::global();
        ResilMetrics {
            checkpoint_writes: r
                .counter("resil_checkpoint_writes", "snapshots durably committed"),
            recoveries: r.counter("resil_recoveries", "checkpoints recovered and accepted"),
            torn_detected: r
                .counter("resil_torn_detected", "truncated snapshots refused on load"),
        }
    })
}
