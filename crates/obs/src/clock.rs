//! The process-relative monotonic clock.
//!
//! This module is the **only** place in the instrumented workspace that
//! reads wall time: the `clippy.toml` of `tasq-obs`, `scope-sim` and
//! `tasq-resil` bans `Instant::now` and `SystemTime::now`, and the two
//! reads below are the only `#[expect]`ed exceptions (the simulator
//! records virtual time, never wall time). Timestamps are microseconds
//! since a process-wide anchor, so spans from every thread share one
//! timeline.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Pin the clock anchor to "now". Idempotent; the first caller wins.
///
/// [`crate::span::set_subscriber`] calls this, so timestamps are relative
/// to subscriber setup rather than the first recorded span. Calling it
/// early (e.g. at process start) is optional but gives nicer zero points.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned wall-clock read site")]
pub fn init() {
    let _ = ANCHOR.set(Instant::now());
}

/// Microseconds elapsed since the anchor (anchoring on first use).
///
/// Monotonic and shared by all threads. Saturates at `u64::MAX`
/// microseconds — more than half a million years of uptime.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned wall-clock read site")]
pub fn now_micros() -> u64 {
    let anchor = ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        init();
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }
}
