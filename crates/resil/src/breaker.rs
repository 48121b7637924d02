//! Tick-driven circuit breaker (closed → open → half-open → closed).
//!
//! Deliberately clockless: "time" is whatever monotone counter the
//! caller already has (request sequence numbers in the scoring server,
//! event counts in tests), so breaker behaviour replays bit-identically
//! under the chaos harness. The state machine is the classic one:
//!
//! * **Closed** — traffic flows; `failure_threshold` *consecutive*
//!   failures trip it open.
//! * **Open** — traffic is refused until `cooldown_ticks` have elapsed
//!   since the trip, then the breaker moves to half-open.
//! * **Half-open** — traffic is allowed as probes; `probe_successes`
//!   consecutive successes close the breaker, any failure re-trips it.

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// Ticks to hold the breaker open before probing.
    pub cooldown_ticks: u64,
    /// Consecutive half-open successes required to close.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 5, cooldown_ticks: 32, probe_successes: 2 }
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Traffic is refused; cooling down.
    Open,
    /// Probing: traffic allowed, watching the outcomes.
    HalfOpen,
}

/// The tick-driven circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at: u64,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// New breaker in the closed state.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            opened_at: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Should the protected operation run at `tick`? Advances open →
    /// half-open once the cooldown has elapsed.
    pub fn allow(&mut self, tick: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if tick.saturating_sub(self.opened_at) >= self.config.cooldown_ticks {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_successes = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record the outcome of an allowed operation.
    pub fn record(&mut self, tick: u64, success: bool) {
        if success {
            self.record_success();
        } else {
            self.record_failure(tick);
        }
    }

    fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.config.probe_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.recoveries += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    fn record_failure(&mut self, tick: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(tick);
                }
            }
            // A half-open probe failure re-trips immediately.
            BreakerState::HalfOpen => self.trip(tick),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, tick: u64) {
        self.state = BreakerState::Open;
        self.opened_at = tick;
        self.consecutive_failures = 0;
        self.half_open_successes = 0;
        self.trips += 1;
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a half-open probe run closed the breaker.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 10,
            probe_successes: 2,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker();
        b.record(1, false);
        b.record(2, false);
        b.record(3, true); // resets the streak
        b.record(4, false);
        b.record(5, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(6, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_refuses_until_cooldown_then_probes() {
        let mut b = breaker();
        for t in 0..3 {
            b.record(t, false);
        }
        assert!(!b.allow(5), "still cooling down");
        assert!(b.allow(12), "cooldown elapsed: half-open probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(12, true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        b.record(13, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
    }

    #[test]
    fn half_open_failure_retrips() {
        let mut b = breaker();
        for t in 0..3 {
            b.record(t, false); // trips at tick 2
        }
        assert!(b.allow(12));
        b.record(12, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(15));
        assert!(b.allow(22));
    }

    #[test]
    fn tick_driven_replay_is_deterministic() {
        // The same outcome/tick script always lands in the same state.
        let script: Vec<(u64, bool)> =
            (0..40).map(|t| (t, t % 7 != 0 && t % 5 != 0)).collect();
        let run = |mut b: CircuitBreaker| {
            let mut states = Vec::new();
            for &(t, ok) in &script {
                if b.allow(t) {
                    b.record(t, ok);
                }
                states.push(b.state());
            }
            (states, b.trips(), b.recoveries())
        };
        assert_eq!(run(breaker()), run(breaker()));
    }
}
