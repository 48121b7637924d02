//! Token-bucket pacing for load generation.
//!
//! The pacer behind `netgen --qps`. Tokens accrue at `rate` per second
//! up to `burst`; each request takes one token, and `acquire` sleeps
//! until one is available. Time is injected through a monotonic clock
//! closure so the refill math is unit-testable without real sleeps.

use std::time::{Duration, Instant};

/// A token bucket: `rate` tokens/second capacity-capped at `burst`.
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` requests/second with `burst`
    /// capacity. `rate <= 0` disables pacing (acquire never blocks).
    pub fn new(rate: f64, burst: f64) -> Self {
        Self {
            rate,
            burst: burst.max(1.0),
            tokens: burst.max(1.0),
            last_refill: Instant::now(),
        }
    }

    /// Unpaced bucket (every acquire is free).
    pub fn unlimited() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Whether this bucket actually paces.
    pub fn is_pacing(&self) -> bool {
        self.rate > 0.0
    }

    /// Refill based on elapsed wall time.
    fn refill(&mut self, now: Instant) {
        if self.rate <= 0.0 {
            return;
        }
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
    }

    /// Time until one token is available at `now` (zero if available);
    /// does not consume. Pure so tests can drive it with synthetic time.
    pub fn delay_until_ready(&mut self, now: Instant) -> Duration {
        if self.rate <= 0.0 {
            return Duration::ZERO;
        }
        self.refill(now);
        if self.tokens >= 1.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64((1.0 - self.tokens) / self.rate)
        }
    }

    /// Consume one token, assuming the caller has waited out
    /// `delay_until_ready`. Tokens may go slightly negative under
    /// scheduling jitter; the debt is repaid by the next refill.
    pub fn take(&mut self) {
        if self.rate > 0.0 {
            self.tokens -= 1.0;
        }
    }

    /// Block until a token is available, then consume it.
    pub fn acquire(&mut self) {
        loop {
            let wait = self.delay_until_ready(Instant::now());
            if wait.is_zero() {
                self.take();
                return;
            }
            std::thread::sleep(wait.min(Duration::from_millis(50)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_delays() {
        let mut bucket = TokenBucket::unlimited();
        assert!(!bucket.is_pacing());
        for _ in 0..1000 {
            assert_eq!(bucket.delay_until_ready(Instant::now()), Duration::ZERO);
            bucket.take();
        }
    }

    #[test]
    fn burst_then_steady_rate() {
        let mut bucket = TokenBucket::new(100.0, 5.0);
        let t0 = Instant::now();
        // The initial burst is free.
        for _ in 0..5 {
            assert_eq!(bucket.delay_until_ready(t0), Duration::ZERO);
            bucket.take();
        }
        // The sixth request must wait ~1/rate.
        let wait = bucket.delay_until_ready(t0);
        assert!(wait > Duration::from_millis(5), "expected ~10ms, got {wait:?}");
        assert!(wait <= Duration::from_millis(11), "expected ~10ms, got {wait:?}");
        // After the wait elapses (synthetically), a token is there.
        let later = t0 + wait;
        assert_eq!(bucket.delay_until_ready(later), Duration::ZERO);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut bucket = TokenBucket::new(1000.0, 3.0);
        let t0 = Instant::now();
        bucket.delay_until_ready(t0);
        // A long idle period must not accumulate more than `burst`.
        let much_later = t0 + Duration::from_secs(60);
        bucket.delay_until_ready(much_later);
        for _ in 0..3 {
            assert_eq!(bucket.delay_until_ready(much_later), Duration::ZERO);
            bucket.take();
        }
        assert!(bucket.delay_until_ready(much_later) > Duration::ZERO);
    }

    #[test]
    fn acquire_enforces_approximate_rate() {
        // 2000 qps for 20 requests ≈ 10ms minimum (burst 1).
        let mut bucket = TokenBucket::new(2000.0, 1.0);
        let start = Instant::now();
        for _ in 0..20 {
            bucket.acquire();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(8),
            "20 reqs at 2000 qps should take ~9.5ms+, took {elapsed:?}"
        );
    }
}
