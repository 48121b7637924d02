//! Queue-utilization worker autoscaling.
//!
//! Mirrors the admission/scaling surface of production analytics
//! resource managers (min/max instances, utilization thresholds, a
//! cooldown between actions — see SNIPPETS.md Snippet 1): when queue
//! utilization (`depth / queue_capacity`) stays above the scale-up
//! threshold the pool grows by one worker, when it falls below the
//! scale-down threshold the pool shrinks by one, and after either action
//! the scaler holds for a cooldown so a bursty queue cannot thrash the
//! pool.
//!
//! The decision logic lives in the pure, tick-driven [`AutoScaler`] —
//! time is injected as a [`Duration`] since an arbitrary epoch, so
//! threshold/cooldown transitions are unit-testable without sleeping.
//! The [`crate::ScoringServer`] applies decisions through its dynamic
//! worker pool (`resize_workers`): scale-up spawns supervised workers
//! immediately; scale-down is cooperative — a surplus worker exits at
//! its next idle poll, never abandoning a request it already holds.

use std::time::Duration;

/// Worker-pool scaling policy (the Snippet-1 `ScalingConfiguration`
/// surface, translated to this server's vocabulary).
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Master switch; `false` (the default) keeps the pool fixed at
    /// [`crate::ServeConfig::workers`].
    pub auto_scaling: bool,
    /// Lower bound on pool size (≥ 1 is enforced).
    pub min_workers: usize,
    /// Upper bound on pool size.
    pub max_workers: usize,
    /// Queue utilization (`depth / queue_capacity`, in `[0, 1]`) at or
    /// above which the pool grows.
    pub scale_up_threshold: f64,
    /// Queue utilization at or below which the pool shrinks.
    pub scale_down_threshold: f64,
    /// Minimum seconds between scaling actions (fractional values work).
    pub cooldown_secs: f64,
    /// SLO fast-window burn rate at or above which the pool grows even
    /// when queue utilization is still below `scale_up_threshold` —
    /// latency-SLO violations lead queue saturation, so burning the
    /// error budget is an earlier scale-up signal. `0.0` disables the
    /// input.
    pub burn_up_threshold: f64,
}

impl ScalingConfig {
    /// The cooldown as a `Duration` (negative/NaN clamp to zero).
    pub fn cooldown(&self) -> Duration {
        if self.cooldown_secs.is_finite() && self.cooldown_secs > 0.0 {
            Duration::from_secs_f64(self.cooldown_secs)
        } else {
            Duration::ZERO
        }
    }
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            auto_scaling: false,
            min_workers: 1,
            max_workers: 8,
            scale_up_threshold: 0.75,
            scale_down_threshold: 0.20,
            cooldown_secs: 5.0,
            burn_up_threshold: 0.0,
        }
    }
}

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Keep the current pool size.
    Hold,
    /// Grow the pool to this many workers.
    Up(usize),
    /// Shrink the pool to this many workers.
    Down(usize),
}

/// Pure tick-driven scaling decision engine.
pub struct AutoScaler {
    config: ScalingConfig,
    last_action_at: Option<Duration>,
}

impl AutoScaler {
    /// A scaler for `config` (which needn't have `auto_scaling` set —
    /// the flag gates the *server* loop, not the decision logic, so the
    /// engine stays testable in isolation).
    pub fn new(config: ScalingConfig) -> Self {
        Self { config, last_action_at: None }
    }

    /// The policy this scaler applies.
    pub fn config(&self) -> &ScalingConfig {
        &self.config
    }

    /// Decide at time `now` (monotonic, any epoch) given the current
    /// queue `utilization` in `[0, 1]` and `current` pool size. A
    /// returned `Up`/`Down` starts the cooldown clock; `Hold` does not.
    pub fn tick(&mut self, now: Duration, utilization: f64, current: usize) -> ScaleAction {
        self.tick_with_burn(now, utilization, 0.0, current)
    }

    /// [`AutoScaler::tick`] with the SLO fast-window burn rate as an
    /// additional scale-up input. A burn at or above
    /// [`ScalingConfig::burn_up_threshold`] (when that threshold is
    /// positive) triggers scale-up even while queue utilization is still
    /// comfortable; burn never triggers scale-*down* — recovery is left
    /// to the utilization signal, which is the one that proves capacity
    /// is actually idle.
    pub fn tick_with_burn(
        &mut self,
        now: Duration,
        utilization: f64,
        burn_rate: f64,
        current: usize,
    ) -> ScaleAction {
        let min = self.config.min_workers.max(1);
        let max = self.config.max_workers.max(min);
        if let Some(last) = self.last_action_at {
            if now.saturating_sub(last) < self.config.cooldown() {
                return ScaleAction::Hold;
            }
        }
        // Out-of-bounds pools step back toward the band even when the
        // utilization alone wouldn't trigger anything.
        if current < min {
            self.last_action_at = Some(now);
            return ScaleAction::Up(min);
        }
        if current > max {
            self.last_action_at = Some(now);
            return ScaleAction::Down(max);
        }
        let burn_hot = self.config.burn_up_threshold > 0.0
            && burn_rate.is_finite()
            && burn_rate >= self.config.burn_up_threshold;
        if (utilization >= self.config.scale_up_threshold || burn_hot) && current < max {
            self.last_action_at = Some(now);
            return ScaleAction::Up(current + 1);
        }
        // Burn rate vetoes scale-down: an SLO actively burning means the
        // pool is not surplus no matter what the queue depth says.
        if utilization <= self.config.scale_down_threshold && current > min && !burn_hot {
            self.last_action_at = Some(now);
            return ScaleAction::Down(current - 1);
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ScalingConfig {
        ScalingConfig {
            auto_scaling: true,
            min_workers: 2,
            max_workers: 6,
            scale_up_threshold: 0.75,
            scale_down_threshold: 0.25,
            cooldown_secs: 5.0,
            burn_up_threshold: 0.0,
        }
    }

    fn at(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    #[test]
    fn scales_up_at_threshold_and_respects_max() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.tick(at(0), 0.80, 2), ScaleAction::Up(3));
        // Cooldown elapsed, still hot: keep stepping up to the cap.
        assert_eq!(scaler.tick(at(10), 1.00, 3), ScaleAction::Up(4));
        assert_eq!(scaler.tick(at(20), 1.00, 6), ScaleAction::Hold);
    }

    #[test]
    fn scales_down_at_threshold_and_respects_min() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.tick(at(0), 0.10, 4), ScaleAction::Down(3));
        assert_eq!(scaler.tick(at(10), 0.0, 3), ScaleAction::Down(2));
        assert_eq!(scaler.tick(at(20), 0.0, 2), ScaleAction::Hold);
    }

    #[test]
    fn holds_in_the_dead_band() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.tick(at(0), 0.50, 4), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(1), 0.74, 4), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(2), 0.26, 4), ScaleAction::Hold);
    }

    #[test]
    fn cooldown_suppresses_consecutive_actions() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.tick(at(0), 0.90, 2), ScaleAction::Up(3));
        // Still hot, but inside the 5s cooldown: hold.
        assert_eq!(scaler.tick(at(1), 0.95, 3), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(4), 0.95, 3), ScaleAction::Hold);
        // Cooldown expiry releases the next action.
        assert_eq!(scaler.tick(at(5), 0.95, 3), ScaleAction::Up(4));
        // A Hold decision must NOT restart the cooldown clock.
        assert_eq!(scaler.tick(at(6), 0.50, 4), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(10), 0.95, 4), ScaleAction::Up(5));
    }

    #[test]
    fn up_down_transition_across_a_load_swing() {
        let mut scaler = AutoScaler::new(config());
        // Burst: up at t=0, cooldown gates t=3, up again at t=6.
        assert_eq!(scaler.tick(at(0), 0.90, 2), ScaleAction::Up(3));
        assert_eq!(scaler.tick(at(3), 0.90, 3), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(6), 0.90, 3), ScaleAction::Up(4));
        // Load evaporates: down at t=12, then step back to min.
        assert_eq!(scaler.tick(at(12), 0.05, 4), ScaleAction::Down(3));
        assert_eq!(scaler.tick(at(18), 0.05, 3), ScaleAction::Down(2));
        assert_eq!(scaler.tick(at(24), 0.05, 2), ScaleAction::Hold);
    }

    #[test]
    fn out_of_band_pools_step_back_into_bounds() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.tick(at(0), 0.50, 1), ScaleAction::Up(2));
        assert_eq!(scaler.tick(at(10), 0.50, 9), ScaleAction::Down(6));
    }

    #[test]
    fn burn_rate_scales_up_before_queue_saturation() {
        let mut scaler = AutoScaler::new(ScalingConfig {
            burn_up_threshold: 2.0,
            ..config()
        });
        // Queue looks healthy (0.40 < 0.75) but the SLO is burning its
        // budget 3x: grow anyway.
        assert_eq!(scaler.tick_with_burn(at(0), 0.40, 3.0, 2), ScaleAction::Up(3));
        // Cooldown still applies to burn-driven actions.
        assert_eq!(scaler.tick_with_burn(at(1), 0.40, 5.0, 3), ScaleAction::Hold);
        // Below the burn threshold and in the utilization dead band: hold.
        assert_eq!(scaler.tick_with_burn(at(10), 0.40, 1.0, 3), ScaleAction::Hold);
    }

    #[test]
    fn burn_rate_vetoes_scale_down() {
        let mut scaler = AutoScaler::new(ScalingConfig {
            burn_up_threshold: 2.0,
            ..config()
        });
        // Idle queue would normally shrink the pool, but the SLO burn
        // says the capacity is not actually surplus. At max already, so
        // the burn can't grow it either: hold.
        assert_eq!(scaler.tick_with_burn(at(0), 0.05, 4.0, 6), ScaleAction::Hold);
        // Burn subsides: the utilization signal reclaims the workers.
        assert_eq!(scaler.tick_with_burn(at(10), 0.05, 0.1, 6), ScaleAction::Down(5));
    }

    #[test]
    fn zero_burn_threshold_disables_the_input() {
        let mut scaler = AutoScaler::new(config()); // burn_up_threshold: 0.0
        // Enormous burn, but the input is disabled: utilization rules.
        assert_eq!(scaler.tick_with_burn(at(0), 0.40, 100.0, 3), ScaleAction::Hold);
        assert_eq!(scaler.tick_with_burn(at(1), 0.10, 100.0, 3), ScaleAction::Down(2));
    }

    #[test]
    fn degenerate_bounds_are_clamped() {
        let mut scaler = AutoScaler::new(ScalingConfig {
            min_workers: 0,
            max_workers: 0,
            ..config()
        });
        // min clamps to 1, max clamps to min.
        assert_eq!(scaler.tick(at(0), 1.0, 1), ScaleAction::Hold);
        assert_eq!(scaler.tick(at(1), 0.0, 1), ScaleAction::Hold);
    }
}
