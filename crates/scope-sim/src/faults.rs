//! Fault injection and recovery for the simulated cluster.
//!
//! The executor's [`NoiseModel`](crate::exec::NoiseModel) perturbs task
//! durations; this module injects *discrete failures* on top: task
//! crashes, straggler slowdowns, token-lease preemption (the slot
//! disappears for an outage window, then the lease is restored), and
//! scheduler queueing bursts. A [`RecoveryPolicy`] pairs with the plan:
//! crashed or preempted tasks are re-queued with capped exponential
//! backoff up to a retry budget, and tasks running far past their
//! stage's expected duration trigger speculative re-execution where the
//! first finisher wins.
//!
//! Everything is driven by the executor's single seeded RNG, so any
//! fault schedule is reproducible, and every probability draw is gated
//! behind a `> 0.0` check so an empty plan consumes no RNG state at
//! all — execution with [`FaultPlan::none`] is bit-identical to the
//! fault-free executor.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use tasq_codec::Wire;

/// Typed executor failure.
#[derive(Debug, Clone, PartialEq, Wire)]
pub enum SimError {
    /// `allocation` must be positive.
    InvalidAllocation {
        /// The rejected allocation.
        allocation: u32,
    },
    /// A task crashed or was preempted more times than the recovery
    /// policy's retry budget allows.
    RetriesExhausted {
        /// Stage index of the failing task.
        stage: usize,
        /// Attempts consumed (initial run plus retries).
        attempts: u32,
    },
    /// The event loop drained with work still pending — a scheduling
    /// bug or an unsatisfiable plan (should not occur; surfaced as a
    /// typed error instead of a panic).
    Stalled {
        /// Number of stages that never completed.
        pending_stages: usize,
    },
    /// A cluster submission's guaranteed grant exceeds the pool capacity,
    /// so the job could never start.
    GrantExceedsCapacity {
        /// The offending job.
        job_id: u64,
        /// Tokens the job requested as a grant.
        grant: u32,
        /// The pool's capacity.
        capacity: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidAllocation { allocation } => {
                write!(f, "invalid allocation {allocation}: must be positive")
            }
            SimError::RetriesExhausted { stage, attempts } => {
                write!(f, "task in stage {stage} failed after {attempts} attempts")
            }
            SimError::Stalled { pending_stages } => {
                write!(f, "execution stalled with {pending_stages} stages pending")
            }
            SimError::GrantExceedsCapacity { job_id, grant, capacity } => {
                write!(f, "job {job_id} grant {grant} exceeds cluster capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A seeded, deterministic schedule of failure probabilities. All
/// probabilities are per placed task attempt (per stage dispatch for
/// queueing bursts); zero disables the corresponding draw entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a placed task crashes partway through.
    pub task_crash_probability: f64,
    /// Probability that a task is a straggler.
    pub straggler_probability: f64,
    /// Duration multiplier applied to straggler tasks (> 1).
    pub straggler_slowdown: f64,
    /// Probability that the token slot a task runs on is revoked
    /// mid-task (node loss / lease preemption). The task re-queues and
    /// the slot only returns after [`Self::preemption_outage_secs`].
    pub preemption_probability: f64,
    /// Seconds a revoked token stays away before its lease is restored.
    pub preemption_outage_secs: f64,
    /// Probability that a stage dispatch hits a scheduler queueing
    /// burst, delaying all of its tasks.
    pub queueing_burst_probability: f64,
    /// Upper bound of the uniform burst delay, in seconds.
    pub max_queueing_burst_secs: f64,
}

impl FaultPlan {
    /// No faults: the executor behaves exactly like the deterministic
    /// one (no RNG draws at all).
    pub fn none() -> Self {
        Self {
            task_crash_probability: 0.0,
            straggler_probability: 0.0,
            straggler_slowdown: 1.0,
            preemption_probability: 0.0,
            preemption_outage_secs: 0.0,
            queueing_burst_probability: 0.0,
            max_queueing_burst_secs: 0.0,
        }
    }

    /// Rare failures: the occasional crash or slow node.
    pub fn mild() -> Self {
        Self {
            task_crash_probability: 0.005,
            straggler_probability: 0.01,
            straggler_slowdown: 3.0,
            preemption_probability: 0.002,
            preemption_outage_secs: 20.0,
            queueing_burst_probability: 0.05,
            max_queueing_burst_secs: 10.0,
        }
    }

    /// Shared-production-cluster failure rates (crashes and preemptions
    /// every few dozen tasks, regular queueing bursts).
    pub fn production() -> Self {
        Self {
            task_crash_probability: 0.02,
            straggler_probability: 0.03,
            straggler_slowdown: 4.0,
            preemption_probability: 0.01,
            preemption_outage_secs: 45.0,
            queueing_burst_probability: 0.15,
            max_queueing_burst_secs: 30.0,
        }
    }

    /// Hostile conditions for stress-testing recovery: frequent
    /// crashes, heavy stragglers, and long preemption outages.
    pub fn adversarial() -> Self {
        Self {
            task_crash_probability: 0.12,
            straggler_probability: 0.10,
            straggler_slowdown: 6.0,
            preemption_probability: 0.08,
            preemption_outage_secs: 90.0,
            queueing_burst_probability: 0.5,
            max_queueing_burst_secs: 120.0,
        }
    }

    /// Look up a preset by CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "mild" => Some(Self::mild()),
            "production" => Some(Self::production()),
            "adversarial" => Some(Self::adversarial()),
            _ => None,
        }
    }

    /// The preset names accepted by [`Self::from_name`].
    pub const PRESET_NAMES: [&'static str; 4] = ["none", "mild", "production", "adversarial"];

    /// Whether this plan can never fire a fault.
    pub fn is_empty(&self) -> bool {
        let rates = [
            self.task_crash_probability,
            self.straggler_probability,
            self.preemption_probability,
            self.queueing_burst_probability,
        ];
        // These are configured probabilities, not computed values; exactly
        // zero disables the mechanism.
        rates.iter().all(|&p| p == 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// How the executor reacts to injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget per task: a task may crash or be preempted this many
    /// times and still re-run; one more failure aborts the run with
    /// [`SimError::RetriesExhausted`].
    pub max_task_retries: u32,
    /// Backoff before the first retry is re-queued, in seconds.
    pub retry_backoff_secs: f64,
    /// Cap on the exponentially growing backoff.
    pub max_backoff_secs: f64,
    /// Enable speculative re-execution of stragglers.
    pub speculation: bool,
    /// A task running longer than `factor` times its stage's p95 base
    /// duration gets a speculative copy; the first finisher wins and the
    /// loser is cancelled.
    pub speculative_factor: f64,
    /// Decorrelated-jitter fraction applied to retry backoff, in
    /// `[0, 1]`. Zero keeps the exact exponential schedule; a positive
    /// value spreads each retry uniformly over
    /// `[backoff * (1 - jitter), backoff]`, desynchronising the retry
    /// bursts that a correlated failure (preemption outage, queueing
    /// burst) would otherwise re-queue at the same instant. The draw is
    /// a pure hash of a caller-provided salt, never the executor RNG —
    /// enabling jitter does not shift any other random stream.
    pub retry_jitter: f64,
}

impl RecoveryPolicy {
    /// Backoff before re-queueing attempt number `attempt` (1-based):
    /// `retry_backoff_secs * 2^(attempt-1)`, capped.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let doublings = attempt.saturating_sub(1).min(16);
        (self.retry_backoff_secs * f64::from(1u32 << doublings)).min(self.max_backoff_secs)
    }

    /// Seeded decorrelated-jitter variant of [`Self::backoff_secs`].
    ///
    /// `salt` must be a pure function of the retry site (the executor
    /// hashes its noise seed with the task uid), so the jitter is
    /// deterministic given the seed yet uncorrelated across tasks —
    /// simultaneous failures fan out instead of re-queueing as a
    /// synchronized retry storm. With [`Self::retry_jitter`] at zero
    /// this is exactly `backoff_secs(attempt)`.
    pub fn jittered_backoff_secs(&self, attempt: u32, salt: u64) -> f64 {
        let base = self.backoff_secs(attempt);
        if self.retry_jitter <= 0.0 {
            return base;
        }
        let jitter = self.retry_jitter.min(1.0);
        let u = tasq_resil::chaos::unit_f64(tasq_resil::chaos::mix64(salt, u64::from(attempt)));
        base * (1.0 - jitter * u)
    }

    /// Speculation threshold for a stage whose 95th-percentile base task
    /// duration is `p95_secs`, or infinity when speculation is off.
    pub fn speculation_threshold_secs(&self, p95_secs: f64) -> f64 {
        if self.speculation && self.speculative_factor > 0.0 {
            p95_secs * self.speculative_factor
        } else {
            f64::INFINITY
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_task_retries: 4,
            retry_backoff_secs: 2.0,
            max_backoff_secs: 60.0,
            speculation: true,
            speculative_factor: 1.5,
            retry_jitter: 0.0,
        }
    }
}

/// What the fault layer did during one execution.
#[derive(Debug, Clone, Default, PartialEq, Wire)]
pub struct FaultReport {
    /// Tasks that crashed partway through.
    pub task_crashes: u32,
    /// Task re-queues performed after crashes or preemptions.
    pub task_retries: u32,
    /// Token leases revoked mid-task.
    pub preemptions: u32,
    /// Total seconds token slots spent revoked.
    pub slot_outage_secs: f64,
    /// Tasks slowed down as stragglers.
    pub straggler_tasks: u32,
    /// Speculative copies launched.
    pub speculative_launches: u32,
    /// Speculative copies that finished before the original.
    pub speculative_wins: u32,
    /// Total scheduler burst delay injected, in seconds.
    pub queueing_burst_secs: f64,
    /// Token-seconds spent on work that was thrown away (crashed or
    /// preempted attempts, cancelled speculation losers).
    pub wasted_token_seconds: f64,
}

impl FaultReport {
    /// Whether nothing fault-related happened at all.
    pub fn is_clean(&self) -> bool {
        self == &FaultReport::default()
    }

    /// Total disturbance events (crashes + preemptions + stragglers +
    /// speculative launches) — a quick severity scalar for filtering.
    pub fn disturbance_count(&self) -> u32 {
        self.task_crashes + self.preemptions + self.straggler_tasks + self.speculative_launches
    }
}

/// Per-placement fault decision made by the [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementFate {
    /// The task runs to completion.
    Completes,
    /// The task crashes after the given fraction of its duration.
    Crashes {
        /// Fraction of the duration that elapses before the crash.
        at_fraction: f64,
    },
    /// The token lease is revoked after the given fraction.
    Preempted {
        /// Fraction of the duration that elapses before revocation.
        at_fraction: f64,
    },
}

/// Draws fault outcomes from a [`FaultPlan`] and tallies a
/// [`FaultReport`]. Every draw is skipped when its probability is zero,
/// so an empty plan leaves the RNG untouched.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    report: FaultReport,
}

impl FaultInjector {
    /// Build an injector for one execution.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, report: FaultReport::default() }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Straggler multiplier for a task about to be queued (1.0 = not a
    /// straggler).
    pub fn straggler_multiplier(&mut self, rng: &mut StdRng) -> f64 {
        if self.plan.straggler_probability > 0.0
            && rng.gen_bool(self.plan.straggler_probability.clamp(0.0, 1.0))
        {
            self.report.straggler_tasks += 1;
            self.plan.straggler_slowdown.max(1.0)
        } else {
            1.0
        }
    }

    /// Decide what happens to a task attempt being placed on a slot.
    pub fn placement_fate(&mut self, rng: &mut StdRng) -> PlacementFate {
        if self.plan.task_crash_probability > 0.0
            && rng.gen_bool(self.plan.task_crash_probability.clamp(0.0, 1.0))
        {
            self.report.task_crashes += 1;
            return PlacementFate::Crashes { at_fraction: rng.gen_range(0.05..0.95) };
        }
        if self.plan.preemption_probability > 0.0
            && rng.gen_bool(self.plan.preemption_probability.clamp(0.0, 1.0))
        {
            self.report.preemptions += 1;
            self.report.slot_outage_secs += self.plan.preemption_outage_secs;
            return PlacementFate::Preempted { at_fraction: rng.gen_range(0.05..0.95) };
        }
        PlacementFate::Completes
    }

    /// Scheduler burst delay (seconds) for a stage dispatch, usually 0.
    pub fn queueing_burst_secs(&mut self, rng: &mut StdRng) -> f64 {
        if self.plan.queueing_burst_probability > 0.0
            && rng.gen_bool(self.plan.queueing_burst_probability.clamp(0.0, 1.0))
            && self.plan.max_queueing_burst_secs > 0.0
        {
            let delay = rng.gen_range(0.0..self.plan.max_queueing_burst_secs);
            self.report.queueing_burst_secs += delay;
            delay
        } else {
            0.0
        }
    }

    /// How long a revoked slot stays away.
    pub fn outage_secs(&self) -> f64 {
        self.plan.preemption_outage_secs.max(0.0)
    }

    /// Record a re-queue of a failed task.
    pub fn record_retry(&mut self) {
        self.report.task_retries += 1;
    }

    /// Record a speculative copy launch.
    pub fn record_speculative_launch(&mut self) {
        self.report.speculative_launches += 1;
    }

    /// Record a speculative copy finishing first.
    pub fn record_speculative_win(&mut self) {
        self.report.speculative_wins += 1;
    }

    /// Record token-seconds of discarded work.
    pub fn record_waste(&mut self, token_seconds: f64) {
        self.report.wasted_token_seconds += token_seconds;
    }

    /// Finish the execution and hand back the tally.
    pub fn into_report(self) -> FaultReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn empty_plan_draws_nothing() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut injector = FaultInjector::new(FaultPlan::none());
        for _ in 0..50 {
            assert_eq!(injector.straggler_multiplier(&mut rng_a), 1.0);
            assert_eq!(injector.placement_fate(&mut rng_a), PlacementFate::Completes);
            assert_eq!(injector.queueing_burst_secs(&mut rng_a), 0.0);
        }
        // The RNG was never touched: both streams still agree.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        assert!(injector.into_report().is_clean());
    }

    #[test]
    fn presets_are_ordered_by_severity() {
        let mild = FaultPlan::mild();
        let production = FaultPlan::production();
        let adversarial = FaultPlan::adversarial();
        assert!(mild.task_crash_probability < production.task_crash_probability);
        assert!(production.task_crash_probability < adversarial.task_crash_probability);
        assert!(FaultPlan::none().is_empty());
        assert!(!mild.is_empty());
    }

    #[test]
    fn preset_lookup_by_name() {
        for name in FaultPlan::PRESET_NAMES {
            assert!(FaultPlan::from_name(name).is_some(), "{name}");
        }
        assert!(FaultPlan::from_name("bogus").is_none());
        assert_eq!(FaultPlan::from_name("none"), Some(FaultPlan::none()));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RecoveryPolicy::default();
        assert!((policy.backoff_secs(1) - 2.0).abs() < 1e-12);
        assert!((policy.backoff_secs(2) - 4.0).abs() < 1e-12);
        assert!((policy.backoff_secs(3) - 8.0).abs() < 1e-12);
        assert!(policy.backoff_secs(30) <= policy.max_backoff_secs);
    }

    #[test]
    fn jitter_breaks_retry_storms_deterministically() {
        // Regression: under the production preset a preemption outage
        // re-queues many tasks at once; with fixed backoff they all come
        // back at now + 2.0s and hammer the scheduler again. Jitter must
        // fan those retries out — yet stay a pure function of the salt.
        let fixed = RecoveryPolicy::default();
        let jittered = RecoveryPolicy { retry_jitter: 0.5, ..RecoveryPolicy::default() };

        let storm: Vec<f64> = (0..64).map(|_| fixed.backoff_secs(1)).collect();
        assert!(storm.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()), "storm expected");

        let salts: Vec<u64> = (0..64).map(|uid| 1000 + uid).collect();
        let spread: Vec<f64> =
            salts.iter().map(|&s| jittered.jittered_backoff_secs(1, s)).collect();
        let distinct: std::collections::HashSet<u64> =
            spread.iter().map(|d| d.to_bits()).collect();
        assert!(distinct.len() >= 60, "only {} distinct delays", distinct.len());
        for &d in &spread {
            assert!((1.0 - 1e-12..=2.0 + 1e-12).contains(&d), "delay {d} outside [base/2, base]");
        }

        // Deterministic given the seed/salt, and jitter-off is exact.
        let replay: Vec<f64> =
            salts.iter().map(|&s| jittered.jittered_backoff_secs(1, s)).collect();
        assert_eq!(
            spread.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            replay.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
        let exact = fixed.jittered_backoff_secs(3, 123);
        assert!((exact - fixed.backoff_secs(3)).abs() < 1e-15);
    }

    #[test]
    fn speculation_threshold_disabled_is_infinite() {
        let mut policy = RecoveryPolicy::default();
        assert!((policy.speculation_threshold_secs(10.0) - 15.0).abs() < 1e-12);
        policy.speculation = false;
        assert!(policy.speculation_threshold_secs(10.0).is_infinite());
    }

    #[test]
    fn adversarial_plan_actually_fires() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut injector = FaultInjector::new(FaultPlan::adversarial());
        let mut crashes = 0;
        let mut preemptions = 0;
        let mut stragglers = 0;
        for _ in 0..500 {
            if injector.straggler_multiplier(&mut rng) > 1.0 {
                stragglers += 1;
            }
            match injector.placement_fate(&mut rng) {
                PlacementFate::Crashes { at_fraction } => {
                    assert!((0.05..0.95).contains(&at_fraction));
                    crashes += 1;
                }
                PlacementFate::Preempted { .. } => preemptions += 1,
                PlacementFate::Completes => {}
            }
        }
        assert!(crashes > 10, "crashes: {crashes}");
        assert!(preemptions > 5, "preemptions: {preemptions}");
        assert!(stragglers > 10, "stragglers: {stragglers}");
        let report = injector.into_report();
        assert_eq!(report.task_crashes, crashes);
        assert_eq!(report.preemptions, preemptions);
        assert!(report.disturbance_count() > 0);
    }

    #[test]
    fn error_display_is_descriptive() {
        let err = SimError::RetriesExhausted { stage: 3, attempts: 5 };
        assert!(err.to_string().contains("stage 3"));
        assert!(SimError::InvalidAllocation { allocation: 0 }.to_string().contains("positive"));
        assert!(SimError::Stalled { pending_stages: 2 }.to_string().contains("stalled"));
    }
}
