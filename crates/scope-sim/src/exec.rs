//! Event-driven cluster executor.
//!
//! Schedules a [`StageGraph`]'s tasks onto a fixed number of token slots
//! and records the resulting resource skyline. This is the workspace's
//! substitute for running jobs on the Cosmos cluster: re-executing the
//! same stage graph at different allocations yields the ground-truth
//! run-time-versus-tokens relationship (work-bound at small allocations,
//! critical-path-bound at large ones — the power-law-like decay the paper
//! models).

use crate::faults::{FaultInjector, FaultPlan, FaultReport, PlacementFate, RecoveryPolicy, SimError};
use crate::skyline::Skyline;
use crate::stage::StageGraph;
use crate::trace::{ExecEventKind, ExecTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, VecDeque};
use tasq_codec::Wire;
use tasq_ml::rand_ext;

/// Stochastic execution-environment effects (disabled by default: the
/// paper's AREPAS explicitly assumes deterministic skylines, but the
/// flighting-validation experiments need controlled noise).
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Lognormal sigma multiplying each task's duration (0 = none).
    pub duration_jitter_sigma: f64,
    /// Probability a task fails once and re-runs (doubling its effective
    /// duration).
    pub task_retry_probability: f64,
    /// Upper bound of a uniform random startup delay before the job's
    /// first stage begins, in seconds (queueing at the scheduler).
    pub max_queueing_delay_secs: f64,
}

impl NoiseModel {
    /// No noise at all: fully deterministic execution.
    pub fn none() -> Self {
        Self {
            duration_jitter_sigma: 0.0,
            task_retry_probability: 0.0,
            max_queueing_delay_secs: 0.0,
        }
    }

    /// Mild production-like noise (a few percent of duration jitter,
    /// occasional retries).
    pub fn mild() -> Self {
        Self {
            duration_jitter_sigma: 0.05,
            task_retry_probability: 0.01,
            max_queueing_delay_secs: 5.0,
        }
    }

    /// Heavier shared-production-cluster noise: noticeable duration
    /// jitter, more frequent retries, and real queueing delays. Used for
    /// the area-conservation validation experiments, where flights of the
    /// same job are expected to disagree on token-seconds by tens of
    /// percent.
    pub fn production() -> Self {
        Self {
            duration_jitter_sigma: 0.2,
            task_retry_probability: 0.04,
            max_queueing_delay_secs: 15.0,
        }
    }

    /// Whether every knob is off (non-positive).
    pub fn is_deterministic(&self) -> bool {
        self.duration_jitter_sigma <= 0.0
            && self.task_retry_probability <= 0.0
            && self.max_queueing_delay_secs <= 0.0
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Noise model (use [`NoiseModel::none`] for deterministic runs).
    pub noise: NoiseModel,
    /// Seed for the noise and fault RNG (ignored when both the noise
    /// model and the fault plan are empty).
    pub noise_seed: u64,
    /// Discrete-failure injection plan ([`FaultPlan::none`] disables).
    pub faults: FaultPlan,
    /// Retry / backoff / speculation behaviour when faults fire.
    pub recovery: RecoveryPolicy,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            noise: NoiseModel::none(),
            noise_seed: 0,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Result of one execution (one "flight").
#[derive(Debug, Clone, Wire)]
pub struct ExecutionResult {
    /// Per-second token usage.
    pub skyline: Skyline,
    /// Exact (fractional) makespan in seconds.
    pub runtime_secs: f64,
    /// Total token-seconds consumed (= skyline area, including work
    /// thrown away by crashes, preemptions, and lost speculation races).
    pub total_token_seconds: f64,
    /// The allocation the job ran with.
    pub allocation: u32,
    /// What the fault layer did (all-zero for clean runs).
    pub faults: FaultReport,
}

/// Reusable per-run working memory for [`Executor::run_with_scratch`].
///
/// One simulated flight allocates a dozen growable buffers (dependency
/// counters, the dependents adjacency, the ready queue, the event heap,
/// the busy-interval log, ...). Flighting re-executes the same job at
/// several allocations times several repetitions, so callers on that hot
/// path keep one `ExecScratch` and hand it to every run: buffers are
/// cleared, not reallocated, between runs. Reuse never changes results —
/// a scratch-backed run is bit-identical to a fresh [`Executor::run`].
#[derive(Default)]
pub struct ExecScratch {
    pending_deps: Vec<usize>,
    remaining_tasks: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    spec_threshold: Vec<f64>,
    duration_sort: Vec<f64>,
    intervals: Vec<(f64, f64)>,
    tasks: Vec<TaskState>,
    ready: VecDeque<ReadyTask>,
    events: BinaryHeap<Event>,
}

impl ExecScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes a stage graph at a given token allocation.
#[derive(Debug, Clone)]
pub struct Executor {
    graph: StageGraph,
}

impl Executor {
    /// Wrap a stage graph for execution.
    pub fn new(graph: StageGraph) -> Self {
        Self { graph }
    }

    /// The underlying stage graph.
    pub fn graph(&self) -> &StageGraph {
        &self.graph
    }

    /// Run the job with `allocation` tokens.
    ///
    /// Scheduling model: a stage becomes ready when all dependency stages
    /// have completed; ready tasks enter a FIFO queue and are placed onto
    /// free token slots immediately; each task occupies exactly one token
    /// for its duration.
    ///
    /// Faults from [`ExecutionConfig::faults`] fire per placement: a
    /// crashed or preempted task attempt is re-queued after an
    /// exponential backoff (up to [`RecoveryPolicy::max_task_retries`];
    /// exceeding the budget aborts with [`SimError::RetriesExhausted`]),
    /// a preemption additionally revokes the token slot for the plan's
    /// outage window, and a task predicted to run past the stage's p95
    /// duration times [`RecoveryPolicy::speculative_factor`] gets a
    /// speculative copy — the first finisher wins and the loser is
    /// cancelled. An empty plan draws no randomness and executes
    /// identically to the deterministic scheduler.
    pub fn run(
        &self,
        allocation: u32,
        config: &ExecutionConfig,
    ) -> Result<ExecutionResult, SimError> {
        self.run_inner(allocation, config, &mut None, &mut ExecScratch::default())
    }

    /// Like [`Executor::run`], but reuses the caller's [`ExecScratch`]
    /// instead of allocating fresh working buffers. Use this when running
    /// many flights in a loop; results are bit-identical to `run`.
    pub fn run_with_scratch(
        &self,
        allocation: u32,
        config: &ExecutionConfig,
        scratch: &mut ExecScratch,
    ) -> Result<ExecutionResult, SimError> {
        self.run_inner(allocation, config, &mut None, scratch)
    }

    /// Like [`Executor::run`], but also appends every scheduling decision
    /// (with exact simulated timestamps) to `trace`. Two runs with the
    /// same configuration must produce bit-identical traces, and a trace
    /// must follow the stage graph's dependency order;
    /// `tests/invariant_checks.rs` checks both.
    pub fn run_traced(
        &self,
        allocation: u32,
        config: &ExecutionConfig,
        trace: &mut ExecTrace,
    ) -> Result<ExecutionResult, SimError> {
        let mut slot = Some(trace);
        self.run_inner(allocation, config, &mut slot, &mut ExecScratch::default())
    }

    fn run_inner(
        &self,
        allocation: u32,
        config: &ExecutionConfig,
        trace: &mut Option<&mut ExecTrace>,
        scratch: &mut ExecScratch,
    ) -> Result<ExecutionResult, SimError> {
        if allocation == 0 {
            return Err(SimError::InvalidAllocation { allocation });
        }
        // Split the scratch into disjoint buffer borrows; every buffer is
        // cleared before use so stale state from a previous run (including
        // one that ended in an error) cannot leak in.
        let ExecScratch {
            pending_deps,
            remaining_tasks,
            dependents,
            spec_threshold,
            duration_sort,
            intervals,
            tasks,
            ready,
            events,
        } = scratch;
        let mut rng = StdRng::seed_from_u64(config.noise_seed);
        let noise = &config.noise;
        let recovery = &config.recovery;
        let mut injector = FaultInjector::new(config.faults.clone());

        let num_stages = self.graph.num_stages();
        pending_deps.clear();
        pending_deps.extend((0..num_stages).map(|s| self.graph.deps[s].len()));
        remaining_tasks.clear();
        remaining_tasks.extend((0..num_stages).map(|s| self.graph.stages[s].width()));
        // Dependents adjacency for completion propagation (inner vectors
        // keep their capacity across reuse).
        for d in dependents.iter_mut() {
            d.clear();
        }
        dependents.resize_with(num_stages, Vec::new);
        for s in 0..num_stages {
            for &d in &self.graph.deps[s] {
                dependents[d].push(s);
            }
        }
        // Speculation threshold per stage: p95 of base durations × factor.
        // Speculation is a *recovery* mechanism — with an empty fault plan
        // it stays off entirely, so fault-free execution is byte-identical
        // to the plain deterministic scheduler (naturally skewed stages
        // must not spawn duplicate work).
        spec_threshold.clear();
        if config.faults.is_empty() {
            spec_threshold.resize(num_stages, f64::INFINITY);
        } else {
            for s in 0..num_stages {
                let durations = &self.graph.stages[s].task_durations;
                if durations.is_empty() {
                    spec_threshold.push(f64::INFINITY);
                    continue;
                }
                duration_sort.clear();
                duration_sort.extend_from_slice(durations);
                duration_sort.sort_by(f64::total_cmp);
                let idx = ((duration_sort.len() as f64 * 0.95).ceil() as usize)
                    .clamp(1, duration_sort.len())
                    - 1;
                spec_threshold.push(recovery.speculation_threshold_secs(duration_sort[idx]));
            }
        }

        let start_delay = if noise.max_queueing_delay_secs > 0.0 {
            rng.gen_range(0.0..noise.max_queueing_delay_secs)
        } else {
            0.0
        };

        tasks.clear();
        ready.clear();
        events.clear();
        let mut state = LoopState { tasks, ready, events, seq: 0 };

        // Initial dispatch: stages with no dependencies run immediately;
        // zero-width stages complete instantly (possibly in chains).
        let mut completed_stages = 0usize;
        {
            let mut to_dispatch: Vec<usize> = Vec::new();
            let mut zero_stack: Vec<usize> = Vec::new();
            for s in 0..num_stages {
                if pending_deps[s] == 0 {
                    if remaining_tasks[s] == 0 {
                        zero_stack.push(s);
                    } else {
                        to_dispatch.push(s);
                    }
                }
            }
            complete_zero_width(
                &mut zero_stack,
                &mut to_dispatch,
                pending_deps,
                remaining_tasks,
                dependents,
                &mut completed_stages,
                start_delay,
                trace,
            );
            for s in to_dispatch {
                self.dispatch_stage(
                    s,
                    start_delay,
                    noise,
                    &mut injector,
                    &mut rng,
                    &mut state,
                    trace,
                );
            }
        }

        let mut free = allocation as usize;
        let mut now = start_delay;
        // Busy intervals for skyline construction; fault-truncated
        // attempts keep their (shorter) real extent.
        intervals.clear();

        loop {
            // Fill free slots from the ready queue.
            while free > 0 {
                let Some(rt) = state.ready.pop_front() else { break };
                if state.tasks[rt.uid].done {
                    continue; // stale retry/copy of an already-finished task
                }
                free -= 1;
                let fate = if rt.speculative {
                    // Speculative copies model a re-run on a healthy
                    // node: immune to further faults.
                    PlacementFate::Completes
                } else {
                    injector.placement_fate(&mut rng)
                };
                let uid = rt.uid;
                let interval_idx = intervals.len();
                let (end, kind) = match fate {
                    PlacementFate::Completes => (
                        now + rt.duration,
                        EventKind::Finish { uid, copy_id: state.seq },
                    ),
                    PlacementFate::Crashes { at_fraction } => (
                        now + rt.duration * at_fraction,
                        EventKind::Abort { uid, copy_id: state.seq, preempt: false },
                    ),
                    PlacementFate::Preempted { at_fraction } => (
                        now + rt.duration * at_fraction,
                        EventKind::Abort { uid, copy_id: state.seq, preempt: true },
                    ),
                };
                let copy_id = state.seq;
                intervals.push((now, end));
                if let Some(t) = trace.as_deref_mut() {
                    t.record(
                        now,
                        ExecEventKind::Placed {
                            uid,
                            stage: state.tasks[uid].stage,
                            speculative: rt.speculative,
                        },
                    );
                }
                state.tasks[uid].active.push(ActiveCopy {
                    copy_id,
                    interval_idx,
                    start: now,
                    speculative: rt.speculative,
                });
                state.push(end, kind);
                // Predictably slow primary: schedule a speculative copy
                // at the threshold instant.
                let threshold = spec_threshold[state.tasks[uid].stage];
                if matches!(fate, PlacementFate::Completes)
                    && !rt.speculative
                    && !state.tasks[uid].speculated
                    && rt.duration > threshold
                {
                    state.tasks[uid].speculated = true;
                    state.push(now + threshold, EventKind::LaunchCopy { uid });
                }
            }

            // Advance to the next event.
            let Some(event) = state.events.pop() else { break };
            now = event.time;
            match event.kind {
                EventKind::Finish { uid, copy_id } => {
                    let Some(copy) = state.tasks[uid].take_active(copy_id) else {
                        continue; // copy was cancelled; slot already freed
                    };
                    free += 1;
                    if state.tasks[uid].done {
                        injector.record_waste(now - copy.start);
                        continue;
                    }
                    state.tasks[uid].done = true;
                    if copy.speculative {
                        injector.record_speculative_win();
                    }
                    // First finisher wins: cancel every other copy.
                    let losers: Vec<ActiveCopy> = state.tasks[uid].active.drain(..).collect();
                    for loser in losers {
                        intervals[loser.interval_idx].1 = now;
                        injector.record_waste(now - loser.start);
                        free += 1;
                    }
                    let stage = state.tasks[uid].stage;
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(now, ExecEventKind::Finished { uid, stage });
                    }
                    remaining_tasks[stage] -= 1;
                    if remaining_tasks[stage] == 0 {
                        let mut to_dispatch: Vec<usize> = Vec::new();
                        let mut zero_stack: Vec<usize> = vec![stage];
                        complete_zero_width(
                            &mut zero_stack,
                            &mut to_dispatch,
                            pending_deps,
                            remaining_tasks,
                            dependents,
                            &mut completed_stages,
                            now,
                            trace,
                        );
                        for s in to_dispatch {
                            self.dispatch_stage(
                                s,
                                now,
                                noise,
                                &mut injector,
                                &mut rng,
                                &mut state,
                                trace,
                            );
                        }
                    }
                }
                EventKind::Abort { uid, copy_id, preempt } => {
                    let Some(copy) = state.tasks[uid].take_active(copy_id) else {
                        continue; // copy was cancelled before the fault fired
                    };
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(
                            now,
                            ExecEventKind::Aborted { uid, stage: state.tasks[uid].stage, preempt },
                        );
                    }
                    injector.record_waste(now - copy.start);
                    if preempt {
                        // The token lease is revoked; it returns later.
                        state.push(now + injector.outage_secs(), EventKind::SlotRestored);
                    } else {
                        free += 1;
                    }
                    if state.tasks[uid].done {
                        continue; // a speculative copy already won
                    }
                    state.tasks[uid].attempt += 1;
                    let attempt = state.tasks[uid].attempt;
                    if attempt > recovery.max_task_retries {
                        return Err(SimError::RetriesExhausted {
                            stage: state.tasks[uid].stage,
                            attempts: attempt,
                        });
                    }
                    injector.record_retry();
                    // Salt = (noise seed, task uid): deterministic per run,
                    // decorrelated across tasks, and independent of the
                    // executor RNG stream.
                    let salt = tasq_resil::chaos::mix64(config.noise_seed, uid as u64);
                    let delay = recovery.jittered_backoff_secs(attempt, salt);
                    let duration = state.tasks[uid].duration;
                    state.push(
                        now + delay,
                        EventKind::Ready(ReadyTask { uid, duration, speculative: false }),
                    );
                }
                EventKind::SlotRestored => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(now, ExecEventKind::SlotRestored);
                    }
                    free += 1;
                }
                EventKind::Ready(rt) => {
                    state.ready.push_back(rt);
                }
                EventKind::LaunchCopy { uid } => {
                    if state.tasks[uid].done {
                        continue;
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(now, ExecEventKind::CopyLaunched { uid });
                    }
                    injector.record_speculative_launch();
                    let duration = state.tasks[uid].base_duration;
                    state.ready.push_back(ReadyTask { uid, duration, speculative: true });
                }
            }
        }

        if completed_stages != num_stages {
            return Err(SimError::Stalled { pending_stages: num_stages - completed_stages });
        }

        let makespan = intervals.iter().map(|&(_, e)| e).fold(start_delay, f64::max);
        let skyline = build_skyline(intervals, makespan);
        let total = skyline.area();
        let faults = injector.into_report();
        crate::obs::publish_fault_report(&faults);
        Ok(ExecutionResult {
            skyline,
            runtime_secs: makespan,
            total_token_seconds: total,
            allocation,
            faults,
        })
    }

    /// Queue every task of a stage: noise jitter, retry doubling, and
    /// straggler slowdown apply per task; a scheduler queueing burst
    /// delays the whole stage.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_stage(
        &self,
        stage_idx: usize,
        now: f64,
        noise: &NoiseModel,
        injector: &mut FaultInjector,
        rng: &mut StdRng,
        state: &mut LoopState<'_>,
        trace: &mut Option<&mut ExecTrace>,
    ) {
        if let Some(t) = trace.as_deref_mut() {
            t.record(
                now,
                ExecEventKind::StageDispatched {
                    stage: stage_idx,
                    tasks: self.graph.stages[stage_idx].width(),
                },
            );
        }
        let burst = injector.queueing_burst_secs(rng);
        for &base in &self.graph.stages[stage_idx].task_durations {
            let mut duration = base;
            if noise.duration_jitter_sigma > 0.0 {
                duration *= rand_ext::lognormal(rng, 0.0, noise.duration_jitter_sigma);
            }
            if noise.task_retry_probability > 0.0
                && rng.gen_bool(noise.task_retry_probability.clamp(0.0, 1.0))
            {
                duration *= 2.0;
            }
            duration *= injector.straggler_multiplier(rng);
            let uid = state.tasks.len();
            state.tasks.push(TaskState {
                stage: stage_idx,
                duration,
                base_duration: base,
                attempt: 0,
                done: false,
                speculated: false,
                active: Vec::new(),
            });
            let rt = ReadyTask { uid, duration, speculative: false };
            if burst > 0.0 {
                state.push(now + burst, EventKind::Ready(rt));
            } else {
                state.ready.push_back(rt);
            }
        }
    }

    /// Run the job at several allocations (deterministically) and return
    /// `(allocation, runtime_secs)` pairs — a ground-truth PCC sample.
    pub fn performance_curve(&self, allocations: &[u32]) -> Result<Vec<(u32, f64)>, SimError> {
        let config = ExecutionConfig::default();
        let mut scratch = ExecScratch::default();
        allocations
            .iter()
            .map(|&a| Ok((a, self.run_with_scratch(a, &config, &mut scratch)?.runtime_secs)))
            .collect()
    }
}

/// One logical task's execution state across attempts and copies.
struct TaskState {
    stage: usize,
    /// Effective duration of the primary attempt (noise and straggler
    /// multipliers applied); retries re-run at this duration.
    duration: f64,
    /// The stage graph's unperturbed duration; speculative copies run at
    /// this (they model a re-run on a healthy node).
    base_duration: f64,
    attempt: u32,
    done: bool,
    speculated: bool,
    active: Vec<ActiveCopy>,
}

impl TaskState {
    /// Remove and return the active copy with the given id, if still
    /// active (cancelled copies leave stale events behind).
    fn take_active(&mut self, copy_id: u64) -> Option<ActiveCopy> {
        let pos = self.active.iter().position(|c| c.copy_id == copy_id)?;
        Some(self.active.swap_remove(pos))
    }
}

/// One placed attempt or speculative copy currently occupying a slot.
struct ActiveCopy {
    copy_id: u64,
    interval_idx: usize,
    start: f64,
    speculative: bool,
}

/// A task (or retry, or speculative copy) waiting for a free slot.
struct ReadyTask {
    uid: usize,
    duration: f64,
    speculative: bool,
}

enum EventKind {
    /// A running copy completes.
    Finish { uid: usize, copy_id: u64 },
    /// A running copy crashes (`preempt: false`) or its slot is revoked
    /// (`preempt: true`).
    Abort { uid: usize, copy_id: u64, preempt: bool },
    /// A revoked token lease returns.
    SlotRestored,
    /// A delayed task becomes ready (queueing burst or retry backoff).
    Ready(ReadyTask),
    /// Launch a speculative copy of a straggling task.
    LaunchCopy { uid: usize },
}

/// Time-ordered simulator event; ties break by insertion order.
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Inverted so the std max-heap pops the earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Mutable scheduling state shared between the event loop and stage
/// dispatch; the collections themselves live in an [`ExecScratch`] so
/// their capacity survives across runs.
struct LoopState<'a> {
    tasks: &'a mut Vec<TaskState>,
    ready: &'a mut VecDeque<ReadyTask>,
    events: &'a mut BinaryHeap<Event>,
    seq: u64,
}

impl LoopState<'_> {
    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event { time, seq: self.seq, kind });
    }
}

/// Drain a stack of just-completed zero-width stages (and any stages
/// their completion finishes transitively), collecting newly-ready
/// nonempty stages into `to_dispatch`.
#[allow(clippy::too_many_arguments)]
fn complete_zero_width(
    zero_stack: &mut Vec<usize>,
    to_dispatch: &mut Vec<usize>,
    pending_deps: &mut [usize],
    remaining_tasks: &mut [usize],
    dependents: &[Vec<usize>],
    completed_stages: &mut usize,
    now: f64,
    trace: &mut Option<&mut ExecTrace>,
) {
    while let Some(stage) = zero_stack.pop() {
        remaining_tasks[stage] = usize::MAX; // mark complete
        *completed_stages += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.record(now, ExecEventKind::StageCompleted { stage });
        }
        for &dep in &dependents[stage] {
            pending_deps[dep] -= 1;
            if pending_deps[dep] == 0 {
                if remaining_tasks[dep] == 0 {
                    zero_stack.push(dep);
                } else {
                    to_dispatch.push(dep);
                }
            }
        }
    }
}

/// Convert busy intervals into a per-second skyline. Each interval
/// contributes its exact overlap with each one-second bucket, so the
/// skyline's area equals total busy time.
fn build_skyline(intervals: &[(f64, f64)], makespan: f64) -> Skyline {
    let len = makespan.ceil().max(0.0) as usize;
    let mut samples = vec![0.0; len];
    for &(start, end) in intervals {
        let first = start.floor() as usize;
        let last = (end.ceil() as usize).min(len);
        for (sec, sample) in samples.iter_mut().enumerate().take(last).skip(first) {
            let lo = sec as f64;
            let hi = lo + 1.0;
            let overlap = (end.min(hi) - start.max(lo)).max(0.0);
            *sample += overlap;
        }
    }
    Skyline::new(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::PhysicalOperator as Op;
    use crate::plan::{JobPlan, OperatorNode};

    fn node(op: Op, partitions: u32, cost: f64) -> OperatorNode {
        let mut n = OperatorNode::with_op(op);
        n.num_partitions = partitions;
        n.est_exclusive_cost = cost;
        n
    }

    /// A job with one wide scan stage and one narrow agg stage.
    fn wide_then_narrow() -> Executor {
        let plan = JobPlan::new(
            vec![
                node(Op::TableScan, 16, 160.0),
                node(Op::Exchange, 16, 16.0),
                node(Op::HashAggregate, 2, 20.0),
            ],
            vec![(0, 1), (1, 2)],
        );
        Executor::new(StageGraph::from_plan(&plan, 0))
    }

    fn run_ok(exec: &Executor, alloc: u32, config: &ExecutionConfig) -> ExecutionResult {
        exec.run(alloc, config).expect("execution should succeed")
    }

    #[test]
    fn runtime_decreases_with_more_tokens() {
        let exec = wide_then_narrow();
        let curve = exec.performance_curve(&[1, 2, 4, 8, 16, 32]).expect("curve");
        for w in curve.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "runtime must not increase with tokens: {curve:?}"
            );
        }
        // And it should decrease substantially from 1 to 16 tokens.
        assert!(curve[0].1 > curve[4].1 * 3.0, "{curve:?}");
    }

    #[test]
    fn runtime_saturates_beyond_max_width() {
        let exec = wide_then_narrow();
        let curve = exec.performance_curve(&[16, 64, 256]).expect("curve");
        assert!((curve[0].1 - curve[1].1).abs() < 1e-9);
        assert!((curve[1].1 - curve[2].1).abs() < 1e-9);
    }

    #[test]
    fn skyline_never_exceeds_allocation() {
        let exec = wide_then_narrow();
        for alloc in [1u32, 3, 7, 16] {
            let result = run_ok(&exec, alloc, &ExecutionConfig::default());
            assert!(
                result.skyline.peak() <= alloc as f64 + 1e-9,
                "alloc {alloc}: peak {}",
                result.skyline.peak()
            );
        }
    }

    #[test]
    fn total_work_is_allocation_invariant() {
        let exec = wide_then_narrow();
        let w4 = run_ok(&exec, 4, &ExecutionConfig::default()).total_token_seconds;
        let w16 = run_ok(&exec, 16, &ExecutionConfig::default()).total_token_seconds;
        assert!(
            (w4 - w16).abs() < 1e-6,
            "token-seconds must be preserved: {w4} vs {w16}"
        );
    }

    #[test]
    fn skyline_area_equals_reported_work() {
        let exec = wide_then_narrow();
        let r = run_ok(&exec, 8, &ExecutionConfig::default());
        assert!((r.skyline.area() - r.total_token_seconds).abs() < 1e-9);
        // And area equals the stage graph's total task time (cost-derived
        // work plus per-task startup, already folded into the durations).
        let expected = exec.graph().total_work();
        assert!(
            (r.total_token_seconds - expected).abs() < 1e-6,
            "{} vs {expected}",
            r.total_token_seconds
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        // Reusing one scratch across allocations, repetitions, noise
        // configs, and even an error-producing run must not change any
        // result relative to a fresh `run`.
        let exec = wide_then_narrow();
        let mut scratch = ExecScratch::new();
        let noisy =
            ExecutionConfig { noise: NoiseModel::mild(), noise_seed: 9, ..Default::default() };
        // An errored run in between must not poison the scratch.
        assert!(exec.run_with_scratch(0, &ExecutionConfig::default(), &mut scratch).is_err());
        for alloc in [1u32, 3, 8, 16, 8, 3] {
            for config in [&ExecutionConfig::default(), &noisy] {
                let fresh = run_ok(&exec, alloc, config);
                let reused = exec
                    .run_with_scratch(alloc, config, &mut scratch)
                    .expect("scratch run should succeed");
                assert_eq!(fresh.runtime_secs.to_bits(), reused.runtime_secs.to_bits());
                assert_eq!(
                    fresh.total_token_seconds.to_bits(),
                    reused.total_token_seconds.to_bits()
                );
                assert_eq!(fresh.skyline, reused.skyline);
            }
        }
    }

    #[test]
    fn deterministic_without_noise() {
        let exec = wide_then_narrow();
        let r1 = run_ok(&exec, 8, &ExecutionConfig::default());
        let r2 = run_ok(&exec, 8, &ExecutionConfig::default());
        assert_eq!(r1.skyline, r2.skyline);
        assert_eq!(r1.runtime_secs, r2.runtime_secs);
        assert!(r1.faults.is_clean());
    }

    #[test]
    fn noise_changes_but_seeded_noise_reproduces() {
        let exec = wide_then_narrow();
        let noisy =
            ExecutionConfig { noise: NoiseModel::mild(), noise_seed: 1, ..Default::default() };
        let r1 = run_ok(&exec, 8, &noisy);
        let r2 = run_ok(&exec, 8, &noisy);
        assert_eq!(r1.runtime_secs, r2.runtime_secs, "same seed, same result");
        let other =
            ExecutionConfig { noise: NoiseModel::mild(), noise_seed: 2, ..Default::default() };
        let r3 = run_ok(&exec, 8, &other);
        assert_ne!(r1.runtime_secs, r3.runtime_secs, "different seed should differ");
    }

    #[test]
    fn stage_dependencies_serialize_execution() {
        // Narrow stage depends on wide stage: with plenty of tokens, the
        // makespan is at least the sum of the two stages' longest tasks.
        let exec = wide_then_narrow();
        let r = run_ok(&exec, 100, &ExecutionConfig::default());
        let cp = exec.graph().critical_path_secs();
        assert!(
            (r.runtime_secs - cp).abs() < 1e-6,
            "unlimited tokens should hit the critical path: {} vs {cp}",
            r.runtime_secs
        );
    }

    #[test]
    fn single_operator_plan_runs() {
        let plan = JobPlan::new(vec![node(Op::TableScan, 1, 5.0)], vec![]);
        let exec = Executor::new(StageGraph::from_plan(&plan, 0));
        let r = run_ok(&exec, 1, &ExecutionConfig::default());
        assert!((r.runtime_secs - 6.0).abs() < 1e-9); // 5s work + 1s startup
        assert_eq!(r.skyline.runtime_secs(), 6);
    }

    #[test]
    fn zero_allocation_is_a_typed_error() {
        let exec = wide_then_narrow();
        let err = exec.run(0, &ExecutionConfig::default()).expect_err("must fail");
        assert!(matches!(err, SimError::InvalidAllocation { allocation: 0 }));
    }

    fn fault_config(faults: FaultPlan, seed: u64) -> ExecutionConfig {
        ExecutionConfig { noise_seed: seed, faults, ..Default::default() }
    }

    #[test]
    fn crashed_tasks_retry_and_complete() {
        let exec = wide_then_narrow();
        let clean = run_ok(&exec, 8, &ExecutionConfig::default());
        let mut fired = false;
        for seed in 0..20 {
            let cfg = fault_config(
                FaultPlan { task_crash_probability: 0.15, ..FaultPlan::none() },
                seed,
            );
            let r = run_ok(&exec, 8, &cfg);
            if r.faults.task_crashes > 0 {
                fired = true;
                assert_eq!(r.faults.task_retries, r.faults.task_crashes);
                assert!(r.faults.wasted_token_seconds > 0.0);
                // A crash on the critical path lengthens the run; one in
                // scheduling slack retries for free — never faster though.
                assert!(
                    r.runtime_secs >= clean.runtime_secs,
                    "retries cannot shorten the run: {} vs {}",
                    r.runtime_secs,
                    clean.runtime_secs
                );
            }
        }
        assert!(fired, "15% crash probability should fire within 20 seeds");
    }

    #[test]
    fn certain_crashes_exhaust_retries() {
        let exec = wide_then_narrow();
        let cfg = fault_config(
            FaultPlan { task_crash_probability: 1.0, ..FaultPlan::none() },
            0,
        );
        let err = exec.run(8, &cfg).expect_err("every attempt crashes");
        match err {
            SimError::RetriesExhausted { attempts, .. } => {
                assert_eq!(attempts, RecoveryPolicy::default().max_task_retries + 1);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn preemption_revokes_slot_but_job_completes() {
        let exec = wide_then_narrow();
        let mut fired = false;
        for seed in 0..20 {
            let cfg = fault_config(
                FaultPlan {
                    preemption_probability: 0.1,
                    preemption_outage_secs: 30.0,
                    ..FaultPlan::none()
                },
                seed,
            );
            let r = run_ok(&exec, 8, &cfg);
            if r.faults.preemptions > 0 {
                fired = true;
                assert!(r.faults.slot_outage_secs >= 30.0);
                assert_eq!(r.faults.task_retries, r.faults.preemptions);
            }
        }
        assert!(fired, "10% preemption probability should fire within 20 seeds");
    }

    #[test]
    fn stragglers_trigger_speculation_that_wins() {
        // One stage with many short tasks and one very long task: a 20×
        // straggler multiplier pushes the victim far past the p95
        // threshold, and the speculative copy (at base duration) wins.
        let exec = wide_then_narrow();
        let plan = FaultPlan {
            straggler_probability: 0.10,
            straggler_slowdown: 20.0,
            ..FaultPlan::none()
        };
        let mut with_spec = None;
        let mut seed_used = 0;
        for seed in 0..30 {
            let r = run_ok(&exec, 16, &fault_config(plan.clone(), seed));
            if r.faults.speculative_wins > 0 {
                with_spec = Some(r);
                seed_used = seed;
                break;
            }
        }
        let with_spec = with_spec.expect("speculation should fire and win within 30 seeds");
        assert!(with_spec.faults.speculative_launches >= with_spec.faults.speculative_wins);
        assert!(with_spec.faults.straggler_tasks > 0);
        // Disabling speculation on the same seed must be slower: the
        // straggler then runs to completion at 20× duration.
        let no_spec = ExecutionConfig {
            noise_seed: seed_used,
            faults: plan,
            recovery: RecoveryPolicy { speculation: false, ..Default::default() },
            ..Default::default()
        };
        let slow = run_ok(&exec, 16, &no_spec);
        assert_eq!(slow.faults.speculative_launches, 0);
        assert!(
            slow.runtime_secs > with_spec.runtime_secs,
            "speculation should beat the straggler: {} vs {}",
            slow.runtime_secs,
            with_spec.runtime_secs
        );
    }

    #[test]
    fn queueing_bursts_delay_the_job() {
        let exec = wide_then_narrow();
        let clean = run_ok(&exec, 8, &ExecutionConfig::default());
        let cfg = fault_config(
            FaultPlan {
                queueing_burst_probability: 1.0,
                max_queueing_burst_secs: 50.0,
                ..FaultPlan::none()
            },
            3,
        );
        let r = run_ok(&exec, 8, &cfg);
        assert!(r.faults.queueing_burst_secs > 0.0);
        assert!(
            r.runtime_secs > clean.runtime_secs,
            "bursts must delay: {} vs {}",
            r.runtime_secs,
            clean.runtime_secs
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_across_seeds() {
        let exec = wide_then_narrow();
        let base = run_ok(&exec, 8, &ExecutionConfig::default());
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let cfg = ExecutionConfig { noise_seed: seed, ..Default::default() };
            let r = run_ok(&exec, 8, &cfg);
            assert_eq!(r.runtime_secs.to_bits(), base.runtime_secs.to_bits());
            assert_eq!(r.total_token_seconds.to_bits(), base.total_token_seconds.to_bits());
            assert_eq!(r.skyline, base.skyline);
            assert!(r.faults.is_clean());
        }
    }

    #[test]
    fn traced_runs_are_bit_identical_and_match_untraced() {
        let exec = wide_then_narrow();
        let cfg = ExecutionConfig::default();
        let mut t1 = ExecTrace::new();
        let mut t2 = ExecTrace::new();
        let r1 = exec.run_traced(8, &cfg, &mut t1).expect("runs");
        let r2 = exec.run_traced(8, &cfg, &mut t2).expect("runs");
        assert_eq!(t1, t2, "same-seed traces must be bit-identical");
        assert!(!t1.is_empty());
        // Tracing must not perturb the schedule.
        let plain = run_ok(&exec, 8, &cfg);
        assert_eq!(r1.runtime_secs.to_bits(), plain.runtime_secs.to_bits());
        assert_eq!(r2.skyline, plain.skyline);
    }

    #[test]
    fn faulty_traced_run_records_aborts() {
        let exec = wide_then_narrow();
        let cfg = fault_config(
            FaultPlan { task_crash_probability: 0.3, ..FaultPlan::none() },
            5,
        );
        let mut t = ExecTrace::new();
        let _ = exec.run_traced(8, &cfg, &mut t);
        let aborts = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, ExecEventKind::Aborted { .. }))
            .count();
        assert!(aborts > 0, "30% crash probability should abort something");
    }

    #[test]
    fn adversarial_preset_completes_or_fails_typed() {
        // Under the harshest preset every outcome must be either a
        // completed run (with a populated report) or a typed error —
        // never a panic, never a stall.
        let exec = wide_then_narrow();
        let mut completions = 0;
        for seed in 0..30 {
            let cfg = fault_config(FaultPlan::adversarial(), seed);
            match exec.run(8, &cfg) {
                Ok(r) => {
                    completions += 1;
                    assert!(!r.faults.is_clean(), "adversarial run should report faults");
                    assert!(r.runtime_secs.is_finite());
                }
                Err(SimError::RetriesExhausted { .. }) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(completions > 0, "some adversarial runs should recover and finish");
    }
}
