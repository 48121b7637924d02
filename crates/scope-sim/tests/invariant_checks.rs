//! Semantic invariants of the simulator, checked on what it actually
//! does: generated plans and stage graphs validate (malformed ones are
//! rejected with *typed* violations), same-seed executor runs are
//! bit-identical, and every executor trace follows its job's stage DAG.

use scope_sim::trace::ExecEventKind;
use scope_sim::{
    validate_job, validate_plan, validate_stage_graph, ExecTrace, ExecutionConfig, FaultPlan, Job,
    PlanViolation, StageGraph, StageViolation, WorkloadConfig, WorkloadGenerator,
};

/// Seed and size of the audited workload.
const WORKLOAD_SEED: u64 = 41;
const WORKLOAD_JOBS: usize = 32;
/// Token grants every job is traced at.
const GRANTS: [u32; 4] = [1, 4, 16, 64];

fn workload(num_jobs: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig { num_jobs, seed, ..Default::default() }).generate()
}

fn generated_job(seed: u64) -> Job {
    workload(1, seed).remove(0)
}

/// Every way `trace` departs from `graph`'s dependency order, one line
/// each (empty when the trace is a valid execution of the DAG).
///
/// Task uids are handed out in dispatch order, so stage `s`'s dispatch
/// of `k` tasks owns the next `k` uids.
fn dag_violations(graph: &StageGraph, trace: &ExecTrace) -> Vec<String> {
    let n = graph.num_stages();
    let mut out = Vec::new();
    let mut dispatched = vec![false; n];
    let mut completed = vec![false; n];
    let mut finished_in_stage = vec![0usize; n];
    // Per uid: its stage, its open placements, and whether it finished.
    let mut uid_stage: Vec<usize> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut finished: Vec<bool> = Vec::new();
    let mut last = f64::NEG_INFINITY;
    for (i, event) in trace.events.iter().enumerate() {
        let now = event.time();
        if now < last {
            out.push(format!("event {i}: time went back from {last} to {now}"));
        }
        last = last.max(now);
        let owns = |uid: usize, stage: usize| uid_stage.get(uid) == Some(&stage);
        match event.kind {
            ExecEventKind::StageDispatched { stage, tasks } => {
                if dispatched[stage] {
                    out.push(format!("event {i}: stage {stage} dispatched twice"));
                }
                dispatched[stage] = true;
                let width = graph.stages[stage].width();
                if tasks != width {
                    out.push(format!("event {i}: stage {stage} dispatched {tasks} of {width} tasks"));
                }
                for &dep in graph.deps[stage].iter().filter(|&&d| !completed[d]) {
                    out.push(format!("event {i}: stage {stage} dispatched before its dep {dep}"));
                }
                uid_stage.resize(uid_stage.len() + tasks, stage);
                open.resize(uid_stage.len(), 0);
                finished.resize(uid_stage.len(), false);
            }
            ExecEventKind::Placed { uid, stage, .. } => {
                if !owns(uid, stage) || completed[stage] {
                    out.push(format!("event {i}: uid {uid} placed outside stage {stage}'s window"));
                } else {
                    open[uid] += 1;
                }
            }
            ExecEventKind::Finished { uid, stage } => {
                if !owns(uid, stage) || open[uid] == 0 {
                    out.push(format!("event {i}: uid {uid} finished with no open placement"));
                    continue;
                }
                if finished[uid] {
                    out.push(format!("event {i}: uid {uid} finished twice"));
                }
                finished[uid] = true;
                finished_in_stage[stage] += 1;
                // The first finisher wins; the other copies are cancelled.
                open[uid] = 0;
            }
            ExecEventKind::Aborted { uid, stage, .. } => {
                if !owns(uid, stage) || open[uid] == 0 {
                    out.push(format!("event {i}: uid {uid} aborted with no open placement"));
                } else {
                    open[uid] -= 1;
                }
            }
            ExecEventKind::StageCompleted { stage } => {
                if completed[stage] {
                    out.push(format!("event {i}: stage {stage} completed twice"));
                }
                let width = graph.stages[stage].width();
                if finished_in_stage[stage] != width {
                    out.push(format!(
                        "event {i}: stage {stage} completed with {} of {width} tasks finished",
                        finished_in_stage[stage]
                    ));
                }
                // A zero-width stage completes without a dispatch, but
                // still only once its deps have.
                if width == 0 {
                    for &dep in graph.deps[stage].iter().filter(|&&d| !completed[d]) {
                        out.push(format!("event {i}: stage {stage} completed before its dep {dep}"));
                    }
                } else if !dispatched[stage] {
                    out.push(format!("event {i}: stage {stage} completed without a dispatch"));
                }
                completed[stage] = true;
            }
            ExecEventKind::SlotRestored | ExecEventKind::CopyLaunched { .. } => {}
        }
    }
    for stage in (0..n).filter(|&s| !completed[s]) {
        out.push(format!("stage {stage} never completed"));
    }
    out
}

#[test]
fn every_generated_job_validates() {
    for job in workload(WORKLOAD_JOBS, WORKLOAD_SEED) {
        assert_eq!(validate_job(&job), Ok(()), "job {}", job.id);
    }
}

#[test]
fn cyclic_dag_is_rejected_with_a_typed_violation() {
    let mut job = generated_job(7);
    // Close a loop behind `JobPlan::new`'s back, as a corrupted workload
    // file would.
    let n = job.plan.operators.len();
    job.plan.edges.push((n - 1, 0));
    let err = validate_job(&job).expect_err("cycle must be rejected");
    assert!(err.plan.contains(&PlanViolation::Cycle), "{err:?}");
    assert!(validate_plan(&job.plan).is_err());
}

#[test]
fn token_conservation_violations_are_typed() {
    let job = generated_job(9);
    let mut graph = StageGraph::from_plan(&job.plan, job.seed);
    graph.stages[0].task_durations[0] += 25.0; // leak 25 token-seconds
    let errs = validate_stage_graph(&job.plan, &graph).expect_err("leak must be rejected");
    assert!(
        errs.iter().any(|v| matches!(v, StageViolation::WorkNotConserved { stage: 0, .. })),
        "{errs:?}"
    );
}

/// Same-seed traced runs are bit-identical, and neither lets a stage
/// start on its inputs before every producer stage has completed (the
/// one race a DAG executor can have).
#[test]
fn same_seed_executor_runs_are_deterministic_and_race_free() {
    let runs = workload(2, WORKLOAD_SEED).into_iter().map(|job| (job, 16));
    for (job, tokens) in runs.chain([(generated_job(21), 8)]) {
        let executor = job.executor();
        let config = ExecutionConfig::default();
        let mut first = ExecTrace::new();
        let mut second = ExecTrace::new();
        executor.run_traced(tokens, &config, &mut first).expect("runs");
        executor.run_traced(tokens, &config, &mut second).expect("runs");
        assert_eq!(first, second, "job {}: same-seed traces must be bit-identical", job.id);
        assert!(!first.is_empty());
        assert_eq!(dag_violations(executor.graph(), &first), Vec::<String>::new());
    }
}

#[test]
fn executor_traces_follow_the_stage_dag_under_every_fault_preset() {
    let jobs = workload(WORKLOAD_JOBS, WORKLOAD_SEED);
    let (mut runs, mut events) = (0usize, 0usize);
    for name in FaultPlan::PRESET_NAMES {
        let faults = FaultPlan::from_name(name).expect("preset");
        for job in &jobs {
            let executor = job.executor();
            let config =
                ExecutionConfig { noise_seed: job.seed, faults: faults.clone(), ..Default::default() };
            for tokens in GRANTS {
                let mut trace = ExecTrace::new();
                // A run that exhausts its retry budget ends in a typed
                // error with a partial trace; only finished runs must
                // complete every stage.
                if executor.run_traced(tokens, &config, &mut trace).is_err() {
                    continue;
                }
                let violations = dag_violations(executor.graph(), &trace);
                assert!(
                    violations.is_empty(),
                    "job {} at {tokens} tokens under `{name}`: {violations:#?}",
                    job.id
                );
                runs += 1;
                events += trace.len();
            }
        }
    }
    // Most runs survive even the adversarial preset; a check that saw
    // none would prove nothing.
    let planned = FaultPlan::PRESET_NAMES.len() * WORKLOAD_JOBS * GRANTS.len();
    assert!(runs * 10 >= planned * 9, "only {runs} of {planned} runs finished");
    assert!(events > runs, "{events} events over {runs} runs");
}

/// Mutation test of the checker itself: a trace that releases a stage's
/// dependents one task early, or loses a placement, must not pass.
#[test]
fn early_completion_and_lost_placements_are_flagged() {
    let job = workload(WORKLOAD_JOBS, WORKLOAD_SEED)
        .into_iter()
        .find(|job| {
            let executor = job.executor();
            let graph = executor.graph();
            graph.deps.iter().any(|deps| !deps.is_empty())
                && graph.stages.iter().all(|s| s.width() > 1)
        })
        .expect("a multi-stage job");
    let executor = job.executor();
    let mut trace = ExecTrace::new();
    executor.run_traced(4, &ExecutionConfig::default(), &mut trace).expect("runs");
    assert_eq!(dag_violations(executor.graph(), &trace), Vec::<String>::new());

    // Move a stage's completion to just before its last task finishes.
    let (completion, stage) = trace
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e.kind {
            ExecEventKind::StageCompleted { stage } => Some((i, stage)),
            _ => None,
        })
        .expect("a stage completes");
    let last_finish = trace.events[..completion]
        .iter()
        .rposition(|e| matches!(e.kind, ExecEventKind::Finished { stage: s, .. } if s == stage))
        .expect("the stage's tasks finish first");
    let mut early = trace.clone();
    let moved = early.events.remove(completion);
    early.events.insert(last_finish, moved);
    let violations = dag_violations(executor.graph(), &early);
    assert!(
        violations.iter().any(|v| v.contains(&format!("stage {stage} completed with"))),
        "{violations:#?}"
    );

    // Drop the first placement: its finish has nothing to close.
    let mut lost = trace.clone();
    let placed = lost
        .events
        .iter()
        .position(|e| matches!(e.kind, ExecEventKind::Placed { .. }))
        .expect("a task is placed");
    lost.events.remove(placed);
    let violations = dag_violations(executor.graph(), &lost);
    assert!(violations.iter().any(|v| v.contains("no open placement")), "{violations:#?}");
}
