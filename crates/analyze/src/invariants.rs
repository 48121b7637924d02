//! Dynamic invariant checking: run the actual system under seeded
//! configurations and audit what it did.
//!
//! Four families of checks, all deterministic:
//!
//! * **Plan validity** — every job the workload generator emits must pass
//!   [`scope_sim::validate_job`] (acyclic DAG, operator arity,
//!   partitioning compatibility, stage-work conservation).
//! * **Scaling-curve / PCC sanity** — executing a job across a token grid
//!   must yield a (tolerance-)monotone non-increasing runtime curve, and
//!   the power-law PCC fitted to it must pass
//!   [`tasq::validate::validate_pcc`]: positive scale, non-increasing, and
//!   no more than [`tasq::validate::AMDAHL_TOLERANCE`] beyond Amdahl's
//!   linear ceiling.
//! * **Executor determinism** — two traced runs with identical seeds must
//!   produce bit-identical [`scope_sim::ExecTrace`]s, and the lowered
//!   synchronization log must replay race-free under the vector-clock
//!   checker.
//! * **Server race-freedom** — a traced [`tasq_serve::ScoringServer`] run
//!   (real threads, real channels) must produce a synchronization log the
//!   happens-before checker proves race-free, twice, with the same event
//!   count both times.

use crate::hb;
use crate::{CheckReport, Diagnostic, Severity};
use scope_sim::{
    validate_job, EventTrace, ExecTrace, ExecutionConfig, Job, WorkloadConfig, WorkloadGenerator,
};
use tasq::validate::{validate_curve, validate_pcc, CURVE_TOLERANCE};
use tasq::PowerLawPcc;

/// Seed for the audited workload; fixed so `check` is reproducible.
const WORKLOAD_SEED: u64 = 41;
/// Jobs generated for plan validation.
const WORKLOAD_JOBS: usize = 32;
/// Jobs whose scaling curves are executed and audited.
const CURVE_JOBS: usize = 4;
/// Token grid for curve measurement (powers of two).
const CURVE_GRID: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn dynamic_diag(pass: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule: pass.to_string(),
        severity: Severity::Deny,
        path: format!("dynamic/{pass}"),
        line: 0,
        col: 0,
        message,
    }
}

/// Run all dynamic passes, appending findings and counters to `report`.
pub fn run_dynamic_pass(report: &mut CheckReport) {
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: WORKLOAD_JOBS,
        seed: WORKLOAD_SEED,
        ..Default::default()
    })
    .generate();

    check_plans(&jobs, report);
    check_curves(&jobs, report);
    check_executor_determinism(&jobs, report);
    check_server_races(report);
}

/// Every generated job must validate.
fn check_plans(jobs: &[Job], report: &mut CheckReport) {
    for job in jobs {
        if let Err(err) = validate_job(job) {
            report
                .diagnostics
                .push(dynamic_diag("plan-invariants", format!("job {}: {err}", job.id)));
        }
        report.jobs_validated += 1;
    }
}

/// Measured scaling curves and their fitted PCCs must validate.
fn check_curves(jobs: &[Job], report: &mut CheckReport) {
    for job in jobs.iter().take(CURVE_JOBS) {
        let executor = job.executor();
        let config = ExecutionConfig::default();
        let mut curve: Vec<(u32, f64)> = Vec::new();
        for &tokens in &CURVE_GRID {
            match executor.run(tokens, &config) {
                Ok(result) => curve.push((tokens, result.runtime_secs)),
                Err(err) => {
                    report.diagnostics.push(dynamic_diag(
                        "curve-invariants",
                        format!("job {} failed to execute at {tokens} tokens: {err}", job.id),
                    ));
                }
            }
        }
        if let Err(violations) = validate_curve(&curve, CURVE_TOLERANCE) {
            for v in violations {
                report.diagnostics.push(dynamic_diag(
                    "curve-invariants",
                    format!("job {} measured curve: {v}", job.id),
                ));
            }
        }
        let points: Vec<(f64, f64)> =
            curve.iter().map(|&(t, r)| (f64::from(t), r)).collect();
        match PowerLawPcc::fit(&points) {
            Some(pcc) => {
                if let Err(violations) = validate_pcc(&pcc) {
                    for v in violations {
                        report.diagnostics.push(dynamic_diag(
                            "pcc-invariants",
                            format!("job {} fitted PCC: {v}", job.id),
                        ));
                    }
                }
            }
            None => report.diagnostics.push(dynamic_diag(
                "pcc-invariants",
                format!("job {}: power-law fit failed on {} points", job.id, points.len()),
            )),
        }
        report.curves_audited += 1;
    }
}

/// Same-seed traced runs must be bit-identical and race-free.
fn check_executor_determinism(jobs: &[Job], report: &mut CheckReport) {
    for job in jobs.iter().take(2) {
        let executor = job.executor();
        let config = ExecutionConfig::default();
        let mut first = ExecTrace::new();
        let mut second = ExecTrace::new();
        let run_a = executor.run_traced(16, &config, &mut first);
        let run_b = executor.run_traced(16, &config, &mut second);
        if run_a.is_err() || run_b.is_err() {
            report.diagnostics.push(dynamic_diag(
                "determinism",
                format!("job {}: traced execution failed", job.id),
            ));
            continue;
        }
        if first != second {
            report.diagnostics.push(dynamic_diag(
                "determinism",
                format!(
                    "job {}: same-seed runs diverged ({} vs {} events)",
                    job.id,
                    first.len(),
                    second.len()
                ),
            ));
        }
        let log = first.sync_log();
        report.hb_events += log.len();
        match hb::check_log(&log) {
            Ok(races) => {
                for race in races.iter().take(3) {
                    report.diagnostics.push(dynamic_diag(
                        "happens-before",
                        format!(
                            "job {}: unsynchronized access to resource {:#x}: {:?} then {:?}",
                            job.id, race.resource, race.first, race.second
                        ),
                    ));
                }
            }
            Err(err) => report
                .diagnostics
                .push(dynamic_diag("happens-before", format!("job {}: {err}", job.id))),
        }
    }
}

/// A real traced server run must be race-free, twice over.
fn check_server_races(report: &mut CheckReport) {
    let mut event_counts = Vec::new();
    for _run in 0..2 {
        match traced_server_log(12, 43) {
            Ok(log) => {
                event_counts.push(log.len());
                report.hb_events += log.len();
                match hb::check_log(&log) {
                    Ok(races) => {
                        for race in races.iter().take(3) {
                            report.diagnostics.push(dynamic_diag(
                                "happens-before",
                                format!(
                                    "server: unsynchronized access to resource {:#x}: \
                                     {:?} then {:?}",
                                    race.resource, race.first, race.second
                                ),
                            ));
                        }
                    }
                    Err(err) => report
                        .diagnostics
                        .push(dynamic_diag("happens-before", format!("server: {err}"))),
                }
            }
            Err(message) => {
                report.diagnostics.push(dynamic_diag("happens-before", message));
            }
        }
    }
    if event_counts.len() == 2 && event_counts[0] != event_counts[1] {
        report.diagnostics.push(dynamic_diag(
            "determinism",
            format!(
                "server: same-seed runs recorded different event counts \
                 ({} vs {})",
                event_counts[0], event_counts[1]
            ),
        ));
    }
}

/// Start a traced scoring server over an analytic registry, pump
/// `requests` jobs through it, and return the synchronization log.
fn traced_server_log(requests: usize, seed: u64) -> Result<scope_sim::EventLog, String> {
    use tasq::models::{NnTrainConfig, XgbTrainConfig};
    use tasq::pipeline::{
        JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig, TasqPipeline,
    };
    use tasq_serve::{CacheConfig, ModelRegistry, ScoringServer, ServeConfig, Ticket};

    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: requests,
        seed,
        ..Default::default()
    })
    .generate();
    let repo = JobRepository::new();
    repo.ingest(jobs.clone());
    let store = ModelStore::new();
    TasqPipeline::new(PipelineConfig {
        xgb: XgbTrainConfig { num_rounds: 10, ..Default::default() },
        nn: NnTrainConfig { epochs: 4, ..Default::default() },
        ..Default::default()
    })
    .train(&repo, &store)
    .map_err(|e| format!("server audit: pipeline training failed: {e}"))?;
    let registry = ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
        .map_err(|e| format!("server audit: registry deploy failed: {e}"))?;

    let trace = EventTrace::new();
    let server = ScoringServer::start(
        std::sync::Arc::new(registry),
        ServeConfig {
            workers: 2,
            cache: CacheConfig { enabled: false, ..Default::default() },
            trace: Some(trace.clone()),
            ..Default::default()
        },
    );
    let tickets: Vec<Ticket> = jobs
        .into_iter()
        .filter_map(|job| server.submit(job).ok())
        .collect();
    for ticket in tickets {
        let _ = ticket.outcome();
    }
    server.shutdown();
    Ok(trace.snapshot())
}
