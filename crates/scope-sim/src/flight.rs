//! The flighting harness: re-execute jobs at multiple token counts.
//!
//! Mirrors the paper's Section 5.1 methodology: each selected job is re-run
//! at 100%, 80%, 60% and 20% of its reference token count; each unique
//! flight is run multiple times for redundancy; anomalous jobs (isolated
//! flights, runs violating run-time monotonicity beyond tolerance, runs
//! dominated by fault churn) are filtered out.
//!
//! When a fault plan is active, a flight whose execution dies with a
//! [`SimError`] is retried up to [`FlightConfig::max_flight_retries`]
//! times with a perturbed seed (a re-submission on the shared cluster);
//! a job whose flight still fails after the retry budget is dropped —
//! [`flight_job`] returns the final error.

use crate::exec::{ExecScratch, ExecutionConfig, ExecutionResult, Executor, NoiseModel};
use crate::faults::{FaultPlan, RecoveryPolicy, SimError};
use crate::generator::Job;
use crate::obs::metrics;
use tasq_obs::{FieldValue, Level};
use tasq_par::Pool;

/// Open the per-flight trace span shared by the sequential harness and
/// both parallel fan-outs.
fn flight_span(job_id: u64, alloc: u32, rep: u32) -> tasq_obs::SpanGuard {
    tasq_obs::span(
        Level::Trace,
        "flight",
        &[
            ("job", FieldValue::U64(job_id)),
            ("alloc", FieldValue::U64(alloc as u64)),
            ("rep", FieldValue::U64(rep as u64)),
        ],
    )
}

/// The paper's standard flighting fractions of the reference token count.
pub const STANDARD_FRACTIONS: [f64; 4] = [1.0, 0.8, 0.6, 0.2];

/// One flight: a single run of a job at a specific allocation.
#[derive(Debug, Clone)]
pub struct Flight {
    /// The flighted job's id.
    pub job_id: u64,
    /// Tokens allocated for this flight.
    pub allocation: u32,
    /// Repetition index (the paper runs each unique flight thrice).
    pub repetition: u32,
    /// Measured run time in seconds.
    pub runtime_secs: f64,
    /// Area under the skyline (token-seconds).
    pub token_seconds: f64,
    /// Peak token usage.
    pub peak_tokens: f64,
}

/// All flights of one job, with its full-allocation skylines retained for
/// AREPAS validation.
#[derive(Debug, Clone)]
pub struct FlightedJob {
    /// The job that was flighted.
    pub job: Job,
    /// Reference (100%) allocation used to derive the fractions.
    pub reference_tokens: u32,
    /// All flight records, grouped by allocation then repetition.
    pub flights: Vec<Flight>,
    /// One full execution result per unique allocation (first repetition),
    /// including the skyline.
    pub executions: Vec<ExecutionResult>,
}

impl FlightedJob {
    /// Mean run time per unique allocation, sorted by descending
    /// allocation: `(allocation, mean_runtime)`.
    ///
    /// Single pass over the flight records: run times are accumulated
    /// into one small `(allocation, sum, count)` table instead of
    /// collecting and re-scanning the flight vector once per unique
    /// allocation (this method sits inside the anomaly filter's per-job
    /// hot loop). Per-allocation sums run in flight order, so the means
    /// are bit-identical to the old collect-then-average formulation.
    pub fn mean_runtimes(&self) -> Vec<(u32, f64)> {
        let mut acc: Vec<(u32, f64, u32)> = Vec::new();
        for f in &self.flights {
            match acc.iter_mut().find(|(a, _, _)| *a == f.allocation) {
                Some((_, sum, n)) => {
                    *sum += f.runtime_secs;
                    *n += 1;
                }
                None => acc.push((f.allocation, f.runtime_secs, 1)),
            }
        }
        acc.sort_unstable_by_key(|entry| std::cmp::Reverse(entry.0));
        acc.into_iter().map(|(a, sum, n)| (a, sum / n as f64)).collect()
    }

    /// Whether run time monotonically non-increases with tokens, within a
    /// relative tolerance (the paper uses 10% to absorb environmental
    /// noise). Checked over per-allocation mean run times.
    pub fn is_monotonic(&self, tolerance: f64) -> bool {
        let curve = self.mean_runtimes(); // descending allocation
        // Descending allocation => run times should be non-decreasing.
        curve.windows(2).all(|w| w[1].1 >= w[0].1 * (1.0 - tolerance))
    }

    /// Worst slowdown caused by *adding* resources, relative to the
    /// minimum run time (the paper reports an average 14% for violators).
    pub fn monotonicity_violation_slowdown(&self) -> f64 {
        let curve = self.mean_runtimes();
        let min_rt = curve.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        let mut worst: f64 = 0.0;
        for w in curve.windows(2) {
            // w[0] has more tokens than w[1]; a violation is w[0] slower.
            if w[0].1 > w[1].1 {
                worst = worst.max(w[0].1 / min_rt - 1.0);
            }
        }
        worst
    }
}

/// Flighting configuration.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Fractions of the reference allocation to flight at.
    pub fractions: Vec<f64>,
    /// Repetitions per unique flight.
    pub repetitions: u32,
    /// Execution noise (the paper's flights run on a shared production
    /// cluster; deterministic noise-free flights are available for AREPAS
    /// unit validation).
    pub noise: NoiseModel,
    /// Base seed; each (job, allocation, repetition) derives its own.
    pub seed: u64,
    /// Fault plan applied to each flight ([`FaultPlan::none`] disables).
    pub faults: FaultPlan,
    /// In-flight recovery behaviour (retries, backoff, speculation).
    pub recovery: RecoveryPolicy,
    /// How many times a flight that fails with a [`SimError`] is
    /// re-submitted (with a perturbed seed) before the job is dropped.
    pub max_flight_retries: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            fractions: STANDARD_FRACTIONS.to_vec(),
            repetitions: 3,
            noise: NoiseModel::none(),
            seed: 0,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            max_flight_retries: 2,
        }
    }
}

/// Run one flight, re-submitting with a perturbed seed on failure. The
/// caller's scratch is reused across the re-submissions (and, on the
/// flighting hot path, across every flight of a job).
fn run_with_retries(
    executor: &Executor,
    alloc: u32,
    base_seed: u64,
    config: &FlightConfig,
    scratch: &mut ExecScratch,
) -> Result<ExecutionResult, SimError> {
    let mut attempt: u64 = 0;
    loop {
        let exec_config = ExecutionConfig {
            noise: config.noise.clone(),
            noise_seed: base_seed.wrapping_add(attempt.wrapping_mul(0x5851_F42D_4C95_7F2D)),
            faults: config.faults.clone(),
            recovery: config.recovery.clone(),
        };
        match executor.run_with_scratch(alloc, &exec_config, scratch) {
            Ok(result) => {
                metrics().flights.inc();
                return Ok(result);
            }
            Err(_) if attempt < config.max_flight_retries as u64 => {
                attempt += 1;
                metrics().flight_retries.inc();
                tasq_obs::event(
                    Level::Warn,
                    "flight_retry",
                    &[
                        ("alloc", FieldValue::U64(alloc as u64)),
                        ("attempt", FieldValue::U64(attempt)),
                    ],
                );
            }
            Err(err) => return Err(err),
        }
    }
}

/// The unique allocations a job is flighted at, in fraction order.
fn flight_allocations(reference_tokens: u32, config: &FlightConfig) -> Vec<u32> {
    let mut allocations: Vec<u32> = config
        .fractions
        .iter()
        .map(|f| ((reference_tokens as f64 * f).round() as u32).max(1))
        .collect();
    allocations.dedup();
    allocations
}

/// The per-(job, allocation, repetition) seed every flight derives its
/// noise and fault randomness from. Seeds depend only on these three
/// coordinates, never on execution order — which is what lets the
/// parallel fan-out reproduce the sequential harness bit for bit.
fn flight_seed(config: &FlightConfig, job_id: u64, alloc: u32, rep: u32) -> u64 {
    config
        .seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(job_id)
        .wrapping_mul(31)
        .wrapping_add(alloc as u64)
        .wrapping_mul(17)
        .wrapping_add(rep as u64)
}

/// Assemble a [`FlightedJob`] from per-(allocation, repetition) results
/// delivered in sequential order, surfacing the first error in that
/// order (exactly what the sequential loop would have hit first).
fn assemble_flighted_job(
    job: &Job,
    reference_tokens: u32,
    tasks: &[(u32, u32)],
    results: impl IntoIterator<Item = Result<ExecutionResult, SimError>>,
) -> Result<FlightedJob, SimError> {
    let mut flights = Vec::with_capacity(tasks.len());
    let mut executions = Vec::new();
    for (&(alloc, rep), result) in tasks.iter().zip(results) {
        let result = result?;
        flights.push(Flight {
            job_id: job.id,
            allocation: alloc,
            repetition: rep,
            runtime_secs: result.runtime_secs,
            token_seconds: result.total_token_seconds,
            peak_tokens: result.skyline.peak(),
        });
        if rep == 0 {
            executions.push(result);
        }
    }
    Ok(FlightedJob { job: job.clone(), reference_tokens, flights, executions })
}

/// Flight one job at every configured fraction of `reference_tokens`.
///
/// Returns an error when `reference_tokens` is zero or when some flight
/// keeps failing after [`FlightConfig::max_flight_retries`]
/// re-submissions — the caller should drop the job from the dataset, as
/// the paper drops jobs with failed flights.
pub fn flight_job(
    job: &Job,
    reference_tokens: u32,
    config: &FlightConfig,
) -> Result<FlightedJob, SimError> {
    if reference_tokens == 0 {
        return Err(SimError::InvalidAllocation { allocation: 0 });
    }
    let executor = job.executor();
    let allocations = flight_allocations(reference_tokens, config);
    let reps = config.repetitions.max(1);

    // One scratch serves every (allocation × repetition) run of the job:
    // the executor's working buffers are allocated once and reused.
    let mut scratch = ExecScratch::default();
    let mut flights = Vec::with_capacity(allocations.len() * reps as usize);
    let mut executions = Vec::with_capacity(allocations.len());
    for &alloc in &allocations {
        for rep in 0..reps {
            let _span = flight_span(job.id, alloc, rep);
            let base_seed = flight_seed(config, job.id, alloc, rep);
            let result = run_with_retries(&executor, alloc, base_seed, config, &mut scratch)?;
            flights.push(Flight {
                job_id: job.id,
                allocation: alloc,
                repetition: rep,
                runtime_secs: result.runtime_secs,
                token_seconds: result.total_token_seconds,
                peak_tokens: result.skyline.peak(),
            });
            if rep == 0 {
                executions.push(result);
            }
        }
    }
    Ok(FlightedJob { job: job.clone(), reference_tokens, flights, executions })
}

/// [`flight_job`] with the (allocation × repetition) grid fanned out
/// over a [`Pool`]. Every flight's seed is a pure function of its (job,
/// allocation, repetition) coordinates, so the result — including which
/// error surfaces when flights fail — is bit-identical to the
/// sequential harness at any thread count.
pub fn flight_job_with_pool(
    job: &Job,
    reference_tokens: u32,
    config: &FlightConfig,
    pool: &Pool,
) -> Result<FlightedJob, SimError> {
    if pool.threads() <= 1 {
        // The sequential path also shares one executor scratch across
        // all runs, which the inline closure below cannot.
        return flight_job(job, reference_tokens, config);
    }
    if reference_tokens == 0 {
        return Err(SimError::InvalidAllocation { allocation: 0 });
    }
    let executor = job.executor();
    let allocations = flight_allocations(reference_tokens, config);
    let reps = config.repetitions.max(1);
    let tasks: Vec<(u32, u32)> = allocations
        .iter()
        .flat_map(|&alloc| (0..reps).map(move |rep| (alloc, rep)))
        .collect();
    let results = pool
        .par_map(&tasks, |_, &(alloc, rep)| {
            let _span = flight_span(job.id, alloc, rep);
            let mut scratch = ExecScratch::default();
            let base_seed = flight_seed(config, job.id, alloc, rep);
            run_with_retries(&executor, alloc, base_seed, config, &mut scratch)
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.to_string())));
    assemble_flighted_job(job, reference_tokens, &tasks, results)
}

/// The flat (job index, allocation, repetition) grid a workload flight
/// fans out, in sequential order. This is the checkpointable unit of the
/// flighting phase: each cell's seed is a pure function of its
/// coordinates (see [`flight_cell_seed`]), so any completed prefix of
/// this list can be persisted and the remainder replayed later with
/// bit-identical results.
pub fn flight_tasks(
    jobs: &[Job],
    reference_tokens: &[u32],
    config: &FlightConfig,
) -> Vec<(usize, u32, u32)> {
    let reps = config.repetitions.max(1);
    jobs.iter()
        .enumerate()
        .flat_map(|(i, _)| {
            let tokens = reference_tokens.get(i).copied().unwrap_or(0);
            let allocs =
                if tokens == 0 { Vec::new() } else { flight_allocations(tokens, config) };
            allocs
                .into_iter()
                .flat_map(move |alloc| (0..reps).map(move |rep| (i, alloc, rep)))
        })
        .collect()
}

/// The base seed of one grid cell (exactly what the sequential harness
/// and both fan-outs use).
pub fn flight_cell_seed(config: &FlightConfig, job_id: u64, alloc: u32, rep: u32) -> u64 {
    flight_seed(config, job_id, alloc, rep)
}

/// Run one cell of the flighting grid, with the harness's usual span,
/// seed discipline, and failed-flight re-submission.
pub fn run_flight_cell(
    job: &Job,
    executor: &Executor,
    alloc: u32,
    rep: u32,
    config: &FlightConfig,
    scratch: &mut ExecScratch,
) -> Result<ExecutionResult, SimError> {
    let _span = flight_span(job.id, alloc, rep);
    let base_seed = flight_seed(config, job.id, alloc, rep);
    run_with_retries(executor, alloc, base_seed, config, scratch)
}

/// Regroup flat per-cell results (in [`flight_tasks`] order) into one
/// [`FlightedJob`] per job, preserving the sequential harness's
/// semantics: jobs with a zero reference get the typed error, and the
/// first cell error within a job surfaces in sequential order.
pub fn assemble_workload(
    jobs: &[Job],
    reference_tokens: &[u32],
    config: &FlightConfig,
    results: impl IntoIterator<Item = Result<ExecutionResult, SimError>>,
) -> Vec<Result<FlightedJob, SimError>> {
    let reps = config.repetitions.max(1);
    let mut results = results.into_iter();
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let tokens = reference_tokens.get(i).copied().unwrap_or(0);
            if tokens == 0 {
                return Err(SimError::InvalidAllocation { allocation: 0 });
            }
            let job_tasks: Vec<(u32, u32)> = flight_allocations(tokens, config)
                .iter()
                .flat_map(|&alloc| (0..reps).map(move |rep| (alloc, rep)))
                .collect();
            let job_results: Vec<Result<ExecutionResult, SimError>> =
                results.by_ref().take(job_tasks.len()).collect();
            assemble_flighted_job(job, tokens, &job_tasks, job_results)
        })
        .collect()
}

/// Flight a whole workload: every (job × allocation × repetition) cell
/// becomes one task in a single flat fan-out over `pool`, so small jobs
/// cannot leave workers idle while a large job finishes. Returns one
/// result per job, in job order; each entry equals what
/// [`flight_job`] would have produced for that job (`reference_tokens`
/// pairs up with `jobs` index-wise).
pub fn flight_workload(
    jobs: &[Job],
    reference_tokens: &[u32],
    config: &FlightConfig,
    pool: &Pool,
) -> Vec<Result<FlightedJob, SimError>> {
    debug_assert_eq!(jobs.len(), reference_tokens.len());
    let executors: Vec<Executor> = jobs.iter().map(|j| j.executor()).collect();
    let tasks = flight_tasks(jobs, reference_tokens, config);
    let results = pool
        .par_map(&tasks, |_, &(job_idx, alloc, rep)| {
            let mut scratch = ExecScratch::default();
            run_flight_cell(
                &jobs[job_idx],
                &executors[job_idx],
                alloc,
                rep,
                config,
                &mut scratch,
            )
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.to_string())));
    assemble_workload(jobs, reference_tokens, config, results)
}

/// Fraction of a run's token-seconds that may be fault churn (crashed
/// attempts, lost speculation races) before the measurement is treated
/// as anomalous.
const MAX_WASTE_FRACTION: f64 = 0.25;

/// Filters from Section 5.1: keep only non-anomalous flighted jobs.
///
/// A job passes when it (1) has at least two successful unique flights,
/// (2) never used more tokens than allocated, (3) is run-time-monotonic
/// within `tolerance`, and (4) no retained execution lost more than
/// [`MAX_WASTE_FRACTION`] of its token-seconds to fault churn (a run
/// dominated by crashes and re-runs measures the cluster's bad day, not
/// the job's PCC).
pub fn filter_non_anomalous(jobs: Vec<FlightedJob>, tolerance: f64) -> Vec<FlightedJob> {
    let before = jobs.len();
    let kept: Vec<FlightedJob> = jobs
        .into_iter()
        .filter(|fj| {
            // `executions` holds exactly one retained result per unique
            // allocation (the flighting harness pushes the first
            // repetition of each), so its length is the unique-flight
            // count — no need to collect, sort, and dedup the full
            // flight vector per job.
            let enough_flights = fj.executions.len() >= 2;
            let within_allocation = fj
                .flights
                .iter()
                .all(|f| f.peak_tokens <= f.allocation as f64 + 1e-9);
            let low_churn = fj.executions.iter().all(|e| {
                e.faults.wasted_token_seconds <= e.total_token_seconds * MAX_WASTE_FRACTION
            });
            enough_flights && within_allocation && low_churn && fj.is_monotonic(tolerance)
        })
        .collect();
    let dropped = (before - kept.len()) as u64;
    if dropped > 0 {
        metrics().anomalous_jobs.add(dropped);
        tasq_obs::event(
            Level::Warn,
            "anomalous_jobs_dropped",
            &[
                ("dropped", FieldValue::U64(dropped)),
                ("kept", FieldValue::U64(kept.len() as u64)),
            ],
        );
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn one_job() -> Job {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: 1, seed: 21, ..Default::default() })
            .generate()
            .remove(0)
    }

    fn flight_ok(job: &Job, tokens: u32, config: &FlightConfig) -> FlightedJob {
        flight_job(job, tokens, config).expect("flighting should succeed")
    }

    #[test]
    fn flights_every_fraction_with_reps() {
        let job = one_job();
        let config = FlightConfig::default();
        let fj = flight_ok(&job, 100, &config);
        // 4 fractions x 3 reps
        assert_eq!(fj.flights.len(), 12);
        assert_eq!(fj.executions.len(), 4);
        let allocs: Vec<u32> = fj.executions.iter().map(|e| e.allocation).collect();
        assert_eq!(allocs, vec![100, 80, 60, 20]);
    }

    #[test]
    fn deterministic_flights_are_monotonic() {
        let job = one_job();
        let fj = flight_ok(&job, job.requested_tokens.max(4), &FlightConfig::default());
        assert!(fj.is_monotonic(0.0), "{:?}", fj.mean_runtimes());
        assert_eq!(fj.monotonicity_violation_slowdown(), 0.0);
    }

    #[test]
    fn mean_runtimes_sorted_descending_allocation() {
        let job = one_job();
        let fj = flight_ok(&job, 50, &FlightConfig::default());
        let curve = fj.mean_runtimes();
        for w in curve.windows(2) {
            assert!(w[0].0 > w[1].0);
        }
    }

    #[test]
    fn noise_free_reps_are_identical() {
        let job = one_job();
        let fj = flight_ok(&job, 40, &FlightConfig::default());
        for alloc in [40u32, 32, 24, 8] {
            let times: Vec<f64> = fj
                .flights
                .iter()
                .filter(|f| f.allocation == alloc)
                .map(|f| f.runtime_secs)
                .collect();
            assert!(times.windows(2).all(|w| w[0] == w[1]), "{alloc}: {times:?}");
        }
    }

    #[test]
    fn filter_keeps_clean_jobs() {
        let jobs: Vec<Job> =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: 5, seed: 33, ..Default::default() })
                .generate();
        let flighted: Vec<FlightedJob> = jobs
            .iter()
            .map(|j| flight_ok(j, j.requested_tokens.max(5), &FlightConfig::default()))
            .collect();
        let kept = filter_non_anomalous(flighted, 0.1);
        assert_eq!(kept.len(), 5, "deterministic flights should all pass");
    }

    #[test]
    fn filter_drops_single_flight_jobs() {
        let job = one_job();
        let config = FlightConfig { fractions: vec![1.0], ..Default::default() };
        let fj = flight_ok(&job, 30, &config);
        let kept = filter_non_anomalous(vec![fj], 0.1);
        assert!(kept.is_empty());
    }

    #[test]
    fn parallel_flighting_bit_identical_to_sequential() {
        // The fan-out over (allocation × repetition) must reproduce the
        // sequential harness exactly — runtimes, token-seconds, retained
        // skylines — at any thread count, including under noise.
        let job = one_job();
        let config = FlightConfig {
            noise: NoiseModel::production(),
            seed: 11,
            ..Default::default()
        };
        let sequential = flight_ok(&job, 64, &config);
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads);
            let parallel = flight_job_with_pool(&job, 64, &config, &pool)
                .expect("parallel flighting should succeed");
            assert_eq!(sequential.flights.len(), parallel.flights.len());
            for (s, p) in sequential.flights.iter().zip(&parallel.flights) {
                assert_eq!(s.allocation, p.allocation);
                assert_eq!(s.repetition, p.repetition);
                assert_eq!(s.runtime_secs.to_bits(), p.runtime_secs.to_bits());
                assert_eq!(s.token_seconds.to_bits(), p.token_seconds.to_bits());
                assert_eq!(s.peak_tokens.to_bits(), p.peak_tokens.to_bits());
            }
            assert_eq!(sequential.executions.len(), parallel.executions.len());
            for (s, p) in sequential.executions.iter().zip(&parallel.executions) {
                assert_eq!(s.skyline, p.skyline);
                assert_eq!(s.allocation, p.allocation);
            }
        }
    }

    #[test]
    fn flight_workload_matches_per_job_flighting() {
        let jobs: Vec<Job> =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: 4, seed: 47, ..Default::default() })
                .generate();
        let refs: Vec<u32> = jobs.iter().map(|j| j.requested_tokens.max(6)).collect();
        let config = FlightConfig { noise: NoiseModel::mild(), seed: 3, ..Default::default() };
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let batch = flight_workload(&jobs, &refs, &config, &pool);
            assert_eq!(batch.len(), jobs.len());
            for ((job, &tokens), result) in jobs.iter().zip(&refs).zip(batch) {
                let expected = flight_ok(job, tokens, &config);
                let got = result.expect("workload flighting should succeed");
                assert_eq!(expected.flights.len(), got.flights.len());
                for (s, p) in expected.flights.iter().zip(&got.flights) {
                    assert_eq!(s.runtime_secs.to_bits(), p.runtime_secs.to_bits());
                }
            }
        }
        // A zero reference propagates the same typed error the
        // sequential harness returns, without disturbing its neighbors.
        let bad_refs: Vec<u32> = refs.iter().enumerate().map(|(i, &r)| if i == 1 { 0 } else { r }).collect();
        let batch = flight_workload(&jobs, &bad_refs, &config, &Pool::new(2));
        assert!(matches!(batch[1], Err(SimError::InvalidAllocation { allocation: 0 })));
        assert!(batch[0].is_ok() && batch[2].is_ok() && batch[3].is_ok());
    }

    #[test]
    fn noisy_flights_reproduce_with_same_seed() {
        let job = one_job();
        let config = FlightConfig { noise: NoiseModel::mild(), seed: 5, ..Default::default() };
        let a = flight_ok(&job, 60, &config);
        let b = flight_ok(&job, 60, &config);
        for (x, y) in a.flights.iter().zip(&b.flights) {
            assert_eq!(x.runtime_secs, y.runtime_secs);
        }
    }
}
