//! Crash-consistent, resumable offline training.
//!
//! `train --checkpoint-dir <dir>` runs the offline pipeline (flight →
//! featurize → GBDT → NN) through this engine instead of the
//! uninterruptible [`tasq::pipeline::TasqPipeline`]. Every phase commits
//! durable frames into a [`CheckpointStore`]:
//!
//! * `manifest` — one frame fingerprinting the workload and the training
//!   configuration, so a resume against a different run is refused
//!   instead of silently producing garbage.
//! * `flight`   — the flat (job × allocation × repetition) grid from
//!   [`scope_sim::flight_tasks`], committed in completed-prefix chunks.
//!   Each cell's seed is a pure function of its coordinates, so a resume
//!   replays exactly the missing suffix.
//! * `dataset`  — a digest frame marking the featurize phase complete
//!   (the dataset itself is a deterministic function of the workload and
//!   is rebuilt, then verified against the digest).
//! * `gbdt`     — one [`tasq_ml::gbdt::BoosterCheckpoint`] per boosting
//!   round; a resume restores the subsampling RNG mid-stream.
//! * `nn`       — one [`tasq::models::NnTrainCheckpoint`] per epoch,
//!   including the optimizer moments and the shuffle RNG.
//! * `done`     — the run's final fingerprint.
//!
//! The invariant the chaos harness enforces in CI: a run killed after
//! *any* checkpoint commit — even with a torn tail sheared off the
//! last-written log — and then resumed produces a bit-identical
//! fingerprint to a run that was never interrupted.

use crate::CliError;
use scope_sim::{
    flight_tasks, run_flight_cell, ExecScratch, ExecutionResult, Executor, FlightConfig, Job,
    NoiseModel, SimError, StageGraph,
};
use tasq::codec;
use tasq::dataset::Dataset;
use tasq::models::{NnPcc, NnTrainCheckpoint, NnTrainConfig, XgbRuntime, XgbTrainConfig};
use tasq_codec::Wire;
use tasq_ml::gbdt::{Booster, BoosterCheckpoint};
use tasq_resil::CheckpointStore;

/// Stage-log names, in pipeline order.
pub const STAGES: [&str; 6] = ["manifest", "flight", "dataset", "gbdt", "nn", "done"];

const STAGE_MANIFEST: &str = "manifest";
const STAGE_FLIGHT: &str = "flight";
const STAGE_DATASET: &str = "dataset";
const STAGE_GBDT: &str = "gbdt";
const STAGE_NN: &str = "nn";
const STAGE_DONE: &str = "done";

/// Mix `bits` into an order-sensitive digest.
fn fold_bits(fingerprint: &mut u64, bits: u64) {
    *fingerprint = fingerprint.rotate_left(7) ^ bits;
}

/// Order-sensitive digest of a byte string (u64-chunked SplitMix folds).
fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest = tasq_resil::chaos::mix64(digest, u64::from_le_bytes(word));
    }
    digest
}

fn encode<T: Wire>(value: &T) -> Result<Vec<u8>, CliError> {
    Ok(codec::to_bytes(value)?)
}

fn decode<T: Wire>(payload: &[u8]) -> Result<T, CliError> {
    Ok(codec::from_bytes(payload)?)
}

/// Sizing knobs for one checkpointed training run.
#[derive(Debug, Clone)]
pub struct TrainEngineConfig {
    /// NN training epochs.
    pub nn_epochs: usize,
    /// GBDT boosting rounds.
    pub xgb_rounds: usize,
    /// Base seed for the flighting grid.
    pub seed: u64,
    /// Flight-grid cells per checkpoint frame.
    pub flight_chunk: usize,
    /// Parallel pool width for featurize and split search.
    pub threads: usize,
}

impl Default for TrainEngineConfig {
    fn default() -> Self {
        Self { nn_epochs: 30, xgb_rounds: 40, seed: 0, flight_chunk: 64, threads: 2 }
    }
}

/// What a completed run produced.
pub struct TrainSummary {
    /// Order-sensitive digest of every numeric output (flight cells,
    /// dataset examples, GBDT predictions, NN curve parameters). Equal
    /// fingerprints across killed-and-resumed and uninterrupted runs are
    /// the bit-identity proof.
    pub fingerprint: u64,
    /// Trainable examples in the dataset.
    pub examples: usize,
    /// Cells in the flighting grid.
    pub flight_cells: usize,
    /// Cells that exhausted their retry budget.
    pub flight_errors: usize,
    /// Frames recovered from the checkpoint directory (0 on a cold run).
    pub recovered_frames: usize,
    /// Torn tails trimmed during recovery.
    pub torn_tails_trimmed: usize,
    /// Frames durably committed by *this* run.
    pub commits: u64,
    /// Whether any prior frames were found (i.e. this run resumed).
    pub resumed: bool,
    /// The trained curve model.
    pub nn: NnPcc,
    /// The trained point-prediction model.
    pub xgb: XgbRuntime,
}

/// How a run ended: normally, or at the chaos plan's planted kill.
pub enum RunEnd {
    /// The pipeline ran to completion.
    Completed(Box<TrainSummary>),
    /// The injected process death fired after a checkpoint commit.
    Killed {
        /// Stage log that received the final commit.
        stage: String,
        /// Commits made before death.
        commits: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Wire)]
struct ManifestRecord {
    workload_digest: u64,
    jobs: u64,
    seed: u64,
    nn_epochs: u64,
    xgb_rounds: u64,
    flight_chunk: u64,
}

/// One flight-grid cell's result. The codec has no `Result` impl, so
/// success and the typed simulator error ride in two options.
#[derive(Debug, Clone, Wire)]
struct CellOutcome {
    ok: Option<ExecutionResult>,
    err: Option<SimError>,
}

#[derive(Debug, Clone, Wire)]
struct FlightChunkRecord {
    start: u64,
    outcomes: Vec<CellOutcome>,
}

#[derive(Debug, Clone, PartialEq, Wire)]
struct DatasetRecord {
    examples: u64,
    digest: u64,
}

#[derive(Debug, Clone, PartialEq, Wire)]
struct DoneRecord {
    fingerprint: u64,
}

/// Counted, killable checkpoint committer: every durable append runs
/// through here so the chaos plan's "die after N commits" is exact.
struct Committer<'a> {
    store: &'a CheckpointStore,
    commits: u64,
    kill_after: Option<u64>,
}

impl Committer<'_> {
    /// Append one frame; `Ok(false)` means the planted death fired (the
    /// frame itself is durable — death strikes *after* the commit).
    fn commit(&mut self, stage: &str, payload: &[u8]) -> Result<bool, CliError> {
        self.store.append(stage, payload)?;
        self.commits += 1;
        Ok(!matches!(self.kill_after, Some(k) if self.commits >= k))
    }
}

fn mismatch(stage: &str, dir: &std::path::Path, detail: &str) -> CliError {
    CliError::Usage(format!(
        "checkpoint directory {} does not match this run (stage `{stage}`: {detail}); \
         pass a fresh --checkpoint-dir or drop --resume",
        dir.display()
    ))
}

/// Run the checkpointed offline pipeline against `store`, resuming from
/// whatever frames it already holds. `kill_after` is the chaos plan's
/// planted process death: stop (without error) after that many durable
/// commits.
pub fn run_checkpointed_train(
    jobs: &[Job],
    store: &CheckpointStore,
    config: &TrainEngineConfig,
    kill_after: Option<u64>,
) -> Result<RunEnd, CliError> {
    let pool = tasq_par::Pool::new(config.threads.max(1));
    let mut fingerprint = 0u64;
    let mut recovered_frames = 0usize;
    let mut torn_tails = 0usize;
    let mut committer = Committer { store, commits: 0, kill_after };

    // --- manifest: refuse to resume someone else's run -----------------
    let manifest = ManifestRecord {
        workload_digest: digest_bytes(&encode(&jobs.to_vec())?),
        jobs: jobs.len() as u64,
        seed: config.seed,
        nn_epochs: config.nn_epochs as u64,
        xgb_rounds: config.xgb_rounds as u64,
        flight_chunk: config.flight_chunk.max(1) as u64,
    };
    let recovery = store.recover_stage(STAGE_MANIFEST)?;
    torn_tails += usize::from(recovery.torn.is_some());
    let resumed = recovery.last().is_some();
    match recovery.last() {
        Some(frame) => {
            let prior: ManifestRecord = decode(&frame.payload)?;
            if prior != manifest {
                return Err(mismatch(
                    STAGE_MANIFEST,
                    store.dir(),
                    "workload or training configuration changed",
                ));
            }
            recovered_frames += 1;
        }
        None => {
            if !committer.commit(STAGE_MANIFEST, &encode(&manifest)?)? {
                return Ok(RunEnd::Killed {
                    stage: STAGE_MANIFEST.to_string(),
                    commits: committer.commits,
                });
            }
        }
    }

    // --- flight: the grid, in completed-prefix chunks ------------------
    let refs: Vec<u32> = jobs.iter().map(|j| j.requested_tokens.max(4)).collect();
    let flight_cfg = FlightConfig {
        noise: NoiseModel::mild(),
        seed: config.seed,
        repetitions: 2,
        ..Default::default()
    };
    let tasks = flight_tasks(jobs, &refs, &flight_cfg);

    let recovery = store.recover_stage(STAGE_FLIGHT)?;
    torn_tails += usize::from(recovery.torn.is_some());
    recovered_frames += recovery.frames.len();
    let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(tasks.len());
    for frame in &recovery.frames {
        let chunk: FlightChunkRecord = decode(&frame.payload)?;
        if chunk.start as usize != outcomes.len() {
            return Err(mismatch(STAGE_FLIGHT, store.dir(), "chunk sequence out of order"));
        }
        outcomes.extend(chunk.outcomes);
    }
    if outcomes.len() > tasks.len() {
        return Err(mismatch(STAGE_FLIGHT, store.dir(), "more cells than the grid holds"));
    }

    struct CachedExecutor {
        job_idx: usize,
        executor: Executor,
    }
    let mut cache: Option<CachedExecutor> = None;
    let mut scratch = ExecScratch::default();
    while outcomes.len() < tasks.len() {
        let start = outcomes.len();
        let end = (start + config.flight_chunk.max(1)).min(tasks.len());
        let mut chunk =
            FlightChunkRecord { start: start as u64, outcomes: Vec::with_capacity(end - start) };
        for &(job_idx, alloc, rep) in &tasks[start..end] {
            if cache.as_ref().map(|c| c.job_idx) != Some(job_idx) {
                let job = &jobs[job_idx];
                cache = Some(CachedExecutor {
                    job_idx,
                    executor: Executor::new(StageGraph::from_plan(&job.plan, job.seed)),
                });
            }
            if let Some(c) = cache.as_ref() {
                let outcome = match run_flight_cell(
                    &jobs[job_idx],
                    &c.executor,
                    alloc,
                    rep,
                    &flight_cfg,
                    &mut scratch,
                ) {
                    Ok(result) => CellOutcome { ok: Some(result), err: None },
                    Err(e) => CellOutcome { ok: None, err: Some(e) },
                };
                chunk.outcomes.push(outcome);
            }
        }
        let keep_going = committer.commit(STAGE_FLIGHT, &encode(&chunk)?)?;
        outcomes.append(&mut chunk.outcomes);
        if !keep_going {
            return Ok(RunEnd::Killed {
                stage: STAGE_FLIGHT.to_string(),
                commits: committer.commits,
            });
        }
    }
    let mut flight_errors = 0usize;
    for outcome in &outcomes {
        match &outcome.ok {
            Some(result) => {
                fold_bits(&mut fingerprint, result.runtime_secs.to_bits());
                fold_bits(&mut fingerprint, result.total_token_seconds.to_bits());
            }
            None => {
                flight_errors += 1;
                fold_bits(&mut fingerprint, 0x0BAD_C0DE_0BAD_C0DE);
            }
        }
    }

    // --- dataset: deterministic rebuild, digest-verified ----------------
    let dataset = Dataset::build_with_pool(jobs, &tasq::augment::AugmentConfig::default(), &pool);
    if dataset.is_empty() {
        return Err(CliError::Usage("workload yields no trainable examples".to_string()));
    }
    let mut dataset_digest = 0u64;
    for example in &dataset.examples {
        fold_bits(&mut dataset_digest, example.observed_runtime.to_bits());
        fold_bits(&mut dataset_digest, example.target_pcc.a.to_bits());
        fold_bits(&mut dataset_digest, example.target_pcc.b.to_bits());
    }
    fold_bits(&mut fingerprint, dataset_digest);
    let dataset_record =
        DatasetRecord { examples: dataset.len() as u64, digest: dataset_digest };
    let recovery = store.recover_stage(STAGE_DATASET)?;
    torn_tails += usize::from(recovery.torn.is_some());
    match recovery.last() {
        Some(frame) => {
            let prior: DatasetRecord = decode(&frame.payload)?;
            if prior != dataset_record {
                return Err(mismatch(STAGE_DATASET, store.dir(), "featurize digest diverged"));
            }
            recovered_frames += 1;
        }
        None => {
            if !committer.commit(STAGE_DATASET, &encode(&dataset_record)?)? {
                return Ok(RunEnd::Killed {
                    stage: STAGE_DATASET.to_string(),
                    commits: committer.commits,
                });
            }
        }
    }

    // --- gbdt: one checkpoint per boosting round ------------------------
    let (rows, targets) = dataset.xgb_rows();
    let xgb_config = XgbTrainConfig { num_rounds: config.xgb_rounds, ..Default::default() };
    let recovery = store.recover_stage(STAGE_GBDT)?;
    torn_tails += usize::from(recovery.torn.is_some());
    recovered_frames += recovery.frames.len();
    let gbdt_resume: Option<BoosterCheckpoint> =
        recovery.last().map(|frame| decode(&frame.payload)).transpose()?;
    let mut commit_err: Option<CliError> = None;
    let booster = {
        let committer = &mut committer;
        let commit_err = &mut commit_err;
        Booster::train_resumable_with_pool(
            &rows,
            &targets,
            &XgbRuntime::booster_config(&xgb_config),
            &pool,
            gbdt_resume,
            &mut |ckpt| match encode(ckpt).and_then(|b| committer.commit(STAGE_GBDT, &b)) {
                Ok(keep_going) => keep_going,
                Err(e) => {
                    *commit_err = Some(e);
                    false
                }
            },
        )
    };
    let booster = match booster {
        Some(booster) => booster,
        None => {
            if let Some(e) = commit_err {
                return Err(e);
            }
            return Ok(RunEnd::Killed { stage: STAGE_GBDT.to_string(), commits: committer.commits });
        }
    };
    for pred in booster.predict(&rows) {
        fold_bits(&mut fingerprint, pred.to_bits());
    }
    let xgb = XgbRuntime::from_booster(booster);

    // --- nn: one checkpoint per epoch -----------------------------------
    let nn_config = NnTrainConfig { epochs: config.nn_epochs, ..Default::default() };
    let recovery = store.recover_stage(STAGE_NN)?;
    torn_tails += usize::from(recovery.torn.is_some());
    recovered_frames += recovery.frames.len();
    let nn_resume: Option<NnTrainCheckpoint> =
        recovery.last().map(|frame| decode(&frame.payload)).transpose()?;
    let mut commit_err: Option<CliError> = None;
    let nn = {
        let committer = &mut committer;
        let commit_err = &mut commit_err;
        NnPcc::train_with_teacher_resumable(
            &dataset,
            &nn_config,
            None,
            nn_resume,
            &mut |ckpt| match encode(ckpt).and_then(|b| committer.commit(STAGE_NN, &b)) {
                Ok(keep_going) => keep_going,
                Err(e) => {
                    *commit_err = Some(e);
                    false
                }
            },
        )
    };
    let nn = match nn {
        Some(nn) => nn,
        None => {
            if let Some(e) = commit_err {
                return Err(e);
            }
            return Ok(RunEnd::Killed { stage: STAGE_NN.to_string(), commits: committer.commits });
        }
    };
    for example in &dataset.examples {
        let pcc = nn.predict_pcc(&example.features);
        fold_bits(&mut fingerprint, pcc.a.to_bits());
        fold_bits(&mut fingerprint, pcc.b.to_bits());
    }

    // --- done: seal the run with its fingerprint -------------------------
    let done = DoneRecord { fingerprint };
    let recovery = store.recover_stage(STAGE_DONE)?;
    torn_tails += usize::from(recovery.torn.is_some());
    match recovery.last() {
        Some(frame) => {
            let prior: DoneRecord = decode(&frame.payload)?;
            if prior != done {
                return Err(mismatch(STAGE_DONE, store.dir(), "final fingerprint diverged"));
            }
            recovered_frames += 1;
        }
        None => {
            if !committer.commit(STAGE_DONE, &encode(&done)?)? {
                return Ok(RunEnd::Killed {
                    stage: STAGE_DONE.to_string(),
                    commits: committer.commits,
                });
            }
        }
    }

    Ok(RunEnd::Completed(Box::new(TrainSummary {
        fingerprint,
        examples: dataset.len(),
        flight_cells: tasks.len(),
        flight_errors,
        recovered_frames,
        torn_tails_trimmed: torn_tails,
        commits: committer.commits,
        resumed,
        nn,
        xgb,
    })))
}

/// Shear `bytes` off the tail of a stage's checkpoint log — the chaos
/// harness's torn-write injection (a crash mid-append leaves exactly
/// this). Returns how many bytes were actually removed.
pub fn shear_log_tail(
    store: &CheckpointStore,
    stage: &str,
    bytes: u64,
) -> Result<u64, CliError> {
    let path = store.stage_path(stage);
    let len = std::fs::metadata(&path)?.len();
    let new_len = len.saturating_sub(bytes);
    let file = std::fs::OpenOptions::new().write(true).open(&path)?;
    file.set_len(new_len)?;
    file.sync_all()?;
    Ok(len - new_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn workload(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    fn store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join(format!("tasq-cli-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    fn quick_config() -> TrainEngineConfig {
        TrainEngineConfig {
            nn_epochs: 4,
            xgb_rounds: 6,
            seed: 11,
            flight_chunk: 32,
            threads: 2,
        }
    }

    fn complete(end: RunEnd) -> Box<TrainSummary> {
        match end {
            RunEnd::Completed(summary) => summary,
            RunEnd::Killed { stage, commits } => {
                panic!("unexpected kill in stage {stage} after {commits} commits")
            }
        }
    }

    #[test]
    fn kill_at_every_commit_and_resume_is_bit_identical() {
        let jobs = workload(6, 3);
        let config = quick_config();

        let reference_store = store("reference");
        let reference =
            complete(run_checkpointed_train(&jobs, &reference_store, &config, None).unwrap());
        assert!(!reference.resumed);
        assert_eq!(reference.recovered_frames, 0);

        // Total commits of an uninterrupted run bounds the kill sweep.
        let total = reference.commits;
        assert!(total > 4, "expected multi-stage commit trail, got {total}");

        // Sweep a few kill points across all stages (every point would be
        // thorough but slow; endpoints + a stride covers each stage).
        let kill_points: Vec<u64> =
            (1..=total).step_by((total as usize / 8).max(1)).chain([total]).collect();
        for kill in kill_points {
            let chaos_store = store(&format!("kill{kill}"));
            let first =
                run_checkpointed_train(&jobs, &chaos_store, &config, Some(kill)).unwrap();
            if kill < total {
                assert!(matches!(first, RunEnd::Killed { .. }), "kill {kill} did not fire");
            }
            let resumed =
                complete(run_checkpointed_train(&jobs, &chaos_store, &config, None).unwrap());
            assert_eq!(
                resumed.fingerprint, reference.fingerprint,
                "kill after {kill} commits diverged"
            );
            let _ = std::fs::remove_dir_all(chaos_store.dir());
        }
        let _ = std::fs::remove_dir_all(reference_store.dir());
    }

    #[test]
    fn torn_tail_after_kill_still_resumes_bit_identically() {
        let jobs = workload(5, 9);
        let config = quick_config();

        let reference_store = store("torn-ref");
        let reference =
            complete(run_checkpointed_train(&jobs, &reference_store, &config, None).unwrap());

        let chaos_store = store("torn-chaos");
        let end = run_checkpointed_train(&jobs, &chaos_store, &config, Some(3)).unwrap();
        let RunEnd::Killed { stage, .. } = end else { panic!("kill did not fire") };
        let sheared = shear_log_tail(&chaos_store, &stage, 7).unwrap();
        assert!(sheared > 0);

        let resumed =
            complete(run_checkpointed_train(&jobs, &chaos_store, &config, None).unwrap());
        assert!(resumed.resumed);
        assert!(resumed.torn_tails_trimmed >= 1, "the shear must be detected as a torn tail");
        assert_eq!(resumed.fingerprint, reference.fingerprint);
        let _ = std::fs::remove_dir_all(chaos_store.dir());
        let _ = std::fs::remove_dir_all(reference_store.dir());
    }

    #[test]
    fn resume_against_a_different_workload_is_refused() {
        let config = quick_config();
        let s = store("mismatch");
        complete(run_checkpointed_train(&workload(5, 1), &s, &config, None).unwrap());
        let Err(err) = run_checkpointed_train(&workload(5, 2), &s, &config, None) else {
            panic!("resume against a different workload must be refused")
        };
        assert!(err.to_string().contains("does not match"), "{err}");
        let _ = std::fs::remove_dir_all(s.dir());
    }
}
