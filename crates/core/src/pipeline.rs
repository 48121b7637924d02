//! The end-to-end TASQ pipeline (paper Figure 4), in-process.
//!
//! The production system wires Cosmos storage, ADLS, Azure ML, AKS and
//! the SCOPE job scheduler together; this module reproduces the same
//! dataflow with in-process components:
//!
//! ```text
//! JobRepository (historical jobs + telemetry)
//!     └─ TasqPipeline::train  — augment (AREPAS) → featurize → train
//!            │                  (XGBoost and NN side by side; optionally
//!            │                   through a CheckpointSink: crash-
//!            │                   consistent and resumable)
//!            └─ ModelStore    — versioned serialized artifacts
//!                   └─ ScoringService — compile-time featurize → predict
//!                          └─ AllocationDecision (auto token count, or
//!                             the PCC for the user to decide)
//! ```
//!
//! Failures are typed ([`StoreError`], [`PipelineError`], [`DeployError`])
//! and the scoring service degrades gracefully instead of panicking: when
//! the primary model artifact is missing or corrupt, or its prediction is
//! non-monotone or non-finite, scoring falls through a tier chain —
//! primary → fallback trained model → analytic Amdahl baseline built from
//! the submitted plan alone. [`ScoreResponse::served_tier`] records which
//! tier actually answered.

use crate::augment::AugmentConfig;
use crate::dataset::Dataset;
use crate::featurize::featurize_job;
use crate::models::{
    NnPcc, NnTrainConfig, PccPredictor, PredictedPcc, ScoringInput, XgbRuntime, XgbTrainConfig,
    XgboostPl, XgboostSs,
};
use crate::codec::{self, Wire};
use crate::pcc::PowerLawPcc;
use scope_sim::{AmdahlModel, Job, StageGraph};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tasq_obs::sync::{Rank, RwLock};
use tasq_resil::chaos::mix64;
use tasq_resil::{snapshot, ResilError};

/// Error loading or storing a model artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No artifact has ever been registered under this name.
    MissingModel {
        /// Requested model name.
        name: String,
    },
    /// The model name exists but the requested version does not.
    MissingVersion {
        /// Requested model name.
        name: String,
        /// Requested version.
        version: u32,
    },
    /// The stored bytes exist but failed to decode as the requested type.
    Corrupt {
        /// Model name.
        name: String,
        /// Version whose bytes failed to decode.
        version: u32,
        /// The underlying codec failure.
        cause: codec::CodecError,
    },
    /// The on-disk snapshot framing is damaged — torn write, truncated
    /// tail, or CRC mismatch (disk-backed stores only). The artifact is
    /// refused before any decode is attempted.
    Damaged {
        /// Model name being accessed.
        name: String,
        /// Version whose snapshot framing failed verification.
        version: u32,
        /// The resil-layer failure, stringified to keep the error cloneable.
        detail: String,
    },
    /// Filesystem failure (disk-backed stores only).
    Io {
        /// Model name being accessed.
        name: String,
        /// The I/O error, stringified to keep the error cloneable.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::MissingModel { name } => write!(f, "no artifact registered as `{name}`"),
            StoreError::MissingVersion { name, version } => {
                write!(f, "artifact `{name}` has no version {version}")
            }
            StoreError::Corrupt { name, version, cause } => {
                write!(f, "artifact `{name}` v{version} failed to decode: {cause}")
            }
            StoreError::Damaged { name, version, detail } => {
                write!(f, "artifact `{name}` v{version} snapshot damaged: {detail}")
            }
            StoreError::Io { name, message } => {
                write!(f, "i/o failure accessing artifact `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Error from the training pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The job repository holds no jobs to train on.
    EmptyRepository,
    /// Every job in the repository was degenerate — not a single training
    /// example could be prepared.
    NoTrainableJobs,
    /// A repository job failed plan/stage-graph invariant validation
    /// (cyclic DAG, bad operator arity, incompatible partitioning, broken
    /// work conservation, ...). Training on such a job would poison the
    /// dataset, so the pipeline refuses the whole batch.
    InvalidJob {
        /// The offending job.
        job_id: u64,
        /// The rendered [`scope_sim::JobValidationError`].
        detail: String,
    },
    /// A fitted target PCC violated the parameter contract of
    /// [`crate::validate::validate_pcc`] (non-monotone, super-Amdahl, or
    /// degenerate parameters).
    InvalidTargetPcc {
        /// The job whose target failed.
        job_id: u64,
        /// The rendered violations.
        detail: String,
    },
    /// Serializing a trained artifact for the store failed.
    Codec(codec::CodecError),
    /// A stage's checkpoint could not be loaded or committed.
    Checkpoint {
        /// The stage whose checkpoint failed.
        stage: &'static str,
        /// The rendered [`tasq_resil::ResilError`], or the codec error
        /// of a record that does not decode.
        detail: String,
    },
    /// The checkpoint directory holds another run's records: a different
    /// workload or configuration, or a dataset or artifacts that rebuilt
    /// differently. Resuming it would train a mix of two runs.
    CheckpointMismatch {
        /// The checkpoint directory.
        dir: String,
        /// The stage whose record differs.
        stage: &'static str,
        /// What differs.
        detail: &'static str,
    },
    /// The sink's planted kill fired: the run stopped right after a
    /// durable commit, as a process killed there would.
    Killed {
        /// The stage that received the last commit.
        stage: &'static str,
        /// Records committed before the kill.
        commits: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyRepository => write!(f, "cannot train on an empty repository"),
            PipelineError::NoTrainableJobs => {
                write!(f, "no trainable examples: every job was degenerate")
            }
            PipelineError::InvalidJob { job_id, detail } => {
                write!(f, "job {job_id} failed plan validation: {detail}")
            }
            PipelineError::InvalidTargetPcc { job_id, detail } => {
                write!(f, "job {job_id} fitted an invalid target PCC: {detail}")
            }
            PipelineError::Codec(e) => write!(f, "artifact serialization failed: {e}"),
            PipelineError::Checkpoint { stage, detail } => {
                write!(f, "checkpoint stage `{stage}` failed: {detail}")
            }
            PipelineError::CheckpointMismatch { dir, stage, detail } => write!(
                f,
                "checkpoint directory {dir} does not match this run (stage `{stage}`: \
                 {detail}); pass a fresh checkpoint directory"
            ),
            PipelineError::Killed { stage, commits } => {
                write!(f, "killed in stage `{stage}` after {commits} commits")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<codec::CodecError> for PipelineError {
    fn from(e: codec::CodecError) -> Self {
        PipelineError::Codec(e)
    }
}

/// Error deploying a scoring service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The artifact backing the requested primary model could not be
    /// loaded. Use [`ScoringService::deploy_degraded`] to serve from the
    /// remaining tiers instead of failing.
    PrimaryUnavailable {
        /// The requested model family.
        choice: ModelChoice,
        /// Why its artifact could not be loaded.
        cause: StoreError,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::PrimaryUnavailable { choice, cause } => {
                write!(f, "primary model {choice:?} unavailable: {cause}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// In-memory repository of historical jobs (the Cosmos job repository).
#[derive(Debug)]
pub struct JobRepository {
    jobs: RwLock<Vec<Job>>,
}

impl Default for JobRepository {
    fn default() -> Self {
        Self::new()
    }
}

impl JobRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self { jobs: RwLock::new(Rank::JobRepository, Vec::new()) }
    }

    /// Ingest a batch of jobs.
    pub fn ingest(&self, jobs: impl IntoIterator<Item = Job>) {
        self.jobs.write().extend(jobs);
    }

    /// Snapshot of all jobs.
    pub fn all_jobs(&self) -> Vec<Job> {
        self.jobs.read().clone()
    }

    /// Number of stored jobs.
    pub fn len(&self) -> usize {
        self.jobs.read().len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.read().is_empty()
    }
}

/// A stored model artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Monotonically increasing version within a model name.
    pub version: u32,
    /// Serialized model bytes.
    pub bytes: Vec<u8>,
}

/// Versioned, thread-safe store of serialized model artifacts
/// (the Azure ML model store stand-in).
#[derive(Debug)]
pub struct ModelStore {
    artifacts: RwLock<HashMap<String, Vec<Artifact>>>,
}

impl Default for ModelStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelStore {
    /// Empty store.
    pub fn new() -> Self {
        Self { artifacts: RwLock::new(Rank::ModelStore, HashMap::new()) }
    }

    /// Serialize and register a model; returns the assigned version.
    pub fn register<T: Wire>(&self, name: &str, model: &T) -> Result<u32, codec::CodecError> {
        let bytes = codec::to_bytes(model)?;
        let mut store = self.artifacts.write();
        let entry = store.entry(name.to_string()).or_default();
        let version = entry.last().map_or(1, |a| a.version + 1);
        entry.push(Artifact { version, bytes });
        Ok(version)
    }

    /// Load the latest version of a model.
    pub fn load_latest<T: Wire>(&self, name: &str) -> Result<T, StoreError> {
        let store = self.artifacts.read();
        let artifact = store
            .get(name)
            .and_then(|v| v.last())
            .ok_or_else(|| StoreError::MissingModel { name: name.to_string() })?;
        codec::from_bytes(&artifact.bytes).map_err(|cause| StoreError::Corrupt {
            name: name.to_string(),
            version: artifact.version,
            cause,
        })
    }

    /// Load a specific version.
    pub fn load_version<T: Wire>(&self, name: &str, version: u32) -> Result<T, StoreError> {
        let store = self.artifacts.read();
        let versions =
            store.get(name).ok_or_else(|| StoreError::MissingModel { name: name.to_string() })?;
        let artifact = versions
            .iter()
            .find(|a| a.version == version)
            .ok_or_else(|| StoreError::MissingVersion { name: name.to_string(), version })?;
        codec::from_bytes(&artifact.bytes).map_err(|cause| StoreError::Corrupt {
            name: name.to_string(),
            version,
            cause,
        })
    }

    /// Registered versions of a model name.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        self.artifacts
            .read()
            .get(name)
            .map(|v| v.iter().map(|a| a.version).collect())
            .unwrap_or_default()
    }
}

/// A file-backed model store: the same versioned artifact semantics as
/// [`ModelStore`], persisted under a directory as `<name>.v<N>.bin` files
/// encoded with [`crate::codec`]. This is the deployable counterpart of
/// the paper's Azure ML model registry.
#[derive(Debug, Clone)]
pub struct DiskModelStore {
    directory: std::path::PathBuf,
}

impl DiskModelStore {
    /// Open (creating the directory if needed).
    pub fn open(directory: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let directory = directory.into();
        std::fs::create_dir_all(&directory)?;
        Ok(Self { directory })
    }

    fn artifact_path(&self, name: &str, version: u32) -> std::path::PathBuf {
        self.directory.join(format!("{name}.v{version}.bin"))
    }

    /// Registered versions of a model, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        let prefix = format!("{name}.v");
        let mut versions: Vec<u32> = std::fs::read_dir(&self.directory)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let file = entry.file_name().into_string().ok()?;
                let rest = file.strip_prefix(&prefix)?.strip_suffix(".bin")?;
                rest.parse().ok()
            })
            .collect();
        versions.sort_unstable();
        versions
    }

    /// Serialize and register a model; returns the assigned version.
    ///
    /// The artifact is committed crash-consistently (CRC-framed snapshot,
    /// write-temp → fsync → rename), so a crash mid-register leaves either
    /// the previous store state or the fully-written new version — never a
    /// half-written file that later decodes garbage.
    pub fn register<T: Wire>(&self, name: &str, model: &T) -> std::io::Result<u32> {
        let bytes = codec::to_bytes(model)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let version = self.versions(name).last().map_or(1, |v| v + 1);
        tasq_resil::snapshot::commit(&self.artifact_path(name, version), &bytes)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(version)
    }

    /// Load a specific version.
    ///
    /// The snapshot framing (magic, length, CRC) is verified before any
    /// decode; torn or corrupt files are refused with
    /// [`StoreError::Damaged`] rather than fed to the codec.
    pub fn load_version<T: Wire>(&self, name: &str, version: u32) -> Result<T, StoreError> {
        let bytes = tasq_resil::snapshot::load(&self.artifact_path(name, version)).map_err(
            |e| match e {
                tasq_resil::ResilError::NoCheckpoint => {
                    StoreError::MissingVersion { name: name.to_string(), version }
                }
                tasq_resil::ResilError::Io(io) => {
                    StoreError::Io { name: name.to_string(), message: io.to_string() }
                }
                damaged => StoreError::Damaged {
                    name: name.to_string(),
                    version,
                    detail: damaged.to_string(),
                },
            },
        )?;
        codec::from_bytes(&bytes).map_err(|cause| StoreError::Corrupt {
            name: name.to_string(),
            version,
            cause,
        })
    }

    /// Load the latest version.
    pub fn load_latest<T: Wire>(&self, name: &str) -> Result<T, StoreError> {
        let version = *self
            .versions(name)
            .last()
            .ok_or_else(|| StoreError::MissingModel { name: name.to_string() })?;
        self.load_version(name, version)
    }
}

/// Which model family the scoring service should serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Wire)]
pub enum ModelChoice {
    /// XGBoost with smoothing-spline PCC.
    XgboostSs,
    /// XGBoost with power-law PCC.
    XgboostPl,
    /// Feed-forward network (the paper's recommended balance).
    Nn,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Augmentation settings.
    pub augment: AugmentConfig,
    /// XGBoost training settings.
    pub xgb: XgbTrainConfig,
    /// NN training settings.
    pub nn: NnTrainConfig,
    /// Which model the scoring service serves.
    pub serve: ModelChoice,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            augment: AugmentConfig::default(),
            xgb: XgbTrainConfig::default(),
            nn: NnTrainConfig::default(),
            serve: ModelChoice::Nn,
        }
    }
}

/// Names under which the pipeline registers artifacts.
pub const XGB_MODEL_NAME: &str = "tasq-xgb-runtime";
/// NN artifact name.
pub const NN_MODEL_NAME: &str = "tasq-nn-pcc";

/// The training pipeline: repository → dataset → models → store.
#[derive(Debug)]
pub struct TasqPipeline {
    config: PipelineConfig,
}

impl TasqPipeline {
    /// Create a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// Train on the repository's jobs and register artifacts in the store.
    ///
    /// Returns the prepared dataset (useful for evaluation), or a typed
    /// error when the repository is empty, a job fails plan/stage
    /// invariant validation, no job yields a trainable example, a fitted
    /// target PCC violates the parameter contract, or an artifact cannot
    /// be serialized.
    pub fn train(
        &self,
        repository: &JobRepository,
        store: &ModelStore,
    ) -> Result<Dataset, PipelineError> {
        self.train_with_pool(repository, store, &tasq_par::Pool::with_available_parallelism())
    }

    /// [`TasqPipeline::train`] with dataset preparation (execution,
    /// AREPAS augmentation, featurization, target-PCC fitting) fanned
    /// out over a caller-supplied pool, and the XGBoost and NN fits run
    /// side by side on it (see [`TasqPipeline::train_with_sink`]). The
    /// registered artifacts are bit-identical at any thread count.
    pub fn train_with_pool(
        &self,
        repository: &JobRepository,
        store: &ModelStore,
        pool: &tasq_par::Pool,
    ) -> Result<Dataset, PipelineError> {
        self.train_with_sink(repository, store, pool, None)
    }

    /// [`TasqPipeline::train_with_pool`] with an optional checkpoint sink.
    ///
    /// The one training path. Both validation gates run on `pool` before
    /// any execution work, then the dataset is built on it. The XGBoost
    /// and NN fits are independent of each other, so they run as the two
    /// halves of one [`tasq_par::Pool::join`]: XGBoost on the calling
    /// thread, the NN on a helper when `pool` has a second thread, each
    /// on one thread. Each fit is deterministic on its own, so the
    /// artifacts are the same bytes whatever `pool` is, and they are
    /// registered XGBoost first, NN second.
    ///
    /// With a sink, the run commits five durable records once both gates
    /// have passed: the `manifest`, the `dataset` digest, the finished
    /// `gbdt` and `nn` models, and the `done` fingerprint (see
    /// [`CheckpointSink`]). A directory that already holds this run's
    /// records is resumed: a recovered model is used as it is, and only a
    /// model whose record is missing is fitted, from the rebuilt dataset.
    /// The fits are deterministic, so the artifacts are bit-identical to
    /// an uninterrupted run's. One that holds another run's records is
    /// refused with [`PipelineError::CheckpointMismatch`]. The caller
    /// commits both models after the fits, `gbdt` first, so a planted kill
    /// stops every run at the same record ([`CheckpointSink::open`]).
    pub fn train_with_sink(
        &self,
        repository: &JobRepository,
        store: &ModelStore,
        pool: &tasq_par::Pool,
        mut sink: Option<&mut CheckpointSink>,
    ) -> Result<Dataset, PipelineError> {
        use tasq_obs::{span, FieldValue, Level};
        let _pipeline_span = span(
            Level::Info,
            "pipeline_train",
            &[("jobs", FieldValue::U64(repository.len() as u64))],
        );
        let jobs = repository.all_jobs();
        if jobs.is_empty() {
            return Err(PipelineError::EmptyRepository);
        }
        // Gate the batch on the simulator-side invariants before spending
        // any execution/augmentation work on it.
        {
            let _span = span(Level::Info, "pipeline_validate", &[]);
            let verdicts = pool.par_map(&jobs, |_, job| scope_sim::validate_job(job).err());
            if let Some((job, e)) = first_failure(&jobs, verdicts) {
                return Err(PipelineError::InvalidJob { job_id: job.id, detail: e.to_string() });
            }
        }
        // Dataset preparation covers the flight (ground-truth execution at
        // several allocations) and featurize phases of paper Figure 4.
        let dataset = {
            let _span = span(Level::Info, "pipeline_featurize", &[]);
            Dataset::build_with_pool(&jobs, &self.config.augment, pool)
        };
        if dataset.is_empty() {
            return Err(PipelineError::NoTrainableJobs);
        }
        // Every regression target must itself satisfy the PCC contract —
        // a model trained toward a non-monotone or super-Amdahl target
        // would learn to violate it.
        {
            let _span = span(Level::Info, "pipeline_validate_targets", &[]);
            let examples = &dataset.examples;
            let verdicts =
                pool.par_map(examples, |_, e| crate::validate::validate_pcc(&e.target_pcc).err());
            if let Some((example, violations)) = first_failure(examples, verdicts) {
                let detail =
                    violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
                return Err(PipelineError::InvalidTargetPcc { job_id: example.job_id, detail });
            }
        }
        let (recovered_xgb, recovered_nn) = match sink.as_deref_mut() {
            Some(sink) => {
                let workload_digest = digest_bytes(&codec::to_bytes(&jobs)?);
                sink.begin(workload_digest, &dataset, &self.config)?
            }
            None => (None, None),
        };
        let (fitted_xgb, fitted_nn) = (recovered_xgb.is_none(), recovered_nn.is_none());
        let fits = pool.join(
            || recovered_xgb.unwrap_or_else(|| fit_xgb(&dataset, &self.config.xgb)),
            || recovered_nn.unwrap_or_else(|| fit_nn(&dataset, &self.config.nn)),
        );
        let (xgb, nn) = match fits {
            Ok(models) => models,
            // A fit panicked: a bug, re-raised on the caller as before.
            Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
        };
        if let Some(sink) = sink.as_deref_mut() {
            if fitted_xgb {
                sink.commit(STAGE_GBDT, &xgb)?;
            }
            if fitted_nn {
                sink.commit(STAGE_NN, &nn)?;
            }
        }
        store.register(XGB_MODEL_NAME, &xgb)?;
        store.register(NN_MODEL_NAME, &nn)?;
        if let Some(sink) = sink {
            sink.seal(&xgb, &nn)?;
        }
        Ok(dataset)
    }
}

/// The first item, in item order, whose verdict is a failure, and that
/// failure.
fn first_failure<T, E>(
    items: &[T],
    verdicts: Result<Vec<Option<E>>, tasq_par::ParError>,
) -> Option<(&T, E)> {
    let verdicts = match verdicts {
        Ok(verdicts) => verdicts,
        // A gate panicked: a bug, re-raised on the caller as before.
        Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
    };
    items.iter().zip(verdicts).find_map(|(item, verdict)| verdict.map(|e| (item, e)))
}

/// The `gbdt` fit, [`XgbRuntime::train`], under its span.
fn fit_xgb(dataset: &Dataset, config: &XgbTrainConfig) -> XgbRuntime {
    use tasq_obs::{span, FieldValue, Level};
    let examples = FieldValue::U64(dataset.len() as u64);
    let _span = span(Level::Info, "pipeline_fit_xgb", &[("examples", examples)]);
    XgbRuntime::train(dataset, config)
}

/// The `nn` fit, [`NnPcc::train`], under its span.
fn fit_nn(dataset: &Dataset, config: &NnTrainConfig) -> NnPcc {
    use tasq_obs::{span, FieldValue, Level};
    let examples = FieldValue::U64(dataset.len() as u64);
    let _span = span(Level::Info, "pipeline_fit_nn", &[("examples", examples)]);
    NnPcc::train(dataset, config)
}

/// Stages of a checkpointed run, in pipeline order: each commits one
/// record, once.
pub const CHECKPOINT_STAGES: [&str; 5] = ["manifest", "dataset", "gbdt", "nn", "done"];
const STAGE_MANIFEST: &str = CHECKPOINT_STAGES[0];
const STAGE_DATASET: &str = CHECKPOINT_STAGES[1];
const STAGE_GBDT: &str = CHECKPOINT_STAGES[2];
const STAGE_NN: &str = CHECKPOINT_STAGES[3];
const STAGE_DONE: &str = CHECKPOINT_STAGES[4];

/// Order-sensitive digest of a byte string (u64-chunked SplitMix folds).
fn digest_bytes(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325, |digest, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix64(digest, u64::from_le_bytes(word))
    })
}

/// What the run trains on and how: a resume against another workload or
/// another configuration is refused.
#[derive(Debug, PartialEq, Wire)]
struct ManifestRecord {
    workload_digest: u64,
    config_digest: u64,
}

/// The featurized dataset. It is rebuilt on every run, not stored, and a
/// resume whose rebuild differs (another libm, say) is refused.
#[derive(Debug, PartialEq, Wire)]
struct DatasetRecord {
    examples: u64,
    digest: u64,
}

/// The sealed run: a digest of the dataset and of both registered
/// artifacts' codec bytes.
#[derive(Debug, PartialEq, Wire)]
struct DoneRecord {
    fingerprint: u64,
}

/// Where a checkpointed [`TasqPipeline`] run commits its progress.
///
/// The sink owns a directory holding one atomic snapshot per stage,
/// `<dir>/<stage>.ckpt` ([`tasq_resil::snapshot`]), each written once
/// with the stage's one record: the `gbdt` and `nn` records are the
/// finished models, in their artifact encoding. Every commit is made on
/// the calling thread and goes through here, so the count is exact. The
/// public fields are what a run reports.
pub struct CheckpointSink {
    dir: PathBuf,
    kill_after: Option<u64>,
    dataset_digest: u64,
    committed: u64,
    /// Stages whose record was recovered from the directory (0 on a cold
    /// run).
    pub recovered_stages: usize,
    /// Whether the directory already held this run's manifest.
    pub resumed: bool,
    /// The `done` fingerprint, set once the run is sealed. Equal
    /// fingerprints mean bit-identical artifacts.
    pub fingerprint: u64,
}

impl CheckpointSink {
    /// A sink over `dir` (created if absent), resuming whatever stages it
    /// holds.
    ///
    /// `kill_after` plants the chaos harness's process death: the run
    /// stops with [`PipelineError::Killed`] right after its commit number
    /// `kill_after` (at least one) this run, with that commit's stage and
    /// count, leaving the records a process killed there would leave.
    pub fn open(dir: impl Into<PathBuf>, kill_after: Option<u64>) -> Result<Self, ResilError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            kill_after: kill_after.map(|kill| kill.max(1)),
            dataset_digest: 0,
            committed: 0,
            recovered_stages: 0,
            resumed: false,
            fingerprint: 0,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot file of `stage`.
    pub fn stage_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Records this run committed.
    pub fn commits(&self) -> u64 {
        self.committed
    }

    /// Load and decode `stage`'s committed record, if it has one.
    fn recover<T: Wire>(&mut self, stage: &'static str) -> Result<Option<T>, PipelineError> {
        let failed = |detail: String| PipelineError::Checkpoint { stage, detail };
        let bytes = match snapshot::load(&self.stage_path(stage)) {
            Ok(bytes) => bytes,
            Err(ResilError::NoCheckpoint) => return Ok(None),
            Err(e) => return Err(failed(e.to_string())),
        };
        self.recovered_stages += 1;
        codec::from_bytes(&bytes).map(Some).map_err(|e| failed(e.to_string()))
    }

    /// Durably write `stage`'s record; the planted kill strikes right
    /// after its commit.
    fn commit<T: Wire>(&mut self, stage: &'static str, record: &T) -> Result<(), PipelineError> {
        snapshot::commit(&self.stage_path(stage), &codec::to_bytes(record)?)
            .map_err(|e| PipelineError::Checkpoint { stage, detail: e.to_string() })?;
        self.committed += 1;
        match self.kill_after {
            Some(kill) if self.committed == kill => {
                Err(PipelineError::Killed { stage, commits: kill })
            }
            _ => Ok(()),
        }
    }

    /// Commit a one-record stage, or check the recovered record against
    /// this run's. Returns whether it was recovered.
    fn check_or_commit<T: Wire + PartialEq>(
        &mut self,
        stage: &'static str,
        record: &T,
        detail: &'static str,
    ) -> Result<bool, PipelineError> {
        match self.recover::<T>(stage)? {
            Some(prior) if prior == *record => Ok(true),
            Some(_) => Err(PipelineError::CheckpointMismatch {
                dir: self.dir.display().to_string(),
                stage,
                detail,
            }),
            None => self.commit(stage, record).map(|()| false),
        }
    }

    /// The `manifest` and `dataset` stages, then the `gbdt` and `nn`
    /// models already committed, which the run uses instead of fitting.
    fn begin(
        &mut self,
        workload_digest: u64,
        dataset: &Dataset,
        config: &PipelineConfig,
    ) -> Result<(Option<XgbRuntime>, Option<NnPcc>), PipelineError> {
        // `Debug` prints every field, each float in its shortest
        // round-trip form, so equal digests mean equal configurations.
        let manifest = ManifestRecord {
            workload_digest,
            config_digest: digest_bytes(format!("{config:?}").as_bytes()),
        };
        self.resumed = self.check_or_commit(
            STAGE_MANIFEST,
            &manifest,
            "workload or training configuration changed",
        )?;
        self.dataset_digest = dataset
            .examples
            .iter()
            .flat_map(|e| [e.observed_runtime, e.target_pcc.a, e.target_pcc.b])
            .fold(0, |digest, x| mix64(digest, x.to_bits()));
        let record = DatasetRecord { examples: dataset.len() as u64, digest: self.dataset_digest };
        self.check_or_commit(STAGE_DATASET, &record, "the rebuilt dataset differs")?;
        Ok((self.recover(STAGE_GBDT)?, self.recover(STAGE_NN)?))
    }

    /// The `done` stage: seal the run with its fingerprint.
    fn seal(&mut self, xgb: &XgbRuntime, nn: &NnPcc) -> Result<(), PipelineError> {
        let artifacts = [codec::to_bytes(xgb)?, codec::to_bytes(nn)?];
        let fingerprint =
            artifacts.iter().map(|bytes| digest_bytes(bytes)).fold(self.dataset_digest, mix64);
        self.check_or_commit(STAGE_DONE, &DoneRecord { fingerprint }, "the artifacts differ")?;
        self.fingerprint = fingerprint;
        Ok(())
    }
}

/// The scheduler-facing decision for a scored job.
#[derive(Debug, Clone, Wire)]
pub enum AllocationDecision {
    /// Pass the predicted optimal token count straight to the scheduler.
    Automatic {
        /// Chosen token count.
        tokens: u32,
    },
    /// Show the user the predicted PCC to make an informed choice.
    ShowCurve {
        /// Predicted `(tokens, runtime)` points across the search range.
        curve: Vec<(u32, f64)>,
    },
}

/// Which tier of the scoring service's degradation chain actually served
/// a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Wire)]
pub enum ServedTier {
    /// The configured primary model.
    Primary,
    /// The secondary trained model from the other family (served because
    /// the primary was unavailable or produced an unusable prediction).
    Fallback,
    /// The analytic Amdahl baseline derived from the submitted plan alone
    /// — always available, needs no trained artifact.
    Analytic,
}

/// Scoring response for one submitted job.
#[derive(Debug, Clone, Wire)]
pub struct ScoreResponse {
    /// Job id.
    pub job_id: u64,
    /// Predicted run time at the requested allocation.
    pub predicted_runtime_at_request: f64,
    /// Predicted optimal token count.
    pub optimal_tokens: u32,
    /// The decision handed to the scheduler/user.
    pub decision: AllocationDecision,
    /// Which degradation tier produced the prediction.
    pub served_tier: ServedTier,
}

/// Scoring-service configuration.
#[derive(Debug, Clone)]
pub struct ScoringConfig {
    /// Minimum marginal improvement per extra token that still counts
    /// (the optimality threshold of Section 2.1; default 1%).
    pub min_improvement: f64,
    /// Lower bound of the token search range.
    pub min_tokens: u32,
    /// Upper bound of the token search range.
    pub max_tokens: u32,
    /// If true, never propose more tokens than the job requested — the
    /// paper's optimal allocation trades *down* from the default, so the
    /// request acts as a per-job ceiling.
    pub cap_at_request: bool,
    /// If true, emit [`AllocationDecision::Automatic`]; otherwise show the
    /// curve to the user.
    pub automatic: bool,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        Self {
            min_improvement: 0.01,
            min_tokens: 1,
            max_tokens: 6287,
            cap_at_request: true,
            automatic: true,
        }
    }
}

/// Relative tolerance for the serve-time monotonicity check: point-wise
/// curves (XGBoost SS) may wiggle slightly without being degraded away,
/// but a curve that *rises* by more than this fraction anywhere violates
/// the PCC contract and falls through to the next tier.
const MONOTONE_TOLERANCE: f64 = 0.05;

/// The deployed scoring service: loads model artifacts from the store and
/// scores incoming jobs from their compile-time plans alone.
///
/// Serving degrades gracefully through a tier chain: the primary model,
/// then (when available) a fallback trained model from the other family,
/// then an analytic Amdahl baseline computed from the submitted plan
/// itself. A prediction is rejected — falling through to the next tier —
/// when it is non-finite or violates PCC monotonicity beyond
/// [`MONOTONE_TOLERANCE`]. [`ScoringService::score`] therefore always
/// produces a response for a structurally sound plan.
pub struct ScoringService {
    tiers: Vec<(ServedTier, Box<dyn PccPredictor + Send + Sync>)>,
    config: ScoringConfig,
}

impl ScoringService {
    /// Deploy from a model store.
    ///
    /// Fails with a typed error when the artifact backing the requested
    /// primary model cannot be loaded; the fallback tier is best-effort.
    pub fn deploy(
        store: &ModelStore,
        choice: ModelChoice,
        config: ScoringConfig,
    ) -> Result<Self, DeployError> {
        let primary = Self::load_model(store, choice)
            .map_err(|cause| DeployError::PrimaryUnavailable { choice, cause })?;
        let mut tiers = vec![(ServedTier::Primary, primary)];
        if let Ok(fallback) = Self::load_model(store, Self::fallback_choice(choice)) {
            tiers.push((ServedTier::Fallback, fallback));
        }
        Ok(Self { tiers, config })
    }

    /// Deploy without failing: load whichever of the primary and fallback
    /// artifacts are present (possibly neither) and rely on the analytic
    /// tier for anything that cannot be served by a trained model. This is
    /// the degraded-operation entry point — a scoring endpoint stays up
    /// even with an empty or corrupt model store.
    pub fn deploy_degraded(store: &ModelStore, choice: ModelChoice, config: ScoringConfig) -> Self {
        let mut tiers = Vec::new();
        if let Ok(primary) = Self::load_model(store, choice) {
            tiers.push((ServedTier::Primary, primary));
        }
        if let Ok(fallback) = Self::load_model(store, Self::fallback_choice(choice)) {
            tiers.push((ServedTier::Fallback, fallback));
        }
        Self { tiers, config }
    }

    /// A service with no trained tiers at all: every request is answered
    /// by the analytic Amdahl baseline. This is the cheap load-shedding
    /// path a serving front end falls back to under pressure — it needs
    /// no model store and performs no model inference.
    pub fn analytic(config: ScoringConfig) -> Self {
        Self { tiers: Vec::new(), config }
    }

    /// The scoring configuration this service was deployed with.
    pub fn config(&self) -> &ScoringConfig {
        &self.config
    }

    /// Number of trained tiers backing this service (0–2); the analytic
    /// tier is implicit and always present.
    pub fn trained_tier_count(&self) -> usize {
        self.tiers.len()
    }

    fn load_model(
        store: &ModelStore,
        choice: ModelChoice,
    ) -> Result<Box<dyn PccPredictor + Send + Sync>, StoreError> {
        Ok(match choice {
            ModelChoice::Nn => Box::new(store.load_latest::<NnPcc>(NN_MODEL_NAME)?),
            ModelChoice::XgboostSs => {
                Box::new(XgboostSs::new(store.load_latest::<XgbRuntime>(XGB_MODEL_NAME)?))
            }
            ModelChoice::XgboostPl => {
                Box::new(XgboostPl::new(store.load_latest::<XgbRuntime>(XGB_MODEL_NAME)?))
            }
        })
    }

    /// The trained model that backs the fallback tier: the other family,
    /// preferring parametric (power-law) predictors whose monotonicity is
    /// guaranteed by construction.
    fn fallback_choice(choice: ModelChoice) -> ModelChoice {
        match choice {
            ModelChoice::Nn => ModelChoice::XgboostPl,
            ModelChoice::XgboostSs | ModelChoice::XgboostPl => ModelChoice::Nn,
        }
    }

    /// Score a submitted job from its compile-time plan. Predictions that
    /// fail validation fall through the tier chain, and the analytic
    /// Amdahl tier always produces a usable curve, so every structurally
    /// sound plan gets a response.
    ///
    /// Each tier's inputs are built when that tier is reached and not
    /// before: the trained tiers read the 51 job-level features (of the
    /// stage structure, only the stage *count*), the analytic tier reads
    /// the stage graph with its seeded task durations, and operator-level
    /// features are read by no deployable model and never built.
    ///
    /// # Panics
    /// Panics on a plan that fails [`scope_sim::check_structure`] (empty,
    /// an edge out of range, a cycle). [`JobPlan::new`](scope_sim::JobPlan::new)
    /// cannot build one but a decoder can: check decoded jobs before
    /// scoring them, as the serving front end does at admission.
    pub fn score(&self, job: &Job) -> ScoreResponse {
        let trained = if self.tiers.is_empty() {
            // The analytic service reads no features at all.
            None
        } else {
            Self::with_trained_input(job, |input| {
                self.tiers.iter().find_map(|(tier, model)| {
                    let predicted = model.predict(input);
                    let at_request = Self::usable(&predicted, input.reference_tokens)?;
                    Some((*tier, predicted, at_request))
                })
            })
        };
        let (served_tier, predicted, at_request) = trained.unwrap_or_else(|| {
            let stage_graph = StageGraph::from_plan(&job.plan, job.seed);
            let predicted = Self::analytic_pcc(&stage_graph);
            let at_request = predicted.predict(job.requested_tokens.max(1));
            (ServedTier::Analytic, predicted, at_request)
        });
        self.respond(job, served_tier, &predicted, at_request)
    }

    /// Evaluate the *primary* tier's raw prediction for a job on a token
    /// grid, with no tier degradation applied. Returns `None` when no
    /// primary tier is deployed (degraded or analytic-only services).
    ///
    /// Deploy probes pass the result to [`crate::validate::validate_curve`]
    /// to audit the served model's monotonicity before promoting it; the
    /// degradation chain in [`ScoringService::score`] would otherwise mask
    /// a broken primary by silently answering from a lower tier.
    pub fn primary_curve(&self, job: &Job, tokens: &[u32]) -> Option<Vec<(u32, f64)>> {
        let (tier, model) = self.tiers.first()?;
        if *tier != ServedTier::Primary {
            return None;
        }
        let predicted = Self::with_trained_input(job, |input| model.predict(input));
        Some(tokens.iter().map(|&t| (t, predicted.predict(t.max(1)))).collect())
    }

    /// Hand `predict` what a deployable trained model reads of a job: the
    /// job-level features, with the stage count taken without building
    /// the stage graph, and no operator-level features.
    fn with_trained_input<R>(job: &Job, predict: impl FnOnce(&ScoringInput<'_>) -> R) -> R {
        let features = featurize_job(&job.plan, StageGraph::count_stages(&job.plan));
        predict(&ScoringInput {
            features: &features,
            op_features: None,
            reference_tokens: job.requested_tokens.max(1),
        })
    }

    /// Turn the serving tier's curve into the response: the optimal token
    /// count within the configured range and the scheduler-facing decision.
    /// `at_request` is the curve's run time at the job's requested tokens,
    /// which the tier walk has already computed.
    fn respond(
        &self,
        job: &Job,
        served_tier: ServedTier,
        predicted: &PredictedPcc,
        at_request: f64,
    ) -> ScoreResponse {
        let reference_tokens = job.requested_tokens.max(1);
        let min_tokens = self.config.min_tokens.max(1);
        let max_tokens = self.config.max_tokens.max(min_tokens);
        let ceiling = if self.config.cap_at_request {
            max_tokens.min(reference_tokens).max(min_tokens)
        } else {
            max_tokens
        };
        let optimal_tokens = self.optimal_tokens(predicted, min_tokens, ceiling);
        let decision = if self.config.automatic {
            AllocationDecision::Automatic { tokens: optimal_tokens }
        } else {
            AllocationDecision::ShowCurve { curve: self.sample_curve(predicted) }
        };
        ScoreResponse {
            job_id: job.id,
            predicted_runtime_at_request: at_request,
            optimal_tokens,
            decision,
            served_tier,
        }
    }

    /// Serve-time validation: finite at the reference allocation and
    /// monotone non-increasing within tolerance. A usable curve's run time
    /// at the reference allocation is returned, for the response.
    fn usable(predicted: &PredictedPcc, reference_tokens: u32) -> Option<f64> {
        let at_request = predicted.predict(reference_tokens.max(1));
        (at_request.is_finite() && predicted.is_non_increasing(MONOTONE_TOLERANCE))
            .then_some(at_request)
    }

    /// The analytic tier: extract per-stage serial/parallel splits from
    /// the submitted plan's stage graph (Amdahl's law, `T = S + P/N` per
    /// stage) and fit a power law through log-spaced samples. Requires no
    /// trained artifact, so it can never be missing.
    fn analytic_pcc(stage_graph: &StageGraph) -> PredictedPcc {
        let model = AmdahlModel::from_stage_graph(stage_graph);
        let mut points = Vec::new();
        let mut tokens = 1u32;
        while tokens <= 4096 {
            points.push((tokens as f64, model.predict_runtime(tokens)));
            tokens *= 2;
        }
        // A zero-work plan yields all-zero run times, which no power law
        // fits; serve a flat one-second floor rather than failing.
        let pcc = PowerLawPcc::fit(&points).unwrap_or(PowerLawPcc { a: 0.0, b: 1.0 });
        PredictedPcc::PowerLaw(pcc)
    }

    fn optimal_tokens(&self, predicted: &PredictedPcc, min_tokens: u32, max_tokens: u32) -> u32 {
        match predicted.power_law() {
            Some(pcc) => pcc.optimal_tokens(
                self.config.min_improvement,
                min_tokens,
                max_tokens,
            ),
            None => {
                // Point-wise curve: scan for the last token count whose
                // marginal improvement clears the threshold.
                let mut best = min_tokens;
                let mut prev = predicted.predict(min_tokens);
                let mut t = min_tokens;
                while t < max_tokens {
                    let next_t = (t + (t / 10).max(1)).min(max_tokens);
                    let next = predicted.predict(next_t);
                    let per_token_gain =
                        (prev - next) / prev / (next_t - t).max(1) as f64;
                    if per_token_gain >= self.config.min_improvement {
                        best = next_t;
                    }
                    prev = next;
                    t = next_t;
                }
                best
            }
        }
    }

    fn sample_curve(&self, predicted: &PredictedPcc) -> Vec<(u32, f64)> {
        let mut curve = Vec::new();
        let mut t = self.config.min_tokens.max(1);
        while t <= self.config.max_tokens {
            curve.push((t, predicted.predict(t)));
            t = (t as f64 * 1.5).ceil() as u32;
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 20, ..Default::default() },
            nn: NnTrainConfig { epochs: 10, ..Default::default() },
            ..Default::default()
        }
    }

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    #[test]
    fn end_to_end_train_and_score() {
        let repo = JobRepository::new();
        repo.ingest(jobs(25, 81));
        let store = ModelStore::new();
        let pipeline = TasqPipeline::new(quick_config());
        let dataset = pipeline.train(&repo, &store).expect("trains");
        assert_eq!(dataset.len(), 25);
        assert_eq!(store.versions(NN_MODEL_NAME), vec![1]);
        assert_eq!(store.versions(XGB_MODEL_NAME), vec![1]);

        let service =
            ScoringService::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap();
        for job in jobs(5, 99) {
            let response = service.score(&job);
            assert_eq!(response.job_id, job.id);
            assert!(response.predicted_runtime_at_request >= 1.0);
            assert!((1..=6287).contains(&response.optimal_tokens));
            assert!(matches!(response.decision, AllocationDecision::Automatic { .. }));
            // The NN is monotone by construction, so the primary serves.
            assert_eq!(response.served_tier, ServedTier::Primary);
        }
    }

    #[test]
    fn scoring_with_curve_decision() {
        let repo = JobRepository::new();
        repo.ingest(jobs(15, 83));
        let store = ModelStore::new();
        TasqPipeline::new(quick_config()).train(&repo, &store).expect("trains");
        let service = ScoringService::deploy(
            &store,
            ModelChoice::XgboostSs,
            ScoringConfig { automatic: false, ..Default::default() },
        )
        .unwrap();
        let response = service.score(&jobs(1, 101).remove(0));
        match response.decision {
            AllocationDecision::ShowCurve { curve } => {
                assert!(curve.len() > 5);
                assert!(curve.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("expected curve, got {other:?}"),
        }
    }

    #[test]
    fn model_store_versioning() {
        let store = ModelStore::new();
        let v1 = store.register("m", &42u64).unwrap();
        let v2 = store.register("m", &43u64).unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(store.load_latest::<u64>("m"), Ok(43));
        assert_eq!(store.load_version::<u64>("m", 1), Ok(42));
        assert_eq!(
            store.load_version::<u64>("m", 9),
            Err(StoreError::MissingVersion { name: "m".into(), version: 9 })
        );
        assert_eq!(
            store.load_latest::<u64>("missing"),
            Err(StoreError::MissingModel { name: "missing".into() })
        );
    }

    #[test]
    fn nn_artifact_roundtrips_through_store() {
        let repo = JobRepository::new();
        repo.ingest(jobs(12, 85));
        let store = ModelStore::new();
        let pipeline = TasqPipeline::new(quick_config());
        let dataset = pipeline.train(&repo, &store).expect("trains");
        let loaded: NnPcc = store.load_latest(NN_MODEL_NAME).unwrap();
        // Loaded model must predict identically to a fresh in-memory one.
        let fresh = NnPcc::train(&dataset, &quick_config().nn);
        for e in &dataset.examples {
            let a = loaded.predict_pcc(&e.features);
            let b = fresh.predict_pcc(&e.features);
            assert!((a.a - b.a).abs() < 1e-12 && (a.b - b.b).abs() < 1e-9);
        }
    }

    #[test]
    fn repository_basics() {
        let repo = JobRepository::new();
        assert!(repo.is_empty());
        repo.ingest(jobs(3, 87));
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.all_jobs().len(), 3);
    }

    #[test]
    fn disk_store_roundtrips_and_versions() {
        let dir = std::env::temp_dir().join(format!("tasq-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskModelStore::open(&dir).unwrap();
        assert!(store.versions("m").is_empty());
        assert_eq!(store.register("m", &41u64).unwrap(), 1);
        assert_eq!(store.register("m", &42u64).unwrap(), 2);
        assert_eq!(store.versions("m"), vec![1, 2]);
        assert_eq!(store.load_latest::<u64>("m"), Ok(42));
        assert_eq!(store.load_version::<u64>("m", 1).unwrap(), 41);
        assert_eq!(
            store.load_latest::<u64>("missing"),
            Err(StoreError::MissingModel { name: "missing".into() })
        );
        assert!(matches!(
            store.load_version::<u64>("m", 9),
            Err(StoreError::MissingVersion { version: 9, .. })
        ));
        // A trained NN survives the disk round trip.
        let jobs = jobs(8, 95);
        let dataset = Dataset::build(&jobs, &AugmentConfig::default());
        let nn = NnPcc::train(&dataset, &NnTrainConfig { epochs: 3, ..Default::default() });
        store.register("nn", &nn).unwrap();
        let loaded: NnPcc = store.load_latest("nn").unwrap();
        let a = nn.predict_pcc(&dataset.examples[0].features);
        let b = loaded.predict_pcc(&dataset.examples[0].features);
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_refuses_torn_and_corrupt_artifacts() {
        let dir = std::env::temp_dir().join(format!("tasq-store-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskModelStore::open(&dir).unwrap();
        store.register("m", &1234u64).unwrap();
        let path = dir.join("m.v1.bin");
        let intact = std::fs::read(&path).unwrap();

        // Truncated: a crash tears only the commit's temp, so a short
        // committed file was damaged after commit.
        std::fs::write(&path, &intact[..intact.len() - 3]).unwrap();
        assert!(matches!(
            store.load_version::<u64>("m", 1),
            Err(StoreError::Damaged { version: 1, .. })
        ));

        // Bit rot: flip one payload byte — CRC refuses before decode.
        let mut rotten = intact.clone();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x40;
        std::fs::write(&path, &rotten).unwrap();
        assert!(matches!(store.load_version::<u64>("m", 1), Err(StoreError::Damaged { .. })));

        // The intact bytes still load.
        std::fs::write(&path, &intact).unwrap();
        assert_eq!(store.load_version::<u64>("m", 1).unwrap(), 1234);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_refuses_a_matrix_whose_shape_does_not_fit_its_data() {
        let dir = std::env::temp_dir().join(format!("tasq-store-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskModelStore::open(&dir).unwrap();
        let dataset = Dataset::build(&jobs(8, 95), &AugmentConfig::default());
        let nn = NnPcc::train(&dataset, &NnTrainConfig { epochs: 1, ..Default::default() });
        let mut bytes = codec::to_bytes(&nn).unwrap();
        // An `NnPcc` opens with its layer count (8 bytes), then the first
        // weight's `rows`: one more row than its data holds. The CRC frame
        // is written over the bad bytes, so only the decoder can object.
        let rows = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        bytes[8..16].copy_from_slice(&(rows + 1).to_le_bytes());
        tasq_resil::snapshot::commit(&store.artifact_path("nn", 1), &bytes).unwrap();
        assert!(matches!(
            store.load_latest::<NnPcc>("nn"),
            Err(StoreError::Corrupt { version: 1, cause: codec::CodecError::Invalid(_), .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit `bytes` as version 1 of artifact `name` in a fresh disk
    /// store under a CRC frame, so only the decoder can object to them.
    fn disk_store_holding(tag: &str, name: &str, bytes: &[u8]) -> DiskModelStore {
        let dir = std::env::temp_dir().join(format!("tasq-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskModelStore::open(&dir).unwrap();
        tasq_resil::snapshot::commit(&store.artifact_path(name, 1), bytes).unwrap();
        store
    }

    /// Wire bytes of a one-tree booster over `num_features` features; the
    /// tree is a node list, `Some((feature, left, right))` a split and
    /// `None` a leaf. Written out by hand because no constructor makes a
    /// bad tree.
    fn booster_bytes(nodes: &[Option<(usize, usize, usize)>], num_features: usize) -> Vec<u8> {
        let mut out = Vec::new();
        tasq_ml::gbdt::Objective::SquaredError.encode(&mut out);
        0.0f64.encode(&mut out);
        1.0f64.encode(&mut out);
        1usize.encode(&mut out);
        nodes.len().encode(&mut out);
        for node in nodes {
            match *node {
                Some((feature, left, right)) => {
                    0u32.encode(&mut out);
                    feature.encode(&mut out);
                    0.5f64.encode(&mut out);
                    0u8.encode(&mut out);
                    left.encode(&mut out);
                    right.encode(&mut out);
                }
                None => {
                    1u32.encode(&mut out);
                    2.0f64.encode(&mut out);
                }
            }
        }
        num_features.encode(&mut out);
        Vec::<f64>::new().encode(&mut out);
        out
    }

    #[test]
    fn disk_store_refuses_trees_that_would_wedge_or_overrun_prediction() {
        use codec::CodecError;
        use tasq_ml::gbdt::Booster;
        let load = |tag: &str, bytes: Vec<u8>| {
            let store = disk_store_holding(tag, "xgb", &bytes);
            let loaded = store.load_latest::<Booster>("xgb");
            let _ = std::fs::remove_dir_all(&store.directory);
            loaded
        };
        // The hand-written layout is the real one: a sound tree loads and
        // predicts through its split.
        let sound = load("tree-ok", booster_bytes(&[Some((0, 1, 2)), None, None], 1));
        assert!((sound.expect("a sound booster loads").predict_row(&[0.0]) - 2.0).abs() < 1e-12);
        for (tag, trees, num_features) in [
            // A child pointing at its own split: predict_row would spin.
            ("tree-loop", [Some((0, 0, 2)), None, None], 1),
            // A child pointing back at the root from a deeper split.
            ("tree-back", [Some((0, 1, 2)), Some((0, 0, 2)), None], 1),
            // A child past the end of the arena.
            ("tree-past", [Some((0, 1, 3)), None, None], 1),
            // A split on a feature the booster does not have.
            ("tree-feature", [Some((1, 1, 2)), None, None], 1),
        ] {
            let loaded = load(tag, booster_bytes(&trees, num_features));
            assert!(
                matches!(loaded, Err(StoreError::Corrupt { cause: CodecError::Invalid(_), .. })),
                "{tag} was not refused as corrupt"
            );
        }
    }

    #[test]
    fn disk_store_refuses_a_network_whose_layer_widths_do_not_chain() {
        use rand::SeedableRng;
        use tasq_ml::nn::{Activation, Mlp};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[4, 3, 2], Activation::Relu, Activation::Identity);
        // Shape-consistent on its own, one row too many for its input.
        mlp.layers_mut()[1].weight = tasq_ml::Matrix::zeros(4, 2);
        let store = disk_store_holding("mlp-chain", "nn", &codec::to_bytes(&mlp).unwrap());
        assert!(matches!(
            store.load_latest::<Mlp>("nn"),
            Err(StoreError::Corrupt { version: 1, cause: codec::CodecError::Invalid(_), .. })
        ));
        let _ = std::fs::remove_dir_all(&store.directory);
    }

    #[test]
    fn disk_store_refuses_an_nn_whose_parts_do_not_fit_together() {
        use crate::featurize::{JobFeatures, JOB_FEATURE_DIM};
        use crate::pcc::ParamScaler;
        use codec::CodecError;
        use rand::SeedableRng;
        use tasq_ml::nn::{Activation, Mlp};
        // Wire bytes of an `NnPcc`: the network over `sizes`, a scaler of
        // `means` means and `inv_stds` deviations, a unit parameter scaler
        // and no loss history. Written out by hand because no constructor
        // makes a model whose parts disagree.
        let nn_bytes = |sizes: &[usize], means: usize, inv_stds: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut out = Vec::new();
            Mlp::new(&mut rng, sizes, Activation::Relu, Activation::Identity).encode(&mut out);
            vec![0.0f64; means].encode(&mut out);
            vec![1.0f64; inv_stds].encode(&mut out);
            ParamScaler { scale_neg_a: 1.0, scale_log_b: 1.0 }.encode(&mut out);
            Vec::<f64>::new().encode(&mut out);
            Vec::<f64>::new().encode(&mut out);
            out
        };
        let load = |tag: &str, bytes: Vec<u8>| {
            let store = disk_store_holding(tag, "nn", &bytes);
            let loaded = store.load_latest::<NnPcc>("nn");
            let _ = std::fs::remove_dir_all(&store.directory);
            loaded
        };
        let width = JOB_FEATURE_DIM;
        // The hand-written layout is the real one: a sound model loads
        // and predicts.
        let sound = load("nn-ok", nn_bytes(&[width, 3, 2], width, width));
        let features = JobFeatures { values: vec![1.0; width] };
        let pcc = sound.expect("a sound NN loads").predict_pcc(&features);
        assert!(pcc.a.is_finite() && pcc.b.is_finite());
        for (tag, sizes, means, inv_stds) in [
            // A scaler as wide as the features feeding a narrower network.
            ("nn-input", vec![width - 1, 3, 2], width, width),
            // A scaler and network that agree but not with the features.
            ("nn-features", vec![4, 3, 2], 4, 4),
            // An output that is not the two power-law parameters.
            ("nn-output", vec![width, 3, 3], width, width),
            // A scaler with one deviation fewer than it has means.
            ("nn-scaler", vec![width, 3, 2], width, width - 1),
        ] {
            let loaded = load(tag, nn_bytes(&sizes, means, inv_stds));
            assert!(
                matches!(loaded, Err(StoreError::Corrupt { cause: CodecError::Invalid(_), .. })),
                "{tag} was not refused as corrupt"
            );
        }
    }

    #[test]
    fn disk_store_refuses_a_booster_not_as_wide_as_the_rows_it_scores() {
        use crate::featurize::JOB_FEATURE_DIM;
        use codec::CodecError;
        let load = |tag: &str, num_features: usize| {
            // `XgbRuntime` is encoded as its booster.
            let bytes = booster_bytes(&[Some((0, 1, 2)), None, None], num_features);
            let store = disk_store_holding(tag, "xgb", &bytes);
            let loaded = store.load_latest::<XgbRuntime>("xgb");
            let _ = std::fs::remove_dir_all(&store.directory);
            loaded
        };
        // Job features plus the token column: loads and predicts.
        let sound = load("xgb-width-ok", JOB_FEATURE_DIM + 1).expect("a sound booster loads");
        let runtime = sound.predict_runtime(&[0.0; JOB_FEATURE_DIM], 8);
        assert!((runtime - 2.0).abs() < 1e-12);
        for (tag, num_features) in
            [("xgb-narrow", 1), ("xgb-no-tokens", JOB_FEATURE_DIM), ("xgb-wide", JOB_FEATURE_DIM + 2)]
        {
            assert!(
                matches!(
                    load(tag, num_features),
                    Err(StoreError::Corrupt { cause: CodecError::Invalid(_), .. })
                ),
                "{tag} was not refused as corrupt"
            );
        }
    }

    #[test]
    fn deploy_missing_artifact_is_a_typed_error() {
        let store = ModelStore::new();
        let err = ScoringService::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
            .err()
            .expect("empty store cannot back a strict deployment");
        assert_eq!(
            err,
            DeployError::PrimaryUnavailable {
                choice: ModelChoice::Nn,
                cause: StoreError::MissingModel { name: NN_MODEL_NAME.into() },
            }
        );
        assert!(err.to_string().contains("unavailable"));
    }

    #[test]
    fn train_rejects_invalid_jobs_with_a_typed_error() {
        let mut batch = jobs(3, 91);
        // Corrupt one plan the way a damaged repository would: a feature
        // no generated plan can carry, injected behind the constructor.
        batch[1].plan.operators[0].est_exclusive_cost = f64::NAN;
        let expected_id = batch[1].id;
        let dir = checkpoint_dir("invalid");
        // The gate runs before the first commit, with a sink or without.
        for with_sink in [false, true] {
            let repo = JobRepository::new();
            repo.ingest(batch.clone());
            let store = ModelStore::new();
            let mut sink = CheckpointSink::open(&dir, None).unwrap();
            let err = TasqPipeline::new(quick_config())
                .train_with_sink(
                    &repo,
                    &store,
                    &tasq_par::Pool::new(2),
                    with_sink.then_some(&mut sink),
                )
                .unwrap_err();
            match &err {
                PipelineError::InvalidJob { job_id, detail } => {
                    assert_eq!(*job_id, expected_id);
                    assert!(!detail.is_empty());
                }
                other => panic!("expected InvalidJob, got {other:?}"),
            }
            assert!(err.to_string().contains("failed plan validation"));
            // Nothing was registered: the batch was refused before training.
            assert!(store.versions(NN_MODEL_NAME).is_empty());
            assert!(store.versions(XGB_MODEL_NAME).is_empty());
            for stage in CHECKPOINT_STAGES {
                assert!(!sink.stage_path(stage).exists(), "stage {stage}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh (absent) checkpoint directory for one test.
    fn checkpoint_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tasq-pipeline-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 6, ..Default::default() },
            nn: NnTrainConfig { epochs: 4, ..Default::default() },
            ..Default::default()
        }
    }

    /// One run of the pipeline under `dir` on two threads, resuming what
    /// it holds.
    fn train_checkpointed(
        jobs: &[Job],
        config: &PipelineConfig,
        dir: &Path,
        kill_after: Option<u64>,
    ) -> Result<CheckpointSink, PipelineError> {
        train_checkpointed_on(&tasq_par::Pool::new(2), jobs, config, dir, kill_after)
    }

    /// [`train_checkpointed`] on `pool`.
    fn train_checkpointed_on(
        pool: &tasq_par::Pool,
        jobs: &[Job],
        config: &PipelineConfig,
        dir: &Path,
        kill_after: Option<u64>,
    ) -> Result<CheckpointSink, PipelineError> {
        let repo = JobRepository::new();
        repo.ingest(jobs.to_vec());
        let mut sink = CheckpointSink::open(dir, kill_after).unwrap();
        TasqPipeline::new(config.clone()).train_with_sink(
            &repo,
            &ModelStore::new(),
            pool,
            Some(&mut sink),
        )?;
        Ok(sink)
    }

    /// Every file of `dir`, by name, with its bytes.
    fn directory_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Make `dir` hold exactly `files`.
    fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }

    /// A kill after each of the five commits, on one thread (the fits one
    /// after the other) and on two (side by side): both report that
    /// commit's stage and count and leave the uninterrupted run's first
    /// files, byte for byte. The killed directory is killed once more
    /// after each of the resumed run's own commits, so a resume that fits
    /// both models, one or none is covered too, and a full resume reaches
    /// the uninterrupted run's fingerprint and files.
    #[test]
    fn kill_at_every_commit_and_resume_is_bit_identical() {
        let jobs = jobs(6, 3);
        let config = tiny_config();
        let pools = [tasq_par::Pool::sequential(), tasq_par::Pool::new(2)];

        let reference_dir = checkpoint_dir("reference");
        let reference = train_checkpointed(&jobs, &config, &reference_dir, None).unwrap();
        assert!(!reference.resumed);
        assert_eq!((reference.commits(), reference.recovered_stages), (5, 0));
        let reference_files = directory_bytes(&reference_dir);

        let killed = |pool, dir: &Path, kill| {
            match train_checkpointed_on(pool, &jobs, &config, dir, Some(kill)) {
                Err(PipelineError::Killed { stage, commits }) => (stage, commits),
                other => panic!("kill {kill} did not fire: {:?}", other.map(|s| s.commits())),
            }
        };
        for (kill, stage) in (1..).zip(CHECKPOINT_STAGES) {
            let dir = checkpoint_dir(&format!("kill{kill}"));
            let stages = &CHECKPOINT_STAGES[..kill as usize];
            let left: Vec<_> = reference_files
                .iter()
                .filter(|(name, _)| stages.iter().any(|s| *name == format!("{s}.ckpt")))
                .cloned()
                .collect();
            for pool in &pools {
                let what = format!("kill {kill} on {} threads", pool.threads());
                assert_eq!(killed(pool, &dir, kill), (stage, kill), "{what}");
                assert_eq!(directory_bytes(&dir), left, "{what}: the records left differ");
                let _ = std::fs::remove_dir_all(&dir);
            }
            for pool in &pools {
                let what = format!("kill {kill}, resumed on {} threads", pool.threads());
                for again in 1..=5 - kill {
                    restore(&dir, &left);
                    let next = CHECKPOINT_STAGES[(kill + again) as usize - 1];
                    assert_eq!(killed(pool, &dir, again), (next, again), "{what}, then {again}");
                }
                restore(&dir, &left);
                let resumed = train_checkpointed_on(pool, &jobs, &config, &dir, None).unwrap();
                assert!(resumed.resumed, "{what}");
                assert_eq!((resumed.recovered_stages, resumed.commits()), (stages.len(), 5 - kill));
                assert_eq!(resumed.fingerprint, reference.fingerprint, "{what}");
                assert_eq!(directory_bytes(&dir), reference_files, "{what}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&reference_dir);
    }

    /// A cold run commits exactly five records however long its fits
    /// run: the commit count does not grow with the boosting rounds or
    /// the epochs.
    #[test]
    fn a_cold_run_commits_five_records_at_any_fit_length() {
        let jobs = jobs(5, 17);
        for (rounds, epochs) in [(6, 4), (30, 20)] {
            let mut config = tiny_config();
            config.xgb.num_rounds = rounds;
            config.nn.epochs = epochs;
            let dir = checkpoint_dir(&format!("five-{rounds}"));
            let sink = train_checkpointed(&jobs, &config, &dir, None).unwrap();
            assert_eq!(sink.commits(), 5, "{rounds} rounds, {epochs} epochs");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), CHECKPOINT_STAGES.len());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The registered artifacts are the same bytes on one, two and three
    /// threads, with and without a sink.
    #[test]
    fn registered_artifacts_are_the_same_bytes_at_any_thread_count_with_or_without_a_sink() {
        let jobs = jobs(6, 21);
        let config = tiny_config();
        let repo = JobRepository::new();
        repo.ingest(jobs);
        let artifacts = |store: &ModelStore| {
            let xgb: XgbRuntime = store.load_latest(XGB_MODEL_NAME).unwrap();
            let nn: NnPcc = store.load_latest(NN_MODEL_NAME).unwrap();
            assert_eq!(store.versions(XGB_MODEL_NAME), [1]);
            assert_eq!(store.versions(NN_MODEL_NAME), [1]);
            (codec::to_bytes(&xgb).unwrap(), codec::to_bytes(&nn).unwrap())
        };
        let mut runs = Vec::new();
        for threads in [1, 2, 3] {
            let pool = tasq_par::Pool::new(threads);
            for checkpointed in [false, true] {
                let dir = checkpoint_dir(&format!("bytes-t{threads}"));
                let mut sink = checkpointed.then(|| CheckpointSink::open(&dir, None).unwrap());
                let store = ModelStore::new();
                TasqPipeline::new(config.clone())
                    .train_with_sink(&repo, &store, &pool, sink.as_mut())
                    .unwrap();
                runs.push(((threads, checkpointed), artifacts(&store)));
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let (first, rest) = runs.split_first().unwrap();
        for (run, bytes) in rest {
            assert!(*bytes == first.1, "{run:?} registered other bytes than {:?}", first.0);
        }
    }

    /// A crash in the middle of the commit after the kill's leaves that
    /// stage's image, cut short, in its temp and no committed file: the
    /// resume never reads the temp, and its own commit of the stage
    /// replaces it.
    #[test]
    fn torn_temp_after_kill_still_resumes_bit_identically() {
        let jobs = jobs(5, 9);
        let config = tiny_config();

        let reference_dir = checkpoint_dir("torn-ref");
        let reference = train_checkpointed(&jobs, &config, &reference_dir, None).unwrap();

        let chaos_dir = checkpoint_dir("torn-chaos");
        let Err(PipelineError::Killed { stage, .. }) =
            train_checkpointed(&jobs, &config, &chaos_dir, Some(3))
        else {
            panic!("kill did not fire")
        };
        assert_eq!(stage, STAGE_GBDT);
        // The `nn` commit the kill cut short: the uninterrupted run's image.
        let image = std::fs::read(reference_dir.join(format!("{STAGE_NN}.ckpt"))).unwrap();
        assert!(image.len() > 7);
        let path = chaos_dir.join(format!("{STAGE_NN}.ckpt"));
        let tmp = snapshot::tmp_path(&path);
        std::fs::write(&tmp, &image[..image.len() - 7]).unwrap();

        let resumed = train_checkpointed(&jobs, &config, &chaos_dir, None).unwrap();
        assert!(resumed.resumed);
        // `manifest`, `dataset` and `gbdt` were committed; `nn` was fitted.
        assert_eq!((resumed.recovered_stages, resumed.commits()), (3, 2));
        assert_eq!(resumed.fingerprint, reference.fingerprint);
        // The stage's commit replaced the torn temp.
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&path).unwrap(), image);
        let _ = std::fs::remove_dir_all(&chaos_dir);
        let _ = std::fs::remove_dir_all(&reference_dir);
    }

    #[test]
    fn each_stage_file_is_one_snapshot_of_its_last_record() {
        let jobs = jobs(5, 13);
        let config = tiny_config();
        let dir = checkpoint_dir("one-snapshot");
        let sink = train_checkpointed(&jobs, &config, &dir, None).unwrap();

        // Each stage's record, rebuilt without a sink: the fitted models
        // in their artifact encoding.
        let dataset = Dataset::build_with_pool(&jobs, &config.augment, &tasq_par::Pool::new(2));
        let manifest = ManifestRecord {
            workload_digest: digest_bytes(&codec::to_bytes(&jobs).unwrap()),
            config_digest: digest_bytes(format!("{config:?}").as_bytes()),
        };
        let records = [
            codec::to_bytes(&manifest).unwrap(),
            codec::to_bytes(&DatasetRecord {
                examples: dataset.len() as u64,
                digest: sink.dataset_digest,
            })
            .unwrap(),
            codec::to_bytes(&XgbRuntime::train(&dataset, &config.xgb)).unwrap(),
            codec::to_bytes(&NnPcc::train(&dataset, &config.nn)).unwrap(),
            codec::to_bytes(&DoneRecord { fingerprint: sink.fingerprint }).unwrap(),
        ];
        for (stage, record) in CHECKPOINT_STAGES.iter().zip(&records) {
            let file = std::fs::read(sink.stage_path(stage)).unwrap();
            assert_eq!(file.len(), snapshot::SNAP_HEADER_LEN + record.len(), "stage {stage}");
            assert_eq!(&snapshot::load_bytes(&file).unwrap(), record, "stage {stage}");
        }
        // Nothing else: no temp outlives its commit.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), CHECKPOINT_STAGES.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_against_a_different_workload_is_refused() {
        let config = tiny_config();
        let s = checkpoint_dir("mismatch");
        train_checkpointed(&jobs(5, 1), &config, &s, None).unwrap();
        let mut longer = config.clone();
        longer.nn.epochs += 1;
        let mut slower = config.clone();
        slower.xgb.learning_rate *= 0.5;
        // Another workload, then the same workload trained for longer or
        // at another learning rate.
        for (other_jobs, other_config) in
            [(jobs(5, 2), &config), (jobs(5, 1), &longer), (jobs(5, 1), &slower)]
        {
            let Err(err) = train_checkpointed(&other_jobs, other_config, &s, None) else {
                panic!("resume against another run must be refused")
            };
            assert!(
                matches!(err, PipelineError::CheckpointMismatch { stage: "manifest", .. }),
                "{err:?}"
            );
            assert!(err.to_string().contains("does not match"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&s);
    }

    #[test]
    fn primary_curve_exposes_the_raw_primary_prediction() {
        let repo = JobRepository::new();
        repo.ingest(jobs(15, 93));
        let store = ModelStore::new();
        TasqPipeline::new(quick_config()).train(&repo, &store).expect("trains");
        let service =
            ScoringService::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap();
        let job = jobs(1, 97).remove(0);
        let grid: Vec<u32> = (0..8).map(|i| 1u32 << i).collect();
        let curve = service.primary_curve(&job, &grid).expect("primary tier deployed");
        assert_eq!(curve.len(), grid.len());
        assert!(curve.iter().zip(&grid).all(|(&(t, r), &g)| t == g && r.is_finite() && r > 0.0));
        // The NN primary is monotone by construction: the deploy probe's
        // curve audit passes.
        let tolerance = crate::validate::CURVE_TOLERANCE;
        assert!(crate::validate::validate_curve(&curve, tolerance).is_ok());
        // Services without a primary tier expose no curve to probe.
        let analytic = ScoringService::analytic(ScoringConfig::default());
        assert!(analytic.primary_curve(&job, &grid).is_none());
    }

    #[test]
    fn train_on_empty_repository_is_a_typed_error() {
        let repo = JobRepository::new();
        let store = ModelStore::new();
        let err = TasqPipeline::new(quick_config()).train(&repo, &store).unwrap_err();
        assert_eq!(err, PipelineError::EmptyRepository);
    }

    #[test]
    fn degraded_deploy_from_empty_store_serves_the_analytic_tier() {
        // No artifacts at all: the endpoint still answers every request,
        // served from the plan-derived Amdahl baseline.
        let store = ModelStore::new();
        let service =
            ScoringService::deploy_degraded(&store, ModelChoice::Nn, ScoringConfig::default());
        for job in jobs(6, 103) {
            let response = service.score(&job);
            assert_eq!(response.served_tier, ServedTier::Analytic);
            assert!(response.predicted_runtime_at_request.is_finite());
            assert!(response.predicted_runtime_at_request >= 1.0);
            assert!((1..=6287).contains(&response.optimal_tokens));
        }
    }

    #[test]
    fn corrupt_primary_artifact_degrades_to_the_fallback_tier() {
        let repo = JobRepository::new();
        repo.ingest(jobs(15, 89));
        let store = ModelStore::new();
        TasqPipeline::new(quick_config()).train(&repo, &store).expect("trains");
        // Clobber XGBoost with bytes that cannot decode as an XgbRuntime:
        // the latest primary artifact is now corrupt.
        store.register(XGB_MODEL_NAME, &0xDEAD_BEEFu64).unwrap();
        assert!(matches!(
            ScoringService::deploy(&store, ModelChoice::XgboostPl, ScoringConfig::default()),
            Err(DeployError::PrimaryUnavailable { cause: StoreError::Corrupt { .. }, .. })
        ));
        // Degraded deployment keeps serving from the NN fallback, whose
        // predictions are monotone by construction.
        let service = ScoringService::deploy_degraded(
            &store,
            ModelChoice::XgboostPl,
            ScoringConfig::default(),
        );
        for job in jobs(4, 107) {
            let response = service.score(&job);
            assert_eq!(response.served_tier, ServedTier::Fallback);
            assert!(response.predicted_runtime_at_request >= 1.0);
        }
    }

    #[test]
    fn scoring_service_is_share_friendly() {
        // The serving layer wraps the service in an `Arc` and scores from
        // many worker threads at once; the whole tier chain must be
        // `Send + Sync` and usable through a shared reference.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScoringService>();
        assert_send_sync::<ModelStore>();
        assert_send_sync::<JobRepository>();

        let service = std::sync::Arc::new(ScoringService::analytic(ScoringConfig::default()));
        let job = jobs(1, 111).remove(0);
        let scored: Vec<ScoreResponse> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let service = std::sync::Arc::clone(&service);
                    let job = job.clone();
                    s.spawn(move || service.score(&job))
                })
                .map(|h| h.join().expect("scoring thread panicked"))
                .collect()
        });
        assert!(scored.windows(2).all(|w| w[0].optimal_tokens == w[1].optimal_tokens));
    }

    #[test]
    fn analytic_service_reports_config_and_tiers() {
        let config = ScoringConfig { min_improvement: 0.02, ..Default::default() };
        let service = ScoringService::analytic(config.clone());
        assert_eq!(service.trained_tier_count(), 0);
        assert_eq!(service.config().min_improvement, config.min_improvement);
        let response = service.score(&jobs(1, 113).remove(0));
        assert_eq!(response.served_tier, ServedTier::Analytic);
    }

    #[test]
    fn score_response_roundtrips_through_codec() {
        // Wire boundary: every response variant must survive the binary
        // codec bit-for-bit so a remote scoring client sees exactly what
        // the server produced.
        for tier in [ServedTier::Primary, ServedTier::Fallback, ServedTier::Analytic] {
            let automatic = ScoreResponse {
                job_id: 42,
                predicted_runtime_at_request: 187.5,
                optimal_tokens: 96,
                decision: AllocationDecision::Automatic { tokens: 96 },
                served_tier: tier,
            };
            let bytes = codec::to_bytes(&automatic).unwrap();
            let back: ScoreResponse = codec::from_bytes(&bytes).unwrap();
            assert_eq!(back.job_id, automatic.job_id);
            assert_eq!(back.predicted_runtime_at_request, automatic.predicted_runtime_at_request);
            assert_eq!(back.optimal_tokens, automatic.optimal_tokens);
            assert_eq!(back.served_tier, tier);
            assert!(matches!(back.decision, AllocationDecision::Automatic { tokens: 96 }));
        }
        let curve = ScoreResponse {
            job_id: 7,
            predicted_runtime_at_request: 33.0,
            optimal_tokens: 12,
            decision: AllocationDecision::ShowCurve {
                curve: vec![(1, 500.0), (10, 90.0), (100, 35.5)],
            },
            served_tier: ServedTier::Fallback,
        };
        let back: ScoreResponse = codec::from_bytes(&codec::to_bytes(&curve).unwrap()).unwrap();
        match back.decision {
            AllocationDecision::ShowCurve { curve } => {
                assert_eq!(curve, vec![(1, 500.0), (10, 90.0), (100, 35.5)]);
            }
            other => panic!("expected curve, got {other:?}"),
        }
        // Standalone tier values round-trip too (they appear inside
        // serving-stats payloads on their own).
        for tier in [ServedTier::Primary, ServedTier::Fallback, ServedTier::Analytic] {
            let back: ServedTier = codec::from_bytes(&codec::to_bytes(&tier).unwrap()).unwrap();
            assert_eq!(back, tier);
        }
    }

    #[test]
    fn score_never_panics_on_degenerate_requests() {
        // Zero requested tokens and extreme config bounds must still
        // produce a response through the analytic tier.
        let store = ModelStore::new();
        let service = ScoringService::deploy_degraded(
            &store,
            ModelChoice::XgboostSs,
            ScoringConfig { min_tokens: 0, max_tokens: 1, ..Default::default() },
        );
        let mut job = jobs(1, 109).remove(0);
        job.requested_tokens = 0;
        let response = service.score(&job);
        assert_eq!(response.served_tier, ServedTier::Analytic);
        assert_eq!(response.optimal_tokens, 1);
        assert!(response.predicted_runtime_at_request.is_finite());
    }
}

/// Differential oracle for lazy scoring: `ScoringService::score` builds
/// each tier's inputs only when that tier is reached, and this module
/// keeps the *eager* recipe it replaced — stage graph first, stage count
/// read off the graph, one feature row per operator, job features as the
/// aggregate of those rows, operator features handed to every tier — as
/// the reference. The two must agree bit for bit on every generator
/// archetype, for every served model family and both degradation routes.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::featurize::{
        featurize_operators, JobFeatures, OperatorFeatures, JOB_FEATURE_DIM, NUM_CONTINUOUS,
        NUM_DISCRETE, OP_FEATURE_DIM,
    };
    use crate::models::{GnnPcc, GnnTrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scope_sim::{Archetype, JobMeta, WorkloadConfig, WorkloadGenerator};

    const SEEDS_PER_ARCHETYPE: u64 = 32;

    /// Every archetype at 32 seeded sizes and allocations.
    fn jobs_of_every_archetype() -> Vec<Job> {
        let mut jobs = Vec::new();
        for archetype in Archetype::ALL {
            for seed in 0..SEEDS_PER_ARCHETYPE {
                let mut rng = StdRng::seed_from_u64(seed ^ ((archetype.index() as u64) << 32));
                let size_factor = rng.gen_range(0.05..20.0);
                let requested_tokens = rng.gen_range(1..=2000);
                jobs.push(Job {
                    id: jobs.len() as u64,
                    plan: archetype.build_plan(rng.gen(), size_factor, requested_tokens),
                    requested_tokens,
                    seed: rng.gen(),
                    meta: JobMeta { archetype, recurring_template: None, size_factor },
                });
            }
        }
        jobs
    }

    /// Job features as the aggregate of materialised operator rows: means of
    /// the continuous and discrete columns, sums of the one-hot columns.
    fn aggregate_rows(op_features: &OperatorFeatures, num_stages: usize) -> JobFeatures {
        let n = op_features.rows.len().max(1) as f64;
        let mut values = vec![0.0; JOB_FEATURE_DIM];
        for row in &op_features.rows {
            for i in 0..NUM_CONTINUOUS + NUM_DISCRETE {
                values[i] += row[i] / n;
            }
            for i in NUM_CONTINUOUS + NUM_DISCRETE..OP_FEATURE_DIM {
                values[i] += row[i];
            }
        }
        values[OP_FEATURE_DIM] = op_features.rows.len() as f64;
        values[OP_FEATURE_DIM + 1] = num_stages as f64;
        JobFeatures { values }
    }

    /// The eager recipe: every input of every tier built up front.
    fn eager_score(service: &ScoringService, job: &Job) -> ScoreResponse {
        let stage_graph = StageGraph::from_plan(&job.plan, job.seed);
        let op_features = featurize_operators(&job.plan);
        let features = aggregate_rows(&op_features, stage_graph.num_stages());
        let reference_tokens = job.requested_tokens.max(1);
        let input =
            ScoringInput { features: &features, op_features: Some(&op_features), reference_tokens };
        let (served_tier, predicted) = service
            .tiers
            .iter()
            .find_map(|(tier, model)| {
                let predicted = model.predict(&input);
                ScoringService::usable(&predicted, reference_tokens)
                    .is_some()
                    .then_some((*tier, predicted))
            })
            .unwrap_or_else(|| (ServedTier::Analytic, ScoringService::analytic_pcc(&stage_graph)));
        let at_request = predicted.predict(reference_tokens);
        service.respond(job, served_tier, &predicted, at_request)
    }

    fn bits(features: &JobFeatures) -> Vec<u64> {
        features.values.iter().map(|v| v.to_bits()).collect()
    }

    fn trained_store(seed: u64) -> ModelStore {
        let repo = JobRepository::new();
        repo.ingest(
            WorkloadGenerator::new(WorkloadConfig { num_jobs: 24, seed, ..Default::default() })
                .generate(),
        );
        let store = ModelStore::new();
        TasqPipeline::new(PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 12, ..Default::default() },
            nn: NnTrainConfig { epochs: 8, ..Default::default() },
            ..Default::default()
        })
        .train(&repo, &store)
        .expect("trains");
        store
    }

    #[test]
    fn stage_count_and_job_features_match_the_eager_recipe_bit_for_bit() {
        for job in jobs_of_every_archetype() {
            let graph = StageGraph::from_plan(&job.plan, job.seed);
            let count = StageGraph::count_stages(&job.plan);
            assert_eq!(count, graph.num_stages(), "{:?} job {}", job.meta.archetype, job.id);
            assert_eq!(count, job.num_stages());
            let reference = aggregate_rows(&featurize_operators(&job.plan), graph.num_stages());
            assert_eq!(
                bits(&featurize_job(&job.plan, count)),
                bits(&reference),
                "{:?} job {}",
                job.meta.archetype,
                job.id
            );
        }
    }

    #[test]
    fn lazy_score_answers_as_the_eager_recipe_did_for_every_tier_and_degradation_route() {
        let store = trained_store(301);
        let config = ScoringConfig::default;
        let deploy = |choice| ScoringService::deploy(&store, choice, config()).expect("deploys");
        // A primary artifact that no longer decodes: the fallback tier answers.
        let corrupt = trained_store(303);
        corrupt.register(XGB_MODEL_NAME, &0xDEAD_BEEFu64).expect("registers");
        let services = [
            ("nn", deploy(ModelChoice::Nn), ServedTier::Primary),
            ("xgb-pl", deploy(ModelChoice::XgboostPl), ServedTier::Primary),
            ("xgb-ss", deploy(ModelChoice::XgboostSs), ServedTier::Primary),
            ("analytic", ScoringService::analytic(config()), ServedTier::Analytic),
            (
                "corrupt primary",
                ScoringService::deploy_degraded(&corrupt, ModelChoice::XgboostPl, config()),
                ServedTier::Fallback,
            ),
            (
                "empty store",
                ScoringService::deploy_degraded(&ModelStore::new(), ModelChoice::Nn, config()),
                ServedTier::Analytic,
            ),
            // The user-facing decision samples the curve instead of one point.
            (
                "nn, curve shown",
                ScoringService::deploy(
                    &store,
                    ModelChoice::Nn,
                    ScoringConfig { automatic: false, cap_at_request: false, ..config() },
                )
                .expect("deploys"),
                ServedTier::Primary,
            ),
        ];
        let jobs = jobs_of_every_archetype();
        for (name, service, usual_tier) in &services {
            let mut served_by_usual_tier = 0;
            for job in &jobs {
                let lazy = service.score(job);
                served_by_usual_tier += (lazy.served_tier == *usual_tier) as usize;
                assert_eq!(
                    codec::to_bytes(&lazy).expect("encodes"),
                    codec::to_bytes(&eager_score(service, job)).expect("encodes"),
                    "{name}: {:?} job {}",
                    job.meta.archetype,
                    job.id
                );
            }
            // XGBoost curves may be rejected job by job (that route is compared
            // too); the named tier must still be the one mostly exercised.
            assert!(served_by_usual_tier * 2 > jobs.len(), "{name}: {served_by_usual_tier}");
        }
    }

    #[test]
    fn a_gnn_without_operator_features_is_unusable_and_with_them_predicts_as_predict_pcc() {
        let train =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: 8, seed: 307, ..Default::default() })
                .generate();
        let dataset = Dataset::build(&train, &AugmentConfig::default());
        let gnn = GnnPcc::train(
            &dataset,
            &GnnTrainConfig {
                gcn_dims: vec![8],
                head_hidden: vec![8],
                epochs: 2,
                ..Default::default()
            },
        );
        let example = &dataset.examples[0];
        let reference_tokens = example.observed_tokens;
        let mut input =
            ScoringInput { features: &example.features, op_features: None, reference_tokens };
        assert!(ScoringService::usable(&gnn.predict(&input), reference_tokens).is_none());
        input.op_features = Some(&example.op_features);
        assert_eq!(gnn.predict(&input).power_law(), Some(gnn.predict_pcc(&example.op_features)));

        // Served, it is the "every trained tier rejected" route: `score`
        // passes no operator features, so the analytic tier answers.
        let service = ScoringService {
            tiers: vec![(ServedTier::Primary, Box::new(gnn))],
            config: ScoringConfig::default(),
        };
        let analytic = ScoringService::analytic(ScoringConfig::default());
        for job in &train {
            let response = service.score(job);
            assert_eq!(response.served_tier, ServedTier::Analytic);
            assert_eq!(
                codec::to_bytes(&response).expect("encodes"),
                codec::to_bytes(&analytic.score(job)).expect("encodes")
            );
        }
    }
}
