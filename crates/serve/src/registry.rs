//! Hot-swappable model registry.
//!
//! Production scoring cannot stop for a retrain: a new model version is
//! registered in the [`ModelStore`], validated against probe jobs, and
//! only then swapped in — atomically, so concurrent scorers never observe
//! a half-updated deployment. Validation failure (undeployable artifact,
//! non-finite or degraded predictions) leaves the previous version
//! serving untouched: rollback is the *absence* of the swap, which makes
//! torn states impossible by construction.
//!
//! The swap itself is epoch-style: the whole deployment (service + its
//! provenance) lives in one [`Arc`] behind a [`std::sync::RwLock`];
//! readers clone the `Arc` under a read lock and keep scoring against
//! their snapshot even while a writer replaces the pointer. Each
//! successful swap bumps a `generation`, which the serving cache mixes
//! into its keys so stale cached predictions become unreachable.
//!
//! For crash recovery, a registry can be opened *durably*
//! ([`ModelRegistry::deploy_durable`]): every probe-validated deployment
//! is appended to a WAL-style manifest (a `tasq-resil` CRC-framed
//! [`FrameLog`]) **before** it starts serving. On restart the manifest
//! replays to the last durable record — a torn tail from a crash
//! mid-append is trimmed back to the previous record, a corrupt frame
//! (CRC mismatch) refuses recovery outright — and generation numbering
//! resumes from there, so cache keys from a previous process life can
//! never alias a post-restart deployment.

use scope_sim::Job;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use tasq::pipeline::{
    DeployError, ModelChoice, ModelStore, ScoringConfig, ScoringService, ServedTier,
    NN_MODEL_NAME, XGB_MODEL_NAME,
};
use tasq_codec::Wire;
use tasq_resil::{FrameLog, ResilError};

/// One immutable deployment: the scoring service plus its provenance.
pub struct ActiveModel {
    service: ScoringService,
    /// Model family served as the primary tier.
    pub choice: ModelChoice,
    /// Store version of the primary artifact backing this deployment.
    pub version: u32,
    /// Monotone deployment counter (1 for the initial deploy).
    pub generation: u64,
}

impl ActiveModel {
    /// The scoring service of this deployment.
    pub fn service(&self) -> &ScoringService {
        &self.service
    }
}

impl fmt::Debug for ActiveModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveModel")
            .field("choice", &self.choice)
            .field("version", &self.version)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// Why a hot-swap was refused (the previous deployment keeps serving).
#[derive(Debug)]
pub enum SwapError {
    /// The candidate artifact could not be deployed at all.
    Deploy(DeployError),
    /// The candidate deployed but failed probe validation.
    Validation {
        /// Probes scored.
        probes: usize,
        /// Probes whose response failed the checks.
        failures: usize,
        /// First observed failure, for the operator.
        detail: String,
    },
    /// The durable manifest could not record the swap; without a durable
    /// record the swap is not performed and the previous deployment
    /// keeps serving (write-ahead semantics).
    Manifest(String),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Deploy(e) => write!(f, "hot-swap rejected: {e}"),
            SwapError::Validation { probes, failures, detail } => {
                write!(f, "hot-swap rejected: {failures}/{probes} probe failures ({detail})")
            }
            SwapError::Manifest(detail) => {
                write!(f, "hot-swap rejected: manifest append failed ({detail})")
            }
        }
    }
}

impl std::error::Error for SwapError {}

impl From<DeployError> for SwapError {
    fn from(e: DeployError) -> Self {
        SwapError::Deploy(e)
    }
}

/// One durable manifest entry: a deployment that passed probe validation
/// and was (or is about to start) serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Wire)]
pub struct ManifestRecord {
    /// Generation of the deployment (monotone across process restarts).
    pub generation: u64,
    /// Model family served as the primary tier.
    pub choice: ModelChoice,
    /// Store version of the primary artifact.
    pub version: u32,
}

/// Why a durable deployment could not start.
#[derive(Debug)]
pub enum DurableDeployError {
    /// The artifact itself could not be deployed.
    Deploy(DeployError),
    /// The manifest could not be recovered or written. A corrupt frame
    /// (CRC mismatch on a non-tail frame) lands here: recovery refuses to
    /// guess and the operator must intervene. A merely *torn* tail does
    /// not — it is trimmed to the last durable record automatically.
    Manifest(ResilError),
}

impl fmt::Display for DurableDeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableDeployError::Deploy(e) => write!(f, "durable deploy failed: {e}"),
            DurableDeployError::Manifest(e) => {
                write!(f, "durable deploy failed: manifest unusable ({e})")
            }
        }
    }
}

impl std::error::Error for DurableDeployError {}

impl From<DeployError> for DurableDeployError {
    fn from(e: DeployError) -> Self {
        DurableDeployError::Deploy(e)
    }
}

fn decode_record(payload: &[u8]) -> Result<ManifestRecord, ResilError> {
    tasq::codec::from_bytes(payload).map_err(|_| ResilError::Decode { context: "manifest record" })
}

fn encode_record(record: &ManifestRecord) -> Result<Vec<u8>, ResilError> {
    tasq::codec::to_bytes(record).map_err(|_| ResilError::Decode { context: "manifest record" })
}

/// The registry: one active deployment, swappable under traffic.
pub struct ModelRegistry {
    active: RwLock<Arc<ActiveModel>>,
    /// The active deployment's generation, mirrored out of the lock and
    /// stored under the write lock at each swap: every request reads it
    /// (it keys the cache), and only a miss needs the deployment itself.
    generation: AtomicU64,
    swaps: AtomicU64,
    rollbacks: AtomicU64,
    /// WAL-style deployment manifest (durable registries only).
    manifest: Option<Mutex<FrameLog>>,
}

/// Store name of the artifact backing a model choice's primary tier.
fn primary_artifact_name(choice: ModelChoice) -> &'static str {
    match choice {
        ModelChoice::Nn => NN_MODEL_NAME,
        ModelChoice::XgboostSs | ModelChoice::XgboostPl => XGB_MODEL_NAME,
    }
}

fn latest_version(store: &ModelStore, choice: ModelChoice) -> u32 {
    store.versions(primary_artifact_name(choice)).last().copied().unwrap_or(0)
}

/// Token grid on which deploy probes sample the candidate's primary
/// curve: doubling steps across the service's configured search range.
fn probe_grid(config: &ScoringConfig) -> Vec<u32> {
    let mut grid = Vec::new();
    let mut tokens = config.min_tokens.max(1);
    let max = config.max_tokens.max(tokens);
    while tokens < max && grid.len() < 16 {
        grid.push(tokens);
        tokens = tokens.saturating_mul(2);
    }
    grid.push(max);
    grid
}

/// Probe-validate a candidate deployment. Two audits per probe job, both
/// of which must pass:
///
/// 1. **Curve invariants** — the *raw primary* prediction, sampled on a
///    token grid via [`ScoringService::primary_curve`], must satisfy the
///    PCC contract ([`tasq::validate::validate_curve`]): finite, positive,
///    and monotone non-increasing within [`tasq::validate::CURVE_TOLERANCE`].
///    This is checked before the response because serve-time degradation
///    would otherwise mask a broken primary behind a healthy fallback.
/// 2. **Response sanity** — the scored response must be finite, allocate
///    at least one token, and be served by the *primary* tier — a model
///    that immediately degrades to its fallback is not an upgrade.
fn validate(service: &ScoringService, probes: &[Job]) -> Result<(), SwapError> {
    let grid = probe_grid(service.config());
    let mut failures = 0usize;
    let mut detail = String::new();
    for job in probes {
        let curve_reason = service.primary_curve(job, &grid).and_then(|curve| {
            tasq::validate::validate_curve(&curve, tasq::validate::CURVE_TOLERANCE)
                .err()
                .map(|violations| format!("primary curve failed its audit: {}", violations[0]))
        });
        let reason = curve_reason.or_else(|| {
            let response = service.score(job);
            if !response.predicted_runtime_at_request.is_finite() {
                Some("non-finite runtime prediction".to_string())
            } else if response.optimal_tokens == 0 {
                Some("zero-token allocation".to_string())
            } else if response.served_tier != ServedTier::Primary {
                Some(format!("served by {:?} tier, not Primary", response.served_tier))
            } else {
                None
            }
        });
        if let Some(reason) = reason {
            failures += 1;
            if detail.is_empty() {
                detail = format!("job {}: {reason}", job.id);
            }
        }
    }
    if failures > 0 {
        Err(SwapError::Validation { probes: probes.len(), failures, detail })
    } else {
        Ok(())
    }
}

impl ModelRegistry {
    /// Initial deployment from a store. Fails when the primary artifact
    /// cannot be loaded (same contract as [`ScoringService::deploy`]).
    pub fn deploy(
        store: &ModelStore,
        choice: ModelChoice,
        config: ScoringConfig,
    ) -> Result<Self, DeployError> {
        let service = ScoringService::deploy(store, choice, config)?;
        let active = ActiveModel {
            service,
            choice,
            version: latest_version(store, choice),
            generation: 1,
        };
        Ok(Self {
            generation: AtomicU64::new(active.generation),
            active: RwLock::new(Arc::new(active)),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            manifest: None,
        })
    }

    /// Deploy with a durable WAL-style manifest at `manifest_path`.
    ///
    /// The manifest is replayed first: generation numbering resumes after
    /// the last durable record (a fresh manifest starts at 1), so a
    /// restarted server can never reuse a generation a previous process
    /// life already served under. The new deployment is appended to the
    /// manifest *before* it starts serving; every subsequent successful
    /// [`ModelRegistry::hot_swap`] is likewise logged ahead of the swap.
    ///
    /// A torn manifest tail (crash mid-append) is trimmed to the last
    /// durable record; a corrupt manifest (CRC mismatch, foreign magic)
    /// is refused with [`DurableDeployError::Manifest`].
    pub fn deploy_durable(
        store: &ModelStore,
        choice: ModelChoice,
        config: ScoringConfig,
        manifest_path: &Path,
    ) -> Result<Self, DurableDeployError> {
        let (mut log, recovery) =
            FrameLog::open_or_create(manifest_path).map_err(DurableDeployError::Manifest)?;
        let last = recovery
            .last()
            .map(|frame| decode_record(&frame.payload))
            .transpose()
            .map_err(DurableDeployError::Manifest)?;
        let service = ScoringService::deploy(store, choice, config)?;
        let generation = last.map_or(1, |record| record.generation + 1);
        let version = latest_version(store, choice);
        let record = ManifestRecord { generation, choice, version };
        let payload = encode_record(&record).map_err(DurableDeployError::Manifest)?;
        log.append(&payload).map_err(DurableDeployError::Manifest)?;
        let active = ActiveModel { service, choice, version, generation };
        Ok(Self {
            generation: AtomicU64::new(active.generation),
            active: RwLock::new(Arc::new(active)),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            manifest: Some(Mutex::new(log)),
        })
    }

    /// Replay a manifest (read-only) to its last durable record, without
    /// opening a registry. `Ok(None)` when no manifest exists yet; a
    /// corrupt manifest is refused with the typed error.
    pub fn last_manifest_record(
        manifest_path: &Path,
    ) -> Result<Option<ManifestRecord>, ResilError> {
        match tasq_resil::frame::recover(manifest_path) {
            Ok(recovery) => {
                recovery.last().map(|frame| decode_record(&frame.payload)).transpose()
            }
            Err(ResilError::NoCheckpoint) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Snapshot of the current deployment. Cheap (`Arc` clone under a
    /// read lock); the snapshot stays valid across concurrent swaps.
    pub fn current(&self) -> Arc<ActiveModel> {
        Arc::clone(&self.active.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Generation of the current deployment.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Successful swaps since deploy (the initial deploy is not counted).
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Refused swaps (the previous deployment kept serving).
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Attempt to replace the active deployment with the latest artifacts
    /// for `choice`. The candidate is deployed and probe-validated *off*
    /// the serving path; only a fully validated candidate is swapped in,
    /// atomically. On any failure the previous deployment keeps serving
    /// and the error says why.
    pub fn hot_swap(
        &self,
        store: &ModelStore,
        choice: ModelChoice,
        config: ScoringConfig,
        probes: &[Job],
    ) -> Result<Arc<ActiveModel>, SwapError> {
        let candidate = match ScoringService::deploy(store, choice, config) {
            Ok(service) => service,
            Err(e) => {
                self.rollbacks.fetch_add(1, Ordering::Relaxed);
                return Err(e.into());
            }
        };
        if let Err(e) = validate(&candidate, probes) {
            self.rollbacks.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let version = latest_version(store, choice);
        let mut active = self.active.write().unwrap_or_else(PoisonError::into_inner);
        let generation = active.generation + 1;
        if let Some(manifest) = &self.manifest {
            // Write-ahead: the swap is durable before it is observable.
            // On append failure nothing swaps, so the manifest can lag
            // reality (a logged deploy that crashed before serving) but
            // never lead it with an unserved generation... which is
            // exactly what replay-then-resume-numbering tolerates.
            let record = ManifestRecord { generation, choice, version };
            let appended = encode_record(&record).and_then(|payload| {
                manifest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(&payload)
                    .map(|_| ())
            });
            if let Err(e) = appended {
                drop(active);
                self.rollbacks.fetch_add(1, Ordering::Relaxed);
                return Err(SwapError::Manifest(e.to_string()));
            }
        }
        let next = Arc::new(ActiveModel { service: candidate, choice, version, generation });
        *active = Arc::clone(&next);
        self.generation.store(generation, Ordering::Release);
        drop(active);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};
    use tasq::models::{NnTrainConfig, XgbTrainConfig};
    use tasq::pipeline::{JobRepository, PipelineConfig, StoreError, TasqPipeline};

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    fn trained_store(seed: u64) -> ModelStore {
        let repo = JobRepository::new();
        repo.ingest(jobs(20, seed));
        let store = ModelStore::new();
        TasqPipeline::new(PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 15, ..Default::default() },
            nn: NnTrainConfig { epochs: 8, ..Default::default() },
            ..Default::default()
        })
        .train(&repo, &store)
        .expect("trains");
        store
    }

    #[test]
    fn deploy_then_swap_bumps_generation_and_version() {
        let store = trained_store(41);
        let registry =
            ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap();
        let before = registry.current();
        assert_eq!((before.generation, before.version), (1, 1));

        // Retrain: same pipeline registers v2 artifacts.
        let repo = JobRepository::new();
        repo.ingest(jobs(20, 43));
        TasqPipeline::new(PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 15, ..Default::default() },
            nn: NnTrainConfig { epochs: 8, ..Default::default() },
            ..Default::default()
        })
        .train(&repo, &store)
        .unwrap();

        let probes = jobs(4, 45);
        let after = registry
            .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &probes)
            .expect("valid swap");
        assert_eq!((after.generation, after.version), (2, 2));
        assert_eq!(registry.generation(), 2);
        assert_eq!(registry.swap_count(), 1);
        assert_eq!(registry.rollback_count(), 0);
        // The pre-swap snapshot is still fully usable (epoch semantics).
        let response = before.service().score(&probes[0]);
        assert!(response.predicted_runtime_at_request.is_finite());
    }

    #[test]
    fn corrupt_new_version_rolls_back_to_the_previous_one() {
        let store = trained_store(47);
        let registry =
            ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap();
        // A retrain goes wrong: the new latest NN artifact is garbage.
        store.register(NN_MODEL_NAME, &0xBAAD_F00Du64).unwrap();
        let probes = jobs(3, 49);
        let err = registry
            .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &probes)
            .expect_err("corrupt artifact must not swap in");
        assert!(matches!(
            err,
            SwapError::Deploy(DeployError::PrimaryUnavailable {
                cause: StoreError::Corrupt { .. },
                ..
            })
        ));
        assert_eq!(registry.rollback_count(), 1);
        // The registry still serves generation 1 / version 1, correctly.
        let active = registry.current();
        assert_eq!((active.generation, active.version), (1, 1));
        let response = active.service().score(&probes[0]);
        assert_eq!(response.served_tier, ServedTier::Primary);
    }

    #[test]
    fn probe_validation_rejects_a_degraded_candidate() {
        // A candidate that can only answer from a non-primary tier (here:
        // an empty store, so every probe lands on the analytic tier) must
        // fail validation with a per-probe accounting.
        let degraded = ScoringService::deploy_degraded(
            &ModelStore::new(),
            ModelChoice::Nn,
            ScoringConfig::default(),
        );
        let err = validate(&degraded, &jobs(3, 53)).expect_err("analytic tier fails probes");
        match err {
            SwapError::Validation { probes, failures, detail } => {
                assert_eq!((probes, failures), (3, 3));
                assert!(detail.contains("Analytic"));
            }
            other => panic!("expected validation failure, got {other}"),
        }
    }

    #[test]
    fn planted_non_monotone_model_is_rejected_by_the_curve_audit() {
        use tasq::augment::AugmentConfig;
        use tasq::dataset::Dataset;
        use tasq::models::XgbRuntime;
        use tasq::pipeline::XGB_MODEL_NAME;

        let store = trained_store(59);
        let registry =
            ModelRegistry::deploy(&store, ModelChoice::XgboostPl, ScoringConfig::default())
                .unwrap();
        assert_eq!(registry.generation(), 1);

        // Poison a retrain: rewrite every augmented training point so run
        // time *rises* with tokens, then register the resulting model as
        // the new latest XGBoost artifact. Its fitted power law slopes
        // upward — exactly the PCC violation the deploy probe must catch.
        let mut dataset = Dataset::build(&jobs(20, 61), &AugmentConfig::default());
        for example in &mut dataset.examples {
            for point in &mut example.xgb_points {
                point.runtime = 10.0 + point.tokens * 5.0;
            }
        }
        let poisoned =
            XgbRuntime::train(&dataset, &XgbTrainConfig { num_rounds: 40, ..Default::default() });
        store.register(XGB_MODEL_NAME, &poisoned).unwrap();

        let probes = jobs(4, 63);
        let err = registry
            .hot_swap(&store, ModelChoice::XgboostPl, ScoringConfig::default(), &probes)
            .expect_err("rising curve must not swap in");
        match &err {
            SwapError::Validation { failures, detail, .. } => {
                assert!(*failures > 0);
                assert!(detail.contains("non-monotone"), "detail: {detail}");
            }
            other => panic!("expected a validation rejection, got {other}"),
        }
        assert_eq!(registry.rollback_count(), 1);
        // The previous (healthy) deployment keeps serving.
        let active = registry.current();
        assert_eq!((active.generation, active.version), (1, 1));
    }

    fn manifest_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tasq-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_registry_resumes_generation_numbering_across_restarts() {
        let dir = manifest_dir("resume");
        let path = dir.join("registry.wal");
        let store = trained_store(91);

        let first =
            ModelRegistry::deploy_durable(&store, ModelChoice::Nn, ScoringConfig::default(), &path)
                .expect("fresh manifest");
        assert_eq!(first.generation(), 1);
        let probes = jobs(3, 93);
        first
            .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &probes)
            .expect("swap recorded");
        assert_eq!(first.generation(), 2);
        drop(first);

        // "Process restart": the manifest replays and numbering resumes
        // past everything a previous life served under.
        let second =
            ModelRegistry::deploy_durable(&store, ModelChoice::Nn, ScoringConfig::default(), &path)
                .expect("recovered manifest");
        assert_eq!(second.generation(), 3, "generation resumes after the last durable record");
        let last = ModelRegistry::last_manifest_record(&path).unwrap().expect("records exist");
        assert_eq!(last, ManifestRecord { generation: 3, choice: ModelChoice::Nn, version: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_recovers_last_record_and_corrupt_manifest_refuses() {
        let dir = manifest_dir("damage");
        let path = dir.join("registry.wal");
        let store = trained_store(95);
        drop(
            ModelRegistry::deploy_durable(&store, ModelChoice::Nn, ScoringConfig::default(), &path)
                .unwrap(),
        );
        drop(
            ModelRegistry::deploy_durable(&store, ModelChoice::Nn, ScoringConfig::default(), &path)
                .unwrap(),
        );
        let intact = std::fs::read(&path).unwrap();

        // A crash mid-append tears the second record: replay trims back
        // to the first, and the next deployment becomes generation 2.
        std::fs::write(&path, &intact[..intact.len() - 3]).unwrap();
        let last = ModelRegistry::last_manifest_record(&path).unwrap().expect("first record");
        assert_eq!(last.generation, 1);
        let reopened =
            ModelRegistry::deploy_durable(&store, ModelChoice::Nn, ScoringConfig::default(), &path)
                .expect("torn tail is trimmed, not fatal");
        assert_eq!(reopened.generation(), 2);
        drop(reopened);

        // Bit rot inside a committed frame is NOT recoverable: refuse.
        let mut rotten = intact.clone();
        rotten[24] ^= 0xFF; // first frame's payload (8 log header + 16 frame header)
        std::fs::write(&path, &rotten).unwrap();
        assert!(ModelRegistry::last_manifest_record(&path).is_err());
        assert!(matches!(
            ModelRegistry::deploy_durable(
                &store,
                ModelChoice::Nn,
                ScoringConfig::default(),
                &path
            ),
            Err(DurableDeployError::Manifest(e)) if e.is_corrupt()
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_swap() {
        // Seeded interleaving loop: readers hammer `current()` and check
        // the deployment's internal consistency while a writer swaps
        // between model families as fast as it can. A torn swap would
        // surface as a generation/choice/version mismatch.
        let store = trained_store(55);
        let registry = std::sync::Arc::new(
            ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap(),
        );
        let probes = jobs(2, 57);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut readers = Vec::new();
            for r in 0..3u64 {
                let registry = std::sync::Arc::clone(&registry);
                let probes = probes.clone();
                let stop = &stop;
                readers.push(s.spawn(move || {
                    let mut observed = Vec::new();
                    let mut spin = r;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let active = registry.current();
                        // Consistency: version matches the choice's
                        // artifact lineage (both families have exactly
                        // one registered version here), and generation
                        // only ever moves forward.
                        assert_eq!(active.version, 1, "torn version");
                        observed.push(active.generation);
                        // Scoring through the snapshot always works.
                        let response = active.service().score(&probes[(spin % 2) as usize]);
                        assert!(response.predicted_runtime_at_request.is_finite());
                        assert_eq!(response.served_tier, ServedTier::Primary);
                        spin = spin.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if done {
                            break;
                        }
                    }
                    assert!(
                        observed.windows(2).all(|w| w[0] <= w[1]),
                        "generation went backwards"
                    );
                    observed.len()
                }));
            }
            let mut expected_generation = 1u64;
            for _ in 0..30 {
                // Redeploy the NN family repeatedly: each swap replaces
                // the whole deployment snapshot even when the artifact
                // version is unchanged (a rollout of identical bits is
                // still a new generation).
                let swapped = registry
                    .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &probes)
                    .expect("swap");
                expected_generation += 1;
                assert_eq!(swapped.generation, expected_generation);
                assert_eq!(swapped.choice, ModelChoice::Nn);
            }
            stop.store(true, Ordering::Relaxed);
            let total: usize = readers.into_iter().map(|h| h.join().expect("reader")).sum();
            assert!(total > 0, "readers made progress");
            assert_eq!(registry.swap_count(), 30);
        });
    }
}
