//! The system under test, as the benchmark sees it.
//!
//! This is the only module that names symbols of the program: every
//! `use` of a workspace crate is here, and the rest of the benchmark
//! reaches the program through the re-exports and the pinned-settings
//! helpers below. A change that renames or collapses one of these entry
//! points re-points this file (in a `benchmark` issue) and nothing else.
//! `README.md` lists the surface.

pub use scope_sim::Job;
pub use tasq::dataset::Dataset;
pub use tasq::models::{GnnPcc, NnPcc, XgbRuntime};
pub use tasq::pipeline::{ModelStore, ScoreResponse, ScoringService};
pub use tasq_net::frame::{
    parse_response_frame, write_request_frame, FrameResponse, FrameResponseParse,
};
pub use tasq_net::{
    syscall_counters, BinaryClient, HttpClient, NetServer, ScoreOutcome, BINARY_PREAMBLE,
};
pub use tasq_obs::export::{validate_chrome_trace, ChromeTrace};
pub use tasq_obs::json;
pub use tasq_par::Pool;
pub use tasq_serve::{ScoringServer, ServedVia, ServerStatsSnapshot, SignatureCache, Ticket};

use scope_sim::flight::{flight_workload, FlightConfig};
use scope_sim::{ExecutionConfig, NoiseModel, StageGraph, WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;
use tasq::augment::AugmentConfig;
use tasq::codec;
use tasq::featurize::featurize_job;
use tasq::models::{
    GnnTrainConfig, NnTrainConfig, PccPredictor, XgbTrainConfig, XgboostPl, XgboostSs,
};
use tasq::pipeline::{
    AllocationDecision, JobRepository, ModelChoice, PipelineConfig, ScoringConfig, ServedTier,
    TasqPipeline, NN_MODEL_NAME, XGB_MODEL_NAME,
};
use tasq_ml::gbdt::Booster;
use tasq_ml::kmeans::{kmeans_restarts, KMeansConfig};
use tasq_ml::spline::SmoothingSpline;
use tasq_ml::Matrix;
use tasq_net::NetConfig;
use tasq_obs::Registry;
use tasq_serve::{CacheConfig, ModelRegistry, PlanSignature, ServeConfig};

/// Any failure of the program the benchmark has to report.
pub type SutError = Box<dyn std::error::Error + Send + Sync>;

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// `n` seeded jobs from the program's workload generator (default shape
/// distribution: half recurring templates, half ad-hoc).
pub fn generate_jobs(n: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n,
        seed,
        ..Default::default()
    })
    .generate()
}

// ---------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------

/// The model families a scoring service can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Feed-forward network: what the serving workloads deploy.
    Nn,
    /// XGBoost run-time model with a smoothing-spline curve.
    XgbSs,
    /// XGBoost run-time model with a power-law curve.
    XgbPl,
    /// No trained tier: the analytic Amdahl baseline.
    Analytic,
}

/// Fit the serving models (`TasqPipeline::train`, default settings) on
/// `jobs` and return the artifact store.
pub fn train_serving_models(jobs: &[Job]) -> Result<ModelStore, SutError> {
    let repository = JobRepository::new();
    repository.ingest(jobs.to_vec());
    let store = ModelStore::new();
    TasqPipeline::new(PipelineConfig::default()).train(&repository, &store)?;
    Ok(store)
}

/// A directly callable scoring service of one family: the oracle the
/// served answers are compared with, and the per-family inference probe.
pub fn scoring_service(store: &ModelStore, family: Family) -> Result<ScoringService, SutError> {
    let config = ScoringConfig::default();
    Ok(match family {
        Family::Nn => ScoringService::deploy(store, ModelChoice::Nn, config)?,
        Family::XgbSs => ScoringService::deploy(store, ModelChoice::XgboostSs, config)?,
        Family::XgbPl => ScoringService::deploy(store, ModelChoice::XgboostPl, config)?,
        Family::Analytic => ScoringService::analytic(config),
    })
}

/// Start the in-process scoring server on the NN model. Only the worker
/// count is pinned (to the build box's two cores); batching, queue and
/// cache settings are the program's defaults, so a change to a default
/// shows in the results.
pub fn start_server(store: &ModelStore) -> Result<ScoringServer, SutError> {
    let registry = ModelRegistry::deploy(store, ModelChoice::Nn, ScoringConfig::default())?;
    Ok(ScoringServer::start(
        Arc::new(registry),
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    ))
}

/// Put `server` on a loopback socket with one event-loop shard.
pub fn bind_loopback(server: ScoringServer) -> Result<NetServer, SutError> {
    Ok(NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            shards: 1,
            ..Default::default()
        },
        server,
    )?)
}

/// Stop a network front-end and return the drained server's final stats.
pub fn shutdown_net(net: NetServer) -> ServerStatsSnapshot {
    net.trigger_drain();
    net.wait_for_drain();
    net.shutdown()
}

/// An empty signature cache with the default settings.
pub fn new_cache() -> SignatureCache {
    SignatureCache::new(&CacheConfig::default())
}

/// The default capacity of the signature cache.
pub fn default_cache_capacity() -> usize {
    CacheConfig::default().capacity
}

/// Whether two answers agree bit for bit once the request's own id is
/// set aside.
pub fn same_answer(a: &ScoreResponse, b: &ScoreResponse) -> bool {
    let strip = |r: &ScoreResponse| {
        codec::to_bytes(&ScoreResponse {
            job_id: 0,
            ..r.clone()
        })
    };
    match (strip(a), strip(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// Whether the model-free analytic tier produced the answer: what a shed
/// request gets. (Over the wire this is the only sign of shedding.)
pub fn from_analytic_tier(response: &ScoreResponse) -> bool {
    response.served_tier == ServedTier::Analytic
}

/// The token grant of an automatic decision.
pub fn granted_tokens(response: &ScoreResponse) -> Option<u32> {
    match response.decision {
        AllocationDecision::Automatic { tokens } => Some(tokens),
        AllocationDecision::ShowCurve { .. } => None,
    }
}

/// Wire encoding of a job (the request payload of both framings).
pub fn encode_job(job: &Job) -> Result<Vec<u8>, SutError> {
    Ok(codec::to_bytes(job)?.to_vec())
}

/// Decode a request payload.
pub fn decode_job(bytes: &[u8]) -> Result<Job, SutError> {
    Ok(codec::from_bytes(bytes)?)
}

/// Wire encoding of an answer (the response payload of both framings).
pub fn encode_response(response: &ScoreResponse) -> Result<Vec<u8>, SutError> {
    Ok(codec::to_bytes(response)?.to_vec())
}

/// Append an OK response frame.
pub fn write_ok_response_frame(out: &mut Vec<u8>, payload: &[u8]) {
    tasq_net::frame::write_response_frame(out, tasq_net::FrameStatus::Ok, payload);
}

/// Locate one binary request frame at the start of `buf` without copying
/// it (the form the event loop uses); the payload length on success.
pub fn parse_request_frame(buf: &[u8]) -> Option<usize> {
    match tasq_net::frame::parse_frame_span(buf, 0) {
        tasq_net::frame::FrameParseSpan::Complete { payload_len, .. } => Some(payload_len),
        _ => None,
    }
}

/// An HTTP `POST /score` request carrying `payload`, as the client
/// writes it.
pub fn http_score_request(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 96);
    wire.extend_from_slice(b"POST /score HTTP/1.1\r\nhost: tasq\r\n");
    wire.extend_from_slice(format!("content-length: {}\r\n\r\n", payload.len()).as_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// Parse one HTTP request at the start of `buf` without copying the
/// body; the body length on success.
pub fn parse_http_request(buf: &[u8]) -> Option<usize> {
    match tasq_net::http::parse_request_span(buf, 0, &tasq_net::HttpLimits::default()) {
        tasq_net::http::HttpParseSpan::Complete { body_len, .. } => Some(body_len),
        _ => None,
    }
}

/// Append an HTTP 200 response carrying `payload`.
pub fn write_http_response(out: &mut Vec<u8>, payload: &[u8]) {
    tasq_net::http::write_response(out, 200, "OK", "application/octet-stream", payload, false);
}

/// Featurize a job the way `ScoringService::score` does; the feature
/// count, so the call cannot be optimised away.
pub fn featurize(job: &Job) -> usize {
    let stages = StageGraph::from_plan(&job.plan, job.seed).num_stages();
    featurize_job(&job.plan, stages).values.len()
}

/// Cache key of a job under model generation 1.
pub fn cache_key(job: &Job) -> u64 {
    PlanSignature::of_job(job).cache_key(1)
}

// ---------------------------------------------------------------------
// The program's own counters.
// ---------------------------------------------------------------------

/// Cumulative bucket counts and upper bounds of a histogram in the
/// program's global metrics registry (empty until the program records).
pub fn global_histogram(name: &str) -> Vec<(u64, u64)> {
    Registry::global()
        .histogram(name, "")
        .bucket_counts()
        .into_iter()
        .enumerate()
        .map(|(index, count)| (tasq_obs::metrics::bucket_le(index), count))
        .collect()
}

/// Value of a counter in the program's global metrics registry.
pub fn global_counter(name: &str) -> u64 {
    Registry::global().counter(name, "").get()
}

/// One disabled span enter/exit, one histogram record and one counter
/// increment: what every request pays the observability layer.
pub struct ObsProbe {
    histogram: tasq_obs::Histogram,
    counter: tasq_obs::Counter,
}

impl ObsProbe {
    /// Detached handles (not registered, so the program's expositions
    /// stay as they are).
    pub fn new() -> Self {
        Self {
            histogram: tasq_obs::Histogram::new(),
            counter: tasq_obs::Counter::new(),
        }
    }

    /// Open and close one span with collection off.
    pub fn span_off(&self, id: u64) {
        let _span = tasq_obs::span(
            tasq_obs::Level::Debug,
            "bench_probe",
            &[("job", tasq_obs::FieldValue::U64(id))],
        );
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.histogram.record(value);
    }

    /// Increment once.
    pub fn inc(&self) {
        self.counter.inc();
    }
}

impl Default for ObsProbe {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Offline pipeline. Sizes and epochs are the benchmark's, fixed here so
// that a pass is the same work on every commit.
// ---------------------------------------------------------------------

/// Jobs flighted per pass (each at the standard fractions, three times).
pub const FLIGHT_JOBS: usize = 40;
const XGB_ROUNDS: usize = 100;
const NN_EPOCHS: usize = 120;
const GNN_EPOCHS: usize = 12;
const KMEANS_K: usize = 5;
const KMEANS_RESTARTS: usize = 8;

/// Fold a value into a running fingerprint (order-sensitive).
pub fn fold(fingerprint: &mut u64, bits: u64) {
    *fingerprint = (*fingerprint ^ bits)
        .wrapping_mul(0x0000_0100_0000_01B3)
        .rotate_left(17);
}

/// Flight the first [`FLIGHT_JOBS`] jobs under mild noise; the number of
/// flights, with every run time folded into `fingerprint`.
pub fn flight(
    jobs: &[Job],
    seed: u64,
    pool: &Pool,
    fingerprint: &mut u64,
) -> Result<usize, SutError> {
    let sample = &jobs[..jobs.len().min(FLIGHT_JOBS)];
    let reference: Vec<u32> = sample.iter().map(|j| j.requested_tokens.max(4)).collect();
    let config = FlightConfig {
        noise: NoiseModel::mild(),
        seed,
        repetitions: 3,
        ..Default::default()
    };
    let mut flights = 0;
    for flighted in flight_workload(sample, &reference, &config, pool) {
        for f in &flighted?.flights {
            fold(fingerprint, f.runtime_secs.to_bits());
            fold(fingerprint, f.token_seconds.to_bits());
            flights += 1;
        }
    }
    Ok(flights)
}

/// Execute, augment and featurize `jobs` into a dataset.
pub fn build_dataset(jobs: &[Job], pool: &Pool, fingerprint: &mut u64) -> Dataset {
    let dataset = Dataset::build_with_pool(jobs, &AugmentConfig::default(), pool);
    for example in &dataset.examples {
        fold(fingerprint, example.observed_runtime.to_bits());
        fold(fingerprint, example.target_pcc.a.to_bits());
        fold(fingerprint, example.target_pcc.b.to_bits());
    }
    dataset
}

/// Fit the XGBoost run-time model with the split search on `pool`.
pub fn fit_xgb(dataset: &Dataset, pool: &Pool, fingerprint: &mut u64) -> XgbRuntime {
    let (rows, targets) = dataset.xgb_rows();
    let config = XgbRuntime::booster_config(&XgbTrainConfig {
        num_rounds: XGB_ROUNDS,
        ..Default::default()
    });
    let booster = Booster::train_with_pool(&rows, &targets, &config, pool);
    for prediction in booster.predict(&rows[..rows.len().min(256)]) {
        fold(fingerprint, prediction.to_bits());
    }
    XgbRuntime::from_booster(booster)
}

/// Rows of the XGBoost training matrix (for the prediction probe).
pub fn xgb_rows(dataset: &Dataset) -> Vec<Vec<f64>> {
    dataset.xgb_rows().0
}

/// Predict the run time of every row; the sum, so the work is kept.
pub fn xgb_predict(model: &XgbRuntime, rows: &[Vec<f64>]) -> f64 {
    rows.iter()
        .map(|row| model.predict_runtime(&row[..row.len() - 1], row[row.len() - 1] as u32))
        .sum()
}

/// Fit the feed-forward PCC model (LF2, no teacher).
pub fn fit_nn(dataset: &Dataset) -> NnPcc {
    NnPcc::train_with_teacher(
        dataset,
        &NnTrainConfig {
            epochs: NN_EPOCHS,
            ..Default::default()
        },
        None,
    )
}

/// Fit the graph PCC model (LF2, no teacher).
pub fn fit_gnn(dataset: &Dataset) -> GnnPcc {
    GnnPcc::train_with_teacher(
        dataset,
        &GnnTrainConfig {
            epochs: GNN_EPOCHS,
            ..Default::default()
        },
        None,
    )
}

/// Cluster the job features with restarts fanned out over `pool`.
pub fn fit_kmeans(dataset: &Dataset, seed: u64, pool: &Pool, fingerprint: &mut u64) {
    let features = Matrix::from_rows(&dataset.job_feature_rows());
    let config = KMeansConfig {
        k: KMEANS_K.min(dataset.len().max(1)),
        ..Default::default()
    };
    let model = kmeans_restarts(&features, &config, seed, KMEANS_RESTARTS, pool);
    fold(fingerprint, model.inertia.to_bits());
}

/// Held-out accuracy of one model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// Median absolute percentage error of the run-time prediction, in
    /// percent (the paper's "Median AE (run time)").
    pub median_ape_pct: f64,
    /// Share of jobs whose predicted curve never rises.
    pub pattern_non_increase: f64,
}

/// Held-out accuracy of the three trained families, in the order NN,
/// XGBoost PL, GNN.
pub fn evaluate(
    nn: &NnPcc,
    xgb: &XgbRuntime,
    gnn: &GnnPcc,
    held_out: &Dataset,
    fingerprint: &mut u64,
) -> [Accuracy; 3] {
    let xgb_pl = XgboostPl::new(xgb.clone());
    let models: [&dyn PccPredictor; 3] = [nn, &xgb_pl, gnn];
    models.map(|model| {
        let row = tasq::eval::evaluate_model(model, held_out);
        fold(fingerprint, row.median_ae_runtime.to_bits());
        fold(fingerprint, row.pattern_non_increase.to_bits());
        Accuracy {
            median_ape_pct: row.median_ae_runtime * 100.0,
            pattern_non_increase: row.pattern_non_increase,
        }
    })
}

/// Store the NN and XGBoost models the way the pipeline does, so a
/// scoring service of any family can be deployed over them.
pub fn store_models(nn: &NnPcc, xgb: &XgbRuntime) -> Result<ModelStore, SutError> {
    let store = ModelStore::new();
    store.register(XGB_MODEL_NAME, xgb)?;
    store.register(NN_MODEL_NAME, nn)?;
    Ok(store)
}

/// The XGBoost run-time model a store holds.
pub fn stored_xgb(store: &ModelStore) -> Result<XgbRuntime, SutError> {
    Ok(store.load_latest(XGB_MODEL_NAME)?)
}

/// One simulated execution of `job` at its requested tokens; the
/// per-second skyline.
pub fn execute(job: &Job) -> Result<Vec<f64>, SutError> {
    let result = job
        .executor()
        .run(job.requested_tokens, &ExecutionConfig::default())?;
    Ok(result.skyline.samples().to_vec())
}

/// AREPAS-simulate a skyline at half its peak; the simulated run time.
pub fn arepas_simulate(skyline: &[f64]) -> usize {
    let peak = skyline.iter().copied().fold(1.0, f64::max);
    arepas::simulate_runtime(skyline, (peak / 2.0).max(1.0))
}

/// Fit one smoothing spline through a local curve, with the smoothing
/// XGBoost SS applies per request.
pub fn fit_spline(model: &XgbRuntime, xs: &[f64], ys: &[f64]) -> bool {
    let lambda = XgboostSs::new(model.clone()).smoothing_lambda;
    SmoothingSpline::fit(xs, ys, lambda).is_some()
}
