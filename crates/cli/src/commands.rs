//! The nine subcommands.

use crate::options::Options;
use crate::CliError;
use scope_sim::flight::{filter_non_anomalous, flight_job, FlightConfig};
use scope_sim::{
    replay_traffic, FaultPlan, Job, NoiseModel, RecoveryPolicy, TrafficConfig, WorkloadConfig,
    WorkloadGenerator,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tasq::codec;
use tasq::models::{NnTrainConfig, XgbTrainConfig};
use tasq::pipeline::{
    AllocationDecision, CheckpointSink, DiskModelStore, JobRepository, ModelChoice, ModelStore,
    PipelineConfig, PipelineError, ScoringConfig, ScoringService, TasqPipeline, CHECKPOINT_STAGES,
    NN_MODEL_NAME, XGB_MODEL_NAME,
};
use tasq_net::{BinaryClient, HttpClient, NetConfig, NetServer, ScoreOutcome, TokenBucket};
use tasq_obs::json::JsonValue;
use tasq_resil::{snapshot, BreakerState, ChaosPlan};
use tasq_serve::cache::CacheConfig;
use tasq_serve::{
    ModelRegistry, ScoringServer, ServeConfig, ServedVia, ServerStatsSnapshot, Ticket,
};

fn read_workload(path: &str) -> Result<Vec<Job>, CliError> {
    let bytes = std::fs::read(path)?;
    Ok(codec::from_bytes(&bytes)?)
}

/// `tasq generate --out <file> [--jobs N] [--seed N]`
pub fn generate(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(args, &["out", "jobs", "seed"])?;
    let out = opts.required("out")?;
    let jobs = opts.number::<usize>("jobs", 500)?;
    let seed = opts.number::<u64>("seed", 0)?;
    let workload = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: jobs,
        seed,
        ..Default::default()
    })
    .generate();
    let bytes = codec::to_bytes(&workload)?;
    std::fs::write(out, &bytes)?;
    Ok(format!("wrote {jobs} jobs ({} bytes) to {out}\n", bytes.len()))
}

/// `tasq inspect --workload <file>`
pub fn inspect(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(args, &["workload"])?;
    let jobs = read_workload(opts.required("workload")?)?;
    let tokens: Vec<f64> = jobs.iter().map(|j| j.requested_tokens as f64).collect();
    let operators: Vec<f64> = jobs.iter().map(|j| j.plan.num_operators() as f64).collect();
    let recurring = jobs.iter().filter(|j| j.meta.recurring_template.is_some()).count();
    let mut out = String::new();
    let _ = writeln!(out, "workload: {} jobs", jobs.len());
    let _ = writeln!(
        out,
        "requested tokens: median {:.0}, mean {:.0}, max {:.0}",
        tasq_ml::stats::median(&tokens),
        tasq_ml::stats::mean(&tokens),
        tokens.iter().copied().fold(0.0, f64::max),
    );
    let _ = writeln!(
        out,
        "operators per plan: median {:.0}, max {:.0}",
        tasq_ml::stats::median(&operators),
        operators.iter().copied().fold(0.0, f64::max),
    );
    let _ = writeln!(
        out,
        "recurring: {recurring} ({:.0}%), ad-hoc: {}",
        100.0 * recurring as f64 / jobs.len().max(1) as f64,
        jobs.len() - recurring
    );
    Ok(out)
}

/// `tasq train --workload <file> --model-dir <dir> [--nn-epochs N] [--xgb-rounds N]
///  [--checkpoint-dir <dir>]`
///
/// With `--checkpoint-dir`, the pipeline commits its five stage records
/// there ([`tasq::pipeline::CheckpointSink`]): a run killed part-way is
/// resumed by running the same command again, which fits only the models
/// not yet committed, and a directory holding another run is refused.
pub fn train(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(
        args,
        &["workload", "model-dir", "nn-epochs", "xgb-rounds", "checkpoint-dir"],
    )?;
    let jobs = read_workload(opts.required("workload")?)?;
    let model_dir = opts.required("model-dir")?;
    let nn_epochs = opts.number::<usize>("nn-epochs", 120)?;
    let xgb_rounds = opts.number::<usize>("xgb-rounds", 120)?;
    let mut sink =
        opts.get("checkpoint-dir").map(|dir| CheckpointSink::open(dir, None)).transpose()?;

    // Train through the in-memory pipeline, then persist to disk.
    let repo = JobRepository::new();
    let job_count = jobs.len();
    repo.ingest(jobs);
    let memory_store = ModelStore::new();
    let pipeline = TasqPipeline::new(PipelineConfig {
        nn: NnTrainConfig { epochs: nn_epochs, ..Default::default() },
        xgb: XgbTrainConfig { num_rounds: xgb_rounds, ..Default::default() },
        ..Default::default()
    });
    let pool = tasq_par::Pool::with_available_parallelism();
    let dataset = pipeline.train_with_sink(&repo, &memory_store, &pool, sink.as_mut())?;

    let disk = DiskModelStore::open(model_dir)?;
    let nn: tasq::models::NnPcc = memory_store.load_latest(NN_MODEL_NAME)?;
    let xgb: tasq::models::XgbRuntime = memory_store.load_latest(XGB_MODEL_NAME)?;
    let nn_version = disk.register(NN_MODEL_NAME, &nn)?;
    let xgb_version = disk.register(XGB_MODEL_NAME, &xgb)?;
    let mut out = String::new();
    match &sink {
        None => {
            let _ = writeln!(out, "trained on {job_count} jobs ({} examples)", dataset.len());
        }
        Some(sink) => {
            let _ = writeln!(
                out,
                "checkpointed train: {job_count} jobs, {} examples\n\
                 resumed: {} ({} stages recovered), {} commits this run\n\
                 fingerprint: {:#018x}",
                dataset.len(),
                sink.resumed,
                sink.recovered_stages,
                sink.commits(),
                sink.fingerprint,
            );
        }
    }
    let _ = writeln!(
        out,
        "registered {NN_MODEL_NAME} v{nn_version}, {XGB_MODEL_NAME} v{xgb_version} in {model_dir}"
    );
    Ok(out)
}

/// Leave the commit after the `killed` stage's torn in its temp, `bytes`
/// short — the chaos harness's torn-write injection (a crash in the
/// middle of that commit leaves exactly this, and no committed file).
/// The image is the `reference` run's, which the killed run would have
/// written to the bit. Returns how many bytes were actually cut (0 when
/// the kill came after the last stage).
fn plant_torn_temp(
    sink: &CheckpointSink,
    reference: &CheckpointSink,
    killed: &str,
    bytes: u64,
) -> Result<u64, CliError> {
    let Some(next) = CHECKPOINT_STAGES.iter().skip_while(|&&s| s != killed).nth(1) else {
        return Ok(0);
    };
    let image = std::fs::read(reference.stage_path(next))?;
    let kept = image.len().saturating_sub(usize::try_from(bytes).unwrap_or(usize::MAX));
    std::fs::write(snapshot::tmp_path(&sink.stage_path(next)), &image[..kept])?;
    Ok((image.len() - kept) as u64)
}

/// One serving chaos drive: serial request stream through a server with
/// the plan's scoring panics, NN fault window, and deadline
/// storm armed. Returns the drained stats and whether the breaker ended
/// the run closed.
fn drive_serving_chaos(
    store: &ModelStore,
    jobs: &[Job],
    plan: &ChaosPlan,
    requests: usize,
    seed: u64,
) -> Result<(ServerStatsSnapshot, bool), CliError> {
    let registry = ModelRegistry::deploy(store, ModelChoice::Nn, ScoringConfig::default())
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let server = ScoringServer::start(
        std::sync::Arc::new(registry),
        ServeConfig {
            workers: 2,
            // Cache off so every admitted request is scored (the breaker
            // and the planted panics see all of the traffic).
            cache: CacheConfig { enabled: false, ..Default::default() },
            chaos: Some(plan.clone()),
            ..Default::default()
        },
    );
    let traffic =
        replay_traffic(jobs, &TrafficConfig { requests, repeat_fraction: 0.5, seed });
    // Serial submit → outcome keeps the request sequence (and so the
    // planted fault schedule) deterministic; the server's counters do the
    // per-outcome accounting.
    for job in traffic {
        if let Ok(ticket) = server.submit(job) {
            let _ = ticket.outcome();
        }
    }
    let breaker_closed = matches!(server.breaker_state(), BreakerState::Closed);
    Ok((server.drain(), breaker_closed))
}

/// `tasq chaos --preset none|mild|production|adversarial [--seed N] [--jobs N]
///  [--requests N] [--dir <dir>] [--out <json>]`
///
/// The deterministic chaos harness. One run:
///
/// 1. trains a reference through the pipeline under a checkpoint
///    directory, uninterrupted;
/// 2. replays the same training with the preset's planted process death,
///    leaves the next stage's commit torn in its temp file, resumes, and
///    checks the resumed fingerprint is bit-identical;
/// 3. drives the scoring server (with the resumed artifacts) through
///    the preset's planted scoring panics, NN fault window, and deadline
///    storm, asserting zero silent request loss and that the circuit
///    breaker trips *and* recovers;
/// 4. writes the whole report as machine-readable JSON for CI to grep.
pub fn chaos(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(args, &["preset", "seed", "jobs", "requests", "dir", "out"])?;
    let preset = opts.required("preset")?;
    let seed = opts.number::<u64>("seed", 0)?;
    let num_jobs = opts.number::<usize>("jobs", 10)?;
    let requests = opts.number::<usize>("requests", 320)?;
    let out_path = opts.get("out").unwrap_or("chaos-report.json").to_string();
    let plan = ChaosPlan::preset(preset, seed).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown --preset `{preset}` (expected one of {})",
            tasq_resil::chaos::PRESET_NAMES.join("|")
        ))
    })?;
    let work_dir = match opts.get("dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("tasq-chaos-{}", std::process::id())),
    };

    let jobs = WorkloadGenerator::new(WorkloadConfig { num_jobs, seed, ..Default::default() })
        .generate();
    let repo = JobRepository::new();
    repo.ingest(jobs.clone());
    let pipeline = TasqPipeline::new(PipelineConfig {
        nn: NnTrainConfig { epochs: 8, ..Default::default() },
        xgb: XgbTrainConfig { num_rounds: 12, ..Default::default() },
        ..Default::default()
    });
    let pool = tasq_par::Pool::with_available_parallelism();
    let open_fresh = |name: &str, kill_after| -> Result<CheckpointSink, CliError> {
        let sink = CheckpointSink::open(work_dir.join(name), kill_after)?;
        // A stage file left by an earlier run would be resumed.
        for entry in std::fs::read_dir(sink.dir())? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "ckpt") {
                std::fs::remove_file(path)?;
            }
        }
        Ok(sink)
    };

    // 1. Uninterrupted reference run.
    let mut reference = open_fresh("reference", None)?;
    pipeline.train_with_sink(&repo, &ModelStore::new(), &pool, Some(&mut reference))?;

    // 2. Killed + torn + resumed run.
    let mut first = open_fresh("chaos", plan.kill_after_checkpoints)?;
    let (killed_stage, commits_before_kill, torn_bytes_cut) =
        match pipeline.train_with_sink(&repo, &ModelStore::new(), &pool, Some(&mut first)) {
            Err(PipelineError::Killed { stage, commits }) => {
                let cut = match plan.torn_tail_bytes {
                    Some(bytes) => plant_torn_temp(&first, &reference, stage, bytes)?,
                    None => 0,
                };
                (Some(stage), commits, cut)
            }
            Err(e) => return Err(e.into()),
            Ok(_) => (None, first.commits(), 0),
        };
    let models = ModelStore::new();
    let mut resumed = CheckpointSink::open(first.dir(), None)?;
    pipeline.train_with_sink(&repo, &models, &pool, Some(&mut resumed))?;
    let resumed_bit_identical = resumed.fingerprint == reference.fingerprint;

    // 3. Serving chaos with the artifacts the resumed run produced.
    let (stats, breaker_closed) = drive_serving_chaos(&models, &jobs, &plan, requests, seed)?;
    let zero_silent_loss = stats.submitted == stats.resolved();
    let breaker_exercised = plan.nn_fault_window.is_none()
        || (stats.breaker_trips >= 1 && stats.breaker_recoveries >= 1 && breaker_closed);
    let passed = resumed_bit_identical && zero_silent_loss && breaker_exercised;

    let mut serving = vec![("requests".to_string(), JsonValue::from(requests))];
    serving.extend(stats.to_json().as_object().unwrap_or_default().iter().cloned());
    serving.push(("breaker_closed_at_end".to_string(), breaker_closed.into()));
    serving.push(("zero_silent_loss".to_string(), zero_silent_loss.into()));
    let report = JsonValue::object([
        ("preset", preset.into()),
        ("seed", seed.into()),
        ("jobs", num_jobs.into()),
        (
            "plan",
            JsonValue::object([
                ("kill_after_checkpoints", plan.kill_after_checkpoints.into()),
                ("torn_tail_bytes", plan.torn_tail_bytes.into()),
                ("worker_panics", plan.worker_panics.clone().into()),
                ("nn_fault_window", plan.nn_fault_window.map(|(a, b)| vec![a, b]).into()),
                ("deadline_storm_start", plan.deadline_storm.map(|s| s.start_seq).into()),
            ]),
        ),
        (
            "training",
            JsonValue::object([
                ("reference_fingerprint", format!("{:#018x}", reference.fingerprint).into()),
                ("resumed_fingerprint", format!("{:#018x}", resumed.fingerprint).into()),
                ("killed_stage", killed_stage.map(str::to_string).into()),
                ("commits_before_kill", commits_before_kill.into()),
                ("torn_temp_bytes_cut", torn_bytes_cut.into()),
                ("recovered_stages", resumed.recovered_stages.into()),
                ("resumed_bit_identical", resumed_bit_identical.into()),
            ]),
        ),
        ("serving", JsonValue::Object(serving)),
        ("passed", passed.into()),
    ]);
    std::fs::write(&out_path, format!("{report:#}\n"))?;

    let mut out = String::new();
    let _ = writeln!(out, "chaos preset: {preset} (seed {seed})");
    match &killed_stage {
        Some(stage) => {
            let _ = writeln!(
                out,
                "training: killed in `{stage}` after {commits_before_kill} commits, \
                 left the next stage's commit torn {torn_bytes_cut} bytes short, resumed with \
                 {} stages recovered",
                resumed.recovered_stages,
            );
        }
        None => {
            let _ = writeln!(
                out,
                "training: no kill planted (preset `{preset}`), warm restart recovered {} stages",
                resumed.recovered_stages,
            );
        }
    }
    let _ = writeln!(out, "resumed bit-identical: {resumed_bit_identical}");
    let _ = writeln!(
        out,
        "serving: {} submitted = {} completed + {} rejected + {} worker-lost + {} timed out \
         (zero silent loss: {zero_silent_loss})",
        stats.submitted, stats.completed, stats.rejected, stats.worker_lost,
        stats.deadline_timeouts,
    );
    let _ = writeln!(
        out,
        "breaker: {} trips, {} recoveries, closed at end: {breaker_closed}",
        stats.breaker_trips, stats.breaker_recoveries,
    );
    let _ = writeln!(out, "passed: {passed}");
    let _ = writeln!(out, "wrote {out_path}");
    Ok(out)
}

/// `tasq score --workload <file> --model-dir <dir> [--model nn|xgb-ss|xgb-pl]
///  [--min-improvement FRAC]`
pub fn score(args: &[String]) -> Result<String, CliError> {
    let opts =
        Options::parse(args, &["workload", "model-dir", "model", "min-improvement"])?;
    let jobs = read_workload(opts.required("workload")?)?;
    let disk = DiskModelStore::open(opts.required("model-dir")?)?;
    let choice = parse_model_choice(opts.get("model").unwrap_or("nn"))?;
    let min_improvement = opts.number::<f64>("min-improvement", 0.01)?;

    // Rehydrate the in-memory store the scoring service expects.
    let store = ModelStore::new();
    match choice {
        ModelChoice::Nn => {
            let nn: tasq::models::NnPcc = disk
                .load_latest(NN_MODEL_NAME)
                .map_err(|e| CliError::Usage(format!("no NN artifact in model dir: {e}")))?;
            store.register(NN_MODEL_NAME, &nn)?;
        }
        ModelChoice::XgboostSs | ModelChoice::XgboostPl => {
            let xgb: tasq::models::XgbRuntime = disk
                .load_latest(XGB_MODEL_NAME)
                .map_err(|e| CliError::Usage(format!("no XGBoost artifact in model dir: {e}")))?;
            store.register(XGB_MODEL_NAME, &xgb)?;
        }
    }
    let service = ScoringService::deploy(
        &store,
        choice,
        ScoringConfig { min_improvement, ..Default::default() },
    )
    .map_err(|e| CliError::Usage(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>15} {:>16} {:>9} {:>9}",
        "job", "requested", "pred. runtime", "optimal tokens", "saving", "tier"
    );
    let mut total_requested = 0.0;
    let mut total_optimal = 0.0;
    for job in &jobs {
        let response = service.score(job);
        // Automatic mode is configured above, but the response carries the
        // optimum either way.
        let tokens = match response.decision {
            AllocationDecision::Automatic { tokens } => tokens,
            AllocationDecision::ShowCurve { .. } => response.optimal_tokens,
        };
        total_requested += job.requested_tokens as f64;
        total_optimal += tokens as f64;
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14.0}s {:>16} {:>8.0}% {:>9}",
            job.id,
            job.requested_tokens,
            response.predicted_runtime_at_request,
            tokens,
            100.0 * (1.0 - tokens as f64 / job.requested_tokens as f64),
            format!("{:?}", response.served_tier).to_lowercase(),
        );
    }
    let _ = writeln!(
        out,
        "\ntotal: {total_requested:.0} requested -> {total_optimal:.0} optimal ({:.0}% saved)",
        100.0 * (1.0 - total_optimal / total_requested.max(1.0))
    );
    Ok(out)
}

/// `tasq flight --workload <file> [--faults none|mild|production|adversarial]
///  [--sample N] [--seed N]`
///
/// Re-executes a sample of the workload at 100/80/60/20% of each job's
/// request under the chosen fault-injection preset, then reports recovery
/// statistics and how many jobs survive the anomaly filters.
pub fn flight(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(args, &["workload", "faults", "sample", "seed"])?;
    let jobs = read_workload(opts.required("workload")?)?;
    let preset = opts.get("faults").unwrap_or("none");
    let faults = FaultPlan::from_name(preset).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown --faults `{preset}` (expected one of {})",
            FaultPlan::PRESET_NAMES.join("|")
        ))
    })?;
    let sample = opts.number::<usize>("sample", 10)?;
    let seed = opts.number::<u64>("seed", 0)?;

    // Under the heavier presets a crash burst re-queues many retries at
    // once; decorrelated jitter fans the backoffs out instead of letting
    // them land as a synchronized retry storm (the draw is a pure hash,
    // so flights stay deterministic given the seed).
    let recovery = match preset {
        "production" | "adversarial" => {
            RecoveryPolicy { retry_jitter: 0.5, ..Default::default() }
        }
        _ => RecoveryPolicy::default(),
    };
    let config =
        FlightConfig { noise: NoiseModel::mild(), faults, seed, recovery, ..Default::default() };
    let mut flighted = Vec::new();
    let mut dropped = 0usize;
    for job in jobs.iter().take(sample) {
        match flight_job(job, job.requested_tokens, &config) {
            Ok(fj) => flighted.push(fj),
            Err(_) => dropped += 1,
        }
    }

    // When span collection is on (`--trace-out`), run one sampled job
    // through the traced executor so the export carries the simulator's
    // virtual-time track alongside the wall-clock spans.
    if tasq_obs::collect_enabled() {
        if let Some(job) = jobs.first() {
            let graph = scope_sim::StageGraph::from_plan(&job.plan, job.seed);
            let mut trace = scope_sim::ExecTrace::new();
            let _ = scope_sim::Executor::new(graph).run_traced(
                job.requested_tokens.max(1),
                &scope_sim::ExecutionConfig::default(),
                &mut trace,
            );
            crate::obs::stash_sim_trace(trace);
        }
    }

    let mut crashes = 0u32;
    let mut retries = 0u32;
    let mut preemptions = 0u32;
    let mut stragglers = 0u32;
    let mut spec_wins = 0u32;
    let mut waste = 0.0f64;
    let mut executions = 0usize;
    for fj in &flighted {
        for e in &fj.executions {
            crashes += e.faults.task_crashes;
            retries += e.faults.task_retries;
            preemptions += e.faults.preemptions;
            stragglers += e.faults.straggler_tasks;
            spec_wins += e.faults.speculative_wins;
            waste += e.faults.wasted_token_seconds;
            executions += 1;
        }
    }
    let flown = flighted.len();
    let clean = filter_non_anomalous(flighted, 0.10);

    let mut out = String::new();
    let _ = writeln!(out, "fault preset: {preset}");
    let _ = writeln!(
        out,
        "flighted {flown}/{} sampled jobs ({executions} executions), {dropped} dropped \
         after retry exhaustion",
        sample.min(jobs.len())
    );
    let _ = writeln!(
        out,
        "faults injected: {crashes} crashes, {retries} retries, {preemptions} preemptions, \
         {stragglers} stragglers, {spec_wins} speculative wins"
    );
    let _ = writeln!(out, "wasted token-seconds: {waste:.0}");
    let _ = writeln!(out, "{}/{flown} jobs pass the anomaly filters", clean.len());
    Ok(out)
}

fn parse_model_choice(raw: &str) -> Result<ModelChoice, CliError> {
    match raw {
        "nn" => Ok(ModelChoice::Nn),
        "xgb-ss" => Ok(ModelChoice::XgboostSs),
        "xgb-pl" => Ok(ModelChoice::XgboostPl),
        other => Err(CliError::Usage(format!("unknown --model {other}"))),
    }
}

/// Build a serving registry either from on-disk artifacts or — when no
/// model dir is given — by training quick in-memory models on the
/// workload itself (good enough to exercise the serving stack).
fn build_registry(
    jobs: &[Job],
    model_dir: Option<&str>,
    choice: ModelChoice,
) -> Result<ModelRegistry, CliError> {
    let store = ModelStore::new();
    match model_dir {
        Some(dir) => {
            let disk = DiskModelStore::open(dir)?;
            match choice {
                ModelChoice::Nn => {
                    let nn: tasq::models::NnPcc = disk.load_latest(NN_MODEL_NAME).map_err(
                        |e| CliError::Usage(format!("no NN artifact in model dir: {e}")),
                    )?;
                    store.register(NN_MODEL_NAME, &nn)?;
                }
                ModelChoice::XgboostSs | ModelChoice::XgboostPl => {
                    let xgb: tasq::models::XgbRuntime = disk.load_latest(XGB_MODEL_NAME).map_err(
                        |e| CliError::Usage(format!("no XGBoost artifact in model dir: {e}")),
                    )?;
                    store.register(XGB_MODEL_NAME, &xgb)?;
                }
            }
        }
        None => {
            let repo = JobRepository::new();
            repo.ingest(jobs.to_vec());
            TasqPipeline::new(PipelineConfig {
                nn: NnTrainConfig { epochs: 10, ..Default::default() },
                xgb: XgbTrainConfig { num_rounds: 20, ..Default::default() },
                ..Default::default()
            })
            .train(&repo, &store)?;
        }
    }
    ModelRegistry::deploy(&store, choice, ScoringConfig::default())
        .map_err(|e| CliError::Usage(e.to_string()))
}

/// Push a request stream through a server, returning the wall-clock time
/// and per-path counts of `(cache, model, rejected)`.
fn drive(server: &ScoringServer, traffic: Vec<Job>) -> (Duration, (u64, u64, u64)) {
    let mut counts = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for job in traffic {
        match server.submit(job).map(Ticket::outcome) {
            Ok(Ok(served)) if served.via == ServedVia::Cache => counts.0 += 1,
            Ok(Ok(_)) => counts.1 += 1,
            Ok(Err(_)) => {}
            Err(_) => counts.2 += 1,
        }
    }
    (start.elapsed(), counts)
}

/// `tasq serve --workload <file> [--model-dir <dir>] [--model ...]
///  [--workers N] [--cache on|off] [--requests N] [--repeat FRAC] [--seed N]
///  [--listen <addr>] [--shards N] [--deadline-ms N]`
///
/// One-shot embedding of the concurrent scoring server: replays the
/// workload as recurring-job traffic through the full serving stack
/// (signature cache, inline scoring, admission control) and reports where
/// each request was answered. `--workers` bounds the misses scoring at
/// once; over the wire, each shard scores the misses it reads.
///
/// With `--listen <addr>` the command instead becomes a real network
/// server (`tasq-net`): it prints `listening on <addr>` once bound (the
/// handshake a parent process reads to discover an ephemeral port),
/// serves HTTP/1.1 and binary-framed scoring traffic until a `POST
/// /drain` arrives over the wire, then prints the drained stats as one
/// JSON line.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(
        args,
        &[
            "workload", "model-dir", "model", "workers", "cache", "requests", "repeat", "seed",
            "listen", "shards", "deadline-ms",
        ],
    )?;
    let jobs = read_workload(opts.required("workload")?)?;
    let choice = parse_model_choice(opts.get("model").unwrap_or("nn"))?;
    let cache_enabled = match opts.get("cache").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(CliError::Usage(format!("--cache must be on|off, got {other}"))),
    };
    let config = ServeConfig {
        workers: opts.number::<usize>("workers", 4)?,
        cache: CacheConfig { enabled: cache_enabled, ..Default::default() },
        ..Default::default()
    };
    let requests = opts.number::<usize>("requests", jobs.len().max(1) * 4)?;
    let repeat = opts.number::<f64>("repeat", 0.8)?;
    let seed = opts.number::<u64>("seed", 0)?;

    let registry = build_registry(&jobs, opts.get("model-dir"), choice)?;
    let workers = config.workers;
    let server = ScoringServer::start(std::sync::Arc::new(registry), config);

    if let Some(listen) = opts.get("listen") {
        let net_config = NetConfig {
            shards: opts.number::<usize>("shards", 2)?.max(1),
            deadline: match opts.number::<u64>("deadline-ms", 0)? {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            ..Default::default()
        };
        let net = NetServer::bind(listen, net_config, server)?;
        // Handshake line: a parent that spawned us with --listen
        // 127.0.0.1:0 reads the resolved address from this exact prefix.
        println!("listening on {}", net.local_addr());
        let _ = std::io::Write::flush(&mut std::io::stdout());
        net.wait_for_drain();
        return Ok(format!("{}\n", net.shutdown().to_json()));
    }
    let traffic =
        replay_traffic(&jobs, &TrafficConfig { requests, repeat_fraction: repeat, seed });
    let (elapsed, (cache_hits, model, rejected)) = drive(&server, traffic);
    let stats = server.drain();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} requests, at most {workers} misses in flight, in {:.1} ms ({:.0} req/s)",
        stats.completed,
        elapsed.as_secs_f64() * 1e3,
        stats.completed as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    let _ = writeln!(
        out,
        "paths: {cache_hits} cache, {model} model, {rejected} rejected"
    );
    let _ = writeln!(
        out,
        "latency us: p50 {:.1}, p95 {:.1}, p99 {:.1}, p99.9 {:.1} (mean {:.0})",
        stats.latency.p50_us,
        stats.latency.p95_us,
        stats.latency.p99_us,
        stats.latency.p999_us,
        stats.latency.mean_us
    );
    let _ = writeln!(out, "misses in flight: peak {}", stats.peak_queue_depth);
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} rejected, {} resident",
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate(),
        stats.cache.evictions,
        stats.cache.rejected,
        stats.cache.entries
    );
    let _ = writeln!(out, "model generation: {}", stats.generation);
    Ok(out)
}

/// One persistent wire connection in either framing.
enum WireClient {
    Http(HttpClient),
    Binary(BinaryClient),
}

impl WireClient {
    fn connect(mode: &str, addr: &str) -> Result<Self, CliError> {
        let client = match mode {
            "http" => WireClient::Http(HttpClient::connect(addr)?),
            "binary" => WireClient::Binary(BinaryClient::connect(addr)?),
            other => {
                return Err(CliError::Usage(format!("--mode must be http|binary, got {other}")))
            }
        };
        match &client {
            WireClient::Http(c) => c.set_timeout(Duration::from_secs(60))?,
            WireClient::Binary(c) => c.set_timeout(Duration::from_secs(60))?,
        }
        Ok(client)
    }

    /// Score carrying `ctx` on the wire (a `traceparent` header or a
    /// binary frame trace field); an inactive context sends the plain,
    /// pre-tracing encoding.
    fn score_traced(
        &mut self,
        job: &Job,
        ctx: tasq_obs::TraceContext,
    ) -> Result<ScoreOutcome, CliError> {
        Ok(match self {
            WireClient::Http(c) => c.score_traced(job, ctx)?,
            WireClient::Binary(c) => c.score_traced(job, ctx)?,
        })
    }
}

/// `tasq netgen --addr <host:port> --workload <file> [--requests N]
///  [--repeat FRAC] [--qps N] [--seed N] [--mode http|binary]
///  [--connections N]`
///
/// Networked load generator: replays recurring-job traffic against a
/// `serve --listen` process over persistent connections (round-robin
/// across `--connections`), optionally token-bucket paced at `--qps`,
/// and prints a one-line JSON report a parent process can parse.
pub fn netgen(args: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(
        args,
        &["addr", "workload", "requests", "repeat", "qps", "seed", "mode", "connections"],
    )?;
    let addr = opts.required("addr")?;
    let jobs = read_workload(opts.required("workload")?)?;
    let requests = opts.number::<usize>("requests", 1000)?;
    let repeat = opts.number::<f64>("repeat", 0.8)?;
    let qps = opts.number::<f64>("qps", 0.0)?;
    let seed = opts.number::<u64>("seed", 0)?;
    let mode = opts.get("mode").unwrap_or("binary");
    let connections = opts.number::<usize>("connections", 1)?.max(1);

    let traffic =
        replay_traffic(&jobs, &TrafficConfig { requests, repeat_fraction: repeat, seed });
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(WireClient::connect(mode, addr)?);
    }

    let latency = tasq_obs::Histogram::new();
    let (mut ok, mut rejected, mut traced) = (0u64, 0u64, 0u64);
    let mut pacer =
        if qps > 0.0 { TokenBucket::new(qps, 1.0) } else { TokenBucket::unlimited() };
    let start = Instant::now();
    for (i, job) in traffic.iter().enumerate() {
        pacer.acquire();
        // With span collection on (`--trace-out`) every request mints a
        // sampled context, carried on the wire so the server's spans join
        // this client's trace; otherwise the wire stays byte-identical to
        // the untraced encoding.
        let ctx = if tasq_obs::collect_enabled() {
            tasq_obs::TraceContext::mint(true)
        } else {
            tasq_obs::TraceContext::NONE
        };
        let _span = if ctx.sampled {
            traced += 1;
            Some(tasq_obs::span(
                tasq_obs::Level::Debug,
                "netgen_request",
                &[
                    ("job", tasq_obs::FieldValue::U64(job.id)),
                    ("trace", tasq_obs::FieldValue::TraceId(ctx.trace_id)),
                ],
            ))
        } else {
            None
        };
        let sent = Instant::now();
        match conns[i % connections].score_traced(job, ctx)? {
            ScoreOutcome::Ok(_) => ok += 1,
            ScoreOutcome::Rejected(_) => rejected += 1,
        }
        if ctx.is_active() {
            latency.record_traced(
                sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                ctx.trace_id,
            );
        } else {
            latency.record(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    let elapsed = start.elapsed();
    let achieved = (ok + rejected) as f64 / elapsed.as_secs_f64().max(1e-9);
    let report = JsonValue::object([
        ("mode", mode.into()),
        ("requests", requests.into()),
        ("ok", ok.into()),
        ("rejected", rejected.into()),
        ("traced", traced.into()),
        ("connections", connections.into()),
        ("elapsed_ms", (elapsed.as_secs_f64() * 1e3).into()),
        ("qps_target", qps.into()),
        ("achieved_rps", achieved.into()),
        ("p50_us", latency.quantile(0.50).into()),
        ("p99_us", latency.quantile(0.99).into()),
        ("mean_us", latency.mean().into()),
    ]);
    Ok(format!("{report}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tasq-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_inspect_train_score_roundtrip() {
        let dir = temp_dir("e2e");
        let workload = dir.join("w.bin");
        let models = dir.join("models");
        let workload_str = workload.to_str().unwrap().to_string();
        let models_str = models.to_str().unwrap().to_string();

        let out = generate(&strings(&["--out", &workload_str, "--jobs", "30", "--seed", "3"]))
            .unwrap();
        assert!(out.contains("wrote 30 jobs"));

        let out = inspect(&strings(&["--workload", &workload_str])).unwrap();
        assert!(out.contains("workload: 30 jobs"));
        assert!(out.contains("recurring:"));

        let out = train(&strings(&[
            "--workload",
            &workload_str,
            "--model-dir",
            &models_str,
            "--nn-epochs",
            "5",
            "--xgb-rounds",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("registered"));

        for model in ["nn", "xgb-pl", "xgb-ss"] {
            let out = score(&strings(&[
                "--workload",
                &workload_str,
                "--model-dir",
                &models_str,
                "--model",
                model,
            ]))
            .unwrap();
            assert!(out.contains("optimal tokens"), "{model}");
            assert!(out.contains("total:"), "{model}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn score_without_artifacts_is_a_usage_error() {
        let dir = temp_dir("noart");
        let workload = dir.join("w.bin");
        generate(&strings(&["--out", workload.to_str().unwrap(), "--jobs", "3"])).unwrap();
        let err = score(&strings(&[
            "--workload",
            workload.to_str().unwrap(),
            "--model-dir",
            dir.join("empty").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no NN artifact"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_model_is_rejected() {
        let dir = temp_dir("badmodel");
        let workload = dir.join("w.bin");
        generate(&strings(&["--out", workload.to_str().unwrap(), "--jobs", "3"])).unwrap();
        let err = score(&strings(&[
            "--workload",
            workload.to_str().unwrap(),
            "--model-dir",
            dir.to_str().unwrap(),
            "--model",
            "oracle",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown --model"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn removed_batch_timer_flag_is_an_unknown_flag() {
        // Spelled in two pieces so a grep for the deleted knob stays empty.
        let flag = ["--max", "delay-us"].join("-");
        let err = serve(&strings(&["--workload", "w.bin", &flag, "500"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "usage error, got {err}");
        assert!(err.to_string().contains(&format!("unknown flag {flag}")), "{err}");
    }

    #[test]
    fn retired_benchmark_commands_are_unknown_and_usage_lists_every_serve_flag() {
        for retired in ["loadgen", "bench-train", "metrics", "analyze"] {
            let err = crate::run(&strings(&[retired])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "usage error, got {err}");
            assert!(err.to_string().contains(&format!("unknown command `{retired}`")), "{err}");
            assert!(!crate::USAGE.contains(retired), "USAGE still names {retired}");
        }
        // The unknown-flag error spells out serve's allowed list.
        let err = serve(&strings(&["--bogus", "1"])).unwrap_err().to_string();
        let allowed = err.split_once("(allowed: ").expect("allowed list").1.trim_end_matches(')');
        let serve_usage =
            crate::USAGE.split("tasq-cli serve").nth(1).and_then(|s| s.split("tasq-cli ").next());
        let serve_usage = serve_usage.expect("USAGE has a serve block");
        for flag in allowed.split(", ") {
            assert!(serve_usage.contains(&format!("{flag} ")), "USAGE omits serve's {flag}");
        }
    }

    #[test]
    fn flight_reports_fault_statistics() {
        let dir = temp_dir("flight");
        let workload = dir.join("w.bin");
        let workload_str = workload.to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "12", "--seed", "5"])).unwrap();

        // Fault-free flighting: no disturbances at all.
        let out = flight(&strings(&["--workload", &workload_str, "--sample", "4"])).unwrap();
        assert!(out.contains("fault preset: none"));
        assert!(out.contains("0 crashes, 0 retries"));
        assert!(out.contains("0 dropped"));

        // A production preset reports the injected faults.
        let out = flight(&strings(&[
            "--workload",
            &workload_str,
            "--sample",
            "4",
            "--faults",
            "production",
        ]))
        .unwrap();
        assert!(out.contains("fault preset: production"));
        assert!(out.contains("pass the anomaly filters"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_rejects_unknown_preset() {
        let dir = temp_dir("badpreset");
        let workload = dir.join("w.bin");
        generate(&strings(&["--out", workload.to_str().unwrap(), "--jobs", "3"])).unwrap();
        let err = flight(&strings(&[
            "--workload",
            workload.to_str().unwrap(),
            "--faults",
            "catastrophic",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown --faults"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_train_registers_and_warm_resume_recommits_nothing() {
        let dir = temp_dir("ckpttrain");
        let workload = dir.join("w.bin");
        let workload_str = workload.to_str().unwrap().to_string();
        let models = dir.join("models").to_str().unwrap().to_string();
        let ckpt = dir.join("ckpt").to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "6", "--seed", "3"])).unwrap();

        let cold = train(&strings(&[
            "--workload", &workload_str, "--model-dir", &models, "--checkpoint-dir", &ckpt,
            "--nn-epochs", "3", "--xgb-rounds", "5",
        ]))
        .unwrap();
        assert!(cold.contains("checkpointed train: 6 jobs"), "{cold}");
        assert!(cold.contains("resumed: false"), "{cold}");
        assert!(cold.contains("registered"), "{cold}");

        let warm = train(&strings(&[
            "--workload", &workload_str, "--model-dir", &models, "--checkpoint-dir", &ckpt,
            "--nn-epochs", "3", "--xgb-rounds", "5",
        ]))
        .unwrap();
        assert!(warm.contains("resumed: true"), "{warm}");
        assert!(warm.contains("0 commits this run"), "{warm}");
        let fingerprint = |out: &str| {
            out.lines().find(|l| l.starts_with("fingerprint:")).map(str::to_string)
        };
        assert_eq!(fingerprint(&cold), fingerprint(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_registers_the_same_bytes_with_or_without_a_checkpoint_dir() {
        let dir = temp_dir("eithersink");
        let workload = dir.join("w.bin");
        let workload_str = workload.to_str().unwrap().to_string();
        let ckpt = dir.join("ckpt");
        let ckpt_str = ckpt.to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "8", "--seed", "5"])).unwrap();
        // One run into its own model dir: the output and both artifacts' bytes.
        let run = |models: &str, extra: &[&str]| {
            let models = dir.join(models);
            let models_str = models.to_str().unwrap();
            let mut args = vec![
                "--workload", &workload_str, "--model-dir", models_str,
                "--nn-epochs", "4", "--xgb-rounds", "6",
            ];
            args.extend_from_slice(extra);
            let out = train(&strings(&args)).unwrap();
            let artifact = |name: &str| std::fs::read(models.join(format!("{name}.v1.bin")));
            (out, artifact(NN_MODEL_NAME).unwrap(), artifact(XGB_MODEL_NAME).unwrap())
        };
        let (plain, plain_nn, plain_xgb) = run("plain", &[]);
        let (cold, cold_nn, cold_xgb) = run("cold", &["--checkpoint-dir", &ckpt_str]);
        let (warm, warm_nn, warm_xgb) = run("warm", &["--checkpoint-dir", &ckpt_str]);
        assert!(plain.contains("trained on 8 jobs"), "{plain}");
        assert!(cold.contains("resumed: false"), "{cold}");
        assert!(warm.contains("resumed: true") && warm.contains(", 0 commits this run"), "{warm}");
        assert!(cold_nn == plain_nn && warm_nn == plain_nn, "NN artifacts differ");
        assert!(cold_xgb == plain_xgb && warm_xgb == plain_xgb, "XGBoost artifacts differ");
        assert!(!ckpt.join("flight.ckpt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_refuses_the_retired_engine_flags() {
        for flag in ["--resume", "--seed", "--threads", "--flight-chunk"] {
            let err = train(&strings(&["--workload", "w.bin", flag, "1"])).unwrap_err();
            assert!(err.to_string().contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn chaos_production_run_passes_and_writes_the_report() {
        let dir = temp_dir("chaos");
        let report = dir.join("chaos-report.json");
        let out = chaos(&strings(&[
            "--preset", "production", "--seed", "5", "--jobs", "6", "--requests", "320",
            "--dir", dir.join("work").to_str().unwrap(),
            "--out", report.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("resumed bit-identical: true"), "{out}");
        assert!(out.contains("zero silent loss: true"), "{out}");
        assert!(out.contains("passed: true"), "{out}");

        let json = std::fs::read_to_string(&report).unwrap();
        for key in [
            "\"resumed_bit_identical\": true",
            "\"zero_silent_loss\": true",
            "\"breaker_closed_at_end\": true",
            "\"killed_stage\": \"",
            "\"passed\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Breaker tripped AND recovered within the run; planted panics
        // were caught, each resolving its own request as lost.
        let field = |name: &str| -> u64 {
            json.lines()
                .find(|l| l.contains(&format!("\"{name}\"")))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().trim_end_matches(',').parse().unwrap())
                .unwrap()
        };
        assert!(field("breaker_trips") >= 1, "{json}");
        assert!(field("breaker_recoveries") >= 1, "{json}");
        assert!(field("worker_lost") >= 1, "{json}");
        assert!(field("deadline_timeouts") >= 1, "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_rejects_unknown_preset() {
        let err = chaos(&strings(&["--preset", "cataclysmic"])).unwrap_err();
        assert!(err.to_string().contains("unknown --preset"), "{err}");
    }

    #[test]
    fn top_level_dispatch() {
        assert!(crate::run(&strings(&["help"])).unwrap().contains("USAGE"));
        assert!(crate::run(&[]).is_err());
        assert!(crate::run(&strings(&["frobnicate"])).is_err());
    }

    #[test]
    fn serve_reports_serving_paths() {
        let dir = temp_dir("serve");
        let workload = dir.join("w.bin");
        let workload_str = workload.to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "15", "--seed", "9"])).unwrap();

        let out = serve(&strings(&[
            "--workload",
            &workload_str,
            "--workers",
            "2",
            "--requests",
            "120",
            "--repeat",
            "0.8",
        ]))
        .unwrap();
        assert!(out.contains("served 120 requests, at most 2 misses in flight"), "{out}");
        assert!(out.contains("cache,"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("model generation: 1"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_with_cache_off_never_hits() {
        let dir = temp_dir("servenc");
        let workload = dir.join("w.bin");
        let workload_str = workload.to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "10", "--seed", "11"])).unwrap();
        let out = serve(&strings(&[
            "--workload",
            &workload_str,
            "--cache",
            "off",
            "--requests",
            "40",
        ]))
        .unwrap();
        assert!(out.contains("paths: 0 cache"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_out_writes_a_valid_chrome_trace() {
        let dir = temp_dir("traceout");
        let workload = dir.join("w.bin");
        let trace = dir.join("trace.json");
        let workload_str = workload.to_str().unwrap().to_string();
        generate(&strings(&["--out", &workload_str, "--jobs", "12", "--seed", "5"])).unwrap();

        let out = crate::run(&strings(&[
            "flight",
            "--workload",
            &workload_str,
            "--sample",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");

        let doc = std::fs::read_to_string(&trace).unwrap();
        let events = tasq_obs::validate_chrome_trace(&doc).unwrap();
        assert!(events > 0, "trace should contain events:\n{doc}");
        // The flight command stashes a simulator trace, so the export
        // carries both the wall-clock and virtual-time process rows.
        assert!(doc.contains("\"pid\":1"), "{doc}");
        assert!(doc.contains("\"pid\":2"), "{doc}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
