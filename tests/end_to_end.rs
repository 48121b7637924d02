//! Cross-crate integration tests: the full TASQ dataflow from workload
//! generation through training, persistence, scoring, and validation.

use scope_sim::flight::{filter_non_anomalous, flight_job, FlightConfig};
use scope_sim::{
    ExecutionConfig, NoiseModel, WorkloadConfig, WorkloadGenerator,
};
use tasq::augment::AugmentConfig;
use tasq::dataset::Dataset;
use tasq::models::{
    GnnPcc, GnnTrainConfig, NnPcc, NnTrainConfig, PccPredictor, ScoringInput, XgbRuntime,
    XgbTrainConfig, XgboostPl, XgboostSs,
};
use tasq::pipeline::{
    AllocationDecision, JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig,
    ScoringService, TasqPipeline,
};

fn workload(n: usize, seed: u64) -> Vec<scope_sim::Job> {
    WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() }).generate()
}

#[test]
fn full_pipeline_train_persist_score() {
    let repo = JobRepository::new();
    repo.ingest(workload(40, 1));
    let store = ModelStore::new();
    let pipeline = TasqPipeline::new(PipelineConfig {
        nn: NnTrainConfig { epochs: 15, ..Default::default() },
        xgb: XgbTrainConfig { num_rounds: 25, ..Default::default() },
        ..Default::default()
    });
    let dataset = pipeline.train(&repo, &store).expect("trains");
    assert_eq!(dataset.len(), 40);

    // Every model choice deploys and scores sanely.
    for choice in [ModelChoice::Nn, ModelChoice::XgboostSs, ModelChoice::XgboostPl] {
        let service =
            ScoringService::deploy(&store, choice, ScoringConfig::default()).unwrap();
        for job in workload(5, 2) {
            let response = service.score(&job);
            assert!(response.predicted_runtime_at_request.is_finite());
            assert!(response.predicted_runtime_at_request >= 1.0);
            let AllocationDecision::Automatic { tokens } = response.decision else {
                panic!("automatic mode");
            };
            assert!(tokens >= 1 && tokens <= job.requested_tokens);
        }
    }
}

#[test]
fn all_four_models_train_and_predict_on_same_dataset() {
    let jobs = workload(30, 3);
    let dataset = Dataset::build(&jobs, &AugmentConfig::default());
    let xgb = XgbRuntime::train(&dataset, &XgbTrainConfig { num_rounds: 20, ..Default::default() });
    let models: Vec<Box<dyn PccPredictor>> = vec![
        Box::new(XgboostSs::new(xgb.clone())),
        Box::new(XgboostPl::new(xgb)),
        Box::new(NnPcc::train(&dataset, &NnTrainConfig { epochs: 10, ..Default::default() })),
        Box::new(GnnPcc::train(
            &dataset,
            &GnnTrainConfig { epochs: 3, gcn_dims: vec![16], head_hidden: vec![8], ..Default::default() },
        )),
    ];
    for model in &models {
        for example in dataset.examples.iter().take(5) {
            let input = ScoringInput {
                features: &example.features,
                op_features: Some(&example.op_features),
                reference_tokens: example.observed_tokens,
            };
            let prediction = model.predict(&input);
            let runtime = prediction.predict(example.observed_tokens);
            assert!(
                runtime.is_finite() && runtime >= 1.0,
                "{}: runtime {runtime}",
                model.name()
            );
        }
    }
    // NN and GNN guarantee monotone predictions on every job.
    for example in &dataset.examples {
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: example.observed_tokens,
        };
        assert!(models[2].predict(&input).is_non_increasing(1e-9));
        assert!(models[3].predict(&input).is_non_increasing(1e-9));
    }
}

#[test]
fn arepas_agrees_with_executor_reexecution() {
    // AREPAS simulates from one skyline; the executor re-executes for
    // real. Their run-time estimates must land in the same ballpark
    // (the paper's Table 3 premise).
    let jobs = workload(15, 5);
    let config = ExecutionConfig::default();
    let mut errors = Vec::new();
    for job in &jobs {
        let executor = job.executor();
        let ground = executor.run(job.requested_tokens, &config).expect("runs");
        for fraction in [0.6, 0.3] {
            let alloc = ((job.requested_tokens as f64 * fraction).round()).max(1.0) as u32;
            if alloc == job.requested_tokens {
                continue;
            }
            let actual = executor.run(alloc, &config).expect("runs").runtime_secs.max(1.0);
            let simulated =
                arepas::simulate_runtime(ground.skyline.samples(), alloc as f64) as f64;
            errors.push((simulated - actual).abs() / actual);
        }
    }
    let median = tasq_ml::stats::median(&errors);
    assert!(median < 0.35, "AREPAS median error vs re-execution: {median}");
}

#[test]
fn flighting_end_to_end_with_noise() {
    let jobs = workload(8, 7);
    let config = FlightConfig { noise: NoiseModel::mild(), seed: 7, ..Default::default() };
    let flighted: Vec<_> = jobs
        .iter()
        .map(|j| flight_job(j, j.requested_tokens.max(5), &config).expect("flights"))
        .collect();
    assert_eq!(flighted.len(), 8);
    let clean = filter_non_anomalous(flighted, 0.10);
    // Mild noise should rarely break monotonicity, so most jobs survive.
    assert!(clean.len() >= 6, "only {} jobs survived filtering", clean.len());
    for fj in &clean {
        assert!(fj.executions.len() >= 2);
        assert!(fj.flights.len() >= fj.executions.len());
    }
}

#[test]
fn model_artifacts_survive_serialization_faithfully() {
    let jobs = workload(20, 9);
    let dataset = Dataset::build(&jobs, &AugmentConfig::default());
    let nn = NnPcc::train(&dataset, &NnTrainConfig { epochs: 8, ..Default::default() });
    let store = ModelStore::new();
    store.register("nn", &nn).unwrap();
    let loaded: NnPcc = store.load_latest("nn").unwrap();
    for example in &dataset.examples {
        let a = nn.predict_pcc(&example.features);
        let b = loaded.predict_pcc(&example.features);
        assert_eq!(a, b, "serialized model must predict identically");
    }
}

/// The scoring service is Send + Sync: concurrent scorers over one shared
/// deployment must agree with sequential scoring exactly.
#[test]
fn scoring_service_is_thread_safe() {
    let repo = JobRepository::new();
    repo.ingest(workload(20, 13));
    let store = ModelStore::new();
    TasqPipeline::new(PipelineConfig {
        nn: NnTrainConfig { epochs: 5, ..Default::default() },
        xgb: XgbTrainConfig { num_rounds: 10, ..Default::default() },
        ..Default::default()
    })
    .train(&repo, &store)
    .expect("trains");
    let service = std::sync::Arc::new(
        ScoringService::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap(),
    );
    let incoming = workload(24, 14);
    let sequential: Vec<u32> = incoming.iter().map(|j| service.score(j).optimal_tokens).collect();

    let concurrent: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = incoming
            .chunks(6)
            .map(|chunk| {
                let service = std::sync::Arc::clone(&service);
                scope.spawn(move || {
                    chunk.iter().map(|j| service.score(j).optimal_tokens).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sequential, concurrent);
}

#[test]
fn retraining_creates_new_versions() {
    let repo = JobRepository::new();
    repo.ingest(workload(15, 11));
    let store = ModelStore::new();
    let pipeline = TasqPipeline::new(PipelineConfig {
        nn: NnTrainConfig { epochs: 3, ..Default::default() },
        xgb: XgbTrainConfig { num_rounds: 8, ..Default::default() },
        ..Default::default()
    });
    pipeline.train(&repo, &store).expect("trains");
    repo.ingest(workload(10, 12));
    pipeline.train(&repo, &store).expect("trains");
    assert_eq!(store.versions(tasq::pipeline::NN_MODEL_NAME), vec![1, 2]);
    assert_eq!(store.versions(tasq::pipeline::XGB_MODEL_NAME), vec![1, 2]);
}
