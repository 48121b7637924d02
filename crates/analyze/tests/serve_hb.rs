//! Happens-before audit of the real concurrent serving stack.
//!
//! A traced [`ScoringServer`] run — real worker threads, real bounded
//! channels — must produce a synchronization log the vector-clock checker
//! proves race-free, and two same-seed runs must record the same number of
//! events. A mutation test then drops one worker `Recv` edge from the log
//! and demands the checker expose the resulting unordered request-buffer
//! access.

#![allow(clippy::expect_used)]

use scope_sim::{EventLog, EventTrace, TraceOp, WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;
use tasq::models::{NnTrainConfig, XgbTrainConfig};
use tasq::pipeline::{
    JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig, TasqPipeline,
};
use tasq_analyze::hb::check_log;
use tasq_serve::{CacheConfig, ModelRegistry, ScoringServer, ServeConfig, Ticket};

/// Train a small registry and run `requests` jobs through a traced server.
fn traced_run(requests: usize, seed: u64) -> EventLog {
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
    .expect("trains");
    let registry = Arc::new(
        ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
            .expect("deploys"),
    );

    let trace = EventTrace::new();
    let server = ScoringServer::start(
        registry,
        ServeConfig {
            workers: 3,
            cache: CacheConfig { enabled: false, ..Default::default() },
            trace: Some(trace.clone()),
            ..Default::default()
        },
    );
    let tickets: Vec<Ticket> =
        jobs.into_iter().map(|j| server.submit(j).expect("admitted")).collect();
    for ticket in tickets {
        assert!(ticket.outcome().is_ok(), "every admitted request must be answered");
    }
    server.shutdown();
    trace.snapshot()
}

#[test]
fn traced_server_runs_are_race_free_and_consistent() {
    let first = traced_run(16, 83);
    let second = traced_run(16, 83);

    // Thread interleavings differ between runs, so the logs need not be
    // identical — but the event *count* is determined by the request
    // stream, and both must replay race-free.
    assert_eq!(first.len(), second.len(), "same-seed runs record the same events");
    assert!(first.len() >= 16 * 8, "submit + worker + waiter events per request");

    for log in [&first, &second] {
        let races = check_log(log).expect("server log replays to completion");
        assert_eq!(races, vec![], "serving stack must be race-free");
    }
}

#[test]
fn dropping_a_worker_recv_exposes_the_request_buffer_race() {
    let mut log = traced_run(8, 89);
    // Remove one worker-side queue Recv: the worker's Read of that
    // request's buffer is now unordered against the submitter's Write.
    let pos = log
        .events
        .iter()
        .position(|e| {
            matches!(e.op, TraceOp::Recv { chan, .. } if chan == tasq_serve::server::CHAN_QUEUE)
        })
        .expect("workers receive from the queue channel");
    log.events.remove(pos);
    let races = check_log(&log).expect("mutated log still replays");
    assert!(
        !races.is_empty(),
        "dropping the queue edge must surface the request-buffer race"
    );
}
