//! Serving-stack micro-benchmarks: plan-signature hashing, the sharded
//! LRU cache, and the end-to-end server in its four interesting
//! configurations — batched vs unbatched submission and cached vs
//! uncached recurring traffic. The last pair quantifies the headline
//! serving claim: recurring production jobs answered from the signature
//! cache skip featurization and inference entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scope_sim::{replay_traffic, Job, TrafficConfig, WorkloadConfig, WorkloadGenerator};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use tasq::models::{NnTrainConfig, XgbTrainConfig};
use tasq::pipeline::{
    JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig, TasqPipeline,
};
use tasq_serve::cache::CacheConfig;
use tasq_serve::{ModelRegistry, PlanSignature, ScoringServer, ServeConfig, SignatureCache};

fn jobs(n: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() }).generate()
}

fn registry(seed: u64) -> Arc<ModelRegistry> {
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
    Arc::new(
        ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
            .expect("deploys"),
    )
}

fn bench_signature(c: &mut Criterion) {
    let population = jobs(16, 101);
    c.bench_function("serve/plan_signature", |b| {
        b.iter(|| {
            for job in &population {
                black_box(PlanSignature::of_job(black_box(job)));
            }
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    let cache = SignatureCache::new(&CacheConfig::default());
    let registry = registry(103);
    let population = jobs(64, 105);
    let keys: Vec<u64> = population.iter().map(|j| PlanSignature::of_job(j).cache_key(1)).collect();
    let response = registry.current().service().score(&population[0]);
    for &key in &keys {
        cache.insert(key, response.clone());
    }
    c.bench_function("serve/cache_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(cache.get(black_box(keys[i])));
        });
    });
    c.bench_function("serve/cache_insert_evicting", |b| {
        let small = SignatureCache::new(&CacheConfig { capacity: 16, shards: 2, enabled: true });
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
            small.insert(black_box(key), response.clone());
        });
    });
}

/// Push a fixed stream through a server configuration and wait for all
/// responses (the unit of work every server bench iterates).
fn pump(server: &ScoringServer, traffic: &[Job]) {
    let mut window: VecDeque<tasq_serve::Ticket> = VecDeque::new();
    for job in traffic {
        if window.len() >= 64 {
            if let Some(ticket) = window.pop_front() {
                black_box(ticket.wait());
            }
        }
        window.push_back(server.submit(job.clone()).expect("admitted"));
    }
    for ticket in window {
        black_box(ticket.wait());
    }
}

fn bench_batched_vs_unbatched(c: &mut Criterion) {
    // Recurring traffic with the cache disabled: the difference is
    // `max_batch` — how much backlog one registry snapshot and one dedup
    // scope may cover (each distinct plan signature scored once per
    // batch) versus one request per dispatch.
    let traffic = replay_traffic(
        &jobs(20, 107),
        &TrafficConfig { requests: 200, repeat_fraction: 0.8, seed: 9 },
    );
    let mut group = c.benchmark_group("serve/batching");
    for (label, max_batch) in [("unbatched", 1usize), ("batched_16", 16)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &max_batch, |b, &max_batch| {
            let server = ScoringServer::start(
                registry(109),
                ServeConfig {
                    workers: 2,
                    max_batch,
                    cache: CacheConfig { enabled: false, ..Default::default() },
                    ..Default::default()
                },
            );
            b.iter(|| pump(&server, &traffic));
        });
    }
    group.finish();
}

fn bench_cached_vs_uncached(c: &mut Criterion) {
    // Recurring traffic (80% repeats over a small daily population): the
    // signature cache turns most requests into hash-and-return.
    let traffic = replay_traffic(
        &jobs(20, 111),
        &TrafficConfig { requests: 400, repeat_fraction: 0.8, seed: 11 },
    );
    let mut group = c.benchmark_group("serve/recurring_traffic");
    for (label, enabled) in [("uncached", false), ("cached", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &enabled, |b, &enabled| {
            let server = ScoringServer::start(
                registry(113),
                ServeConfig {
                    workers: 2,
                    cache: CacheConfig { enabled, ..Default::default() },
                    ..Default::default()
                },
            );
            b.iter(|| pump(&server, &traffic));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_signature, bench_cache, bench_batched_vs_unbatched, bench_cached_vs_uncached
}
criterion_main!(benches);
