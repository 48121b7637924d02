//! The concurrent scoring server.
//!
//! A [`ModelRegistry`] deployment behind one entry point,
//! [`ScoringServer::submit`], for in-process callers and both wire
//! framings of `tasq-net` alike. Every request is answered on the thread
//! that submits it, and its [`Ticket`] comes back already resolved:
//!
//! 1. **Cache hit** — `submit` hashes the job's plan signature and, on a
//!    hit, answers from the signature cache with no model inference.
//! 2. **Miss** — the plan is checked, the miss claims one of
//!    [`ServeConfig::workers`] in-flight slots (beyond them it is refused
//!    with [`SubmitError::Overloaded`]), and it is scored against the
//!    current registry snapshot through the circuit breaker; a finite
//!    answer fills the cache. No queue, no worker thread, no wake: the
//!    scoring costs a few microseconds, a hand-off to another thread
//!    several times that.
//! 3. **Failure isolation** — the score runs under a panic boundary, so a
//!    panicking score resolves its own request to the typed
//!    [`RequestError::WorkerLost`] and the submitting thread carries on.
//!    Per-request deadline budgets resolve overdue work to
//!    [`RequestError::DeadlineExceeded`], and a [`CircuitBreaker`] over
//!    the primary model tier trips onto the analytic fallback after
//!    consecutive primary failures, half-open-probing its way back.
//!
//! `admission` holds the request, ticket, errors and `submit`; `score`
//! the panic boundary, the deadline check and scoring through the
//! breaker; `attribution` every counter and the latency segment chain;
//! this file the configuration, the server's state and its lifecycle.

mod admission;
mod attribution;
mod score;

pub use admission::{
    RequestError, ScoreRequest, ServedResponse, ServedVia, SubmitError, Ticket,
};

use crate::cache::{CacheConfig, SignatureCache};
use crate::registry::ModelRegistry;
use crate::stats::{LatencyHistogram, ServerStatsSnapshot, SlowRequest, SlowestTracker};
use attribution::Counters;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tasq::pipeline::ScoringService;
use tasq_obs::sync::{Mutex, Rank};
use tasq_obs::{SloConfig, SloEngine};
use tasq_resil::{BreakerConfig, BreakerState, ChaosPlan, CircuitBreaker};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The admission bound: at most this many cache misses score at once,
    /// each on the thread that submitted it, and a miss beyond the bound
    /// is refused with [`SubmitError::Overloaded`]. (The name is from when
    /// misses went to a pool of this many worker threads.)
    pub workers: usize,
    /// Signature-cache settings.
    pub cache: CacheConfig,
    /// Default per-request deadline budget. A miss whose budget has
    /// elapsed by the time its score starts resolves to
    /// [`RequestError::DeadlineExceeded`] instead of being scored late.
    /// `None` (the default) disables deadline enforcement;
    /// [`ScoreRequest::deadline`] overrides per request.
    pub deadline: Option<Duration>,
    /// Circuit breaker over the primary model tier: after
    /// `failure_threshold` consecutive primary failures the breaker opens
    /// and misses are answered by the analytic tier until a half-open
    /// probe succeeds. Ticks are miss sequence numbers, so behavior is
    /// deterministic for a deterministic request stream.
    pub breaker: BreakerConfig,
    /// Deterministic fault-injection plan for the chaos harness: planted
    /// scoring panics, a primary-tier fault window, and deadline storms,
    /// all keyed by miss sequence number. `None` (the default) injects
    /// nothing and costs one branch per miss.
    pub chaos: Option<ChaosPlan>,
    /// Service-level objectives evaluated continuously over every
    /// request: latency quantile thresholds and availability, as
    /// multi-window error-budget burn rates. Always on (bounded rings,
    /// no per-request allocation); served at the network front-end's
    /// `/slo` endpoint.
    pub slo: SloConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            cache: CacheConfig::default(),
            deadline: None,
            breaker: BreakerConfig::default(),
            chaos: None,
            slo: SloConfig::default(),
        }
    }
}

/// The running server: start with [`ScoringServer::start`], submit jobs,
/// read [`ScoringServer::stats`], and [`ScoringServer::drain`] for the
/// final statistics. It owns no threads; share it (in an [`Arc`]) with
/// every thread that submits.
pub struct ScoringServer {
    registry: Arc<ModelRegistry>,
    cache: SignatureCache,
    /// Analytic-only scorer: the breaker's open-state and fault answer.
    analytic: ScoringService,
    /// Misses scoring right now, across every submitting thread.
    depth: AtomicUsize,
    counters: Counters,
    latency: LatencyHistogram,
    /// Set by [`ScoringServer::close`]: `submit` refuses from then on.
    closed: AtomicBool,
    /// Primary-tier circuit breaker, ticked by miss sequence number.
    breaker: Mutex<CircuitBreaker>,
    config: ServeConfig,
    /// Error-budget burn-rate engine fed by every completion/failure.
    slo: SloEngine,
    /// Fixed-slot worst-requests tracker behind `/debug/slowest`.
    slowest: SlowestTracker,
}

impl ScoringServer {
    /// Start serving a registry deployment.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Self {
        let scoring_config = registry.current().service().config().clone();
        Self {
            cache: SignatureCache::new(&config.cache),
            analytic: ScoringService::analytic(scoring_config),
            registry,
            depth: AtomicUsize::new(0),
            counters: Counters::new(),
            latency: LatencyHistogram::new(),
            closed: AtomicBool::new(false),
            breaker: Mutex::new(Rank::Breaker, CircuitBreaker::new(config.breaker)),
            slo: SloEngine::new(config.slo.clone()),
            slowest: SlowestTracker::new(),
            config,
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let c = &self.counters;
        ServerStatsSnapshot {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            cache_hits: c.cache_hits.get(),
            model_scored: c.model_scored.get(),
            shed: 0,
            rejected: c.rejected.get(),
            batches: c.batches.get(),
            batched_requests: c.batches.get(),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
            worker_lost: c.worker_lost.get(),
            deadline_timeouts: c.deadline_timeouts.get(),
            breaker_trips: c.breaker_trips.get(),
            breaker_recoveries: c.breaker_recoveries.get(),
            generation: self.registry.generation(),
            latency: self.latency.snapshot(),
            cache: self.cache.stats(),
        }
    }

    /// Current state of the primary-tier circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().state()
    }

    /// The registry this server scores against (a hot-swap through it
    /// takes effect on the next miss).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Stop admitting: every later [`ScoringServer::submit`], on any
    /// thread, is refused with [`SubmitError::ShuttingDown`] (and counted
    /// as submitted and rejected). A submit already past its check
    /// finishes normally. The network front-end closes the server before
    /// it joins its shards.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }

    /// Close the server and return its final statistics. Every admitted
    /// request has been answered by then — `drain` takes the server by
    /// value, so no submit can still be running — and the snapshot
    /// satisfies `submitted == resolved()`.
    pub fn drain(self) -> ServerStatsSnapshot {
        self.close();
        self.stats()
    }

    /// Current SLO state (objectives + multi-window burn rates) as the
    /// JSON document the network front-end serves at `/slo`.
    pub fn slo_json(&self) -> String {
        self.slo.render_json(tasq_obs::clock::now_micros())
    }

    /// Worst fast-window burn rate across objectives right now.
    pub fn slo_burn(&self) -> f64 {
        self.slo.max_fast_burn(tasq_obs::clock::now_micros())
    }

    /// The retained slowest requests with segment breakdowns, worst
    /// first (the `/debug/slowest` payload).
    pub fn slowest(&self) -> Vec<SlowRequest> {
        self.slowest.snapshot()
    }

    /// JSON document for `/debug/slowest`.
    pub fn slowest_json(&self) -> String {
        self.slowest.render_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::PlanSignature;
    use scope_sim::{replay_traffic, Job, TrafficConfig, WorkloadConfig, WorkloadGenerator};
    use std::time::Instant;
    use tasq::models::{NnTrainConfig, XgbTrainConfig};
    use tasq::pipeline::{
        JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig, ServedTier,
        TasqPipeline,
    };
    use tasq_obs::TraceContext;

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    fn store(seed: u64) -> ModelStore {
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

    fn registry(seed: u64) -> Arc<ModelRegistry> {
        let store = store(seed);
        Arc::new(ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap())
    }

    /// Submit one request and read its answer.
    fn score(server: &ScoringServer, request: impl Into<ScoreRequest>) -> ServedResponse {
        server.submit(request).expect("admitted").outcome().expect("answered")
    }

    fn uncached() -> CacheConfig {
        CacheConfig { enabled: false, ..Default::default() }
    }

    #[test]
    fn scores_a_workload_and_caches_repeats() {
        let server = ScoringServer::start(registry(61), ServeConfig::default());
        let job = jobs(1, 63).remove(0);

        let first = score(&server, job.clone());
        assert_eq!(first.via, ServedVia::Model);
        assert_eq!(first.response.job_id, job.id);
        assert_eq!(first.response.served_tier, ServedTier::Primary);

        let mut resubmission = job.clone();
        resubmission.id = 777;
        let second = score(&server, resubmission);
        assert_eq!(second.via, ServedVia::Cache);
        assert_eq!(second.response.job_id, 777, "cached response re-addressed");
        assert_eq!(second.response.optimal_tokens, first.response.optimal_tokens);

        let stats = server.drain();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.model_scored, 1);
        assert_eq!(stats.completed, 2);
        assert!(stats.latency.count == 2);
    }

    #[test]
    fn idle_server_adds_no_batch_wait() {
        let server = ScoringServer::start(
            registry(65),
            ServeConfig { workers: 1, ..Default::default() },
        );
        // One outstanding, every signature never seen: each miss is scored
        // by itself the moment it is submitted.
        for job in jobs(200, 67) {
            assert_eq!(score(&server, job).via, ServedVia::Model);
        }
        let stats = server.drain();
        assert_eq!(stats.model_scored, 200);
        assert_eq!((stats.batches, stats.batched_requests), (200, 200), "one score per miss");
        assert_eq!(stats.peak_queue_depth, 1);
    }

    #[test]
    fn overload_rejects_once_the_queue_is_full() {
        let server = ScoringServer::start(
            registry(69),
            ServeConfig { workers: 1, ..Default::default() },
        );
        let mut plans = jobs(3, 71).into_iter();
        let (cached, refused, admitted) =
            (plans.next().unwrap(), plans.next().unwrap(), plans.next().unwrap());
        assert_eq!(score(&server, cached.clone()).via, ServedVia::Model);
        // The one in-flight slot, held as a miss scoring on another
        // thread would hold it: a miss is refused, a hit still answers.
        server.depth.fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            server.submit(refused.clone()).err(),
            Some(SubmitError::Overloaded { depth: 1, capacity: 1 })
        );
        assert_eq!(score(&server, cached).via, ServedVia::Cache, "a hit claims no slot");
        server.depth.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(score(&server, admitted).via, ServedVia::Model);
        assert_eq!(score(&server, refused).via, ServedVia::Model, "a refusal can be retried");

        // Four threads submitting misses at once never have more than
        // one scoring, and every refusal names the bound.
        let traffic = replay_traffic(
            &jobs(10, 73),
            &TrafficConfig { requests: 400, repeat_fraction: 0.0, seed: 5 },
        );
        let overloaded = std::thread::scope(|scope| {
            let submitters: Vec<_> = traffic
                .chunks(100)
                .map(|chunk| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut overloaded = 0u64;
                        for job in chunk {
                            match server.submit(job.clone()).map(Ticket::outcome) {
                                Ok(answer) => assert!(answer.is_ok(), "admitted misses complete"),
                                Err(SubmitError::Overloaded { depth, capacity: 1 }) => {
                                    assert!(depth >= 1);
                                    overloaded += 1;
                                }
                                Err(other) => panic!("generated plans, server up: {other}"),
                            }
                        }
                        overloaded
                    })
                })
                .collect();
            submitters.into_iter().map(|s| s.join().expect("submitter")).sum::<u64>()
        });
        let stats = server.drain();
        assert_eq!(stats.rejected, 1 + overloaded);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.peak_queue_depth, 1, "misses in flight bounded by workers");
        assert_eq!(stats.submitted, stats.resolved());
    }

    #[test]
    fn hot_swap_under_traffic_invalidates_cached_generation() {
        let registry = registry(73);
        let server = ScoringServer::start(Arc::clone(&registry), ServeConfig::default());
        let job = jobs(1, 75).remove(0);
        assert_eq!(score(&server, job.clone()).via, ServedVia::Model);
        assert_eq!(score(&server, job.clone()).via, ServedVia::Cache);

        // Swap (same artifacts, new generation): the old cache entry is
        // keyed under generation 1 and must not serve generation 2.
        registry
            .hot_swap(&store(73), ModelChoice::Nn, ScoringConfig::default(), &jobs(2, 77))
            .expect("swap");
        let after = score(&server, job);
        assert_eq!(after.via, ServedVia::Model, "new generation misses the old cache key");
        assert_eq!(after.generation, 2);
    }

    #[test]
    fn cache_scores_each_recurring_signature_once_with_bit_equal_answers() {
        // The acceptance benchmark in miniature: a repeat-heavy stream
        // (80% resubmissions; the fresh remainder cycles a finite daily
        // job population) served with and without the signature cache.
        // What the cache guarantees is counted, not timed: how much faster
        // a hit is than a miss depends on what a miss costs, which is the
        // model's business and not the cache's.
        let base = jobs(25, 79);
        let traffic = replay_traffic(
            &base,
            &TrafficConfig { requests: 1200, repeat_fraction: 0.8, seed: 7 },
        );
        let distinct: std::collections::HashSet<PlanSignature> =
            traffic.iter().map(PlanSignature::of_job).collect();
        let run = |enabled: bool| -> (Duration, ServerStatsSnapshot, Vec<Vec<u8>>) {
            let server = ScoringServer::start(
                registry(79),
                ServeConfig {
                    workers: 1,
                    cache: CacheConfig { enabled, ..Default::default() },
                    ..Default::default()
                },
            );
            // Clone the stream outside the timed section: request
            // construction is the client's cost, not the server's.
            let stream: Vec<Job> = traffic.clone();
            let start = Instant::now();
            let answers = stream
                .into_iter()
                .map(|job| {
                    let served = score(&server, job);
                    tasq::codec::to_bytes(&served.response).expect("encodes")
                })
                .collect();
            (start.elapsed(), server.drain(), answers)
        };
        let (uncached_elapsed, uncached_stats, uncached_answers) = run(false);
        let (cached_elapsed, cached_stats, cached_answers) = run(true);
        assert_eq!(uncached_stats.cache_hits, 0);
        assert_eq!(uncached_stats.model_scored, traffic.len() as u64);
        assert!(
            cached_stats.cache.hit_rate() > 0.9,
            "repeat-heavy stream should mostly hit, rate {}",
            cached_stats.cache.hit_rate()
        );
        assert!(
            cached_stats.model_scored <= distinct.len() as u64,
            "a signature is scored at most once: {} scored, {} distinct",
            cached_stats.model_scored,
            distinct.len()
        );
        assert!(cached_stats.model_scored * 4 <= uncached_stats.model_scored);
        assert!(cached_answers == uncached_answers, "a cached answer is the model's, bit for bit");
        assert!(
            cached_elapsed <= uncached_elapsed,
            "answering {} of {} requests without inference cannot be slower \
             (uncached {uncached_elapsed:?}, cached {cached_elapsed:?})",
            cached_stats.cache_hits,
            traffic.len()
        );
    }

    #[test]
    fn an_unstageable_plan_is_a_typed_refusal() {
        // What a decoder can hand `submit` and no plan constructor would;
        // scoring it would panic on the caller's thread.
        let template = jobs(1, 85).remove(0);
        let mut empty = template.clone();
        empty.plan.operators.clear();
        empty.plan.edges.clear();
        let mut out_of_range = template.clone();
        out_of_range.plan.edges.push((out_of_range.plan.operators.len(), 0));
        let mut cyclic = template.clone();
        let &(from, to) = cyclic.plan.edges.first().expect("generated plans have edges");
        cyclic.plan.edges.push((to, from));
        let server = ScoringServer::start(registry(85), ServeConfig::default());
        for hostile in [&empty, &out_of_range, &cyclic] {
            match server.submit(hostile.clone()) {
                Err(SubmitError::InvalidPlan { .. }) => {}
                Err(other) => panic!("wrong refusal: {other}"),
                Ok(_) => panic!("an unstageable plan was admitted"),
            }
        }
        assert_eq!(score(&server, template).via, ServedVia::Model);
        let stats = server.drain();
        assert_eq!((stats.rejected, stats.completed, stats.worker_lost), (3, 1, 0));
        assert_eq!(stats.submitted, stats.resolved());
    }

    #[test]
    fn shutdown_rejects_new_work_but_answers_admitted_work() {
        let server = ScoringServer::start(registry(81), ServeConfig::default());
        let tickets: Vec<Ticket> = jobs(6, 83)
            .into_iter()
            .map(|j| server.submit(j).expect("admitted"))
            .collect();
        let stats = server.drain();
        assert_eq!(stats.completed, 6, "admitted work is answered by shutdown");
        for ticket in tickets {
            assert!(ticket.outcome().is_ok());
        }
    }

    #[test]
    fn a_submit_that_loses_the_race_with_shutdown_is_counted_as_refused() {
        let server = ScoringServer::start(registry(101), ServeConfig::default());
        // The front-end closes the server while a shard may still submit;
        // a submit that comes after the close is refused, and counted.
        server.close();
        let refused = server.submit(jobs(1, 103).remove(0));
        assert!(matches!(refused, Err(SubmitError::ShuttingDown)));
        let stats = server.drain();
        assert_eq!((stats.submitted, stats.rejected, stats.peak_queue_depth), (1, 1, 0));
        assert_eq!(stats.submitted, stats.resolved(), "a refusal is a terminal outcome");
    }

    /// A chaos plan with only the given scoring panics planted.
    fn panic_plan(seqs: Vec<u64>) -> ChaosPlan {
        ChaosPlan {
            preset: "test".into(),
            seed: 0,
            kill_after_checkpoints: None,
            torn_tail_bytes: None,
            worker_panics: seqs,
            nn_fault_window: None,
            deadline_storm: None,
        }
    }

    #[test]
    fn a_panicking_score_resolves_its_own_request_to_worker_lost() {
        let server = ScoringServer::start(
            registry(85),
            ServeConfig {
                workers: 1,
                cache: uncached(),
                chaos: Some(panic_plan(vec![2])),
                ..Default::default()
            },
        );
        // Serial submits: miss sequence numbers are 0,1,2,... and the
        // planted panic hits seq 2.
        let outcomes: Vec<_> = jobs(6, 87)
            .into_iter()
            .map(|job| server.submit(job).expect("admitted").outcome())
            .collect();
        assert!(
            matches!(outcomes[2], Err(RequestError::WorkerLost)),
            "the panicking request is typed as lost: {:?}",
            outcomes[2].as_ref().err()
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i != 2 {
                assert!(outcome.is_ok(), "request {i} served around the panic: {outcome:?}");
            }
        }
        let stats = server.drain();
        assert_eq!(stats.worker_lost, 1);
        assert_eq!(stats.submitted, stats.resolved(), "zero silent loss");
    }

    #[test]
    fn concurrent_submits_panics_and_swaps_resolve_every_ticket_once() {
        // Each round: four threads submit misses into two in-flight slots
        // while a fifth hot-swaps the registry, two planted panics fire on
        // whichever submitters draw them, and then the server drains.
        // Every ticket resolves exactly once, as counted, and the
        // in-flight bound holds.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const ROUNDS: u64 = 40;
        const SUBMITTERS: usize = 4;
        const PER_SUBMITTER: usize = 16;
        const WORKERS: usize = 2;
        let store = store(191);
        let population = jobs(16, 193);
        let probes = jobs(2, 195);
        let mut rng = StdRng::seed_from_u64(197);
        for round in 0..ROUNDS {
            let registry = Arc::new(
                ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap(),
            );
            // The first two misses to claim a slot find at most one other
            // in flight, so they are always admitted and both panics fire.
            let panics = vec![0, 1];
            let server = ScoringServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    workers: WORKERS,
                    cache: uncached(),
                    chaos: Some(panic_plan(panics)),
                    ..Default::default()
                },
            );
            let streams: Vec<Vec<Job>> = (0..SUBMITTERS)
                .map(|s| {
                    (0..PER_SUBMITTER)
                        .map(|i| {
                            let template = &population[rng.gen_range(0..population.len())];
                            let id = (round * 100 + s as u64) * 100 + i as u64;
                            Job { id, ..template.clone() }
                        })
                        .collect()
                })
                .collect();
            let (mut served, mut lost, mut refused) = (0u64, 0u64, 0u64);
            std::thread::scope(|scope| {
                let swapper = scope.spawn(|| {
                    registry
                        .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &probes)
                        .is_ok()
                });
                let submitters: Vec<_> = streams
                    .iter()
                    .map(|stream| {
                        let server = &server;
                        scope.spawn(move || {
                            let mut counts = (0u64, 0u64, 0u64);
                            for job in stream {
                                match server.submit(job.clone()).map(Ticket::outcome) {
                                    Ok(Ok(answer)) => {
                                        assert_eq!(answer.response.job_id, job.id);
                                        counts.0 += 1;
                                    }
                                    Ok(Err(RequestError::WorkerLost)) => counts.1 += 1,
                                    Err(SubmitError::Overloaded { .. }) => counts.2 += 1,
                                    Ok(Err(other)) => panic!("no deadline was set: {other}"),
                                    Err(other) => panic!("unexpected refusal: {other}"),
                                }
                            }
                            counts
                        })
                    })
                    .collect();
                for submitter in submitters {
                    let (s, l, r) = submitter.join().expect("submitter");
                    served += s;
                    lost += l;
                    refused += r;
                }
                assert!(swapper.join().expect("swapper"), "round {round}: swap validated");
            });
            let stats = server.drain();
            assert_eq!(stats.submitted, (SUBMITTERS * PER_SUBMITTER) as u64, "round {round}");
            assert_eq!(
                (stats.completed, stats.worker_lost, stats.rejected, stats.deadline_timeouts),
                (served, lost, refused, 0),
                "round {round}: every ticket resolves once, as counted"
            );
            assert_eq!(lost, 2, "round {round}: each planted panic loses its own request");
            assert_eq!(stats.submitted, stats.resolved(), "round {round}: zero silent loss");
            assert!(
                stats.peak_queue_depth <= WORKERS as u64,
                "round {round}: {} misses in flight",
                stats.peak_queue_depth
            );
        }
    }

    #[test]
    fn expired_deadline_budget_is_a_typed_timeout() {
        let server = ScoringServer::start(
            registry(89),
            ServeConfig { workers: 1, cache: uncached(), ..Default::default() },
        );
        let mut batch = jobs(2, 91);
        let on_time = server.submit(batch.pop().unwrap()).expect("admitted");
        assert!(on_time.outcome().is_ok());
        let doomed = server
            .submit(ScoreRequest { deadline: Some(Duration::ZERO), ..batch.pop().unwrap().into() })
            .expect("admitted");
        assert!(matches!(
            doomed.outcome(),
            Err(RequestError::DeadlineExceeded { budget: Duration::ZERO })
        ));
        let stats = server.drain();
        assert_eq!(stats.deadline_timeouts, 1);
        assert_eq!(stats.submitted, stats.resolved(), "zero silent loss");
    }

    #[test]
    fn breaker_trips_on_fault_window_and_recovers_half_open() {
        let fault_plan = ChaosPlan {
            nn_fault_window: Some((0, 8)),
            ..panic_plan(vec![])
        };
        let server = ScoringServer::start(
            registry(93),
            ServeConfig {
                workers: 1,
                cache: uncached(),
                breaker: tasq_resil::BreakerConfig {
                    failure_threshold: 3,
                    cooldown_ticks: 4,
                    probe_successes: 2,
                },
                chaos: Some(fault_plan),
                ..Default::default()
            },
        );
        // Serial traffic across the fault window: seqs 0..8 fault the
        // primary tier; the breaker must open during the window and
        // half-open its way back to Closed on healthy traffic after it.
        let mut analytic_served = 0usize;
        for job in replay_traffic(
            &jobs(10, 95),
            &TrafficConfig { requests: 30, repeat_fraction: 0.0, seed: 11 },
        ) {
            if score(&server, job).response.served_tier == ServedTier::Analytic {
                analytic_served += 1;
            }
        }
        assert_eq!(server.breaker_state(), tasq_resil::BreakerState::Closed);
        let stats = server.drain();
        assert!(stats.breaker_trips >= 1, "fault window must trip the breaker");
        assert!(stats.breaker_recoveries >= 1, "breaker must close again after the window");
        assert!(analytic_served >= 3, "open breaker serves the analytic rung");
        assert_eq!(stats.completed, 30, "every request answered despite the faults");
    }

    #[test]
    fn drain_answers_all_admitted_work_then_refuses() {
        let server = ScoringServer::start(registry(97), ServeConfig::default());
        let tickets: Vec<Ticket> = jobs(8, 99)
            .into_iter()
            .map(|j| server.submit(j).expect("admitted"))
            .collect();
        let stats = server.drain();
        assert_eq!(stats.completed, 8, "drain reports every admitted request answered");
        assert_eq!(stats.submitted, stats.resolved());
        for ticket in tickets {
            assert!(ticket.outcome().is_ok());
        }
    }

    #[test]
    fn segment_chain_sums_to_end_to_end_per_request() {
        let server = ScoringServer::start(registry(171), ServeConfig::default());
        for job in replay_traffic(
            &jobs(8, 173),
            &TrafficConfig { requests: 40, repeat_fraction: 0.5, seed: 175 },
        ) {
            score(&server, job);
        }
        let slowest = server.slowest();
        assert!(!slowest.is_empty(), "slowest tracker retains untraced requests too");
        for slow in &slowest {
            let seg_sum = slow.fastpath_probe_us + slow.score_us + slow.flush_us;
            // Each of the three segments truncates to whole µs, so the
            // contiguous chain undershoots the total by at most 3 µs and
            // never overshoots.
            assert!(
                slow.total_us >= seg_sum && slow.total_us - seg_sum <= 3,
                "segments must sum to the end-to-end total: {slow:?}"
            );
        }
        server.drain();
    }

    #[test]
    fn stats_json_is_parseable_and_complete() {
        let server = ScoringServer::start(registry(191), ServeConfig::default());
        for job in jobs(6, 193) {
            score(&server, job);
        }
        let stats = server.drain();
        let json = stats.to_json().to_string();
        let parsed = tasq_obs::json::parse(&json).expect("stats json must parse");
        let field = |key: &str| parsed.get(key).and_then(|v| v.as_f64());
        assert_eq!(field("submitted"), Some(stats.submitted as f64), "{json}");
        assert_eq!(field("model_scored"), Some(stats.model_scored as f64), "{json}");
        assert_eq!(field("resolved"), Some(stats.resolved() as f64), "{json}");
        for key in ["completed", "rejected", "p50_us", "p99_us", "p999_us"] {
            assert!(field(key).is_some(), "missing {key} in {json}");
        }
        assert!(!json.contains(['\n', ' ']), "one compact line: {json}");
    }

    #[test]
    fn traced_submission_flows_into_slowest_and_slo() {
        let server = ScoringServer::start(registry(181), ServeConfig::default());
        let ctx = TraceContext::mint(true);
        let job = jobs(1, 183).remove(0);
        score(&server, ScoreRequest { trace: ctx, ..job.into() });
        let slowest = server.slowest();
        assert!(
            slowest.iter().any(|s| s.trace_id == ctx.trace_id),
            "the carried trace id must survive to /debug/slowest: {slowest:?}"
        );
        let doc = server.slowest_json();
        assert!(
            doc.contains(&format!("{:032x}", ctx.trace_id)),
            "slowest json must render the trace id: {doc}"
        );
        let slo = server.slo_json();
        let parsed = tasq_obs::json::parse(&slo).expect("slo json parses");
        assert!(parsed.get("objectives").is_some(), "slo json lists objectives: {slo}");
        assert!(server.slo_burn().is_finite());
        server.drain();
    }
}
