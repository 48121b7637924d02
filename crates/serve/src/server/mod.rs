//! The concurrent scoring server.
//!
//! A bounded worker pool wraps a [`ModelRegistry`] deployment;
//! [`ScoringServer::submit`] is the one way in, for in-process callers
//! and both wire framings of `tasq-net` alike:
//!
//! 1. **Fast path** — `submit` hashes the job's plan signature and, on a
//!    cache hit, answers immediately on the caller's thread with no
//!    queueing and no model inference.
//! 2. **Batched path** — cache misses enter a bounded queue. Dispatch is
//!    work-conserving: a worker blocks only while it holds nothing, then
//!    takes whatever backlog is already queued (up to `max_batch`) as one
//!    micro-batch — no timer, so an idle server adds no wait and batches
//!    form exactly when there is backlog. All workers take from one
//!    queue, so whichever worker is free takes the next request. A batch
//!    dedupes identical signatures, scores against one registry snapshot,
//!    answers each request through its one-shot reply slot, and populates
//!    the cache.
//! 3. **Admission control** — when the queue passes the shed watermark
//!    the request is answered inline from the analytic Amdahl tier
//!    (cheap, model-free, clearly marked); at full capacity it is
//!    rejected with [`SubmitError::Overloaded`]. The queue can therefore
//!    never grow beyond its configured bound.
//! 4. **Supervision** — each worker slot runs under a supervisor that
//!    catches panics and respawns the worker. Requests in flight when a
//!    worker dies resolve to the typed [`RequestError::WorkerLost`] —
//!    never a hang. Per-request deadline budgets resolve overdue work to
//!    [`RequestError::DeadlineExceeded`], and a [`CircuitBreaker`] over
//!    the primary model tier trips onto the analytic fallback after
//!    consecutive primary failures, half-open-probing its way back.
//!
//! `admission` holds the request, ticket, errors and `submit`; `worker`
//! dispatch, batching, supervision and scoring; `attribution` every
//! counter and the latency segment chain; this file the configuration,
//! the shared state and the server's lifecycle.
//!
//! All coordination is std-only (threads, one mutex-and-condvar queue,
//! one-shot reply slots, atomics), in keeping with the workspace's
//! vendored offline dependencies.

mod admission;
mod attribution;
mod worker;

pub use admission::{
    RequestError, ScoreRequest, ServedResponse, ServedVia, SubmitError, Ticket,
};

use crate::cache::{CacheConfig, SignatureCache};
use crate::registry::ModelRegistry;
use crate::scaling::ScalingConfig;
use crate::stats::{LatencyHistogram, ServerStatsSnapshot, SlowRequest, SlowestTracker};
use attribution::Counters;
use parking_lot::Mutex;
use scope_sim::EventTrace;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tasq::pipeline::ScoringService;
use tasq_obs::{SloConfig, SloEngine};
use tasq_resil::{BreakerConfig, BreakerState, ChaosPlan, CircuitBreaker};
use worker::{resize_pool, scaler_loop, WorkQueue};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads scoring micro-batches.
    pub workers: usize,
    /// Maximum queued requests one micro-batch (one registry snapshot,
    /// one dedup scope) may cover.
    pub max_batch: usize,
    /// Hard bound on queued (admitted but unscored) requests; beyond it
    /// `submit` returns [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Queue depth at which requests shed to the analytic tier instead of
    /// queueing (set `>= queue_capacity` to disable shedding).
    pub shed_watermark: usize,
    /// Signature-cache settings.
    pub cache: CacheConfig,
    /// Optional synchronization-event trace. When set, every queued
    /// request's channel handoffs and request/response buffer accesses
    /// are appended to the shared log, which the `tasq-analyze`
    /// happens-before checker replays to prove the serving stack free of
    /// unsynchronized cross-thread accesses. `None` (the default) records
    /// nothing and costs nothing.
    pub trace: Option<EventTrace>,
    /// Default per-request deadline budget. A queued request whose budget
    /// has elapsed by the time a worker picks it up resolves to
    /// [`RequestError::DeadlineExceeded`] instead of being scored late.
    /// `None` (the default) disables deadline enforcement;
    /// [`ScoreRequest::deadline`] overrides per request.
    pub deadline: Option<Duration>,
    /// Circuit breaker over the primary model tier: after
    /// `failure_threshold` consecutive primary failures the breaker opens
    /// and batched requests are answered by the analytic tier until a
    /// half-open probe succeeds. Ticks are request sequence numbers, so
    /// behavior is deterministic for a deterministic request stream.
    pub breaker: BreakerConfig,
    /// Deterministic fault-injection plan for the chaos harness: planted
    /// worker panics, a primary-tier fault window, and deadline storms,
    /// all keyed by request sequence number. `None` (the default) injects
    /// nothing and costs one branch per request.
    pub chaos: Option<ChaosPlan>,
    /// Worker-pool autoscaling policy (min/max workers, queue-utilization
    /// thresholds, cooldown). Disabled by default; when enabled a scaler
    /// thread resizes the pool between [`ScoringServer::resize_workers`]
    /// bounds as load swings.
    pub scaling: ScalingConfig,
    /// Service-level objectives evaluated continuously over every
    /// request: latency quantile thresholds and availability, as
    /// multi-window error-budget burn rates. Always on (bounded rings,
    /// no per-request allocation); the burn rate feeds the autoscaler
    /// when [`ScalingConfig::burn_up_threshold`] is positive and is
    /// served at the network front-end's `/slo` endpoint.
    pub slo: SloConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_batch: 16,
            queue_capacity: 512,
            shed_watermark: 448,
            cache: CacheConfig::default(),
            trace: None,
            deadline: None,
            breaker: BreakerConfig::default(),
            chaos: None,
            scaling: ScalingConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// Channel id of the request queue in the serving stack's synchronization
/// log. The id spaces here are disjoint from the executor's `sync_log`
/// convention; each request's reply channel and request/response buffers
/// are keyed by the envelope's sequence number below the base.
pub const CHAN_QUEUE: u64 = 6 << 32;
/// Channel id base of per-request reply channels in the trace.
pub const CHAN_REPLY_BASE: u64 = 7 << 32;
/// Resource id base of per-request job buffers in the trace.
pub const RES_REQUEST_BASE: u64 = 8 << 32;
/// Resource id base of per-request response buffers in the trace.
pub const RES_RESPONSE_BASE: u64 = 9 << 32;

struct Shared {
    registry: Arc<ModelRegistry>,
    cache: SignatureCache,
    /// Analytic-only scorer for the shed path (model-free, cheap).
    analytic: ScoringService,
    depth: AtomicUsize,
    counters: Counters,
    latency: LatencyHistogram,
    shutdown: AtomicBool,
    /// Drain mode: new submissions are refused but workers keep going.
    draining: AtomicBool,
    /// Primary-tier circuit breaker, ticked by request sequence number.
    breaker: Mutex<CircuitBreaker>,
    config: ServeConfig,
    /// The one queue every worker takes admitted requests from, with the
    /// pool's target and live sizes under its lock.
    queue: WorkQueue,
    /// Monotonic worker slot numbering across resizes.
    next_slot: AtomicUsize,
    /// Autoscaler scale-up actions applied.
    scale_ups: AtomicU64,
    /// Autoscaler scale-down actions applied.
    scale_downs: AtomicU64,
    /// Error-budget burn-rate engine fed by every completion/failure.
    slo: SloEngine,
    /// Fixed-slot worst-requests tracker behind `/debug/slowest`.
    slowest: SlowestTracker,
}

/// The running server: spawn with [`ScoringServer::start`], submit jobs,
/// read [`ScoringServer::stats`], and drop (or [`ScoringServer::shutdown`])
/// to stop. Dropping joins the workers after draining the queue.
pub struct ScoringServer {
    shared: Arc<Shared>,
    /// Worker (and scaler) join handles; a shared mutex-backed vec so
    /// the autoscaler thread can push freshly spawned workers.
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ScoringServer {
    /// Start the worker pool against a registry deployment.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Self {
        let scoring_config = registry.current().service().config().clone();
        let shared = Arc::new(Shared {
            cache: SignatureCache::new(&config.cache),
            analytic: ScoringService::analytic(scoring_config),
            registry,
            depth: AtomicUsize::new(0),
            counters: Counters::new(),
            latency: LatencyHistogram::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
            config: config.clone(),
            queue: WorkQueue::new(),
            next_slot: AtomicUsize::new(0),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            slo: SloEngine::new(config.slo.clone()),
            slowest: SlowestTracker::new(),
        });
        let workers = Arc::new(Mutex::new(Vec::new()));
        resize_pool(&shared, &workers, config.workers.max(1));
        if config.scaling.auto_scaling {
            let scaler_shared = Arc::clone(&shared);
            let scaler_workers = Arc::clone(&workers);
            let handle = std::thread::spawn(move || {
                scaler_loop(&scaler_shared, &scaler_workers);
            });
            workers.lock().push(handle);
        }
        Self { shared, workers }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let shared = &self.shared;
        let c = &shared.counters;
        ServerStatsSnapshot {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            cache_hits: c.cache_hits.get(),
            model_scored: c.model_scored.get(),
            shed: c.shed.get(),
            rejected: c.rejected.get(),
            batches: c.batches.get(),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
            worker_lost: c.worker_lost.get(),
            deadline_timeouts: c.deadline_timeouts.get(),
            worker_respawns: c.worker_respawns.get(),
            breaker_trips: c.breaker_trips.get(),
            breaker_recoveries: c.breaker_recoveries.get(),
            generation: shared.registry.generation(),
            latency: shared.latency.snapshot(),
            cache: shared.cache.stats(),
        }
    }

    /// Current state of the primary-tier circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.lock().state()
    }

    /// The registry this server scores against (hot-swaps through it take
    /// effect on the next batch).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Stop accepting requests, drain the queue, and join the workers.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    /// Graceful drain: refuse new submissions (callers see
    /// [`SubmitError::ShuttingDown`]), wait until every admitted request
    /// has left the queue and been answered, then join the workers and
    /// return final stats. Unlike [`ScoringServer::shutdown`], the
    /// refusal starts *before* the workers are told to stop, so a load
    /// generator can stop the world without racing its own tail of
    /// submissions against worker teardown.
    pub fn drain(mut self) -> ServerStatsSnapshot {
        self.shared.draining.store(true, Ordering::SeqCst);
        while self.shared.depth.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.wake_all();
        // Joining happens outside the lock (the autoscaler thread takes
        // it to push workers), and loops in case a resize raced the
        // shutdown flag and pushed a handle after the first sweep.
        loop {
            let batch: Vec<_> = self.workers.lock().drain(..).collect();
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                if handle.join().is_err() {
                    // A panicked worker is a bug elsewhere; shutdown still
                    // completes so callers can read stats.
                }
            }
        }
    }

    /// Workers currently alive (scale-down is cooperative: a busy surplus
    /// worker leaves after its batch, so this may briefly exceed the
    /// target after a `Down` action).
    pub fn worker_count(&self) -> usize {
        self.shared.queue.live()
    }

    /// Resize the worker pool to `target` (clamped to ≥ 1). Growth
    /// spawns supervised workers immediately; shrinkage is cooperative —
    /// a surplus worker leaves between batches, never abandoning
    /// requests it already holds, and leaves what is queued to the rest
    /// of the pool.
    pub fn resize_workers(&self, target: usize) {
        resize_pool(&self.shared, &self.workers, target);
    }

    /// `(scale_ups, scale_downs)` applied by the autoscaler thread.
    pub fn scaling_events(&self) -> (u64, u64) {
        (
            self.shared.scale_ups.load(Ordering::Relaxed),
            self.shared.scale_downs.load(Ordering::Relaxed),
        )
    }

    /// Current SLO state (objectives + multi-window burn rates) as the
    /// JSON document the network front-end serves at `/slo`.
    pub fn slo_json(&self) -> String {
        self.shared.slo.render_json(tasq_obs::clock::now_micros())
    }

    /// Worst fast-window burn rate across objectives right now.
    pub fn slo_burn(&self) -> f64 {
        self.shared.slo.max_fast_burn(tasq_obs::clock::now_micros())
    }

    /// The retained slowest requests with segment breakdowns, worst
    /// first (the `/debug/slowest` payload).
    pub fn slowest(&self) -> Vec<SlowRequest> {
        self.shared.slowest.snapshot()
    }

    /// JSON document for `/debug/slowest`.
    pub fn slowest_json(&self) -> String {
        self.shared.slowest.render_json()
    }
}

impl Drop for ScoringServer {
    fn drop(&mut self) {
        self.stop_and_join();
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
        JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoreResponse, ScoringConfig,
        ServedTier, TasqPipeline,
    };
    use tasq_obs::TraceContext;

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
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
        Arc::new(ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default()).unwrap())
    }

    /// Submit one request and wait for its answer.
    fn score(server: &ScoringServer, request: impl Into<ScoreRequest>) -> ServedResponse {
        server.submit(request).expect("admitted").outcome().expect("answered")
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

        let stats = server.shutdown();
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
        // One outstanding, every signature never seen: nothing is ever
        // queued behind the request a worker holds.
        for job in jobs(200, 67) {
            assert_eq!(score(&server, job).via, ServedVia::Model);
        }
        let mut waits: Vec<u64> = server.slowest().iter().map(|s| s.batch_wait_us).collect();
        let stats = server.shutdown();
        assert_eq!(stats.model_scored, 200);
        assert_eq!(stats.batches, stats.batched_requests, "an idle server forms no batches");
        // dequeue → scoring turn runs on the worker thread alone, so only
        // a preemption inside those few instructions can stretch it; the
        // median over the retained worst requests tolerates one of those
        // and still fails on any dispatch that waits to fill a batch.
        waits.sort_unstable();
        assert!(!waits.is_empty());
        let median = waits[waits.len() / 2];
        assert!(median <= 50, "worker held a request without scoring it: {waits:?}");
    }

    #[test]
    fn backlog_coalesces_and_dedups_without_changing_answers() {
        let registry = registry(65);
        let server = ScoringServer::start(
            Arc::clone(&registry),
            ServeConfig {
                workers: 1,
                cache: CacheConfig { enabled: false, ..Default::default() },
                ..Default::default()
            },
        );
        // Half the burst is one plan resubmitted under fresh ids; with the
        // cache off, only in-batch dedup can answer those without scoring.
        let mut burst = jobs(33, 69);
        let repeated = burst.remove(0);
        for i in 0..32 {
            burst.insert(2 * i, Job { id: 9_000 + i as u64, ..repeated.clone() });
        }
        let tickets: Vec<Ticket> =
            burst.iter().map(|j| server.submit(j.clone()).expect("admitted")).collect();
        let active = registry.current();
        // Bit equality once the request's own id is set aside.
        let strip = |r: &ScoreResponse| {
            tasq::codec::to_bytes(&ScoreResponse { job_id: 0, ..r.clone() }).expect("encodes")
        };
        for (job, ticket) in burst.iter().zip(tickets) {
            let served = ticket.outcome().expect("answered");
            assert_eq!(served.response.job_id, job.id);
            assert_eq!(
                strip(&served.response),
                strip(&active.service().score(job)),
                "batched answer differs from direct scoring for job {}",
                job.id
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.batched_requests, 64);
        assert!(
            stats.batches < stats.batched_requests,
            "a 64-deep burst into one worker must coalesce, saw {} batches",
            stats.batches
        );
    }

    #[test]
    fn overload_rejects_once_the_queue_is_full() {
        // Shedding disabled (watermark == capacity): a burst into one
        // slow worker must fill the tiny queue and then be refused, and
        // the queue depth must never exceed its bound.
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            queue_capacity: 8,
            shed_watermark: 8,
            cache: CacheConfig { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let server = ScoringServer::start(registry(69), config);
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for job in replay_traffic(
            &jobs(10, 71),
            &TrafficConfig { requests: 300, repeat_fraction: 0.0, seed: 5 },
        ) {
            match server.submit(job) {
                Ok(ticket) => tickets.push(ticket),
                Err(SubmitError::Overloaded { depth, capacity }) => {
                    assert!(depth >= capacity);
                    rejected += 1;
                }
                Err(other) => panic!("generated plans, server up: {other}"),
            }
        }
        for ticket in tickets {
            assert!(ticket.outcome().is_ok(), "admitted requests complete");
        }
        let stats = server.shutdown();
        assert!(rejected > 0, "burst should overflow the queue");
        assert_eq!(stats.rejected, rejected as u64);
        assert_eq!(stats.shed, 0);
        assert!(
            stats.peak_queue_depth <= 8,
            "queue bounded at capacity, peaked at {}",
            stats.peak_queue_depth
        );
        assert_eq!(stats.completed, stats.submitted - stats.rejected);
    }

    #[test]
    fn overload_sheds_to_the_analytic_tier_below_the_rejection_point() {
        // Watermark well under capacity: the same burst degrades to the
        // analytic tier instead of queueing, so nothing is rejected and
        // the queue never grows past the watermark.
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            queue_capacity: 1024,
            shed_watermark: 4,
            cache: CacheConfig { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let server = ScoringServer::start(registry(69), config);
        let tickets: Vec<Ticket> = replay_traffic(
            &jobs(10, 71),
            &TrafficConfig { requests: 300, repeat_fraction: 0.0, seed: 5 },
        )
        .into_iter()
        .map(|job| server.submit(job).expect("below capacity, never rejected"))
        .collect();
        let mut shed = 0usize;
        for ticket in tickets {
            let served = ticket.outcome().expect("admitted requests complete");
            if served.via == ServedVia::Shed {
                shed += 1;
                assert_eq!(served.response.served_tier, ServedTier::Analytic);
            }
        }
        let stats = server.shutdown();
        assert!(shed > 0, "watermark should shed some requests");
        assert_eq!(stats.shed, shed as u64);
        assert_eq!(stats.rejected, 0);
        assert!(
            stats.peak_queue_depth <= 4,
            "shedding holds the queue at the watermark, peaked at {}",
            stats.peak_queue_depth
        );
        assert_eq!(stats.completed, stats.submitted);
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
        let store = {
            // Rebuild an equivalent store for the swap.
            let repo = JobRepository::new();
            repo.ingest(jobs(20, 73));
            let store = ModelStore::new();
            TasqPipeline::new(PipelineConfig {
                xgb: XgbTrainConfig { num_rounds: 15, ..Default::default() },
                nn: NnTrainConfig { epochs: 8, ..Default::default() },
                ..Default::default()
            })
            .train(&repo, &store)
            .expect("trains");
            store
        };
        registry
            .hot_swap(&store, ModelChoice::Nn, ScoringConfig::default(), &jobs(2, 77))
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
            // One request at a time, so a repeat never races the insert
            // of the original it repeats and the counts below are exact.
            let answers = stream
                .into_iter()
                .map(|job| {
                    let served = score(&server, job);
                    tasq::codec::to_bytes(&served.response).expect("encodes")
                })
                .collect();
            (start.elapsed(), server.shutdown(), answers)
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
            "answering {} of {} requests without a worker hop cannot be slower \
             (uncached {uncached_elapsed:?}, cached {cached_elapsed:?})",
            cached_stats.cache_hits,
            traffic.len()
        );
    }

    #[test]
    fn an_unstageable_plan_is_a_typed_refusal_on_the_queued_and_the_shed_path() {
        // What a decoder can hand `submit` and no plan constructor would.
        let template = jobs(1, 85).remove(0);
        let mut empty = template.clone();
        empty.plan.operators.clear();
        empty.plan.edges.clear();
        let mut out_of_range = template.clone();
        out_of_range.plan.edges.push((out_of_range.plan.operators.len(), 0));
        let mut cyclic = template.clone();
        let &(from, to) = cyclic.plan.edges.first().expect("generated plans have edges");
        cyclic.plan.edges.push((to, from));
        // Watermark 0 sheds every miss, i.e. scores it inline in `submit`
        // on the caller's thread — where a panic would take the caller down.
        for shed_watermark in [ServeConfig::default().shed_watermark, 0] {
            let config = ServeConfig { shed_watermark, ..Default::default() };
            let server = ScoringServer::start(registry(85), config);
            for hostile in [&empty, &out_of_range, &cyclic] {
                match server.submit(hostile.clone()) {
                    Err(SubmitError::InvalidPlan { .. }) => {}
                    Err(other) => panic!("wrong refusal: {other}"),
                    Ok(_) => panic!("an unstageable plan was admitted"),
                }
            }
            let served = score(&server, template.clone());
            let expected = if shed_watermark == 0 { ServedVia::Shed } else { ServedVia::Model };
            assert_eq!(served.via, expected);
            let stats = server.shutdown();
            assert_eq!((stats.rejected, stats.completed, stats.worker_lost), (3, 1, 0));
            assert_eq!(stats.submitted, stats.resolved());
        }
    }

    #[test]
    fn shutdown_rejects_new_work_but_answers_admitted_work() {
        let server = ScoringServer::start(registry(81), ServeConfig::default());
        let tickets: Vec<Ticket> = jobs(6, 83)
            .into_iter()
            .map(|j| server.submit(j).expect("admitted"))
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6, "queued work drains on shutdown");
        for ticket in tickets {
            assert!(ticket.outcome().is_ok());
        }
    }

    #[test]
    fn a_submit_that_loses_the_race_with_shutdown_is_counted_as_refused() {
        let mut server = ScoringServer::start(registry(101), ServeConfig::default());
        // The race, forced: every worker has left and the last one closed
        // the queue, but this submit read the flag before shutdown set it.
        server.stop_and_join();
        server.shared.shutdown.store(false, Ordering::SeqCst);
        let refused = server.submit(jobs(1, 103).remove(0));
        assert!(matches!(refused, Err(SubmitError::ShuttingDown)));
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.peak_queue_depth), (1, 1, 1));
        assert_eq!(stats.submitted, stats.resolved(), "a refusal is a terminal outcome");
    }

    /// A chaos plan with only the given worker panics planted.
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
    fn worker_panic_resolves_in_flight_requests_and_respawns() {
        let server = ScoringServer::start(
            registry(85),
            ServeConfig {
                workers: 1,
                cache: CacheConfig { enabled: false, ..Default::default() },
                chaos: Some(panic_plan(vec![2])),
                ..Default::default()
            },
        );
        // Serial submit/wait: each request is its own batch, sequence
        // numbers are 0,1,2,... and the planted panic hits seq 2.
        let mut outcomes = Vec::new();
        for job in jobs(6, 87) {
            let ticket = server.submit(job).expect("admitted");
            outcomes.push(ticket.outcome());
        }
        assert_eq!(outcomes.len(), 6, "no request hangs");
        assert!(
            matches!(outcomes[2], Err(RequestError::WorkerLost)),
            "in-flight request typed as lost: {:?}",
            outcomes[2].as_ref().err()
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i != 2 {
                assert!(outcome.is_ok(), "request {i} served after respawn: {outcome:?}");
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.worker_respawns, 1, "supervisor respawned the panicked worker");
        assert_eq!(stats.worker_lost, 1);
        assert_eq!(stats.submitted, stats.resolved(), "zero silent loss");
    }

    #[test]
    fn handoff_stress_resolves_every_ticket_once_across_resizes_and_panics() {
        // Each round: a burst of 3 × max_batch into a queue that holds two
        // batches, the pool resized 4 → 1 → 3 while it fills, and one
        // planted worker panic on an admitted request; then a drain. No
        // admitted request may hang or resolve twice, and the accounting
        // identity and the queue bound must hold every time.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const ROUNDS: u64 = 200;
        const MAX_BATCH: usize = 4;
        const BURST: usize = 3 * MAX_BATCH;
        const CAPACITY: usize = 2 * MAX_BATCH;
        let registry = registry(191);
        let population = jobs(16, 193);
        let mut rng = StdRng::seed_from_u64(197);
        for round in 0..ROUNDS {
            // At least `CAPACITY` requests are admitted, so the panic fires.
            let panic_at = rng.gen_range(0..CAPACITY as u64);
            let server = ScoringServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    workers: 4,
                    max_batch: MAX_BATCH,
                    queue_capacity: CAPACITY,
                    shed_watermark: CAPACITY,
                    cache: CacheConfig { enabled: false, ..Default::default() },
                    chaos: Some(panic_plan(vec![panic_at])),
                    ..Default::default()
                },
            );
            let mut tickets = Vec::new();
            let mut refused = 0u64;
            for i in 0..BURST {
                if i == BURST / 3 {
                    server.resize_workers(1);
                } else if i == 2 * BURST / 3 {
                    server.resize_workers(3);
                }
                let template = &population[rng.gen_range(0..population.len())];
                let job = Job { id: round * 100 + i as u64, ..template.clone() };
                match server.submit(job) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(SubmitError::Overloaded { .. }) => refused += 1,
                    Err(other) => panic!("round {round}: unexpected refusal {other}"),
                }
            }
            let stats = server.drain();
            let (mut served, mut lost) = (0u64, 0u64);
            for ticket in tickets {
                match ticket.outcome() {
                    Ok(_) => served += 1,
                    Err(RequestError::WorkerLost) => lost += 1,
                    Err(other) => panic!("round {round}: no deadline was set: {other}"),
                }
            }
            assert_eq!(stats.submitted, BURST as u64, "round {round}");
            assert_eq!(
                (stats.completed, stats.worker_lost, stats.rejected, stats.deadline_timeouts),
                (served, lost, refused, 0),
                "round {round}: every ticket resolves once, as counted"
            );
            assert_eq!(stats.submitted, stats.resolved(), "round {round}: zero silent loss");
            assert!(lost >= 1, "round {round}: the planted panic loses its request");
            assert_eq!(stats.worker_respawns, 1, "round {round}");
            assert!(
                stats.peak_queue_depth <= CAPACITY as u64,
                "round {round}: queue peaked at {}",
                stats.peak_queue_depth
            );
        }
    }

    #[test]
    fn expired_deadline_budget_is_a_typed_timeout() {
        let server = ScoringServer::start(
            registry(89),
            ServeConfig {
                workers: 1,
                cache: CacheConfig { enabled: false, ..Default::default() },
                ..Default::default()
            },
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
        let stats = server.shutdown();
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
                cache: CacheConfig { enabled: false, ..Default::default() },
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
            let served = server.submit(job).expect("admitted").outcome().expect("answered");
            if served.response.served_tier == tasq::pipeline::ServedTier::Analytic {
                analytic_served += 1;
            }
        }
        assert_eq!(server.breaker_state(), tasq_resil::BreakerState::Closed);
        let stats = server.shutdown();
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
        assert_eq!(stats.completed, 8, "drain waits for every admitted request");
        assert_eq!(stats.submitted, stats.resolved());
        for ticket in tickets {
            assert!(ticket.outcome().is_ok());
        }
    }

    /// Spin until `server.worker_count()` reaches `expected` or ~2s pass.
    fn await_worker_count(server: &ScoringServer, expected: usize) {
        for _ in 0..200 {
            if server.worker_count() == expected {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!(
            "worker pool stuck at {} (wanted {expected})",
            server.worker_count()
        );
    }

    #[test]
    fn resize_workers_grows_and_shrinks_the_pool() {
        let server = ScoringServer::start(
            registry(141),
            ServeConfig { workers: 2, ..Default::default() },
        );
        assert_eq!(server.worker_count(), 2);

        server.resize_workers(5);
        assert_eq!(server.worker_count(), 5, "scale-up spawns immediately");

        server.resize_workers(1);
        // Scale-down is cooperative: surplus workers leave between
        // batches (an idle one as soon as the resize wakes it).
        await_worker_count(&server, 1);

        // The shrunken pool still serves.
        let job = jobs(1, 143).remove(0);
        let served = server.submit(job).expect("admitted").outcome().expect("answered");
        assert!(served.response.optimal_tokens > 0);

        // And a resized-up pool serves again too.
        server.resize_workers(3);
        assert_eq!(server.worker_count(), 3);
        let job = jobs(1, 144).remove(0);
        assert!(server.submit(job).expect("admitted").outcome().is_ok());
        let stats = server.drain();
        assert_eq!(stats.submitted, stats.resolved());
    }

    #[test]
    fn autoscaler_shrinks_an_idle_pool_to_min() {
        let server = ScoringServer::start(
            registry(151),
            ServeConfig {
                workers: 4,
                scaling: ScalingConfig {
                    auto_scaling: true,
                    min_workers: 1,
                    max_workers: 4,
                    scale_up_threshold: 0.75,
                    // An idle queue (utilization 0) is always below this,
                    // so the scaler steps the pool down once per cooldown.
                    scale_down_threshold: 0.25,
                    cooldown_secs: 0.05,
                    burn_up_threshold: 0.0,
                },
                ..Default::default()
            },
        );
        await_worker_count(&server, 1);
        let (ups, downs) = server.scaling_events();
        assert!(downs >= 3, "4 → 1 takes three downs, saw {downs}");
        assert_eq!(ups, 0, "an idle queue must never scale up");

        // The minimum pool still answers.
        let job = jobs(1, 153).remove(0);
        assert!(server.submit(job).expect("admitted").outcome().is_ok());
        let stats = server.drain();
        assert_eq!(stats.submitted, stats.resolved());
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
            let seg_sum = slow.fastpath_probe_us
                + slow.queue_wait_us
                + slow.batch_wait_us
                + slow.score_us
                + slow.flush_us;
            // Each of the five segments truncates to whole µs, so the
            // contiguous chain undershoots the total by at most 5 µs and
            // never overshoots.
            assert!(
                slow.total_us >= seg_sum && slow.total_us - seg_sum <= 5,
                "segments must sum to the end-to-end total: {slow:?}"
            );
        }
        server.shutdown();
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
        server.shutdown();
    }
}
