//! The concurrent scoring server.
//!
//! A bounded worker pool wraps a [`ModelRegistry`] deployment:
//!
//! 1. **Fast path** — `submit` hashes the job's plan signature and, on a
//!    cache hit, answers immediately on the caller's thread with no
//!    queueing and no model inference.
//! 2. **Batched path** — cache misses enter a bounded queue. Dispatch is
//!    work-conserving: a worker blocks only while it holds nothing, then
//!    takes whatever backlog is already queued (up to `max_batch`) as one
//!    micro-batch — no timer, so an idle server adds no wait and batches
//!    form exactly when there is backlog. A batch dedupes identical
//!    signatures, scores against one registry snapshot, fans results back
//!    out over per-request channels, and populates the cache.
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
//! All coordination is std-only (threads + mpsc channels + atomics), in
//! keeping with the workspace's vendored offline dependencies.

use crate::cache::{CacheConfig, SignatureCache};
use crate::registry::ModelRegistry;
use crate::scaling::{AutoScaler, ScaleAction, ScalingConfig};
use crate::signature::PlanSignature;
use crate::stats::{LatencyHistogram, ServerStatsSnapshot, SlowRequest, SlowestTracker};
use parking_lot::Mutex;
use scope_sim::{EventTrace, Job, TraceOp};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};
use tasq::pipeline::{ScoreResponse, ScoringService, ServedTier};
use tasq_obs::{Counter, FieldValue, Level, SloConfig, SloEngine, TraceContext};
use tasq_resil::{BreakerConfig, BreakerState, ChaosPlan, CircuitBreaker};

/// Always-on counters mirrored into the global metrics registry so the
/// Prometheus/JSON expositions see serving activity live, without waiting
/// for a stats snapshot. Relaxed atomic increments; never contended.
struct ServeMetrics {
    submitted: Counter,
    completed: Counter,
    cache_hits: Counter,
    /// Cache hits answered inline on a network shard's event-loop thread
    /// via [`ScoringServer::try_score_cached`] (a subset of `cache_hits`).
    fastpath_hits: Counter,
    model_scored: Counter,
    shed: Counter,
    rejected: Counter,
    batches: Counter,
    worker_respawns: Counter,
    deadline_timeouts: Counter,
    breaker_trips: Counter,
    /// Process-wide latency histogram; each server also keeps its own
    /// detached histogram for per-server snapshots.
    latency: tasq_obs::Histogram,
    /// Tail-latency attribution: each request's end-to-end time is
    /// decomposed into contiguous segments whose sums equal the
    /// end-to-end total, so `sum(segment sums) ≈ serve_latency_us_sum`
    /// is a checkable invariant. Traced requests leave exemplars.
    seg_fastpath_probe: tasq_obs::Histogram,
    seg_queue_wait: tasq_obs::Histogram,
    seg_batch_wait: tasq_obs::Histogram,
    seg_score_primary: tasq_obs::Histogram,
    seg_score_fallback: tasq_obs::Histogram,
    seg_score_analytic: tasq_obs::Histogram,
    seg_flush: tasq_obs::Histogram,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tasq_obs::Registry::global();
        ServeMetrics {
            submitted: r.counter("serve_submitted_total", "requests accepted by submit"),
            completed: r.counter("serve_completed_total", "requests answered on any path"),
            cache_hits: r
                .counter("serve_cache_hits_total", "requests answered from the signature cache"),
            fastpath_hits: r.counter(
                "serve_fastpath_hits_total",
                "cache hits answered inline on the serving event-loop thread",
            ),
            model_scored: r
                .counter("serve_model_scored_total", "requests scored by the worker pool"),
            shed: r.counter("serve_shed_total", "requests shed to the analytic tier"),
            rejected: r.counter("serve_rejected_total", "requests refused at admission"),
            batches: r.counter("serve_batches_total", "micro-batches executed"),
            worker_respawns: r
                .counter("serve_worker_respawns", "panicked workers respawned by the supervisor"),
            deadline_timeouts: r
                .counter("serve_deadline_timeouts", "requests resolved as over their deadline"),
            breaker_trips: r
                .counter("serve_breaker_trips", "primary-tier circuit breaker open transitions"),
            latency: r
                .histogram("serve_latency_us", "end-to-end request latency in microseconds"),
            seg_fastpath_probe: r.histogram(
                "segment_fastpath_probe_us",
                "submit entry to admission decision (whole request for inline answers)",
            ),
            seg_queue_wait: r
                .histogram("segment_queue_wait_us", "enqueue to worker dequeue"),
            seg_batch_wait: r.histogram(
                "segment_batch_wait_us",
                "worker dequeue to this request's scoring turn",
            ),
            seg_score_primary: r
                .histogram("segment_score_primary_us", "scoring time, primary tier"),
            seg_score_fallback: r
                .histogram("segment_score_fallback_us", "scoring time, fallback tier"),
            seg_score_analytic: r
                .histogram("segment_score_analytic_us", "scoring time, analytic tier"),
            seg_flush: r
                .histogram("segment_flush_us", "score end to completion bookkeeping"),
        }
    })
}

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
    /// [`ScoringServer::submit_with_deadline`] overrides per request.
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

/// Which serving path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedVia {
    /// Signature-cache hit; no inference ran.
    Cache,
    /// Scored by the worker pool against the active model.
    Model,
    /// Shed to the analytic tier under queue pressure.
    Shed,
}

/// A completed scoring request.
#[derive(Debug, Clone)]
pub struct ServedResponse {
    /// The scoring response (with this request's own job id).
    pub response: ScoreResponse,
    /// Which path produced it.
    pub via: ServedVia,
    /// Registry generation that answered.
    pub generation: u64,
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later or back off.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The job's plan cannot be staged (no operators, an edge endpoint
    /// out of range, or a cycle): a decoder accepts such a plan, scoring
    /// cannot. Not retryable.
    InvalidPlan {
        /// The rendered [`scope_sim::PlanViolation`].
        detail: String,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: queue depth {depth} at capacity {capacity}")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::InvalidPlan { detail } => write!(f, "invalid plan: {detail}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *admitted* request did not produce a response. Every admitted
/// request resolves to either a [`ServedResponse`] or one of these —
/// never a silent hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The worker scoring this request died (panicked or was torn down);
    /// the supervisor respawned the pool, but this request's work was
    /// lost. Safe to retry.
    WorkerLost,
    /// The request's deadline budget elapsed before a worker reached it.
    DeadlineExceeded {
        /// The budget that was exceeded.
        budget: Duration,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::WorkerLost => write!(f, "scoring worker lost; retry"),
            RequestError::DeadlineExceeded { budget } => {
                write!(f, "deadline budget {budget:?} exceeded before scoring")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Handle to an in-flight (or already answered) request.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    Ready(ServedResponse),
    Pending {
        rx: mpsc::Receiver<Result<ServedResponse, RequestError>>,
        trace: Option<EventTrace>,
        seq: u64,
    },
}

impl Ticket {
    /// Wait for the response. `None` when the request resolved to a
    /// typed failure instead — use [`Ticket::outcome`] to see which.
    pub fn wait(self) -> Option<ServedResponse> {
        self.outcome().ok()
    }

    /// Wait for the typed resolution of this request: the response, or
    /// the reason no response was produced. Never hangs on a dead worker:
    /// a panicked worker's in-flight requests resolve to
    /// [`RequestError::WorkerLost`] (either replied by the unwinding
    /// batch guard or observed as reply-channel hangup).
    pub fn outcome(self) -> Result<ServedResponse, RequestError> {
        match self.inner {
            TicketInner::Ready(response) => Ok(response),
            TicketInner::Pending { rx, trace, seq } => {
                let outcome = rx.recv().unwrap_or(Err(RequestError::WorkerLost));
                // Only successful replies traced: the worker records the
                // matching Send/Write solely on the response path, and the
                // checker requires every Recv to pair with a Send.
                if outcome.is_ok() {
                    if let Some(trace) = &trace {
                        let actor = trace.register_actor();
                        trace
                            .record(actor, TraceOp::Recv { chan: CHAN_REPLY_BASE | seq, msg: seq });
                        trace.record(actor, TraceOp::Read(RES_RESPONSE_BASE | seq));
                    }
                }
                outcome
            }
        }
    }
}

struct Envelope {
    job: Job,
    key: u64,
    seq: u64,
    submitted: Instant,
    /// When the envelope entered the queue (end of the fastpath probe).
    enqueued: Instant,
    /// When a worker pulled it off its channel; stamped in
    /// [`collect_batch`], equal to `enqueued` until then.
    dequeued: Instant,
    /// Request trace identity, carried across the channel hop so the
    /// worker-side spans parent under the submitter's span instead of
    /// starting a fresh root.
    ctx: TraceContext,
    deadline: Option<Duration>,
    reply: mpsc::SyncSender<Result<ServedResponse, RequestError>>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    fastpath_hits: AtomicU64,
    model_scored: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    peak_queue_depth: AtomicU64,
    worker_lost: AtomicU64,
    deadline_timeouts: AtomicU64,
    worker_respawns: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_recoveries: AtomicU64,
    /// Per-envelope sequence numbers keying trace channels/resources.
    trace_seq: AtomicU64,
}

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
    /// Desired worker-pool size; surplus workers exit cooperatively at
    /// their next idle poll.
    target_workers: AtomicUsize,
    /// Workers currently alive (incremented at spawn, CAS-decremented by
    /// a worker electing itself to exit).
    live_workers: AtomicUsize,
    /// Monotonic worker slot numbering across resizes.
    next_slot: AtomicUsize,
    /// Send handles of every live worker's private request channel,
    /// keyed by worker slot. [`send_envelope`] round-robins admitted
    /// envelopes across them *under this lock*, and a retiring worker
    /// deregisters its entry under the same lock before sweeping its
    /// channel — that ordering is what makes cooperative scale-down
    /// unable to strand an admitted request.
    senders: Mutex<Vec<(usize, mpsc::SyncSender<Envelope>)>>,
    /// Round-robin cursor over `senders`.
    rr: AtomicUsize,
    /// Autoscaler scale-up actions applied.
    scale_ups: AtomicU64,
    /// Autoscaler scale-down actions applied.
    scale_downs: AtomicU64,
    /// Error-budget burn-rate engine fed by every completion/failure.
    slo: SloEngine,
    /// Fixed-slot worst-requests tracker behind `/debug/slowest`.
    slowest: SlowestTracker,
}

/// Stage timestamps for a request that went through the worker pool;
/// inline (cache/shed) answers have no stages — their whole life is the
/// fastpath probe.
struct StageClock {
    dequeued: Instant,
    score_start: Instant,
    score_end: Instant,
    tier: ServedTier,
}

/// Microseconds between two instants, saturating (clock steps between
/// threads can make a later stamp read earlier).
fn stage_us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros().min(u128::from(u64::MAX)) as u64
}

fn tier_label(tier: ServedTier) -> &'static str {
    match tier {
        ServedTier::Primary => "primary",
        ServedTier::Fallback => "fallback",
        ServedTier::Analytic => "analytic",
    }
}

/// Record `value` plainly, or with an exemplar when the request is
/// traced.
fn record_segment(histogram: &tasq_obs::Histogram, value: u64, ctx: TraceContext) {
    if ctx.is_active() {
        histogram.record_traced(value, ctx.trace_id);
    } else {
        histogram.record(value);
    }
}

impl Shared {
    /// Complete one request: latency + segment histograms (with trace
    /// exemplars), SLO accounting, and slowest-request retention. The
    /// segment chain is contiguous — probe → queue → batch → score →
    /// flush for pooled requests, probe-only for inline answers — so
    /// per-request segment sums equal the end-to-end total.
    fn finish_traced(
        &self,
        via: ServedVia,
        submitted: Instant,
        enqueued: Instant,
        ctx: TraceContext,
        stages: Option<StageClock>,
    ) {
        let done = Instant::now();
        let elapsed = done.saturating_duration_since(submitted);
        let total_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        if ctx.is_active() {
            self.latency.record_traced(elapsed, ctx.trace_id);
        } else {
            self.latency.record(elapsed);
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        let metrics = serve_metrics();
        record_segment(&metrics.latency, total_us, ctx);
        metrics.completed.inc();
        match via {
            ServedVia::Cache => {
                metrics.cache_hits.inc();
                &self.counters.cache_hits
            }
            ServedVia::Model => {
                metrics.model_scored.inc();
                &self.counters.model_scored
            }
            ServedVia::Shed => {
                metrics.shed.inc();
                &self.counters.shed
            }
        }
        .fetch_add(1, Ordering::Relaxed);

        let now_us = tasq_obs::clock::now_micros();
        self.slo.record_latency(now_us, total_us);
        // A shed answer is valid but degraded: it spends availability
        // budget alongside rejects and lost workers.
        self.slo.record_outcome(now_us, via != ServedVia::Shed);

        let slow = match stages {
            None => {
                record_segment(&metrics.seg_fastpath_probe, total_us, ctx);
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: via_label(via),
                    tier: "-",
                    fastpath_probe_us: total_us,
                    queue_wait_us: 0,
                    batch_wait_us: 0,
                    score_us: 0,
                    flush_us: 0,
                }
            }
            Some(st) => {
                let probe = stage_us(submitted, enqueued);
                let queue_wait = stage_us(enqueued, st.dequeued);
                let batch_wait = stage_us(st.dequeued, st.score_start);
                let score = stage_us(st.score_start, st.score_end);
                let flush = stage_us(st.score_end, done);
                record_segment(&metrics.seg_fastpath_probe, probe, ctx);
                record_segment(&metrics.seg_queue_wait, queue_wait, ctx);
                record_segment(&metrics.seg_batch_wait, batch_wait, ctx);
                let score_histogram = match st.tier {
                    ServedTier::Primary => &metrics.seg_score_primary,
                    ServedTier::Fallback => &metrics.seg_score_fallback,
                    ServedTier::Analytic => &metrics.seg_score_analytic,
                };
                record_segment(score_histogram, score, ctx);
                record_segment(&metrics.seg_flush, flush, ctx);
                SlowRequest {
                    trace_id: ctx.trace_id,
                    total_us,
                    via: via_label(via),
                    tier: tier_label(st.tier),
                    fastpath_probe_us: probe,
                    queue_wait_us: queue_wait,
                    batch_wait_us: batch_wait,
                    score_us: score,
                    flush_us: flush,
                }
            }
        };
        self.slowest.offer(slow);
    }

    /// An admitted request failed (reject, lost worker, deadline): burn
    /// availability budget without recording a completion latency.
    fn record_failure(&self) {
        self.slo.record_outcome(tasq_obs::clock::now_micros(), false);
    }
}

fn via_label(via: ServedVia) -> &'static str {
    match via {
        ServedVia::Cache => "cache",
        ServedVia::Model => "model",
        ServedVia::Shed => "shed",
    }
}

/// Sampling decision for a request entering the server: a context carried
/// in from the wire wins; otherwise mint a sampled one iff span
/// collection is on, so the off state pays nothing beyond this check.
fn resolve_context(ctx: TraceContext) -> TraceContext {
    if ctx.is_active() {
        ctx
    } else if tasq_obs::collect_enabled() {
        TraceContext::mint(true)
    } else {
        TraceContext::NONE
    }
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

/// How long an idle worker sleeps between shutdown checks.
const IDLE_POLL: Duration = Duration::from_millis(20);

impl ScoringServer {
    /// Start the worker pool against a registry deployment.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Self {
        let scoring_config = registry.current().service().config().clone();
        let shared = Arc::new(Shared {
            cache: SignatureCache::new(&config.cache),
            analytic: ScoringService::analytic(scoring_config),
            registry,
            depth: AtomicUsize::new(0),
            counters: Counters::default(),
            latency: LatencyHistogram::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
            config: config.clone(),
            target_workers: AtomicUsize::new(config.workers.max(1)),
            live_workers: AtomicUsize::new(0),
            next_slot: AtomicUsize::new(0),
            senders: Mutex::new(Vec::new()),
            rr: AtomicUsize::new(0),
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

    /// Submit one job for scoring. Returns a [`Ticket`] immediately; the
    /// ticket is pre-resolved on the cache and shed paths.
    pub fn submit(&self, job: Job) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(job, None)
    }

    /// Submit with an explicit per-request deadline budget, overriding
    /// [`ServeConfig::deadline`]. A queued request whose budget elapses
    /// before a worker reaches it resolves to
    /// [`RequestError::DeadlineExceeded`]. Cache hits and sheds answer
    /// inline and never time out.
    pub fn submit_with_deadline(
        &self,
        job: Job,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        self.submit_traced(job, deadline, TraceContext::NONE)
    }

    /// Submit with an explicit trace context — the network front-end
    /// passes the context it pulled off the wire so the whole server-side
    /// life of the request joins the caller's trace. An inactive `ctx`
    /// mints a fresh sampled context when span collection is on and stays
    /// untraced otherwise, so unsampled requests pay only the context
    /// copy.
    pub fn submit_traced(
        &self,
        job: Job,
        deadline: Option<Duration>,
        ctx: TraceContext,
    ) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Relaxed) || shared.draining.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
        let ctx = resolve_context(ctx);
        let span_fields = [
            ("job", FieldValue::U64(job.id)),
            ("trace", FieldValue::TraceId(ctx.trace_id)),
        ];
        let _span = if ctx.sampled {
            tasq_obs::span_with_parent(Level::Debug, "serve_submit", ctx.span_id, &span_fields)
        } else {
            tasq_obs::span(Level::Debug, "serve_submit", &span_fields)
        };
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        serve_metrics().submitted.inc();
        let submitted = Instant::now();
        let generation = shared.registry.generation();
        let key = PlanSignature::of_job(&job).cache_key(generation);

        // Fast path: answer recurring plans from cache, bypassing the
        // queue and all inference.
        if let Some(mut response) = shared.cache.get(key) {
            response.job_id = job.id;
            shared.finish_traced(ServedVia::Cache, submitted, submitted, ctx, None);
            return Ok(Ticket {
                inner: TicketInner::Ready(ServedResponse {
                    response,
                    via: ServedVia::Cache,
                    generation,
                }),
            });
        }

        // A plan that was decoded has met no constructor, and every path
        // below ends in `ScoringService::score`, which panics on one that
        // cannot be staged. Checked after the probe: only a plan that
        // passed here is ever cached, so a hit has nothing left to check.
        // The client's fault, so it burns no availability budget.
        if let Err(violation) = scope_sim::check_structure(&job.plan) {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            serve_metrics().rejected.inc();
            return Err(SubmitError::InvalidPlan { detail: violation.to_string() });
        }

        // Admission control: claim a queue slot; over the hard bound the
        // request is refused, over the watermark it is shed to the
        // analytic tier (served inline, never queued).
        let config = &shared.config;
        let depth = shared.depth.fetch_add(1, Ordering::SeqCst);
        if depth >= config.queue_capacity {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            serve_metrics().rejected.inc();
            shared.record_failure();
            tasq_obs::event(
                Level::Warn,
                "serve_rejected",
                &[("depth", FieldValue::U64(depth as u64))],
            );
            return Err(SubmitError::Overloaded { depth, capacity: config.queue_capacity });
        }
        if depth >= config.shed_watermark {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            let mut response = shared.analytic.score(&job);
            response.job_id = job.id;
            shared.finish_traced(ServedVia::Shed, submitted, submitted, ctx, None);
            return Ok(Ticket {
                inner: TicketInner::Ready(ServedResponse {
                    response,
                    via: ServedVia::Shed,
                    generation,
                }),
            });
        }
        shared
            .counters
            .peak_queue_depth
            .fetch_max(depth as u64 + 1, Ordering::Relaxed);

        // Exactly one response ever travels per reply channel, so a bound
        // of one makes the reply path provably non-blocking while keeping
        // the allocation fixed-size.
        let (reply, rx) = mpsc::sync_channel(1);
        let seq = shared.counters.trace_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &config.trace {
            let actor = trace.register_actor();
            trace.record(actor, TraceOp::Write(RES_REQUEST_BASE | seq));
            trace.record(actor, TraceOp::Send { chan: CHAN_QUEUE, msg: seq });
        }
        let mut deadline = deadline.or(config.deadline);
        if let Some(plan) = &config.chaos {
            // Deadline storms hand the request an (often unmeetable)
            // budget; the worker resolves it as a typed timeout.
            if let Some(budget_us) = plan.storm_budget_us(seq) {
                deadline = Some(Duration::from_micros(budget_us));
            }
        }
        let enqueued = Instant::now();
        let envelope =
            Envelope { job, key, seq, submitted, enqueued, dequeued: enqueued, ctx, deadline, reply };
        if send_envelope(shared, envelope).is_err() {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(SubmitError::ShuttingDown);
        }
        Ok(Ticket {
            inner: TicketInner::Pending { rx, trace: config.trace.clone(), seq },
        })
    }

    /// Non-blocking cache probe: answer a signature-cache hit inline on
    /// the caller's thread — no queue slot claimed, no channel hop, no
    /// batcher wakeup — or return `None` without side effects on the
    /// admission state, so the caller can fall through to
    /// [`ScoringServer::submit_with_deadline`] unchanged. This is the
    /// network shard's fast path: a hit is rendered and flushed without
    /// ever leaving the event-loop thread, and shed/overload behavior is
    /// untouched because misses never touch the queue depth here.
    pub fn try_score_cached(&self, job: &Job) -> Option<ServedResponse> {
        self.try_score_cached_traced(job, TraceContext::NONE)
    }

    /// [`ScoringServer::try_score_cached`] with the request's wire trace
    /// context, so even inline fastpath answers land in the caller's
    /// trace and leave exemplars.
    pub fn try_score_cached_traced(
        &self,
        job: &Job,
        ctx: TraceContext,
    ) -> Option<ServedResponse> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Relaxed) || shared.draining.load(Ordering::Relaxed) {
            return None;
        }
        let generation = shared.registry.generation();
        let key = PlanSignature::of_job(job).cache_key(generation);
        let mut response = shared.cache.get(key)?;
        // Only a hit counts as a submission: misses are re-submitted in
        // full, and double-counting them would break the
        // `submitted == resolved` zero-silent-loss accounting.
        let ctx = resolve_context(ctx);
        let submitted = Instant::now();
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        shared.counters.fastpath_hits.fetch_add(1, Ordering::Relaxed);
        let metrics = serve_metrics();
        metrics.submitted.inc();
        metrics.fastpath_hits.inc();
        response.job_id = job.id;
        shared.finish_traced(ServedVia::Cache, submitted, submitted, ctx, None);
        Some(ServedResponse { response, via: ServedVia::Cache, generation })
    }

    /// Submit and wait: the synchronous convenience wrapper.
    pub fn score_blocking(&self, job: Job) -> Result<ServedResponse, SubmitError> {
        let ticket = self.submit(job)?;
        ticket.wait().ok_or(SubmitError::ShuttingDown)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let shared = &self.shared;
        let c = &shared.counters;
        ServerStatsSnapshot {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            fastpath_hits: c.fastpath_hits.load(Ordering::Relaxed),
            model_scored: c.model_scored.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
            worker_lost: c.worker_lost.load(Ordering::Relaxed),
            deadline_timeouts: c.deadline_timeouts.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            breaker_trips: c.breaker_trips.load(Ordering::Relaxed),
            breaker_recoveries: c.breaker_recoveries.load(Ordering::Relaxed),
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

    /// Workers currently alive (the autoscaler's cooperative scale-down
    /// lands within one idle poll, so this may briefly exceed the
    /// target after a `Down` action).
    pub fn worker_count(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// Resize the worker pool to `target` (clamped to ≥ 1). Growth
    /// spawns supervised workers immediately; shrinkage is cooperative —
    /// surplus workers exit at their next idle poll without abandoning
    /// requests they already hold.
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

/// Per-worker request-channel bound. In the worst case every admitted
/// envelope round-robins onto one worker, so each private channel's bound
/// must exceed the admission bound on its own — that is what keeps the
/// lock-held send in [`send_envelope`] provably non-blocking: depth
/// accounting rejects before any channel can fill.
fn worker_channel_bound(config: &ServeConfig) -> usize {
    config.queue_capacity + config.max_batch.max(1) + 1
}

/// Set the pool's target size and spawn workers up to it. Serialized on
/// the handles lock so concurrent resizes cannot overshoot. Each new
/// worker gets a private bounded request channel; it owns the `Receiver`
/// outright (no shared `Mutex<Receiver>`), and its `SyncSender` is
/// registered under the worker's slot for [`send_envelope`] to route to.
fn resize_pool(
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    target: usize,
) {
    let target = target.max(1);
    let mut guard = handles.lock();
    shared.target_workers.store(target, Ordering::SeqCst);
    while shared.live_workers.load(Ordering::SeqCst) < target {
        shared.live_workers.fetch_add(1, Ordering::SeqCst);
        let slot = shared.next_slot.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::sync_channel::<Envelope>(worker_channel_bound(&shared.config));
        shared.senders.lock().push((slot, tx));
        let worker_shared = Arc::clone(shared);
        guard.push(std::thread::spawn(move || supervise_worker(&worker_shared, rx, slot)));
    }
}

/// Route one admitted envelope to a worker, round-robin over the live
/// send handles. The send happens *under* the senders lock so it is
/// ordered against worker retirement: an envelope either lands before
/// the worker deregisters (and is swept by that worker's post-retirement
/// drain) or sees the updated handle list. `SyncSender::send` cannot
/// block here — each channel's bound exceeds the admission bound (see
/// [`worker_channel_bound`]) — so the guard is held only for the enqueue
/// itself. Handles with a hung-up receiver (a worker torn down at
/// shutdown) are pruned in place and the envelope is re-routed; when no
/// handle is left the envelope is handed back for the caller to refuse.
fn send_envelope(shared: &Shared, envelope: Envelope) -> Result<(), ()> {
    let mut envelope = envelope;
    let mut senders = shared.senders.lock();
    while !senders.is_empty() {
        let i = shared.rr.fetch_add(1, Ordering::Relaxed) % senders.len();
        match senders[i].1.send(envelope) {
            Ok(()) => return Ok(()),
            Err(mpsc::SendError(returned)) => {
                envelope = returned;
                senders.remove(i);
            }
        }
    }
    Err(())
}

/// How often the autoscaler samples queue utilization.
const SCALER_POLL: Duration = Duration::from_millis(20);

/// The autoscaler thread: sample `depth / queue_capacity`, tick the pure
/// [`AutoScaler`], apply its decision through the dynamic pool.
fn scaler_loop(shared: &Arc<Shared>, handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>) {
    let mut scaler = AutoScaler::new(shared.config.scaling.clone());
    let epoch = Instant::now();
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(SCALER_POLL);
        let depth = shared.depth.load(Ordering::Relaxed);
        let utilization = depth as f64 / shared.config.queue_capacity.max(1) as f64;
        // Decide against the *target* (not live) count so a pending
        // cooperative scale-down isn't re-decided every poll.
        let current = shared.target_workers.load(Ordering::SeqCst);
        // The SLO burn rate is the leading scale-up signal: latency
        // violations burn budget before the queue visibly saturates.
        let now_us = tasq_obs::clock::now_micros();
        let burn = shared.slo.max_fast_burn(now_us);
        shared.slo.publish(tasq_obs::Registry::global(), now_us);
        match scaler.tick_with_burn(epoch.elapsed(), utilization, burn, current) {
            ScaleAction::Hold => {}
            ScaleAction::Up(n) => {
                resize_pool(shared, handles, n);
                shared.scale_ups.fetch_add(1, Ordering::Relaxed);
                tasq_obs::event(
                    Level::Info,
                    "serve_scale_up",
                    &[("workers", FieldValue::U64(n as u64))],
                );
            }
            ScaleAction::Down(n) => {
                shared.target_workers.store(n.max(1), Ordering::SeqCst);
                shared.scale_downs.fetch_add(1, Ordering::Relaxed);
                tasq_obs::event(
                    Level::Info,
                    "serve_scale_down",
                    &[("workers", FieldValue::U64(n as u64))],
                );
            }
        }
    }
}

impl Drop for ScoringServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Outcome of one [`collect_batch`] attempt.
enum Collected {
    /// A non-empty micro-batch to score.
    Work(Vec<Envelope>),
    /// The idle poll elapsed with nothing queued; re-check exit
    /// conditions and try again.
    Idle,
    /// Shutdown observed or the channel hung up; the worker should exit.
    Exit,
}

/// Collect one micro-batch from this worker's private channel: block for
/// the first request only, then take what is already queued, up to
/// `max_batch` — a worker never sleeps while it holds a request. The
/// worker owns its `Receiver` outright, so the one blocking receive here
/// runs lock-free — no guard is held anywhere near a blocking call,
/// which is exactly what the lock-discipline pass verifies.
fn collect_batch(shared: &Shared, rx: &mpsc::Receiver<Envelope>) -> Collected {
    let mut first = match rx.recv_timeout(IDLE_POLL) {
        Ok(envelope) => envelope,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            if shared.shutdown.load(Ordering::Relaxed) {
                return Collected::Exit;
            }
            return Collected::Idle;
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => return Collected::Exit,
    };
    first.dequeued = Instant::now();
    let mut batch = vec![first];
    while batch.len() < shared.config.max_batch.max(1) {
        let Ok(mut envelope) = rx.try_recv() else { break };
        envelope.dequeued = Instant::now();
        batch.push(envelope);
    }
    Collected::Work(batch)
}

/// Whether this worker should retire to honour a pending scale-down:
/// true iff the pool is over target and this worker won the CAS race to
/// be the one that leaves.
fn elect_to_exit(shared: &Shared) -> bool {
    loop {
        let live = shared.live_workers.load(Ordering::SeqCst);
        let target = shared.target_workers.load(Ordering::SeqCst);
        if live <= target.max(1) {
            return false;
        }
        if shared
            .live_workers
            .compare_exchange(live, live - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return true;
        }
    }
}

/// One worker slot: run [`worker_loop`] under a panic boundary and
/// respawn it (in place, same thread) after every panic until shutdown.
/// A panicking worker cannot hang its in-flight requests: the unwinding
/// [`BatchGuard`] resolves everything it still holds to
/// [`RequestError::WorkerLost`].
fn supervise_worker(shared: &Shared, rx: mpsc::Receiver<Envelope>, slot: usize) {
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(shared, &rx, slot)
        }));
        match outcome {
            // Clean exit: shutdown observed or the queue disconnected.
            Ok(()) => break,
            Err(_) => {
                shared.counters.worker_respawns.fetch_add(1, Ordering::Relaxed);
                serve_metrics().worker_respawns.inc();
                tasq_obs::event(
                    Level::Warn,
                    "serve_worker_respawn",
                    &[("slot", FieldValue::U64(slot as u64))],
                );
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
    // Final sweep: anything still sitting in this worker's channel when
    // it stops receiving (a shutdown race, or a panic after retirement)
    // resolves to the typed `WorkerLost` with its queue slot released —
    // never a silent hang, and `drain` cannot wait on a dead channel.
    while let Ok(envelope) = rx.try_recv() {
        shared.depth.fetch_sub(1, Ordering::SeqCst);
        shared.counters.worker_lost.fetch_add(1, Ordering::Relaxed);
        shared.record_failure();
        let _ = envelope.reply.send(Err(RequestError::WorkerLost));
    }
}

/// Holds the unanswered tail of a micro-batch. Envelopes are popped as
/// they are answered; if the worker unwinds mid-batch, `Drop` resolves
/// every remaining envelope — including the one being scored — to
/// [`RequestError::WorkerLost`], so admitted requests can never hang on
/// a dead worker.
struct BatchGuard<'a> {
    shared: &'a Shared,
    pending: VecDeque<Envelope>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        for envelope in self.pending.drain(..) {
            self.shared.counters.worker_lost.fetch_add(1, Ordering::Relaxed);
            self.shared.record_failure();
            let _ = envelope.reply.send(Err(RequestError::WorkerLost));
        }
    }
}

fn worker_loop(shared: &Shared, rx: &mpsc::Receiver<Envelope>, slot: usize) {
    let trace = shared.config.trace.clone();
    let trace_actor = trace.as_ref().map(EventTrace::register_actor);
    loop {
        // Cooperative scale-down: only a worker holding no request may
        // retire, and only between batches.
        if elect_to_exit(shared) {
            retire_worker(shared, rx, slot, &trace, trace_actor);
            return;
        }
        match collect_batch(shared, rx) {
            Collected::Work(batch) => process_batch(shared, batch, &trace, trace_actor),
            Collected::Idle => {}
            Collected::Exit => return,
        }
    }
}

/// Retire one worker to honour a scale-down: deregister its send handle
/// so [`send_envelope`] stops routing here, then sweep and *serve* every
/// envelope that landed in the channel before deregistration. The sweep
/// cannot miss one: sends happen under the senders lock, and this
/// deregistration takes the same lock, so by the time `retain` returns,
/// any envelope routed to this slot is already in the channel.
fn retire_worker(
    shared: &Shared,
    rx: &mpsc::Receiver<Envelope>,
    slot: usize,
    trace: &Option<EventTrace>,
    trace_actor: Option<u32>,
) {
    shared.senders.lock().retain(|entry| entry.0 != slot);
    let mut stragglers = Vec::new();
    while let Ok(envelope) = rx.try_recv() {
        stragglers.push(envelope);
        if stragglers.len() >= shared.config.max_batch.max(1) {
            process_batch(shared, std::mem::take(&mut stragglers), trace, trace_actor);
        }
    }
    if !stragglers.is_empty() {
        process_batch(shared, stragglers, trace, trace_actor);
    }
}

/// Score one collected micro-batch and reply to every envelope in it.
fn process_batch(
    shared: &Shared,
    batch: Vec<Envelope>,
    trace: &Option<EventTrace>,
    trace_actor: Option<u32>,
) {
    {
        // Parent the worker-side batch span from the first traced
        // envelope's carried context instead of opening a fresh root, so
        // the cross-thread channel hop does not sever the trace.
        let carried = batch.iter().find(|e| e.ctx.sampled).map(|e| e.ctx);
        let batch_fields = [
            ("size", FieldValue::U64(batch.len() as u64)),
            (
                "trace",
                FieldValue::TraceId(carried.map_or(0, |ctx| ctx.trace_id)),
            ),
        ];
        let _span = match carried {
            Some(ctx) => tasq_obs::span_with_parent(
                Level::Debug,
                "serve_batch",
                ctx.span_id,
                &batch_fields,
            ),
            None => tasq_obs::span(Level::Debug, "serve_batch", &batch_fields),
        };
        shared.depth.fetch_sub(batch.len(), Ordering::SeqCst);
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        serve_metrics().batches.inc();
        shared
            .counters
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        // One registry snapshot per batch: a hot-swap mid-batch is
        // invisible, the next batch sees the new generation.
        let active = shared.registry.current();
        let mut scored_in_batch: HashMap<u64, ScoreResponse> = HashMap::new();
        let mut guard = BatchGuard { shared, pending: batch.into() };
        while let Some(envelope) = guard.pending.front() {
            let seq = envelope.seq;
            if shared.config.chaos.as_ref().is_some_and(|plan| plan.panics_at(seq)) {
                // lint: allow(no-panic) — deliberate chaos-harness fault; the supervisor respawns this worker
                panic!("chaos: planted worker panic at request {seq}");
            }
            if let (Some(trace), Some(actor)) = (&trace, trace_actor) {
                trace.record(actor, TraceOp::Recv { chan: CHAN_QUEUE, msg: seq });
                // Reading the request buffer is race-free only because the
                // queue edge orders it after the submitter's write.
                trace.record(actor, TraceOp::Read(RES_REQUEST_BASE | seq));
            }
            let score_start = Instant::now();
            let score_span = if envelope.ctx.sampled {
                Some(tasq_obs::span_with_parent(
                    Level::Debug,
                    "serve_score",
                    envelope.ctx.span_id,
                    &[
                        ("seq", FieldValue::U64(seq)),
                        ("trace", FieldValue::TraceId(envelope.ctx.trace_id)),
                    ],
                ))
            } else {
                None
            };
            let outcome = match envelope.deadline {
                Some(budget) if envelope.submitted.elapsed() >= budget => {
                    Err(RequestError::DeadlineExceeded { budget })
                }
                _ => Ok(score_envelope(shared, &active, &mut scored_in_batch, envelope)),
            };
            drop(score_span);
            let score_end = Instant::now();
            // The immutable borrow of `envelope` ends here; reclaim it to
            // reply and mark it answered (a panic above leaves it in the
            // guard, which resolves it to WorkerLost on unwind).
            let Some(envelope) = guard.pending.pop_front() else { break };
            match outcome {
                Ok(served) => {
                    shared.finish_traced(
                        ServedVia::Model,
                        envelope.submitted,
                        envelope.enqueued,
                        envelope.ctx,
                        Some(StageClock {
                            dequeued: envelope.dequeued,
                            score_start,
                            score_end,
                            tier: served.response.served_tier,
                        }),
                    );
                    if let (Some(trace), Some(actor)) = (&trace, trace_actor) {
                        trace.record(actor, TraceOp::Write(RES_RESPONSE_BASE | envelope.seq));
                        let chan = CHAN_REPLY_BASE | envelope.seq;
                        trace.record(actor, TraceOp::Send { chan, msg: envelope.seq });
                    }
                    // The requester may have dropped its ticket; fine.
                    let _ = envelope.reply.send(Ok(served));
                }
                Err(err) => {
                    shared.counters.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                    serve_metrics().deadline_timeouts.inc();
                    shared.record_failure();
                    tasq_obs::event(
                        Level::Warn,
                        "serve_deadline_timeout",
                        &[("seq", FieldValue::U64(envelope.seq))],
                    );
                    let _ = envelope.reply.send(Err(err));
                }
            }
        }
    }
}

/// Score one envelope through the circuit breaker: closed → primary
/// service (with in-batch dedup + cache fill); open → analytic tier.
/// Primary outcomes (including chaos-injected faults in the plan's fault
/// window) feed back into the breaker, ticked by request sequence.
fn score_envelope(
    shared: &Shared,
    active: &crate::registry::ActiveModel,
    scored_in_batch: &mut HashMap<u64, ScoreResponse>,
    envelope: &Envelope,
) -> ServedResponse {
    let seq = envelope.seq;
    let fault_injected = shared.config.chaos.as_ref().is_some_and(|plan| plan.nn_faulted(seq));
    let allowed = shared.breaker.lock().allow(seq);
    let (mut response, primary_attempted) = if !allowed {
        // Breaker open: the primary tier is skipped entirely and the
        // analytic rung of the degradation ladder answers.
        (shared.analytic.score(&envelope.job), false)
    } else if fault_injected {
        // The primary "failed" (chaos fault window); the request still
        // gets a valid analytic answer, and the breaker hears about it.
        (shared.analytic.score(&envelope.job), true)
    } else {
        let response = match scored_in_batch.get(&envelope.key) {
            // Identical signatures inside one batch are scored once.
            Some(response) => response.clone(),
            None => {
                let response = active.service().score(&envelope.job);
                if response.predicted_runtime_at_request.is_finite() {
                    scored_in_batch.insert(envelope.key, response.clone());
                    shared.cache.insert(envelope.key, response.clone());
                }
                response
            }
        };
        (response, true)
    };
    if primary_attempted {
        let success = !fault_injected && response.predicted_runtime_at_request.is_finite();
        let mut breaker = shared.breaker.lock();
        let (trips, recoveries) = (breaker.trips(), breaker.recoveries());
        breaker.record(seq, success);
        let tripped = breaker.trips() > trips;
        let recovered = breaker.recoveries() > recoveries;
        drop(breaker);
        if tripped {
            shared.counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
            serve_metrics().breaker_trips.inc();
            tasq_obs::event(
                Level::Warn,
                "serve_breaker_open",
                &[("seq", FieldValue::U64(seq))],
            );
        }
        if recovered {
            shared.counters.breaker_recoveries.fetch_add(1, Ordering::Relaxed);
            tasq_obs::event(
                Level::Info,
                "serve_breaker_closed",
                &[("seq", FieldValue::U64(seq))],
            );
        }
    }
    response.job_id = envelope.job.id;
    ServedResponse { response, via: ServedVia::Model, generation: active.generation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{replay_traffic, TrafficConfig, WorkloadConfig, WorkloadGenerator};
    use tasq::models::{NnTrainConfig, XgbTrainConfig};
    use tasq::pipeline::{
        JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoringConfig, ServedTier,
        TasqPipeline,
    };

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

    #[test]
    fn scores_a_workload_and_caches_repeats() {
        let server = ScoringServer::start(registry(61), ServeConfig::default());
        let job = jobs(1, 63).remove(0);

        let first = server.score_blocking(job.clone()).expect("scored");
        assert_eq!(first.via, ServedVia::Model);
        assert_eq!(first.response.job_id, job.id);
        assert_eq!(first.response.served_tier, ServedTier::Primary);

        let mut resubmission = job.clone();
        resubmission.id = 777;
        let second = server.score_blocking(resubmission).expect("scored");
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
    fn try_score_cached_answers_inline_only_on_a_hit() {
        let server = ScoringServer::start(registry(201), ServeConfig::default());
        let job = jobs(1, 203).remove(0);
        assert!(
            server.try_score_cached(&job).is_none(),
            "cold cache: the probe misses and leaves the admission state untouched"
        );
        let first = server.score_blocking(job.clone()).expect("scored");
        assert_eq!(first.via, ServedVia::Model);

        let mut resubmission = job.clone();
        resubmission.id = 4242;
        let hit = server.try_score_cached(&resubmission).expect("warm cache answers inline");
        assert_eq!(hit.via, ServedVia::Cache);
        assert_eq!(hit.response.job_id, 4242, "cached response re-addressed");
        assert_eq!(hit.response.optimal_tokens, first.response.optimal_tokens);

        let stats = server.shutdown();
        assert_eq!(stats.fastpath_hits, 1);
        assert_eq!(stats.cache_hits, 1, "a fastpath hit is counted as a cache hit");
        assert_eq!(stats.submitted, 2, "the cold probe is not a submission");
        assert_eq!(stats.submitted, stats.resolved(), "zero silent loss");
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
            assert_eq!(server.score_blocking(job).expect("scored").via, ServedVia::Model);
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
            assert!(ticket.wait().is_some(), "admitted requests complete");
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
            let served = ticket.wait().expect("admitted requests complete");
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
        assert_eq!(server.score_blocking(job.clone()).expect("ok").via, ServedVia::Model);
        assert_eq!(server.score_blocking(job.clone()).expect("ok").via, ServedVia::Cache);

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
        let after = server.score_blocking(job).expect("ok");
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
                    let served = server.score_blocking(job).expect("admitted and answered");
                    tasq::codec::to_bytes(&served.response).expect("encodes").to_vec()
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
            let served = server.score_blocking(template.clone()).expect("a sound plan scores");
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
            assert!(ticket.wait().is_some());
        }
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
            .submit_with_deadline(batch.pop().unwrap(), Some(Duration::ZERO))
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
        // Scale-down is cooperative: surplus workers exit at their next
        // idle poll.
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
            server.score_blocking(job).expect("scored");
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
        assert!(server.submit_traced(job, None, ctx).expect("admitted").outcome().is_ok());
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
