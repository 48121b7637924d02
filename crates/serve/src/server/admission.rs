//! Admission: [`ScoringServer::submit`], the one way into the server, with
//! the request value it takes, the [`Ticket`] it returns and the typed
//! errors either can resolve to.

use super::ScoringServer;
use crate::signature::PlanSignature;
use scope_sim::Job;
use std::fmt;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tasq::pipeline::ScoreResponse;
use tasq_obs::{FieldValue, Level, TraceContext};

/// One scoring request. A bare [`Job`] converts (`server.submit(job)`)
/// with no deadline and no carried trace; the network front-end sets both.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// The job to score.
    pub job: Job,
    /// Deadline budget for this request, overriding
    /// [`ServeConfig::deadline`](super::ServeConfig::deadline). A miss
    /// whose budget has elapsed when its score starts resolves to
    /// [`RequestError::DeadlineExceeded`]. Cache hits never time out.
    pub deadline: Option<Duration>,
    /// Trace context carried in from the caller — the network front-end
    /// passes what it pulled off the wire so the whole server-side life
    /// of the request joins the caller's trace. An inactive context mints
    /// a fresh sampled one when span collection is on and stays untraced
    /// otherwise, so unsampled requests pay only the context copy.
    pub trace: TraceContext,
}

impl From<Job> for ScoreRequest {
    fn from(job: Job) -> Self {
        Self { job, deadline: None, trace: TraceContext::NONE }
    }
}

/// Which serving path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// Signature-cache hit; no inference ran.
    Cache,
    /// Scored against the active model.
    Model,
    /// No longer produced: misses beyond the in-flight bound are refused,
    /// not answered by the analytic tier. Kept because the benchmark
    /// names it.
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
    /// Every in-flight slot is taken; retry later or back off.
    Overloaded {
        /// Misses in flight observed at rejection.
        depth: usize,
        /// The configured bound, [`ServeConfig::workers`](super::ServeConfig::workers).
        capacity: usize,
    },
    /// The server has been closed.
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
                write!(f, "overloaded: {depth} misses in flight at capacity {capacity}")
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
    /// Scoring this request panicked; the panic was caught and the
    /// server serves on, but this request's answer was lost. Safe to
    /// retry.
    WorkerLost,
    /// The request's deadline budget elapsed before its score started.
    DeadlineExceeded {
        /// The budget that was exceeded.
        budget: Duration,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::WorkerLost => write!(f, "score panicked; retry"),
            RequestError::DeadlineExceeded { budget } => {
                write!(f, "deadline budget {budget:?} exceeded before scoring")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The answer to one admitted request, resolved by the time `submit`
/// returns it.
pub struct Ticket {
    outcome: Result<ServedResponse, RequestError>,
}

impl Ticket {
    /// The typed resolution of this request: the response, or the reason
    /// no response was produced. Never blocks: `submit` answered the
    /// request on the caller's thread.
    pub fn outcome(self) -> Result<ServedResponse, RequestError> {
        self.outcome
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

impl ScoringServer {
    /// Submit one request for scoring — the only way in, for in-process
    /// callers and both wire framings alike. The request is answered here,
    /// on the caller's thread, from the signature cache or by scoring it,
    /// and the returned [`Ticket`] is already resolved; a network shard
    /// calls this from its event loop.
    pub fn submit(&self, request: impl Into<ScoreRequest>) -> Result<Ticket, SubmitError> {
        self.admit(request.into())
    }

    /// The body of [`ScoringServer::submit`], not generic so that it is
    /// compiled once, in this crate, with its callees in reach of inlining.
    fn admit(&self, request: ScoreRequest) -> Result<Ticket, SubmitError> {
        let ScoreRequest { job, deadline, trace } = request;
        let ctx = resolve_context(trace);
        let span_fields = [
            ("job", FieldValue::U64(job.id)),
            ("trace", FieldValue::TraceId(ctx.trace_id)),
        ];
        let _span = if ctx.sampled {
            tasq_obs::span_with_parent(Level::Debug, "serve_submit", ctx.span_id, &span_fields)
        } else {
            tasq_obs::span(Level::Debug, "serve_submit", &span_fields)
        };
        self.counters.submitted.count();
        if self.closed.load(Ordering::Relaxed) {
            // Counted as submitted, so counted as refused — and, like
            // `InvalidPlan`, without burning availability budget.
            self.counters.rejected.count();
            return Err(SubmitError::ShuttingDown);
        }
        let submitted = Instant::now();
        let generation = self.registry.generation();
        let key = PlanSignature::of_job(&job).cache_key(generation);

        // Recurring plans are answered from cache, with no inference.
        if let Some(mut response) = self.cache.get(key) {
            response.job_id = job.id;
            self.finish(submitted, ctx, None);
            return Ok(Ticket {
                outcome: Ok(ServedResponse { response, via: ServedVia::Cache, generation }),
            });
        }

        // A plan that was decoded has met no constructor, and scoring
        // panics on one that cannot be staged. Checked after the probe:
        // only a plan that passed here is ever cached, so a hit has nothing
        // left to check. The client's fault, so it burns no availability
        // budget.
        if let Err(violation) = scope_sim::check_structure(&job.plan) {
            self.counters.rejected.count();
            return Err(SubmitError::InvalidPlan { detail: violation.to_string() });
        }

        // Admission control: claim one of `workers` in-flight slots, or
        // be refused.
        let capacity = self.config.workers.max(1);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed);
        if depth >= capacity {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.counters.rejected.count();
            self.record_failure();
            tasq_obs::event(
                Level::Warn,
                "serve_rejected",
                &[("depth", FieldValue::U64(depth as u64))],
            );
            return Err(SubmitError::Overloaded { depth, capacity });
        }
        let peak = &self.counters.peak_queue_depth;
        if depth as u64 >= peak.load(Ordering::Relaxed) {
            peak.fetch_max(depth as u64 + 1, Ordering::Relaxed);
        }
        let outcome = self.score_miss(&job, key, generation, submitted, ctx, deadline);
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Ok(Ticket { outcome })
    }
}
