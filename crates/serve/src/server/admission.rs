//! Admission: [`ScoringServer::submit`], the one way into the server, with
//! the request value it takes, the [`Ticket`] it returns and the typed
//! errors either can resolve to.

use super::{ScoringServer, CHAN_QUEUE, CHAN_REPLY_BASE, RES_REQUEST_BASE, RES_RESPONSE_BASE};
use crate::signature::PlanSignature;
use scope_sim::{EventTrace, Job, TraceOp};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, PoisonError};
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
    /// [`ServeConfig::deadline`](super::ServeConfig::deadline). A queued
    /// request whose budget elapses before a worker reaches it resolves
    /// to [`RequestError::DeadlineExceeded`]. Cache hits and sheds answer
    /// inline and never time out.
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

/// What an admitted request resolves to.
type Outcome = Result<ServedResponse, RequestError>;

/// A one-shot reply slot: the one answer a worker gives one request, and
/// the wake for the ticket waiting on it. One allocation per request.
pub(super) struct ReplySlot {
    /// Each update under this lock is one complete step, so a poisoned
    /// guard is recovered, not propagated.
    state: std::sync::Mutex<SlotState>,
    answered: Condvar,
}

struct SlotState {
    outcome: Option<Outcome>,
    /// The ticket is parked on `answered`; only then does an answer
    /// notify, so answering a request nobody waits on yet costs no
    /// syscall.
    waiting: bool,
}

impl ReplySlot {
    /// A fresh slot, with the answering half to put in the envelope.
    pub(super) fn new() -> (Reply, Arc<Self>) {
        let slot = Arc::new(Self {
            state: std::sync::Mutex::new(SlotState { outcome: None, waiting: false }),
            answered: Condvar::new(),
        });
        (Reply { slot: Some(Arc::clone(&slot)) }, slot)
    }

    fn fill(&self, outcome: Outcome) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.outcome = Some(outcome);
        let wake = state.waiting;
        drop(state);
        if wake {
            self.answered.notify_one();
        }
    }

    fn wait(&self) -> Outcome {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome;
            }
            state.waiting = true;
            state = self.answered.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The answering half of a [`ReplySlot`], carried by the envelope.
/// Dropping it unanswered — a worker torn down mid-batch, an envelope
/// refused at shutdown — resolves the ticket to
/// [`RequestError::WorkerLost`], so [`Ticket::outcome`] never hangs.
pub(super) struct Reply {
    slot: Option<Arc<ReplySlot>>,
}

impl Reply {
    /// Answer the request.
    pub(super) fn send(mut self, outcome: Outcome) {
        if let Some(slot) = self.slot.take() {
            slot.fill(outcome);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.fill(Err(RequestError::WorkerLost));
        }
    }
}

/// Handle to an in-flight (or already answered) request.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    Ready(ServedResponse),
    Pending {
        reply: Arc<ReplySlot>,
        trace: Option<EventTrace>,
        seq: u64,
    },
}

impl Ticket {
    /// A ticket for a request `submit` answered on the caller's thread.
    fn ready(response: ScoreResponse, via: ServedVia, generation: u64) -> Self {
        Self { inner: TicketInner::Ready(ServedResponse { response, via, generation }) }
    }

    /// Wait for the typed resolution of this request: the response, or
    /// the reason no response was produced. Never hangs on a dead worker:
    /// a panicked worker's in-flight requests resolve to
    /// [`RequestError::WorkerLost`] (replied by the unwinding batch
    /// guard, or by the reply slot's sender being dropped unanswered).
    pub fn outcome(self) -> Result<ServedResponse, RequestError> {
        match self.inner {
            TicketInner::Ready(response) => Ok(response),
            TicketInner::Pending { reply, trace, seq } => {
                let outcome = reply.wait();
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

/// An admitted request on its way to a worker.
pub(super) struct Envelope {
    pub(super) job: Job,
    pub(super) key: u64,
    pub(super) seq: u64,
    pub(super) submitted: Instant,
    /// When the envelope entered the queue (end of the fastpath probe).
    pub(super) enqueued: Instant,
    /// When a worker took it off the queue; stamped by the worker's
    /// `next_batch`, equal to `enqueued` until then.
    pub(super) dequeued: Instant,
    /// Request trace identity, carried across the queue hop so the
    /// worker-side spans parent under the submitter's span instead of
    /// starting a fresh root.
    pub(super) ctx: TraceContext,
    pub(super) deadline: Option<Duration>,
    pub(super) reply: Reply,
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
    /// callers and both wire framings alike. Returns a [`Ticket`]
    /// immediately; a signature-cache hit (and a shed) is answered here on
    /// the caller's thread and its ticket comes back already resolved: no
    /// queue slot, no reply slot, no worker wake, so a network shard can call
    /// this from its event loop.
    pub fn submit(&self, request: impl Into<ScoreRequest>) -> Result<Ticket, SubmitError> {
        self.admit(request.into())
    }

    /// The body of [`ScoringServer::submit`], not generic so that it is
    /// compiled once, in this crate, with its callees in reach of inlining.
    fn admit(&self, request: ScoreRequest) -> Result<Ticket, SubmitError> {
        let ScoreRequest { job, deadline, trace } = request;
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Relaxed) || shared.draining.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
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
        shared.counters.submitted.count();
        let submitted = Instant::now();
        let generation = shared.registry.generation();
        let key = PlanSignature::of_job(&job).cache_key(generation);

        // Fast path: answer recurring plans from cache, bypassing the
        // queue and all inference.
        if let Some(mut response) = shared.cache.get(key) {
            response.job_id = job.id;
            shared.finish_traced(ServedVia::Cache, submitted, submitted, ctx, None);
            return Ok(Ticket::ready(response, ServedVia::Cache, generation));
        }

        // A plan that was decoded has met no constructor, and every path
        // below ends in `ScoringService::score`, which panics on one that
        // cannot be staged. Checked after the probe: only a plan that
        // passed here is ever cached, so a hit has nothing left to check.
        // The client's fault, so it burns no availability budget.
        if let Err(violation) = scope_sim::check_structure(&job.plan) {
            shared.counters.rejected.count();
            return Err(SubmitError::InvalidPlan { detail: violation.to_string() });
        }

        // Admission control: claim a queue slot; over the hard bound the
        // request is refused, over the watermark it is shed to the
        // analytic tier (served inline, never queued).
        let config = &shared.config;
        let depth = shared.depth.fetch_add(1, Ordering::SeqCst);
        if depth >= config.queue_capacity {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            shared.counters.rejected.count();
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
            return Ok(Ticket::ready(response, ServedVia::Shed, generation));
        }
        shared
            .counters
            .peak_queue_depth
            .fetch_max(depth as u64 + 1, Ordering::Relaxed);

        let (reply, slot) = ReplySlot::new();
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
        if !shared.queue.push(envelope) {
            // The last worker has left and closed the queue: shutdown won
            // the race with the check at the top. Counted as submitted, so
            // counted as refused — and, like `InvalidPlan`, without burning
            // availability budget.
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            shared.counters.rejected.count();
            return Err(SubmitError::ShuttingDown);
        }
        Ok(Ticket {
            inner: TicketInner::Pending { reply: slot, trace: config.trace.clone(), seq },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn pending(reply: Arc<ReplySlot>) -> Ticket {
        Ticket { inner: TicketInner::Pending { reply, trace: None, seq: 0 } }
    }

    /// Spin until a ticket is parked on `slot`, so the answer below takes
    /// the wake path.
    fn await_parked(slot: &ReplySlot) {
        while !slot.state.lock().expect("slot lock").waiting {
            std::thread::yield_now();
        }
    }

    #[test]
    fn dropping_an_unanswered_envelope_resolves_its_ticket_to_worker_lost() {
        let config = WorkloadConfig { num_jobs: 1, seed: 5, ..Default::default() };
        let job = WorkloadGenerator::new(config).generate().remove(0);
        let (reply, slot) = ReplySlot::new();
        let now = Instant::now();
        let envelope = Envelope {
            job,
            key: 0,
            seq: 0,
            submitted: now,
            enqueued: now,
            dequeued: now,
            ctx: TraceContext::NONE,
            deadline: None,
            reply,
        };
        let parked = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || pending(slot).outcome());
        await_parked(&parked);
        drop(envelope);
        assert!(matches!(waiter.join().expect("waiter"), Err(RequestError::WorkerLost)));
    }

    #[test]
    fn an_answer_reaches_its_ticket_before_or_during_the_wait() {
        let late = |us| RequestError::DeadlineExceeded { budget: Duration::from_micros(us) };
        let (reply, slot) = ReplySlot::new();
        reply.send(Err(late(1)));
        assert_eq!(pending(slot).outcome().err(), Some(late(1)));

        let (reply, slot) = ReplySlot::new();
        let parked = Arc::clone(&slot);
        let answer = std::thread::spawn(move || {
            await_parked(&parked);
            reply.send(Err(late(2)));
        });
        assert_eq!(pending(slot).outcome().err(), Some(late(2)));
        answer.join().expect("answering thread");
    }
}
