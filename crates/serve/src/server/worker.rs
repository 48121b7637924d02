//! Workers: the one queue all of them take from ([`WorkQueue`]),
//! work-conserving batching ([`WorkQueue::next_batch`]), the panic
//! boundary and pool resizing ([`supervise_worker`], [`resize_pool`]) and
//! scoring through the circuit breaker ([`process_batch`]).

use super::admission::Envelope;
use super::attribution::StageClock;
use super::{
    RequestError, ServedResponse, ServedVia, Shared, CHAN_QUEUE, CHAN_REPLY_BASE,
    RES_REQUEST_BASE, RES_RESPONSE_BASE,
};
use crate::scaling::{AutoScaler, ScaleAction};
use parking_lot::Mutex;
use scope_sim::{EventTrace, TraceOp};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};
use tasq::pipeline::ScoreResponse;
use tasq_obs::{FieldValue, Level};

/// The request queue every worker takes from. Admission bounds it: the
/// `depth` counter claims a slot before [`WorkQueue::push`], so the queue
/// keeps no bound of its own. Pool membership lives under the same lock,
/// which is what makes scale-down and shutdown unable to strand an
/// admitted request: a push and a worker's decision to leave are ordered
/// by the lock, and a worker leaves only where the rest of the pool (or,
/// for the last one out, the closed flag) covers what is queued.
pub(super) struct WorkQueue {
    /// Every update under this lock is one complete step, so a guard
    /// poisoned by a panicking holder is recovered, not propagated.
    pending: std::sync::Mutex<QueueState>,
    /// Signalled by a push while a worker is parked, and on resize and
    /// shutdown for every parked worker.
    ready: Condvar,
}

struct QueueState {
    envelopes: VecDeque<Envelope>,
    /// Pool size the workers converge on.
    target: usize,
    /// Workers spawned and not yet left.
    live: usize,
    /// Workers parked on `ready`; a push wakes one only while this is
    /// non-zero, so a push while every worker is busy costs no syscall.
    idle: usize,
    /// Set by the last worker out at shutdown; `push` refuses from then on.
    closed: bool,
}

impl QueueState {
    /// Leave the pool at shutdown. The last worker out closes the queue
    /// and hands back whatever is still in it.
    fn leave(&mut self) -> Vec<Envelope> {
        self.live = self.live.saturating_sub(1);
        if self.live > 0 {
            return Vec::new();
        }
        self.closed = true;
        self.envelopes.drain(..).collect()
    }
}

impl WorkQueue {
    pub(super) fn new() -> Self {
        let state =
            QueueState { envelopes: VecDeque::new(), target: 0, live: 0, idle: 0, closed: false };
        Self { pending: std::sync::Mutex::new(state), ready: Condvar::new() }
    }

    /// Queue one admitted envelope, waking a parked worker if there is
    /// one; a busy worker takes it after its batch. False once the last
    /// worker has left: the envelope is dropped, which resolves its reply
    /// slot as lost.
    pub(super) fn push(&self, envelope: Envelope) -> bool {
        let mut state = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return false;
        }
        state.envelopes.push_back(envelope);
        let wake = state.idle > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        true
    }

    /// Block until this worker holds work or should leave: the oldest
    /// queued envelopes, up to `max_batch` (a worker never sleeps while
    /// work is queued, and whichever worker is free takes it), or `None`
    /// once the worker has left the pool — surplus to the target, or
    /// shutdown with nothing left queued.
    fn next_batch(&self, max_batch: usize, shutdown: &AtomicBool) -> Option<Vec<Envelope>> {
        let mut state = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.live > state.target {
                // Scale-down, between batches. What is queued is the rest
                // of the pool's; if this worker took the wake meant for
                // it, pass the wake on.
                state.live -= 1;
                let wake = state.idle > 0 && !state.envelopes.is_empty();
                drop(state);
                if wake {
                    self.ready.notify_one();
                }
                return None;
            }
            if !state.envelopes.is_empty() {
                let take = state.envelopes.len().min(max_batch.max(1));
                let mut batch: Vec<Envelope> = state.envelopes.drain(..take).collect();
                drop(state);
                let dequeued = Instant::now();
                for envelope in &mut batch {
                    envelope.dequeued = dequeued;
                }
                return Some(batch);
            }
            if shutdown.load(Ordering::SeqCst) {
                // The queue is empty, so the last worker out closes it
                // with nothing to hand back.
                state.leave();
                return None;
            }
            state.idle += 1;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
        }
    }

    /// Set the pool size the workers converge on and return how many
    /// workers to spawn to reach it. Parked workers wake to re-check: a
    /// surplus one leaves.
    fn resize(&self, target: usize) -> usize {
        let mut state = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        state.target = target;
        let spawn = target.saturating_sub(state.live);
        state.live += spawn;
        drop(state);
        self.ready.notify_all();
        spawn
    }

    /// Wake every parked worker to re-check the shutdown flag. Taking the
    /// lock orders this after any worker's check of the flag, so no
    /// worker parks past it.
    pub(super) fn wake_all(&self) {
        drop(self.pending.lock().unwrap_or_else(PoisonError::into_inner));
        self.ready.notify_all();
    }

    /// Leave the pool from outside [`WorkQueue::next_batch`] (a worker
    /// that panicked during shutdown); see [`QueueState::leave`].
    fn leave(&self) -> Vec<Envelope> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).leave()
    }

    /// Workers spawned and not yet left.
    pub(super) fn live(&self) -> usize {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).live
    }

    /// The pool size the workers converge on.
    pub(super) fn target(&self) -> usize {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).target
    }
}

/// Set the pool's target size and spawn workers up to it. Serialized on
/// the handles lock so concurrent resizes cannot overshoot. Shrinking
/// spawns nothing: surplus workers leave between batches.
pub(super) fn resize_pool(
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    target: usize,
) {
    let mut guard = handles.lock();
    for _ in 0..shared.queue.resize(target.max(1)) {
        let slot = shared.next_slot.fetch_add(1, Ordering::SeqCst);
        let worker_shared = Arc::clone(shared);
        guard.push(std::thread::spawn(move || supervise_worker(&worker_shared, slot)));
    }
}

/// How often the autoscaler samples queue utilization.
const SCALER_POLL: Duration = Duration::from_millis(20);

/// The autoscaler thread: sample `depth / queue_capacity`, tick the pure
/// [`AutoScaler`], apply its decision through the dynamic pool.
pub(super) fn scaler_loop(
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut scaler = AutoScaler::new(shared.config.scaling.clone());
    let epoch = Instant::now();
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(SCALER_POLL);
        let depth = shared.depth.load(Ordering::Relaxed);
        let utilization = depth as f64 / shared.config.queue_capacity.max(1) as f64;
        // Decide against the *target* (not live) count so a pending
        // cooperative scale-down isn't re-decided every poll.
        let current = shared.queue.target();
        // The SLO burn rate is the leading scale-up signal: latency
        // violations burn budget before the queue visibly saturates.
        let now_us = tasq_obs::clock::now_micros();
        let burn = shared.slo.max_fast_burn(now_us);
        shared.slo.publish(tasq_obs::Registry::global(), now_us);
        let action = scaler.tick_with_burn(epoch.elapsed(), utilization, burn, current);
        let (counter, name, n) = match action {
            ScaleAction::Hold => continue,
            ScaleAction::Up(n) => (&shared.scale_ups, "serve_scale_up", n),
            ScaleAction::Down(n) => (&shared.scale_downs, "serve_scale_down", n),
        };
        resize_pool(shared, handles, n);
        counter.fetch_add(1, Ordering::Relaxed);
        tasq_obs::event(Level::Info, name, &[("workers", FieldValue::U64(n as u64))]);
    }
}

/// One worker slot: run [`worker_loop`] under a panic boundary and
/// respawn it (in place, same thread) after every panic until shutdown.
/// A panicking worker cannot hang its in-flight requests: the unwinding
/// [`BatchGuard`] resolves everything it still holds to
/// [`RequestError::WorkerLost`].
fn supervise_worker(shared: &Shared, slot: usize) {
    loop {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(shared)));
        match outcome {
            // The worker left the pool: scale-down, or shutdown with
            // nothing left queued.
            Ok(()) => return,
            Err(_) => {
                shared.counters.worker_respawns.count();
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
    // Panicked during shutdown: leave the pool here. If this was the last
    // worker, whatever is still queued resolves to the typed `WorkerLost`
    // with its queue slot released — never a silent hang, and `drain`
    // cannot wait on a queue nobody serves.
    for envelope in shared.queue.leave() {
        shared.depth.fetch_sub(1, Ordering::SeqCst);
        shared.counters.worker_lost.count();
        shared.record_failure();
        envelope.reply.send(Err(RequestError::WorkerLost));
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
            self.shared.counters.worker_lost.count();
            self.shared.record_failure();
            envelope.reply.send(Err(RequestError::WorkerLost));
        }
    }
}

fn worker_loop(shared: &Shared) {
    let trace = shared.config.trace.clone();
    let trace_actor = trace.as_ref().map(EventTrace::register_actor);
    let max_batch = shared.config.max_batch;
    while let Some(batch) = shared.queue.next_batch(max_batch, &shared.shutdown) {
        process_batch(shared, batch, &trace, trace_actor);
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
        // the cross-thread queue hop does not sever the trace.
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
        shared.counters.batches.count();
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
                    envelope.reply.send(Ok(served));
                }
                Err(err) => {
                    shared.counters.deadline_timeouts.count();
                    shared.record_failure();
                    tasq_obs::event(
                        Level::Warn,
                        "serve_deadline_timeout",
                        &[("seq", FieldValue::U64(envelope.seq))],
                    );
                    envelope.reply.send(Err(err));
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
            shared.counters.breaker_trips.count();
            tasq_obs::event(
                Level::Warn,
                "serve_breaker_open",
                &[("seq", FieldValue::U64(seq))],
            );
        }
        if recovered {
            shared.counters.breaker_recoveries.count();
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
