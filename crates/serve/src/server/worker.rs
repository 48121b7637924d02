//! Workers: routing an admitted envelope to a worker ([`send_envelope`]),
//! work-conserving batching ([`collect_batch`]), the panic boundary and
//! pool resizing ([`supervise_worker`], [`resize_pool`]) and scoring
//! through the circuit breaker ([`process_batch`]).

use super::admission::Envelope;
use super::attribution::StageClock;
use super::{
    RequestError, ServeConfig, ServedResponse, ServedVia, Shared, CHAN_QUEUE, CHAN_REPLY_BASE,
    RES_REQUEST_BASE, RES_RESPONSE_BASE,
};
use crate::scaling::{AutoScaler, ScaleAction};
use parking_lot::Mutex;
use scope_sim::{EventTrace, TraceOp};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tasq::pipeline::ScoreResponse;
use tasq_obs::{FieldValue, Level};

/// How long an idle worker sleeps between shutdown checks.
const IDLE_POLL: Duration = Duration::from_millis(20);

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
pub(super) fn resize_pool(
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
pub(super) fn send_envelope(shared: &Shared, envelope: Envelope) -> Result<(), ()> {
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
    // Final sweep: anything still sitting in this worker's channel when
    // it stops receiving (a shutdown race, or a panic after retirement)
    // resolves to the typed `WorkerLost` with its queue slot released —
    // never a silent hang, and `drain` cannot wait on a dead channel.
    while let Ok(envelope) = rx.try_recv() {
        shared.depth.fetch_sub(1, Ordering::SeqCst);
        shared.counters.worker_lost.count();
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
            self.shared.counters.worker_lost.count();
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
                    let _ = envelope.reply.send(Ok(served));
                }
                Err(err) => {
                    shared.counters.deadline_timeouts.count();
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
