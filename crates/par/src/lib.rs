//! # tasq-par — deterministic self-scheduling runtime for the offline pipeline
//!
//! TASQ's offline loop (flighting every sampled job at several token
//! counts, featurizing plans, fitting k-means/GBDT/NN models) is
//! embarrassingly parallel, but this build environment has no access to
//! crates.io, so rayon is unavailable. This crate implements the needed
//! slice of a data-parallel runtime from scratch on top of `std::thread`:
//!
//! * [`Pool`] — a thread-count handle whose [`Pool::par_map`] /
//!   [`Pool::par_for_chunks`] fan a flat index range out over scoped
//!   workers. Every worker claims `grain` consecutive indices at a time
//!   from one shared atomic cursor until it passes the end, so a worker
//!   that finishes early simply claims the next chunk.
//! * [`Pool::crew`] — for a loop of short, dependent steps (the GNN's
//!   minibatches): `threads - 1` helpers spawned once for the whole call,
//!   each round of work handed to every role through a generation
//!   counter, with no spawn per step.
//! * [`Pool::join`] — two independent closures side by side, the caller
//!   running the first and one scoped helper the second (the offline
//!   pipeline's XGBoost and NN fits).
//! * Panic capture — worker panics never cross the pool boundary; they
//!   are converted into a typed [`ParError`] carrying the lowest task
//!   index observed panicking and the panic message.
//!
//! ## Determinism contract
//!
//! Which worker runs which chunk is nondeterministic (claims race), but
//! **results are not**: every input index owns exactly one output slot,
//! tasks may only read shared inputs and write their own slot, and any
//! randomness must be pre-split per task from a base seed (see
//! `tasq_ml::rand_ext::split_seed`) rather than drawn from a shared
//! stream. Under that contract a `par_map` at any thread count is
//! bit-identical to the sequential map, which is what the workspace's
//! same-seed reproducibility tests assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use tasq_obs::sync::{Mutex, Rank};
use tasq_obs::{span_with_parent, Counter, FieldValue, Level, Registry};

/// Items executed, registered once and incremented with a relaxed atomic.
/// Scheduling telemetry only; results are bit-identical whatever it reads.
fn tasks_counter() -> &'static Counter {
    static TASKS: OnceLock<Counter> = OnceLock::new();
    TASKS.get_or_init(|| {
        Registry::global().counter("par_tasks_total", "Items executed by the parallel runtime")
    })
}

/// Crew rounds run, counted once per round on the calling thread.
fn rounds_counter() -> &'static Counter {
    static ROUNDS: OnceLock<Counter> = OnceLock::new();
    ROUNDS.get_or_init(|| {
        Registry::global().counter("par_crew_rounds_total", "Rounds handed to a crew's roles")
    })
}

/// Waits on a crew that outlasted the spin bound and parked: a handoff
/// that spins does not count.
fn parks_counter() -> &'static Counter {
    static PARKS: OnceLock<Counter> = OnceLock::new();
    PARKS.get_or_init(|| {
        Registry::global()
            .counter("par_crew_parks_total", "Crew waits that parked after the spin bound")
    })
}

/// Error produced when parallel work fails.
///
/// The runtime never lets a worker panic escape: the first panicking task
/// (lowest input index among observed panics, for stable reporting) is
/// captured and surfaced as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A task panicked.
    TaskPanicked {
        /// Input index (for `par_map`) or chunk index (for
        /// `par_for_chunks`) of the panicking task.
        index: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// A worker thread died without delivering its results and without
    /// recording a panic. This indicates a bug in the runtime itself.
    ResultMissing {
        /// Input index whose output slot was never filled.
        index: usize,
    },
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TaskPanicked { index, message } => {
                write!(f, "parallel task {index} panicked: {message}")
            }
            Self::ResultMissing { index } => {
                write!(f, "no result delivered for task {index} (runtime bug)")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Render a panic payload as text (the common `&str` / `String` payloads;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// First-panic recorder shared by all workers of one parallel call.
///
/// Keeps the panic with the lowest task index so the reported error does
/// not depend on scheduling when a single task is at fault.
struct PanicSlot {
    slot: Mutex<Option<(usize, String)>>,
}

impl PanicSlot {
    fn new() -> Self {
        Self { slot: Mutex::new(Rank::ParPanic, None) }
    }

    fn record(&self, index: usize, payload: Box<dyn Any + Send>) {
        let message = panic_message(payload.as_ref());
        let mut slot = self.slot.lock();
        match &*slot {
            Some((prev, _)) if *prev <= index => {}
            _ => *slot = Some((index, message)),
        }
    }

    fn take(self) -> Option<(usize, String)> {
        self.slot.into_inner()
    }
}

/// A self-scheduling pool configured for a fixed number of threads.
///
/// The handle itself is cheap: a call that fans out spawns `threads - 1`
/// scoped workers, runs worker 0 on the calling thread, and joins before
/// it returns, so borrowed inputs need no `'static` bound and no thread
/// outlives the call. That spawn + join is the whole per-call dispatch
/// cost (measured at ≈ 55 µs per call with two threads on the 2-vCPU
/// reference box, see DESIGN.md "Parallel offline runtime"); callers with
/// less than a few hundred microseconds of work should stay sequential,
/// and a loop of such steps should run on one [`Pool::crew`], whose
/// helpers are spawned once for the whole loop.
/// `Pool::new(1)` (or [`Pool::sequential`]) runs everything inline on the
/// calling thread with identical results and error semantics.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// Shared state for one `par_map` call.
struct MapShared {
    /// First index no worker has claimed yet.
    next: AtomicUsize,
    /// Set on the first panic; workers stop claiming promptly.
    abort: AtomicBool,
    panic: PanicSlot,
    /// Span open on the submitting thread when the call was made; worker
    /// task spans parent onto it across the thread boundary.
    parent_span: u64,
}

impl Pool {
    /// Pool over `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Single-threaded pool: every call runs inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Pool sized to `std::thread::available_parallelism()`, capped at
    /// eight workers: the one place an offline entry point that was not
    /// handed a pool (`Dataset::build`, `TasqPipeline::train`,
    /// `GnnPcc::train`, flight selection) gets its thread count from. The
    /// offline fan-outs are a few hundred tasks wide, and past eight
    /// workers the per-call spawns cost more than the extra lanes return.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(threads.min(8))
    }

    /// Number of worker threads this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` in parallel, returning outputs in input order.
    ///
    /// `f` receives `(index, &item)`; output slot `i` is written exactly
    /// once by whichever worker executes task `i`, so the returned vector
    /// is bit-identical to `items.iter().enumerate().map(..).collect()`
    /// regardless of thread count. The chunk grain is chosen
    /// automatically; use [`Pool::par_map_grain`] to control it.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Result<Vec<U>, ParError>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let grain = (items.len() / (self.threads * 4)).max(1);
        self.par_map_grain(items, grain, f)
    }

    /// [`Pool::par_map`] with an explicit grain: workers claim `grain`
    /// consecutive indices at a time (the last chunk may be shorter).
    pub fn par_map_grain<T, U, F>(
        &self,
        items: &[T],
        grain: usize,
        f: F,
    ) -> Result<Vec<U>, ParError>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let grain = grain.max(1);
        let workers = self.threads.min(n.div_ceil(grain));
        // Alone, the caller takes the whole range as one chunk (one span).
        let grain = if workers == 1 { n } else { grain };
        let shared = MapShared {
            next: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            panic: PanicSlot::new(),
            parent_span: tasq_obs::current_span_id(),
        };

        let partials: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let shared = &shared;
                    let f = &f;
                    s.spawn(move || map_worker(w, shared, items, f, grain))
                })
                .collect();
            // The caller is worker 0: one spawn fewer per call and no
            // thread that only waits. Worker bodies catch every task
            // panic (the caller's share included, so the joins below
            // always run); join() only fails on a runtime bug, and a lost
            // partial surfaces as ResultMissing.
            let mut partials = vec![map_worker(0, &shared, items, &f, grain)];
            tasq_obs::sync::blocking();
            partials.extend(handles.into_iter().map(|h| h.join().unwrap_or_default()));
            partials
        });

        if let Some((index, message)) = shared.panic.take() {
            return Err(ParError::TaskPanicked { index, message });
        }
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for part in partials {
            for (i, v) in part {
                slots[i] = Some(v);
            }
        }
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(v) => out.push(v),
                None => return Err(ParError::ResultMissing { index: i }),
            }
        }
        Ok(out)
    }

    /// Run `a` and `b`, side by side when the pool has a second thread,
    /// and return both results.
    ///
    /// `a` runs on the calling thread. When `threads() > 1`, `b` runs on
    /// one scoped helper spawned for this call; otherwise it runs inline
    /// after `a`. Each side runs under a `par_join` span parented onto the
    /// caller's span (`side` 0 for `a`, 1 for `b`). A panic on either side
    /// is caught, the other side runs to its end, and the call returns
    /// [`ParError::TaskPanicked`] with the lower panicking side as its
    /// index: no thread outlives the call.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> Result<(RA, RB), ParError>
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let parent_span = tasq_obs::current_span_id();
        let (ra, rb) = if self.threads > 1 {
            thread::scope(|s| {
                let helper = thread::Builder::new()
                    .spawn_scoped(s, move || join_side(1, parent_span, b));
                let ra = join_side(0, parent_span, a);
                tasq_obs::sync::blocking();
                // The side catches its own panic, so `join` fails only on
                // a runtime bug; that payload is reported the same way.
                let rb = match helper {
                    Ok(handle) => handle.join().and_then(|rb| rb),
                    Err(e) => Err(Box::new(format!("could not spawn the join helper: {e}"))
                        as Box<dyn Any + Send>),
                };
                (ra, rb)
            })
        } else {
            let ra = join_side(0, parent_span, a);
            (ra, join_side(1, parent_span, b))
        };
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => Ok((ra, rb)),
            (Err(payload), _) => {
                Err(ParError::TaskPanicked { index: 0, message: panic_message(payload.as_ref()) })
            }
            (Ok(_), Err(payload)) => {
                Err(ParError::TaskPanicked { index: 1, message: panic_message(payload.as_ref()) })
            }
        }
    }

    /// Run `f` over consecutive `chunk_len`-sized mutable chunks of `data`
    /// in parallel. `f` receives `(chunk_index, chunk)`; chunks are
    /// disjoint, so no synchronization is needed inside `f`. k-means
    /// assigns its points this way, 64 rows per chunk.
    pub fn par_for_chunks<T, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: F,
    ) -> Result<(), ParError>
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // Hand each chunk to exactly one task through a take-once slot;
        // the cursor delivers every index exactly once, so the lock is
        // uncontended and exists only to move `&mut` across threads safely.
        let slots: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len.max(1))
            .map(|c| Mutex::new(Rank::ParChunk, Some(c)))
            .collect();
        self.par_map_grain(&slots, 1, |i, slot| {
            let chunk = slot.lock().take();
            if let Some(chunk) = chunk {
                f(i, chunk);
            }
        })
        .map(drop)
    }
}

/// How long a crew role waits by spinning before it parks.
///
/// Derived from two costs, not tuned. On the 2-vCPU reference box the
/// regular gap between two rounds of a GNN fit (the caller's Adam step
/// and weight transposes) is 110–190 µs, and a `park` / `unpark` round
/// trip costs 37–460 µs. A fit must not park at its normal pace, so the
/// bound clears the longest regular gap with room for a preempted
/// caller (2.5x), and a wait that outlasts it parks after spinning about
/// one worst park round trip: the ski-rental rule, which keeps an idle
/// helper's spinning within twice what an oracle that knew the gap would
/// pay. Longer gaps (validation between epochs, the rest of a pass after
/// the fit) park, so an idle helper gives its core back.
pub const CREW_SPIN: Duration = Duration::from_micros(500);

/// Spin-loop iterations between two clock reads while spinning.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// Wait until `ready()`: spin for up to [`CREW_SPIN`], then park until
/// an `unpark` (which every state change that can make `ready` true is
/// followed by) finds it true. Parking is a blocking call, so it must not
/// run under a lock ([`tasq_obs::sync::blocking`] checks that).
fn wait_until(ready: impl Fn() -> bool) {
    if ready() {
        return;
    }
    let began = Instant::now();
    while began.elapsed() < CREW_SPIN {
        for _ in 0..SPINS_PER_CLOCK_READ {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
    }
    parks_counter().inc();
    let _park = tasq_obs::span(Level::Trace, "par_crew_park", &[]);
    tasq_obs::sync::blocking();
    while !ready() {
        thread::park();
    }
}

/// The unwind payload [`Crew::round`] uses to leave the body once the
/// crew has stopped; the panic that stopped it is already recorded.
struct Stopped;

/// What a crew's roles share for the whole call.
struct CrewShared {
    /// Rounds started. A helper runs a round when this passes the count
    /// it has seen.
    started: AtomicUsize,
    /// Helpers still running the current round.
    running: AtomicUsize,
    /// Set when a role panics or the body ends: helpers exit.
    stop: AtomicBool,
    panic: PanicSlot,
    /// Span open on the caller when the crew started; each role's round
    /// span parents onto it.
    parent_span: u64,
}

impl CrewShared {
    /// Run role `role`'s share of round `round`, recording a panic and
    /// stopping the crew if it panics.
    fn run(&self, work: &(dyn Fn(usize, usize) + Sync), role: usize, round: usize) {
        let _span = span_with_parent(
            Level::Trace,
            "par_crew_round",
            self.parent_span,
            &[("round", FieldValue::U64(round as u64)), ("role", FieldValue::U64(role as u64))],
        );
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(role, round))) {
            self.panic.record(role, payload);
            self.stop.store(true, Ordering::Release);
        }
    }
}

/// The caller's handle on a running crew (see [`Pool::crew`]).
pub struct Crew<'s> {
    shared: &'s CrewShared,
    work: &'s (dyn Fn(usize, usize) + Sync),
    /// The helpers, to unpark: role `i + 1` is `helpers[i]`.
    helpers: Vec<Thread>,
    /// Rounds this handle has started.
    rounds: Cell<usize>,
}

impl Crew<'_> {
    /// Run one round: `work(role, round)` once on every role, the caller
    /// as role 0, and return when every role is done. Rounds are numbered
    /// from 0. If a role panicked, this round or earlier, the crew has
    /// stopped: `round` unwinds out of the body instead of returning, and
    /// [`Pool::crew`] returns the panic as a [`ParError`].
    pub fn round(&self) {
        let shared = self.shared;
        if shared.stop.load(Ordering::Acquire) {
            resume_unwind(Box::new(Stopped));
        }
        let round = self.rounds.get();
        self.rounds.set(round + 1);
        rounds_counter().inc();
        // Published by the Release store of `started`, which every helper
        // reads (Acquire) before it counts itself done.
        shared.running.store(self.helpers.len(), Ordering::Relaxed);
        shared.started.store(round + 1, Ordering::Release);
        for helper in &self.helpers {
            helper.unpark();
        }
        shared.run(self.work, 0, round);
        wait_until(|| shared.running.load(Ordering::Acquire) == 0);
        if shared.stop.load(Ordering::Acquire) {
            resume_unwind(Box::new(Stopped));
        }
    }
}

/// A helper's loop: wait for the next round (or the stop), run its share,
/// count itself done, and wake the caller if it was the last. A round
/// that started counts this helper in even if the crew has stopped since
/// (another role panicked in it): the helper then skips the work, but
/// still counts itself done, so the caller never waits on it.
fn crew_helper(
    role: usize,
    shared: &CrewShared,
    work: &(dyn Fn(usize, usize) + Sync),
    caller: &Thread,
) {
    let mut seen = 0;
    loop {
        wait_until(|| {
            shared.stop.load(Ordering::Acquire) || shared.started.load(Ordering::Acquire) != seen
        });
        let started = shared.started.load(Ordering::Acquire);
        if started == seen {
            // Woken by the stop, with no round pending.
            return;
        }
        seen = started;
        if !shared.stop.load(Ordering::Acquire) {
            shared.run(work, role, seen - 1);
        }
        if shared.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

impl Pool {
    /// Run `body` on the calling thread with a crew of `threads` roles
    /// that lives for this call: `threads - 1` helpers are spawned once,
    /// inside one [`std::thread::scope`], and each [`Crew::round`] the
    /// body makes runs `work(role, round)` once on every role, the caller
    /// as role 0. A one-thread pool spawns nothing, and a round runs
    /// `work(0, round)` inline.
    ///
    /// `work` is the only code the helpers run, and it borrows whatever
    /// per-round data it reads for the whole call (the caller sets it
    /// between rounds, under locks), so no per-round closure crosses a
    /// thread. A handoff spins for up to [`CREW_SPIN`] and then parks:
    /// the helpers wait for the next round that way, and the caller for
    /// the last helper to finish.
    ///
    /// A panic in any role's `work`, or in `body`, ends the crew: no
    /// further round starts (the body unwinds out of its next
    /// [`Crew::round`]), the other roles finish the round they are in,
    /// every helper is joined, and the panic of the lowest role (the body
    /// counts as role 0) comes back as [`ParError::TaskPanicked`] with the
    /// role as its index. No role waits on a round another role has
    /// abandoned, and no thread outlives the call.
    pub fn crew<W, B, R>(&self, work: W, body: B) -> Result<R, ParError>
    where
        W: Fn(usize, usize) + Sync,
        B: FnOnce(&Crew<'_>) -> R,
    {
        let shared = CrewShared {
            started: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panic: PanicSlot::new(),
            parent_span: tasq_obs::current_span_id(),
        };
        let work: &(dyn Fn(usize, usize) + Sync) = &work;
        let caller = thread::current();
        let finished = thread::scope(|s| {
            let mut helpers = Vec::with_capacity(self.threads - 1);
            for role in 1..self.threads {
                let (shared, caller) = (&shared, &caller);
                let helper = move || crew_helper(role, shared, work, caller);
                match thread::Builder::new().spawn_scoped(s, helper) {
                    Ok(handle) => helpers.push(handle.thread().clone()),
                    Err(e) => {
                        let message = format!("could not spawn crew helper {role}: {e}");
                        shared.panic.record(role, Box::new(message));
                        shared.stop.store(true, Ordering::Release);
                        break;
                    }
                }
            }
            let crew = Crew { shared: &shared, work, helpers, rounds: Cell::new(0) };
            // Without all its helpers the crew never starts: the body does
            // not run, and the helpers that did spawn see the stop below.
            let started = !shared.stop.load(Ordering::Acquire);
            let finished = match started.then(|| catch_unwind(AssertUnwindSafe(|| body(&crew)))) {
                Some(Ok(value)) => Some(value),
                Some(Err(payload)) => {
                    if !payload.is::<Stopped>() {
                        shared.panic.record(0, payload);
                    }
                    None
                }
                None => None,
            };
            shared.stop.store(true, Ordering::Release);
            for helper in &crew.helpers {
                helper.unpark();
            }
            // The scope joins every helper as it ends.
            tasq_obs::sync::blocking();
            finished
        });
        match (shared.panic.take(), finished) {
            (Some((index, message)), _) => Err(ParError::TaskPanicked { index, message }),
            (None, Some(value)) => Ok(value),
            // Only `Stopped` unwinds without recording a panic, and only
            // after one was recorded.
            (None, None) => Err(ParError::ResultMissing { index: 0 }),
        }
    }
}

/// One side of [`Pool::join`]: `f` under a `par_join` span parented onto
/// the caller's, with its panic caught.
fn join_side<R>(side: u64, parent_span: u64, f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    let _span = span_with_parent(
        Level::Trace,
        "par_join",
        parent_span,
        &[("side", FieldValue::U64(side))],
    );
    catch_unwind(AssertUnwindSafe(f))
}

/// One worker's loop: claim the next `grain` indices from the shared
/// cursor, run them, and stop once the cursor passes the end or a task
/// anywhere has panicked. Returns the `(index, output)` pairs it produced.
fn map_worker<T, U, F>(
    me: usize,
    shared: &MapShared,
    items: &[T],
    f: &F,
    grain: usize,
) -> Vec<(usize, U)>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let mut local: Vec<(usize, U)> = Vec::new();
    while !shared.abort.load(Ordering::Acquire) {
        // Relaxed: the cursor publishes no data, only which indices are
        // taken; every result travels back to the caller through the join.
        let lo = shared.next.fetch_add(grain, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + grain).min(n);
        let _task_span = span_with_parent(
            Level::Trace,
            "par_task",
            shared.parent_span,
            &[
                ("lo", FieldValue::U64(lo as u64)),
                ("hi", FieldValue::U64(hi as u64)),
                ("worker", FieldValue::U64(me as u64)),
            ],
        );
        let mut executed = 0u64;
        for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
            if shared.abort.load(Ordering::Relaxed) {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(v) => {
                    local.push((i, v));
                    executed += 1;
                }
                Err(payload) => {
                    shared.panic.record(i, payload);
                    shared.abort.store(true, Ordering::Release);
                    break;
                }
            }
        }
        tasks_counter().add(executed);
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_order() {
        let items: Vec<u64> = (0..997).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.par_map(&items, |_, &x| x * x + 1).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    /// Every index runs exactly once and lands in input order at grains
    /// that divide `n`, leave a short last chunk, give one chunk per
    /// index, or leave fewer chunks than threads (`workers` clamps to the
    /// chunk count).
    #[test]
    fn every_index_runs_exactly_once_at_any_grain() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [2, 3, 8] {
            for grain in [1, 3, 7, 96, 97] {
                let hits: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
                let got = Pool::new(threads)
                    .par_map_grain(&items, grain, |i, &x| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        x * 3
                    })
                    .unwrap();
                let expected: Vec<usize> = items.iter().map(|&x| x * 3).collect();
                assert_eq!(got, expected, "threads={threads} grain={grain}");
                for (i, h) in hits.iter().enumerate() {
                    let runs = h.load(Ordering::Relaxed);
                    assert_eq!(runs, 1, "index {i}, threads={threads} grain={grain}");
                }
            }
        }
    }

    #[test]
    fn par_map_is_repeatable() {
        let items: Vec<u64> = (0..300).collect();
        let pool = Pool::new(4);
        let first = pool.par_map(&items, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        for _ in 0..5 {
            let again = pool.par_map(&items, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
            assert_eq!(first, again);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool.par_map(&empty, |_, &x| x).unwrap(), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |_, &x| x + 1).unwrap(), vec![8]);
    }

    /// The caller runs worker 0's share itself, so a panic there is the
    /// case to pin: it must come back as a value carrying the panicking
    /// index, not unwind through the pool.
    #[test]
    fn par_map_propagates_panic_with_index() {
        let items: Vec<u32> = (0..50).collect();
        for threads in [1, 2, 4] {
            // One index near the front of the range and one near its end,
            // at every thread count.
            for bad in [3u32, 47] {
                let err = Pool::new(threads)
                    .par_map_grain(&items, 1, |_, &x| {
                        assert!(x != bad, "boom at {x}");
                        x
                    })
                    .unwrap_err();
                match err {
                    ParError::TaskPanicked { index, message } => {
                        assert_eq!(index, bad as usize, "threads={threads}");
                        assert!(message.contains(&format!("boom at {bad}")), "message={message}");
                    }
                    other => panic!("unexpected error: {other:?}"),
                }
            }
        }
    }

    /// Two panicking tasks, one on each thread. The lower index is
    /// reported whichever thread panicked first, and the call returns
    /// only after the other thread's in-flight task has finished: index 5
    /// panics while index 40 is still running, so without the join
    /// `finished` would read false.
    #[test]
    fn caller_panic_reports_lowest_index_and_joins_workers() {
        let items: Vec<u32> = (0..64).collect();
        let gate = std::sync::Barrier::new(2);
        let finished = AtomicBool::new(false);
        // Grain 32 makes two chunks, [0, 32) with index 5 and [32, 64)
        // with index 40. Each waits on the barrier before it can finish,
        // so no thread can run both: one chunk lands on each thread, both
        // tasks are in flight at once, and neither is skipped by the
        // other's abort.
        let err = Pool::new(2)
            .par_map_grain(&items, 32, |_, &x| {
                if x == 5 {
                    gate.wait();
                    panic!("boom at {x}");
                }
                if x == 40 {
                    gate.wait();
                    let spun = (0..2_000_000u64).fold(0u64, |a, b| std::hint::black_box(a ^ b));
                    finished.store(true, Ordering::Release);
                    panic!("boom at {x} after {spun}");
                }
                x
            })
            .unwrap_err();
        assert!(finished.load(Ordering::Acquire), "returned before the worker was joined");
        assert!(matches!(err, ParError::TaskPanicked { index: 5, .. }), "{err:?}");
    }

    #[test]
    fn par_for_chunks_writes_disjoint_chunks() {
        let mut data = vec![0u64; 1000];
        let pool = Pool::new(4);
        pool.par_for_chunks(&mut data, 64, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 64 + j) as u64;
            }
        })
        .unwrap();
        let expected: Vec<u64> = (0..1000).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn sequential_pool_is_inline() {
        let pool = Pool::sequential();
        assert_eq!(pool.threads(), 1);
        let got = pool.par_map(&[1u8, 2, 3], |i, &x| (i as u8) + x).unwrap();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn worker_spans_parent_onto_caller_and_survive_panics() {
        tasq_obs::set_subscriber(None, true);
        let _ = tasq_obs::span::take_collected();
        let root = tasq_obs::span(Level::Info, "par_root", &[]);
        let root_id = root.id();
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let doubled = pool.par_map_grain(&items, 1, |i, &x| i + x).unwrap();
        assert_eq!(doubled.len(), 64);
        // Collection is process-global, so pools of tests running beside
        // this one record `par_task` spans too (under no parent). This
        // map's tasks are therefore checked by coverage: the spans
        // parented onto `root` account for every one of its 64 items.
        let tasks = tasq_obs::span::take_collected();
        let bound = |task: &tasq_obs::span::SpanEvent, key: &str| {
            task.fields.iter().find_map(|(name, value)| match value {
                FieldValue::U64(v) if *name == key => Some(*v),
                _ => None,
            })
        };
        let covered: u64 = tasks
            .iter()
            .filter(|t| t.name == "par_task" && t.parent == root_id)
            .map(|t| bound(t, "hi").unwrap() - bound(t, "lo").unwrap())
            .sum();
        assert_eq!(covered, 64, "workers parent onto the caller");
        // A captured task panic must not corrupt the caller's span stack.
        let err = pool
            .par_map_grain(&items, 1, |i, &x| {
                assert!(i != 10, "instrumented boom");
                x
            })
            .unwrap_err();
        assert!(matches!(err, ParError::TaskPanicked { index: 10, .. }));
        assert_eq!(tasq_obs::current_span_id(), root_id);
        // A join's two sides, the helper's included, parent onto the
        // caller's span too, and what a side opens nests under its side.
        pool.join(
            || drop(tasq_obs::span(Level::Info, "join_inner_a", &[])),
            || drop(tasq_obs::span(Level::Info, "join_inner_b", &[])),
        )
        .unwrap();
        drop(root);
        let events = tasq_obs::span::take_collected();
        tasq_obs::subscriber_off();
        let sides: Vec<_> =
            events.iter().filter(|e| e.name == "par_join" && e.parent == root_id).collect();
        assert_eq!(sides.len(), 2, "one span per side under the caller's");
        for inner in ["join_inner_a", "join_inner_b"] {
            let event = events.iter().find(|e| e.name == inner).unwrap();
            assert!(sides.iter().any(|s| s.id == event.parent), "{inner} nests under its side");
        }
        let root_event = events.iter().find(|e| e.name == "par_root").unwrap();
        let tasks: Vec<_> =
            events.iter().filter(|e| e.name == "par_task" && e.parent == root_id).collect();
        assert!(!tasks.is_empty(), "the panicking map's tasks are collected too");
        assert!(tasks.iter().all(|t| t.start_us >= root_event.start_us));
        assert!(tasks_counter().get() >= 64);
    }

    /// Every role runs every round exactly once and in order, and a
    /// round returns only once every role has run it: at 1, 2, 3 and 8
    /// threads (8 roles on a 2-core box must finish too).
    #[test]
    fn crew_runs_every_round_once_on_every_role() {
        const ROUNDS: usize = 300;
        for threads in [1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> =
                (0..threads * ROUNDS).map(|_| AtomicUsize::new(0)).collect();
            let next: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            let rounds_before = rounds_counter().get();
            let value = Pool::new(threads)
                .crew(
                    |role, round| {
                        assert_eq!(next[role].swap(round + 1, Ordering::Relaxed), round);
                        runs[round * threads + role].fetch_add(1, Ordering::Relaxed);
                    },
                    |crew| {
                        for round in 0..ROUNDS {
                            crew.round();
                            let done = &runs[round * threads..][..threads];
                            let all = done.iter().all(|r| r.load(Ordering::Relaxed) == 1);
                            assert!(all, "round {round}");
                        }
                        "done"
                    },
                )
                .unwrap();
            assert_eq!(value, "done");
            for (i, r) in runs.iter().enumerate() {
                let (round, role) = (i / threads, i % threads);
                let runs = r.load(Ordering::Relaxed);
                assert_eq!(runs, 1, "threads={threads} round {round} role {role}");
            }
            assert!(rounds_counter().get() >= rounds_before + ROUNDS as u64);
        }
    }

    /// A panic in a helper's work at round `K`, in the caller's (also
    /// before the helpers have woken for the round), in two roles' at
    /// once, or in the body between rounds, ends the crew: the
    /// body runs no further round, the lowest panicking role comes back
    /// as the error, and every other role's round-`K` work has finished
    /// before `crew` returns (the roles meet at a barrier first, so each
    /// is in flight when the panic hits), so every helper was joined.
    #[test]
    fn crew_panics_return_the_lowest_role_with_every_helper_joined() {
        const K: usize = 7;
        for threads in [1, 2, 3, 8] {
            let mut cases = vec![vec![0], vec![threads - 1]];
            if threads > 2 {
                cases.push(vec![1, threads - 1]);
            }
            for bad in cases {
                let gate = std::sync::Barrier::new(threads);
                let finished: Vec<AtomicBool> =
                    (0..threads).map(|_| AtomicBool::new(false)).collect();
                let (rounds_done, late) = (AtomicUsize::new(0), AtomicBool::new(false));
                let err = Pool::new(threads)
                    .crew(
                        |role, round| {
                            late.fetch_or(round > K, Ordering::Relaxed);
                            if round != K {
                                return;
                            }
                            gate.wait();
                            assert!(!bad.contains(&role), "boom on role {role}");
                            let spun =
                                (0..2_000_000u64).fold(0, |a, b| std::hint::black_box(a ^ b));
                            finished[role].store(spun != 1, Ordering::Release);
                        },
                        |crew| {
                            for _ in 0..3 * K {
                                crew.round();
                                rounds_done.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    )
                    .unwrap_err();
                let lowest = bad[0];
                match err {
                    ParError::TaskPanicked { index, message } => {
                        assert_eq!(index, lowest, "threads={threads} bad={bad:?}");
                        assert!(message.contains(&format!("boom on role {lowest}")), "{message}");
                    }
                    other => panic!("unexpected error: {other:?}"),
                }
                assert_eq!(rounds_done.load(Ordering::Relaxed), K, "the body stopped at round {K}");
                assert!(!late.load(Ordering::Relaxed), "no round after {K} ran");
                for (role, done) in finished.iter().enumerate() {
                    let done = done.load(Ordering::Acquire);
                    let what = format!("threads={threads} bad={bad:?} role {role}");
                    assert_eq!(done, !bad.contains(&role), "{what}");
                }
            }
        }
        // The caller's work panics at once in a round whose helpers are
        // parked (the gap before it outlasts the spin bound), so they wake
        // to a crew that has already stopped: each must still count
        // itself done, or the caller waits for ever.
        for threads in [2, 3, 8] {
            let err = Pool::new(threads)
                .crew(
                    |role, round| assert!(role != 0 || round != 1, "boom at once"),
                    |crew| {
                        crew.round();
                        std::thread::sleep(CREW_SPIN * 4);
                        crew.round();
                        crew.round();
                    },
                )
                .unwrap_err();
            assert!(matches!(err, ParError::TaskPanicked { index: 0, .. }), "{err:?}");
        }
        // A panic in the body itself, between rounds, is the caller's:
        // role 0.
        for threads in [1, 2, 8] {
            let err = Pool::new(threads)
                .crew(
                    |_, _| {},
                    |crew| {
                        crew.round();
                        panic!("body failed");
                    },
                )
                .unwrap_err();
            let ParError::TaskPanicked { index, message } = &err else {
                panic!("unexpected error: {err:?}");
            };
            assert_eq!((*index, message.as_str()), (0, "body failed"));
        }
    }

    /// An idle gap far longer than [`CREW_SPIN`] parks the waiting
    /// helpers, and the next round wakes them.
    #[test]
    fn crew_parks_through_a_long_gap_and_resumes() {
        for threads in [2, 3, 8] {
            let parks_before = parks_counter().get();
            let runs = AtomicUsize::new(0);
            Pool::new(threads)
                .crew(
                    |_, _| {
                        runs.fetch_add(1, Ordering::Relaxed);
                    },
                    |crew| {
                        crew.round();
                        std::thread::sleep(CREW_SPIN * 20);
                        crew.round();
                    },
                )
                .unwrap();
            assert_eq!(runs.load(Ordering::Relaxed), 2 * threads, "threads={threads}");
            assert!(parks_counter().get() > parks_before, "threads={threads}: nobody parked");
        }
    }

    /// `join` returns both values in argument order at every thread
    /// count; with a second thread `b` runs on another thread, and on a
    /// sequential pool it runs on the caller, after `a`.
    #[test]
    fn join_returns_both_values_and_runs_inline_in_order_on_one_thread() {
        let caller = thread::current().id();
        for threads in [1, 2, 3] {
            let order = Mutex::new(Rank::ParChunk, Vec::new());
            let (a, b) = Pool::new(threads)
                .join(
                    || {
                        order.lock().push("a");
                        (thread::current().id(), 6 * 7)
                    },
                    || {
                        order.lock().push("b");
                        (thread::current().id(), "b")
                    },
                )
                .unwrap();
            assert_eq!((a.0, a.1, b.1), (caller, 42, "b"), "threads={threads}");
            assert_eq!(b.0 == caller, threads == 1, "threads={threads}");
            if threads == 1 {
                assert_eq!(order.into_inner(), ["a", "b"]);
            }
        }
    }

    /// A panic on either side, or on both, comes back as a typed error
    /// naming the lower panicking side, and only once the other side has
    /// run to its end: the sides meet at a barrier before either panics,
    /// so both are in flight when the panic hits.
    #[test]
    fn join_panics_are_typed_and_wait_for_the_other_side() {
        for threads in [1, 2] {
            for bad in [[true, false], [false, true], [true, true]] {
                let gate = std::sync::Barrier::new(threads);
                let finished = [AtomicBool::new(false), AtomicBool::new(false)];
                let side = |s: usize| {
                    gate.wait();
                    assert!(!bad[s], "boom on side {s}");
                    let spun = (0..2_000_000u64).fold(0, |a, b| std::hint::black_box(a ^ b));
                    finished[s].store(spun != 1, Ordering::Release);
                };
                let err = Pool::new(threads).join(|| side(0), || side(1)).unwrap_err();
                let lowest = usize::from(!bad[0]);
                let what = format!("threads={threads} bad={bad:?}");
                match err {
                    ParError::TaskPanicked { index, message } => {
                        assert_eq!(index, lowest, "{what}");
                        assert!(message.contains(&format!("boom on side {lowest}")), "{message}");
                    }
                    other => panic!("unexpected error: {other:?}"),
                }
                for (s, done) in finished.iter().enumerate() {
                    assert_eq!(done.load(Ordering::Acquire), !bad[s], "{what} side {s}");
                }
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParError::TaskPanicked { index: 4, message: "oops".into() };
        assert!(e.to_string().contains("task 4"));
        assert!(e.to_string().contains("oops"));
    }
}
