//! # tasq-par — deterministic work-stealing runtime for the offline pipeline
//!
//! TASQ's offline loop (flighting every sampled job at several token
//! counts, featurizing plans, fitting k-means/GBDT/NN models) is
//! embarrassingly parallel, but this build environment has no access to
//! crates.io, so rayon is unavailable. This crate implements the needed
//! slice of a data-parallel runtime from scratch on top of `std::thread`:
//!
//! * [`Pool`] — a thread-count handle whose [`Pool::par_map`] /
//!   [`Pool::par_for_chunks`] fan work out over Chase-Lev-style bounded
//!   per-worker deques ([`deque`]): each worker owns a deque of index
//!   ranges, pops from the bottom, and steals from the top of its peers.
//! * [`Pool::scope`] — a crossbeam-style scoped spawn API backed by a
//!   shared injector queue, for heterogeneous task sets.
//! * Panic capture — worker panics never cross the pool boundary; they
//!   are converted into a typed [`ParError`] carrying the lowest task
//!   index observed panicking and the panic message.
//!
//! ## Determinism contract
//!
//! Scheduling order is nondeterministic (thieves race), but **results are
//! not**: every input index owns exactly one output slot, tasks may only
//! read shared inputs and write their own slot, and any randomness must be
//! pre-split per task from a base seed (see `tasq_ml::rand_ext::split_seed`)
//! rather than drawn from a shared stream. Under that contract a
//! `par_map` at any thread count is bit-identical to the sequential map,
//! which is what the workspace's same-seed reproducibility tests assert.

#![warn(missing_docs)]

pub mod deque;

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use deque::{Deque, Steal};
use parking_lot::Mutex;
use tasq_obs::{span_with_parent, Counter, FieldValue, Level, Registry};

/// Registry-backed runtime counters. Handles are registered once and
/// incremented with relaxed atomics — steal-loop instrumentation stays
/// off every lock. The counts are scheduling telemetry only; results are
/// bit-identical whatever they read.
struct ParMetrics {
    tasks: Counter,
    steals: Counter,
    steal_retries: Counter,
    overflow: Counter,
}

fn metrics() -> &'static ParMetrics {
    static METRICS: std::sync::OnceLock<ParMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ParMetrics {
            tasks: registry
                .counter("par_tasks_total", "Items executed by the work-stealing runtime"),
            steals: registry
                .counter("par_steals_total", "Ranges successfully stolen from a peer deque"),
            steal_retries: registry
                .counter("par_steal_retries_total", "Contended steal attempts that retried"),
            overflow: registry.counter(
                "par_overflow_total",
                "Deque-full pushes: the range ran inline instead of becoming stealable",
            ),
        }
    })
}

/// Error produced when parallel work fails.
///
/// The runtime never lets a worker panic escape: the first panicking task
/// (lowest input index among observed panics, for stable reporting) is
/// captured and surfaced as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A task panicked. `index` is the input index (for `par_map` /
    /// `par_for_chunks`) or the spawn sequence number (for `scope`).
    TaskPanicked {
        /// Input index / spawn sequence of the panicking task.
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
#[derive(Default)]
struct PanicSlot {
    slot: Mutex<Option<(usize, String)>>,
}

impl PanicSlot {
    fn record(&self, index: usize, payload: Box<dyn Any + Send>) {
        let message = panic_message(payload.as_ref());
        let mut slot = self.slot.lock();
        match &*slot {
            Some((prev, _)) if *prev <= index => {}
            _ => *slot = Some((index, message)),
        }
    }

    fn take(&self) -> Option<(usize, String)> {
        self.slot.lock().take()
    }
}

/// A work-stealing pool configured for a fixed number of threads.
///
/// The handle itself is cheap: a call that fans out spawns `threads - 1`
/// scoped workers, runs worker 0 on the calling thread, and joins before
/// it returns, so borrowed inputs need no `'static` bound and no thread
/// outlives the call. That spawn + join is the whole per-call dispatch
/// cost (measured at ≈ 55 µs per call with two threads on the 2-vCPU
/// reference box, see DESIGN.md "Parallel offline runtime"); callers with
/// less than a few hundred microseconds of work should stay sequential.
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

/// Encoded `[lo, hi)` index ranges flow through the deques as `u64`s.
fn encode_range(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << 32) | (hi as u64)
}

fn decode_range(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

/// Shared state for one `par_map` call.
struct MapShared {
    deques: Vec<Deque>,
    /// Items not yet completed; workers exit when this hits zero.
    remaining: AtomicUsize,
    /// Set on the first panic; workers drain out promptly.
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

    /// [`Pool::par_map`] with an explicit splitting grain: ranges longer
    /// than `grain` are halved and the upper half made stealable.
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
        // Ranges are packed into u64 halves; gigantic inputs (never hit by
        // this workspace) take the inline path instead of overflowing.
        if self.threads == 1 || n <= grain || n > u32::MAX as usize {
            let _task_span = span_with_parent(
                Level::Trace,
                "par_task",
                tasq_obs::current_span_id(),
                &[
                    ("lo", FieldValue::U64(0)),
                    ("hi", FieldValue::U64(n as u64)),
                    ("inline", FieldValue::Bool(true)),
                ],
            );
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        return Err(ParError::TaskPanicked {
                            index: i,
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            metrics().tasks.add(n as u64);
            return Ok(out);
        }

        let workers = self.threads.min(n);
        let deques: Vec<Deque> = (0..workers)
            .map(|w| {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                let d = Deque::new();
                if lo < hi {
                    d.seed_initial(encode_range(lo, hi));
                }
                d
            })
            .collect();
        let shared = MapShared {
            deques,
            remaining: AtomicUsize::new(n),
            abort: AtomicBool::new(false),
            panic: PanicSlot::default(),
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

    /// Run `f` over consecutive `chunk_len`-sized mutable chunks of `data`
    /// in parallel. `f` receives `(chunk_index, chunk)`; chunks are
    /// disjoint, so no synchronization is needed inside `f`. The GNN
    /// trainer fans a minibatch out this way, one gradient slot per chunk.
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
        let chunk_len = chunk_len.max(1);
        if self.threads == 1 || data.len() <= chunk_len {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, chunk))) {
                    return Err(ParError::TaskPanicked {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
            return Ok(());
        }
        // Hand each chunk to exactly one task through a take-once slot;
        // the deques deliver every index exactly once, so the lock is
        // uncontended and exists only to move `&mut` across threads safely.
        let slots: Vec<Mutex<Option<&mut [T]>>> =
            data.chunks_mut(chunk_len).map(|c| Mutex::new(Some(c))).collect();
        self.par_map_grain(&slots, 1, |i, slot| {
            if let Some(chunk) = slot.lock().take() {
                f(i, chunk);
            }
        })
        .map(|_| ())
    }

    /// Crossbeam-style scope: `body` may spawn heterogeneous tasks that
    /// borrow from the caller's stack; all tasks complete (or are
    /// abandoned after a panic) before `scope` returns. A task panic is
    /// returned as [`ParError::TaskPanicked`] with the spawn sequence
    /// number of the first (lowest-sequence) panicking task.
    pub fn scope<'env, F, R>(&self, body: F) -> Result<R, ParError>
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let shared = ScopeShared {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            panic: PanicSlot::default(),
            next_seq: AtomicUsize::new(0),
            parent_span: tasq_obs::current_span_id(),
        };
        let result = std::thread::scope(|s| {
            for _ in 1..self.threads {
                let shared = &shared;
                s.spawn(move || scope_worker(shared));
            }
            let r = body(&Scope { shared: &shared });
            shared.done.store(true, Ordering::Release);
            // The caller drains alongside the helpers (and is the only
            // executor when the pool is sequential).
            scope_worker(&shared);
            r
        });
        if let Some((index, message)) = shared.panic.take() {
            return Err(ParError::TaskPanicked { index, message });
        }
        Ok(result)
    }
}

type ScopeTask<'env> = Box<dyn FnOnce() + Send + 'env>;

struct ScopeShared<'env> {
    queue: Mutex<VecDeque<(usize, ScopeTask<'env>)>>,
    pending: AtomicUsize,
    done: AtomicBool,
    abort: AtomicBool,
    panic: PanicSlot,
    next_seq: AtomicUsize,
    /// Span open on the thread that entered [`Pool::scope`]; task spans
    /// parent onto it from whichever worker runs them.
    parent_span: u64,
}

/// Spawn handle passed to the closure given to [`Pool::scope`].
pub struct Scope<'sc, 'env> {
    shared: &'sc ScopeShared<'env>,
}

impl<'sc, 'env> Scope<'sc, 'env> {
    /// Queue `f` for execution by the scope's workers. Tasks run in an
    /// unspecified order and must follow the determinism contract (own
    /// their outputs, pre-split their seeds).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.queue.lock().push_back((seq, Box::new(f)));
    }
}

fn scope_worker(shared: &ScopeShared<'_>) {
    loop {
        let task = shared.queue.lock().pop_front();
        match task {
            Some((seq, t)) => {
                if shared.abort.load(Ordering::Acquire) {
                    // A task already panicked: drop remaining tasks
                    // without running them so the scope unwinds quickly.
                    shared.pending.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                let task_span = span_with_parent(
                    Level::Trace,
                    "par_scope_task",
                    shared.parent_span,
                    &[("seq", FieldValue::U64(seq as u64))],
                );
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    shared.panic.record(seq, payload);
                    shared.abort.store(true, Ordering::Release);
                }
                drop(task_span);
                metrics().tasks.inc();
                shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
            None => {
                if shared.done.load(Ordering::Acquire)
                    && shared.pending.load(Ordering::Acquire) == 0
                {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

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
    let mut local: Vec<(usize, U)> = Vec::new();
    let workers = shared.deques.len();
    'outer: loop {
        if shared.abort.load(Ordering::Acquire) {
            break;
        }
        if let Some(range) = shared.deques[me].pop() {
            process_range(me, range, shared, items, f, grain, &mut local);
            continue;
        }
        for off in 1..workers {
            let victim = (me + off) % workers;
            let mut spins = 0;
            loop {
                match shared.deques[victim].steal() {
                    Steal::Success(range) => {
                        metrics().steals.inc();
                        process_range(me, range, shared, items, f, grain, &mut local);
                        continue 'outer;
                    }
                    Steal::Empty => break,
                    Steal::Retry => {
                        metrics().steal_retries.inc();
                        spins += 1;
                        if spins > 16 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
        if shared.remaining.load(Ordering::Acquire) == 0 {
            break;
        }
        std::thread::yield_now();
    }
    local
}

/// Execute one stolen/popped range: repeatedly publish the upper half for
/// stealing while the range is longer than `grain`, then run the kept
/// prefix inline. If the deque is full (bounded buffer), the rest of the
/// range simply runs inline — correctness never depends on a push landing.
#[allow(clippy::too_many_arguments)]
fn process_range<T, U, F>(
    me: usize,
    range: u64,
    shared: &MapShared,
    items: &[T],
    f: &F,
    grain: usize,
    local: &mut Vec<(usize, U)>,
) where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let (lo, mut hi) = decode_range(range);
    while hi - lo > grain {
        let mid = lo + (hi - lo) / 2;
        if !shared.deques[me].push(encode_range(mid, hi)) {
            metrics().overflow.inc();
            break;
        }
        hi = mid;
    }
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
                shared.remaining.fetch_sub(1, Ordering::AcqRel);
            }
            Err(payload) => {
                shared.panic.record(i, payload);
                shared.abort.store(true, Ordering::Release);
                break;
            }
        }
    }
    metrics().tasks.add(executed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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

    #[test]
    fn par_map_grain_one_forces_stealing() {
        let items: Vec<usize> = (0..64).collect();
        let pool = Pool::new(4);
        let got = pool.par_map_grain(&items, 1, |i, &x| i + x).unwrap();
        let expected: Vec<usize> = (0..64).map(|i| 2 * i).collect();
        assert_eq!(got, expected);
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
            // One index in worker 0's initial range, one in the last
            // worker's, at every thread count.
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

    /// Two panicking tasks, one in the caller's share and one in the
    /// spawned worker's. The lower index is reported whichever thread
    /// panicked first, and the call returns only after the spawned
    /// worker's in-flight task has finished: the caller panics while that
    /// task is still running, so without the join `finished` would read
    /// false.
    #[test]
    fn caller_panic_reports_lowest_index_and_joins_workers() {
        let items: Vec<u32> = (0..64).collect();
        let gate = std::sync::Barrier::new(2);
        let finished = AtomicBool::new(false);
        // Grain 32 keeps each initial range whole: 5 runs on the caller,
        // 40 on the spawned worker, and the barrier makes both in flight
        // at once so neither is skipped by the other's abort.
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
    fn scope_runs_every_spawn_and_borrows() {
        let counter = AtomicU64::new(0);
        let pool = Pool::new(4);
        pool.scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn scope_propagates_panic() {
        let pool = Pool::new(2);
        let err = pool
            .scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("scope task exploded"));
            })
            .unwrap_err();
        match err {
            ParError::TaskPanicked { message, .. } => {
                assert!(message.contains("scope task exploded"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
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
        drop(root);
        let events = tasq_obs::span::take_collected();
        tasq_obs::subscriber_off();
        let root_event = events.iter().find(|e| e.name == "par_root").unwrap();
        let tasks: Vec<_> =
            events.iter().filter(|e| e.name == "par_task" && e.parent == root_id).collect();
        assert!(!tasks.is_empty(), "the panicking map's tasks are collected too");
        assert!(tasks.iter().all(|t| t.start_us >= root_event.start_us));
        assert!(metrics().tasks.get() >= 64);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParError::TaskPanicked { index: 4, message: "oops".into() };
        assert!(e.to_string().contains("task 4"));
        assert!(e.to_string().contains("oops"));
    }
}
