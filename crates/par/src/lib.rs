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
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
        drop(root);
        let events = tasq_obs::span::take_collected();
        tasq_obs::subscriber_off();
        let root_event = events.iter().find(|e| e.name == "par_root").unwrap();
        let tasks: Vec<_> =
            events.iter().filter(|e| e.name == "par_task" && e.parent == root_id).collect();
        assert!(!tasks.is_empty(), "the panicking map's tasks are collected too");
        assert!(tasks.iter().all(|t| t.start_us >= root_event.start_us));
        assert!(tasks_counter().get() >= 64);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParError::TaskPanicked { index: 4, message: "oops".into() };
        assert!(e.to_string().contains("task 4"));
        assert!(e.to_string().contains("oops"));
    }
}
