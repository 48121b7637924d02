//! Ranked locks: the workspace's one `Mutex` and one `RwLock`.
//!
//! Every lock names a [`Rank`], and [`Rank`]'s declaration order is the
//! global lock order. In debug builds (every `cargo test`) each thread
//! keeps the ranks it holds, with the `file:line` that took them, and
//! checks two rules where each lock is taken (the Linux kernel's lockdep
//! idea):
//!
//! * a thread may take a lock only if its rank is above every rank it
//!   holds, so two threads can never wait on each other's locks (ABBA)
//!   and a lock is never taken twice by one thread;
//! * [`blocking`], called by the workspace's blocking I/O sites (the
//!   socket syscalls, snapshot commits' fsyncs, the parallel runtime's
//!   joins, sleeps), may run only while every held rank is one whose
//!   job is to serialise a file ([`Rank::io`]).
//!
//! A violation panics naming both sites. In release builds the checks
//! compile out: a wrapper is `#[repr(transparent)]` over its `std` lock
//! and every method is an `#[inline]` call into it.
//!
//! A poisoned lock is recovered, here and only here: every update under
//! a lock in this workspace leaves its data valid at every step, so a
//! panic elsewhere never makes the data unusable.
//!
//! `clippy.toml` bans `std::sync::{Mutex, RwLock}` outside this module,
//! so no lock escapes a rank.
#![expect(clippy::disallowed_types, reason = "the module that wraps std's locks in ranks")]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// The global lock order, outermost first: a lock may be taken only
/// while every lock the thread holds is declared above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// Serialises the span tests of `tasq-obs` (test builds only).
    ObsTest,
    /// `ModelRegistry::swap`: serialises every hot swap across "read
    /// generation → commit the manifest". Held across the fsync.
    RegistrySwap,
    /// `ModelRegistry::active`: the serving deployment.
    RegistryActive,
    /// `JobRepository::jobs`.
    JobRepository,
    /// `ModelStore::artifacts`.
    ModelStore,
    /// A GNN fit's model and weight transposes: read by every crew role
    /// during a round, written by the caller's optimizer step between.
    CrewWeights,
    /// One crew role's buffers for a GNN fit.
    CrewRole,
    /// A GNN minibatch's running loss and gradient sums.
    CrewSums,
    /// A GNN minibatch's graphs and unclaimed positions.
    CrewClaims,
    /// One back-claimed graph's gradients in a GNN minibatch.
    CrewSlot,
    /// A take-once chunk of `Pool::par_for_chunks`.
    ParChunk,
    /// The first panic of one parallel call.
    ParPanic,
    /// One shard of the serving cache.
    CacheShard,
    /// The scoring server's circuit breaker.
    Breaker,
    /// The slowest-request slots of `/debug/slowest`.
    SlowestSlots,
    /// The simulator traces the CLI exports at the end of a run.
    SimTraces,
    /// The SLO engine's rings.
    SloRings,
    /// A metric registry's entries.
    MetricRegistry,
    /// A histogram's exemplar slots.
    MetricExemplars,
    /// The global span collector (a span can end under any lock).
    SpanCollector,
}

impl Rank {
    /// Whether a lock of this rank may be held across [`blocking`]: only
    /// the lock whose job is to serialise a file.
    pub const fn io(self) -> bool {
        matches!(self, Rank::RegistrySwap)
    }
}

/// Mark a call that can block the thread (a syscall, an fsync, a join, a
/// sleep). Debug builds panic if the calling thread holds a lock whose
/// rank is not [`Rank::io`]; release builds compile it out.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn blocking() {
    #[cfg(debug_assertions)]
    held::blocking(std::panic::Location::caller());
}

#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::RefCell;
    use std::panic::Location;

    type Site = &'static Location<'static>;

    thread_local! {
        /// Ranks the thread holds, strictly increasing (the order rule).
        static HELD: RefCell<Vec<(Rank, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// Panic unless `rank` is above every rank the thread holds. Runs
    /// before the lock is taken, so a would-be deadlock panics instead.
    #[expect(clippy::panic, reason = "a lock-order violation is a bug at both sites")]
    pub(super) fn check(rank: Rank, at: Site) {
        let top = HELD.try_with(|held| held.borrow().last().copied()).ok().flatten();
        if let Some((top, site)) = top.filter(|(top, _)| *top >= rank) {
            panic!("lock order: {rank:?} taken at {at} while holding {top:?} taken at {site}");
        }
    }

    #[expect(clippy::panic, reason = "blocking under a lock is a bug at both sites")]
    pub(super) fn blocking(at: Site) {
        let held = HELD.try_with(|held| held.borrow().iter().find(|(rank, _)| !rank.io()).copied());
        if let Ok(Some((rank, site))) = held {
            panic!("blocking call at {at} while holding {rank:?} taken at {site}");
        }
    }

    /// One held rank, popped when the guard that carries it drops (in any
    /// order: ranks are unique on the stack).
    pub(super) struct Held(Rank);

    impl Held {
        pub(super) fn push(rank: Rank, at: Site) -> Self {
            let _ = HELD.try_with(|held| held.borrow_mut().push((rank, at)));
            Held(rank)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let _ = HELD.try_with(|held| held.borrow_mut().retain(|(rank, _)| *rank != self.0));
        }
    }

    #[cfg(test)]
    pub(super) fn ranks() -> Vec<Rank> {
        HELD.with(|held| held.borrow().iter().map(|(rank, _)| *rank).collect())
    }
}

/// Take the rank `$rank` with `$take` (a `std` lock call), recovering a
/// poisoned guard. A macro, not a function: release builds have no rank
/// to pass.
macro_rules! take {
    ($rank:expr, $take:expr) => {{
        #[cfg(debug_assertions)]
        let at = std::panic::Location::caller();
        #[cfg(debug_assertions)]
        held::check($rank, at);
        Guard {
            inner: $take.unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held::Held::push($rank, at),
        }
    }};
}

/// A ranked [`std::sync::Mutex`].
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct Mutex<T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex of rank `rank` holding `value`.
    #[inline]
    pub const fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Block until the lock is free, then take it.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        take!(self.rank, self.inner.lock())
    }

    /// The value, once no one can lock it any more.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A ranked [`std::sync::RwLock`].
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct RwLock<T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A reader-writer lock of rank `rank` holding `value`.
    #[inline]
    pub const fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Take shared access. A thread may not re-enter a read lock it holds:
    /// a writer queued in between would deadlock it.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        take!(self.rank, self.inner.read())
    }

    /// Take exclusive access.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        take!(self.rank, self.inner.write())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A taken lock: `G` is the `std` guard. It releases the lock when it
/// drops.
#[must_use = "the lock is released as soon as the guard drops"]
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct Guard<G> {
    inner: G,
    #[cfg(debug_assertions)]
    _held: held::Held,
}

/// Exclusive access through a [`Mutex`].
pub type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;
/// Shared access through an [`RwLock`].
pub type RwLockReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;
/// Exclusive access through an [`RwLock`].
pub type RwLockWriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    #[inline]
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_abba_pair_panics_naming_both_sites() {
        let a = Mutex::new(Rank::JobRepository, ());
        let b = Mutex::new(Rank::ModelStore, ());
        {
            let _a = a.lock();
            let _b = b.lock();
        }
        let message = panic_of(|| {
            let _b = b.lock();
            let _a = a.lock();
        });
        let (b_line, a_line) = (line!() - 3, line!() - 2);
        assert!(message.contains(&format!("{}:{b_line}", file!())), "{message}");
        assert!(message.contains(&format!("{}:{a_line}", file!())), "{message}");
        assert!(message.contains("JobRepository") && message.contains("ModelStore"));
        assert!(held::ranks().is_empty(), "the unwind dropped the held guard");
    }

    #[test]
    fn a_guard_held_across_blocking_panics() {
        let cache = Mutex::new(Rank::CacheShard, 0u32);
        let message = panic_of(|| {
            let _shard = cache.lock();
            blocking();
        });
        assert!(message.contains("blocking call at") && message.contains("CacheShard"));
        blocking();
    }

    #[test]
    fn an_io_ranked_lock_may_be_held_across_blocking() {
        let swap = Mutex::new(Rank::RegistrySwap, ());
        let _swap = swap.lock();
        blocking();
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_stack_correct() {
        let (a, b, c) = (
            RwLock::new(Rank::RegistryActive, ()),
            Mutex::new(Rank::CrewSums, ()),
            Mutex::new(Rank::CrewSlot, ()),
        );
        let ga = a.write();
        let gb = b.lock();
        drop(ga);
        assert_eq!(held::ranks(), [Rank::CrewSums]);
        let gc = c.lock();
        drop(gb);
        assert_eq!(held::ranks(), [Rank::CrewSlot]);
        drop(gc);
        assert!(held::ranks().is_empty());
        let _a = a.read();
        let _b = b.lock();
    }

    #[test]
    fn re_entering_a_read_of_the_same_rank_panics() {
        let jobs = RwLock::new(Rank::JobRepository, vec![1]);
        let _first = jobs.read();
        let message = panic_of(|| drop(jobs.read()));
        assert!(message.contains("JobRepository taken at") && message.contains("while holding"));
    }
}
