//! Single-writer metric cells: the recording side of [`crate::Counter`]
//! and [`crate::Histogram`].
//!
//! A relaxed `fetch_add` is a locked read-modify-write: it owns the cache
//! line for the whole operation, and two threads counting into one cell
//! bounce that line between their cores. Here each recording thread owns
//! one of [`SLOTS`] slot indices, and every counter and histogram keeps
//! one cell (cache-line padded) per slot. Only the slot's owner writes
//! its cell, so an add is a relaxed load and a relaxed store with no lock
//! prefix; readers sum the cells with relaxed loads and see every count
//! exactly once.
//!
//! A thread claims the lowest free slot the first time it records and
//! gives it back when it exits (a thread-local destructor). The give-back
//! is a `Release` clear of the slot's bit and the claim an `Acquire`
//! compare-exchange that sets it, so the last stores of the previous
//! owner happen before the first load of the next one: a reused cell
//! carries on from its last value. A thread that finds every slot taken
//! records into one shared cell per metric with `fetch_add`, so counts
//! stay exact at any number of threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Slots with a cell of their own; threads beyond this many share one.
pub(crate) const SLOTS: usize = 16;

/// Bit `i` set: slot `i` is owned by a live thread.
static TAKEN: AtomicU64 = AtomicU64::new(0);
const ALL_SLOTS: u64 = (1 << SLOTS) - 1;

/// [`SLOT`] before this thread first records.
const UNCLAIMED: usize = usize::MAX;
/// [`SLOT`] of a thread that records into the shared cells.
const SHARED: usize = SLOTS;

thread_local! {
    /// This thread's slot, [`UNCLAIMED`] or [`SHARED`]. No destructor, so
    /// it stays readable while the thread's other destructors run.
    static SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// Gives a claimed slot back when the thread exits.
    static OWNER: Owner = const { Owner(Cell::new(SHARED)) };
}

struct Owner(Cell<usize>);

impl Drop for Owner {
    fn drop(&mut self) {
        let index = self.0.get();
        if index < SLOTS {
            // Whatever this thread records from here on (from another
            // thread-local destructor) goes to the shared cells.
            SLOT.set(SHARED);
            release(index);
        }
    }
}

fn release(index: usize) {
    // Release: pairs with the Acquire of the next `claim` that takes this
    // bit, handing over this thread's stores to the slot's cells.
    TAKEN.fetch_and(!(1 << index), Ordering::Release);
}

/// This thread's slot, or `None` when it records into the shared cells.
#[inline]
pub(crate) fn current() -> Option<usize> {
    match SLOT.get() {
        index if index < SLOTS => Some(index),
        UNCLAIMED => claim(),
        _ => None,
    }
}

/// Claim the lowest free slot for this thread; with none free, the
/// thread records into the shared cells for the rest of its life.
#[cold]
fn claim() -> Option<usize> {
    let mut taken = TAKEN.load(Ordering::Relaxed);
    let index = loop {
        let free = !taken & ALL_SLOTS;
        if free == 0 {
            SLOT.set(SHARED);
            return None;
        }
        let index = free.trailing_zeros() as usize;
        match TAKEN.compare_exchange_weak(
            taken,
            taken | 1 << index,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => break index,
            Err(now) => taken = now,
        }
    };
    // A thread whose destructors are already running cannot register the
    // give-back: it returns the slot at once.
    if OWNER.try_with(|owner| owner.0.set(index)).is_err() {
        release(index);
        SLOT.set(SHARED);
        return None;
    }
    SLOT.set(index);
    Some(index)
}

/// Add `n` to a cell that only the calling thread writes: no other store
/// can fall between the load and the store.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// A value alone on its cache line, so two slots' cells never share one.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Padded<T>(pub(crate) T);
