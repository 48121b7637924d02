//! Bounded per-shard pool of reusable IO buffers.
//!
//! Every connection needs a read buffer for its lifetime and a response
//! buffer per reply; allocating those fresh puts the allocator on the
//! per-request path. Each shard instead owns one [`BufPool`]: buffers are
//! checked out on accept (and per response render), and returned when the
//! connection closes or the response is fully flushed.
//!
//! The pool is deliberately *bounded* in two ways so a burst of idle
//! connections cannot pin memory forever:
//!
//! - at most [`BufPool::max_pooled`] free buffers are retained; extras
//!   returned beyond that are simply dropped, and
//! - a buffer that grew past [`MAX_RETAINED_CAPACITY`] (e.g. one that
//!   carried a near-limit 1 MiB frame) is dropped rather than retained,
//!   so the slab's worst case stays `max_pooled * MAX_RETAINED_CAPACITY`.
//!
//! Buffers are plain owned `Vec<u8>`s, so ownership rules out a double
//! restore or a use after restore; a buffer that misses its `restore` is
//! freed by its own drop, which costs one reuse, not a leak.

/// Capacity of a freshly minted buffer: one `Conn::fill` read chunk.
pub const DEFAULT_BUF_CAPACITY: usize = 16 * 1024;

/// Buffers that grew beyond this are dropped on restore instead of
/// being retained, bounding per-buffer memory held by an idle pool.
pub const MAX_RETAINED_CAPACITY: usize = 256 * 1024;

/// A bounded free-list of reusable `Vec<u8>` IO buffers.
///
/// Single-threaded by design: each shard event loop owns its own pool,
/// so checkout/restore are plain `&mut` calls with no atomics.
pub struct BufPool {
    free: Vec<Vec<u8>>,
    max_pooled: usize,
    minted: u64,
    reused: u64,
}

impl BufPool {
    /// Pool retaining at most `max_pooled` free buffers.
    pub fn new(max_pooled: usize) -> Self {
        BufPool { free: Vec::new(), max_pooled, minted: 0, reused: 0 }
    }

    /// Check out an empty buffer, reusing a pooled one when available.
    pub fn checkout(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.reused += 1;
                buf
            }
            None => {
                self.minted += 1;
                Vec::with_capacity(DEFAULT_BUF_CAPACITY)
            }
        }
    }

    /// Return a buffer to the pool.
    ///
    /// The buffer is cleared (length, not capacity); it is dropped
    /// instead of retained when the pool is full or the buffer grew past
    /// [`MAX_RETAINED_CAPACITY`].
    pub fn restore(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= self.max_pooled || buf.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Free buffers currently retained.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Buffers allocated fresh because the free list was empty.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Checkouts served from the free list.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_then_checkout_reuses_the_allocation() {
        let mut pool = BufPool::new(4);
        let mut buf = pool.checkout();
        buf.extend_from_slice(b"payload");
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        pool.restore(buf);
        assert_eq!(pool.pooled(), 1);

        let again = pool.checkout();
        assert!(again.is_empty(), "restored buffers come back cleared");
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.capacity(), cap);
        assert_eq!(pool.reused(), 1);
        assert_eq!(pool.minted(), 1);
    }

    #[test]
    fn pool_bound_caps_retained_buffers() {
        let mut pool = BufPool::new(2);
        let bufs: Vec<Vec<u8>> = (0..5).map(|_| pool.checkout()).collect();
        for buf in bufs {
            pool.restore(buf);
        }
        assert_eq!(pool.pooled(), 2, "excess restores are dropped, not retained");
    }

    #[test]
    fn oversized_buffers_are_dropped_on_restore() {
        let mut pool = BufPool::new(4);
        let mut big = pool.checkout();
        big.reserve(MAX_RETAINED_CAPACITY + 1);
        pool.restore(big);
        assert_eq!(pool.pooled(), 0, "a buffer grown past the cap is not retained");

        let normal = pool.checkout();
        pool.restore(normal);
        assert_eq!(pool.pooled(), 1);
    }
}
