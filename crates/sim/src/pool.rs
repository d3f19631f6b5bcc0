//! Thread-local free-list pools for hot-path message buffers.
//!
//! Every link message in the simulator is a `Vec<u32>` of payload words,
//! and every collective round packs and unpacks one per dimension. At a
//! thousand nodes that is millions of short-lived allocations whose
//! malloc/free traffic dominates the hot loop. A free list amortizes them
//! to near zero: buffers are recycled after unpacking instead of dropped.
//!
//! Determinism: each simulation shard is single-threaded and event
//! execution order is fixed, so pool reuse order is itself deterministic —
//! and since allocation never consumes simulated time, pooling is invisible
//! to results and event counts (the golden-digest test in
//! `crates/sim/tests/scale.rs` pins this down).
//!
//! ## Shard affinity
//!
//! Under the parallel backend every shard thread gets its own instance of
//! each `thread_local!` pool, so recycling is shard-local by construction —
//! a buffer taken on shard 2 is recycled into shard 2's free list. What
//! must *never* happen is a single `BufPool` value being touched from two
//! threads (the `RefCell` would race): debug builds record the first
//! thread that uses a pool and assert every later `take`/`put` comes from
//! the same thread. Cross-shard payloads are moved as owned `Vec<u32>`
//! inside boundary envelopes and re-enter the pool of whichever shard
//! consumes them.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::thread::ThreadId;

/// A bounded free list of `Vec<T>` buffers.
///
/// Embed one in a `thread_local!` next to the code that owns the buffer
/// type; the word pool below is the shared instance for link payloads.
pub struct BufPool<T> {
    free: RefCell<Vec<Vec<T>>>,
    max: usize,
    /// Debug-only shard affinity: the first thread to use the pool owns it.
    #[cfg(debug_assertions)]
    owner: Cell<Option<ThreadId>>,
}

impl<T> BufPool<T> {
    /// An empty pool retaining at most `max` buffers.
    pub const fn new(max: usize) -> BufPool<T> {
        BufPool {
            free: RefCell::new(Vec::new()),
            max,
            #[cfg(debug_assertions)]
            owner: Cell::new(None),
        }
    }

    /// Debug builds: pin the pool to the first thread that touches it. A
    /// buffer taken on one shard and recycled on another would silently
    /// cross free lists; this turns that into a loud failure.
    #[inline]
    fn assert_affinity(&self) {
        #[cfg(debug_assertions)]
        {
            let me = std::thread::current().id();
            match self.owner.get() {
                None => self.owner.set(Some(me)),
                Some(owner) => assert_eq!(
                    owner, me,
                    "BufPool used from two threads: pools are shard-local"
                ),
            }
        }
    }

    /// Take an empty buffer with at least `cap` capacity.
    pub fn take(&self, cap: usize) -> Vec<T> {
        self.assert_affinity();
        match self.free.borrow_mut().pop() {
            Some(mut v) => {
                if v.capacity() < cap {
                    v.reserve(cap - v.capacity());
                }
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a buffer to the pool (cleared here; dropped if the pool is
    /// full or the buffer never allocated).
    pub fn put(&self, mut v: Vec<T>) {
        self.assert_affinity();
        if v.capacity() == 0 {
            return;
        }
        let mut free = self.free.borrow_mut();
        if free.len() < self.max {
            v.clear();
            free.push(v);
        }
    }

    /// Buffers currently pooled (tests).
    pub fn len(&self) -> usize {
        self.free.borrow().len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Most buffers one free list keeps: four per node of the paper's largest
/// machine, the 14-cube, so a lockstep round there recycles every buffer it
/// has in flight. Every hot-path pool (link words, node values, link
/// completion one-shots) is sized by it.
pub const POOL_MAX: usize = 4 << 14;

thread_local! {
    static WORDS: BufPool<u32> = const { BufPool::new(POOL_MAX) };
}

/// Take a link-payload word buffer with at least `cap` capacity.
pub fn take_words(cap: usize) -> Vec<u32> {
    WORDS.with(|p| p.take(cap))
}

/// Recycle a link-payload word buffer once its contents are consumed.
pub fn put_words(v: Vec<u32>) {
    WORDS.with(|p| p.put(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles() {
        let pool: BufPool<u8> = BufPool::new(4);
        let mut v = pool.take(16);
        assert!(v.capacity() >= 16);
        let cap = v.capacity();
        v.extend_from_slice(&[1, 2, 3]);
        pool.put(v);
        assert_eq!(pool.len(), 1);
        let v2 = pool.take(8);
        assert!(v2.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(v2.capacity(), cap, "recycled buffer keeps its capacity");
    }

    #[test]
    fn pool_is_bounded() {
        let pool: BufPool<u8> = BufPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool: BufPool<u8> = BufPool::new(2);
        pool.put(Vec::new());
        assert!(pool.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_thread_use_is_rejected() {
        // `BufPool` is `!Sync`, so sharing one across threads already fails
        // to compile in safe code. The affinity assert is the runtime
        // backstop for unsafe wrappers like this one.
        struct ForceShare(BufPool<u8>);
        unsafe impl Send for ForceShare {}
        unsafe impl Sync for ForceShare {}
        use std::sync::Arc;
        let pool = Arc::new(ForceShare(BufPool::new(4)));
        pool.0.put(Vec::with_capacity(8)); // pin to this thread
        let p2 = pool.clone();
        let res = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = p2.0.take(4);
            }))
        })
        .join()
        .unwrap();
        assert!(res.is_err(), "second-thread take must assert");
    }
}
