//! A counting global allocator.
//!
//! Allocations per simulated event is one of the deterministic proxies the
//! ROADMAP gates on: it repeats exactly where wall time does not. The
//! counter ticks only while [`count`] is running, so the untraced runs
//! that produce the end-to-end numbers pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed by `lib.rs`: the system allocator plus a count.
pub struct Counting;

// Statistics only: neither value publishes other data, so `Relaxed` is
// enough (the second thread of `sharded_dim12` allocates too).
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on when `enabled`; returns its result and the
/// number of allocations (0 when disabled). Not re-entrant.
pub fn count<R>(enabled: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if !enabled {
        return (f(), 0);
    }
    let before = COUNT.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (r, COUNT.load(Ordering::Relaxed) - before)
}
