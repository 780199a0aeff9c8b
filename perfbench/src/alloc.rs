//! A counting global allocator, installed only by the traced binary.
//!
//! The untraced binary keeps the system allocator untouched, so its
//! end-to-end numbers carry no counting cost; there [`allocations`]
//! stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made
/// by the whole process so far, when [`CountingAlloc`] is the global
/// allocator.
#[must_use]
pub fn allocations() -> u64 {
    // Relaxed: a statistic that publishes no other data.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus a process-wide allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, checked
        // by the caller against the `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
