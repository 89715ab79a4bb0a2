//! Counting global allocator.
//!
//! A test or binary installs [`CountingAllocator`] as
//! `#[global_allocator]` and reads [`allocations`] / [`bytes_allocated`]
//! deltas around the region of interest; without that installation the
//! counters stay at zero and cost nothing. The one user is
//! `crates/bench/tests/decision_allocs.rs`, which pins the simulator's
//! decision path at zero allocations over live demand cycles for every
//! policy arm.
//!
//! Counts are process-global atomics; the deltas include every
//! thread's allocations, so take them around single-threaded regions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations and bytes.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations (including reallocs) since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
