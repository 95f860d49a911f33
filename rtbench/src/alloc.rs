//! A counting allocator: how many heap allocations the process has made and
//! how many bytes are live.
//!
//! The product crates `forbid(unsafe_code)`, so the instrumentation lives
//! here, outside the code under test.  Both counts are exact for a
//! deterministic run (same inputs, same `Vec` growth, same numbers), which
//! is what lets a per-layer allocation count compare two commits exactly.
//! The cost is two relaxed atomic adds per allocation, on every run, traced
//! or not, so both sides of a comparison pay it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

// Relaxed: the counters publish no other data and the load is one thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Wraps below zero and back as frees and allocations interleave across
/// threads; read as a difference, it is exact.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the arguments it was
// given, so `System`'s guarantees carry over unchanged; the counters are
// atomics that allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed.  Meaningful as a difference between
/// two reads.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_live_bytes() {
        // Other tests allocate on their own threads meanwhile; the block is
        // far larger than anything they hold, so the bounds are safe.
        const BLOCK: usize = 64 << 20;
        let (allocs, live) = (allocations(), live_bytes());
        let block = vec![0u8; BLOCK];
        assert!(allocations() > allocs);
        assert!(live_bytes().wrapping_sub(live) as i64 > (BLOCK / 2) as i64);
        drop(block);
        assert!((live_bytes().wrapping_sub(live) as i64) < (BLOCK / 2) as i64);
    }
}
