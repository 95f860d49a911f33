//! A per-thread counting `#[global_allocator]` for the allocation-budget
//! tests (`tests/pump.rs`, `tests/admission_allocs.rs`), which include this
//! file with `#[path]`.  The product crates `forbid(unsafe_code)`, so the
//! instrumentation lives here, outside the code under test.  The counters
//! are per thread — the harness runs the tests of one binary on parallel
//! threads — and deterministic for a deterministic run, so they are asserted
//! as bounds, not statistically.  Besides the requests for memory it keeps
//! the thread's live bytes (allocated minus freed by the thread) and their
//! peak.

// Each including test uses its own part of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`] wrapper that counts the requests for memory (allocations and
/// growing reallocations) of the calling thread, and its live bytes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

/// The thread's live bytes moved by `delta`, its peak with them.
fn resize(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Requests for memory made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed.  Memory one thread
/// allocates and another frees counts on both, so only differences taken
/// on one thread mean anything.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The most [`live_bytes`] has been since the last
/// [`reset_peak_live_bytes`].
pub fn peak_live_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// Start a new peak at the current live bytes.
pub fn reset_peak_live_bytes() {
    PEAK.with(|peak| peak.set(live_bytes()));
}

// SAFETY: pure delegation to `System`; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Giving memory back asks for none: only a growing `realloc` counts.
        if new_size > layout.size() {
            count();
        }
        resize(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
