//! A per-thread counting `#[global_allocator]` for the allocation-budget
//! tests (`tests/pump.rs`, `tests/admission_allocs.rs`), which include this
//! file with `#[path]`.  The product crates `forbid(unsafe_code)`, so the
//! instrumentation lives here, outside the code under test.  The counter is
//! per thread — the harness runs the tests of one binary on parallel threads —
//! and the count is deterministic for a deterministic run, so it is asserted
//! as a bound, not statistically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`] wrapper that counts the requests for memory (allocations and
/// growing reallocations) of the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

/// Requests for memory made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: pure delegation to `System`; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Giving memory back asks for none: only a growing `realloc` counts.
        if new_size > layout.size() {
            count();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
