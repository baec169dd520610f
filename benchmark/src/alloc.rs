//! A counting global allocator for the traced binary. The untraced
//! binary does not install it, so end-to-end numbers are taken on the
//! system allocator alone and [`snapshot`] reads zero there.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pass::Pass;
use crate::stats::Summary;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two relaxed counters in front of it.
/// Install with `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested so far, process-wide. Both zero when
/// [`Counting`] is not the global allocator.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations made between [`Meter::start`] and [`Meter::report`].
pub struct Meter {
    allocations: u64,
    bytes: u64,
}

impl Meter {
    /// Starts counting from now.
    pub fn start() -> Meter {
        let (allocations, bytes) = snapshot();
        Meter { allocations, bytes }
    }

    /// Sets `process.allocs_per_call` and `process.alloc_bytes_per_call`
    /// on `pass` for the `calls` calls made since the start.
    pub fn report(&self, calls: u64, pass: &mut Pass) {
        let (allocations, bytes) = snapshot();
        let per_call = |total: u64| Summary::exact(total as f64 / calls.max(1) as f64, calls);
        pass.set(
            "process.allocs_per_call",
            per_call(allocations - self.allocations),
        );
        pass.set("process.alloc_bytes_per_call", per_call(bytes - self.bytes));
    }
}
