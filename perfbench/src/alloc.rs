//! A peak-live-bytes allocator owned by the benchmark binary.
//!
//! Every allocation goes to the system allocator; two counters track the
//! bytes currently live and the highest value that count reached since the
//! last [`reset_peak`]. A measured run calls [`reset_peak`] when it starts
//! and [`peak_since`] when it ends, so `peak_mib` covers only what the
//! measured work itself kept alive at its worst moment, not set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The global allocator of the benchmark binary.
pub struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    // The counters publish no other data: Relaxed is enough.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's valid, non-zero-size layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller passes a block this allocator (hence `System`)
        // returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, which
        // is exactly `System.realloc`'s.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            // Count the new block before releasing the old one: during a
            // moving realloc both are live.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        out
    }
}

/// Start a new peak window; returns the bytes live right now.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

/// Highest live-byte count since [`reset_peak`] returned `base`, net of
/// `base`.
pub fn peak_since(base: usize) -> usize {
    PEAK.load(Ordering::SeqCst).saturating_sub(base)
}
