//! # tcrm-testkit — the one counting allocator behind every allocation test
//!
//! A test-only crate. [`CountingAlloc`] wraps the system allocator and
//! counts every allocation and reallocation twice: on the allocating thread
//! and process-wide. It also tracks live and peak bytes. This crate
//! installs it as the global allocator, so any test or bench binary that
//! `use`s the crate runs under it. Two readers cover the two kinds of measurement:
//!
//! * [`count_allocations`] counts the calling thread only, so tests that run
//!   concurrently in one binary never pollute each other's counts;
//! * [`metered`] is process-wide, for code whose own worker threads
//!   allocate. Its caller must keep every other thread in the binary quiet,
//!   e.g. by being the binary's only `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The counting global allocator: the system allocator plus counters.
pub struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// free of a destructor, so touching it from inside the allocator never
    /// allocates itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    // `try_with`: the slot is gone while a thread tears down its
    // thread-locals, and allocations then only count process-wide.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and reallocations `f` makes on the calling thread.
pub fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Run `f` and return `(allocations, peak live bytes above the baseline)`,
/// both counted process-wide.
pub fn metered(f: impl FnOnce()) -> (u64, usize) {
    let live0 = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(live0, Ordering::SeqCst);
    let allocs0 = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs0;
    let peak = PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(live0);
    (allocs, peak)
}

#[cfg(test)]
mod tests {
    use super::count_allocations;
    use std::hint::black_box;
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn count_allocations_counts_the_calling_thread_only() {
        // The worker is spawned outside the window; the barrier (futex-based,
        // allocation-free) makes its allocation land inside it.
        let barrier = Arc::new(Barrier::new(2));
        let worker = thread::spawn({
            let barrier = Arc::clone(&barrier);
            move || {
                barrier.wait();
                black_box(vec![0u8; 64]);
                barrier.wait();
            }
        });
        let on_worker = count_allocations(|| {
            barrier.wait();
            barrier.wait();
        });
        worker.join().unwrap();
        assert_eq!(on_worker, 0, "a spawned thread's allocation was counted");

        let on_caller = count_allocations(|| {
            black_box(Box::new(7u64));
        });
        assert_eq!(on_caller, 1);
    }
}
