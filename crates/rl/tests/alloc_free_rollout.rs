//! Counting-allocator proof for the flat rollout batch: once a
//! [`RolloutBatch`] has warmed to its steady-state shape, refilling it
//! (clear + push + close) and computing returns / GAE / normalized
//! advantages over the whole rollout perform **zero heap allocations**.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tcrm_rl::RolloutBatch;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

const OBS: usize = 32;
const ACTIONS: usize = 12;

/// Refill the batch with a multi-episode rollout of ragged lengths,
/// including a truncated (non-terminal) final episode.
fn refill(batch: &mut RolloutBatch) {
    batch.clear();
    let obs = [0.25f32; OBS];
    let mask: [bool; ACTIONS] = std::array::from_fn(|a| a % 3 != 1);
    for episode in 0..8usize {
        let len = 20 + 5 * (episode % 4);
        for t in 0..len {
            let done = episode % 4 != 3 && t + 1 == len;
            batch.push_step(&obs, &mask, (episode + t) % ACTIONS, 0.5, -0.2, done);
        }
        batch.close_episode();
    }
    for (i, v) in batch.values_mut().iter_mut().enumerate() {
        *v = (i % 7) as f32 * 0.1;
    }
}

#[test]
fn warm_rollout_batch_advantage_pipeline_does_not_allocate() {
    let mut batch = RolloutBatch::new(OBS, ACTIONS);
    // Warm-up sizes every buffer (observation matrix, flat masks, scalar
    // fields, returns/advantages/targets).
    refill(&mut batch);
    batch.compute_returns(0.99);
    batch.compute_gae(0.99, 0.95);
    batch.set_advantages_to_returns_minus(1.5);
    batch.normalize_advantages();

    // Judged on the minimum over several windows: rare counter pollution
    // from a harness thread cannot fail the test spuriously, while a
    // genuinely allocating pipeline still would.
    let allocations = (0..4)
        .map(|_| {
            count_allocations(|| {
                for _ in 0..5 {
                    refill(&mut batch);
                    batch.compute_returns(0.99);
                    batch.compute_gae(0.99, 0.95);
                    batch.normalize_advantages();
                    batch.set_advantages_to_returns_minus(0.5);
                    batch.normalize_advantages();
                }
            })
        })
        .min()
        .unwrap();
    assert_eq!(
        allocations, 0,
        "rollout batch pipeline allocated in steady state ({allocations} allocations per window)"
    );
}

#[test]
fn warm_batch_append_does_not_allocate() {
    let mut staged = RolloutBatch::new(OBS, ACTIONS);
    refill(&mut staged);
    let mut batch = RolloutBatch::new(OBS, ACTIONS);
    // Warm-up: one append sizes the destination.
    batch.clear();
    batch.append(&staged);
    let allocations = (0..4)
        .map(|_| {
            count_allocations(|| {
                for _ in 0..5 {
                    batch.clear();
                    batch.append(&staged);
                }
            })
        })
        .min()
        .unwrap();
    assert_eq!(allocations, 0, "append allocated in steady state");
}
