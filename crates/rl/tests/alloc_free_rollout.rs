//! Counting-allocator proof for the flat rollout batch: once a
//! [`RolloutBatch`] has warmed to its steady-state shape, refilling it
//! (clear + push + close) and computing returns / GAE / normalized
//! advantages over the whole rollout perform **zero heap allocations**.
//! Allocations are counted per thread, so the two tests may run
//! concurrently.

use tcrm_rl::RolloutBatch;
use tcrm_testkit::count_allocations;

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

    let allocations = count_allocations(|| {
        for _ in 0..5 {
            refill(&mut batch);
            batch.compute_returns(0.99);
            batch.compute_gae(0.99, 0.95);
            batch.normalize_advantages();
            batch.set_advantages_to_returns_minus(0.5);
            batch.normalize_advantages();
        }
    });
    assert_eq!(
        allocations, 0,
        "rollout batch pipeline allocated in steady state ({allocations} allocations over 5 refills)"
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
    let allocations = count_allocations(|| {
        for _ in 0..5 {
            batch.clear();
            batch.append(&staged);
        }
    });
    assert_eq!(allocations, 0, "append allocated in steady state");
}
