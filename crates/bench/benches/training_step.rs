//! Criterion bench: cost of one policy-gradient update (REINFORCE, A2C and
//! PPO) on a synthetic rollout batch of realistic size.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tcrm_rl::{
    A2c, A2cConfig, Algorithm, CategoricalPolicy, Ppo, PpoConfig, Reinforce, ReinforceConfig,
    RolloutBatch, ValueNet,
};

const OBS_DIM: usize = 128;
const ACTIONS: usize = 64;

fn synthetic_batch(episodes: usize, steps: usize) -> RolloutBatch {
    let mut batch = RolloutBatch::new(OBS_DIM, ACTIONS);
    let mask: Vec<bool> = (0..ACTIONS).map(|i| i % 3 != 1).collect();
    for e in 0..episodes {
        for s in 0..steps {
            let obs: Vec<f32> = (0..OBS_DIM)
                .map(|i| ((e * steps + s + i) % 13) as f32 / 13.0)
                .collect();
            batch.push_step(
                &obs,
                &mask,
                (s * 7 + e) % ACTIONS,
                ((s % 5) as f64 - 2.0) / 2.0,
                -1.2,
                s + 1 == steps,
            );
        }
        batch.close_episode();
    }
    batch.values_mut().fill(0.1);
    batch
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_step");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    let mut batch = synthetic_batch(8, 64);

    group.bench_function("reinforce_update", |b| {
        b.iter(|| {
            let mut algo = Reinforce::new(
                CategoricalPolicy::new(OBS_DIM, &[128, 64], ACTIONS, 0),
                ReinforceConfig::default(),
            );
            algo.update_batch(&mut batch).steps
        })
    });
    group.bench_function("a2c_update", |b| {
        b.iter(|| {
            let mut algo = A2c::new(
                CategoricalPolicy::new(OBS_DIM, &[128, 64], ACTIONS, 0),
                ValueNet::new(OBS_DIM, &[128, 64], 1),
                A2cConfig::default(),
            );
            algo.update_batch(&mut batch).steps
        })
    });
    group.bench_function("ppo_update_2epochs", |b| {
        b.iter(|| {
            let mut algo = Ppo::new(
                CategoricalPolicy::new(OBS_DIM, &[128, 64], ACTIONS, 0),
                ValueNet::new(OBS_DIM, &[128, 64], 1),
                PpoConfig {
                    epochs: 2,
                    minibatch_size: 128,
                    ..Default::default()
                },
            );
            algo.update_batch(&mut batch).steps
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
