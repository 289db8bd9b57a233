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

/// One DQN gradient step: persistent-scratch batched bootstrap (the shipped
/// implementation) vs a per-row bootstrap reference that scores every
/// transition's next-observation with its own forward pass — the pattern the
/// batched path replaced.
fn bench_dqn_train_step(c: &mut Criterion) {
    use tcrm_rl::{DqnAgent, DqnConfig, ReplayTransition};

    let mut group = c.benchmark_group("dqn_train_step");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    let obs_dim = 64;
    let actions = 32;
    let make_agent = |batch_size: usize| {
        let config = DqnConfig {
            batch_size,
            warmup: batch_size,
            target_sync_interval: 0,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(obs_dim, actions, &[128, 128], 5, config);
        for i in 0..2048usize {
            agent.replay_mut().push(ReplayTransition {
                observation: (0..obs_dim).map(|d| ((i + d) % 13) as f32 / 13.0).collect(),
                action: i % actions,
                reward: ((i % 5) as f64 - 2.0) / 2.0,
                next_observation: (0..obs_dim)
                    .map(|d| ((i + d + 1) % 13) as f32 / 13.0)
                    .collect(),
                next_mask: (0..actions).map(|a| a % 3 != 1).collect(),
                done: i % 29 == 0,
            });
        }
        agent.train_step(); // warm the scratch
        agent
    };
    for &batch_size in &[32usize, 64] {
        let mut agent = make_agent(batch_size);
        group.bench_function(criterion::BenchmarkId::new("batched", batch_size), |b| {
            b.iter(|| agent.train_step().updates)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_training, bench_dqn_train_step);
criterion_main!(benches);
