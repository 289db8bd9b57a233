//! Criterion bench: end-to-end throughput of one PPO training iteration
//! (rollout collection + update) on the scheduling environment.
//!
//! Three variants over identical workloads, seeds and network shapes:
//!
//! * `per_step_reference` — the pre-vectorization collection discipline:
//!   one environment at a time, one policy forward **and one critic forward
//!   per environment step**, fresh `Step`/`Transition` vectors every step,
//!   pushed into a [`RolloutBatch`] for the (shared) update;
//! * `vec_env/1` — the trainer's lockstep [`VecEnv`] pool with a single
//!   slot: one episode at a time, batched critic scoring per episode;
//! * `vec_env/16` — a 16-slot pool: every decision step is **one** batched
//!   policy forward over all live environments, finished slots are reseated
//!   onto the remaining episodes in place, and the whole collection runs out
//!   of persistent scratch.
//!
//! The PPO update itself is shared by all variants, so the spread between
//! `per_step_reference` and `vec_env/16` isolates what the vectorized
//! collection path buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tcrm_core::{AgentConfig, EpisodeSource, SchedulingEnv};
use tcrm_rl::{
    Algorithm, CategoricalPolicy, Environment, Ppo, PpoConfig, RolloutBatch, Trainer,
    TrainerConfig, ValueNet, VecEnv,
};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::WorkloadSpec;

const EPISODES_PER_ITERATION: usize = 16;
const JOBS_PER_EPISODE: usize = 10;
const MAX_STEPS: usize = 300;
const SEED: u64 = 17;

fn make_env() -> SchedulingEnv {
    SchedulingEnv::new(
        ClusterSpec::tiny(),
        SimConfig::default(),
        // Paper-scale networks ([128, 64] hidden) on the small slot layout.
        &AgentConfig {
            max_steps_per_episode: MAX_STEPS,
            ..AgentConfig::small()
        },
        EpisodeSource::Generated {
            spec: WorkloadSpec::tiny(),
            jobs_per_episode: JOBS_PER_EPISODE,
        },
    )
}

fn make_ppo(obs_dim: usize, action_count: usize) -> Ppo {
    Ppo::new(
        CategoricalPolicy::new(obs_dim, &[128, 64], action_count, SEED),
        ValueNet::new(obs_dim, &[128, 64], SEED + 1),
        PpoConfig {
            epochs: 2,
            minibatch_size: 256,
            seed: SEED,
            ..Default::default()
        },
    )
}

fn trainer() -> Trainer {
    Trainer::new(TrainerConfig {
        episodes_per_iteration: EPISODES_PER_ITERATION,
        iterations: 1,
        max_steps_per_episode: MAX_STEPS,
        seed: SEED,
    })
}

/// One training iteration the way the repo collected rollouts before the
/// vectorized path: per-step sampling on freshly allocated `Step`s and a
/// critic forward for every single step, recorded into a [`RolloutBatch`],
/// then the (shared) update.
fn reference_iteration(env: &mut SchedulingEnv, algo: &mut Ppo, batch: &mut RolloutBatch) -> usize {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    batch.clear();
    for e in 0..EPISODES_PER_ITERATION as u64 {
        let seed = SEED + e;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut step = env.reset(seed);
        for _ in 0..MAX_STEPS {
            let (action, log_prob, _) =
                algo.policy()
                    .sample(&step.observation, &step.action_mask, &mut rng);
            let value = algo.value_estimate(&step.observation);
            let transition = env.step(action);
            batch.push_step(
                &step.observation,
                &step.action_mask,
                action,
                transition.reward,
                log_prob,
                transition.done,
            );
            *batch.values_mut().last_mut().unwrap() = value;
            if transition.done {
                break;
            }
            step = transition.next;
        }
        batch.close_episode();
    }
    algo.update_batch(batch).steps
}

fn bench_train_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_throughput");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(6));

    let probe = make_env();
    let obs_dim = probe.observation_dim();
    let action_count = probe.action_count();
    drop(probe);

    group.bench_function("per_step_reference", |b| {
        let mut env = make_env();
        let mut algo = make_ppo(obs_dim, action_count);
        let mut batch = RolloutBatch::new(obs_dim, action_count);
        b.iter(|| reference_iteration(&mut env, &mut algo, &mut batch))
    });

    for num_envs in [1usize, 16] {
        group.bench_function(BenchmarkId::new("vec_env", num_envs), |b| {
            let mut pool = VecEnv::new((0..num_envs).map(|_| make_env()).collect());
            let mut algo = make_ppo(obs_dim, action_count);
            b.iter(|| {
                trainer()
                    .train_in_place_vec(&mut pool, &mut algo)
                    .iterations
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_train_throughput);
criterion_main!(benches);
