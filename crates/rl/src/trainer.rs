//! The training loop: roll out episodes, update the learner, record history.
//!
//! There is one collector, [`Trainer::train_in_place_vec`], over a lockstep
//! [`VecEnv`] pool: one **batched** policy forward per step for all active
//! environments, one batched critic forward per finished episode, and a flat
//! [`RolloutBatch`] handed straight to [`Algorithm::update_batch`].
//!
//! Seeding discipline: episode `e` of iteration `i` resets its environment
//! with `seed + i·E + e` (`E` = episodes per iteration) and samples its
//! actions from `StdRng::seed_from_u64` of the same value. Episodes enter the
//! update batch in episode order, whatever slot collected them.

use crate::algorithm::{Algorithm, UpdateStats};
use crate::buffer::RolloutBatch;
use crate::env::Environment;
use crate::policy::sample_categorical;
use crate::vec_env::VecEnv;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tcrm_nn::{masked_softmax_into, Matrix, Workspace};

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Episodes collected per update.
    pub episodes_per_iteration: usize,
    /// Number of update iterations.
    pub iterations: usize,
    /// Maximum steps per episode (guards against non-terminating
    /// environments).
    pub max_steps_per_episode: usize,
    /// Base seed: episode `e` of iteration `i` uses
    /// `seed + i * episodes_per_iteration + e` so every rollout is
    /// reproducible and distinct.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            episodes_per_iteration: 8,
            iterations: 100,
            max_steps_per_episode: 10_000,
            seed: 0,
        }
    }
}

/// Aggregate statistics of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Iteration index.
    pub iteration: usize,
    /// Mean undiscounted episode return.
    pub mean_return: f64,
    /// Minimum episode return in the batch.
    pub min_return: f64,
    /// Maximum episode return in the batch.
    pub max_return: f64,
    /// Mean episode length.
    pub mean_length: f64,
    /// Learner diagnostics for the update that followed.
    pub update: UpdateStats,
}

/// The per-iteration history of a training run (the data behind the
/// training-convergence figure).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// One entry per iteration, in order.
    pub iterations: Vec<EpisodeStats>,
}

impl TrainingHistory {
    /// Mean return of the last `k` iterations (or fewer if the run was
    /// shorter).
    pub fn final_mean_return(&self, k: usize) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        let tail: Vec<f64> = self
            .iterations
            .iter()
            .rev()
            .take(k.max(1))
            .map(|s| s.mean_return)
            .collect();
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Best iteration mean return seen.
    pub fn best_mean_return(&self) -> f64 {
        self.iterations
            .iter()
            .map(|s| s.mean_return)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Rolls out episodes with the learner's policy and feeds them back for
/// updates.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Train `algo` in place for `config.iterations` iterations and return
    /// the per-iteration history.
    ///
    /// Episodes are distributed over the pool work-queue style: slot `j`
    /// starts on episode `j`, and whenever a slot finishes (terminal or
    /// truncated at `max_steps_per_episode`) it is reset *in place* onto the
    /// next unstarted episode index. Per-episode seeds, RNG streams and
    /// episode boundaries are therefore independent of the pool size. All
    /// rollout storage lives in persistent scratch buffers reused across
    /// iterations; steady-state collection allocates nothing.
    pub fn train_in_place_vec<E: Environment, A: Algorithm + ?Sized>(
        &mut self,
        vec_env: &mut VecEnv<E>,
        algo: &mut A,
    ) -> TrainingHistory {
        let mut scratch = VecScratch::new(
            vec_env.observation_dim(),
            vec_env.action_count(),
            vec_env.num_envs(),
            self.config.episodes_per_iteration,
        );
        let mut history = TrainingHistory::default();
        for iteration in 0..self.config.iterations {
            self.collect_vec(iteration, vec_env, algo, &mut scratch);
            let update = algo.update_batch(&mut scratch.batch);
            history.iterations.push(EpisodeStats {
                iteration,
                mean_return: mean(&scratch.ep_returns),
                min_return: scratch
                    .ep_returns
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min),
                max_return: scratch
                    .ep_returns
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max),
                mean_length: mean(&scratch.ep_lengths),
                update,
            });
        }
        history
    }

    /// Collect one iteration's worth of episodes into `scratch.batch`.
    fn collect_vec<E: Environment, A: Algorithm + ?Sized>(
        &self,
        iteration: usize,
        vec_env: &mut VecEnv<E>,
        algo: &mut A,
        scratch: &mut VecScratch,
    ) {
        let e_total = self.config.episodes_per_iteration;
        let n_envs = vec_env.num_envs();
        let action_count = vec_env.action_count();
        let base = self.config.seed + (iteration * e_total) as u64;
        for ep in scratch.episodes.iter_mut() {
            ep.clear();
        }

        // Seat the first wave of episodes; spare slots go idle.
        let mut next_episode = 0usize;
        for slot in 0..n_envs {
            if next_episode < e_total {
                let seed = base + next_episode as u64;
                vec_env.reset_env(slot, seed);
                scratch.rngs[slot] = StdRng::seed_from_u64(seed);
                scratch.episode_of[slot] = next_episode;
                scratch.steps[slot] = 0;
                next_episode += 1;
            } else {
                vec_env.deactivate(slot);
            }
        }

        let mut finished = 0usize;
        while finished < e_total && self.config.max_steps_per_episode > 0 {
            let n_rows =
                vec_env.stack_active(&mut scratch.obs, &mut scratch.masks, &mut scratch.rows);
            debug_assert!(n_rows > 0, "lockstep with no active environments");
            // One batched policy forward for every active environment.
            let logits = algo.policy().logits_batch_ws(&scratch.obs, &mut scratch.ws);
            for row in 0..n_rows {
                let slot = scratch.rows[row];
                let mask = &scratch.masks[row * action_count..(row + 1) * action_count];
                masked_softmax_into(logits.row(row), mask, &mut scratch.probs);
                let (action, log_prob) =
                    sample_categorical(&scratch.probs, &mut scratch.rngs[slot]);
                vec_env.set_action(slot, action);
                scratch.pending_action[slot] = action;
                scratch.pending_log_prob[slot] = log_prob;
            }
            vec_env.step_active();
            for row in 0..n_rows {
                let slot = scratch.rows[row];
                let ep = scratch.episode_of[slot];
                let done = vec_env.done(slot);
                scratch.episodes[ep].push_step(
                    scratch.obs.row(row),
                    &scratch.masks[row * action_count..(row + 1) * action_count],
                    scratch.pending_action[slot],
                    vec_env.reward(slot),
                    scratch.pending_log_prob[slot],
                    done,
                );
                scratch.steps[slot] += 1;
                if done || scratch.steps[slot] >= self.config.max_steps_per_episode {
                    scratch.episodes[ep].close_episode();
                    // One batched critic forward over the finished episode,
                    // so the recorded values do not depend on the pool size.
                    algo.value_estimates_into(
                        scratch.episodes[ep].observations(),
                        &mut scratch.vals,
                    );
                    scratch.episodes[ep]
                        .values_mut()
                        .copy_from_slice(&scratch.vals);
                    finished += 1;
                    if next_episode < e_total {
                        let seed = base + next_episode as u64;
                        vec_env.reset_env(slot, seed);
                        scratch.rngs[slot] = StdRng::seed_from_u64(seed);
                        scratch.episode_of[slot] = next_episode;
                        scratch.steps[slot] = 0;
                        next_episode += 1;
                    } else {
                        vec_env.deactivate(slot);
                    }
                }
            }
        }

        // Assemble the flat update batch in episode order, plus the
        // iteration stats.
        scratch.batch.clear();
        scratch.ep_returns.clear();
        scratch.ep_lengths.clear();
        for ep in scratch.episodes.iter().take(e_total) {
            scratch.batch.append(ep);
            scratch.ep_returns.push(ep.rewards().iter().sum());
            scratch.ep_lengths.push(ep.len() as f64);
        }
    }
}

/// Persistent scratch for the vectorized collector: grows to steady-state
/// shape during the first iteration and is reused afterwards.
struct VecScratch {
    /// Stacked observations of the active slots (rows in slot order).
    obs: Matrix,
    /// Stacked masks in lockstep with `obs` rows.
    masks: Vec<bool>,
    /// Slot index of each stacked row.
    rows: Vec<usize>,
    /// Per-row probability scratch for sampling.
    probs: Vec<f32>,
    /// Workspace for the batched policy forward.
    ws: Workspace,
    /// Per-episode critic scores of a finished episode.
    vals: Vec<f32>,
    /// Per-episode staging batches (indexed by episode within the
    /// iteration), appended in order into `batch` at the end.
    episodes: Vec<RolloutBatch>,
    /// The assembled flat batch handed to the learner.
    batch: RolloutBatch,
    /// Per-slot RNG, reseeded at every episode start.
    rngs: Vec<StdRng>,
    /// Episode index each slot is currently collecting.
    episode_of: Vec<usize>,
    /// Steps the slot has taken in its current episode.
    steps: Vec<usize>,
    /// Action each slot applied at the pending step.
    pending_action: Vec<usize>,
    /// Log-probability of each slot's pending action.
    pending_log_prob: Vec<f32>,
    /// Undiscounted return of each episode this iteration.
    ep_returns: Vec<f64>,
    /// Length of each episode this iteration.
    ep_lengths: Vec<f64>,
}

impl VecScratch {
    fn new(obs_dim: usize, action_count: usize, n_envs: usize, episodes: usize) -> Self {
        VecScratch {
            obs: Matrix::zeros(0, obs_dim),
            masks: Vec::new(),
            rows: Vec::new(),
            probs: Vec::new(),
            ws: Workspace::default(),
            vals: Vec::new(),
            episodes: vec![RolloutBatch::new(obs_dim, action_count); episodes],
            batch: RolloutBatch::new(obs_dim, action_count),
            rngs: (0..n_envs as u64).map(StdRng::seed_from_u64).collect(),
            episode_of: vec![0; n_envs],
            steps: vec![0; n_envs],
            pending_action: vec![0; n_envs],
            pending_log_prob: vec![0.0; n_envs],
            ep_returns: Vec::new(),
            ep_lengths: Vec::new(),
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Reinforce, ReinforceConfig};
    use crate::env::test_envs::{ChainEnv, MaskedEnv};
    use crate::policy::CategoricalPolicy;

    /// Collect one iteration of `episodes_per_iteration` episodes through a
    /// one-slot pool and return the assembled update batch.
    fn collect_one<E: Environment, A: Algorithm>(
        config: TrainerConfig,
        env: E,
        algo: &mut A,
    ) -> RolloutBatch {
        let mut pool = VecEnv::new(vec![env]);
        let mut scratch = VecScratch::new(
            pool.observation_dim(),
            pool.action_count(),
            pool.num_envs(),
            config.episodes_per_iteration,
        );
        Trainer::new(config).collect_vec(0, &mut pool, algo, &mut scratch);
        scratch.batch
    }

    #[test]
    fn rollout_respects_masks_and_episode_length() {
        let cfg = TrainerConfig {
            episodes_per_iteration: 1,
            seed: 1,
            ..Default::default()
        };
        let mut algo = Reinforce::new(
            CategoricalPolicy::new(2, &[8], 3, 0),
            ReinforceConfig::default(),
        );
        let b = collect_one(cfg, MaskedEnv { steps: 0 }, &mut algo);
        assert_eq!(b.len(), 6);
        assert_eq!(b.episodes(), 1);
        for (i, &action) in b.actions().iter().enumerate() {
            assert!(b.mask(i)[action], "policy acted outside the mask");
        }
        assert!(*b.dones().last().unwrap());
        assert!(*b.ends().last().unwrap());
    }

    #[test]
    fn max_steps_bounds_non_terminating_rollouts() {
        let cfg = TrainerConfig {
            episodes_per_iteration: 1,
            max_steps_per_episode: 5,
            seed: 2,
            ..Default::default()
        };
        let mut algo = Reinforce::new(
            CategoricalPolicy::new(4, &[8], 2, 0),
            ReinforceConfig::default(),
        );
        let b = collect_one(cfg, ChainEnv::new(4, 1_000_000), &mut algo);
        assert_eq!(b.len(), 5);
        // Truncated, not terminal: the episode is closed but never done.
        assert_eq!(b.ends(), &[false, false, false, false, true]);
        assert!(b.dones().iter().all(|&d| !d));
    }

    #[test]
    fn history_helpers() {
        let mut h = TrainingHistory::default();
        assert_eq!(h.final_mean_return(5), 0.0);
        for (i, r) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            h.iterations.push(EpisodeStats {
                iteration: i,
                mean_return: *r,
                min_return: *r,
                max_return: *r,
                mean_length: 1.0,
                update: UpdateStats {
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                    grad_norm: 0.0,
                    steps: 1,
                },
            });
        }
        assert_eq!(h.best_mean_return(), 4.0);
        assert!((h.final_mean_return(2) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn training_is_reproducible_for_a_fixed_seed() {
        let run = || {
            let mut pool = VecEnv::new(vec![ChainEnv::new(5, 6)]);
            let cfg = TrainerConfig {
                episodes_per_iteration: 4,
                iterations: 5,
                seed: 11,
                ..Default::default()
            };
            let mut algo = Reinforce::new(
                CategoricalPolicy::new(5, &[8], 2, 1),
                ReinforceConfig::default(),
            );
            Trainer::new(cfg).train_in_place_vec(&mut pool, &mut algo)
        };
        let a = run();
        let b = run();
        let ra: Vec<f64> = a.iterations.iter().map(|s| s.mean_return).collect();
        let rb: Vec<f64> = b.iterations.iter().map(|s| s.mean_return).collect();
        assert_eq!(ra, rb);
    }
}
