//! Parity proofs for the vectorized rollout path.
//!
//! 1. A one-environment [`VecEnv`] pool trained through
//!    [`Trainer::train_in_place_vec`] must reproduce the plain
//!    single-environment loop *seed for seed*: identical per-iteration
//!    returns and step counts, losses and final weights within 1e-6 (they
//!    are bitwise-identical in practice — both paths run the same forward
//!    shapes — but the assertions leave float slack). The single-environment
//!    loop lives here, as [`train_single_env`], and nowhere in the library.
//! 2. A property test that the lockstep scatter/reset discipline preserves
//!    per-environment episode boundaries under ragged episode lengths: every
//!    episode collected through an N-slot pool is step-for-step identical to
//!    running that episode on a standalone environment.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcrm_rl::{
    A2c, A2cConfig, Algorithm, Environment, EpisodeStats, Ppo, PpoConfig, Reinforce,
    ReinforceConfig, RolloutBatch, Step, Trainer, TrainerConfig, TrainingHistory, Transition,
    ValueNet, VecEnv,
};

const OBS: usize = 6;
const ACTIONS: usize = 3;

/// A deterministic environment whose episode length depends on the reset
/// seed (2..=6 steps), so concurrent pool slots finish at different times
/// and slots are reseated mid-iteration.
#[derive(Default)]
struct RaggedEnv {
    pos: usize,
    steps: usize,
    horizon: usize,
}

impl RaggedEnv {
    fn observe(&self) -> Vec<f32> {
        let mut obs = vec![0.0; OBS];
        obs[self.pos] = 1.0;
        obs[self.steps % OBS] += 0.5;
        obs
    }

    fn feasible(&self) -> Vec<bool> {
        if self.steps.is_multiple_of(2) {
            vec![true, false, true]
        } else {
            vec![true, true, false]
        }
    }
}

impl Environment for RaggedEnv {
    fn observation_dim(&self) -> usize {
        OBS
    }
    fn action_count(&self) -> usize {
        ACTIONS
    }
    fn reset(&mut self, seed: u64) -> Step {
        self.pos = (seed % 3) as usize;
        self.steps = 0;
        self.horizon = 2 + (seed % 5) as usize;
        Step::new(self.observe(), self.feasible())
    }
    fn step(&mut self, action: usize) -> Transition {
        self.steps += 1;
        self.pos = (self.pos + action + 1) % OBS;
        let reward = if action == 0 {
            1.0
        } else {
            0.25 * action as f64
        };
        let done = self.steps >= self.horizon;
        Transition {
            reward,
            done,
            next: Step::new(self.observe(), self.feasible()),
        }
    }
}

/// max_steps_per_episode = 4 < max horizon 6, so some episodes truncate
/// (non-terminal final step) — the hard case for boundary handling.
fn config() -> TrainerConfig {
    TrainerConfig {
        episodes_per_iteration: 6,
        iterations: 4,
        max_steps_per_episode: 4,
        seed: 13,
    }
}

/// The oracle: one environment, episodes one after another. Episode `e` of
/// iteration `i` resets the environment with `seed + i·E + e` and samples
/// from a fresh `StdRng` seeded with the same value; the unbatched policy
/// picks each action; the critic scores each finished episode in one
/// forward; episodes are flattened into the update batch in order.
fn train_single_env<E: Environment, A: Algorithm>(
    env: &mut E,
    algo: &mut A,
    cfg: TrainerConfig,
) -> TrainingHistory {
    let (obs_dim, action_count) = (env.observation_dim(), env.action_count());
    let mut batch = RolloutBatch::new(obs_dim, action_count);
    let mut episode = RolloutBatch::new(obs_dim, action_count);
    let mut values = Vec::new();
    let mut history = TrainingHistory::default();
    for iteration in 0..cfg.iterations {
        batch.clear();
        let (mut returns, mut lengths) = (Vec::new(), Vec::new());
        for e in 0..cfg.episodes_per_iteration {
            let seed = cfg.seed + (iteration * cfg.episodes_per_iteration + e) as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            episode.clear();
            let mut step = env.reset(seed);
            for _ in 0..cfg.max_steps_per_episode {
                let (action, log_prob, _) =
                    algo.policy()
                        .sample(&step.observation, &step.action_mask, &mut rng);
                let t = env.step(action);
                episode.push_step(
                    &step.observation,
                    &step.action_mask,
                    action,
                    t.reward,
                    log_prob,
                    t.done,
                );
                if t.done {
                    break;
                }
                step = t.next;
            }
            episode.close_episode();
            algo.value_estimates_into(episode.observations(), &mut values);
            episode.values_mut().copy_from_slice(&values);
            returns.push(episode.rewards().iter().sum::<f64>());
            lengths.push(episode.len() as f64);
            batch.append(&episode);
        }
        let update = algo.update_batch(&mut batch);
        history.iterations.push(EpisodeStats {
            iteration,
            mean_return: returns.iter().sum::<f64>() / returns.len() as f64,
            min_return: returns.iter().cloned().fold(f64::INFINITY, f64::min),
            max_return: returns.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            mean_length: lengths.iter().sum::<f64>() / lengths.len() as f64,
            update,
        });
    }
    history
}

fn probe_logits<A: Algorithm>(algo: &A) -> Vec<f32> {
    let mut out = Vec::new();
    for p in 0..3 {
        let mut obs = vec![0.0f32; OBS];
        obs[p] = 1.0;
        obs[(p + 2) % OBS] = 0.5;
        out.extend(algo.policy().logits(&obs));
    }
    out
}

fn assert_history_parity(oracle: &TrainingHistory, vec: &TrainingHistory) {
    assert_eq!(oracle.iterations.len(), vec.iterations.len());
    for (l, v) in oracle.iterations.iter().zip(vec.iterations.iter()) {
        assert_eq!(l.mean_return, v.mean_return, "iter {}", l.iteration);
        assert_eq!(l.min_return, v.min_return);
        assert_eq!(l.max_return, v.max_return);
        assert_eq!(l.mean_length, v.mean_length);
        assert_eq!(l.update.steps, v.update.steps, "episode boundaries moved");
        assert!((l.update.policy_loss - v.update.policy_loss).abs() <= 1e-6);
        assert!((l.update.value_loss - v.update.value_loss).abs() <= 1e-6);
        assert!((l.update.entropy - v.update.entropy).abs() <= 1e-6);
    }
}

fn check_parity<A: Algorithm, F: Fn() -> A>(make: F) {
    let oracle_history;
    let oracle_probe;
    {
        let mut algo = make();
        let mut env = RaggedEnv::default();
        oracle_history = train_single_env(&mut env, &mut algo, config());
        oracle_probe = probe_logits(&algo);
    }
    let vec_history;
    let vec_probe;
    {
        let mut algo = make();
        let mut pool = VecEnv::new(vec![RaggedEnv::default()]);
        vec_history = Trainer::new(config()).train_in_place_vec(&mut pool, &mut algo);
        vec_probe = probe_logits(&algo);
    }
    assert_history_parity(&oracle_history, &vec_history);
    for (a, b) in oracle_probe.iter().zip(vec_probe.iter()) {
        assert!((a - b).abs() <= 1e-6, "final weights diverged: {a} vs {b}");
    }
}

#[test]
fn vec_env_1_matches_legacy_trainer_reinforce() {
    check_parity(|| {
        Reinforce::new(
            tcrm_rl::CategoricalPolicy::new(OBS, &[16, 8], ACTIONS, 1),
            ReinforceConfig::default(),
        )
    });
}

#[test]
fn vec_env_1_matches_legacy_trainer_a2c() {
    check_parity(|| {
        A2c::new(
            tcrm_rl::CategoricalPolicy::new(OBS, &[16, 8], ACTIONS, 1),
            ValueNet::new(OBS, &[16], 2),
            A2cConfig::default(),
        )
    });
}

#[test]
fn vec_env_1_matches_legacy_trainer_ppo() {
    check_parity(|| {
        Ppo::new(
            tcrm_rl::CategoricalPolicy::new(OBS, &[16, 8], ACTIONS, 1),
            ValueNet::new(OBS, &[16], 2),
            PpoConfig {
                epochs: 2,
                minibatch_size: 8,
                ..Default::default()
            },
        )
    });
}

#[test]
fn multi_env_training_runs_and_covers_all_episodes() {
    // Numerics legitimately differ from the single-env path when batched
    // rows flow through wider kernels, but the episode accounting must not.
    let mut algo = Ppo::new(
        tcrm_rl::CategoricalPolicy::new(OBS, &[16, 8], ACTIONS, 1),
        ValueNet::new(OBS, &[16], 2),
        PpoConfig::default(),
    );
    let mut pool = VecEnv::new((0..4).map(|_| RaggedEnv::default()).collect());
    let history = Trainer::new(config()).train_in_place_vec(&mut pool, &mut algo);
    assert_eq!(history.iterations.len(), config().iterations);
    for stats in &history.iterations {
        // 6 episodes of 2..=4 steps each.
        assert!(stats.update.steps >= 12 && stats.update.steps <= 24);
        assert!(stats.mean_length >= 2.0 && stats.mean_length <= 4.0);
        assert!(stats.mean_return.is_finite());
    }
}

// ---------------------------------------------------------------------------
// Property: lockstep scatter/reset preserves per-env episode boundaries
// ---------------------------------------------------------------------------

type EpisodeRecord = Vec<(Vec<f32>, f64, bool)>;

fn scripted_action(mask: &[bool], episode: usize, step: usize, script: &[usize]) -> usize {
    let a = script[(episode + step) % script.len()];
    if mask[a] {
        a
    } else {
        mask.iter().position(|&m| m).expect("no feasible action")
    }
}

fn collect_pool(
    num_envs: usize,
    episodes: usize,
    base_seed: u64,
    script: &[usize],
    max_steps: usize,
) -> Vec<EpisodeRecord> {
    let mut pool = VecEnv::new((0..num_envs).map(|_| RaggedEnv::default()).collect());
    let mut out: Vec<EpisodeRecord> = vec![Vec::new(); episodes];
    let mut episode_of = vec![0usize; num_envs];
    let mut steps = vec![0usize; num_envs];
    let mut next = 0usize;
    for slot in 0..num_envs {
        if next < episodes {
            pool.reset_env(slot, base_seed + next as u64);
            episode_of[slot] = next;
            steps[slot] = 0;
            next += 1;
        } else {
            pool.deactivate(slot);
        }
    }
    let mut finished = 0usize;
    while finished < episodes {
        let active: Vec<usize> = (0..num_envs).filter(|&i| pool.is_active(i)).collect();
        let pre: Vec<(usize, Vec<f32>)> = active
            .iter()
            .map(|&slot| {
                let a = scripted_action(pool.mask(slot), episode_of[slot], steps[slot], script);
                pool.set_action(slot, a);
                (slot, pool.observation(slot).to_vec())
            })
            .collect();
        pool.step_active();
        for (slot, obs) in pre {
            let e = episode_of[slot];
            out[e].push((obs, pool.reward(slot), pool.done(slot)));
            steps[slot] += 1;
            if pool.done(slot) || steps[slot] >= max_steps {
                finished += 1;
                if next < episodes {
                    pool.reset_env(slot, base_seed + next as u64);
                    episode_of[slot] = next;
                    steps[slot] = 0;
                    next += 1;
                } else {
                    pool.deactivate(slot);
                }
            }
        }
    }
    out
}

fn collect_solo(
    episodes: usize,
    base_seed: u64,
    script: &[usize],
    max_steps: usize,
) -> Vec<EpisodeRecord> {
    let mut env = RaggedEnv::default();
    (0..episodes)
        .map(|e| {
            let mut record = EpisodeRecord::new();
            let mut step = env.reset(base_seed + e as u64);
            for t in 0..max_steps {
                let a = scripted_action(&step.action_mask, e, t, script);
                let tr = env.step(a);
                record.push((step.observation.clone(), tr.reward, tr.done));
                if tr.done {
                    break;
                }
                step = tr.next;
            }
            record
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lockstep_preserves_episode_boundaries(
        num_envs in 1usize..5,
        episodes in 1usize..9,
        base_seed in 0u64..1_000,
        script in prop::collection::vec(0usize..ACTIONS, 1..12),
        max_steps in 2usize..7,
    ) {
        let pooled = collect_pool(num_envs, episodes, base_seed, &script, max_steps);
        let solo = collect_solo(episodes, base_seed, &script, max_steps);
        prop_assert_eq!(pooled, solo);
    }
}
