//! Policy-gradient algorithms: REINFORCE with baseline, advantage actor-critic
//! (A2C) and PPO with a clipped surrogate objective.
//!
//! All three share the masked categorical policy from [`crate::policy`] and
//! differ only in how they turn a [`RolloutBatch`] into a gradient, so
//! the ablation experiments can swap the learner without touching the
//! scheduling environment.

use crate::buffer::RolloutBatch;
use crate::policy::CategoricalPolicy;
use crate::value::ValueNet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tcrm_nn::loss::entropy;
use tcrm_nn::{masked_softmax_into, Adam, Matrix, Optimizer, Workspace};

/// Diagnostics returned by one [`Algorithm::update_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean policy (surrogate) loss over the batch.
    pub policy_loss: f64,
    /// Mean value-function loss (0 for critic-free algorithms).
    pub value_loss: f64,
    /// Mean policy entropy over the batch.
    pub entropy: f64,
    /// Pre-clip global gradient norm of the policy network.
    pub grad_norm: f64,
    /// Number of environment steps used for the update.
    pub steps: usize,
}

impl UpdateStats {
    /// The all-zero stats returned for an empty batch.
    pub fn zero() -> Self {
        UpdateStats {
            policy_loss: 0.0,
            value_loss: 0.0,
            entropy: 0.0,
            grad_norm: 0.0,
            steps: 0,
        }
    }
}

/// A learner that improves a masked categorical policy from experience.
pub trait Algorithm {
    /// Short name used in logs and the convergence figure legend.
    fn name(&self) -> &str;

    /// The behaviour policy (used by the trainer to roll out episodes).
    fn policy(&self) -> &CategoricalPolicy;

    /// Mutable access to the policy (checkpoint restore).
    fn policy_mut(&mut self) -> &mut CategoricalPolicy;

    /// Critic estimate of the value of an observation (0 for critic-free
    /// algorithms).
    fn value_estimate(&self, _obs: &[f32]) -> f32 {
        0.0
    }

    /// Critic estimates for a whole batch of observations (one per row),
    /// written into a caller-owned buffer. Critic-backed learners override
    /// this with a single batched forward pass through their workspace; the
    /// default scores row by row through [`Self::value_estimate`]. The
    /// trainer scores each finished episode through this method and records
    /// the values in the batch so GAE can be computed at update time.
    fn value_estimates_into(&mut self, observations: &Matrix, out: &mut Vec<f32>) {
        out.clear();
        for r in 0..observations.rows() {
            out.push(self.value_estimate(observations.row(r)));
        }
    }

    /// Consume one flat rollout batch and update the policy (and critic).
    /// This is the native entry point of every learner: advantage /
    /// return computation runs as single backward sweeps over the whole
    /// batch and the optimisation loops read the flat storage directly, so
    /// a warmed learner performs no per-step heap allocation.
    fn update_batch(&mut self, batch: &mut RolloutBatch) -> UpdateStats;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// One full-batch policy-gradient step over `batch` using the advantages
/// currently stored in it. Scratch buffers (`grad`, `probs`) are caller-owned
/// and reused across updates. Returns `(policy_loss, mean_entropy,
/// grad_norm)`.
#[allow(clippy::too_many_arguments)]
fn policy_step(
    policy: &mut CategoricalPolicy,
    opt: &mut Adam,
    batch: &RolloutBatch,
    entropy_coef: f64,
    max_grad_norm: f32,
    grad: &mut Matrix,
    probs: &mut Vec<f32>,
) -> (f64, f64, f64) {
    let n = batch.len();
    let logits = policy.forward_train(batch.observations());
    grad.resize(n, logits.cols());
    grad.fill(0.0);
    let mut policy_loss = 0.0;
    let mut mean_entropy = 0.0;
    for i in 0..n {
        masked_softmax_into(logits.row(i), batch.mask(i), probs);
        let (loss, h) = policy_grad_row(
            probs,
            batch.actions()[i],
            batch.advantages()[i] / n as f64,
            entropy_coef / n as f64,
            grad.row_mut(i),
        );
        policy_loss += loss;
        mean_entropy += h / n as f64;
    }
    policy.network_mut().zero_grad();
    policy.network_mut().backward(grad);
    let grad_norm = policy.network_mut().clip_grad_norm(max_grad_norm);
    opt.step(policy.network_mut());
    (policy_loss, mean_entropy, grad_norm as f64)
}

/// Compute the policy-gradient contribution of one sample:
/// `coeff · (p − onehot(a)) + ent_coef · p ⊙ (ln p + H)` — the gradient of
/// `−coeff·log π(a|s) − ent_coef·H(π(·|s))` with respect to the logits.
fn policy_grad_row(
    probs: &[f32],
    action: usize,
    coeff: f64,
    ent_coef: f64,
    grad_row: &mut [f32],
) -> (f64, f64) {
    let h = entropy(probs) as f64;
    for (j, &p) in probs.iter().enumerate() {
        let onehot = if j == action { 1.0 } else { 0.0 };
        let mut g = coeff * (p as f64 - onehot);
        if ent_coef != 0.0 && p > 0.0 {
            g += ent_coef * p as f64 * ((p as f64).ln() + h);
        }
        grad_row[j] += g as f32;
    }
    let log_prob = probs[action].max(1e-12).ln() as f64;
    (-coeff * log_prob, h)
}

/// One mean-squared-error critic step. `grad` is a caller-owned scratch
/// matrix reused across updates (no per-call allocation once warmed).
fn value_update(
    value_net: &mut ValueNet,
    opt: &mut Adam,
    observations: &Matrix,
    targets: &[f64],
    grad: &mut Matrix,
) -> f64 {
    let preds = value_net.forward_train(observations);
    let n = targets.len().max(1) as f32;
    grad.resize(preds.rows(), 1);
    grad.fill(0.0);
    let mut loss = 0.0;
    for (r, &target) in targets.iter().enumerate() {
        let diff = preds.get(r, 0) - target as f32;
        loss += (diff * diff) as f64;
        grad.set(r, 0, 2.0 * diff / n);
    }
    value_net.network_mut().zero_grad();
    value_net.network_mut().backward(grad);
    value_net.network_mut().clip_grad_norm(5.0);
    opt.step(value_net.network_mut());
    loss / targets.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// REINFORCE
// ---------------------------------------------------------------------------

/// Configuration of [`Reinforce`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReinforceConfig {
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f64,
    /// Use an exponential-moving-average return baseline.
    pub use_baseline: bool,
    /// Normalise advantages per batch.
    pub normalize_advantages: bool,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        ReinforceConfig {
            gamma: 0.99,
            learning_rate: 3e-3,
            entropy_coef: 0.01,
            use_baseline: true,
            normalize_advantages: true,
            max_grad_norm: 5.0,
        }
    }
}

/// Monte-Carlo policy gradient with an EMA baseline — the learner DeepRM used
/// and the simplest member of the family.
#[derive(Debug, Clone)]
pub struct Reinforce {
    config: ReinforceConfig,
    policy: CategoricalPolicy,
    optimizer: Adam,
    baseline: f64,
    baseline_initialized: bool,
    grad: Matrix,
    probs: Vec<f32>,
}

impl Reinforce {
    /// Create a REINFORCE learner around a fresh policy.
    pub fn new(policy: CategoricalPolicy, config: ReinforceConfig) -> Self {
        let optimizer = Adam::new(policy.network().num_parameters(), config.learning_rate);
        Reinforce {
            config,
            policy,
            optimizer,
            baseline: 0.0,
            baseline_initialized: false,
            grad: Matrix::default(),
            probs: Vec::new(),
        }
    }

    /// Current EMA baseline (for tests and diagnostics).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }
}

impl Algorithm for Reinforce {
    fn name(&self) -> &str {
        "reinforce"
    }

    fn policy(&self) -> &CategoricalPolicy {
        &self.policy
    }

    fn policy_mut(&mut self) -> &mut CategoricalPolicy {
        &mut self.policy
    }

    fn update_batch(&mut self, batch: &mut RolloutBatch) -> UpdateStats {
        if batch.is_empty() {
            return UpdateStats::zero();
        }
        let n = batch.len();
        batch.compute_returns(self.config.gamma);
        // Baseline: EMA over batch-mean return.
        let baseline = if self.config.use_baseline {
            let mean_return = batch.returns().iter().sum::<f64>() / n as f64;
            if self.baseline_initialized {
                self.baseline = 0.9 * self.baseline + 0.1 * mean_return;
            } else {
                self.baseline = mean_return;
                self.baseline_initialized = true;
            }
            self.baseline
        } else {
            0.0
        };
        batch.set_advantages_to_returns_minus(baseline);
        if self.config.normalize_advantages {
            batch.normalize_advantages();
        }

        let (policy_loss, mean_entropy, grad_norm) = policy_step(
            &mut self.policy,
            &mut self.optimizer,
            batch,
            self.config.entropy_coef,
            self.config.max_grad_norm,
            &mut self.grad,
            &mut self.probs,
        );
        UpdateStats {
            policy_loss,
            value_loss: 0.0,
            entropy: mean_entropy,
            grad_norm,
            steps: n,
        }
    }
}

// ---------------------------------------------------------------------------
// A2C
// ---------------------------------------------------------------------------

/// Configuration of [`A2c`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct A2cConfig {
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Policy learning rate.
    pub learning_rate: f32,
    /// Critic learning rate.
    pub value_learning_rate: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f64,
    /// Normalise advantages per batch.
    pub normalize_advantages: bool,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            gamma: 0.99,
            gae_lambda: 0.95,
            learning_rate: 1e-3,
            value_learning_rate: 2e-3,
            entropy_coef: 0.01,
            normalize_advantages: true,
            max_grad_norm: 5.0,
        }
    }
}

/// Advantage actor-critic: synchronous batch updates with a learned critic
/// and GAE.
#[derive(Debug, Clone)]
pub struct A2c {
    config: A2cConfig,
    policy: CategoricalPolicy,
    value: ValueNet,
    policy_opt: Adam,
    value_opt: Adam,
    grad: Matrix,
    value_grad: Matrix,
    probs: Vec<f32>,
    value_ws: Workspace,
}

impl A2c {
    /// Create an A2C learner around fresh policy and value networks.
    pub fn new(policy: CategoricalPolicy, value: ValueNet, config: A2cConfig) -> Self {
        let policy_opt = Adam::new(policy.network().num_parameters(), config.learning_rate);
        let value_opt = Adam::new(value.network().num_parameters(), config.value_learning_rate);
        A2c {
            config,
            policy,
            value,
            policy_opt,
            value_opt,
            grad: Matrix::default(),
            value_grad: Matrix::default(),
            probs: Vec::new(),
            value_ws: Workspace::default(),
        }
    }

    /// The critic (read access for diagnostics and checkpoints).
    pub fn value_net(&self) -> &ValueNet {
        &self.value
    }
}

impl Algorithm for A2c {
    fn name(&self) -> &str {
        "a2c"
    }

    fn policy(&self) -> &CategoricalPolicy {
        &self.policy
    }

    fn policy_mut(&mut self) -> &mut CategoricalPolicy {
        &mut self.policy
    }

    fn value_estimate(&self, obs: &[f32]) -> f32 {
        self.value.value(obs)
    }

    fn value_estimates_into(&mut self, observations: &Matrix, out: &mut Vec<f32>) {
        let vals = self.value.values_batch_ws(observations, &mut self.value_ws);
        out.clear();
        out.extend_from_slice(vals.data());
    }

    fn update_batch(&mut self, batch: &mut RolloutBatch) -> UpdateStats {
        if batch.is_empty() {
            return UpdateStats::zero();
        }
        let n = batch.len();
        batch.compute_gae(self.config.gamma, self.config.gae_lambda);
        if self.config.normalize_advantages {
            batch.normalize_advantages();
        }
        let (policy_loss, mean_entropy, grad_norm) = policy_step(
            &mut self.policy,
            &mut self.policy_opt,
            batch,
            self.config.entropy_coef,
            self.config.max_grad_norm,
            &mut self.grad,
            &mut self.probs,
        );
        let value_loss = value_update(
            &mut self.value,
            &mut self.value_opt,
            batch.observations(),
            batch.value_targets(),
            &mut self.value_grad,
        );
        UpdateStats {
            policy_loss,
            value_loss,
            entropy: mean_entropy,
            grad_norm,
            steps: n,
        }
    }
}

// ---------------------------------------------------------------------------
// PPO
// ---------------------------------------------------------------------------

/// Configuration of [`Ppo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Clipping parameter ε.
    pub clip_epsilon: f64,
    /// Optimisation epochs per batch.
    pub epochs: usize,
    /// Minibatch size (0 ⇒ full batch).
    pub minibatch_size: usize,
    /// Policy learning rate.
    pub learning_rate: f32,
    /// Critic learning rate.
    pub value_learning_rate: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            epochs: 4,
            minibatch_size: 256,
            learning_rate: 1e-3,
            value_learning_rate: 2e-3,
            entropy_coef: 0.01,
            max_grad_norm: 5.0,
            seed: 0,
        }
    }
}

/// Proximal Policy Optimisation with the clipped surrogate objective.
#[derive(Debug, Clone)]
pub struct Ppo {
    config: PpoConfig,
    policy: CategoricalPolicy,
    value: ValueNet,
    policy_opt: Adam,
    value_opt: Adam,
    rng: StdRng,
    /// Persistent minibatch gather buffers: sized by the first update, reused
    /// by every later epoch/minibatch so the optimisation loop stops
    /// allocating.
    mb_obs: Matrix,
    mb_grad: Matrix,
    mb_targets: Vec<f64>,
    indices: Vec<usize>,
    probs: Vec<f32>,
    value_grad: Matrix,
    value_ws: Workspace,
}

impl Ppo {
    /// Create a PPO learner around fresh policy and value networks.
    pub fn new(policy: CategoricalPolicy, value: ValueNet, config: PpoConfig) -> Self {
        let policy_opt = Adam::new(policy.network().num_parameters(), config.learning_rate);
        let value_opt = Adam::new(value.network().num_parameters(), config.value_learning_rate);
        let rng = StdRng::seed_from_u64(config.seed);
        Ppo {
            config,
            policy,
            value,
            policy_opt,
            value_opt,
            rng,
            mb_obs: Matrix::default(),
            mb_grad: Matrix::default(),
            mb_targets: Vec::new(),
            indices: Vec::new(),
            probs: Vec::new(),
            value_grad: Matrix::default(),
            value_ws: Workspace::default(),
        }
    }

    /// The critic.
    pub fn value_net(&self) -> &ValueNet {
        &self.value
    }
}

impl Algorithm for Ppo {
    fn name(&self) -> &str {
        "ppo"
    }

    fn policy(&self) -> &CategoricalPolicy {
        &self.policy
    }

    fn policy_mut(&mut self) -> &mut CategoricalPolicy {
        &mut self.policy
    }

    fn value_estimate(&self, obs: &[f32]) -> f32 {
        self.value.value(obs)
    }

    fn value_estimates_into(&mut self, observations: &Matrix, out: &mut Vec<f32>) {
        let vals = self.value.values_batch_ws(observations, &mut self.value_ws);
        out.clear();
        out.extend_from_slice(vals.data());
    }

    fn update_batch(&mut self, batch: &mut RolloutBatch) -> UpdateStats {
        if batch.is_empty() {
            return UpdateStats::zero();
        }
        batch.compute_gae(self.config.gamma, self.config.gae_lambda);
        batch.normalize_advantages();
        let n = batch.len();
        let obs_dim = batch.observations().cols();
        let minibatch = if self.config.minibatch_size == 0 {
            n
        } else {
            self.config.minibatch_size.min(n)
        };
        self.indices.clear();
        self.indices.extend(0..n);
        let mut policy_loss_acc = 0.0;
        let mut value_loss_acc = 0.0;
        let mut entropy_acc = 0.0;
        let mut grad_norm_acc = 0.0;
        let mut update_count = 0usize;

        for _ in 0..self.config.epochs.max(1) {
            self.indices.shuffle(&mut self.rng);
            for chunk in self.indices.chunks(minibatch) {
                let m = chunk.len();
                // Gather the minibatch into the persistent buffers (no
                // per-chunk allocation after the first update).
                self.mb_obs.resize(m, obs_dim);
                for (row, &i) in chunk.iter().enumerate() {
                    self.mb_obs
                        .row_mut(row)
                        .copy_from_slice(batch.observation(i));
                }
                let logits = self.policy.forward_train(&self.mb_obs);
                self.mb_grad.resize(m, logits.cols());
                self.mb_grad.fill(0.0);
                let grad = &mut self.mb_grad;
                let mut mb_policy_loss = 0.0;
                let mut mb_entropy = 0.0;
                for (row, &i) in chunk.iter().enumerate() {
                    masked_softmax_into(logits.row(row), batch.mask(i), &mut self.probs);
                    let probs = &self.probs;
                    let action = batch.actions()[i];
                    let adv = batch.advantages()[i];
                    let new_log_prob = probs[action].max(1e-12).ln() as f64;
                    let ratio = (new_log_prob - batch.log_probs()[i] as f64).exp();
                    let clipped_out = (adv >= 0.0 && ratio > 1.0 + self.config.clip_epsilon)
                        || (adv < 0.0 && ratio < 1.0 - self.config.clip_epsilon);
                    // Surrogate loss value (for reporting): -min(rA, clip(r)A)
                    let unclipped = ratio * adv;
                    let clipped = ratio.clamp(
                        1.0 - self.config.clip_epsilon,
                        1.0 + self.config.clip_epsilon,
                    ) * adv;
                    mb_policy_loss += -unclipped.min(clipped) / m as f64;
                    let coeff = if clipped_out {
                        0.0
                    } else {
                        // d(-r·A)/dlogits = -A·r·(onehot - p) = A·r·(p - onehot)
                        adv * ratio / m as f64
                    };
                    let (_, h) = policy_grad_row(
                        probs,
                        action,
                        coeff,
                        self.config.entropy_coef / m as f64,
                        grad.row_mut(row),
                    );
                    mb_entropy += h / m as f64;
                }
                self.policy.network_mut().zero_grad();
                self.policy.network_mut().backward(&self.mb_grad);
                let gn = self
                    .policy
                    .network_mut()
                    .clip_grad_norm(self.config.max_grad_norm);
                self.policy_opt.step(self.policy.network_mut());

                self.mb_targets.clear();
                self.mb_targets
                    .extend(chunk.iter().map(|&i| batch.value_targets()[i]));
                let vl = value_update(
                    &mut self.value,
                    &mut self.value_opt,
                    &self.mb_obs,
                    &self.mb_targets,
                    &mut self.value_grad,
                );

                policy_loss_acc += mb_policy_loss;
                value_loss_acc += vl;
                entropy_acc += mb_entropy;
                grad_norm_acc += gn as f64;
                update_count += 1;
            }
        }
        let k = update_count.max(1) as f64;
        UpdateStats {
            policy_loss: policy_loss_acc / k,
            value_loss: value_loss_acc / k,
            entropy: entropy_acc / k,
            grad_norm: grad_norm_acc / k,
            steps: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::ChainEnv;
    use crate::trainer::{Trainer, TrainerConfig};
    use crate::vec_env::VecEnv;

    fn chain_policy() -> CategoricalPolicy {
        CategoricalPolicy::new(5, &[16], 2, 0)
    }

    fn train_and_return<A: Algorithm>(mut algo: A, iterations: usize) -> (f64, f64) {
        let mut pool = VecEnv::new(vec![ChainEnv::new(5, 8)]);
        let cfg = TrainerConfig {
            episodes_per_iteration: 8,
            iterations,
            seed: 3,
            ..Default::default()
        };
        let mut trainer = Trainer::new(cfg);
        let history = trainer.train_in_place_vec(&mut pool, &mut algo);
        let first = history.iterations.first().unwrap().mean_return;
        let last = history.iterations.last().unwrap().mean_return;
        (first, last)
    }

    #[test]
    fn reinforce_improves_on_chain() {
        let algo = Reinforce::new(chain_policy(), ReinforceConfig::default());
        let (first, last) = train_and_return(algo, 30);
        assert!(
            last > first + 0.5,
            "REINFORCE did not improve: {first} -> {last}"
        );
        assert!(last > 6.0, "final return too low: {last}");
    }

    #[test]
    fn a2c_improves_on_chain() {
        let algo = A2c::new(
            chain_policy(),
            ValueNet::new(5, &[16], 1),
            A2cConfig::default(),
        );
        let (first, last) = train_and_return(algo, 30);
        assert!(last > first + 0.5, "A2C did not improve: {first} -> {last}");
    }

    #[test]
    fn ppo_improves_on_chain() {
        let cfg = PpoConfig {
            epochs: 3,
            minibatch_size: 64,
            ..Default::default()
        };
        let algo = Ppo::new(chain_policy(), ValueNet::new(5, &[16], 1), cfg);
        let (first, last) = train_and_return(algo, 30);
        assert!(last > first + 0.5, "PPO did not improve: {first} -> {last}");
        assert!(last > 6.0, "final return too low: {last}");
    }

    #[test]
    fn update_on_empty_batch_is_a_no_op() {
        let mut empty = RolloutBatch::new(5, 2);
        let mut algo = Reinforce::new(chain_policy(), ReinforceConfig::default());
        assert_eq!(algo.update_batch(&mut empty).steps, 0);
        let mut a2c = A2c::new(
            chain_policy(),
            ValueNet::new(5, &[8], 0),
            A2cConfig::default(),
        );
        assert_eq!(a2c.update_batch(&mut empty).steps, 0);
        let mut ppo = Ppo::new(
            chain_policy(),
            ValueNet::new(5, &[8], 0),
            PpoConfig::default(),
        );
        assert_eq!(ppo.update_batch(&mut empty).steps, 0);
    }

    #[test]
    fn reinforce_baseline_tracks_returns() {
        let mut algo = Reinforce::new(chain_policy(), ReinforceConfig::default());
        let mut batch = RolloutBatch::new(5, 2);
        for i in 0..5 {
            batch.push_step(&[0.0; 5], &[true, true], i % 2, 2.0, -0.5, i == 4);
        }
        batch.close_episode();
        algo.update_batch(&mut batch);
        assert!(algo.baseline() > 0.0);
    }

    #[test]
    fn policy_grad_row_matches_cross_entropy_shape() {
        // With coeff=1 and no entropy term the gradient must be p - onehot.
        let probs = vec![0.2f32, 0.5, 0.3];
        let mut grad = vec![0.0f32; 3];
        let (loss, h) = policy_grad_row(&probs, 1, 1.0, 0.0, &mut grad);
        assert!((grad[1] - (0.5 - 1.0)).abs() < 1e-6);
        assert!((grad[0] - 0.2).abs() < 1e-6);
        assert!((loss + 0.5f32.ln() as f64).abs() < 1e-6);
        assert!(h > 0.0);
    }

    #[test]
    fn masked_actions_keep_zero_gradient() {
        let probs = vec![0.0f32, 0.6, 0.4];
        let mut grad = vec![0.0f32; 3];
        policy_grad_row(&probs, 1, 1.0, 0.05, &mut grad);
        assert_eq!(grad[0], 0.0);
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
