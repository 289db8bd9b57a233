//! Rollout storage with discounted returns and Generalised Advantage
//! Estimation.
//!
//! A whole rollout lives in one [`RolloutBatch`]: one matrix / flat vector
//! per field for every episode of an iteration, reused across iterations.
//! Returns and GAE run as single backward sweeps over all episodes
//! ([`discounted_returns_flat_into`], [`gae_flat_into`]), resetting at every
//! episode end whether the episode was terminal or truncated.

use tcrm_nn::Matrix;

/// Discounted returns over a *flat* multi-episode batch, written into a
/// caller-owned buffer (allocation-free once warmed).
///
/// `dones[t]` marks terminal steps; `ends[t]` marks the last step stored for
/// an episode (terminal **or** truncated). The accumulator resets whenever
/// either flag is set, so returns never leak across episode boundaries even
/// when an episode was cut off mid-flight.
pub fn discounted_returns_flat_into(
    rewards: &[f64],
    dones: &[bool],
    ends: &[bool],
    gamma: f64,
    out: &mut Vec<f64>,
) {
    assert_eq!(rewards.len(), dones.len());
    assert_eq!(rewards.len(), ends.len());
    out.clear();
    out.resize(rewards.len(), 0.0);
    let mut acc = 0.0;
    for t in (0..rewards.len()).rev() {
        if dones[t] || ends[t] {
            acc = 0.0;
        }
        acc = rewards[t] + gamma * acc;
        out[t] = acc;
    }
}

/// GAE over a *flat* multi-episode batch, written into caller-owned buffers
/// (allocation-free once warmed).
///
/// `targets[t] = advantages[t] + values[t]` is the critic's regression
/// target. Every episode bootstraps with 0 after its last step: at each
/// `ends[t]` the sweep zeroes both the successor value and the accumulated
/// advantage before processing step `t`, and `dones[t]` zeroes the successor
/// of a terminal step.
#[allow(clippy::too_many_arguments)]
pub fn gae_flat_into(
    rewards: &[f64],
    values: &[f32],
    dones: &[bool],
    ends: &[bool],
    gamma: f64,
    lambda: f64,
    advantages: &mut Vec<f64>,
    targets: &mut Vec<f64>,
) {
    let n = rewards.len();
    assert_eq!(n, values.len());
    assert_eq!(n, dones.len());
    assert_eq!(n, ends.len());
    advantages.clear();
    advantages.resize(n, 0.0);
    targets.clear();
    targets.resize(n, 0.0);
    let mut next_value = 0.0f64;
    let mut next_advantage = 0.0f64;
    for t in (0..n).rev() {
        if ends[t] {
            next_value = 0.0;
            next_advantage = 0.0;
        }
        let non_terminal = if dones[t] { 0.0 } else { 1.0 };
        if dones[t] {
            next_advantage = 0.0;
        }
        let delta = rewards[t] + gamma * next_value * non_terminal - values[t] as f64;
        next_advantage = delta + gamma * lambda * non_terminal * next_advantage;
        advantages[t] = next_advantage;
        targets[t] = next_advantage + values[t] as f64;
        next_value = values[t] as f64;
    }
}

/// A whole rollout (many episodes) flattened into batch-major storage: one
/// observation matrix, one flat mask vector and one flat vector per scalar
/// field. This is the shape the batched policy/value forwards and the
/// algorithm update loops consume directly, and every buffer is retained
/// across [`RolloutBatch::clear`] so steady-state collection performs no
/// heap allocation.
#[derive(Debug, Clone)]
pub struct RolloutBatch {
    obs_dim: usize,
    action_count: usize,
    observations: Matrix,
    masks: Vec<bool>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    log_probs: Vec<f32>,
    values: Vec<f32>,
    dones: Vec<bool>,
    ends: Vec<bool>,
    episodes: usize,
    advantages: Vec<f64>,
    returns: Vec<f64>,
    value_targets: Vec<f64>,
}

impl RolloutBatch {
    /// An empty batch for `obs_dim`-dimensional observations and
    /// `action_count` discrete actions.
    pub fn new(obs_dim: usize, action_count: usize) -> Self {
        RolloutBatch {
            obs_dim,
            action_count,
            observations: Matrix::zeros(0, obs_dim),
            masks: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            log_probs: Vec::new(),
            values: Vec::new(),
            dones: Vec::new(),
            ends: Vec::new(),
            episodes: 0,
            advantages: Vec::new(),
            returns: Vec::new(),
            value_targets: Vec::new(),
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Total number of discrete actions (mask stride).
    pub fn action_count(&self) -> usize {
        self.action_count
    }

    /// Number of steps stored.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if no steps are stored.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Number of closed episodes.
    pub fn episodes(&self) -> usize {
        self.episodes
    }

    /// Drop all steps but keep every buffer's capacity.
    pub fn clear(&mut self) {
        self.observations.clear_rows();
        self.masks.clear();
        self.actions.clear();
        self.rewards.clear();
        self.log_probs.clear();
        self.values.clear();
        self.dones.clear();
        self.ends.clear();
        self.episodes = 0;
        self.advantages.clear();
        self.returns.clear();
        self.value_targets.clear();
    }

    /// Append one transition. The critic value slot is initialised to zero;
    /// collectors that score values in a deferred batched pass fill it
    /// through [`Self::values_mut`].
    pub fn push_step(
        &mut self,
        observation: &[f32],
        mask: &[bool],
        action: usize,
        reward: f64,
        log_prob: f32,
        done: bool,
    ) {
        assert_eq!(mask.len(), self.action_count, "mask length mismatch");
        self.observations.push_row(observation);
        self.masks.extend_from_slice(mask);
        self.actions.push(action);
        self.rewards.push(reward);
        self.log_probs.push(log_prob);
        self.values.push(0.0);
        self.dones.push(done);
        self.ends.push(false);
    }

    /// Mark the most recent step as the last one of its episode (terminal or
    /// truncated) and count the episode closed.
    pub fn close_episode(&mut self) {
        let last = self
            .ends
            .last_mut()
            .expect("close_episode on an empty batch");
        assert!(!*last, "episode already closed at this step");
        *last = true;
        self.episodes += 1;
    }

    /// Append every step of `other` (which must share dimensions) after this
    /// batch's steps.
    pub fn append(&mut self, other: &RolloutBatch) {
        assert_eq!(self.obs_dim, other.obs_dim, "obs_dim mismatch");
        assert_eq!(
            self.action_count, other.action_count,
            "action_count mismatch"
        );
        for i in 0..other.len() {
            self.observations.push_row(other.observation(i));
        }
        self.masks.extend_from_slice(&other.masks);
        self.actions.extend_from_slice(&other.actions);
        self.rewards.extend_from_slice(&other.rewards);
        self.log_probs.extend_from_slice(&other.log_probs);
        self.values.extend_from_slice(&other.values);
        self.dones.extend_from_slice(&other.dones);
        self.ends.extend_from_slice(&other.ends);
        self.episodes += other.episodes;
    }

    /// The stacked observation matrix (`len()` rows × `obs_dim` columns).
    pub fn observations(&self) -> &Matrix {
        &self.observations
    }

    /// Observation row for step `i`.
    pub fn observation(&self, i: usize) -> &[f32] {
        self.observations.row(i)
    }

    /// Action mask for step `i`.
    pub fn mask(&self, i: usize) -> &[bool] {
        &self.masks[i * self.action_count..(i + 1) * self.action_count]
    }

    /// Actions taken, one per step.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Rewards, one per step.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Behaviour-policy log-probabilities, one per step.
    pub fn log_probs(&self) -> &[f32] {
        &self.log_probs
    }

    /// Critic value estimates, one per step.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable critic value estimates (for deferred batched scoring).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Terminal flags, one per step.
    pub fn dones(&self) -> &[bool] {
        &self.dones
    }

    /// Episode-end flags (terminal or truncated), one per step.
    pub fn ends(&self) -> &[bool] {
        &self.ends
    }

    /// Fill [`Self::returns`] with discounted returns over the whole batch
    /// in one backward sweep (allocation-free once warmed).
    pub fn compute_returns(&mut self, gamma: f64) {
        discounted_returns_flat_into(
            &self.rewards,
            &self.dones,
            &self.ends,
            gamma,
            &mut self.returns,
        );
    }

    /// Fill [`Self::advantages`] and [`Self::value_targets`] with GAE over
    /// the whole batch in one backward sweep (allocation-free once warmed).
    pub fn compute_gae(&mut self, gamma: f64, lambda: f64) {
        gae_flat_into(
            &self.rewards,
            &self.values,
            &self.dones,
            &self.ends,
            gamma,
            lambda,
            &mut self.advantages,
            &mut self.value_targets,
        );
    }

    /// Overwrite [`Self::advantages`] with `returns − baseline` (REINFORCE's
    /// Monte-Carlo advantage against a scalar baseline). Requires
    /// [`Self::compute_returns`] to have run.
    pub fn set_advantages_to_returns_minus(&mut self, baseline: f64) {
        assert_eq!(self.returns.len(), self.len(), "compute_returns not run");
        self.advantages.clear();
        self.advantages
            .extend(self.returns.iter().map(|g| g - baseline));
    }

    /// Normalise [`Self::advantages`] to zero mean / unit variance in place.
    pub fn normalize_advantages(&mut self) {
        normalize_advantages(&mut self.advantages);
    }

    /// Advantages from the last [`Self::compute_gae`] or
    /// [`Self::set_advantages_to_returns_minus`] call.
    pub fn advantages(&self) -> &[f64] {
        &self.advantages
    }

    /// Discounted returns from the last [`Self::compute_returns`] call.
    pub fn returns(&self) -> &[f64] {
        &self.returns
    }

    /// Critic regression targets from the last [`Self::compute_gae`] call.
    pub fn value_targets(&self) -> &[f64] {
        &self.value_targets
    }
}

/// Normalise advantages to zero mean and unit variance (standard variance
/// reduction). A tiny epsilon guards against constant advantages.
pub fn normalize_advantages(advantages: &mut [f64]) {
    if advantages.len() < 2 {
        return;
    }
    let mean = advantages.iter().sum::<f64>() / advantages.len() as f64;
    let var = advantages
        .iter()
        .map(|a| (a - mean) * (a - mean))
        .sum::<f64>()
        / advantages.len() as f64;
    let std = var.sqrt().max(1e-8);
    for a in advantages.iter_mut() {
        *a = (*a - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-episode reference for [`discounted_returns_flat_into`]:
    /// `G_t = r_t + γ G_{t+1}`, resetting at `dones`.
    fn discounted_returns(rewards: &[f64], dones: &[bool], gamma: f64) -> Vec<f64> {
        assert_eq!(rewards.len(), dones.len());
        let mut returns = vec![0.0; rewards.len()];
        let mut acc = 0.0;
        for t in (0..rewards.len()).rev() {
            if dones[t] {
                acc = 0.0;
            }
            acc = rewards[t] + gamma * acc;
            returns[t] = acc;
        }
        returns
    }

    /// Per-episode reference for [`gae_flat_into`] on one episode that
    /// bootstraps with 0 after its last step. Returns `(advantages,
    /// targets)`.
    fn gae(
        rewards: &[f64],
        values: &[f32],
        dones: &[bool],
        gamma: f64,
        lambda: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(rewards.len(), values.len());
        assert_eq!(rewards.len(), dones.len());
        let n = rewards.len();
        let mut advantages = vec![0.0; n];
        let mut next_value = 0.0;
        let mut next_advantage = 0.0;
        for t in (0..n).rev() {
            let non_terminal = if dones[t] { 0.0 } else { 1.0 };
            if dones[t] {
                next_advantage = 0.0;
            }
            let delta = rewards[t] + gamma * next_value * non_terminal - values[t] as f64;
            next_advantage = delta + gamma * lambda * non_terminal * next_advantage;
            advantages[t] = next_advantage;
            next_value = values[t] as f64;
        }
        let targets = advantages
            .iter()
            .zip(values.iter())
            .map(|(a, v)| a + *v as f64)
            .collect();
        (advantages, targets)
    }

    /// [`discounted_returns_flat_into`] over one batch whose episodes end
    /// where `dones` is set.
    fn flat_returns(rewards: &[f64], dones: &[bool], gamma: f64) -> Vec<f64> {
        let mut out = Vec::new();
        discounted_returns_flat_into(rewards, dones, dones, gamma, &mut out);
        out
    }

    /// [`gae_flat_into`] over one batch whose episodes end where `dones` is
    /// set.
    fn flat_gae(
        rewards: &[f64],
        values: &[f32],
        dones: &[bool],
        gamma: f64,
        lambda: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut adv, mut targets) = (Vec::new(), Vec::new());
        gae_flat_into(
            rewards,
            values,
            dones,
            dones,
            gamma,
            lambda,
            &mut adv,
            &mut targets,
        );
        (adv, targets)
    }

    #[test]
    fn returns_with_full_discount_reduce_to_suffix_sums() {
        let rewards = [1.0, 1.0, 1.0];
        let dones = [false, false, true];
        let r = flat_returns(&rewards, &dones, 1.0);
        assert_eq!(r, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn returns_discount_correctly() {
        let rewards = [0.0, 0.0, 1.0];
        let dones = [false, false, true];
        let r = flat_returns(&rewards, &dones, 0.5);
        assert_eq!(r, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn returns_reset_at_episode_boundaries() {
        let rewards = [1.0, 1.0, 5.0, 5.0];
        let dones = [false, true, false, true];
        let r = flat_returns(&rewards, &dones, 1.0);
        assert_eq!(r, vec![2.0, 1.0, 10.0, 5.0]);
    }

    #[test]
    fn gae_with_lambda_one_matches_mc_advantage() {
        let rewards = [1.0, 2.0, 3.0];
        let values = [0.5, 0.5, 0.5];
        let dones = [false, false, true];
        let gamma = 0.9;
        let (adv, targets) = flat_gae(&rewards, &values, &dones, gamma, 1.0);
        let returns = flat_returns(&rewards, &dones, gamma);
        for t in 0..3 {
            assert!((adv[t] - (returns[t] - values[t] as f64)).abs() < 1e-9);
            assert!((targets[t] - (adv[t] + values[t] as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn gae_with_lambda_zero_is_one_step_td() {
        let rewards = [1.0, 2.0];
        let values = [0.3, 0.7];
        let dones = [false, true];
        let gamma = 0.95;
        let (adv, _) = flat_gae(&rewards, &values, &dones, gamma, 0.0);
        assert!((adv[0] - (1.0 + gamma * 0.7 - 0.3)).abs() < 1e-6);
        assert!((adv[1] - (2.0 - 0.7)).abs() < 1e-6);
    }

    /// Three ragged episodes: lengths 3 (terminal), 1 (terminal), 2
    /// (truncated — `done` stays false on the last step).
    fn ragged_batch() -> RolloutBatch {
        let mut b = RolloutBatch::new(2, 2);
        let specs: [(&[f64], bool); 3] = [
            (&[1.0, -0.5, 2.0], true),
            (&[4.0], true),
            (&[0.5, 0.25], false),
        ];
        for (e, (rewards, terminal)) in specs.iter().enumerate() {
            for (t, &r) in rewards.iter().enumerate() {
                let done = *terminal && t + 1 == rewards.len();
                b.push_step(
                    &[e as f32, t as f32],
                    &[true, t % 2 == 0],
                    t % 2,
                    r,
                    -0.1,
                    done,
                );
            }
            b.close_episode();
        }
        let n = b.len();
        for (i, v) in b.values_mut().iter_mut().enumerate() {
            *v = 0.1 * (i as f32 + 1.0);
        }
        assert_eq!(n, 6);
        b
    }

    #[test]
    fn rollout_batch_stores_steps_and_episode_boundaries() {
        let b = ragged_batch();
        assert_eq!(b.episodes(), 3);
        assert_eq!(b.ends(), &[false, false, true, true, false, true]);
        assert_eq!(b.dones(), &[false, false, true, true, false, false]);
        assert_eq!(b.observation(4), &[2.0, 0.0]);
        assert_eq!(b.mask(1), &[true, false]);
        assert_eq!(b.observations().rows(), 6);
    }

    #[test]
    fn flat_returns_match_per_episode_reference() {
        let mut b = ragged_batch();
        let gamma = 0.9;
        b.compute_returns(gamma);
        let mut expected = Vec::new();
        for (rewards, dones) in [
            (vec![1.0, -0.5, 2.0], vec![false, false, true]),
            (vec![4.0], vec![true]),
            (vec![0.5, 0.25], vec![false, false]),
        ] {
            // Per-episode sweeps can never see beyond their own episode, so
            // the truncated third episode behaves as if it simply stopped.
            expected.extend(discounted_returns(&rewards, &dones, gamma));
        }
        assert_eq!(b.returns(), expected.as_slice());
    }

    #[test]
    fn flat_gae_matches_per_episode_reference_with_zero_bootstrap() {
        let mut b = ragged_batch();
        let (gamma, lambda) = (0.97, 0.95);
        b.compute_gae(gamma, lambda);
        let values = b.values().to_vec();
        let mut expected_adv = Vec::new();
        let mut expected_tgt = Vec::new();
        for (lo, hi, dones) in [
            (0usize, 3usize, vec![false, false, true]),
            (3, 4, vec![true]),
            (4, 6, vec![false, false]),
        ] {
            let (a, t) = gae(&b.rewards()[lo..hi], &values[lo..hi], &dones, gamma, lambda);
            expected_adv.extend(a);
            expected_tgt.extend(t);
        }
        for t in 0..b.len() {
            assert!((b.advantages()[t] - expected_adv[t]).abs() < 1e-12);
            assert!((b.value_targets()[t] - expected_tgt[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn append_concatenates_batches() {
        let mut a = ragged_batch();
        let before = a.len();
        let b = ragged_batch();
        a.append(&b);
        assert_eq!(a.len(), 2 * before);
        assert_eq!(a.episodes(), 6);
        assert_eq!(a.mask(before + 1), b.mask(1));
        assert_eq!(a.observation(before + 4), b.observation(4));
    }

    #[test]
    fn clear_resets_length_but_keeps_dimensions() {
        let mut b = ragged_batch();
        b.compute_gae(0.9, 0.95);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.episodes(), 0);
        assert_eq!(b.obs_dim(), 2);
        assert_eq!(b.action_count(), 2);
        b.push_step(&[1.0, 2.0], &[true, true], 0, 1.0, 0.0, true);
        b.close_episode();
        assert_eq!(b.len(), 1);
        assert_eq!(b.episodes(), 1);
    }

    #[test]
    fn normalisation_produces_zero_mean_unit_std() {
        let mut adv = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        normalize_advantages(&mut adv);
        let mean: f64 = adv.iter().sum::<f64>() / 5.0;
        let var: f64 = adv.iter().map(|a| a * a).sum::<f64>() / 5.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-6);
        // Degenerate cases do not blow up.
        let mut single = vec![3.0];
        normalize_advantages(&mut single);
        assert_eq!(single, vec![3.0]);
        let mut constant = vec![2.0, 2.0, 2.0];
        normalize_advantages(&mut constant);
        assert!(constant.iter().all(|a| a.abs() < 1e-6));
    }
}
