//! Masked categorical policy over a discrete action space.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tcrm_nn::loss::entropy;
use tcrm_nn::{masked_softmax_into, Activation, Matrix, Mlp, MlpConfig, Workspace};

/// A stochastic policy π(a | s) parameterised by an MLP emitting one logit per
/// action. Infeasible actions (mask = false) receive probability zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoricalPolicy {
    net: Mlp,
}

impl CategoricalPolicy {
    /// Create a policy network: `obs_dim → hidden… → action_count` with tanh
    /// hidden activations (the standard choice for policy-gradient MLPs).
    pub fn new(obs_dim: usize, hidden: &[usize], action_count: usize, seed: u64) -> Self {
        let cfg = MlpConfig::new(obs_dim, hidden, action_count, Activation::Tanh);
        CategoricalPolicy {
            net: Mlp::new(&cfg, seed),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access to the underlying network (used by algorithms and
    /// optimisers).
    pub fn network_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.net.config().output_dim
    }

    /// Observation dimensionality.
    pub fn observation_dim(&self) -> usize {
        self.net.config().input_dim
    }

    /// Raw logits for one observation.
    pub fn logits(&self, obs: &[f32]) -> Vec<f32> {
        self.net.forward_vec(obs)
    }

    /// Masked action probabilities for one observation (allocating wrapper
    /// over [`Self::probabilities_into`]).
    pub fn probabilities(&self, obs: &[f32], mask: &[bool]) -> Vec<f32> {
        let mut scratch = PolicyScratch::default();
        self.probabilities_into(obs, mask, None, &mut scratch);
        scratch.probs
    }

    /// Masked action probabilities for one observation through
    /// caller-owned buffers: the observation runs through
    /// [`Mlp::forward_row_ws`] and is masked-softmaxed; the returned row is
    /// borrowed from `scratch`. `nonzero` is handed to the forward: when
    /// given, it must ascend and list every nonzero observation entry, and
    /// the first layer's weights must be finite for the result to equal
    /// the dense (`None`) one. Allocation-free once `scratch` has warmed to
    /// this policy's shapes.
    pub fn probabilities_into<'s>(
        &self,
        obs: &[f32],
        mask: &[bool],
        nonzero: Option<&[u32]>,
        scratch: &'s mut PolicyScratch,
    ) -> &'s [f32] {
        let PolicyScratch { ws, probs } = scratch;
        let logits = self.net.forward_row_ws(obs, nonzero, ws);
        masked_softmax_into(logits, mask, probs);
        probs
    }

    /// The greedy action for one observation through caller-owned buffers:
    /// [`greedy_from_logits`] on the forward's logits, with `nonzero` as for
    /// [`Self::probabilities_into`]. Allocation-free once `scratch` has
    /// warmed to this policy's shapes.
    pub fn greedy_into(
        &self,
        obs: &[f32],
        mask: &[bool],
        nonzero: Option<&[u32]>,
        scratch: &mut PolicyScratch,
    ) -> usize {
        let PolicyScratch { ws, probs } = scratch;
        greedy_from_logits(self.net.forward_row_ws(obs, nonzero, ws), mask, probs)
    }

    /// Batched logits through a caller-owned workspace: one forward pass for
    /// a whole `batch × obs_dim` matrix instead of one per row,
    /// allocation-free after warm-up. The returned `batch × action_count`
    /// matrix is borrowed from `ws`.
    pub fn logits_batch_ws<'w>(
        &self,
        observations: &Matrix,
        ws: &'w mut tcrm_nn::Workspace,
    ) -> &'w Matrix {
        self.net.forward_ws(observations, ws)
    }

    /// Sample an action from the masked distribution. Returns
    /// `(action, log_prob, probabilities)`.
    pub fn sample(&self, obs: &[f32], mask: &[bool], rng: &mut StdRng) -> (usize, f32, Vec<f32>) {
        let probs = self.probabilities(obs, mask);
        let (action, log_prob) = sample_categorical(&probs, rng);
        (action, log_prob, probs)
    }

    /// Greedy (argmax) action under the mask (allocating wrapper over
    /// [`Self::greedy_into`]).
    pub fn greedy(&self, obs: &[f32], mask: &[bool]) -> usize {
        self.greedy_into(obs, mask, None, &mut PolicyScratch::default())
    }

    /// Entropy of the masked distribution at an observation.
    pub fn entropy(&self, obs: &[f32], mask: &[bool]) -> f32 {
        entropy(&self.probabilities(obs, mask))
    }

    /// Training-mode forward pass over a batch of observations, returning the
    /// logits matrix (`batch × action_count`, borrowed from the network's
    /// internal workspace). Gradients flow back through [`Mlp::backward`] on
    /// the wrapped network. Allocation-free after warm-up.
    pub fn forward_train(&mut self, batch_obs: &Matrix) -> &Matrix {
        self.net.forward_train(batch_obs)
    }

    /// Serialise the policy weights.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restore a policy from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }
}

/// Reusable buffers of [`CategoricalPolicy::probabilities_into`] and
/// [`CategoricalPolicy::greedy_into`]: the forward workspace and the
/// probability row. Shape-agnostic: the buffers grow to the largest policy
/// they serve.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    ws: Workspace,
    probs: Vec<f32>,
}

/// Index of the first largest entry (0 when every entry is NaN or `-∞`):
/// the greedy choice over a probability row from
/// [`CategoricalPolicy::probabilities_into`], where masked-out actions hold
/// exactly zero.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// The greedy action for a logits row under `mask`: always equal to
/// `argmax(masked_softmax(logits, mask))`, with the softmax computed (into
/// `probs`) only when [`greedy_shortcut`] cannot prove its answer.
///
/// **Why the shortcut is exact.** It answers only when every unmasked
/// logit is finite, and then returns the first unmasked index `i*` holding
/// the maximum. The softmax gives `i*` the probability `exp(0)/sum =
/// 1/sum` and index `i` the probability `exp(lᵢ − max)/sum ≤ 1/sum`
/// (division by the positive `sum` is monotone); masked indices hold
/// exactly zero. `argmax` keeps the first largest entry, so no index after
/// `i*` can displace it, and an earlier index could only if its
/// probability rounded up to `1/sum`. An earlier unmasked index has `lᵢ <
/// max`, and it could round to the same probability only for `1 −
/// exp(lᵢ − max) < 2⁻²³`, i.e. for a faithful `exp`, `lᵢ − max > ≈
/// −2.4e-7`. The shortcut hands every earlier index with `lᵢ − max >
/// −1e-6` to the softmax, a 4× margin: past it `exp(lᵢ − max)` lies at
/// least ~15 ulps below 1, a relative gap that survives the division.
pub fn greedy_from_logits(logits: &[f32], mask: &[bool], probs: &mut Vec<f32>) -> usize {
    greedy_shortcut(logits, mask).unwrap_or_else(|| {
        masked_softmax_into(logits, mask, probs);
        argmax(probs)
    })
}

/// The greedy action read off the logits without any `exp`: the first
/// unmasked index holding the largest unmasked logit, or `None` when the
/// softmax must decide — the mask is empty, an unmasked logit is
/// non-finite, or an unmasked logit before that index lies within `1e-6`
/// of the maximum. [`greedy_from_logits`] proves the answer equal to the
/// softmax's argmax.
pub fn greedy_shortcut(logits: &[f32], mask: &[bool]) -> Option<usize> {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    let mut best: Option<(usize, f32)> = None;
    for (i, (&l, &m)) in logits.iter().zip(mask).enumerate() {
        if !m {
            continue;
        }
        if !l.is_finite() {
            return None;
        }
        if best.is_none_or(|(_, max)| l > max) {
            best = Some((i, l));
        }
    }
    let (index, max) = best?;
    let near_tie = logits[..index]
        .iter()
        .zip(mask)
        .any(|(&l, &m)| m && l - max > -1e-6);
    (!near_tie).then_some(index)
}

/// Sample from a (masked) probability distribution, consuming exactly one
/// `f32` from the RNG stream. Returns `(action, log_prob)`.
///
/// This is the sampling core of [`CategoricalPolicy::sample`], exposed so the
/// batched rollout collector can sample from probability rows it computed
/// itself (via a single batched forward) while drawing from per-environment
/// RNGs in **exactly** the same way as the per-step path — keeping a
/// one-environment vectorized rollout seed-for-seed identical to a plain
/// single-environment loop.
pub fn sample_categorical(probs: &[f32], rng: &mut StdRng) -> (usize, f32) {
    let u: f32 = rng.gen();
    let mut acc = 0.0;
    let mut action = probs.len() - 1;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u <= acc && p > 0.0 {
            action = i;
            break;
        }
    }
    // Guard: if rounding pushed us onto a zero-probability action, pick the
    // most likely feasible one instead.
    if probs[action] <= 0.0 {
        action = argmax(probs);
    }
    let log_prob = probs[action].max(1e-12).ln();
    (action, log_prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn policy() -> CategoricalPolicy {
        CategoricalPolicy::new(4, &[16], 5, 0)
    }

    #[test]
    fn shapes_and_normalisation() {
        let p = policy();
        assert_eq!(p.action_count(), 5);
        assert_eq!(p.observation_dim(), 4);
        let obs = [0.1, -0.2, 0.3, 0.4];
        let probs = p.probabilities(&obs, &[true; 5]);
        assert_eq!(probs.len(), 5);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sampling_never_selects_masked_actions() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = [0.5, 0.5, -0.5, 0.0];
        let mask = [false, true, false, true, false];
        for _ in 0..500 {
            let (a, log_prob, probs) = p.sample(&obs, &mask, &mut rng);
            assert!(mask[a], "sampled masked action {a}");
            assert!(log_prob <= 0.0);
            assert_eq!(probs[0], 0.0);
        }
        let greedy = p.greedy(&obs, &mask);
        assert!(mask[greedy]);
    }

    #[test]
    fn single_feasible_action_is_forced() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(2);
        let mask = [false, false, true, false, false];
        let (a, log_prob, _) = p.sample(&[0.0; 4], &mask, &mut rng);
        assert_eq!(a, 2);
        assert!((log_prob - 0.0).abs() < 1e-5);
        assert!((p.entropy(&[0.0; 4], &mask)).abs() < 1e-5);
    }

    #[test]
    fn entropy_decreases_with_restrictive_masks() {
        let p = policy();
        let obs = [0.1, 0.1, 0.1, 0.1];
        let all = p.entropy(&obs, &[true; 5]);
        let some = p.entropy(&obs, &[true, true, false, false, false]);
        assert!(all > some);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let p = policy();
        let json = p.to_json().unwrap();
        let back = CategoricalPolicy::from_json(&json).unwrap();
        let obs = [0.3, 0.2, 0.1, 0.0];
        assert_eq!(p.logits(&obs), back.logits(&obs));
    }

    #[test]
    fn free_sampler_matches_policy_sampler_exactly() {
        let p = policy();
        let obs = [0.2, -0.1, 0.4, 0.3];
        let mask = [true, false, true, true, false];
        let probs = p.probabilities(&obs, &mask);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let (a1, lp1, _) = p.sample(&obs, &mask, &mut r1);
            let (a2, lp2) = sample_categorical(&probs, &mut r2);
            assert_eq!(a1, a2);
            assert_eq!(lp1, lp2);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let p = policy();
        let obs = [0.2, -0.1, 0.4, 0.3];
        let mask = [true; 5];
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| p.sample(&obs, &mask, &mut rng).0).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| p.sample(&obs, &mask, &mut rng).0).collect()
        };
        assert_eq!(a, b);
    }
}
