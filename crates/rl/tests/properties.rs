//! Property-based tests of the RL substrate: the flat return/GAE sweeps the
//! learners run on, and the masked categorical policy.
//!
//! The sweeps are exercised on multi-episode batches with random boundaries,
//! where each episode either terminates (`dones` and `ends` set on its last
//! step) or is truncated (`ends` set, `dones` clear).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcrm_rl::{
    discounted_returns_flat_into, gae_flat_into, normalize_advantages, CategoricalPolicy,
};

fn arb_rewards(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, 1..n)
}

/// Episodes of 1..10 steps, each terminal (`true`) or truncated (`false`).
fn arb_episodes() -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    prop::collection::vec((arb_rewards(10), any::<bool>()), 1..6)
}

/// A flat batch: per-step rewards, terminal flags and episode-end flags.
struct Flat {
    rewards: Vec<f64>,
    dones: Vec<bool>,
    ends: Vec<bool>,
}

fn flatten(episodes: &[(Vec<f64>, bool)]) -> Flat {
    let mut flat = Flat {
        rewards: Vec::new(),
        dones: Vec::new(),
        ends: Vec::new(),
    };
    for (rewards, terminal) in episodes {
        for (t, &r) in rewards.iter().enumerate() {
            let last = t + 1 == rewards.len();
            flat.rewards.push(r);
            flat.dones.push(last && *terminal);
            flat.ends.push(last);
        }
    }
    flat
}

fn returns(flat: &Flat, gamma: f64) -> Vec<f64> {
    let mut out = Vec::new();
    discounted_returns_flat_into(&flat.rewards, &flat.dones, &flat.ends, gamma, &mut out);
    out
}

fn gae(flat: &Flat, values: &[f32], gamma: f64, lambda: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut adv, mut targets) = (Vec::new(), Vec::new());
    gae_flat_into(
        &flat.rewards,
        values,
        &flat.dones,
        &flat.ends,
        gamma,
        lambda,
        &mut adv,
        &mut targets,
    );
    (adv, targets)
}

/// Values the tests pair with a batch: a fixed function of the reward.
fn values_for(flat: &Flat) -> Vec<f32> {
    flat.rewards
        .iter()
        .map(|r| (*r as f32) * 0.3 - 0.1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Returns
    // ------------------------------------------------------------------

    #[test]
    fn returns_satisfy_the_bellman_recursion(episodes in arb_episodes(), gamma in 0.5f64..1.0) {
        let flat = flatten(&episodes);
        let g = returns(&flat, gamma);
        for t in 0..g.len() {
            let expected = if flat.dones[t] || flat.ends[t] {
                flat.rewards[t]
            } else {
                flat.rewards[t] + gamma * g[t + 1]
            };
            prop_assert!((g[t] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn returns_are_bounded_by_geometric_series(episodes in arb_episodes(), gamma in 0.0f64..0.99) {
        let flat = flatten(&episodes);
        let g = returns(&flat, gamma);
        let max_abs = flat.rewards.iter().map(|r| r.abs()).fold(0.0f64, f64::max);
        let bound = max_abs / (1.0 - gamma) + 1e-9;
        prop_assert!(g.iter().all(|g| g.abs() <= bound));
    }

    #[test]
    fn episode_boundaries_isolate_returns(
        first in arb_rewards(10),
        rest in arb_episodes(),
        gamma in 0.5f64..1.0,
        lambda in 0.0f64..1.0,
    ) {
        // A *truncated* first episode followed by more episodes must give
        // the same returns and GAE as sweeping each part on its own: nothing
        // leaks backwards across the boundary even though `dones` is clear.
        let mut episodes = vec![(first.clone(), false)];
        episodes.extend(rest.iter().cloned());
        let whole = flatten(&episodes);
        let head = flatten(&episodes[..1]);
        let tail = flatten(&rest);
        prop_assert!(!whole.dones[first.len() - 1] && whole.ends[first.len() - 1]);

        let separate: Vec<f64> = returns(&head, gamma)
            .into_iter()
            .chain(returns(&tail, gamma))
            .collect();
        for (a, b) in returns(&whole, gamma).iter().zip(separate.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }

        let values = values_for(&whole);
        let (adv, targets) = gae(&whole, &values, gamma, lambda);
        let (head_adv, head_tgt) = gae(&head, &values[..first.len()], gamma, lambda);
        let (tail_adv, tail_tgt) = gae(&tail, &values[first.len()..], gamma, lambda);
        let sep_adv: Vec<f64> = head_adv.into_iter().chain(tail_adv).collect();
        let sep_tgt: Vec<f64> = head_tgt.into_iter().chain(tail_tgt).collect();
        for t in 0..adv.len() {
            prop_assert!((adv[t] - sep_adv[t]).abs() < 1e-9);
            prop_assert!((targets[t] - sep_tgt[t]).abs() < 1e-9);
        }
    }

    // ------------------------------------------------------------------
    // GAE
    // ------------------------------------------------------------------

    #[test]
    fn gae_targets_equal_advantage_plus_value(
        episodes in arb_episodes(),
        gamma in 0.8f64..1.0,
        lambda in 0.0f64..1.0,
    ) {
        let flat = flatten(&episodes);
        let values = values_for(&flat);
        let (adv, targets) = gae(&flat, &values, gamma, lambda);
        for t in 0..adv.len() {
            prop_assert!((targets[t] - (adv[t] + values[t] as f64)).abs() < 1e-9);
            prop_assert!(adv[t].is_finite());
        }
    }

    #[test]
    fn gae_satisfies_its_recursion_within_episodes(
        episodes in arb_episodes(),
        gamma in 0.5f64..1.0,
        lambda in 0.0f64..1.0,
    ) {
        // A_t = δ_t + γλ·A_{t+1} with δ_t = r_t + γ·V_{t+1} − V_t inside an
        // episode; the last step of every episode bootstraps with 0.
        let flat = flatten(&episodes);
        let values = values_for(&flat);
        let (adv, _) = gae(&flat, &values, gamma, lambda);
        for t in 0..adv.len() {
            let v = values[t] as f64;
            let expected = if flat.dones[t] || flat.ends[t] {
                flat.rewards[t] - v
            } else {
                let delta = flat.rewards[t] + gamma * values[t + 1] as f64 - v;
                delta + gamma * lambda * adv[t + 1]
            };
            prop_assert!((adv[t] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn gae_with_perfect_critic_gives_zero_advantage(
        episodes in prop::collection::vec(
            (prop::collection::vec(-3.0f64..3.0, 1..12), any::<bool>()),
            1..5,
        ),
        gamma in 0.5f64..1.0,
    ) {
        // If every reward is exactly the one-step TD-consistent value, λ=0
        // advantages are zero — for terminal and truncated episodes alike,
        // since both bootstrap with 0 after their last step.
        let mut with_rewards = Vec::new();
        let mut values = Vec::new();
        for (vals, terminal) in &episodes {
            let n = vals.len();
            let rewards: Vec<f64> = (0..n)
                .map(|t| vals[t] - if t + 1 < n { gamma * vals[t + 1] } else { 0.0 })
                .collect();
            with_rewards.push((rewards, *terminal));
            values.extend(vals.iter().map(|v| *v as f32));
        }
        let flat = flatten(&with_rewards);
        let (adv, _) = gae(&flat, &values, gamma, 0.0);
        prop_assert!(adv.iter().all(|a| a.abs() < 1e-3), "advantages {adv:?}");
    }

    #[test]
    fn advantage_normalisation_is_affine_invariant_in_ranking(
        mut adv in prop::collection::vec(-10.0f64..10.0, 3..30),
    ) {
        let original = adv.clone();
        normalize_advantages(&mut adv);
        let mean: f64 = adv.iter().sum::<f64>() / adv.len() as f64;
        prop_assert!(mean.abs() < 1e-6);
        // Ranking is preserved.
        for i in 0..adv.len() {
            for j in 0..adv.len() {
                if original[i] < original[j] {
                    prop_assert!(adv[i] <= adv[j] + 1e-9);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Masked categorical policy
    // ------------------------------------------------------------------

    #[test]
    fn policy_probabilities_are_valid_distributions(
        seed in 0u64..100,
        obs in prop::collection::vec(-1.0f32..1.0, 6),
        mask in prop::collection::vec(any::<bool>(), 9),
    ) {
        let policy = CategoricalPolicy::new(6, &[12], 9, seed);
        let probs = policy.probabilities(&obs, &mask);
        prop_assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        if mask.iter().any(|&m| m) {
            for (p, &m) in probs.iter().zip(mask.iter()) {
                if !m {
                    prop_assert_eq!(*p, 0.0);
                }
            }
            // Greedy and sampled actions are always feasible.
            let greedy = policy.greedy(&obs, &mask);
            prop_assert!(mask[greedy]);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let (a, log_prob, _) = policy.sample(&obs, &mask, &mut rng);
                prop_assert!(mask[a]);
                prop_assert!(log_prob <= 1e-6);
            }
        }
    }

    #[test]
    fn policy_entropy_is_bounded_by_log_of_feasible_actions(
        seed in 0u64..50,
        obs in prop::collection::vec(-1.0f32..1.0, 5),
        mask in prop::collection::vec(any::<bool>(), 7),
    ) {
        prop_assume!(mask.iter().any(|&m| m));
        let policy = CategoricalPolicy::new(5, &[8], 7, seed);
        let entropy = policy.entropy(&obs, &mask);
        let feasible = mask.iter().filter(|&&m| m).count() as f32;
        prop_assert!(entropy >= -1e-6);
        prop_assert!(entropy <= feasible.ln() + 1e-4);
    }
}
