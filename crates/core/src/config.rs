//! Agent configuration: state encoding, action space, reward shaping, network
//! architecture and training hyper-parameters.

use serde::{Deserialize, Serialize};

/// Which reward shaping the environment uses (Figure 9 ablates these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardKind {
    /// Time-utility shaping (default): accrued utility for completions minus
    /// a penalty per deadline miss, plus a small per-step penalty for pending
    /// jobs whose deadline can no longer be met.
    Utility,
    /// Sparse miss-oriented reward: +1 per on-time completion, −1 per miss.
    MissPenalty,
    /// DeepRM-style slowdown shaping: every decision step costs
    /// `−Σ_{jobs in system} Δt / best_case_service(job)`.
    Slowdown,
}

/// Reward-shaping coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Which shaping to use.
    pub kind: RewardKind,
    /// Penalty added (as a negative reward) for every deadline miss.
    pub miss_penalty: f64,
    /// Per-decision-step penalty for each pending job whose deadline has
    /// become infeasible (utility shaping only).
    pub infeasible_pending_penalty: f64,
    /// Scale applied to accrued utility.
    pub utility_scale: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            kind: RewardKind::Utility,
            miss_penalty: 1.0,
            infeasible_pending_penalty: 0.02,
            utility_scale: 1.0,
        }
    }
}

/// Everything that defines the agent's observation and action interface plus
/// its networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Number of queue slots exposed in the observation / action space (jobs
    /// beyond the first `queue_slots` are summarised as backlog features).
    pub queue_slots: usize,
    /// Number of running-job slots exposed for elastic re-scaling actions.
    pub running_slots: usize,
    /// Number of discrete parallelism levels per start action (level 0 = the
    /// job's minimum, the last level = the job's maximum, intermediate levels
    /// spaced evenly).
    pub parallelism_levels: usize,
    /// Whether the agent may emit elastic scale actions and pick parallelism
    /// levels above the minimum (the rigid-DRL ablation sets this to false).
    pub elastic_actions: bool,
    /// Whether the state encodes per-node-class capacities and speed factors
    /// (the heterogeneity-blind ablation sets this to false, pooling all
    /// classes into identical averaged features).
    pub heterogeneity_aware: bool,
    /// Hidden layer widths of the policy network.
    pub policy_hidden: Vec<usize>,
    /// Hidden layer widths of the value network.
    pub value_hidden: Vec<usize>,
    /// Reward shaping.
    pub reward: RewardConfig,
    /// Hard cap on environment steps per episode (safety net).
    pub max_steps_per_episode: usize,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            queue_slots: 10,
            running_slots: 5,
            parallelism_levels: 3,
            elastic_actions: true,
            heterogeneity_aware: true,
            policy_hidden: vec![128, 64],
            value_hidden: vec![128, 64],
            reward: RewardConfig::default(),
            max_steps_per_episode: 4_000,
        }
    }
}

impl AgentConfig {
    /// A configuration with elasticity disabled (rigid-DRL ablation).
    pub fn rigid(mut self) -> Self {
        self.elastic_actions = false;
        self
    }

    /// A configuration with heterogeneity-blind state encoding
    /// (heterogeneity ablation).
    pub fn heterogeneity_blind(mut self) -> Self {
        self.heterogeneity_aware = false;
        self
    }

    /// A small configuration for unit tests and quick examples.
    pub fn small() -> Self {
        AgentConfig {
            queue_slots: 4,
            running_slots: 2,
            parallelism_levels: 2,
            policy_hidden: vec![32],
            value_hidden: vec![32],
            max_steps_per_episode: 1_500,
            ..Default::default()
        }
    }

    /// Set the reward kind.
    pub fn with_reward(mut self, kind: RewardKind) -> Self {
        self.reward.kind = kind;
        self
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_slots == 0 {
            return Err("queue_slots must be >= 1".into());
        }
        if self.parallelism_levels == 0 {
            return Err("parallelism_levels must be >= 1".into());
        }
        if self.policy_hidden.is_empty() || self.value_hidden.is_empty() {
            return Err("networks need at least one hidden layer".into());
        }
        Ok(())
    }
}

/// Which learner trains the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LearnerKind {
    /// REINFORCE with an EMA baseline (the DeepRM-style learner).
    Reinforce,
    /// Advantage actor-critic (the paper's main learner).
    A2c,
    /// PPO with a clipped surrogate.
    Ppo,
}

/// Training-run description: how many episodes, how many jobs per episode,
/// which learner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learner.
    pub learner: LearnerKind,
    /// Training iterations (policy updates).
    pub iterations: usize,
    /// Episodes rolled out per iteration.
    pub episodes_per_iteration: usize,
    /// Jobs per training episode (kept small so episodes are short).
    pub jobs_per_episode: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Policy learning rate.
    pub learning_rate: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f64,
    /// Base seed for workload generation, network init and exploration.
    pub seed: u64,
    /// Number of environments stepped in lockstep during rollouts (the
    /// `VecEnv` pool size). `1` runs one episode at a time, the loop
    /// `tcrm-rl`'s `vec_env_parity` test checks seed for seed against a
    /// plain single-environment oracle; larger pools batch more rows per
    /// policy forward, with numerics that may differ bitwise (wider batched
    /// kernels) but the same per-episode seeds and boundaries.
    #[serde(default = "default_num_envs")]
    pub num_envs: usize,
}

fn default_num_envs() -> usize {
    1
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learner: LearnerKind::A2c,
            iterations: 150,
            episodes_per_iteration: 8,
            jobs_per_episode: 40,
            gamma: 0.99,
            learning_rate: 1e-3,
            entropy_coef: 0.01,
            seed: 0,
            num_envs: default_num_envs(),
        }
    }
}

impl TrainConfig {
    /// A very small training run used by tests and the quickstart example.
    pub fn smoke() -> Self {
        TrainConfig {
            iterations: 5,
            episodes_per_iteration: 2,
            jobs_per_episode: 10,
            num_envs: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(AgentConfig::default().validate().is_ok());
        assert!(AgentConfig::small().validate().is_ok());
    }

    #[test]
    fn ablation_builders_flip_flags() {
        let rigid = AgentConfig::default().rigid();
        assert!(!rigid.elastic_actions);
        let blind = AgentConfig::default().heterogeneity_blind();
        assert!(!blind.heterogeneity_aware);
        let slowdown = AgentConfig::default().with_reward(RewardKind::Slowdown);
        assert_eq!(slowdown.reward.kind, RewardKind::Slowdown);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = AgentConfig::default();
        cfg.queue_slots = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = AgentConfig::default();
        cfg.parallelism_levels = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = AgentConfig::default();
        cfg.policy_hidden.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = AgentConfig::default();
        let back: AgentConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(cfg, back);
        let t = TrainConfig::default();
        let back: TrainConfig = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
