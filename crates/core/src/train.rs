//! High-level training orchestration: build the environment, pick a learner,
//! run the training loop, and hand back a ready-to-use [`DrlScheduler`].

use crate::action::ActionSpace;
use crate::agent::DrlScheduler;
use crate::config::{AgentConfig, LearnerKind, TrainConfig};
use crate::env::{EpisodeSource, SchedulingEnv};
use crate::state::StateEncoder;
use serde::{Deserialize, Serialize};
use tcrm_rl::{
    A2c, A2cConfig, Algorithm, CategoricalPolicy, Ppo, PpoConfig, Reinforce, ReinforceConfig,
    Trainer, TrainerConfig, TrainingHistory, ValueNet, VecEnv,
};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::WorkloadSpec;

/// Everything needed to train one agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainSetup {
    /// The cluster the agent is trained for.
    pub cluster: ClusterSpec,
    /// The workload family episodes are sampled from.
    pub workload: WorkloadSpec,
    /// Simulator knobs.
    pub sim: SimConfig,
    /// Observation/action/reward configuration.
    pub agent: AgentConfig,
    /// Learner and training-loop hyper-parameters.
    pub train: TrainConfig,
}

impl TrainSetup {
    /// The default setup used by the paper-style experiments.
    pub fn icpp_default() -> Self {
        TrainSetup {
            cluster: ClusterSpec::icpp_default(),
            workload: WorkloadSpec::icpp_default(),
            sim: SimConfig::default(),
            agent: AgentConfig::default(),
            train: TrainConfig::default(),
        }
    }

    /// A minutes-scale setup for tests, examples and CI smoke runs.
    pub fn smoke() -> Self {
        TrainSetup {
            cluster: ClusterSpec::tiny(),
            workload: WorkloadSpec::tiny(),
            sim: SimConfig::default(),
            agent: AgentConfig::small(),
            train: TrainConfig::smoke(),
        }
    }
}

/// The outcome of a training run: the greedy inference agent plus the
/// training history (the convergence figure's data).
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained scheduler (greedy inference mode).
    pub agent: DrlScheduler,
    /// Per-iteration training statistics.
    pub history: TrainingHistory,
}

/// Train a DRL scheduler according to `setup`.
///
/// Rollouts run through a lockstep [`VecEnv`] pool of
/// `setup.train.num_envs` environments (minimum 1): every decision step is
/// one batched policy forward over all live environments. Episode seeds and
/// boundaries do not depend on the pool size; with `num_envs == 1` the run
/// is the single-environment loop that `tcrm-rl`'s parity test pins.
pub fn train_agent(setup: &TrainSetup) -> TrainOutcome {
    setup.agent.validate().expect("invalid agent config");
    let num_classes = setup.cluster.num_classes();
    let encoder = StateEncoder::new(&setup.agent, num_classes);
    let actions = ActionSpace::new(&setup.agent, num_classes);
    let obs_dim = encoder.observation_dim();
    let action_count = actions.action_count();

    // Each pool slot gets its own generated source over the shared workload
    // spec. Episode seeds come from the trainer, not the slot, so the pool
    // size never changes which workloads are trained on.
    let envs: Vec<SchedulingEnv> = (0..setup.train.num_envs.max(1))
        .map(|_| {
            SchedulingEnv::new(
                setup.cluster.clone(),
                setup.sim.clone(),
                &setup.agent,
                EpisodeSource::Generated {
                    spec: setup.workload.clone(),
                    jobs_per_episode: setup.train.jobs_per_episode,
                },
            )
        })
        .collect();
    let mut pool = VecEnv::new(envs);

    let policy = CategoricalPolicy::new(
        obs_dim,
        &setup.agent.policy_hidden,
        action_count,
        setup.train.seed,
    );
    let value = ValueNet::new(obs_dim, &setup.agent.value_hidden, setup.train.seed + 1);

    let trainer_cfg = TrainerConfig {
        episodes_per_iteration: setup.train.episodes_per_iteration,
        iterations: setup.train.iterations,
        max_steps_per_episode: setup.agent.max_steps_per_episode,
        seed: setup.train.seed,
    };
    let mut trainer = Trainer::new(trainer_cfg);

    let (policy, history) = match setup.train.learner {
        LearnerKind::Reinforce => {
            let cfg = ReinforceConfig {
                gamma: setup.train.gamma,
                learning_rate: setup.train.learning_rate,
                entropy_coef: setup.train.entropy_coef,
                ..Default::default()
            };
            let mut algo = Reinforce::new(policy, cfg);
            let history = trainer.train_in_place_vec(&mut pool, &mut algo);
            (algo.policy().clone(), history)
        }
        LearnerKind::A2c => {
            let cfg = A2cConfig {
                gamma: setup.train.gamma,
                learning_rate: setup.train.learning_rate,
                entropy_coef: setup.train.entropy_coef,
                ..Default::default()
            };
            let mut algo = A2c::new(policy, value, cfg);
            let history = trainer.train_in_place_vec(&mut pool, &mut algo);
            (algo.policy().clone(), history)
        }
        LearnerKind::Ppo => {
            let cfg = PpoConfig {
                gamma: setup.train.gamma,
                learning_rate: setup.train.learning_rate,
                entropy_coef: setup.train.entropy_coef,
                seed: setup.train.seed,
                ..Default::default()
            };
            let mut algo = Ppo::new(policy, value, cfg);
            let history = trainer.train_in_place_vec(&mut pool, &mut algo);
            (algo.policy().clone(), history)
        }
    };

    let agent = DrlScheduler::new(policy, setup.agent.clone(), num_classes);
    TrainOutcome { agent, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrm_sim::Scheduler;

    #[test]
    fn smoke_training_produces_a_working_agent() {
        let setup = TrainSetup::smoke();
        let outcome = train_agent(&setup);
        assert_eq!(outcome.history.iterations.len(), setup.train.iterations);
        assert_eq!(outcome.agent.name(), "drl");
        // The returned agent can schedule a workload end to end.
        let jobs: Vec<_> = tcrm_workload::SyntheticSource::new(
            &setup.workload.clone().with_num_jobs(10),
            &setup.cluster,
            123,
        )
        .expect("valid spec")
        .collect();
        let mut agent = outcome.agent;
        let result = tcrm_sim::Simulator::new(setup.cluster.clone(), setup.sim.clone())
            .run(jobs, &mut agent);
        assert_eq!(result.summary.total_jobs, 10);
        assert_eq!(result.summary.unfinished_jobs, 0);
    }

    #[test]
    fn all_learners_run_a_tiny_training_loop() {
        for learner in [LearnerKind::Reinforce, LearnerKind::A2c, LearnerKind::Ppo] {
            let mut setup = TrainSetup::smoke();
            setup.train.learner = learner;
            setup.train.iterations = 2;
            setup.train.episodes_per_iteration = 2;
            setup.train.jobs_per_episode = 6;
            let outcome = train_agent(&setup);
            assert_eq!(outcome.history.iterations.len(), 2);
            assert!(outcome
                .history
                .iterations
                .iter()
                .all(|s| s.mean_return.is_finite()));
        }
    }

    #[test]
    fn training_history_is_reproducible() {
        let mut setup = TrainSetup::smoke();
        setup.train.iterations = 3;
        let a = train_agent(&setup);
        let b = train_agent(&setup);
        let ra: Vec<f64> = a.history.iterations.iter().map(|s| s.mean_return).collect();
        let rb: Vec<f64> = b.history.iterations.iter().map(|s| s.mean_return).collect();
        assert_eq!(ra, rb);
    }
}
