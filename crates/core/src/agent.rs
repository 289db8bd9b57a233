//! The trained DRL scheduler, usable anywhere a [`tcrm_sim::Scheduler`] is
//! expected, plus checkpointing.

use crate::action::ActionSpace;
use crate::config::AgentConfig;
use crate::state::{SlotSnapshot, StateEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;
use tcrm_nn::Backend;
use tcrm_rl::{sample_categorical, CategoricalPolicy, PolicyScratch};
use tcrm_sim::{Action, ClusterView, Scheduler};

/// A deep-RL scheduler: the trained policy wrapped with the state encoder and
/// action decoder, exposed through the simulator's [`Scheduler`] trait so it
/// can be compared head-to-head with every baseline.
///
/// A decision takes two shortcuts, each returning the same action index as
/// the dense forward followed by `argmax(masked_softmax(..))` (greedy) or
/// the sample from that distribution (stochastic):
///
/// * **Zero-row skip.** Most observation entries are zero. On the SIMD
///   kernels each first-layer output is an in-order chain of fused
///   multiply-adds from +0.0, and with a finite weight `w` the step
///   `acc + 0·w` returns `acc` unchanged, so the first layer reads only the
///   weight rows of the nonzero entries
///   ([`tcrm_nn::kernels::matmul_row_sparse`] spells out the argument,
///   including its one corner: products below the subnormal range can
///   leave the sign of a zero output different, which neither the
///   remaining layers nor the softmax and argmax can observe). A
///   non-finite weight makes a zero input count (`0·∞` and `0·NaN` are
///   NaN), so the agent checks once, at construction, that every
///   first-layer weight is finite; the policy is private and never mutated
///   afterwards. Agents with a non-finite weight, and the scalar kernels,
///   whose row kernel adds four rows at a time, keep the dense forward.
/// * **Greedy argmax without `exp`.** A greedy agent needs only the argmax,
///   which [`tcrm_rl::greedy_from_logits`] reads off the logits and proves
///   equal to the softmax's argmax, computing the softmax only for an empty
///   mask, a non-finite logit or a near-tie before the maximum. Stochastic
///   agents keep the softmax, since sampling needs the probabilities.
#[derive(Debug, Clone)]
pub struct DrlScheduler {
    name: String,
    config: AgentConfig,
    /// Node classes of the cluster the policy was built for (the
    /// observation and action layouts depend on it).
    num_classes: usize,
    encoder: StateEncoder,
    actions: ActionSpace,
    policy: CategoricalPolicy,
    greedy: bool,
    rng: StdRng,
    seed: u64,
    /// Time of the decision epoch currently being served and the number of
    /// actions already issued for it (the engine re-invokes `decide` after
    /// every applied action; bounding the per-epoch action count keeps an
    /// untrained or degenerate policy from re-scaling jobs forever within a
    /// single epoch).
    epoch_time: f64,
    epoch_decisions: usize,
    /// Per-decision buffers, refilled by every [`Self::select_action`] so a
    /// decision computes each intermediate once and allocates nothing but
    /// the `Vec` that [`Scheduler::decide`] returns.
    scratch: DecisionScratch,
    /// Whether the first layer skips the zero observation entries (see the
    /// type docs), fixed at construction.
    sparse_input: bool,
}

/// The buffers one decision fills: the view's slot ranking (read by the
/// encoder, the mask, the decoder and the fallback), the observation, the
/// indices of its nonzero entries, the mask and the policy's inference
/// buffers.
#[derive(Debug, Clone, Default)]
struct DecisionScratch {
    slots: SlotSnapshot,
    obs: Vec<f32>,
    nonzero: Vec<u32>,
    mask: Vec<bool>,
    inference: PolicyScratch,
}

impl DrlScheduler {
    /// Wrap a trained policy. `num_classes` must match the cluster the policy
    /// was trained for (the observation and action layouts depend on it).
    pub fn new(policy: CategoricalPolicy, config: AgentConfig, num_classes: usize) -> Self {
        let encoder = StateEncoder::new(&config, num_classes);
        let actions = ActionSpace::new(&config, num_classes);
        debug_assert_eq!(policy.observation_dim(), encoder.observation_dim());
        debug_assert_eq!(policy.action_count(), actions.action_count());
        let sparse_input = Backend::active().is_accelerated()
            && policy
                .network()
                .layers()
                .first()
                .is_some_and(|layer| layer.weights.is_finite());
        DrlScheduler {
            name: "drl".to_string(),
            config,
            num_classes,
            encoder,
            actions,
            policy,
            greedy: true,
            rng: StdRng::seed_from_u64(0),
            seed: 0,
            epoch_time: f64::NEG_INFINITY,
            epoch_decisions: 0,
            scratch: DecisionScratch::default(),
            sparse_input,
        }
    }

    /// Rename the scheduler (used by ablations: `drl-rigid`,
    /// `drl-class-blind`, …).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Use stochastic (sampled) actions instead of greedy argmax.
    pub fn stochastic(mut self, seed: u64) -> Self {
        self.greedy = false;
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// The agent configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &CategoricalPolicy {
        &self.policy
    }

    /// Pick one action index for a view (exposed for decision-latency
    /// benchmarks): rank the slots, encode, mask, run the policy, then take
    /// the masked distribution's argmax (greedy) or a sample from it, with
    /// the two shortcuts of the [type docs](DrlScheduler). The slot ranking
    /// stays in the scratch for decoding the index.
    pub fn select_action(&mut self, view: &ClusterView) -> usize {
        let DecisionScratch {
            slots,
            obs,
            nonzero,
            mask,
            inference,
        } = &mut self.scratch;
        self.encoder.slots_into(view, slots);
        self.encoder.encode_into(view, slots, obs);
        self.actions.mask_into(view, slots, mask);
        let nonzero = self.sparse_input.then(|| {
            // Branch-free: every index is written, and the count moves past
            // it only for a nonzero entry (the zero pattern is irregular, so
            // a branch would mispredict).
            nonzero.resize(obs.len(), 0);
            let mut kept = 0;
            for (k, &x) in obs.iter().enumerate() {
                nonzero[kept] = k as u32;
                kept += usize::from(x != 0.0);
            }
            &nonzero[..kept]
        });
        if self.greedy {
            self.policy.greedy_into(obs, mask, nonzero, inference)
        } else {
            let probs = self
                .policy
                .probabilities_into(obs, mask, nonzero, inference);
            sample_categorical(probs, &mut self.rng).0
        }
    }

    /// Save the agent (config + policy weights) to a JSON checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let checkpoint = AgentCheckpoint {
            config: self.config.clone(),
            num_classes: self.num_classes,
            policy_json: self
                .policy
                .to_json()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        };
        let json = serde_json::to_string(&checkpoint)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::write(path, json)
    }

    /// Load an agent from a JSON checkpoint. A checkpoint whose policy's
    /// observation or action dimension disagrees with the layout its config
    /// and class count define is rejected with [`io::ErrorKind::InvalidData`]
    /// (it would otherwise panic at the first decision).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        let checkpoint: AgentCheckpoint = serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let policy = CategoricalPolicy::from_json(&checkpoint.policy_json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let (config, num_classes) = (&checkpoint.config, checkpoint.num_classes);
        let observation_dim = StateEncoder::new(config, num_classes).observation_dim();
        let action_count = ActionSpace::new(config, num_classes).action_count();
        if policy.observation_dim() != observation_dim || policy.action_count() != action_count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint policy is {}→{} but its config with {num_classes} node classes \
                     needs {observation_dim}→{action_count}",
                    policy.observation_dim(),
                    policy.action_count()
                ),
            ));
        }
        Ok(DrlScheduler::new(policy, checkpoint.config, num_classes))
    }

    /// Emergency fallback when the policy refuses to schedule even though
    /// nothing else can ever happen: start the most urgent feasible job at
    /// its minimum parallelism so the run cannot deadlock. Returns `None`
    /// when nothing is feasible.
    fn fallback_start(&self, view: &ClusterView) -> Option<Action> {
        for job in self.scratch.slots.queue_jobs(view) {
            for class in &view.classes {
                if view.can_start(job, class.id, job.min_parallelism) {
                    return Some(Action::Start {
                        job: job.id,
                        class: class.id,
                        parallelism: job.min_parallelism,
                    });
                }
            }
        }
        None
    }
}

impl Scheduler for DrlScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_simulation_start(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.epoch_time = f64::NEG_INFINITY;
        self.epoch_decisions = 0;
    }

    fn reset(&mut self, seed: u64) {
        // Greedy agents are seed-independent; stochastic ones re-derive their
        // action RNG from the replication seed so a reused instance matches a
        // freshly built `.stochastic(seed)` agent.
        if !self.greedy {
            self.seed = seed;
        }
        self.rng = StdRng::seed_from_u64(self.seed);
        self.epoch_time = f64::NEG_INFINITY;
        self.epoch_decisions = 0;
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        // Bound the number of actions issued at one decision epoch.
        if (view.time - self.epoch_time).abs() < 1e-12 {
            self.epoch_decisions += 1;
        } else {
            self.epoch_time = view.time;
            self.epoch_decisions = 0;
        }
        if self.epoch_decisions > self.config.queue_slots + self.config.running_slots {
            return vec![Action::Wait];
        }
        let index = self.select_action(view);
        let action = self
            .actions
            .decode(index, view, &self.scratch.slots)
            .unwrap_or(Action::Wait);
        if matches!(action, Action::Wait)
            && view.running.is_empty()
            && view.future_arrivals == 0
            && !view.pending.is_empty()
        {
            // The engine would otherwise abort the run and forfeit every
            // pending job; fall back to a safe minimal start.
            if let Some(fallback) = self.fallback_start(view) {
                return vec![fallback];
            }
        }
        vec![action]
    }
}

/// Serialised agent: configuration plus policy weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AgentCheckpoint {
    config: AgentConfig,
    num_classes: usize,
    policy_json: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrm_sim::prelude::*;
    use tcrm_workload::{SyntheticSource, WorkloadSpec};

    fn jobs_for(spec: &WorkloadSpec, cluster: &ClusterSpec, seed: u64) -> Vec<Job> {
        SyntheticSource::new(spec, cluster, seed)
            .expect("valid spec")
            .collect()
    }

    fn fresh_agent() -> DrlScheduler {
        let config = AgentConfig::small();
        let encoder = StateEncoder::new(&config, 4);
        let actions = ActionSpace::new(&config, 4);
        let policy = CategoricalPolicy::new(
            encoder.observation_dim(),
            &config.policy_hidden,
            actions.action_count(),
            42,
        );
        DrlScheduler::new(policy, config, 4)
    }

    #[test]
    fn untrained_agent_completes_a_small_workload() {
        let cluster = ClusterSpec::icpp_default();
        let jobs = jobs_for(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(20)
                .with_load(0.5),
            &cluster,
            1,
        );
        let mut agent = fresh_agent();
        let result = Simulator::new(cluster, SimConfig::default()).run(jobs, &mut agent);
        assert_eq!(result.summary.total_jobs, 20);
        // The fallback guarantees nothing is forfeited on an idle cluster.
        assert_eq!(result.summary.unfinished_jobs, 0);
    }

    #[test]
    fn greedy_agent_is_deterministic() {
        let cluster = ClusterSpec::icpp_default();
        let jobs = jobs_for(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(15)
                .with_load(0.7),
            &cluster,
            3,
        );
        let mut a = fresh_agent();
        let mut b = fresh_agent();
        let ra = Simulator::new(cluster.clone(), SimConfig::default()).run(jobs.clone(), &mut a);
        let rb = Simulator::new(cluster, SimConfig::default()).run(jobs, &mut b);
        assert_eq!(ra.summary, rb.summary);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_decisions() {
        let agent = fresh_agent();
        let dir = std::env::temp_dir().join("tcrm-agent-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        agent.save(&path).unwrap();
        let mut restored = DrlScheduler::load(&path).unwrap();
        let mut original = agent;
        // Same decisions on the same workload.
        let cluster = ClusterSpec::icpp_default();
        let jobs = jobs_for(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(10)
                .with_load(0.6),
            &cluster,
            7,
        );
        let ra =
            Simulator::new(cluster.clone(), SimConfig::default()).run(jobs.clone(), &mut original);
        let rb = Simulator::new(cluster, SimConfig::default()).run(jobs, &mut restored);
        assert_eq!(ra.summary, rb.summary);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_with_mismatched_shape_is_invalid_data() {
        let agent = fresh_agent();
        let dir = std::env::temp_dir().join("tcrm-agent-shape-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        // The policy was built for 4 classes; the checkpoint claims 3.
        let checkpoint = AgentCheckpoint {
            config: agent.config.clone(),
            num_classes: 3,
            policy_json: agent.policy.to_json().unwrap(),
        };
        std::fs::write(&path, serde_json::to_string(&checkpoint).unwrap()).unwrap();
        let err = DrlScheduler::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("3 node classes"), "{err}");
        // The same checkpoint with the right class count loads.
        agent.save(&path).unwrap();
        assert_eq!(DrlScheduler::load(&path).unwrap().num_classes, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn name_and_modes() {
        let agent = fresh_agent().with_name("drl-rigid");
        assert_eq!(agent.name(), "drl-rigid");
        let stochastic = fresh_agent().stochastic(9);
        assert!(!stochastic.greedy);
    }
}
