//! The scheduling environment: the bridge between the discrete-event
//! simulator and the reinforcement-learning substrate.
//!
//! One episode = one simulated workload. At every decision epoch the agent
//! may issue any number of start/scale actions (each is one environment
//! step); choosing *wait* — or exhausting the feasible actions — advances
//! simulated time to the next epoch. Rewards are computed from the jobs that
//! completed in between, according to the configured shaping.

use crate::action::ActionSpace;
use crate::config::AgentConfig;
use crate::reward::RewardTracker;
use crate::state::{SlotSnapshot, StateEncoder};
use tcrm_rl::{Environment, Step, Transition};
use tcrm_sim::{Action, ClusterSpec, ClusterView, Job, SimConfig, Simulator};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

/// Where episode workloads come from. (Named `EpisodeSource` to leave the
/// `WorkloadSource` name to `tcrm_workload`'s streaming trait, which the
/// `Streamed` variant accepts through any boxed source.)
pub enum EpisodeSource {
    /// Every episode replays exactly this job list (evaluation on a fixed
    /// trace).
    Fixed(Vec<Job>),
    /// Every episode generates a fresh workload from the spec with the
    /// episode seed (training).
    Generated {
        /// The workload family.
        spec: WorkloadSpec,
        /// Number of jobs per episode.
        jobs_per_episode: usize,
    },
    /// Every episode re-arms this source with the episode seed and collects
    /// its stream into that episode's job list — training on arbitrary
    /// composed scenarios (replays, transformed traces, merged streams)
    /// from one resettable source instead of a per-episode job-list
    /// configuration. The stream **must be finite** (bound endless
    /// generators with `truncate`): each `reset` drains it fully.
    Streamed(Box<dyn tcrm_workload::WorkloadSource>),
}

/// The scheduling environment (implements [`tcrm_rl::Environment`]).
pub struct SchedulingEnv {
    cluster: ClusterSpec,
    sim_config: SimConfig,
    encoder: StateEncoder,
    actions: ActionSpace,
    reward: RewardTracker,
    source: EpisodeSource,
    max_steps: usize,

    sim: Option<Simulator>,
    current_view: Option<ClusterView>,
    credited_completions: usize,
    last_time: f64,
    steps: usize,
    episode_utility: f64,
    episode_misses: usize,
    /// Actions issued at the current decision epoch (bounded so a policy
    /// cannot spin forever re-scaling jobs back and forth without letting
    /// simulated time advance).
    epoch_actions: usize,
    /// The slot ranking of `current_view`: what the next action index
    /// decodes against. Refilled with every view the env hands out.
    slots: SlotSnapshot,
    /// Reusable encode/mask buffers: [`Environment::step_into`] refreshes
    /// these in place every step instead of allocating fresh `Step` vectors.
    /// The mask is computed once per handed-out view and serves both the
    /// stay-or-advance test and the step's output.
    obs_scratch: Vec<f32>,
    mask_scratch: Vec<bool>,
}

impl SchedulingEnv {
    /// Create an environment.
    ///
    /// Rewards are credited from the simulator's per-job completion log, so
    /// the env keeps that log on its own copy of `sim_config`
    /// (`bounded_metrics` is forced off); with the log dropped every
    /// completion reward would silently read zero. A result taken with
    /// [`Self::take_result`] therefore always carries the completion
    /// records and exact slowdown percentiles.
    pub fn new(
        cluster: ClusterSpec,
        mut sim_config: SimConfig,
        agent_config: &AgentConfig,
        source: EpisodeSource,
    ) -> Self {
        sim_config.bounded_metrics = false;
        let num_classes = cluster.num_classes();
        SchedulingEnv {
            encoder: StateEncoder::new(agent_config, num_classes),
            actions: ActionSpace::new(agent_config, num_classes),
            reward: RewardTracker::new(agent_config.reward),
            max_steps: agent_config.max_steps_per_episode,
            cluster,
            sim_config,
            source,
            sim: None,
            current_view: None,
            credited_completions: 0,
            last_time: 0.0,
            steps: 0,
            episode_utility: 0.0,
            episode_misses: 0,
            epoch_actions: 0,
            slots: SlotSnapshot::default(),
            obs_scratch: Vec::new(),
            mask_scratch: Vec::new(),
        }
    }

    /// Maximum number of actions the agent may issue at one decision epoch
    /// before the environment forces time to advance: enough to start every
    /// visible queued job and re-scale every visible running job once.
    fn max_actions_per_epoch(&self) -> usize {
        self.encoder.queue_slots() + 2 * self.encoder.running_slots() + 2
    }

    /// The state encoder (shared with the inference-time agent).
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The action space (shared with the inference-time agent).
    pub fn action_space(&self) -> &ActionSpace {
        &self.actions
    }

    /// Total utility accrued in the current episode so far.
    pub fn episode_utility(&self) -> f64 {
        self.episode_utility
    }

    /// Deadline misses observed in the current episode so far.
    pub fn episode_misses(&self) -> usize {
        self.episode_misses
    }

    /// Finish the current episode (if any) and return its simulation result.
    /// Useful after an evaluation rollout on a fixed trace.
    pub fn take_result(&mut self) -> Option<tcrm_sim::SimulationResult> {
        self.current_view = None;
        self.sim.take().map(|sim| sim.finalize())
    }

    fn episode_jobs(&mut self, seed: u64) -> Vec<Job> {
        match &mut self.source {
            EpisodeSource::Fixed(jobs) => jobs.clone(),
            EpisodeSource::Generated {
                spec,
                jobs_per_episode,
            } => {
                let spec = spec.clone().with_num_jobs(*jobs_per_episode);
                SyntheticSource::new(&spec, &self.cluster, seed)
                    .expect("episode workload spec validates")
                    .collect()
            }
            EpisodeSource::Streamed(source) => {
                source.reset(seed);
                source.by_ref().collect()
            }
        }
    }

    /// Rank the view's slots and compute its feasibility mask into the
    /// env-owned scratch: once per view handed out.
    fn rank_and_mask(&mut self, view: &ClusterView) {
        self.encoder.slots_into(view, &mut self.slots);
        self.actions
            .mask_into(view, &self.slots, &mut self.mask_scratch);
    }

    /// Encode the view into the caller's buffers and copy out the mask
    /// [`Self::rank_and_mask`] computed for it, staging through the
    /// env-owned scratch so nothing is allocated once the scratch has
    /// warmed.
    fn write_step_into(&mut self, view: &ClusterView, obs: &mut [f32], mask: &mut [bool]) {
        self.encoder
            .encode_into(view, &self.slots, &mut self.obs_scratch);
        obs.copy_from_slice(&self.obs_scratch);
        mask.copy_from_slice(&self.mask_scratch);
    }

    /// A terminal step: all-zero observation, only wait feasible. The slots
    /// are still ranked for `view`, so an index decodes against the view
    /// the env holds even after the episode ended.
    fn write_terminal_into(&mut self, view: &ClusterView, obs: &mut [f32], mask: &mut [bool]) {
        self.encoder.slots_into(view, &mut self.slots);
        obs.fill(0.0);
        mask.fill(false);
        mask[self.actions.wait_index()] = true;
    }

    /// Collect the reward accrued since the previous step and update the
    /// bookkeeping. `view` is the snapshot after any time advancement.
    fn collect_reward(&mut self, view: &ClusterView) -> f64 {
        let sim = self.sim.as_ref().expect("no active episode");
        let completions = sim.completed_so_far();
        let new = &completions[self.credited_completions..];
        let dt = (view.time - self.last_time).max(0.0);
        let reward = self.reward.step_reward(new, dt, view);
        self.episode_utility += new.iter().map(|c| c.utility).sum::<f64>();
        self.episode_misses += new.iter().filter(|c| c.missed).count();
        self.credited_completions = completions.len();
        self.last_time = view.time;
        reward
    }

    /// Whether any non-wait action is feasible in the view the last
    /// [`Self::rank_and_mask`] covered.
    fn has_feasible_work(&self) -> bool {
        let wait = self.actions.wait_index();
        self.mask_scratch
            .iter()
            .enumerate()
            .any(|(i, &m)| m && i != wait)
    }
}

impl Environment for SchedulingEnv {
    fn observation_dim(&self) -> usize {
        self.encoder.observation_dim()
    }

    fn action_count(&self) -> usize {
        self.actions.action_count()
    }

    fn reset(&mut self, seed: u64) -> Step {
        let mut observation = vec![0.0; self.observation_dim()];
        let mut mask = vec![false; self.action_count()];
        self.reset_into(seed, &mut observation, &mut mask);
        Step::new(observation, mask)
    }

    fn step(&mut self, action: usize) -> Transition {
        let mut observation = vec![0.0; self.observation_dim()];
        let mut mask = vec![false; self.action_count()];
        let (reward, done) = self.step_into(action, &mut observation, &mut mask);
        Transition {
            reward,
            done,
            next: Step::new(observation, mask),
        }
    }

    fn reset_into(&mut self, seed: u64, observation: &mut [f32], mask: &mut [bool]) {
        let jobs = self.episode_jobs(seed);
        // Reuse the previous episode's simulator and its grown buffers
        // (`reset` returns it to the freshly constructed state), so steps
        // stay allocation-free from the second episode on.
        let mut sim = match self.sim.take() {
            Some(mut sim) => {
                sim.reset();
                sim
            }
            None => Simulator::new(self.cluster.clone(), self.sim_config.clone()),
        };
        sim.start(jobs);
        let alive = sim.advance();
        self.credited_completions = 0;
        self.last_time = sim.time();
        self.steps = 0;
        self.episode_utility = 0.0;
        self.episode_misses = 0;
        self.epoch_actions = 0;
        // Reuse the previous episode's view buffer when one exists.
        let mut view = self.current_view.take().unwrap_or_else(|| sim.view());
        sim.view_into(&mut view);
        sim.compact_log(&view);
        self.sim = Some(sim);
        if alive {
            self.rank_and_mask(&view);
            self.write_step_into(&view, observation, mask);
        } else {
            self.write_terminal_into(&view, observation, mask);
        }
        self.current_view = Some(view);
    }

    fn step_into(
        &mut self,
        action: usize,
        observation: &mut [f32],
        mask: &mut [bool],
    ) -> (f64, bool) {
        self.steps += 1;
        // The episode's single view buffer is taken out, refreshed in place
        // after each simulator interaction (clear-and-refill, no clone), and
        // put back before returning.
        let mut view = self.current_view.take().expect("step called before reset");
        let decoded = self
            .actions
            .decode(action, &view, &self.slots)
            .unwrap_or(Action::Wait);
        let is_wait = matches!(decoded, Action::Wait);
        let outcome = {
            let sim = self.sim.as_mut().expect("no active episode");
            let outcome = sim.apply(&decoded);
            // One refill per step, right after the action: nothing changes
            // the simulation before the deadlock guard below reads it. One
            // retained view per episode: dropping the consumed deltas here
            // keeps the engine's change log bounded by one epoch over
            // arbitrarily long episodes.
            sim.view_into(&mut view);
            sim.compact_log(&view);
            outcome
        };

        // Decide whether to stay at this decision epoch (more scheduling to
        // do) or advance simulated time.
        self.epoch_actions += 1;
        let stay =
            !is_wait && !outcome.is_invalid() && self.epoch_actions < self.max_actions_per_epoch();
        if stay {
            self.rank_and_mask(&view);
            if self.has_feasible_work() {
                // Stay at the epoch: reward only reflects shaping on the new
                // snapshot (no time has passed).
                let reward = self.collect_reward(&view);
                self.write_step_into(&view, observation, mask);
                self.current_view = Some(view);
                return (reward, false);
            }
        }

        // Deadlock guard: nothing is running, nothing will ever arrive, and
        // the agent is not starting the remaining pending jobs (or cannot).
        // The simulation state can never change again, so end the episode and
        // forfeit the pending jobs rather than spinning on empty decision
        // epochs.
        if self.sim.as_ref().expect("no active episode").is_stalled() {
            let reward = self.collect_reward(&view);
            self.write_terminal_into(&view, observation, mask);
            self.current_view = Some(view);
            return (reward, true);
        }

        let alive = {
            let sim = self.sim.as_mut().expect("no active episode");
            sim.advance()
        };
        self.epoch_actions = 0;
        {
            let sim = self.sim.as_mut().expect("no active episode");
            sim.view_into(&mut view);
            sim.compact_log(&view);
        }
        let reward = self.collect_reward(&view);
        let truncated = self.steps >= self.max_steps;
        let done = !alive || truncated;
        if done {
            self.write_terminal_into(&view, observation, mask);
        } else {
            self.rank_and_mask(&view);
            self.write_step_into(&view, observation, mask);
        }
        self.current_view = Some(view);
        (reward, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcrm_sim::{JobClass, JobId, ResourceVector, TimeUtility};

    fn tiny_env(jobs: usize) -> SchedulingEnv {
        let spec = WorkloadSpec::tiny();
        SchedulingEnv::new(
            ClusterSpec::tiny(),
            SimConfig::default(),
            &AgentConfig::small(),
            EpisodeSource::Generated {
                spec,
                jobs_per_episode: jobs,
            },
        )
    }

    /// Run an episode with uniformly random feasible actions.
    fn random_episode(env: &mut SchedulingEnv, seed: u64) -> (f64, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut step = env.reset(seed);
        let mut total_reward = 0.0;
        let mut steps = 0;
        loop {
            let feasible: Vec<usize> = step
                .action_mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i)
                .collect();
            let action = feasible[rng.gen_range(0..feasible.len())];
            let t = env.step(action);
            total_reward += t.reward;
            steps += 1;
            if t.done {
                break;
            }
            step = t.next;
            assert!(steps < 10_000, "episode did not terminate");
        }
        (total_reward, steps)
    }

    #[test]
    fn dims_are_consistent() {
        let env = tiny_env(5);
        assert_eq!(env.observation_dim(), env.encoder().observation_dim());
        assert_eq!(env.action_count(), env.action_space().action_count());
    }

    #[test]
    fn reset_produces_valid_initial_step() {
        let mut env = tiny_env(5);
        let step = env.reset(1);
        assert_eq!(step.observation.len(), env.observation_dim());
        assert_eq!(step.action_mask.len(), env.action_count());
        assert!(step.action_mask[env.action_space().wait_index()]);
        assert!(step.feasible_actions() >= 1);
    }

    #[test]
    fn random_episodes_terminate_and_account_all_jobs() {
        let mut env = tiny_env(8);
        let (_, steps) = random_episode(&mut env, 3);
        assert!(steps >= 8, "at least one decision per job");
        let result = env.take_result().expect("episode result");
        assert_eq!(result.summary.total_jobs, 8);
        assert_eq!(
            result.summary.completed_jobs + result.summary.unfinished_jobs,
            8
        );
    }

    #[test]
    fn completion_rewards_survive_bounded_metrics() {
        // Rewards come from the simulator's per-job completion log; a
        // `bounded_metrics` config (which drops that log) must not zero
        // them. Same random 8-job episode under both settings.
        let mut outcomes = Vec::new();
        for bounded in [false, true] {
            let mut cfg = SimConfig::default();
            cfg.bounded_metrics = bounded;
            let mut env = SchedulingEnv::new(
                ClusterSpec::tiny(),
                cfg,
                &AgentConfig::small(),
                EpisodeSource::Generated {
                    spec: WorkloadSpec::tiny(),
                    jobs_per_episode: 8,
                },
            );
            let (reward, _) = random_episode(&mut env, 3);
            let utility = env.episode_utility();
            let summary = env.take_result().expect("episode result").summary;
            assert_eq!(summary.completed_jobs, 8);
            assert_eq!(summary.total_utility, utility, "bounded = {bounded}");
            outcomes.push((reward, utility));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        let (reward, utility) = outcomes[0];
        assert!((reward - 1.465).abs() < 5e-4, "total reward {reward}");
        assert!((utility - 5.505).abs() < 5e-4, "episode utility {utility}");
    }

    #[test]
    fn episodes_are_seed_deterministic() {
        let mut env = tiny_env(6);
        let a = random_episode(&mut env, 11);
        let mut env2 = tiny_env(6);
        let b = random_episode(&mut env2, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn always_wait_policy_finishes_episode() {
        let mut env = tiny_env(4);
        let wait = env.action_space().wait_index();
        let mut step = env.reset(2);
        let mut steps = 0;
        loop {
            let t = env.step(wait);
            steps += 1;
            if t.done {
                break;
            }
            step = t.next;
            assert!(steps < 5_000);
        }
        let _ = step;
        // Nothing was ever scheduled, so nothing completed and every job was
        // forfeited.
        assert_eq!(env.episode_utility(), 0.0);
        let result = env.take_result().unwrap();
        assert_eq!(result.summary.completed_jobs, 0);
        assert_eq!(result.summary.unfinished_jobs, 4);
    }

    #[test]
    fn good_actions_earn_more_reward_than_waiting() {
        // A single feasible job: starting it earns utility; waiting forfeits.
        let job = Job::builder(JobId(0), JobClass::Batch)
            .arrival(0.0)
            .total_work(10.0)
            .demand_per_unit(ResourceVector::of(1.0, 2.0, 0.0, 0.1))
            .parallelism_range(1, 2)
            .deadline(100.0)
            .utility(TimeUtility::hard(1.0))
            .build();
        let mk = || {
            SchedulingEnv::new(
                ClusterSpec::tiny(),
                SimConfig::default(),
                &AgentConfig::small(),
                EpisodeSource::Fixed(vec![job.clone()]),
            )
        };
        // Greedy: pick the first feasible non-wait action at every step.
        let mut env = mk();
        let mut step = env.reset(0);
        let mut greedy_reward = 0.0;
        for _ in 0..100 {
            let wait = env.action_space().wait_index();
            let action = step
                .action_mask
                .iter()
                .enumerate()
                .position(|(i, &m)| m && i != wait)
                .unwrap_or(wait);
            let t = env.step(action);
            greedy_reward += t.reward;
            if t.done {
                break;
            }
            step = t.next;
        }
        // Wait-only forfeits the job.
        let mut env = mk();
        env.reset(0);
        let mut wait_reward = 0.0;
        for _ in 0..100 {
            let t = env.step(env.action_space().wait_index());
            wait_reward += t.reward;
            if t.done {
                break;
            }
        }
        assert!(
            greedy_reward > wait_reward + 0.5,
            "starting the job ({greedy_reward}) should beat waiting ({wait_reward})"
        );
    }

    #[test]
    fn buffered_step_into_matches_allocating_step() {
        // The native `reset_into`/`step_into` overrides (the VecEnv hot path)
        // must be observably identical to the `Step`/`Transition` API —
        // including when a finished environment is reseated onto a new
        // episode in place, as the pool does with every slot.
        let mut alloc_env = tiny_env(6);
        let mut into_env = tiny_env(6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut obs = vec![0.0f32; into_env.observation_dim()];
        let mut mask = vec![false; into_env.action_count()];
        let seeds = [21u64, 22, 40, 3];
        for &seed in &seeds {
            let mut step = alloc_env.reset(seed);
            into_env.reset_into(seed, &mut obs, &mut mask);
            assert_eq!(step.observation, obs, "reset diverged (seed {seed})");
            assert_eq!(step.action_mask, mask);
            let mut done = false;
            for _ in 0..500 {
                let feasible: Vec<usize> = step
                    .action_mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| i)
                    .collect();
                let action = feasible[rng.gen_range(0..feasible.len())];
                let t = alloc_env.step(action);
                let (reward, into_done) = into_env.step_into(action, &mut obs, &mut mask);
                assert_eq!(t.reward, reward);
                assert_eq!(t.done, into_done);
                assert_eq!(t.next.observation, obs);
                assert_eq!(t.next.action_mask, mask);
                if t.done {
                    done = true;
                    break;
                }
                step = t.next;
            }
            assert!(done, "episode with seed {seed} never finished");
        }
    }

    #[test]
    fn fixed_source_replays_identical_workloads() {
        let job = Job::builder(JobId(0), JobClass::Stream)
            .arrival(0.0)
            .total_work(5.0)
            .deadline(50.0)
            .build();
        let mut env = SchedulingEnv::new(
            ClusterSpec::tiny(),
            SimConfig::default(),
            &AgentConfig::small(),
            EpisodeSource::Fixed(vec![job]),
        );
        let a = env.reset(1);
        let b = env.reset(99);
        assert_eq!(a.observation, b.observation);
    }
}
