//! Counting-allocator proofs that the DRL decision path is allocation-free
//! once warm:
//!
//! * **`DrlScheduler::decide`** — after one warm-up replication, every
//!   decision of a replayed run makes exactly **one** heap allocation: the
//!   `Vec<Action>` the `Scheduler` trait returns. The slot ranking, the
//!   observation, the mask, the policy forward and the probability row all
//!   live in the agent's reused scratch.
//! * **`SchedulingEnv::step_into`** — after one warm-up episode, every step
//!   of a replayed episode that does not reset it makes **zero**
//!   allocations: the env reuses its simulator (whose scale-downs, like its
//!   starts and scale-ups, draw placement buffers from the engine's pool),
//!   view, slot ranking and encode/mask buffers.
//!
//! Allocations are counted per thread, so the tests may run concurrently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcrm_core::{
    ActionSpace, AgentConfig, DrlScheduler, EpisodeSource, SchedulingEnv, StateEncoder,
};
use tcrm_rl::{CategoricalPolicy, Environment};
use tcrm_sim::{Action, ClusterSpec, Job, Scheduler, SimConfig, Simulator};
use tcrm_testkit::count_allocations;
use tcrm_workload::{SyntheticSource, WorkloadSpec};

fn untrained_agent(config: AgentConfig, classes: usize) -> DrlScheduler {
    let encoder = StateEncoder::new(&config, classes);
    let actions = ActionSpace::new(&config, classes);
    let policy = CategoricalPolicy::new(
        encoder.observation_dim(),
        &config.policy_hidden,
        actions.action_count(),
        5,
    );
    DrlScheduler::new(policy, config, classes)
}

/// Drive one replication step by step, returning the allocation count of
/// every `decide` call (the stepping loop's own work is not counted).
fn decide_allocations(agent: &mut DrlScheduler, sim: &mut Simulator, jobs: &[Job]) -> Vec<u64> {
    sim.reset();
    agent.on_simulation_start();
    sim.start(jobs.to_vec());
    let mut view = sim.view();
    let mut counts = Vec::new();
    while sim.advance() {
        loop {
            sim.view_into(&mut view);
            let mut actions = Vec::new();
            counts.push(count_allocations(|| actions = agent.decide(&view)));
            let action = actions.pop().expect("one action per decision");
            if matches!(action, Action::Wait) || sim.apply(&action).is_invalid() {
                break;
            }
        }
        sim.compact_log(&view);
    }
    counts
}

#[test]
fn drl_decide_allocates_only_its_returned_vec_after_warm_up() {
    let cluster = ClusterSpec::icpp_default();
    let spec = WorkloadSpec::icpp_default()
        .with_num_jobs(60)
        .with_load(0.9);
    let jobs: Vec<Job> = SyntheticSource::new(&spec, &cluster, 4)
        .expect("valid spec")
        .collect();
    for (name, mut agent) in [
        ("greedy", untrained_agent(AgentConfig::default(), 4)),
        (
            "stochastic",
            untrained_agent(AgentConfig::default(), 4).stochastic(9),
        ),
    ] {
        let mut sim = Simulator::new(cluster.clone(), SimConfig::default());
        let warm_up = decide_allocations(&mut agent, &mut sim, &jobs);
        assert!(
            warm_up.len() > 100,
            "{name}: only {} decisions",
            warm_up.len()
        );
        let counts = decide_allocations(&mut agent, &mut sim, &jobs);
        assert_eq!(counts.len(), warm_up.len(), "{name}: replay diverged");
        for (i, &n) in counts.iter().enumerate() {
            assert_eq!(
                n,
                1,
                "{name}: decision {i} of {} made {n} allocations",
                counts.len()
            );
        }
    }
}

/// One episode of uniformly random feasible actions from `seed`, returning
/// the allocation count of every non-resetting `step_into`.
fn step_allocations(env: &mut SchedulingEnv, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obs = vec![0.0f32; env.observation_dim()];
    let mut mask = vec![false; env.action_count()];
    let mut feasible = Vec::with_capacity(mask.len());
    env.reset_into(seed, &mut obs, &mut mask);
    let mut counts = Vec::new();
    loop {
        feasible.clear();
        feasible.extend((0..mask.len()).filter(|&i| mask[i]));
        let action = feasible[rng.gen_range(0..feasible.len())];
        let mut done = false;
        counts.push(count_allocations(|| {
            done = env.step_into(action, &mut obs, &mut mask).1;
        }));
        if done {
            return counts;
        }
        assert!(counts.len() < 100_000, "episode did not terminate");
    }
}

#[test]
fn env_steps_are_allocation_free_after_warm_up() {
    let cluster = ClusterSpec::icpp_default();
    let spec = WorkloadSpec::icpp_default()
        .with_num_jobs(40)
        .with_load(0.9);
    let jobs: Vec<Job> = SyntheticSource::new(&spec, &cluster, 2)
        .expect("valid spec")
        .collect();
    let mut env = SchedulingEnv::new(
        cluster,
        SimConfig::default(),
        &AgentConfig::default(),
        EpisodeSource::Fixed(jobs),
    );
    let warm_up = step_allocations(&mut env, 8);
    assert!(warm_up.len() > 100, "only {} steps", warm_up.len());
    let counts = step_allocations(&mut env, 8);
    assert_eq!(counts.len(), warm_up.len(), "replay diverged");
    for (i, &n) in counts.iter().enumerate() {
        assert_eq!(n, 0, "step {i} of {} made {n} allocations", counts.len());
    }
}
