//! The DRL decision against its dense definition on realistic traffic.
//!
//! `DrlScheduler::select_action` skips the zero observation entries in the
//! policy's first layer and reads the greedy action off the logits without
//! a softmax; both shortcuts must return exactly the index of the dense
//! reference path: `CategoricalPolicy::probabilities` (a full forward and
//! the masked softmax), then `argmax` (greedy) or `sample_categorical` on
//! a copy of the agent's action RNG stream (stochastic). The traffic is
//! shaped like the evaluation sweep: `icpp_default`, 60 jobs, loads 0.5,
//! 0.9 and 1.1, three untrained policies, every decision of every run
//! checked.
//!
//! A second check plants a NaN in a first-layer weight row whose input is
//! zero in every observation of those runs: the dense forward turns it into
//! NaN logits, so the agent must notice the non-finite weight and keep the
//! dense path to reproduce the NaN-driven choice.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcrm_core::state::SlotSnapshot;
use tcrm_core::{ActionSpace, AgentConfig, DrlScheduler, StateEncoder};
use tcrm_rl::{argmax, greedy_shortcut, sample_categorical, CategoricalPolicy};
use tcrm_sim::{Action, ClusterSpec, ClusterView, Job, Scheduler, SimConfig, Simulator};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

const LOADS: [f64; 3] = [0.5, 0.9, 1.1];
const POLICY_SEEDS: [u64; 3] = [1, 2, 3];

fn cluster() -> ClusterSpec {
    ClusterSpec::icpp_default()
}

fn jobs(load: f64) -> Vec<Job> {
    let spec = WorkloadSpec::icpp_default()
        .with_num_jobs(60)
        .with_load(load);
    SyntheticSource::new(&spec, &cluster(), 1)
        .expect("valid spec")
        .collect()
}

fn untrained_policy(seed: u64) -> CategoricalPolicy {
    let (config, classes) = (AgentConfig::default(), cluster().num_classes());
    CategoricalPolicy::new(
        StateEncoder::new(&config, classes).observation_dim(),
        &config.policy_hidden,
        ActionSpace::new(&config, classes).action_count(),
        seed,
    )
}

/// What one replayed run saw.
#[derive(Debug, Default)]
struct Tally {
    decisions: usize,
    /// Nonzero observation entries, summed over decisions.
    nonzero_inputs: usize,
    /// Decisions whose greedy choice needed the softmax fallback.
    greedy_fallbacks: usize,
    /// Observation entries that were nonzero at least once.
    ever_nonzero: Vec<bool>,
    /// The chosen indices, in order.
    choices: Vec<usize>,
}

/// Replay one run decision by decision: at each decision point the agent's
/// `select_action` must equal the dense reference, and the decoded action
/// is applied until the policy waits or an action is rejected (at most
/// `queue_slots + running_slots + 1` actions per epoch, as in `decide`).
/// `shadow` mirrors the agent's action RNG for a stochastic agent. The run
/// stops early after `limit` decisions.
fn replay(
    agent: &mut DrlScheduler,
    reference: &CategoricalPolicy,
    mut shadow: Option<StdRng>,
    jobs: &[Job],
    limit: usize,
) -> Tally {
    let config = AgentConfig::default();
    let classes = cluster().num_classes();
    let (encoder, actions) = (
        StateEncoder::new(&config, classes),
        ActionSpace::new(&config, classes),
    );
    let per_epoch = config.queue_slots + config.running_slots + 1;
    let mut tally = Tally {
        ever_nonzero: vec![false; encoder.observation_dim()],
        ..Tally::default()
    };
    let (mut slots, mut obs, mut mask) = (SlotSnapshot::default(), Vec::new(), Vec::new());
    let mut sim = Simulator::new(cluster(), SimConfig::default());
    agent.on_simulation_start();
    sim.start(jobs.to_vec());
    let mut view: ClusterView = sim.view();
    while tally.decisions < limit && sim.advance() {
        for _ in 0..per_epoch {
            sim.view_into(&mut view);
            encoder.slots_into(&view, &mut slots);
            encoder.encode_into(&view, &slots, &mut obs);
            actions.mask_into(&view, &slots, &mut mask);
            let probs = reference.probabilities(&obs, &mask);
            let expected = match shadow.as_mut() {
                None => argmax(&probs),
                Some(rng) => sample_categorical(&probs, rng).0,
            };
            let logits = reference.logits(&obs);
            tally.greedy_fallbacks += usize::from(greedy_shortcut(&logits, &mask).is_none());
            for (seen, &x) in tally.ever_nonzero.iter_mut().zip(&obs) {
                *seen |= x != 0.0;
            }
            tally.nonzero_inputs += obs.iter().filter(|&&x| x != 0.0).count();
            let index = agent.select_action(&view);
            assert_eq!(
                index, expected,
                "decision {} at t = {}: agent {index}, dense reference {expected}",
                tally.decisions, view.time
            );
            tally.decisions += 1;
            tally.choices.push(index);
            let action = actions.decode(index, &view, &slots).unwrap_or(Action::Wait);
            if matches!(action, Action::Wait) || sim.apply(&action).is_invalid() {
                break;
            }
        }
        sim.compact_log(&view);
    }
    tally
}

/// A greedy agent and a stochastic one (seeded like the reference stream)
/// over the same policy.
fn agents(policy: &CategoricalPolicy, seed: u64) -> [(DrlScheduler, Option<StdRng>); 2] {
    let (config, classes) = (AgentConfig::default(), cluster().num_classes());
    let greedy = DrlScheduler::new(policy.clone(), config.clone(), classes);
    let stochastic = DrlScheduler::new(policy.clone(), config, classes).stochastic(seed);
    [
        (greedy, None),
        (stochastic, Some(StdRng::seed_from_u64(seed))),
    ]
}

#[test]
fn every_decision_equals_the_dense_reference_on_sweep_shaped_traffic() {
    let (mut greedy_decisions, mut nonzero, mut fallbacks, mut stochastic_decisions) = (0, 0, 0, 0);
    for load in LOADS {
        let jobs = jobs(load);
        for seed in POLICY_SEEDS {
            let policy = untrained_policy(seed);
            for (mut agent, shadow) in agents(&policy, seed) {
                let stochastic = shadow.is_some();
                let tally = replay(&mut agent, &policy, shadow, &jobs, usize::MAX);
                assert!(tally.decisions > 50, "load {load} seed {seed}: {tally:?}");
                if stochastic {
                    stochastic_decisions += tally.decisions;
                } else {
                    greedy_decisions += tally.decisions;
                    nonzero += tally.nonzero_inputs;
                    fallbacks += tally.greedy_fallbacks;
                }
            }
        }
    }
    // The tallies behind the first-layer rows kept per decision and the
    // greedy fallback rate; `--nocapture` shows them.
    eprintln!(
        "greedy decisions {greedy_decisions}: {:.1} nonzero inputs per decision, \
         {fallbacks} softmax fallbacks; stochastic decisions {stochastic_decisions}",
        nonzero as f64 / greedy_decisions as f64
    );
    assert!(greedy_decisions > 1_000 && stochastic_decisions > 1_000);
}

#[test]
fn a_nan_weight_on_an_always_zero_input_keeps_the_dense_path() {
    let jobs = jobs(0.9);
    let policy = untrained_policy(1);
    let [(mut greedy, _), _] = agents(&policy, 1);
    let clean = replay(&mut greedy, &policy, None, &jobs, usize::MAX);
    let zero_input = clean
        .ever_nonzero
        .iter()
        .position(|&seen| !seen)
        .expect("some observation entry is zero throughout the run");
    let mut poisoned = policy.clone();
    let first = &mut poisoned.network_mut().layers_mut()[0].weights;
    first.set(zero_input, 0, f32::NAN);
    for (mut agent, shadow) in agents(&poisoned, 1) {
        // The dense reference propagates `0·NaN` into every logit; the
        // agent must choose as it does.
        let greedy = shadow.is_none();
        // On NaN logits every decision picks the same index, so the run
        // can stall; it is cut at the clean run's length.
        let tally = replay(&mut agent, &poisoned, shadow, &jobs, clean.decisions);
        assert!(tally.decisions > 50, "{tally:?}");
        // The NaN really changes the choices: a forward that skipped the
        // zero input would have chosen exactly as the clean policy.
        if greedy {
            assert_ne!(tally.choices, clean.choices);
        }
    }
}
