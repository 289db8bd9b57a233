//! `train_ppo`: PPO iterations through `Trainer::train_in_place_vec` on a
//! 16-slot `VecEnv` — the `train_throughput/vec_env/16` configuration: the
//! tiny cluster, [128, 64] networks, 16 episodes of 10 jobs per iteration,
//! no parallel stepping. The only workload where `nn` and `rl` dominate.
//!
//! The learner is wrapped in a delegating `Algorithm` and each environment
//! in a delegating `Environment`. Untraced, they sample decision latency —
//! from the trainer fetching the policy for a lockstep step to the first
//! environment step that applies its actions (batched forward, masked
//! softmax and sampling) — and count deadline misses. Traced, they also
//! record `rl.update`, `rl.value` and `core.env_step` spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tcrm_core::{AgentConfig, EpisodeSource, SchedulingEnv};
use tcrm_nn::Matrix;
use tcrm_rl::{
    Algorithm, CategoricalPolicy, Environment, Ppo, PpoConfig, RolloutBatch, Step, Trainer,
    TrainerConfig, Transition, UpdateStats, ValueNet, VecEnv,
};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::WorkloadSpec;

use crate::timing::Sink;
use crate::trace::{self, span, Collected};
use crate::{digest, measure_for, ratio, repeat_setup, save_spans, Opts, Outcome, Tally};

const ENVS: usize = 16;
const EPISODES_PER_ITERATION: usize = 16;
const JOBS_PER_EPISODE: usize = 10;
const MAX_STEPS: usize = 300;
/// Iterations per measured repetition, each repetition starting from the
/// same untrained learner so its results repeat exactly.
const ITERATIONS: usize = 16;

/// State shared by the learner and environment wrappers.
struct Probe {
    epoch: Instant,
    /// ns since `epoch` (+1) when the trainer last fetched the policy; 0
    /// when no decision is open.
    decision_open: AtomicU64,
    misses: AtomicU64,
    episodes: AtomicU64,
    sink: Sink,
}

impl Probe {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }
}

/// A delegating environment: closes the open decision, counts finished
/// episodes' misses, and records `core.env_step` spans.
struct ProbedEnv {
    inner: SchedulingEnv,
    probe: Arc<Probe>,
}

impl ProbedEnv {
    fn finished(&self, done: bool) {
        if done {
            let p = &self.probe;
            p.misses
                .fetch_add(self.inner.episode_misses() as u64, Ordering::Relaxed);
            p.episodes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Environment for ProbedEnv {
    fn observation_dim(&self) -> usize {
        self.inner.observation_dim()
    }

    fn action_count(&self) -> usize {
        self.inner.action_count()
    }

    fn reset(&mut self, seed: u64) -> Step {
        let _s = span("core.env_step");
        self.inner.reset(seed)
    }

    fn step(&mut self, action: usize) -> Transition {
        let t = {
            let _s = span("core.env_step");
            self.inner.step(action)
        };
        self.finished(t.done);
        t
    }

    fn reset_into(&mut self, seed: u64, observation: &mut [f32], mask: &mut [bool]) {
        let _s = span("core.env_step");
        self.inner.reset_into(seed, observation, mask)
    }

    fn step_into(
        &mut self,
        action: usize,
        observation: &mut [f32],
        mask: &mut [bool],
    ) -> (f64, bool) {
        let opened = self.probe.decision_open.swap(0, Ordering::Relaxed);
        if opened != 0 {
            let ns = self.probe.now().saturating_sub(opened);
            self.probe.sink.push(ns.min(u32::MAX as u64) as u32);
        }
        let (reward, done) = {
            let _s = span("core.env_step");
            self.inner.step_into(action, observation, mask)
        };
        self.finished(done);
        (reward, done)
    }
}

/// A delegating learner: opens a decision when the trainer fetches the
/// policy, and records `rl.update` / `rl.value` spans.
struct ProbedPpo {
    inner: Ppo,
    probe: Arc<Probe>,
}

impl Algorithm for ProbedPpo {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn policy(&self) -> &CategoricalPolicy {
        self.probe
            .decision_open
            .store(self.probe.now(), Ordering::Relaxed);
        self.inner.policy()
    }

    fn policy_mut(&mut self) -> &mut CategoricalPolicy {
        self.inner.policy_mut()
    }

    fn value_estimate(&self, obs: &[f32]) -> f32 {
        self.inner.value_estimate(obs)
    }

    fn value_estimates_into(&mut self, observations: &Matrix, out: &mut Vec<f32>) {
        let _s = span("rl.value");
        self.inner.value_estimates_into(observations, out)
    }

    fn update_batch(&mut self, batch: &mut RolloutBatch) -> UpdateStats {
        let _s = span("rl.update");
        self.inner.update_batch(batch)
    }
}

fn make_env(probe: &Arc<Probe>) -> ProbedEnv {
    ProbedEnv {
        inner: SchedulingEnv::new(
            ClusterSpec::tiny(),
            SimConfig::default(),
            // Paper-scale networks ([128, 64] hidden) on the small slot
            // layout.
            &AgentConfig {
                max_steps_per_episode: MAX_STEPS,
                ..AgentConfig::small()
            },
            EpisodeSource::Generated {
                spec: WorkloadSpec::tiny(),
                jobs_per_episode: JOBS_PER_EPISODE,
            },
        ),
        probe: Arc::clone(probe),
    }
}

fn make_ppo(obs_dim: usize, action_count: usize, seed: u64) -> Ppo {
    Ppo::new(
        CategoricalPolicy::new(obs_dim, &[128, 64], action_count, seed),
        ValueNet::new(obs_dim, &[128, 64], seed + 1),
        PpoConfig {
            epochs: 2,
            minibatch_size: 256,
            seed,
            ..Default::default()
        },
    )
}

struct State {
    pool: VecEnv<ProbedEnv>,
    initial: Ppo,
    probe: Arc<Probe>,
    reference: u64,
}

impl State {
    /// `ITERATIONS` PPO iterations from the untrained learner; returns the
    /// per-iteration update stats.
    fn repetition(&mut self, seed: u64) -> Vec<UpdateStats> {
        let mut learner = ProbedPpo {
            inner: self.initial.clone(),
            probe: Arc::clone(&self.probe),
        };
        let mut trainer = Trainer::new(TrainerConfig {
            episodes_per_iteration: EPISODES_PER_ITERATION,
            iterations: ITERATIONS,
            max_steps_per_episode: MAX_STEPS,
            seed,
        });
        let history = trainer.train_in_place_vec(&mut self.pool, &mut learner);
        history.iterations.iter().map(|it| it.update).collect()
    }
}

fn setup(seed: u64, sink: &Sink) -> State {
    let probe = Arc::new(Probe {
        epoch: Instant::now(),
        decision_open: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        episodes: AtomicU64::new(0),
        sink: sink.clone(),
    });
    let pool = VecEnv::new((0..ENVS).map(|_| make_env(&probe)).collect());
    let initial = make_ppo(pool.observation_dim(), pool.action_count(), seed);
    let mut state = State {
        pool,
        initial,
        probe,
        reference: 0,
    };
    // Warm-up: one repetition; its stats are the reference.
    state.reference = digest(&state.repetition(seed));
    state
}

fn check(stats: &[UpdateStats], reference: u64, tally: &mut Tally) -> usize {
    let finite = stats.iter().all(|s| {
        [s.policy_loss, s.value_loss, s.entropy, s.grad_norm]
            .iter()
            .all(|v| v.is_finite())
    });
    tally.check(finite, || format!("non-finite update stats: {stats:?}"));
    tally.check(digest(&stats) == reference, || {
        "update stats or step counts differ from the warm-up's".to_string()
    });
    stats.iter().map(|s| s.steps).sum()
}

pub fn run(opts: Opts) -> Outcome {
    let sink = Sink::new();
    let (mut state, setup) = repeat_setup(|| setup(opts.seed, &sink));
    state.probe.misses.store(0, Ordering::Relaxed);
    state.probe.episodes.store(0, Ordering::Relaxed);
    let mut tally = Tally::default();

    let mut measured = measure_for(opts.untraced_budget(), 1, &sink, || {
        let stats = state.repetition(opts.seed);
        check(&stats, state.reference, &mut tally) as f64
    });
    let jobs = state.probe.episodes.load(Ordering::Relaxed) * JOBS_PER_EPISODE as u64;
    measured.miss_rate = ratio(
        state.probe.misses.load(Ordering::Relaxed) as f64,
        jobs as f64,
    );

    let mut layers = Vec::new();
    if opts.trace {
        trace::install(0, Instant::now());
        let (mut traced_wall, mut traced_steps) = (0.0f64, 0usize);
        let started = Instant::now();
        while traced_wall == 0.0 || started.elapsed() < opts.traced_budget() {
            let t0 = Instant::now();
            let stats = {
                let _run = span("train.run");
                state.repetition(opts.seed)
            };
            traced_wall += t0.elapsed().as_secs_f64();
            traced_steps += check(&stats, state.reference, &mut tally);
        }
        let spans = Collected {
            tracers: trace::uninstall().into_iter().collect(),
        };
        let run = spans.agg("train.run");
        let update = spans.agg("rl.update");
        let value = spans.agg("rl.value");
        let env = spans.agg("core.env_step");
        let share = |ns: u64| ratio(ns as f64, run.total_ns as f64);
        layers.extend([
            (
                "rl.update.ms_per_call".to_string(),
                update.ns_per_call() / 1e6,
            ),
            ("rl.update.share".into(), share(update.total_ns)),
            ("rl.value.share".into(), share(value.total_ns)),
            ("core.env_step.ns_per_call".into(), env.ns_per_call()),
            ("core.env_step.share".into(), share(env.total_ns)),
            ("rl.collect_other.share".into(), share(run.self_ns)),
            (
                "trace.overhead_ratio".into(),
                ratio(
                    traced_wall / traced_steps.max(1) as f64,
                    measured.secs_per_unit(),
                ),
            ),
        ]);
        save_spans("train_ppo", &spans, &mut tally);
    }
    Outcome {
        tally,
        setup,
        measured,
        decisions: sink,
        layers,
    }
}
