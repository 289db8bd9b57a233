//! `engine_dense`: the `sim_scale` 256-node shape. Traces of 4096 jobs at
//! load 0.95 on `ClusterSpec::icpp_scaled(256/24)` with a 5 s decision
//! interval; EDF and greedy-elastic each run through
//! `Simulator::run_reusing` on a reused simulator and view, on one thread.
//! Decision rounds dominate the wall time; the traces are built during
//! set-up, so the workload layer does almost no measured work.
//!
//! At load 0.95 the queue's depth, and with it the cost of a decision
//! round, differs a lot from one trace to the next, so a measurement runs
//! whole cycles over [`TRACES`] traces, one repetition per (policy, trace):
//! the first trace from the run's seed itself (seed 11 is `sim_scale`'s
//! trace), the others from seeds derived from it.
//!
//! The traced run replaces `run_reusing` with a stepwise driver over the
//! public `start` / `advance` / `view_into` / `decide` / `apply` /
//! `compact_log` API that keeps `decision_rounds_hooked`'s round semantics,
//! with a span around each call, on the first trace. Its `Summary` must
//! equal `run_reusing`'s.

use std::time::Instant;

use tcrm_baselines::by_name;
use tcrm_sim::{
    Action, ClusterSpec, ClusterView, EpochKind, Job, Scheduler, SimConfig, Simulator, Summary,
};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

use crate::timing::{Sink, Timed};
use crate::trace::{self, span, Collected};
use crate::{
    digest, measure_for, ratio, repeat_setup, save_spans, Opts, Outcome, Tally, ENGINE_POLICIES,
};

const JOBS: usize = 4096;
const NODES: usize = 256;
const LOAD: f64 = 0.95;
/// Traces per measurement cycle.
const TRACES: u64 = 16;
/// The policy whose decision latency is reported.
const TIMED_POLICY: &str = "edf";

/// Seed of trace `i`: the run's seed for the first, a splitmix64 step
/// away for the others.
fn trace_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn sim_config() -> SimConfig {
    SimConfig {
        decision_interval: Some(5.0),
        max_sim_time: 1e7,
        ..SimConfig::default()
    }
}

/// Exact counts of one stepwise run; they must repeat run to run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    arrival: u64,
    completion: u64,
    periodic: u64,
    rounds: u64,
    /// Actions returned by `decide`, `Wait` included.
    returned: u64,
    /// Non-`Wait` actions emitted.
    emitted: u64,
    /// Emitted actions that changed state.
    accepted: u64,
    /// View rows (pending + running) over every refill.
    rows: u64,
}

/// One policy's reused simulator, view and schedulers.
struct Lane {
    policy: &'static str,
    sim: Simulator,
    view: ClusterView,
    /// Times each `decide` in the untraced measurement; EDF's lane only, so
    /// the reported decision latency is one policy's, not a mixture whose
    /// median shifts with the two policies' share of the samples.
    timed: Option<Timed<Box<dyn Scheduler>>>,
    /// Driven by the warm-up, the stepwise driver and the untraced runs
    /// of the untimed lane.
    plain: Box<dyn Scheduler>,
    /// Summary digest per trace, set by the first run of that trace; every
    /// later run must reproduce it.
    references: Vec<Option<u64>>,
    tracer: Option<trace::Tracer>,
}

impl Lane {
    fn check(&mut self, trace: usize, summary: &Summary, what: &str, tally: &mut Tally) {
        let found = digest(summary);
        let expected = *self.references[trace].get_or_insert(found);
        tally.check(found == expected, || {
            format!(
                "{} {what} summary of trace {trace} differs from its first run's",
                self.policy
            )
        });
    }
}

struct State {
    traces: Vec<Vec<Job>>,
    lanes: Vec<Lane>,
}

fn setup(seed: u64, sink: &Sink) -> State {
    let cluster = ClusterSpec::icpp_scaled(NODES as f64 / 24.0);
    assert_eq!(cluster.num_nodes(), NODES, "scale factor drifted");
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(JOBS)
        .with_load(LOAD);
    let traces: Vec<Vec<Job>> = (0..TRACES)
        .map(|i| {
            SyntheticSource::new(&workload, &cluster, trace_seed(seed, i))
                .expect("valid workload spec")
                .collect()
        })
        .collect();
    let lanes = ENGINE_POLICIES
        .iter()
        .map(|&policy| {
            let mut sim = Simulator::new(cluster.clone(), sim_config());
            let mut view = sim.view();
            let mut plain = by_name(policy, seed).expect("bundled baseline");
            // Warm-up on the first trace: fills the simulator's and view's
            // buffers and gives that trace's reference result.
            let summary = sim.run_reusing(traces[0].clone(), &mut plain, &mut view);
            let mut references = vec![None; traces.len()];
            references[0] = Some(digest(&summary));
            Lane {
                policy,
                sim,
                view,
                timed: (policy == TIMED_POLICY).then(|| {
                    Timed::new(
                        by_name(policy, seed).expect("bundled baseline"),
                        sink.clone(),
                    )
                }),
                plain,
                references,
                tracer: None,
            }
        })
        .collect();
    State { traces, lanes }
}

/// One run through the public stepwise API with the round semantics of
/// `Simulator::decision_rounds_hooked` and the drive loop of `run_reusing`.
/// Spans are recorded when a tracer is installed.
fn stepwise(lane: &mut Lane, jobs: &[Job]) -> (Summary, Counts) {
    let _run = span("sim.run");
    let mut c = Counts::default();
    let sim = &mut lane.sim;
    let max_rounds = sim.config().max_decisions_per_epoch;
    sim.reset();
    lane.plain.on_simulation_start();
    sim.start(jobs.to_vec());
    loop {
        let alive = {
            let _s = span("sim.advance");
            sim.advance()
        };
        if !alive {
            break;
        }
        match sim.last_epoch() {
            EpochKind::Arrival(_) => c.arrival += 1,
            EpochKind::Completion(_) => c.completion += 1,
            EpochKind::Periodic => c.periodic += 1,
        }
        let mut epoch_changed_state = false;
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > max_rounds {
                break;
            }
            {
                let _s = span("sim.view");
                sim.view_into(&mut lane.view);
            }
            c.rows += (lane.view.pending.len() + lane.view.running.len()) as u64;
            c.rounds += 1;
            let actions = {
                let _s = span("baselines.decide");
                lane.plain.decide(&lane.view)
            };
            c.returned += actions.len() as u64;
            if actions.is_empty() {
                break;
            }
            let mut any_change = false;
            let mut all_wait = true;
            for action in &actions {
                if !matches!(action, Action::Wait) {
                    all_wait = false;
                    c.emitted += 1;
                }
                let outcome = {
                    let _s = span("sim.apply");
                    sim.apply(action)
                };
                if outcome.changed_state() {
                    any_change = true;
                    c.accepted += 1;
                }
            }
            epoch_changed_state |= any_change;
            if all_wait || !any_change {
                break;
            }
        }
        {
            let _s = span("sim.compact");
            sim.compact_log(&lane.view);
        }
        // The drive loop's deadlock guard.
        if !epoch_changed_state
            && sim.running_count() == 0
            && sim.buffered_arrivals() == 0
            && sim.pending_count() > 0
        {
            sim.abort_service();
        }
    }
    (sim.finish_service(), c)
}

/// Per-layer values of one policy's traced runs.
fn layer_metrics(policy: &str, spans: &Collected, c: &Counts, out: &mut Vec<(String, f64)>) {
    let run = spans.agg("sim.run").total_ns as f64;
    let mut put = |name: &str, value: f64| out.push((format!("{name}.{policy}"), value));
    for (layer, span_name) in [
        ("sim.advance", "sim.advance"),
        ("sim.view", "sim.view"),
        ("baselines.decide", "baselines.decide"),
        ("sim.apply", "sim.apply"),
    ] {
        let agg = spans.agg(span_name);
        put(&format!("{layer}.ns_per_call"), agg.ns_per_call());
        put(&format!("{layer}.share"), ratio(agg.total_ns as f64, run));
    }
    put(
        "sim.view.rows_per_call",
        ratio(c.rows as f64, c.rounds as f64),
    );
    put(
        "baselines.decide.actions_per_call",
        ratio(c.returned as f64, c.rounds as f64),
    );
    put(
        "sim.apply.accept_ratio",
        ratio(c.accepted as f64, c.emitted as f64),
    );
    put(
        "sim.compact.ns_per_call",
        spans.agg("sim.compact").ns_per_call(),
    );
    put("sim.epochs.arrival", c.arrival as f64);
    put("sim.epochs.completion", c.completion as f64);
    put("sim.epochs.periodic", c.periodic as f64);
    put("sim.rounds", c.rounds as f64);
    put("sim.actions.emitted", c.emitted as f64);
    put("sim.actions.accepted", c.accepted as f64);
}

pub fn run(opts: Opts) -> Outcome {
    let sink = Sink::new();
    let (mut state, setup) = repeat_setup(|| setup(opts.seed, &sink));
    let mut tally = Tally::default();

    // Untraced: one repetition is one `run_reusing` of one trace on one
    // lane, timing each `decide`; the measurement ends after whole cycles
    // over every (lane, trace) pair.
    let (mut miss_sum, mut runs) = (0.0f64, 0usize);
    let (mut first_epochs, mut first_wall) = (0u64, 0.0f64);
    let State { traces, lanes } = &mut state;
    let jobs = &traces[0];
    let cycle = lanes.len() * traces.len();
    let mut measured = measure_for(opts.untraced_budget(), cycle, &sink, || {
        let (lane, i) = (&mut lanes[runs % cycle / traces.len()], runs % traces.len());
        let started = Instant::now();
        let summary = match lane.timed.as_mut() {
            Some(timed) => lane
                .sim
                .run_reusing(traces[i].clone(), timed, &mut lane.view),
            None => lane
                .sim
                .run_reusing(traces[i].clone(), &mut lane.plain, &mut lane.view),
        };
        if i == 0 {
            first_epochs += summary.decision_epochs;
            first_wall += started.elapsed().as_secs_f64();
        }
        if let Some(timed) = lane.timed.as_mut() {
            timed.flush();
        }
        miss_sum += summary.miss_rate;
        runs += 1;
        lane.check(i, &summary, "run_reusing", &mut tally);
        summary.decision_epochs as f64
    });
    measured.miss_rate = miss_sum / runs as f64;

    // The stepwise driver on the first trace: traced for the traced
    // budget, or once per policy as an output check.
    let epoch = Instant::now();
    let mut counts: Vec<Option<Counts>> = vec![None; lanes.len()];
    let (mut traced_wall, mut traced_epochs) = (0.0f64, 0u64);
    let started = Instant::now();
    loop {
        for (i, (lane, first)) in lanes.iter_mut().zip(counts.iter_mut()).enumerate() {
            if opts.trace {
                // One tracer per policy, so each policy's split is its own.
                match lane.tracer.take() {
                    Some(tracer) => trace::resume(tracer),
                    None => trace::install(i, epoch),
                }
            }
            let t0 = Instant::now();
            let (summary, c) = stepwise(lane, jobs);
            traced_wall += t0.elapsed().as_secs_f64();
            traced_epochs += c.arrival + c.completion + c.periodic;
            lane.tracer = trace::uninstall();
            lane.check(0, &summary, "stepwise", &mut tally);
            let expected = *first.get_or_insert(c);
            tally.check(c == expected, || {
                format!(
                    "{} exact counts changed: {c:?} vs {expected:?}",
                    lane.policy
                )
            });
        }
        if !opts.trace || started.elapsed() >= opts.traced_budget() {
            break;
        }
    }

    let mut layers = Vec::new();
    if opts.trace {
        let mut all = Collected::default();
        for (lane, c) in lanes.iter_mut().zip(&counts) {
            let c = c.expect("every lane ran");
            let spans = Collected {
                tracers: lane.tracer.take().into_iter().collect(),
            };
            tally
                .notes
                .push(format!("{} counts per run: {c:?}", lane.policy));
            layer_metrics(lane.policy, &spans, &c, &mut layers);
            all.tracers.extend(spans.tracers);
        }
        save_spans("engine_dense", &all, &mut tally);
        // Traced stepwise against untraced `run_reusing` time per epoch,
        // both on the first trace.
        layers.push((
            "trace.overhead_ratio".into(),
            ratio(
                traced_wall / traced_epochs.max(1) as f64,
                first_wall / first_epochs.max(1) as f64,
            ),
        ));
    }
    Outcome {
        tally,
        setup,
        measured,
        decisions: sink,
        layers,
    }
}
