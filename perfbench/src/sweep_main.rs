//! `sweep_main`: an `EvalSession::run` grid shaped like the paper's main
//! table — the 7 `BASELINE_NAMES` plus an untrained, seeded `DrlScheduler`
//! registered with `register_drl`, over loads 0.5 / 0.9 / 1.1 and six
//! seeds, with short job streams on the 24-node cluster, on the vendored
//! rayon pool. Many short cells, so per-cell reset and reuse costs count.
//!
//! The traced run executes the cells itself through
//! `SweepPlan::make_scratch` / `run_cell` on two self-scheduling threads;
//! its rows must be byte-equal to `EvalSession::run`'s.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tcrm_baselines::{by_name, BASELINE_NAMES};
use tcrm_bench::{EvalSession, PolicyFactory, PolicyRegistry, ResultRow, SweepPlan};
use tcrm_core::{ActionSpace, AgentConfig, DrlScheduler, StateEncoder};
use tcrm_rl::CategoricalPolicy;
use tcrm_sim::{ClusterSpec, Scheduler, SimConfig};
use tcrm_workload::{load_sweep, WorkloadSpec};

use crate::timing::{quantile, Sink, SpannedFactory, TimedFactory};
use crate::trace::{self, span, Collected};
use crate::{measure_for, ratio, repeat_setup, save_spans, Opts, Outcome, Tally};

const LOADS: [f64; 3] = [0.5, 0.9, 1.1];
const SEEDS: u64 = 6;
const JOBS: usize = 60;
const DRL: &str = "drl";
/// Worker threads of the traced `run_cell` execution.
const THREADS: usize = 2;

/// A bundled baseline by name (the registry's own factory is private).
struct Baseline(&'static str);

impl PolicyFactory for Baseline {
    fn name(&self) -> &str {
        self.0
    }

    fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        by_name(self.0, seed).expect("bundled baseline")
    }

    fn reusable(&self) -> bool {
        true
    }
}

/// The DRL agent, cloned and re-seeded per replication like
/// `register_drl`'s factory.
struct Drl(DrlScheduler);

impl PolicyFactory for Drl {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        let mut agent = self.0.clone();
        agent.reset(seed);
        Box::new(agent)
    }

    fn reusable(&self) -> bool {
        true
    }
}

fn untrained_agent(cluster: &ClusterSpec, seed: u64) -> DrlScheduler {
    let config = AgentConfig::default();
    let classes = cluster.num_classes();
    let encoder = StateEncoder::new(&config, classes);
    let actions = ActionSpace::new(&config, classes);
    let policy = CategoricalPolicy::new(
        encoder.observation_dim(),
        &config.policy_hidden,
        actions.action_count(),
        seed,
    );
    DrlScheduler::new(policy, config, classes).with_name(DRL)
}

struct Grid {
    points: Vec<(f64, WorkloadSpec)>,
    seeds: Vec<u64>,
}

impl Grid {
    fn policies() -> Vec<&'static str> {
        BASELINE_NAMES.iter().copied().chain([DRL]).collect()
    }

    fn session<'r>(&self, registry: &'r PolicyRegistry) -> EvalSession<'r> {
        EvalSession::new(registry)
            .policies(Self::policies())
            .expect("registered policies")
            .cluster(ClusterSpec::icpp_default())
            .sim(SimConfig::default())
            .points(self.points.clone())
            .seeds(&self.seeds)
    }
}

struct State {
    grid: Grid,
    /// Baselines plus the DRL agent with its `decide` timed, for the
    /// untraced measurement.
    timed: PolicyRegistry,
    /// Baselines plus the DRL agent with a span around its `decide`.
    spanned: PolicyRegistry,
    /// `EvalSession::run`'s CSV over the plain registry.
    reference: String,
    cells: usize,
}

fn setup(seed: u64, sink: &Sink) -> State {
    let cluster = ClusterSpec::icpp_default();
    let agent = untrained_agent(&cluster, seed);
    let grid = Grid {
        points: load_sweep(&WorkloadSpec::icpp_default().with_num_jobs(JOBS), &LOADS),
        seeds: (0..SEEDS).map(|i| seed.wrapping_add(i)).collect(),
    };
    let mut plain = PolicyRegistry::with_baselines();
    plain.register_drl(agent.clone()).expect("fresh name");
    // Only the DRL agent's decisions are timed: it is the resource manager
    // the paper proposes, and most baseline decisions are shorter than the
    // clock reads around them.
    let mut timed = PolicyRegistry::new();
    for name in BASELINE_NAMES {
        timed.register(Baseline(name)).expect("fresh name");
    }
    timed
        .register(TimedFactory {
            inner: Drl(agent.clone()),
            sink: sink.clone(),
        })
        .expect("fresh name");
    let mut spanned = PolicyRegistry::new();
    for name in BASELINE_NAMES {
        spanned.register(Baseline(name)).expect("fresh name");
    }
    spanned
        .register(SpannedFactory {
            span: "core.drl_decide",
            inner: Drl(agent),
        })
        .expect("fresh name");
    // Warm-up: the canonical grid over the plain registry is the
    // reference every later execution must reproduce byte for byte.
    let report = grid.session(&plain).run().expect("sweep runs");
    State {
        cells: report.table.rows.len(),
        reference: report.table.to_csv(),
        grid,
        timed,
        spanned,
    }
}

/// Execute every cell of `plan` on [`THREADS`] self-scheduling threads,
/// each with its own scratch and tracer; returns the rows in canonical
/// order and each cell's wall ns.
fn run_cells(plan: &SweepPlan<'_>, epoch: Instant, traced: bool) -> (String, Vec<u64>, Collected) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, ResultRow, u64)>> = Mutex::new(Vec::new());
    let tracers = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (next, done, tracers) = (&next, &done, &tracers);
            scope.spawn(move || {
                if traced {
                    trace::install(thread, epoch);
                }
                let mut scratch = plan.make_scratch();
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= plan.cell_count() {
                        break;
                    }
                    let started = Instant::now();
                    let row = {
                        let _s = span("bench.cell");
                        plan.run_cell(&mut scratch, index).expect("cell runs")
                    };
                    mine.push((index, row, started.elapsed().as_nanos() as u64));
                }
                done.lock().expect("rows poisoned").extend(mine);
                if let Some(tracer) = trace::uninstall() {
                    tracers.lock().expect("tracers poisoned").push(tracer);
                }
            });
        }
    });
    let mut done = done.into_inner().expect("rows poisoned");
    done.sort_by_key(|(index, _, _)| *index);
    let cell_ns = done.iter().map(|(_, _, ns)| *ns).collect();
    let mut table = plan.table_shell();
    table.extend(done.into_iter().map(|(_, row, _)| row).collect());
    let collected = Collected {
        tracers: tracers.into_inner().expect("tracers poisoned"),
    };
    (table.to_csv(), cell_ns, collected)
}

pub fn run(opts: Opts) -> Outcome {
    let sink = Sink::new();
    let (state, setup) = repeat_setup(|| setup(opts.seed, &sink));
    let mut tally = Tally::default();

    let (mut miss_sum, mut rows) = (0.0f64, 0usize);
    let mut measured = measure_for(opts.untraced_budget(), 1, &sink, || {
        let report = state.grid.session(&state.timed).run().expect("sweep runs");
        let table = &report.table;
        for row in &table.rows {
            miss_sum += row.summary.miss_rate;
            rows += 1;
        }
        tally.check(table.rows.len() == state.cells, || {
            format!("{} rows for {} cells", table.rows.len(), state.cells)
        });
        tally.check(table.to_csv() == state.reference, || {
            "EvalSession rows differ from the warm-up's".to_string()
        });
        table.rows.len() as f64
    });
    measured.miss_rate = miss_sum / rows.max(1) as f64;

    // `run_cell` on two threads: traced for the traced budget, or once as
    // an output check.
    let plan = state
        .grid
        .session(&state.spanned)
        .plan()
        .expect("valid grid");
    let epoch = Instant::now();
    let mut spans = Collected::default();
    let mut cell_ns = Vec::new();
    let (mut traced_wall, mut traced_cells) = (0.0f64, 0usize);
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let (csv, ns, collected) = run_cells(&plan, epoch, opts.trace);
        traced_wall += t0.elapsed().as_secs_f64();
        traced_cells += ns.len();
        tally.check(ns.len() == state.cells, || {
            format!(
                "run_cell produced {} rows for {} cells",
                ns.len(),
                state.cells
            )
        });
        tally.check(csv == state.reference, || {
            "run_cell rows differ from EvalSession::run's".to_string()
        });
        cell_ns.extend(ns);
        spans.tracers.extend(collected.tracers);
        if !opts.trace || started.elapsed() >= opts.traced_budget() {
            break;
        }
    }

    let mut layers = Vec::new();
    if opts.trace {
        cell_ns.sort_unstable();
        let busy: u64 = cell_ns.iter().sum();
        let ms = |q| quantile(&cell_ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), q) / 1e6;
        layers.extend([
            ("bench.cell_ms_p50".to_string(), ms(0.50)),
            ("bench.cell_ms_p99".into(), ms(0.99)),
            (
                "bench.worker_busy_share".into(),
                ratio(busy as f64 / 1e9, traced_wall * THREADS as f64),
            ),
            (
                "core.drl_decide.ns_per_call".into(),
                spans.agg("core.drl_decide").ns_per_call(),
            ),
            (
                "trace.overhead_ratio".into(),
                ratio(
                    traced_wall / traced_cells.max(1) as f64,
                    measured.secs_per_unit(),
                ),
            ),
        ]);
        tally.notes.push(format!(
            "{} cells per grid, {traced_cells} traced on {THREADS} threads",
            state.cells
        ));
        save_spans("sweep_main", &spans, &mut tally);
    }
    Outcome {
        tally,
        setup,
        measured,
        decisions: sink,
        layers,
    }
}
