//! Running `(policy × scenario × workload point × seed)` grids and
//! collecting rows.
//!
//! The entry point is the builder-style [`EvalSession`]: it resolves policy
//! spec strings against a [`PolicyRegistry`] and scenario spec strings
//! against a [`ScenarioRegistry`], flattens the full evaluation grid into
//! one parallel sweep with work-stealing-friendly self-scheduling, streams
//! each cell's jobs on demand from a per-worker cached [`WorkloadSource`]
//! (reset per replication — no per-cell materialisation), reuses per-worker
//! simulator/view/scheduler scratch so the steady-state sweep loop stays off
//! the allocator, streams completed rows through a progress callback,
//! checkpoints/resumes partial grids as versioned JSON, and shards grids
//! across machines (`shard(i, n)` + [`ResultTable::merge`]).
//!
//! The validated grid itself is a first-class value: [`EvalSession::plan`]
//! freezes a session into a [`SweepPlan`] — the canonical cell list, the
//! grid fingerprint and a `run_cell(index)` executor. [`EvalSession::run`]
//! drives it with rayon; a caller that schedules cells on its own threads
//! drives the same plan through [`SweepPlan::make_scratch`] and
//! [`SweepPlan::run_cell`] and gets the same rows.

use crate::policy::{PolicyError, PolicyRegistry, PolicySpec};
use crate::results::{ResultRow, ResultTable, DEFAULT_SCENARIO};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcrm_sim::{ClusterSpec, ClusterView, Scheduler, SimConfig, Simulator, Summary};
use tcrm_workload::{
    ScenarioRegistry, ScenarioSpec, SourceSpec, SyntheticSource, WorkloadSource, WorkloadSpec,
};

/// Rows are streamed through this callback as replications complete:
/// `(row, completed_so_far, total_to_compute)`. Called from worker threads
/// in parallel mode, so implementations must be `Send + Sync`.
pub type ProgressCallback = Box<dyn Fn(&ResultRow, usize, usize) + Send + Sync>;

/// What [`EvalSession::run`] produced, beyond the table itself.
#[derive(Debug)]
pub struct EvalReport {
    /// The full result table, rows in canonical grid order
    /// (point-major, then scenario, then policy, then seed).
    pub table: ResultTable,
    /// Rows simulated by this run.
    pub computed: usize,
    /// Rows loaded from the resume checkpoint instead of being re-simulated.
    pub resumed: usize,
    /// A resume checkpoint existed but carried a different grid
    /// fingerprint (the cluster, engine config, workloads, scenarios or a
    /// replay trace changed), so none of its rows were trusted and the
    /// whole grid was recomputed. Callers should surface this — a user who
    /// expected a fast resume is otherwise left guessing why the sweep ran
    /// from scratch.
    pub stale_checkpoint: bool,
}

/// One flattened grid cell.
#[derive(Clone, Copy)]
struct Cell {
    policy: usize,
    scenario: usize,
    point: usize,
    seed: u64,
}

/// Collect every `replay(<path>)` trace path referenced by a scenario
/// (recursing through `merge` branches).
fn replay_paths(spec: &ScenarioSpec, out: &mut Vec<String>) {
    match spec.source_spec() {
        SourceSpec::Replay { path } => out.push(path.clone()),
        SourceSpec::Merge(a, b) => {
            replay_paths(a, out);
            replay_paths(b, out);
        }
        _ => {}
    }
}

/// FNV-1a hash of the serialised grid configuration (cluster, engine config,
/// per-point workloads, scenario ids, and the **contents** of every replay
/// trace file) — the provenance stamp of a checkpoint. Hashing trace
/// contents, not just paths, means re-recording a trace at the same path
/// invalidates cached rows instead of silently resuming results computed
/// from the old trace. Stable across processes because it hashes the JSON
/// rendering, not Rust's randomised `Hash`.
fn grid_fingerprint(
    cluster: &ClusterSpec,
    sim: &SimConfig,
    points: &[(f64, WorkloadSpec)],
    scenario_labels: &[String],
    replay_traces: &[(String, Vec<u8>)],
) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(serde_json::to_string(cluster)
        .unwrap_or_default()
        .as_bytes());
    eat(serde_json::to_string(sim).unwrap_or_default().as_bytes());
    for (parameter, workload) in points {
        eat(&parameter.to_bits().to_le_bytes());
        eat(serde_json::to_string(workload)
            .unwrap_or_default()
            .as_bytes());
    }
    for label in scenario_labels {
        eat(label.as_bytes());
        eat(b"\x1f");
    }
    for (path, contents) in replay_traces {
        eat(path.as_bytes());
        eat(b"\x1f");
        eat(contents);
        eat(b"\x1f");
    }
    format!("{hash:016x}")
}

/// Per-worker scratch reused across every cell the worker executes: one
/// simulator (reset per replication), one snapshot buffer, one scheduler
/// instance per policy (re-armed with [`Scheduler::reset`]), and one
/// workload source per `(scenario, point)` pair (re-armed with
/// [`WorkloadSource::reset`] and streamed through
/// [`Simulator::run_source`]). This extends the zero-allocation stepping
/// contract to the sweep loop — steady-state replication reuses the
/// cluster, event heap, metrics buffers, view and job stream instead of
/// reconstructing them per cell. Create one per worker thread with
/// [`SweepPlan::make_scratch`].
pub struct SweepScratch {
    sim: Simulator,
    view: ClusterView,
    schedulers: HashMap<usize, Box<dyn Scheduler>>,
    sources: HashMap<(usize, usize), Box<dyn WorkloadSource>>,
}

impl SweepScratch {
    fn new(cluster: &ClusterSpec, sim: &SimConfig) -> Self {
        let sim = Simulator::new(cluster.clone(), sim.clone());
        let view = sim.view();
        SweepScratch {
            sim,
            view,
            schedulers: HashMap::new(),
            sources: HashMap::new(),
        }
    }
}

/// A validated, flattened sweep grid: the canonical cell list plus
/// everything needed to execute any cell by flat index.
///
/// A plan is produced by [`EvalSession::plan`] *after* all up-front
/// validation (workload specs, scenario builds), so executing its cells can
/// only fail for genuinely late reasons (a trace deleted mid-sweep, a
/// seed-dependent custom factory). The flat index is the plan's stable cell
/// identity: index `i` always names the same `(policy, scenario, point,
/// seed)` tuple in canonical order, so a driver may run cells in any order
/// on any thread and still reassemble the exact sequential table by index.
pub struct SweepPlan<'r> {
    registry: &'r PolicyRegistry,
    scenario_registry: Option<&'r ScenarioRegistry>,
    policies: Vec<PolicySpec>,
    scenarios: Vec<ScenarioSpec>,
    scenario_labels: Vec<String>,
    points: Vec<(f64, WorkloadSpec)>,
    cluster: ClusterSpec,
    sim: SimConfig,
    cells: Vec<Cell>,
    fingerprint: String,
    reusable: Vec<bool>,
    parameter_counts: HashMap<u64, usize>,
    experiment: String,
    caption: String,
    parameter_name: String,
}

impl<'r> SweepPlan<'r> {
    /// Number of cells in the canonical grid.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The grid's provenance fingerprint (see checkpoint resume).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Fresh per-worker scratch for [`SweepPlan::run_cell`].
    pub fn make_scratch(&self) -> SweepScratch {
        SweepScratch::new(&self.cluster, &self.sim)
    }

    /// An empty [`ResultTable`] carrying this plan's naming and
    /// fingerprint — the shell every driver fills with rows.
    pub fn table_shell(&self) -> ResultTable {
        let mut table = ResultTable::new(&self.experiment, &self.caption, &self.parameter_name);
        table.fingerprint = self.fingerprint.clone();
        table
    }

    /// The resume key of cell `index`: `(scheduler, scenario, parameter
    /// bits, seed)`, matching [`ResultRow::key`].
    fn key(&self, index: usize) -> (String, String, u64, u64) {
        let cell = &self.cells[index];
        (
            self.policies[cell.policy].name(),
            self.scenario_labels[cell.scenario].clone(),
            self.points[cell.point].0.to_bits(),
            cell.seed,
        )
    }

    /// Whether two grid points share this parameter value — such rows are
    /// ambiguous under the resume key and must never be resumed.
    fn ambiguous_parameter(&self, parameter_bits: u64) -> bool {
        self.parameter_counts
            .get(&parameter_bits)
            .copied()
            .unwrap_or(0)
            > 1
    }

    fn scenario_spec(&self, index: usize) -> Option<&ScenarioSpec> {
        if self.scenarios.is_empty() {
            None
        } else {
            Some(&self.scenarios[index])
        }
    }

    /// Execute cell `index` on `scratch` and return its row.
    ///
    /// Deterministic: the same plan configuration and index produce the
    /// same row on any thread, in any order — all cell state is re-armed
    /// from the cell's seed.
    pub fn run_cell(
        &self,
        scratch: &mut SweepScratch,
        index: usize,
    ) -> Result<ResultRow, PolicyError> {
        let cell = &self.cells[index];
        let (parameter, workload) = &self.points[cell.point];
        let spec = &self.policies[cell.policy];

        // The cell's job stream: one cached source per (scenario, point)
        // pair per worker, re-armed with reset(seed) and pulled on
        // demand by the streaming simulator. The up-front probe already
        // validated every (scenario, point) build, but a build can still
        // fail here (a seed-dependent custom factory, a trace deleted
        // mid-sweep) — that surfaces as a Workload error, not a panic.
        use std::collections::hash_map::Entry;
        let source = match scratch.sources.entry((cell.scenario, cell.point)) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(slot) => {
                let built: Box<dyn WorkloadSource> = match self.scenario_spec(cell.scenario) {
                    None => Box::new(
                        SyntheticSource::new(workload, &self.cluster, cell.seed).map_err(|e| {
                            PolicyError::Workload {
                                context: format!("point {parameter}"),
                                message: e.to_string(),
                            }
                        })?,
                    ),
                    Some(scenario) => self
                        .scenario_registry
                        .expect("set alongside scenarios")
                        .build(scenario, workload, &self.cluster, cell.seed)
                        .map_err(|e| PolicyError::Workload {
                            context: format!(
                                "scenario '{}' at point {parameter}",
                                self.scenario_labels[cell.scenario]
                            ),
                            message: e.to_string(),
                        })?,
                };
                slot.insert(built)
            }
        };
        source.reset(cell.seed);

        let mut fresh;
        let scheduler: &mut Box<dyn Scheduler> = if self.reusable[cell.policy] {
            let cached = scratch.schedulers.entry(cell.policy).or_insert_with(|| {
                self.registry
                    .build(spec, cell.seed)
                    .expect("spec validated")
            });
            cached.reset(cell.seed);
            cached
        } else {
            fresh = self
                .registry
                .build(spec, cell.seed)
                .expect("spec validated");
            &mut fresh
        };
        let summary: Summary =
            scratch
                .sim
                .run_source(source.as_mut(), scheduler, &mut scratch.view);
        Ok(ResultRow {
            scheduler: spec.name(),
            scenario: self.scenario_labels[cell.scenario].clone(),
            parameter: *parameter,
            seed: cell.seed,
            summary,
        })
    }
}

/// A checkpointing run flushes its checkpoint after every this many
/// completed rows.
const CHECKPOINT_EVERY: usize = 32;

/// Execution options split off a session when it is frozen into a plan.
struct RunOptions {
    parallel: bool,
    shard: Option<(usize, usize)>,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressCallback>,
}

/// A builder-style evaluation session over one `(policy × scenario × point
/// × seed)` grid.
///
/// ```
/// use tcrm_bench::{EvalSession, PolicyRegistry};
/// use tcrm_sim::{ClusterSpec, SimConfig};
/// use tcrm_workload::WorkloadSpec;
///
/// let registry = PolicyRegistry::with_baselines();
/// let report = EvalSession::new(&registry)
///     .policies(["edf", "greedy-elastic+rigid"])
///     .unwrap()
///     .cluster(ClusterSpec::icpp_default())
///     .sim(SimConfig::default())
///     .point(0.9, WorkloadSpec::icpp_default().with_num_jobs(30).with_load(0.9))
///     .seeds(&[1, 2])
///     .run()
///     .unwrap();
/// // 2 policies × 1 point × 2 seeds:
/// assert_eq!(report.table.rows.len(), 4);
/// assert!(report.table.rows.iter().any(|r| r.scheduler == "greedy-elastic+rigid"));
/// ```
///
/// A scenario axis multiplies the grid without touching the points: each
/// scenario spec reshapes the point's workload (or replaces it entirely, as
/// `replay` does) and its canonical string becomes the row label:
///
/// ```
/// use tcrm_bench::{EvalSession, PolicyRegistry};
/// use tcrm_sim::{ClusterSpec, SimConfig};
/// use tcrm_workload::{ScenarioRegistry, WorkloadSpec};
///
/// let policies = PolicyRegistry::with_baselines();
/// let scenarios = ScenarioRegistry::new();
/// let report = EvalSession::new(&policies)
///     .policies(["edf"])
///     .unwrap()
///     .scenarios(&scenarios, ["poisson", "poisson+burst(3x)"])
///     .unwrap()
///     .cluster(ClusterSpec::icpp_default())
///     .sim(SimConfig::default())
///     .point(0.9, WorkloadSpec::icpp_default().with_num_jobs(25).with_load(0.9))
///     .seeds(&[1])
///     .run()
///     .unwrap();
/// // 1 policy × 2 scenarios × 1 point × 1 seed:
/// assert_eq!(report.table.rows.len(), 2);
/// assert!(report.table.rows.iter().any(|r| r.scenario == "poisson+burst(3x)"));
/// ```
///
/// Interrupted full-scale sweeps resume from a versioned JSON checkpoint:
///
/// ```no_run
/// use tcrm_bench::{EvalSession, PolicyRegistry};
/// use tcrm_workload::WorkloadSpec;
///
/// let registry = PolicyRegistry::with_baselines();
/// let report = EvalSession::new(&registry)
///     .policies(["edf"])
///     .unwrap()
///     .point(0.9, WorkloadSpec::icpp_default().with_load(0.9))
///     .seeds(&[1, 2, 3, 4, 5])
///     // Rows already present in the checkpoint are loaded, not re-run;
///     // completed rows are flushed back so a second interruption loses
///     // nothing.
///     .checkpoint("results/main-grid.json")
///     .run()
///     .unwrap();
/// println!("resumed {} rows, simulated {}", report.resumed, report.computed);
/// ```
pub struct EvalSession<'r> {
    registry: &'r PolicyRegistry,
    scenario_registry: Option<&'r ScenarioRegistry>,
    policies: Vec<PolicySpec>,
    scenarios: Vec<ScenarioSpec>,
    points: Vec<(f64, WorkloadSpec)>,
    cluster: ClusterSpec,
    sim: SimConfig,
    seeds: Vec<u64>,
    parallel: bool,
    shard: Option<(usize, usize)>,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressCallback>,
    experiment: String,
    caption: String,
    parameter_name: String,
}

impl<'r> EvalSession<'r> {
    /// Start a session against a policy registry. Defaults: the ICPP default
    /// cluster, default engine config, seed `[1]`, parallel execution, no
    /// scenario axis (each point's workload is streamed as-is under the
    /// scenario id `"default"`).
    pub fn new(registry: &'r PolicyRegistry) -> Self {
        EvalSession {
            registry,
            scenario_registry: None,
            policies: Vec::new(),
            scenarios: Vec::new(),
            points: Vec::new(),
            cluster: ClusterSpec::icpp_default(),
            sim: SimConfig::default(),
            seeds: vec![1],
            parallel: true,
            shard: None,
            checkpoint: None,
            progress: None,
            experiment: "eval".into(),
            caption: String::new(),
            parameter_name: "parameter".into(),
        }
    }

    /// Add policies by spec string (see the [`crate::policy`] grammar).
    /// Fails fast on unknown bases or malformed specs.
    pub fn policies<I, S>(mut self, specs: I) -> Result<Self, PolicyError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for spec in specs {
            self.policies.push(self.registry.parse(spec.as_ref())?);
        }
        Ok(self)
    }

    /// Add scenarios by spec string (see the `tcrm_workload::scenario`
    /// grammar), resolved against `registry`. Each scenario multiplies the
    /// grid: every `(policy, point, seed)` cell is evaluated once per
    /// scenario, with the scenario's canonical string as the row label.
    /// Fails fast on malformed specs and unknown custom sources.
    pub fn scenarios<I, S>(
        mut self,
        registry: &'r ScenarioRegistry,
        specs: I,
    ) -> Result<Self, PolicyError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for spec in specs {
            let parsed = registry
                .parse(spec.as_ref())
                .map_err(|e| PolicyError::Workload {
                    context: spec.as_ref().to_string(),
                    message: e.to_string(),
                })?;
            self.scenarios.push(parsed);
        }
        self.scenario_registry = Some(registry);
        Ok(self)
    }

    /// Add one `(parameter, workload)` evaluation point.
    pub fn point(mut self, parameter: f64, workload: WorkloadSpec) -> Self {
        self.points.push((parameter, workload));
        self
    }

    /// Add many `(parameter, workload)` points (e.g. from
    /// `tcrm_workload::load_sweep`).
    pub fn points(mut self, points: impl IntoIterator<Item = (f64, WorkloadSpec)>) -> Self {
        self.points.extend(points);
        self
    }

    /// The cluster every replication runs on.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// The engine configuration.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Replication seeds per `(policy, scenario, point)` cell.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Run the sweep on the calling thread only. The flattened grid order
    /// and therefore the produced table are identical to the parallel path;
    /// this is the reference the determinism tests compare against.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Restrict this run to shard `index` of `count`: cells whose canonical
    /// flat index is congruent to `index` modulo `count`. Shards of one grid
    /// partition it exactly; run each shard in its own process with its own
    /// checkpoint, then combine the checkpoints with [`ResultTable::merge`]
    /// (or `expdriver merge-checkpoints`) — the merged table reproduces the
    /// unsharded run's CSV byte for byte.
    pub fn shard(mut self, index: usize, count: usize) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Stream completed rows through `callback` (see [`ProgressCallback`]).
    pub fn on_row(
        mut self,
        callback: impl Fn(&ResultRow, usize, usize) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Checkpoint completed rows to `path` as versioned JSON (flushed after
    /// every 32 completed rows and at the end) and, when the file already
    /// holds rows of this grid, resume from them instead of re-simulating.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Name the produced table (experiment id, caption, parameter column).
    pub fn table(
        mut self,
        experiment: impl Into<String>,
        caption: impl Into<String>,
        parameter_name: impl Into<String>,
    ) -> Self {
        self.experiment = experiment.into();
        self.caption = caption.into();
        self.parameter_name = parameter_name.into();
        self
    }

    /// Validate the session and freeze it into a [`SweepPlan`] (dropping
    /// the execution options — parallelism, sharding, checkpointing stay
    /// with the driver). Every workload and scenario is validated (and
    /// every scenario source built once) here, so configuration mistakes —
    /// an invalid spec, a missing replay trace — surface as a
    /// [`PolicyError::Workload`] before any cell simulates.
    pub fn plan(self) -> Result<SweepPlan<'r>, PolicyError> {
        self.into_plan_and_options().map(|(plan, _)| plan)
    }

    fn into_plan_and_options(self) -> Result<(SweepPlan<'r>, RunOptions), PolicyError> {
        let EvalSession {
            registry,
            scenario_registry,
            policies,
            scenarios,
            points,
            cluster,
            sim,
            seeds,
            parallel,
            shard,
            checkpoint,
            progress,
            experiment,
            caption,
            parameter_name,
        } = self;

        if let Some((index, count)) = shard {
            if count == 0 || index >= count {
                return Err(PolicyError::InvalidShard { index, count });
            }
        }

        // Scenario axis: an explicit list, or the single implicit default
        // scenario (each point's workload streamed as-is).
        let scenario_count = scenarios.len().max(1);
        let scenario_labels: Vec<String> = if scenarios.is_empty() {
            vec![DEFAULT_SCENARIO.to_string()]
        } else {
            scenarios.iter().map(|s| s.id()).collect()
        };

        // Fail fast on invalid configuration: every point workload must
        // validate, and every (scenario, point) source must build. This is
        // the only place scenario/workload errors can surface; the sweep
        // itself then runs on validated state.
        let probe_seed = seeds.first().copied().unwrap_or(0);
        for (parameter, workload) in &points {
            workload
                .validate()
                .map_err(|message| PolicyError::Workload {
                    context: format!("point {parameter}"),
                    message,
                })?;
        }
        for (spec, label) in scenarios.iter().zip(&scenario_labels) {
            let registry = scenario_registry.expect("set alongside scenarios");
            for (parameter, workload) in &points {
                registry
                    .build(spec, workload, &cluster, probe_seed)
                    .map_err(|e| PolicyError::Workload {
                        context: format!("scenario '{label}' at point {parameter}"),
                        message: e.to_string(),
                    })?;
            }
        }

        // Canonical cell order: point-major, then scenario, then policy,
        // then seed.
        let mut cells =
            Vec::with_capacity(points.len() * scenario_count * policies.len() * seeds.len());
        for point in 0..points.len() {
            for scenario in 0..scenario_count {
                for policy in 0..policies.len() {
                    for &seed in &seeds {
                        cells.push(Cell {
                            policy,
                            scenario,
                            point,
                            seed,
                        });
                    }
                }
            }
        }

        // Fingerprint of everything that determines a row's value besides
        // its (policy, scenario, parameter, seed) key: the cluster, the
        // engine config, the per-point workloads, the scenario ids and the
        // contents of every referenced replay trace. A checkpoint carrying a
        // different fingerprint comes from a different grid configuration
        // and must not be resumed (its rows would be silently presented as
        // this run's results). DRL agent weights are not part of the
        // fingerprint — retraining an agent under the same name requires a
        // fresh checkpoint path. Shards deliberately share the full grid's
        // fingerprint so their checkpoints merge.
        let mut trace_paths: Vec<String> = Vec::new();
        for spec in &scenarios {
            replay_paths(spec, &mut trace_paths);
        }
        trace_paths.sort();
        trace_paths.dedup();
        // A missing file hashes as empty here; the build probe above already
        // turned it into a Workload error before this point.
        let replay_traces: Vec<(String, Vec<u8>)> = trace_paths
            .into_iter()
            .map(|path| {
                let contents = std::fs::read(&path).unwrap_or_default();
                (path, contents)
            })
            .collect();
        let fingerprint =
            grid_fingerprint(&cluster, &sim, &points, &scenario_labels, &replay_traces);

        // Rows are keyed by (label, scenario, parameter, seed). If two
        // points share a parameter value the key cannot tell their cells
        // apart, so those cells are never resumed (and always recomputed).
        let mut parameter_counts: HashMap<u64, usize> = HashMap::new();
        for (parameter, _) in &points {
            *parameter_counts.entry(parameter.to_bits()).or_default() += 1;
        }

        // Whether each policy's worker-cached instance may be reused across
        // replications (see [`crate::policy::PolicyFactory::reusable`]);
        // non-reusable policies are rebuilt fresh for every cell.
        let reusable: Vec<bool> = policies
            .iter()
            .map(|spec| {
                registry
                    .get(spec.base_name())
                    .map(|f| f.reusable())
                    .unwrap_or(false)
            })
            .collect();

        Ok((
            SweepPlan {
                registry,
                scenario_registry,
                policies,
                scenarios,
                scenario_labels,
                points,
                cluster,
                sim,
                cells,
                fingerprint,
                reusable,
                parameter_counts,
                experiment,
                caption,
                parameter_name,
            },
            RunOptions {
                parallel,
                shard,
                checkpoint,
                progress,
            },
        ))
    }

    /// Execute the sweep and return the table plus resume statistics.
    ///
    /// The grid is flattened point-major (point, then scenario, then policy,
    /// then seed) and executed as one self-scheduling parallel sweep; rows
    /// come back in canonical grid order regardless of thread timing, so the
    /// rendered CSV/markdown are byte-identical between parallel and
    /// sequential runs. Every workload and scenario is validated (and every
    /// scenario source built once) *before* the sweep starts, so
    /// configuration mistakes — an invalid spec, a missing replay trace —
    /// surface as a [`PolicyError::Workload`] instead of aborting mid-sweep.
    pub fn run(self) -> Result<EvalReport, PolicyError> {
        let (plan, options) = self.into_plan_and_options()?;
        let RunOptions {
            parallel,
            shard,
            checkpoint,
            progress,
        } = options;

        // Sharding: this run owns every cell whose canonical flat index is
        // congruent to the shard index. The produced table holds only the
        // owned subset (still in canonical order); ResultTable::merge
        // reassembles the full grid from the shard checkpoints.
        let owned: Vec<usize> = match shard {
            Some((index, count)) => (0..plan.cell_count())
                .filter(|i| i % count == index)
                .collect(),
            None => (0..plan.cell_count()).collect(),
        };

        // Resume: index previously completed rows by (label, scenario,
        // parameter, seed). A checkpoint from a *different* grid
        // configuration (fingerprint mismatch) contributes nothing and is
        // flagged so callers can tell the user why everything recomputed.
        let mut stale_checkpoint = false;
        let cached: HashMap<(String, String, u64, u64), ResultRow> = match checkpoint
            .as_deref()
            .filter(|p| p.exists())
            .and_then(|p| ResultTable::load_json(p).ok())
        {
            Some(table) if table.fingerprint == plan.fingerprint() => table
                .rows
                .into_iter()
                .filter(|r| !plan.ambiguous_parameter(r.parameter.to_bits()))
                .map(|r| (r.key(), r))
                .collect(),
            Some(_) => {
                stale_checkpoint = true;
                HashMap::new()
            }
            None => HashMap::new(),
        };
        let (resumed_cells, todo): (Vec<usize>, Vec<usize>) = owned
            .iter()
            .copied()
            .partition(|&i| cached.contains_key(&plan.key(i)));
        let resumed = resumed_cells.len();
        let total = todo.len();

        // Shared flush state for incremental checkpointing.
        let flusher = checkpoint.as_ref().map(|path| {
            let mut base = plan.table_shell();
            base.extend(cached.values().cloned().collect());
            (path.clone(), Mutex::new(base))
        });
        let done = AtomicUsize::new(0);
        let run_cell =
            |scratch: &mut SweepScratch, index: usize| -> Result<ResultRow, PolicyError> {
                let row = plan.run_cell(scratch, index)?;
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(callback) = progress.as_ref() {
                    callback(&row, completed, total);
                }
                if let Some((path, partial)) = flusher.as_ref() {
                    let mut partial = partial.lock();
                    partial.rows.push(row.clone());
                    if partial.rows.len() % CHECKPOINT_EVERY == 0 {
                        let _ = partial.save_json(path);
                    }
                }
                Ok(row)
            };

        let computed_rows: Vec<Result<ResultRow, PolicyError>> = if parallel {
            todo.par_iter()
                .map_init(
                    || plan.make_scratch(),
                    |scratch, &index| run_cell(scratch, index),
                )
                .collect()
        } else {
            let mut scratch = plan.make_scratch();
            todo.iter().map(|&i| run_cell(&mut scratch, i)).collect()
        };

        // Merge computed and cached rows back into canonical grid order.
        // A failed cell surfaces here as the sweep's error (completed rows
        // of a checkpointed run were already flushed, so nothing is lost).
        let mut computed_iter = computed_rows.into_iter();
        let mut table = plan.table_shell();
        for &index in &owned {
            match cached.get(&plan.key(index)) {
                Some(row) => table.rows.push(row.clone()),
                None => table.rows.push(
                    computed_iter
                        .next()
                        .expect("one computed result per todo cell")?,
                ),
            }
        }
        if let Some((path, _)) = flusher.as_ref() {
            // Final flush: the complete grid in canonical order. Incremental
            // flushes above are best-effort, but a failure here would break
            // the resume guarantee, so it is reported.
            table
                .save_json(path)
                .map_err(|e| PolicyError::CheckpointIo {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?;
        }
        Ok(EvalReport {
            table,
            computed: total,
            resumed,
            stale_checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_workload(load: f64) -> WorkloadSpec {
        WorkloadSpec::icpp_default()
            .with_num_jobs(30)
            .with_load(load)
    }

    fn session(registry: &PolicyRegistry) -> EvalSession<'_> {
        EvalSession::new(registry)
            .cluster(ClusterSpec::icpp_default())
            .sim(SimConfig::default())
    }

    #[test]
    fn session_produces_one_row_per_cell() {
        let registry = PolicyRegistry::with_baselines();
        let report = session(&registry)
            .policies(["edf"])
            .unwrap()
            .point(0.7, quick_workload(0.7))
            .seeds(&[1, 2])
            .run()
            .unwrap();
        assert_eq!(report.computed, 2);
        assert_eq!(report.resumed, 0);
        assert!(!report.stale_checkpoint);
        let rows = &report.table.rows;
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.scheduler == "edf"));
        assert!(rows.iter().all(|r| r.scenario == DEFAULT_SCENARIO));
        assert!(rows.iter().all(|r| r.summary.total_jobs == 30));
        assert!(rows.iter().all(|r| r.parameter == 0.7));
    }

    #[test]
    fn grid_covers_all_cells_including_adapters() {
        let registry = PolicyRegistry::with_baselines();
        let report = session(&registry)
            .policies(["fifo", "greedy-elastic+rigid"])
            .unwrap()
            .point(0.5, quick_workload(0.5).with_num_jobs(20))
            .point(0.9, quick_workload(0.9).with_num_jobs(20))
            .seeds(&[3])
            .run()
            .unwrap();
        assert_eq!(report.table.rows.len(), 4);
        assert!(report
            .table
            .rows
            .iter()
            .any(|r| r.scheduler == "greedy-elastic+rigid"));
    }

    #[test]
    fn scenario_axis_multiplies_the_grid() {
        let registry = PolicyRegistry::with_baselines();
        let scenarios = ScenarioRegistry::new();
        let report = session(&registry)
            .policies(["edf", "fifo"])
            .unwrap()
            .scenarios(&scenarios, ["poisson", "poisson+tighten(0.7)"])
            .unwrap()
            .point(0.8, quick_workload(0.8).with_num_jobs(20))
            .seeds(&[1, 2])
            .run()
            .unwrap();
        // 2 policies × 2 scenarios × 1 point × 2 seeds.
        assert_eq!(report.table.rows.len(), 8);
        assert_eq!(
            report.table.scenarios(),
            vec!["poisson".to_string(), "poisson+tighten(0.7)".to_string()]
        );
        // Tightening deadlines can only raise (or keep) the miss rate on
        // otherwise identical streams.
        let miss_of = |scenario: &str| {
            report
                .table
                .aggregates()
                .into_iter()
                .filter(|a| a.scenario == scenario)
                .map(|a| a.miss_rate)
                .sum::<f64>()
        };
        assert!(miss_of("poisson+tighten(0.7)") >= miss_of("poisson"));
    }

    #[test]
    fn plan_cells_match_run_rows_exactly() {
        // The plan's flat-index executor is the same computation as run():
        // executing every cell by index in canonical order reproduces the
        // full table byte for byte. This is the contract any driver that
        // schedules cells on its own threads (perfbench's sweep_main) rests on.
        let registry = PolicyRegistry::with_baselines();
        let scenarios = ScenarioRegistry::new();
        let build = || {
            session(&registry)
                .policies(["edf", "fifo"])
                .unwrap()
                .scenarios(&scenarios, ["poisson", "poisson+tighten(0.7)"])
                .unwrap()
                .point(0.8, quick_workload(0.8).with_num_jobs(20))
                .seeds(&[1, 2])
        };
        let report = build().run().unwrap();
        let plan = build().plan().unwrap();
        assert_eq!(plan.cell_count(), report.table.rows.len());
        assert_eq!(plan.fingerprint(), report.table.fingerprint);

        let mut scratch = plan.make_scratch();
        let mut table = plan.table_shell();
        // Out-of-order execution must not matter: run odd indices first.
        let mut rows = vec![None; plan.cell_count()];
        for index in (1..plan.cell_count())
            .step_by(2)
            .chain((0..plan.cell_count()).step_by(2))
        {
            rows[index] = Some(plan.run_cell(&mut scratch, index).unwrap());
        }
        table.rows.extend(rows.into_iter().map(Option::unwrap));
        assert_eq!(table.to_csv(), report.table.to_csv());
        for (a, b) in table.rows.iter().zip(&report.table.rows) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn invalid_workloads_and_scenarios_are_config_errors_not_panics() {
        let registry = PolicyRegistry::with_baselines();

        // An invalid point workload: surfaced before the sweep runs.
        let mut broken = quick_workload(0.9);
        broken.num_jobs = 0;
        let err = session(&registry)
            .policies(["edf"])
            .unwrap()
            .point(0.9, broken)
            .run()
            .unwrap_err();
        assert!(matches!(err, PolicyError::Workload { .. }));
        assert!(err.to_string().contains("num_jobs"));

        // A malformed scenario spec fails at the builder.
        let scenarios = ScenarioRegistry::new();
        let Err(err) = session(&registry)
            .policies(["edf"])
            .unwrap()
            .scenarios(&scenarios, ["poisson+warp(3)"])
        else {
            panic!("malformed scenario spec must not resolve");
        };
        assert!(matches!(err, PolicyError::Workload { .. }));
        assert!(err.to_string().contains("warp(3)"));

        // A well-formed scenario whose source cannot be built (missing
        // trace) fails in run(), before any cell simulates.
        let err = session(&registry)
            .policies(["edf"])
            .unwrap()
            .scenarios(&scenarios, ["replay(/no/such/trace.json)"])
            .unwrap()
            .point(0.9, quick_workload(0.9))
            .run()
            .unwrap_err();
        assert!(matches!(err, PolicyError::Workload { .. }));
        assert!(err.to_string().contains("/no/such/trace.json"));
    }

    #[test]
    fn failing_custom_source_builds_surface_as_errors_not_panics() {
        // A custom factory whose build fails is caught by the up-front
        // probe and surfaces as a Workload error from run(), not a panic
        // (the same typed path also guards late build failures inside
        // worker cells, e.g. a trace deleted mid-sweep).
        let registry = PolicyRegistry::with_baselines();
        let mut scenarios = ScenarioRegistry::new();
        scenarios
            .register_fn("picky", |ctx| {
                if ctx.seed == 777 {
                    Ok(Box::new(SyntheticSource::new(
                        ctx.base,
                        ctx.cluster,
                        ctx.seed,
                    )?))
                } else {
                    Err(tcrm_workload::WorkloadError::InvalidWorkload(format!(
                        "no recording for seed {}",
                        ctx.seed
                    )))
                }
            })
            .unwrap();
        let err = session(&registry)
            .policies(["edf"])
            .unwrap()
            .scenarios(&scenarios, ["picky"])
            .unwrap()
            .point(0.9, quick_workload(0.9))
            .seeds(&[1, 2])
            .sequential()
            .run()
            .unwrap_err();
        assert!(matches!(err, PolicyError::Workload { .. }));
        assert!(err.to_string().contains("no recording for seed 1"));
        assert!(err.to_string().contains("scenario 'picky'"));
    }

    #[test]
    fn re_recorded_replay_traces_invalidate_the_checkpoint() {
        let dir = std::env::temp_dir().join("tcrm-runner-replay-fingerprint");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let ckpt = dir.join("grid.json");

        let record = |seed: u64, jobs: usize| {
            let spec = quick_workload(0.8).with_num_jobs(jobs);
            let list: Vec<_> = SyntheticSource::new(&spec, &ClusterSpec::icpp_default(), seed)
                .unwrap()
                .collect();
            tcrm_workload::Trace::new(spec, seed, list)
                .save(&trace_path)
                .unwrap();
        };
        let registry = PolicyRegistry::with_baselines();
        // A fresh scenario registry per run: trace files are assumed
        // immutable for a registry's lifetime (its parse cache), and this
        // test re-records between runs.
        let run = |scenarios: &ScenarioRegistry| {
            session(&registry)
                .policies(["edf"])
                .unwrap()
                .scenarios(scenarios, [format!("replay({})", trace_path.display())])
                .unwrap()
                .point(0.9, quick_workload(0.9))
                .seeds(&[1])
                .checkpoint(&ckpt)
                .run()
                .unwrap()
        };

        record(7, 20);
        let first = run(&ScenarioRegistry::new());
        assert_eq!(first.computed, 1);
        assert!(!first.stale_checkpoint);

        // Same path, new contents: the fingerprint must change, so nothing
        // resumes, the row reflects the new trace, and the report says the
        // checkpoint was stale.
        record(8, 25);
        let second = run(&ScenarioRegistry::new());
        assert_eq!(second.resumed, 0, "stale replay rows must not resume");
        assert_eq!(second.computed, 1);
        assert!(second.stale_checkpoint, "staleness must be surfaced");
        assert!(second.table.rows.iter().all(|r| r.summary.total_jobs == 25));

        // Unchanged contents still resume.
        let third = run(&ScenarioRegistry::new());
        assert_eq!(third.resumed, 1);
        assert_eq!(third.computed, 0);
        assert!(!third.stale_checkpoint);
    }

    #[test]
    fn changed_grid_config_recomputes_and_flags_the_stale_checkpoint() {
        // Resume against a checkpoint written by a *different grid config*
        // (different workload sizing at the same parameter/seed keys): the
        // rows must be recomputed, not resumed, and the report must say so.
        let dir = std::env::temp_dir().join("tcrm-runner-stale-grid");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("grid.json");
        let registry = PolicyRegistry::with_baselines();
        let run = |jobs: usize| {
            session(&registry)
                .policies(["edf"])
                .unwrap()
                .point(0.8, quick_workload(0.8).with_num_jobs(jobs))
                .seeds(&[1, 2])
                .checkpoint(&ckpt)
                .run()
                .unwrap()
        };

        let first = run(20);
        assert_eq!((first.computed, first.resumed), (2, 0));
        assert!(!first.stale_checkpoint);

        // Same keys (same parameter 0.8, same seeds), different grid: every
        // row recomputes against the new workload and the staleness is
        // flagged.
        let second = run(25);
        assert_eq!((second.computed, second.resumed), (2, 0));
        assert!(second.stale_checkpoint);
        assert!(second.table.rows.iter().all(|r| r.summary.total_jobs == 25));

        // The rewritten checkpoint now matches the new grid and resumes.
        let third = run(25);
        assert_eq!((third.computed, third.resumed), (0, 2));
        assert!(!third.stale_checkpoint);
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let registry = PolicyRegistry::with_baselines();
        let full = session(&registry)
            .policies(["edf", "fifo"])
            .unwrap()
            .point(0.7, quick_workload(0.7))
            .seeds(&[1, 2, 3])
            .run()
            .unwrap();
        assert_eq!(full.table.rows.len(), 6);

        let shard = |index: usize| {
            session(&registry)
                .policies(["edf", "fifo"])
                .unwrap()
                .point(0.7, quick_workload(0.7))
                .seeds(&[1, 2, 3])
                .shard(index, 2)
                .run()
                .unwrap()
        };
        let s0 = shard(0);
        let s1 = shard(1);
        assert_eq!(s0.table.rows.len() + s1.table.rows.len(), 6);
        assert_eq!(s0.table.fingerprint, full.table.fingerprint);

        let merged = ResultTable::merge(vec![s0.table, s1.table]).unwrap();
        assert_eq!(merged.rows.len(), 6);
        assert_eq!(merged.to_csv(), full.table.to_csv());

        // Out-of-range shards are config errors.
        let err = session(&registry)
            .policies(["edf"])
            .unwrap()
            .point(0.7, quick_workload(0.7))
            .shard(2, 2)
            .run()
            .unwrap_err();
        assert!(matches!(err, PolicyError::InvalidShard { .. }));
    }

    #[test]
    fn unknown_policy_fails_at_build_time() {
        let registry = PolicyRegistry::with_baselines();
        let Err(err) = session(&registry).policies(["no-such-policy"]) else {
            panic!("unknown policy must not resolve");
        };
        assert!(matches!(err, PolicyError::UnknownPolicy { .. }));
    }

    #[test]
    fn evaluation_is_deterministic_across_calls() {
        let registry = PolicyRegistry::with_baselines();
        let run = || {
            session(&registry)
                .policies(["greedy-elastic"])
                .unwrap()
                .point(0.9, quick_workload(0.9))
                .seeds(&[1, 2])
                .run()
                .unwrap()
                .table
        };
        let a = run();
        let b = run();
        for (x, y) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(x.summary, y.summary);
        }
    }

    #[test]
    fn progress_callback_sees_every_row() {
        use std::sync::atomic::AtomicUsize;
        let registry = PolicyRegistry::with_baselines();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        let seen_cb = std::sync::Arc::clone(&seen);
        let report = session(&registry)
            .policies(["edf", "fifo"])
            .unwrap()
            .point(0.7, quick_workload(0.7))
            .seeds(&[1, 2])
            .on_row(move |_row, done, total| {
                assert!(done <= total);
                seen_cb.fetch_add(1, Ordering::Relaxed);
            })
            .run()
            .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 4);
        assert_eq!(report.computed, 4);
    }
}
