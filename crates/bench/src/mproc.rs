//! Multi-process sweeps over the `tcrm-ipc` shared-memory plane.
//!
//! `expdriver sweep --workers N` runs here: the parent builds the same
//! [`SweepPlan`] the in-process sweep would run, embeds the sweep
//! configuration (plus the grid fingerprint) in a shared-memory segment,
//! pushes every cell's flat index into the plane's SPMC work ring and
//! spawns `N` child `expdriver worker` processes. Workers rebuild the
//! identical plan from the embedded config, steal cell indices, execute
//! them with the usual per-worker scratch reuse and publish each finished
//! [`ResultRow`] (JSON) through the MPSC result ring. The parent ingests
//! rows by cell index, watches worker leases and process exits, and
//! recovers from crashes by requeueing whatever a dead worker held.
//!
//! ## The byte-identity contract
//!
//! The final table must be byte-identical to `expdriver sweep` without
//! `--workers` — including when a worker is SIGKILLed mid-run. Three
//! properties compose into that guarantee:
//!
//! 1. **Same cells, same code.** Both paths execute
//!    [`SweepPlan::run_cell`] over the same canonical cell list; a cell's
//!    row depends only on the plan config and the cell index, never on
//!    which process ran it or when.
//! 2. **Exact transport.** Rows cross the ring as JSON; the vendored
//!    serializer prints `f64` shortest-roundtrip, so decoded rows are
//!    bit-identical to what the worker computed.
//! 3. **Idempotent ingestion.** The parent keeps the *first* row per cell
//!    index and drops duplicates. Since duplicates are recomputations of a
//!    deterministic cell they are identical anyway — which is what makes
//!    every recovery action (requeue on crash, conservative reconciliation
//!    requeues) safe to over-apply.
//!
//! ## Crash recovery
//!
//! * A worker that dies by signal (classified by [`Supervisor`]) gets its
//!   lease-announced in-flight cell requeued.
//! * A worker that dies *between* stealing a cell and announcing it leaves
//!   no trace; the reconciliation pass requeues any not-yet-completed cell
//!   that no live worker has announced once the work ring is drained.
//! * A worker that dies mid-`publish` can leave the result ring's head
//!   slot claimed-but-unreleased, which would wedge the single consumer.
//!   The claim-word protocol ([`tcrm_ipc::ResultRing::publish`]) lets the
//!   parent prove the claimant is dead before skipping the slot: no live
//!   worker's claim word may name the position (a worker killed between
//!   its claim-store and its claiming CAS leaves a *stale* claim naming a
//!   position a different, live worker then wins) and some dead worker's
//!   claim must name it — see `stuck_head_provably_dead`.
//! * A worker that goes quiet (stale heartbeat with no cell/done progress,
//!   e.g. wedged rather than dead) is SIGKILLed and then handled as a
//!   crash. Workers beat their lease from a sidecar thread every
//!   [`WORKER_BEAT_PERIOD`], so a single slow cell (or a publish spin on a
//!   full ring) is never mistaken for a wedge; `--heartbeat-timeout`
//!   tunes the parent's patience.
//!
//! A worker that exits *nonzero* is different: it decided the sweep cannot
//! continue (bad config, poisoned plane) and the parent aborts rather than
//! silently recomputing forever.

use crate::cli;
use crate::policy::{PolicyError, PolicyRegistry};
use crate::results::{ResultRow, ResultTable};
use crate::runner::{EvalSession, SweepPlan};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tcrm_ipc::{
    codec, LeaseMonitor, LeaseState, LeaseTable, Plane, PlaneParams, Supervisor, Waiter, WorkerExit,
};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::{ScenarioRegistry, WorkloadSpec};

/// The serialisable sweep configuration: exactly the `expdriver sweep`
/// inputs that define the grid. Parent and workers both turn this into an
/// [`EvalSession`] through [`SweepConfig::to_session`] — one code path, so
/// every process flattens the identical canonical cell list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Policy spec strings (the `--policies` list).
    pub policies: Vec<String>,
    /// Scenario spec strings (the `--scenarios` list; empty = default axis).
    pub scenarios: Vec<String>,
    /// Offered-load points (the `--loads` list).
    pub loads: Vec<f64>,
    /// Jobs per replication (the `--jobs` value).
    pub jobs: usize,
    /// Replication seeds (the `--seeds` list).
    pub seeds: Vec<u64>,
}

impl SweepConfig {
    /// Build the evaluation session this configuration describes. Both the
    /// single-process sweep and every sweep-plane process call this, which
    /// is what keeps their grids (and therefore their outputs) identical.
    pub fn to_session<'r>(
        &self,
        registry: &'r PolicyRegistry,
        scenario_registry: &'r ScenarioRegistry,
    ) -> Result<EvalSession<'r>, PolicyError> {
        let base = WorkloadSpec::icpp_default().with_num_jobs(self.jobs);
        let mut session = EvalSession::new(registry)
            .cluster(ClusterSpec::icpp_default())
            .sim(SimConfig::default())
            .seeds(&self.seeds)
            .table("sweep", "ad-hoc scenario sweep", "load")
            .points(tcrm_workload::load_sweep(&base, &self.loads))
            .policies(self.policies.iter())?;
        if !self.scenarios.is_empty() {
            session = session.scenarios(scenario_registry, self.scenarios.iter())?;
        }
        Ok(session)
    }
}

/// What the parent embeds in the plane's config region: the sweep config
/// plus the fingerprint of the grid it flattened. Workers rebuild the plan
/// and refuse to run if their fingerprint differs — that means the worker
/// binary disagrees with the parent about what the grid *is* (version
/// skew, a changed trace file), and any rows it produced would silently
/// poison the table.
#[derive(Debug, Serialize, Deserialize)]
struct PlaneManifest {
    fingerprint: String,
    config: SweepConfig,
}

/// Options for the parent side of a multi-process sweep.
pub struct MprocOptions {
    /// Number of worker processes.
    pub workers: usize,
    /// Path of the shared-memory segment file.
    pub plane_path: PathBuf,
    /// The binary to spawn workers from (it must understand
    /// `worker --plane <path> --slot <i>`; normally `current_exe()`).
    pub worker_exe: PathBuf,
    /// SIGKILL a worker that has shown no progress (heartbeat, announced
    /// cell, completed count) for this long. Workers beat from a sidecar
    /// thread every [`WORKER_BEAT_PERIOD`] even while a cell runs, so only
    /// a truly stopped process trips this. `--heartbeat-timeout <secs>`
    /// overrides the 60 s default.
    pub heartbeat_timeout: Duration,
    /// Emit a progress heartbeat line at this interval.
    pub progress_every: Duration,
    /// Chaos hook: SIGKILL worker `slot` once it has completed `cells`
    /// cells (`--kill-worker slot@cells`). Exercises the crash-recovery
    /// path in tests and CI.
    pub kill_worker: Option<(usize, u64)>,
    /// Write the completed table to this checkpoint path as versioned JSON.
    pub checkpoint: Option<PathBuf>,
}

impl MprocOptions {
    /// Defaults for `workers` workers: plane file under the system temp
    /// dir, workers spawned from the current executable, 60 s heartbeat
    /// timeout, 2 s progress interval, no chaos, no checkpoint.
    pub fn new(workers: usize, worker_exe: PathBuf) -> MprocOptions {
        MprocOptions {
            workers,
            plane_path: std::env::temp_dir()
                .join(format!("tcrm-sweep-plane-{}.shm", std::process::id())),
            worker_exe,
            heartbeat_timeout: Duration::from_secs(60),
            progress_every: Duration::from_secs(2),
            kill_worker: None,
            checkpoint: None,
        }
    }
}

/// What a multi-process sweep produced, beyond the table.
#[derive(Debug)]
pub struct MprocReport {
    /// The full result table, rows in canonical grid order.
    pub table: ResultTable,
    /// Cells executed across all workers (>= the grid size when crashes
    /// forced recomputation).
    pub computed: usize,
    /// Cells requeued after worker crashes (0 on a clean run).
    pub requeued: usize,
    /// Workers that died by signal (or were killed for a stale heartbeat).
    pub crashed_workers: usize,
}

/// Errors from the multi-process sweep.
#[derive(Debug)]
pub enum MprocError {
    /// Grid configuration error (same domain as the in-process sweep).
    Policy(PolicyError),
    /// Segment creation/open, spawn or similar OS failure.
    Io(io::Error),
    /// A ring payload failed to encode/decode.
    Codec(String),
    /// The plane's manifest names a different grid than this process
    /// flattens from the same config — parent/worker version skew.
    FingerprintMismatch {
        /// Fingerprint in the plane manifest.
        manifest: String,
        /// Fingerprint this process computed.
        computed: String,
    },
    /// A worker's lease slot was already claimed (two workers launched
    /// with the same slot index).
    SlotTaken(usize),
    /// A worker exited nonzero — it hit a non-recoverable error and the
    /// sweep was aborted.
    WorkerFailed {
        /// The worker's lease slot.
        slot: usize,
        /// Its exit code.
        code: i32,
    },
    /// Every worker died while cells were still outstanding.
    AllWorkersDead {
        /// Cells that never produced a row.
        missing: usize,
    },
    /// The work ring filled up (crash-requeue volume exceeded its sizing).
    RingFull,
}

impl std::fmt::Display for MprocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MprocError::Policy(e) => write!(f, "{e}"),
            MprocError::Io(e) => write!(f, "sweep plane I/O error: {e}"),
            MprocError::Codec(e) => write!(f, "sweep plane codec error: {e}"),
            MprocError::FingerprintMismatch { manifest, computed } => write!(
                f,
                "grid fingerprint mismatch: plane manifest says {manifest}, this process \
                 computes {computed} — parent and worker binaries disagree about the grid"
            ),
            MprocError::SlotTaken(slot) => {
                write!(f, "worker lease slot {slot} is already claimed")
            }
            MprocError::WorkerFailed { slot, code } => write!(
                f,
                "worker {slot} exited with status {code}; sweep aborted (crashes are \
                 recovered, but a nonzero exit means the worker rejected the configuration)"
            ),
            MprocError::AllWorkersDead { missing } => write!(
                f,
                "every worker died with {missing} cells still outstanding"
            ),
            MprocError::RingFull => write!(
                f,
                "work ring overflowed — more crash-requeues than the ring was sized for"
            ),
        }
    }
}

impl std::error::Error for MprocError {}

impl From<PolicyError> for MprocError {
    fn from(e: PolicyError) -> Self {
        MprocError::Policy(e)
    }
}

impl From<io::Error> for MprocError {
    fn from(e: io::Error) -> Self {
        MprocError::Io(e)
    }
}

impl From<codec::CodecError> for MprocError {
    fn from(e: codec::CodecError) -> Self {
        MprocError::Codec(e.to_string())
    }
}

/// Size the plane for a grid of `cells` cells and `workers` workers.
///
/// The work ring must **never wrap** (that is what makes a stealer crash
/// between its claim CAS and its slot release harmless), so its capacity
/// covers the initial enqueue plus a generous crash-requeue budget. The
/// result ring is small — the parent drains it continuously — but every
/// slot must hold a full JSON row.
fn plane_params(cells: usize, workers: usize) -> PlaneParams {
    let enqueue_budget = cells.max(1) * 8 + workers * 8;
    PlaneParams {
        worker_slots: workers,
        work_capacity: enqueue_budget.next_power_of_two().max(64),
        result_capacity: 128,
        result_stride: 4096,
    }
}

/// Run the parent side: create the plane, spawn the workers, drive the
/// sweep to completion and assemble the canonical table.
pub fn run_sweep_parent(
    config: &SweepConfig,
    options: &MprocOptions,
) -> Result<MprocReport, MprocError> {
    let registry = PolicyRegistry::with_baselines();
    let scenario_registry = ScenarioRegistry::new();
    let plan = config.to_session(&registry, &scenario_registry)?.plan()?;
    let cells = plan.cell_count();

    let manifest = PlaneManifest {
        fingerprint: plan.fingerprint().to_string(),
        config: config.clone(),
    };
    let manifest_bytes = codec::encode(&manifest)?;
    let plane = Plane::create(
        &options.plane_path,
        plane_params(cells, options.workers),
        &manifest_bytes,
    )?;
    let work = plane.work_ring();
    for index in 0..cells as u64 {
        work.push(index).map_err(|_| MprocError::RingFull)?;
    }

    let mut supervisor = Supervisor::new();
    for slot in 0..options.workers {
        let mut command = Command::new(&options.worker_exe);
        command
            .arg("worker")
            .arg("--plane")
            .arg(&options.plane_path)
            .arg("--slot")
            .arg(slot.to_string());
        supervisor.spawn(&mut command)?;
    }

    let outcome = drive(&plan, &plane, &mut supervisor, options, cells);
    // Whatever happened, release the workers and reap them — no zombies,
    // no orphan processes spinning on the segment.
    if outcome.is_err() {
        plane.signal_abort();
    }
    plane.signal_shutdown();
    let late_exits = supervisor.join_all(Duration::from_secs(10));
    let _ = std::fs::remove_file(&options.plane_path);

    let (rows, computed, requeued, mut crashed_workers) = outcome?;
    // A worker killed just before the last row landed is reaped only here:
    // its exit never reached the drive loop, but it still died by signal.
    // Every row is already in, so there is nothing left to requeue.
    for (slot, exit) in late_exits {
        if exit == WorkerExit::Crashed {
            crashed_workers += 1;
            eprintln!("sweep: worker {slot} crashed");
        }
    }
    let mut table = plan.table_shell();
    table.rows.extend(rows);
    if let Some(path) = &options.checkpoint {
        table
            .save_json(path)
            .map_err(|e| PolicyError::CheckpointIo {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
    }
    Ok(MprocReport {
        table,
        computed,
        requeued,
        crashed_workers,
    })
}

type DriveOutcome = (Vec<ResultRow>, usize, usize, usize);

/// The parent's event loop: ingest rows, watch leases and exits, recover
/// from crashes, requeue, and report progress — until every cell has a row.
fn drive(
    plan: &SweepPlan<'_>,
    plane: &Plane,
    supervisor: &mut Supervisor,
    options: &MprocOptions,
    cells: usize,
) -> Result<DriveOutcome, MprocError> {
    let work = plane.work_ring();
    let results = plane.result_ring();
    let leases = plane.leases();
    let mut monitor = LeaseMonitor::new(options.workers);
    let mut rows: Vec<Option<ResultRow>> = (0..cells).map(|_| None).collect();
    let mut pending = cells;
    let mut computed = 0usize;
    let mut requeued = 0usize;
    let mut crashed_workers = 0usize;
    let mut chaos_armed = options.kill_worker;
    let mut waiter = Waiter::new();
    let mut buf = Vec::new();
    let started = Instant::now();
    let mut last_progress = Instant::now();
    let mut last_liveness = Instant::now();

    let requeue = |cell: u64, requeued: &mut usize, why: &str| -> Result<(), MprocError> {
        work.push(cell).map_err(|_| MprocError::RingFull)?;
        *requeued += 1;
        eprintln!("sweep: requeued cell {cell} ({why})");
        Ok(())
    };

    // Shared by the main reap site and the stuck-head re-check below:
    // classify a batch of worker exits. Crashes get their in-flight cell
    // requeued; a nonzero exit aborts the sweep; a clean exit before
    // shutdown is treated as a crash (the worker can only exit 0 after
    // observing shutdown). Returns whether anything was reaped.
    let handle_exits = |exits: Vec<(usize, WorkerExit)>,
                        rows: &[Option<ResultRow>],
                        requeued: &mut usize,
                        crashed_workers: &mut usize|
     -> Result<bool, MprocError> {
        let mut reaped = false;
        for (slot, exit) in exits {
            reaped = true;
            match exit {
                WorkerExit::Failed(code) => {
                    return Err(MprocError::WorkerFailed { slot, code });
                }
                WorkerExit::Crashed | WorkerExit::Clean => {
                    if exit == WorkerExit::Clean && plane.is_shutdown() {
                        continue;
                    }
                    *crashed_workers += 1;
                    eprintln!("sweep: worker {slot} crashed");
                    if let Some(cell) = leases.slot(slot).cell() {
                        if rows.get(cell as usize).is_some_and(|r| r.is_none()) {
                            requeue(cell, requeued, "in flight on crashed worker")?;
                        }
                    }
                }
            }
        }
        Ok(reaped)
    };

    while pending > 0 {
        let mut idle = true;

        // Ingest every available result; first row per cell wins, duplicate
        // recomputations (post-crash) are dropped.
        while let Some(cell) = results.try_pop(&mut buf) {
            idle = false;
            computed += 1;
            let row: ResultRow = codec::decode(&buf)?;
            let slot = rows
                .get_mut(cell as usize)
                .ok_or_else(|| MprocError::Codec(format!("row for unknown cell {cell}")))?;
            if slot.is_none() {
                *slot = Some(row);
                pending -= 1;
            }
        }

        // Chaos hook: kill the named worker once it has done enough cells.
        if let Some((slot, after)) = chaos_armed {
            if slot < options.workers
                && supervisor.is_live(slot)
                && leases.slot(slot).done() >= after
            {
                eprintln!("sweep: chaos: killing worker {slot} after {after} cells");
                let _ = supervisor.kill(slot);
                chaos_armed = None;
            }
        }

        // Reap exits.
        if handle_exits(
            supervisor.poll(),
            &rows,
            &mut requeued,
            &mut crashed_workers,
        )? {
            idle = false;
        }

        // A producer that died mid-publish leaves the result head claimed
        // but unreleased. Skipping it is sound only under the full
        // claim-word rule ([`tcrm_ipc::ResultRing::publish`]): several
        // claim words can name the same position at once — a worker killed
        // between its claim-store and its claiming CAS leaves a stale
        // claim naming the position a different, live worker then wins —
        // so the first dead claimant alone proves nothing.
        if let Some(stuck) = results.stuck_head() {
            if stuck_head_provably_dead(stuck, leases, options.workers, |i| supervisor.is_live(i)) {
                // `is_live` lags reality until a poll reaps the exit, so
                // reap again (requeueing whatever just died) and re-verify.
                // The fresh `stuck_head` read, taken *after* the claim
                // scan, discards the race where the live claimant released
                // the head between the first read and the scan.
                if handle_exits(
                    supervisor.poll(),
                    &rows,
                    &mut requeued,
                    &mut crashed_workers,
                )? {
                    idle = false;
                }
                if stuck_head_provably_dead(stuck, leases, options.workers, |i| {
                    supervisor.is_live(i)
                }) && results.stuck_head() == Some(stuck)
                {
                    idle = false;
                    eprintln!(
                        "sweep: result slot {stuck} is claimed by a dead worker; reclaiming it"
                    );
                    results.skip_head();
                    // Its row never arrived; the cell is still announced on
                    // the dead lease and was requeued by the crash handler
                    // above (or will be by reconciliation below).
                }
            }
            // A live claimant (publish in progress), or no dead claim
            // naming the position: leave the head alone.
        }

        // Stale-heartbeat kill: a wedged worker is indistinguishable from a
        // dead one to the sweep; force the question.
        if last_liveness.elapsed() >= Duration::from_millis(200) {
            last_liveness = Instant::now();
            for slot in 0..options.workers {
                if supervisor.is_live(slot)
                    && monitor.is_stale(leases.slot(slot), slot, options.heartbeat_timeout)
                {
                    eprintln!(
                        "sweep: worker {slot} heartbeat stale for {:?}; killing it",
                        options.heartbeat_timeout
                    );
                    let _ = supervisor.kill(slot);
                }
            }
        }

        // Reconciliation: once every pushed cell has been claimed, any
        // pending cell that no live worker announces is lost (stolen by a
        // worker that died before announcing, or whose requeue raced) —
        // requeue it. Over-requeueing is safe: duplicates dedup on ingest.
        if work.is_drained() && supervisor.live_count() > 0 {
            let announced: Vec<u64> = (0..options.workers)
                .filter(|&i| supervisor.is_live(i) && leases.slot(i).state() == LeaseState::Running)
                .filter_map(|i| leases.slot(i).cell())
                .collect();
            for (index, row) in rows.iter().enumerate() {
                if row.is_none() && !announced.contains(&(index as u64)) {
                    idle = false;
                    requeue(index as u64, &mut requeued, "unclaimed after drain")?;
                }
            }
        }

        if supervisor.live_count() == 0 && pending > 0 {
            // One final drain: rows published just before the last exit.
            while let Some(cell) = results.try_pop(&mut buf) {
                computed += 1;
                let row: ResultRow = codec::decode(&buf)?;
                let slot = rows
                    .get_mut(cell as usize)
                    .ok_or_else(|| MprocError::Codec(format!("row for unknown cell {cell}")))?;
                if slot.is_none() {
                    *slot = Some(row);
                    pending -= 1;
                }
            }
            if pending > 0 {
                return Err(MprocError::AllWorkersDead { missing: pending });
            }
            break;
        }

        // Progress heartbeat: cells done, total, and ingest rate — the same
        // line format the single-process sweep emits, plus worker liveness.
        if last_progress.elapsed() >= options.progress_every {
            last_progress = Instant::now();
            let done = cells - pending;
            let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "sweep: progress {done}/{cells} cells ({rate:.1} rows/s), {}/{} workers live",
                supervisor.live_count(),
                options.workers
            );
        }

        if idle {
            waiter.wait();
        } else {
            waiter.reset();
        }
    }

    let rows: Vec<ResultRow> = rows
        .into_iter()
        .map(|r| r.expect("pending reached 0 with a hole"))
        .collect();
    // The plan's canonical order is the row order by construction; the
    // count is a final sanity check on the ingest bookkeeping.
    debug_assert_eq!(rows.len(), plan.cell_count());
    Ok((rows, computed, requeued, crashed_workers))
}

/// The stuck-head skip rule from the claim-word protocol documented on
/// [`tcrm_ipc::ResultRing::publish`]: the parent may [`skip`] the result
/// ring's head only when
///
/// * **no live `Running` worker's** claim word names the stuck position —
///   the position's true claimant keeps its claim word set from before its
///   winning CAS until after its sequence release, so a live claimant is
///   mid-publish and must not be raced; and
/// * **some dead worker's** claim word does name it — positive evidence
///   that a claimant died, rather than a head we merely caught mid-claim.
///
/// Both conditions are needed because several claim words can name the
/// same position at once: a worker killed between its claim-store and its
/// claiming CAS leaves a stale claim naming a position that a different,
/// live worker then wins.
///
/// [`skip`]: tcrm_ipc::ResultRing::skip_head
fn stuck_head_provably_dead(
    stuck: u64,
    leases: LeaseTable<'_>,
    workers: usize,
    is_live: impl Fn(usize) -> bool,
) -> bool {
    let live_claimant = (0..workers).any(|i| {
        is_live(i)
            && leases.slot(i).state() == LeaseState::Running
            && leases.slot(i).claim() == Some(stuck)
    });
    let dead_claimant = (0..workers).any(|i| !is_live(i) && leases.slot(i).claim() == Some(stuck));
    !live_claimant && dead_claimant
}

/// How often a worker's sidecar thread beats its lease. Far inside any
/// sane `heartbeat_timeout`, so a worker that is merely *slow* — one cell
/// outlasting the timeout, or a publish spinning on a full result ring —
/// never reads as wedged to the parent.
pub const WORKER_BEAT_PERIOD: Duration = Duration::from_millis(50);

/// Run the worker side: open the plane at `plane_path`, verify the grid
/// fingerprint, take lease `slot`, and steal/execute/publish cells until
/// the parent signals shutdown (or abort).
pub fn run_sweep_worker(plane_path: &Path, slot: usize) -> Result<(), MprocError> {
    let plane = Plane::open(plane_path)?;
    let manifest: PlaneManifest = codec::decode(plane.config())?;
    let registry = PolicyRegistry::with_baselines();
    let scenario_registry = ScenarioRegistry::new();
    let plan = manifest
        .config
        .to_session(&registry, &scenario_registry)?
        .plan()?;
    if plan.fingerprint() != manifest.fingerprint {
        return Err(MprocError::FingerprintMismatch {
            manifest: manifest.fingerprint,
            computed: plan.fingerprint().to_string(),
        });
    }
    if slot >= plane.params().worker_slots {
        return Err(MprocError::SlotTaken(slot));
    }
    let leases = plane.leases();
    let lease = leases.slot(slot);
    if !lease.acquire(std::process::id() as u64) {
        return Err(MprocError::SlotTaken(slot));
    }

    let work = plane.work_ring();
    let results = plane.result_ring();
    let mut scratch = plan.make_scratch();
    // The steal loop beats once per trip, but a cell's `run_cell` (and a
    // publish spinning on a full result ring) can legitimately outlast the
    // parent's heartbeat timeout. A sidecar thread keeps the lease warm
    // the whole time this process is scheduled, so the parent only kills
    // workers that are actually stopped.
    let stop_beating = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop_beating.load(Ordering::Acquire) {
                lease.beat();
                std::thread::sleep(WORKER_BEAT_PERIOD);
            }
        });
        let result: Result<(), MprocError> = (|| {
            let mut steal_waiter = Waiter::new();
            let mut publish_waiter = Waiter::new();
            loop {
                lease.beat();
                if plane.is_aborted() {
                    break;
                }
                match work.steal() {
                    Some(cell) => {
                        steal_waiter.reset();
                        lease.announce_cell(cell);
                        let row = match plan.run_cell(&mut scratch, cell as usize) {
                            Ok(row) => row,
                            Err(e) => {
                                lease.finish(LeaseState::Failed);
                                return Err(e.into());
                            }
                        };
                        let payload = codec::encode(&row)?;
                        results
                            .publish(lease.claim_word(), cell, &payload, &mut publish_waiter)
                            .map_err(|e| MprocError::Codec(e.to_string()))?;
                        lease.clear_cell();
                    }
                    None if plane.is_shutdown() && work.is_drained() => break,
                    None => steal_waiter.wait(),
                }
            }
            Ok(())
        })();
        stop_beating.store(true, Ordering::Release);
        result
    });
    outcome?;
    lease.finish(LeaseState::Finished);
    Ok(())
}

/// Parse `expdriver sweep`'s multi-process flags out of an argument pair
/// stream — kept here next to the options they fill so the binary stays a
/// thin dispatcher.
pub fn parse_mproc_flag(
    options: &mut Option<MprocFlags>,
    flag: &str,
    value: &str,
) -> Result<bool, String> {
    match flag {
        "--workers" => {
            options.get_or_insert_with(MprocFlags::default).workers = cli::parse_workers(value)?;
            Ok(true)
        }
        "--plane" => {
            options.get_or_insert_with(MprocFlags::default).plane = Some(PathBuf::from(value));
            Ok(true)
        }
        "--kill-worker" => {
            options.get_or_insert_with(MprocFlags::default).kill_worker =
                Some(cli::parse_kill_worker(value)?);
            Ok(true)
        }
        "--heartbeat-timeout" => {
            options
                .get_or_insert_with(MprocFlags::default)
                .heartbeat_timeout = Some(cli::parse_timeout_secs("--heartbeat-timeout", value)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// The raw multi-process flags of `expdriver sweep` before they are turned
/// into [`MprocOptions`].
#[derive(Debug, Default)]
pub struct MprocFlags {
    /// `--workers N` (0 = not set; the single-process path).
    pub workers: usize,
    /// `--plane <path>` override for the segment file.
    pub plane: Option<PathBuf>,
    /// `--kill-worker slot@cells` chaos spec.
    pub kill_worker: Option<(usize, u64)>,
    /// `--heartbeat-timeout <secs>` override for
    /// [`MprocOptions::heartbeat_timeout`].
    pub heartbeat_timeout: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SweepConfig {
        SweepConfig {
            policies: vec!["edf".into(), "fifo".into()],
            scenarios: vec![],
            loads: vec![0.7, 0.9],
            jobs: 20,
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn sweep_config_roundtrips_and_builds_identical_plans() {
        let bytes = codec::encode(&config()).unwrap();
        let back: SweepConfig = codec::decode(&bytes).unwrap();
        assert_eq!(back, config());

        let registry = PolicyRegistry::with_baselines();
        let scenarios = ScenarioRegistry::new();
        let a = config()
            .to_session(&registry, &scenarios)
            .unwrap()
            .plan()
            .unwrap();
        let b = back
            .to_session(&registry, &scenarios)
            .unwrap()
            .plan()
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cell_count(), b.cell_count());
        // 2 policies × 2 loads × 2 seeds.
        assert_eq!(a.cell_count(), 8);
        for i in 0..a.cell_count() {
            assert_eq!(a.key(i), b.key(i));
        }
    }

    #[test]
    fn plane_params_never_wrap_and_stay_pow2() {
        for cells in [0, 1, 7, 100, 5000] {
            for workers in [1, 3, 16] {
                let p = plane_params(cells, workers);
                assert!(p.work_capacity.is_power_of_two());
                assert!(p.result_capacity.is_power_of_two());
                // Room for the initial enqueue plus a 7×-cells requeue
                // budget: the never-wrap discipline.
                assert!(p.work_capacity >= cells * 8);
                assert_eq!(p.result_stride % 64, 0);
            }
        }
    }

    #[test]
    fn mproc_flags_parse_and_reject() {
        let mut flags = None;
        assert!(parse_mproc_flag(&mut flags, "--workers", "3").unwrap());
        assert!(parse_mproc_flag(&mut flags, "--plane", "/tmp/p.shm").unwrap());
        assert!(parse_mproc_flag(&mut flags, "--kill-worker", "1@2").unwrap());
        assert!(parse_mproc_flag(&mut flags, "--heartbeat-timeout", "2.5").unwrap());
        assert!(!parse_mproc_flag(&mut flags, "--csv", "x").unwrap());
        let flags = flags.unwrap();
        assert_eq!(flags.workers, 3);
        assert_eq!(flags.plane.as_deref(), Some(Path::new("/tmp/p.shm")));
        assert_eq!(flags.kill_worker, Some((1, 2)));
        assert_eq!(flags.heartbeat_timeout, Some(Duration::from_millis(2500)));

        let mut flags = None;
        assert!(parse_mproc_flag(&mut flags, "--workers", "0").is_err());
        assert!(parse_mproc_flag(&mut flags, "--kill-worker", "nope").is_err());
        assert!(parse_mproc_flag(&mut flags, "--heartbeat-timeout", "0").is_err());
    }

    #[test]
    fn stuck_head_skip_requires_a_dead_claimant_and_no_live_one() {
        let path =
            std::env::temp_dir().join(format!("tcrm-mproc-stuck-test-{}.shm", std::process::id()));
        let plane = Plane::create(
            &path,
            PlaneParams {
                worker_slots: 2,
                work_capacity: 8,
                result_capacity: 8,
                result_stride: 128,
            },
            b"",
        )
        .unwrap();
        let leases = plane.leases();
        let stale = leases.slot(0);
        let claimant = leases.slot(1);
        assert!(stale.acquire(100));
        assert!(claimant.acquire(101));

        // Worker 1 wins result position 0 and stalls mid-publish (never
        // releases the slot) …
        plane.result_ring().abandon_claim(claimant.claim_word());
        // … while worker 0 was killed between storing position 0 into its
        // claim word and losing the claiming CAS: a stale claim naming the
        // same position.
        stale
            .claim_word()
            .store(0, std::sync::atomic::Ordering::Release);
        let stuck = plane.result_ring().stuck_head().expect("head is stuck");
        assert_eq!(stuck, 0);

        // The review scenario: the dead worker (lower slot) names the
        // stuck position, but the true claimant is alive mid-publish —
        // skipping now would corrupt the ring under a live writer.
        assert!(!stuck_head_provably_dead(stuck, leases, 2, |i| i == 1));
        // Everyone alive: a publish is simply in progress.
        assert!(!stuck_head_provably_dead(stuck, leases, 2, |_| true));
        // Claimant dead too: now provably safe to skip.
        assert!(stuck_head_provably_dead(stuck, leases, 2, |_| false));
        // Dead workers whose claims do not name the position are no
        // evidence — without a dead claim on the head, never skip.
        stale
            .claim_word()
            .store(tcrm_ipc::NONE, std::sync::atomic::Ordering::Release);
        claimant
            .claim_word()
            .store(tcrm_ipc::NONE, std::sync::atomic::Ordering::Release);
        assert!(!stuck_head_provably_dead(stuck, leases, 2, |_| false));

        drop(plane);
        let _ = std::fs::remove_file(&path);
    }
}
