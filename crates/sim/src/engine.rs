//! The discrete-event simulation engine.
//!
//! Two levels of API are exposed:
//!
//! * [`Simulator::run`] drives a whole simulation with any [`Scheduler`]
//!   implementation and returns a [`SimulationResult`] — this is what the
//!   baselines, examples and benchmark harness use. Its siblings
//!   [`Simulator::run_reusing`], [`Simulator::run_source`] and
//!   [`Simulator::run_service`] share one epoch loop, which a serving plane
//!   plugs its ingress, admission control and telemetry into through
//!   [`EpochHooks`].
//! * the step-wise API ([`Simulator::start`], [`Simulator::advance`],
//!   [`Simulator::view`], [`Simulator::apply`], [`Simulator::finalize`]) gives
//!   a reinforcement-learning environment full control over decision epochs —
//!   `tcrm-core::env::SchedulingEnv` is built on it.
//!
//! Every driver admits jobs the same way: the engine holds at most one
//! future arrival, outside the event heap, and [`Simulator::advance`] lets
//! it fire before any event at or after its timestamp. A batch run refills
//! that slot from the job list [`Simulator::start`] loaded; the streaming
//! entry points refill it from their ingress. The heap holds only
//! completion and periodic events, and streamed or served runs equal
//! [`Simulator::run`] over the same jobs exactly.

use crate::allocation::{Allocation, Placement};
use crate::cluster::Cluster;
use crate::config::{ClusterSpec, SimConfig};
use crate::event::{EventKind, EventQueue};
use crate::job::{Job, JobId, JobIdMap};
use crate::metrics::{
    CompletedJob, MetricsCollector, PerClassUtilization, Summary, UtilizationSample,
    UtilizationTrace,
};
use crate::node::NodeClassId;
use crate::pending::PendingQueue;
use crate::resources::ResourceVector;
use crate::scheduler::{Action, ActionOutcome, Scheduler};
use crate::view::{ClusterView, NodeClassView, PendingJobView, RunningJobView, ViewSync};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a full simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Aggregate statistics.
    pub summary: Summary,
    /// Per-job completion records.
    pub completed: Vec<CompletedJob>,
    /// Utilisation timeline.
    pub trace: UtilizationTrace,
}

/// What kind of event produced the decision epoch [`Simulator::advance`]
/// just returned for. Long-lived step-wise drivers (the serving plane, RL
/// environments) read this through [`Simulator::last_epoch`] to react to
/// arrivals (admission control) and completions (event streaming) without
/// diffing queue lengths between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// A job arrived and was appended to the pending queue.
    Arrival(JobId),
    /// A running job completed.
    Completion(JobId),
    /// A periodic decision-interval tick.
    Periodic,
}

/// Callbacks of the engine's epoch loop — the one loop behind
/// [`Simulator::run`], [`Simulator::run_reusing`], [`Simulator::run_source`]
/// and [`Simulator::run_service`]. Every method defaults to a no-op, and the
/// loop is generic over the hooks type, so unused hooks cost nothing.
///
/// Per decision epoch the loop runs, in order:
///
/// 1. `advance` to the next epoch (arrival, completion or periodic tick);
/// 2. pull [`Self::next_arrival`] into the engine's arrival slot if the
///    epoch's arrival emptied it — the loop keeps exactly one future
///    arrival buffered;
/// 3. [`Self::on_epoch`] — admission control and shedding;
/// 4. the decision rounds, with [`Self::on_action`] after every applied
///    action;
/// 5. change-log compaction, then [`Self::after_epoch`] — telemetry;
/// 6. the deadlock guard: abort when no action changed anything and
///    [`Simulator::is_stalled`].
///
/// Pulling (step 2) only fills the arrival slot and admission (step 3)
/// touches neither the slot nor the event queue, so their order changes no
/// event sequence. A pull may block on the ingress; it happens before
/// `on_epoch`, so a hook that times the epoch from `on_epoch` to
/// `after_epoch` excludes that wait.
pub trait EpochHooks {
    /// The ingress: the next job, in non-decreasing `(arrival, id)` order, or
    /// `None` once exhausted (out-of-order arrivals are clamped forward and
    /// counted like any other stale event).
    fn next_arrival(&mut self) -> Option<Job> {
        None
    }

    /// Consume the jobs the ingress still holds and return how many there
    /// were. Called once, when a run aborts, so that jobs never pulled count
    /// toward the total like a batch run's unfinished ones. An ingress with
    /// no meaningful total (an endless generator) returns 0.
    fn unpulled(&mut self) -> usize {
        0
    }

    /// Called once per epoch after the arrival pull, before the decision
    /// rounds; [`Simulator::last_epoch`] says what produced the epoch.
    fn on_epoch(&mut self, _sim: &mut Simulator) {}

    /// Called after every action the scheduler emitted was applied.
    fn on_action(&mut self, _action: &Action, _outcome: &ActionOutcome) {}

    /// Called once per epoch after the decision rounds and log compaction,
    /// before the deadlock guard.
    fn after_epoch(&mut self, _sim: &Simulator) {}
}

/// The hooks of the non-serving entry points: an iterator ingress and no
/// callbacks (an empty iterator for the batch drivers).
struct Arrivals<I>(I);

impl<I: Iterator<Item = Job>> EpochHooks for Arrivals<I> {
    fn next_arrival(&mut self) -> Option<Job> {
        self.0.next()
    }

    fn unpulled(&mut self) -> usize {
        if self.0.size_hint().1.is_some() {
            self.0.by_ref().count()
        } else {
            0
        }
    }
}

/// Internal bookkeeping for one running job.
///
/// Progress is **lazily reconciled**: between two rate changes (start,
/// re-scale) a running job's execution rate is constant, so nothing touches
/// the job while time advances. `remaining_work` and `unit_seconds` are the
/// values *as of `last_update`*; the view row carries the same reconciled
/// state and [`RunningJobView::remaining_work`] derives the current
/// remaining work on demand, while [`Self::reconcile`] folds the elapsed
/// span in exactly when the rate is about to change (or the job completes).
/// Time advances are therefore O(1) instead of O(running jobs).
#[derive(Debug, Clone)]
struct RunningJob {
    job: Job,
    alloc: Allocation,
    /// Remaining work as of `last_update` (not "now").
    remaining_work: f64,
    last_update: f64,
    started_at: f64,
    /// Invalidates stale completion events after re-scaling.
    version: u64,
    /// Time of the job's start or most recent re-scaling (cooldown tracking).
    last_scaled_at: f64,
    /// Integral of parallelism over time as of `last_update` (for the
    /// average-parallelism metric).
    unit_seconds: f64,
    scale_count: u32,
    /// Execution rate in work units per second — cached at start/re-scale
    /// (it only depends on the placement class and the degree of
    /// parallelism, both constant between re-scales).
    rate: f64,
}

impl RunningJob {
    fn compute_rate(cluster: &Cluster, alloc: &Allocation, job: &Job) -> f64 {
        let speed = cluster.speed_factor(alloc.class, job.class);
        speed * job.speedup.speedup(alloc.total_units())
    }

    /// Fold the constant-rate span `[last_update, now]` into the stored
    /// progress. Must run before the rate changes (re-scale) and at
    /// completion.
    fn reconcile(&mut self, now: f64) {
        if now > self.last_update {
            let dt = now - self.last_update;
            self.remaining_work = (self.remaining_work - dt * self.rate).max(0.0);
            self.unit_seconds += dt * self.alloc.total_units() as f64;
            self.last_update = now;
        }
    }
}

/// One recorded change to the scheduler-visible state, the unit of the
/// incremental view protocol (see [`Simulator::view_into`]). Deltas are
/// **self-contained**: positions are valid in the view state that results
/// from applying every earlier delta, and rows/capacities are captured at
/// emit time, so a view can catch up from any recorded position.
// Row-carrying variants stay inline: boxing them would put one heap
// allocation on every arrival/start, breaking the allocation-free stepping
// contract the counting-allocator tests pin.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum ViewDelta {
    /// A job arrived: append this row to `pending`.
    Arrived(PendingJobView),
    /// A pending job started: remove the row at this arrival-order position.
    PendingRemoved { pos: u32 },
    /// A job started: insert this row at the given start-order position.
    RunningInserted { pos: u32, row: RunningJobView },
    /// A running job was re-scaled — the only change to a running row
    /// between its start and completion: overwrite the reconciled progress
    /// of the row at this start-order position.
    RunningRescaled {
        pos: u32,
        units: u32,
        remaining_at_update: f64,
        last_update: f64,
        rate: f64,
        last_scaled_at: f64,
    },
    /// A running job completed: remove the row at this start-order position.
    RunningRemoved { pos: u32 },
    /// A node's free capacity changed: overwrite its `node_free` entry.
    NodeFree {
        class: u32,
        index: u32,
        free: ResourceVector,
    },
}

/// Process-unique simulator identity for the view-sync protocol. Cloning a
/// simulator deliberately mints a *fresh* id: a view synced against the
/// original must not incrementally follow the clone's diverging change log.
#[derive(Debug)]
struct SimId(u64);

/// The most jobs any entry point pre-sizes its per-run collections for.
const PRESIZE_JOBS: usize = 1024;

static NEXT_SIM_ID: AtomicU64 = AtomicU64::new(1);

impl SimId {
    fn fresh() -> Self {
        SimId(NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for SimId {
    fn clone(&self) -> Self {
        SimId::fresh()
    }
}

/// Process-unique feasibility generations (see
/// [`ClusterView::feasibility_gen`]); 0 is never minted.
static NEXT_FEASIBILITY_GEN: AtomicU64 = AtomicU64::new(1);

/// The engine's feasibility generation and per-class release stamps (see
/// [`ClusterView::released_at`]). Cloning a simulator deliberately mints a
/// *fresh* generation: the clone's state diverges from the original's, so
/// nothing a scheduler learned about one may carry over to the other.
#[derive(Debug)]
struct Feasibility {
    gen: u64,
    released_at: Vec<usize>,
}

impl Feasibility {
    fn new(num_classes: usize) -> Self {
        Feasibility {
            gen: Self::mint(),
            released_at: vec![0; num_classes],
        }
    }

    fn mint() -> u64 {
        NEXT_FEASIBILITY_GEN.fetch_add(1, Ordering::Relaxed)
    }

    /// Begin a new generation: a pending job may have become startable
    /// other than by a capacity release.
    fn bump(&mut self) {
        self.gen = Self::mint();
    }

    /// A new generation for a run starting from position 0 of a cleared
    /// change log: stamps of the previous run would read as future
    /// releases.
    fn restart(&mut self) {
        self.bump();
        self.released_at.fill(0);
    }
}

impl Clone for Feasibility {
    fn clone(&self) -> Self {
        Feasibility {
            gen: Self::mint(),
            released_at: self.released_at.clone(),
        }
    }
}

/// The discrete-event simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: Arc<ClusterSpec>,
    config: SimConfig,
    cluster: Cluster,
    time: f64,
    events: EventQueue,
    pending: PendingQueue,
    running: JobIdMap<RunningJob>,
    /// Running job ids kept sorted by `(started_at, id)` — the order
    /// [`Self::view`] exposes. Maintained incrementally on start/completion
    /// so building a view never re-sorts.
    running_order: Vec<JobId>,
    /// Placement buffers of finished allocations, reused by the next start
    /// or scale-up so steady-state stepping does not allocate.
    placement_pool: Vec<Vec<Placement>>,
    metrics: MetricsCollector,
    total_jobs: usize,
    /// The one future arrival, held outside the event heap; [`Self::advance`]
    /// takes it when it is due no later than the heap's earliest event.
    next_arrival: Option<Job>,
    /// The rest of a batch run's jobs in `(arrival, id)` order, moved into
    /// `next_arrival` one at a time. Empty in streamed runs, whose ingress
    /// fills `next_arrival` instead.
    staged: std::vec::IntoIter<Job>,
    /// Best-known count of arrivals still to come — what views report as
    /// `future_arrivals`: the job count of a batch run, the ingress's size
    /// hint in a streamed one, counted down per arrival, so schedulers (e.g.
    /// the DRL state encoder) see the same remaining-work signal either way.
    future_arrivals: usize,
    started: bool,
    aborted: bool,
    /// What produced the most recent decision epoch (see [`EpochKind`]).
    last_epoch: EpochKind,
    /// Events whose timestamp was behind the simulation clock and was
    /// clamped forward to `self.time` (see [`Self::advance`]).
    clamped_events: u64,
    best_speed_cache: [f64; crate::job::JobClass::COUNT],
    /// Process-unique identity for the incremental-view sync protocol.
    sim_id: SimId,
    /// Bumped on every [`Self::reset`]; views synced to an earlier run
    /// rebuild instead of replaying a cleared change log.
    run_epoch: u64,
    /// Change log of scheduler-visible state (cleared on reset), always
    /// maintained: [`Self::view_into`] replays it. The drivers compact
    /// it once their view has consumed it — see [`Self::compact_log`] — so
    /// its length is bounded by the deltas of a single decision epoch, not
    /// the run: streaming runs keep their O(running + pending) memory
    /// contract.
    log: Vec<ViewDelta>,
    /// Absolute log position of `log[0]`: view cursors are absolute, so
    /// compaction just advances the base and views behind it rebuild.
    log_base: usize,
    /// Current feasibility generation and release stamps, copied into
    /// every refilled view.
    feasibility: Feasibility,
}

impl Simulator {
    /// Create a simulator for a cluster spec and engine configuration.
    pub fn new(spec: ClusterSpec, config: SimConfig) -> Self {
        let mut best_speed_cache = [1.0; crate::job::JobClass::COUNT];
        for class in crate::job::JobClass::ALL {
            best_speed_cache[class.index()] = spec.best_speed_factor(class);
        }
        let spec = Arc::new(spec);
        let cluster = Cluster::new((*spec).clone());
        let feasibility = Feasibility::new(cluster.num_classes());
        Simulator {
            spec,
            config,
            cluster,
            time: 0.0,
            events: EventQueue::new(),
            pending: PendingQueue::new(),
            running: JobIdMap::default(),
            running_order: Vec::new(),
            placement_pool: Vec::new(),
            metrics: MetricsCollector::new(),
            total_jobs: 0,
            next_arrival: None,
            staged: Vec::new().into_iter(),
            future_arrivals: 0,
            started: false,
            aborted: false,
            last_epoch: EpochKind::Periodic,
            clamped_events: 0,
            best_speed_cache,
            sim_id: SimId::fresh(),
            run_epoch: 0,
            log: Vec::new(),
            log_base: 0,
            feasibility,
        }
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Immutable access to the cluster (tests and invariant checks).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of jobs currently waiting.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Completion records collected so far (the RL environment reads newly
    /// appended entries to compute rewards between decision epochs).
    pub fn completed_so_far(&self) -> &[CompletedJob] {
        self.metrics.completed()
    }

    /// Total number of jobs submitted via [`Self::start`].
    pub fn total_jobs(&self) -> usize {
        self.total_jobs
    }

    /// Number of jobs currently running.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Number of events whose timestamp was behind the simulation clock and
    /// was clamped forward (should stay 0 in a well-formed run; see
    /// [`Self::advance`]).
    pub fn clamped_event_count(&self) -> u64 {
        self.clamped_events
    }

    // ------------------------------------------------------------------
    // Step-wise API
    // ------------------------------------------------------------------

    /// Load a workload: its jobs, sorted by `(arrival, id)`, arrive one at
    /// a time through the single buffered arrival. Must be called exactly
    /// once before [`Self::advance`].
    pub fn start(&mut self, mut jobs: Vec<Job>) {
        self.begin_run(jobs.len());
        let order = |a: &Job, b: &Job| {
            a.arrival
                .partial_cmp(&b.arrival)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        };
        // Workload sources emit sorted lists; skipping their sort keeps
        // replications free of its scratch allocation.
        if !jobs.is_sorted_by(|a, b| order(a, b).is_le()) {
            jobs.sort_by(order);
        }
        self.total_jobs = jobs.len();
        self.staged = jobs.into_iter();
        self.next_arrival = self.staged.next();
    }

    // ------------------------------------------------------------------
    // Service hooks (admission control and external drivers use these)
    // ------------------------------------------------------------------

    /// Number of loaded-but-not-yet-arrived jobs: every remaining job of a
    /// batch run, and at most one for the streaming entry points, whose
    /// loop keeps a single arrival buffered.
    pub fn buffered_arrivals(&self) -> usize {
        usize::from(self.next_arrival.is_some()) + self.staged.len()
    }

    /// What produced the decision epoch the latest [`Self::advance`] returned
    /// for.
    pub fn last_epoch(&self) -> EpochKind {
        self.last_epoch
    }

    /// Iterate the queued jobs in arrival order (admission policies inspect
    /// deadlines and classes without building a full view).
    pub fn pending_jobs(&self) -> impl Iterator<Item = &Job> + '_ {
        self.pending.iter()
    }

    /// One queued job by id.
    pub fn pending_job(&self, id: JobId) -> Option<&Job> {
        self.pending.get(id)
    }

    /// Remove a queued job before it ever starts (load shedding). The job's
    /// maximum utility is charged as forfeited — a shed job counts against
    /// the policy exactly like one that was never scheduled — and the job is
    /// returned to the caller for event reporting. Returns `None` when the
    /// id is not pending.
    pub fn cancel_pending(&mut self, id: JobId) -> Option<Job> {
        let (job, pos) = self.pending.remove(id)?;
        self.log.push(ViewDelta::PendingRemoved { pos });
        self.feasibility.bump();
        self.metrics.record_unfinished(job.utility.value);
        Some(job)
    }

    /// Degrade a queued job to rigid minimum-parallelism service (the
    /// `degrade-to-rigid` shed policy): the job loses malleability and its
    /// parallelism range collapses to `min_parallelism`, making it cheaper
    /// to place and immune to re-scaling churn. The job moves to the tail of
    /// the arrival order (remove + re-admit), which the incremental view
    /// protocol records as a removal plus a fresh arrival. Returns `false`
    /// when the id is not pending.
    pub fn degrade_pending_to_rigid(&mut self, id: JobId) -> bool {
        let Some((mut job, pos)) = self.pending.remove(id) else {
            return false;
        };
        self.log.push(ViewDelta::PendingRemoved { pos });
        self.feasibility.bump();
        job.malleable = false;
        job.max_parallelism = job.min_parallelism;
        self.push_pending(job);
        true
    }

    /// Abort the run from an external step-wise driver (e.g. on
    /// [`Self::is_stalled`]). The next [`Self::advance`] returns `false`.
    pub fn abort_service(&mut self) {
        self.abort_run();
    }

    /// Finish a run **without consuming the simulator**: charge forfeited
    /// utility for unfinished jobs and summarize — what every reusing entry
    /// point ([`Self::run_reusing`], [`Self::run_source`],
    /// [`Self::run_service`]) does after its epoch loop. The simulator stays
    /// reusable via [`Self::reset`].
    pub fn finish_service(&mut self) -> Summary {
        self.charge_unfinished();
        self.metrics.summarize(self.total_jobs)
    }

    /// True when the run was aborted (deadlock guard or `max_sim_time`).
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// True when the state can never change again without a scheduler
    /// action: nothing is running, no arrival is left and jobs are still
    /// pending. The deadlock guard of the epoch loop (and of the RL
    /// environment) ends a run that reaches this state after an epoch in
    /// which no action changed anything.
    pub fn is_stalled(&self) -> bool {
        self.running.is_empty() && self.next_arrival.is_none() && !self.pending.is_empty()
    }

    /// Run setup shared by [`Self::start`] and the streaming entry points:
    /// flags, the future-arrival count, buffer pre-sizing and the periodic
    /// events.
    fn begin_run(&mut self, expected_jobs: usize) {
        assert!(!self.started, "Simulator::start called twice");
        self.started = true;
        self.feasibility.bump();
        self.future_arrivals = expected_jobs;
        self.metrics.configure(self.config.bounded_metrics);
        // Pre-size the per-run collections so steady-state stepping does not
        // grow them (part of the allocation-free stepping contract), for at
        // most `PRESIZE_JOBS` jobs: memory must not scale with an
        // advertised run length when the queue stays short. Longer runs
        // fall back to amortised growth; the capacity persists across
        // resets.
        let presize = expected_jobs.min(PRESIZE_JOBS);
        self.pending.reserve(presize);
        self.running_order.reserve(presize);
        self.metrics.reserve(presize);
        // Budget the view change log: one entry per arrival plus a few per
        // start/completion/scale.
        self.log.reserve(presize * 6);
        // Budget the utilisation trace: enough for the horizon the workload
        // plausibly covers, capped so pathological sampling intervals cannot
        // reserve unbounded memory. Runs that outlive the budget fall back to
        // amortised growth. Bounded-metrics runs fold samples into fixed
        // state instead of storing them, so the trace stays unallocated.
        if !self.config.bounded_metrics {
            let sample_budget = (self.config.max_sim_time / self.config.util_sample_interval)
                .clamp(16.0, 1024.0) as usize;
            self.metrics.reserve_samples(sample_budget);
        }
        if let Some(interval) = self.config.decision_interval {
            self.events.push(interval, EventKind::DecisionEpoch);
        }
        self.events.push(
            self.config.util_sample_interval,
            EventKind::UtilizationSample,
        );
    }

    /// True when every job has been processed (or the run aborted).
    pub fn is_done(&self) -> bool {
        self.aborted
            || (self.started
                && self.next_arrival.is_none()
                && self.pending.is_empty()
                && self.running.is_empty())
    }

    /// Process events until the next decision epoch. Returns `true` if a
    /// decision is required, `false` if the simulation is over.
    ///
    /// The buffered arrival fires when it is due no later than the heap's
    /// earliest event, so an arrival wins every timestamp tie whichever
    /// driver buffered it.
    pub fn advance(&mut self) -> bool {
        assert!(self.started, "call Simulator::start first");
        loop {
            if self.is_done() {
                return false;
            }
            let next_event = self.events.peek_time();
            let arrival = self
                .next_arrival
                .as_ref()
                .map(|job| job.arrival)
                .filter(|&t| next_event.is_none_or(|e| t <= e));
            let Some(time) = arrival.or(next_event) else {
                // Nothing left to happen. If jobs are still pending they are
                // unschedulable or the policy refuses to start them; give the
                // caller one final decision opportunity only if something can
                // still change — otherwise abort.
                if !self.pending.is_empty() && self.running.is_empty() {
                    self.abort_run();
                }
                self.last_epoch = EpochKind::Periodic;
                return !self.is_done() && !self.aborted;
            };
            if time > self.config.max_sim_time {
                self.abort_run();
                return false;
            }
            // The engine never emits out-of-order events itself; if one ever
            // appears (e.g. a hand-crafted trace with a stale timestamp) it
            // is clamped forward to the current clock — time never runs
            // backwards. The clamp is explicit and counted so misuse is
            // observable instead of silently absorbed.
            if time < self.time {
                debug_assert!(
                    time + 1e-9 >= self.time,
                    "event time {time} is before simulation time {}",
                    self.time
                );
                self.clamped_events += 1;
            } else {
                // Running-job progress is lazily reconciled (constant rate
                // between re-scales), so advancing the clock touches no job.
                self.time = time;
            }
            if arrival.is_some() {
                let job = self.next_arrival.take().expect("arrival buffered");
                debug_assert!(job.validate().is_ok(), "invalid job {}", job.id);
                self.next_arrival = self.staged.next();
                self.future_arrivals = self.future_arrivals.saturating_sub(1);
                self.last_epoch = EpochKind::Arrival(job.id);
                self.push_pending(job);
                self.metrics.record_decision_epoch();
                return true;
            }
            let event = self.events.pop().expect("event peeked");
            match event.kind {
                EventKind::JobCompletion { job, version } => {
                    let stale = self
                        .running
                        .get(&job)
                        .map(|r| r.version != version)
                        .unwrap_or(true);
                    if stale {
                        continue;
                    }
                    self.complete_job(job);
                    self.last_epoch = EpochKind::Completion(job);
                    self.metrics.record_decision_epoch();
                    return true;
                }
                EventKind::DecisionEpoch => {
                    if self.is_active() {
                        if let Some(interval) = self.config.decision_interval {
                            self.events
                                .push(self.time + interval, EventKind::DecisionEpoch);
                        }
                        self.last_epoch = EpochKind::Periodic;
                        self.metrics.record_decision_epoch();
                        return true;
                    }
                    // Inactive: drop the periodic timer.
                    continue;
                }
                EventKind::UtilizationSample => {
                    self.record_utilization_sample();
                    if self.is_active() {
                        self.events.push(
                            self.time + self.config.util_sample_interval,
                            EventKind::UtilizationSample,
                        );
                    }
                    continue;
                }
            }
        }
    }

    /// Build the scheduler-facing snapshot for the current time.
    pub fn view(&self) -> ClusterView {
        let mut out = ClusterView::new(
            self.time,
            Arc::clone(&self.spec),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            self.future_arrivals,
        );
        self.view_into(&mut out);
        out
    }

    /// Refill a previously built snapshot in place — the allocation-free
    /// sibling of [`Self::view`].
    ///
    /// When the snapshot was last filled by **this simulator in this run**
    /// (tracked through an engine-owned sync cookie), the refill is
    /// *incremental*: the deltas recorded since the last refill (job
    /// arrived / started / re-scaled / completed, node capacities touched)
    /// are replayed onto the retained rows, and only the header and
    /// per-class free capacity are refreshed — O(changes + classes), plus
    /// copying the engine-maintained deadline order. Rows are time-affine
    /// (see [`RunningJobView`]): they hold reconciled state and derive
    /// `wait` / `remaining_work` / `scale_ready` at the `now` a reader asks
    /// for, so a refill where only time moved rewrites no row. Both paths
    /// copy the engine's feasibility generation
    /// ([`ClusterView::feasibility_gen`]) and release stamps
    /// ([`ClusterView::released_at`]) in the shared header refresh.
    ///
    /// Any view that cannot prove it is in sync — freshly built, fabricated,
    /// last filled by another simulator or an earlier run — falls back to
    /// [`Self::rebuild_view_into`], the full-rebuild reference. Both paths
    /// produce byte-identical views: the oracle harness behind
    /// `tests/incremental_view.rs` checks this refill against
    /// [`Self::rebuild_view_into`] at every step of one simulator.
    pub fn view_into(&self, out: &mut ClusterView) {
        let in_sync = out.sync.sim_id == self.sim_id.0
            && out.sync.run_epoch == self.run_epoch
            && out.sync.log_pos >= self.log_base
            && out.sync.log_pos - self.log_base <= self.log.len()
            && Arc::ptr_eq(&out.spec, &self.spec);
        if !in_sync {
            self.rebuild_view_into(out);
            return;
        }
        let from = out.sync.log_pos - self.log_base;
        for delta in &self.log[from..] {
            match delta {
                ViewDelta::Arrived(row) => out.pending.push(row.clone()),
                ViewDelta::PendingRemoved { pos } => {
                    out.pending.remove(*pos as usize);
                }
                ViewDelta::RunningInserted { pos, row } => {
                    out.running.insert(*pos as usize, row.clone())
                }
                ViewDelta::RunningRescaled {
                    pos,
                    units,
                    remaining_at_update,
                    last_update,
                    rate,
                    last_scaled_at,
                } => {
                    let row = &mut out.running[*pos as usize];
                    row.units = *units;
                    row.remaining_at_update = *remaining_at_update;
                    row.last_update = *last_update;
                    row.rate = *rate;
                    row.last_scaled_at = *last_scaled_at;
                }
                ViewDelta::RunningRemoved { pos } => {
                    out.running.remove(*pos as usize);
                }
                ViewDelta::NodeFree { class, index, free } => {
                    // Routed through the setter so the view's fit index
                    // tracks the change; the rebuild path re-derives it,
                    // keeping both paths byte-identical.
                    out.classes[*class as usize].set_node_free(*index as usize, *free);
                }
            }
        }
        out.sync.log_pos = self.log_base + self.log.len();
        debug_assert_eq!(out.running.len(), self.running_order.len());
        self.refresh_header(out);
        // The deadline index comes straight from the engine-maintained
        // order; the rebuild reference recomputes it by sorting, so the
        // oracle harness cross-checks the maintained index itself.
        out.pending_by_deadline.clear();
        out.pending_by_deadline
            .extend(self.pending.deadline_positions());
    }

    /// Rebuild every row of the snapshot from scratch — the full-rebuild
    /// oracle the incremental [`Self::view_into`] is checked against, and its
    /// fallback when the view is out of sync. The static per-class skeleton
    /// (names, capacities, speed factors) is still reused when the spec is
    /// unchanged; pending/running rows are cleared and re-extended into the
    /// retained buffers, with running jobs in `(started_at, id)` order
    /// straight from the maintained index.
    pub fn rebuild_view_into(&self, out: &mut ClusterView) {
        // A spec change invalidates the whole static class skeleton (names,
        // node counts, capacities, speed factors), not just its length — a
        // view refilled from a different simulator must rebuild even when
        // both clusters happen to have the same number of classes.
        let spec_changed = !Arc::ptr_eq(&out.spec, &self.spec);
        if spec_changed {
            out.spec = Arc::clone(&self.spec);
        }
        if spec_changed || out.classes.len() != self.cluster.num_classes() {
            out.classes = self
                .cluster
                .class_ids()
                .map(|id| {
                    let spec = &self.spec.node_classes[id.0];
                    let mut view = NodeClassView {
                        id,
                        name: spec.name.clone(),
                        node_count: spec.count,
                        total_capacity: self.cluster.total_capacity_of_class(id),
                        free_capacity: self.cluster.free_capacity_of_class(id),
                        node_free: self.cluster.nodes_of_class(id).map(|n| n.free()).collect(),
                        // Straight from the spec (not derived by division) so
                        // view-side bucket ranks are bit-identical to the
                        // cluster's.
                        unit_capacity: spec.capacity,
                        fit_index: Default::default(),
                        speed_factors: spec.speed.as_array(),
                    };
                    view.rebuild_fit_index();
                    view
                })
                .collect();
        } else {
            for (class_view, id) in out.classes.iter_mut().zip(self.cluster.class_ids()) {
                class_view.node_free.clear();
                class_view
                    .node_free
                    .extend(self.cluster.nodes_of_class(id).map(|n| n.free()));
                // O(n) refill of the retained index buffers (no allocation
                // once warmed) — the reference recomputation the incremental
                // `set_node_free` maintenance is property-tested against.
                class_view.rebuild_fit_index();
            }
        }
        out.pending.clear();
        out.pending.extend(
            self.pending
                .iter_with_seq()
                .map(|(seq, job)| Self::pending_row(seq, job)),
        );
        out.running.clear();
        out.running.extend(
            self.running_order
                .iter()
                .map(|id| self.running_row(&self.running[id])),
        );
        self.refresh_header(out);
        // Reference computation of the deadline index: an actual sort over
        // the rows, independent of the engine-maintained order (into the
        // retained buffer).
        let (pending, index) = (&out.pending, &mut out.pending_by_deadline);
        ClusterView::fill_sorted_deadline_index(pending, index);
        out.sync = ViewSync {
            sim_id: self.sim_id.0,
            run_epoch: self.run_epoch,
            log_pos: self.log_base + self.log.len(),
        };
    }

    /// Rewrite the fields shared by the incremental and rebuild refill
    /// paths: the header (time, future-arrival count, scaling rules,
    /// feasibility generation and release stamps) and per-class free
    /// capacity from the cluster's delta-maintained aggregates.
    /// O(classes) — rows are time-affine and need no refresh.
    fn refresh_header(&self, out: &mut ClusterView) {
        out.time = self.time;
        out.future_arrivals = self.future_arrivals.max(self.buffered_arrivals());
        out.allow_scaling = self.config.allow_scaling;
        out.scale_cooldown = self.config.scale_cooldown;
        out.feasibility_gen = self.feasibility.gen;
        out.released_at.clear();
        out.released_at
            .extend_from_slice(&self.feasibility.released_at);
        for (class_view, id) in out.classes.iter_mut().zip(self.cluster.class_ids()) {
            class_view.free_capacity = self.cluster.free_capacity_of_class(id);
        }
    }

    /// One pending-job row: the job's fields plus its arrival sequence
    /// number, exactly what an `Arrived` delta carries.
    fn pending_row(seq: u64, job: &Job) -> PendingJobView {
        PendingJobView {
            arrival_seq: seq,
            ..ClusterView::pending_view_of(job)
        }
    }

    /// Admit a job at the tail of the pending queue and log its row.
    fn push_pending(&mut self, job: Job) {
        let mut row = ClusterView::pending_view_of(&job);
        row.arrival_seq = self.pending.push(job);
        self.log.push(ViewDelta::Arrived(row));
    }

    /// Stamp `class` as released at the log tip (just after the deltas of
    /// the release that freed capacity on it).
    fn stamp_release(&mut self, class: NodeClassId) {
        self.feasibility.released_at[class.0] = self.log_base + self.log.len();
    }

    /// One running-job row: the job's static fields plus its reconciled
    /// progress, exactly what a `RunningRescaled` delta patches.
    fn running_row(&self, r: &RunningJob) -> RunningJobView {
        RunningJobView {
            id: r.job.id,
            class: r.job.class,
            node_class: r.alloc.class,
            units: r.alloc.total_units(),
            remaining_at_update: r.remaining_work,
            last_update: r.last_update,
            total_work: r.job.total_work,
            arrival: r.job.arrival,
            started_at: r.started_at,
            deadline: r.job.deadline,
            demand_per_unit: r.job.demand_per_unit,
            min_parallelism: r.job.min_parallelism,
            max_parallelism: r.job.max_parallelism,
            speedup: r.job.speedup,
            malleable: r.job.malleable,
            rate: r.rate,
            utility_value: r.job.utility.value,
            last_scaled_at: r.last_scaled_at,
        }
    }

    /// Apply one scheduling action at the current decision epoch.
    pub fn apply(&mut self, action: &Action) -> ActionOutcome {
        let outcome = match *action {
            Action::Wait => ActionOutcome::Waited,
            Action::Start {
                job,
                class,
                parallelism,
            } => self.apply_start(job, class, parallelism),
            Action::Scale {
                job,
                new_parallelism,
            } => self.apply_scale(job, new_parallelism),
        };
        if outcome.is_invalid() {
            self.metrics.record_invalid_action();
        }
        debug_assert!(self.cluster.check_invariants().is_ok());
        outcome
    }

    /// Finish the run: charge forfeited utility for unfinished jobs and return
    /// the result. Consumes the simulator.
    pub fn finalize(mut self) -> SimulationResult {
        self.charge_unfinished();
        let summary = self.metrics.summarize(self.total_jobs);
        let (completed, trace) = self.metrics.into_log();
        SimulationResult {
            summary,
            completed,
            trace,
        }
    }

    /// Return the simulator to its freshly constructed state — cluster fully
    /// free, clock at zero, queues and metrics empty — while retaining every
    /// allocated buffer, so one simulator instance can serve many
    /// replications without rebuilding the cluster or regrowing collections.
    pub fn reset(&mut self) {
        self.cluster.reset();
        self.time = 0.0;
        self.events.clear();
        self.pending.clear();
        self.running.clear();
        self.running_order.clear();
        self.metrics.reset();
        self.total_jobs = 0;
        self.next_arrival = None;
        self.staged = Vec::new().into_iter();
        self.future_arrivals = 0;
        self.started = false;
        self.aborted = false;
        self.last_epoch = EpochKind::Periodic;
        self.clamped_events = 0;
        // Views synced to the previous run must rebuild, not replay a
        // cleared change log.
        self.run_epoch = self.run_epoch.wrapping_add(1);
        self.log.clear();
        self.log_base = 0;
        self.feasibility.restart();
    }

    // ------------------------------------------------------------------
    // Drivers: entry points over the one epoch loop
    // ------------------------------------------------------------------

    /// Run a complete simulation of `jobs` under `scheduler`.
    pub fn run<S: Scheduler + ?Sized>(
        mut self,
        jobs: Vec<Job>,
        scheduler: &mut S,
    ) -> SimulationResult {
        scheduler.on_simulation_start();
        self.start(jobs);
        // One view allocated for the whole run; every decision epoch refills
        // it in place (clear-and-refill, no rebuild).
        let mut view = self.view();
        self.epoch_loop(&mut Arrivals(std::iter::empty()), scheduler, &mut view);
        self.finalize()
    }

    /// Run a complete simulation reusing this simulator and a caller-retained
    /// snapshot buffer, returning only the [`Summary`].
    ///
    /// This is the sweep-loop sibling of [`Self::run`]: the simulator is
    /// [`Self::reset`] first, so the same instance (and the same `view`) can
    /// serve replication after replication while every per-run buffer —
    /// cluster nodes, event heap, pending/running sets, metrics, the
    /// utilisation trace and the view itself — is reused in place. Results
    /// are identical to a fresh `Simulator::new(..).run(..)` over the same
    /// jobs and scheduler state. Completion records of the run remain
    /// readable through [`Self::completed_so_far`] until the next reset.
    pub fn run_reusing<S: Scheduler + ?Sized>(
        &mut self,
        jobs: Vec<Job>,
        scheduler: &mut S,
        view: &mut ClusterView,
    ) -> Summary {
        self.reset();
        scheduler.on_simulation_start();
        self.start(jobs);
        self.epoch_loop(&mut Arrivals(std::iter::empty()), scheduler, view);
        self.finish_service()
    }

    /// Run a complete simulation pulling jobs **on demand** from a streaming
    /// source instead of requiring an upfront `Vec<Job>`.
    ///
    /// The engine keeps exactly one future arrival buffered: each time an
    /// arrival fires, the next job is pulled from the iterator into the
    /// arrival slot [`Self::start`] fills from its job list, so arbitrarily
    /// long (or lazily generated) workloads simulate in O(running + pending)
    /// memory. The source must yield jobs in non-decreasing arrival order
    /// (`tcrm-workload` sources do); out-of-order arrivals are clamped
    /// forward and counted like any other stale event. Results are
    /// identical to [`Self::run`] over the same job list.
    ///
    /// A run aborted at `max_sim_time` may leave jobs unpulled. Sources
    /// advertising a finite upper size bound are drained and their leftovers
    /// counted toward the total — exactly as the batch path counts every
    /// upfront arrival as unfinished — so truncated streamed runs report the
    /// same miss/unfinished rates as [`Self::run`]; an endless generator
    /// keeps the pulled-only count.
    ///
    /// The source's `size_hint` seeds the `future_arrivals` count views
    /// report and pre-sizes the per-run collections, for at most 1024 jobs
    /// however large the hint. Like [`Self::run_reusing`], the simulator is
    /// [`Self::reset`] first and every per-run buffer is retained across
    /// calls, so replication sweeps stay allocation-free after the first
    /// (warm-up) run, job starts, completions and the summary included
    /// (pinned by `tests/alloc_free.rs`).
    pub fn run_source<S, I>(
        &mut self,
        source: I,
        scheduler: &mut S,
        view: &mut ClusterView,
    ) -> Summary
    where
        S: Scheduler + ?Sized,
        I: Iterator<Item = Job>,
    {
        let (lower, upper) = source.size_hint();
        let expected = upper.unwrap_or(lower);
        self.run_service(&mut Arrivals(source), scheduler, view, expected)
    }

    /// Run a complete simulation whose arrivals, admission control and
    /// telemetry come from `hooks` — the entry point of a serving plane.
    ///
    /// The loop is the one every driver runs (see [`EpochHooks`] for its
    /// per-epoch order): jobs are pulled from [`EpochHooks::next_arrival`]
    /// one at a time exactly like [`Self::run_source`] pulls from its
    /// iterator, so with hooks that never cancel a job the run reports the
    /// same [`Summary`] as [`Self::run`] over the same jobs. `arrival_hint`
    /// is the expected number of arrivals; it seeds the `future_arrivals`
    /// count scheduler views report and, like [`Self::run_source`]'s size
    /// hint, pre-sizes the buffers for at most 1024 jobs.
    ///
    /// When the run aborts, [`EpochHooks::unpulled`] counts the jobs the
    /// ingress still holds toward the total. The simulator is
    /// [`Self::reset`] first and stays reusable afterwards;
    /// [`Self::is_aborted`] and [`Self::time`] describe how the run ended.
    pub fn run_service<H, S>(
        &mut self,
        hooks: &mut H,
        scheduler: &mut S,
        view: &mut ClusterView,
        arrival_hint: usize,
    ) -> Summary
    where
        H: EpochHooks + ?Sized,
        S: Scheduler + ?Sized,
    {
        self.reset();
        scheduler.on_simulation_start();
        // Unbounded ingresses report a bounded future-arrival count.
        self.begin_run(arrival_hint.min(u32::MAX as usize));
        self.pull_next_arrival(hooks);
        self.epoch_loop(hooks, scheduler, view);
        self.finish_service()
    }

    /// Fill an empty arrival slot from the ingress, if it has a job left.
    fn pull_next_arrival<H: EpochHooks + ?Sized>(&mut self, hooks: &mut H) {
        if self.next_arrival.is_none() {
            self.next_arrival = hooks.next_arrival();
            self.total_jobs += usize::from(self.next_arrival.is_some());
        }
    }

    /// The decision loop of every driver, in the per-epoch order
    /// [`EpochHooks`] documents. In batch mode the ingress is empty and
    /// [`Self::advance`] refills the arrival slot from the job list
    /// [`Self::start`] loaded; in streaming mode the slot is refilled from
    /// the ingress as soon as its arrival fires, before anyone sees the
    /// epoch.
    fn epoch_loop<H, S>(&mut self, hooks: &mut H, scheduler: &mut S, view: &mut ClusterView)
    where
        H: EpochHooks + ?Sized,
        S: Scheduler + ?Sized,
    {
        while self.advance() {
            self.pull_next_arrival(hooks);
            hooks.on_epoch(self);
            let epoch_changed_state = self.decision_rounds(hooks, scheduler, view);
            // The driver's view has consumed every recorded delta by the
            // end of the epoch: drop them so the log stays O(one epoch)
            // instead of O(whole run) — load-bearing for the streaming
            // entry points' O(running + pending) memory contract.
            self.compact_log(view);
            hooks.after_epoch(self);
            // Deadlock guard: the scheduler did not (or could not) start any
            // pending job at this epoch and nothing else can change the
            // state — abort rather than spin on periodic decision epochs.
            if !epoch_changed_state && self.is_stalled() {
                self.abort_run();
            }
        }
        if self.aborted {
            self.total_jobs += hooks.unpulled();
        }
    }

    /// Let the scheduler act (possibly repeatedly) at the current decision
    /// epoch, reporting every applied action to `hooks`. Returns whether any
    /// action changed simulator state.
    fn decision_rounds<H, S>(
        &mut self,
        hooks: &mut H,
        scheduler: &mut S,
        view: &mut ClusterView,
    ) -> bool
    where
        H: EpochHooks + ?Sized,
        S: Scheduler + ?Sized,
    {
        let mut rounds = 0;
        let mut epoch_changed_state = false;
        loop {
            rounds += 1;
            if rounds > self.config.max_decisions_per_epoch {
                break;
            }
            self.view_into(view);
            let actions = scheduler.decide(view);
            if actions.is_empty() {
                break;
            }
            let mut any_change = false;
            let mut all_wait = true;
            for action in &actions {
                if !matches!(action, Action::Wait) {
                    all_wait = false;
                }
                let outcome = self.apply(action);
                any_change |= outcome.changed_state();
                hooks.on_action(action, &outcome);
            }
            epoch_changed_state |= any_change;
            if all_wait || !any_change {
                break;
            }
        }
        epoch_changed_state
    }

    /// Drop change-log entries the given view has fully consumed (a no-op
    /// unless the view is synced to the log tip). Cursors are absolute
    /// positions, so compaction just advances `log_base` and clears the
    /// buffer (capacity retained — the stepping paths stay
    /// allocation-free); any *other* view still synced behind the new base
    /// fails the `log_pos >= log_base` check on its next refill and falls
    /// back to the full rebuild, never to a wrong replay.
    ///
    /// The epoch loop behind every entry point ([`Self::run`],
    /// [`Self::run_reusing`], [`Self::run_source`], [`Self::run_service`])
    /// calls this every epoch. Long-lived users of the step-wise API that
    /// keep one refilled view (e.g. an RL environment) should do the same
    /// after refilling it, so the log stays bounded by one epoch instead of
    /// growing with the run.
    pub fn compact_log(&mut self, view: &ClusterView) {
        if view.sync.sim_id == self.sim_id.0
            && view.sync.run_epoch == self.run_epoch
            && view.sync.log_pos == self.log_base + self.log.len()
        {
            self.log_base += self.log.len();
            self.log.clear();
        }
    }

    /// Charge forfeited utility for every job still pending or running.
    fn charge_unfinished(&mut self) {
        for job in self.pending.iter() {
            self.metrics.record_unfinished(job.utility.value);
        }
        for r in self.running.values() {
            self.metrics.record_unfinished(r.job.utility.value);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn is_active(&self) -> bool {
        self.next_arrival.is_some() || !self.pending.is_empty() || !self.running.is_empty()
    }

    fn abort_run(&mut self) {
        self.aborted = true;
    }

    /// Record the current free capacity of every node a placement touched
    /// (after the cluster mutation), so incremental views patch exactly the
    /// dirty `node_free` entries.
    fn log_node_frees(&mut self, placements: &[Placement]) {
        for p in placements {
            let node = &self.cluster.nodes()[p.node.0];
            self.log.push(ViewDelta::NodeFree {
                class: node.class.0 as u32,
                index: self.cluster.index_in_class(p.node) as u32,
                free: node.free(),
            });
        }
    }

    /// (Re-)schedule the completion event of a job whose progress was just
    /// reconciled (start or re-scale): `remaining_work` is current as of
    /// `self.time` and `rate` freshly cached, so the finish prediction is a
    /// single constant-rate extrapolation.
    fn schedule_completion(&mut self, job: JobId) {
        let (finish, version) = {
            let r = self.running.get_mut(&job).expect("unknown running job");
            r.version += 1;
            debug_assert_eq!(r.last_update, self.time, "schedule before reconcile");
            (self.time + r.remaining_work / r.rate.max(1e-12), r.version)
        };
        self.events
            .push(finish, EventKind::JobCompletion { job, version });
    }

    fn complete_job(&mut self, job_id: JobId) {
        let Some(started_at) = self.running.get(&job_id).map(|r| r.started_at) else {
            return;
        };
        // Must happen while the job is still in the map: the order index's
        // sort key is looked up there.
        let pos = self.remove_running_order(job_id, started_at);
        self.log.push(ViewDelta::RunningRemoved { pos: pos as u32 });
        let mut r = self.running.remove(&job_id).expect("running job vanished");
        // Fold the final constant-rate span into the progress integrals
        // before the record is written.
        r.reconcile(self.time);
        self.cluster
            .release_placement(&r.alloc.demand_per_unit, &r.alloc.placements);
        self.log_node_frees(&r.alloc.placements);
        self.stamp_release(r.alloc.class);
        let job = &r.job;
        let finish = self.time;
        let wait = r.started_at - job.arrival;
        let response = finish - job.arrival;
        let best_speed = self.best_speed_cache[job.class.index()];
        let best_case = job.best_case_service_time(best_speed);
        let slowdown = response / best_case.max(1.0);
        let missed = finish > job.deadline + 1e-9;
        let utility = job.utility.utility(job.arrival, job.deadline, finish);
        let elapsed = (finish - r.started_at).max(1e-9);
        let avg_parallelism = r.unit_seconds / elapsed;
        self.metrics.record_completion(CompletedJob {
            id: job.id,
            class: job.class,
            arrival: job.arrival,
            start: r.started_at,
            finish,
            deadline: job.deadline,
            wait,
            response,
            best_case_service: best_case,
            slowdown,
            missed,
            utility,
            max_utility: job.utility.value,
            avg_parallelism,
            scale_count: r.scale_count,
        });
        self.placement_pool.push(r.alloc.placements);
    }

    /// A placement buffer from the pool, or a new one. A new buffer joins
    /// the circulation (one per running job plus the pool), so the pool
    /// makes room for all of them here: returning a buffer never grows it.
    fn placement_buffer(&mut self) -> Vec<Placement> {
        self.placement_pool.pop().unwrap_or_else(|| {
            self.placement_pool.reserve(self.running.len() + 1);
            Vec::new()
        })
    }

    fn apply_start(
        &mut self,
        job_id: JobId,
        class: NodeClassId,
        parallelism: u32,
    ) -> ActionOutcome {
        if class.0 >= self.cluster.num_classes() {
            return ActionOutcome::Invalid("unknown node class");
        }
        // O(1) id-indexed lookup (the old path scanned the whole queue).
        let Some(job) = self.pending.get(job_id) else {
            return ActionOutcome::Invalid("job not pending");
        };
        let units = job.clamp_parallelism(parallelism);
        let demand = job.demand_per_unit;
        let mut placements = self.placement_buffer();
        if !self
            .cluster
            .find_placement_into(class, &demand, units, &mut placements)
        {
            self.placement_pool.push(placements);
            return ActionOutcome::Invalid("insufficient capacity");
        }
        let (job, pending_pos) = self.pending.remove(job_id).expect("pending job vanished");
        self.log
            .push(ViewDelta::PendingRemoved { pos: pending_pos });
        self.cluster.apply_placement(&demand, &placements);
        self.log_node_frees(&placements);
        let alloc = Allocation::new(job.id, class, placements, demand);
        let rate = RunningJob::compute_rate(&self.cluster, &alloc, &job);
        let running = RunningJob {
            remaining_work: job.total_work,
            last_update: self.time,
            started_at: self.time,
            version: 0,
            last_scaled_at: self.time,
            unit_seconds: 0.0,
            scale_count: 0,
            rate,
            alloc,
            job,
        };
        self.running.insert(job_id, running);
        let order_pos = self.insert_running_order(job_id);
        let row = self.running_row(&self.running[&job_id]);
        self.log.push(ViewDelta::RunningInserted {
            pos: order_pos as u32,
            row,
        });
        self.schedule_completion(job_id);
        ActionOutcome::Started
    }

    /// Insert `job_id` into the `(started_at, id)`-sorted order index and
    /// return its position. Jobs start at the current clock, so the
    /// insertion point is at or very near the tail; the binary search only
    /// resolves same-timestamp ties.
    fn insert_running_order(&mut self, job_id: JobId) -> usize {
        let key = |id: &JobId| {
            let r = &self.running[id];
            (r.started_at, *id)
        };
        let probe = key(&job_id);
        let pos = self.running_order.partition_point(|id| key(id) < probe);
        self.running_order.insert(pos, job_id);
        pos
    }

    /// Remove `job_id` from the order index and return the position it
    /// occupied. Pure binary search — O(log n) in all cases: the
    /// `(started_at, id)` key is unique and totally ordered (start times are
    /// engine clock readings, which are always finite and non-decreasing),
    /// so the probe lands exactly on the job's entry. Index corruption is a
    /// bug, not a recoverable state — it would silently desynchronise every
    /// incremental view — so it panics instead of degrading to a linear
    /// scan.
    fn remove_running_order(&mut self, job_id: JobId, started_at: f64) -> usize {
        let pos = self.running_order_pos(job_id, started_at);
        self.running_order.remove(pos);
        pos
    }

    /// Position of a running job in the order index (the binary search of
    /// [`Self::remove_running_order`], which see).
    fn running_order_pos(&self, job_id: JobId, started_at: f64) -> usize {
        let probe = (started_at, job_id);
        let pos = self.running_order.partition_point(|id| {
            let r = &self.running[id];
            (r.started_at, *id) < probe
        });
        assert!(
            self.running_order.get(pos) == Some(&job_id),
            "running-order index out of sync for {job_id}"
        );
        pos
    }

    fn apply_scale(&mut self, job_id: JobId, new_parallelism: u32) -> ActionOutcome {
        if !self.config.allow_scaling {
            return ActionOutcome::Invalid("scaling disabled");
        }
        let Some(r) = self.running.get(&job_id) else {
            return ActionOutcome::Invalid("job not running");
        };
        if !r.job.malleable {
            return ActionOutcome::Invalid("job is rigid");
        }
        let target = new_parallelism.clamp(r.job.min_parallelism, r.job.max_parallelism);
        let current = r.alloc.total_units();
        if target == current {
            return ActionOutcome::Invalid("no parallelism change");
        }
        if self.time - r.last_scaled_at < self.config.scale_cooldown - 1e-9 {
            return ActionOutcome::Invalid("reconfiguration cooldown");
        }
        let class = r.alloc.class;
        let demand = r.job.demand_per_unit;
        let reconfig_cost = r.job.total_work * self.config.reconfig_cost_frac;
        let speed = self.cluster.speed_factor(class, r.job.class);
        let speedup = r.job.speedup;
        if target > current {
            let extra = target - current;
            let mut placements = self.placement_buffer();
            if !self
                .cluster
                .find_placement_into(class, &demand, extra, &mut placements)
            {
                self.placement_pool.push(placements);
                return ActionOutcome::Invalid("insufficient capacity for scale-up");
            }
            self.cluster.apply_placement(&demand, &placements);
            self.log_node_frees(&placements);
            let r = self.running.get_mut(&job_id).expect("running job vanished");
            // Fold the progress of the old-rate span in before the rate
            // changes (lazy-reconciliation contract).
            r.reconcile(self.time);
            r.alloc.grow(&placements);
            r.remaining_work += reconfig_cost;
            r.scale_count += 1;
            r.last_scaled_at = self.time;
            r.rate = speed * speedup.speedup(r.alloc.total_units());
            self.placement_pool.push(placements);
        } else {
            let shrink_by = current - target;
            let mut released = self.placement_buffer();
            let r = self.running.get_mut(&job_id).expect("running job vanished");
            r.reconcile(self.time);
            r.alloc.shrink(shrink_by, &mut released);
            r.remaining_work += reconfig_cost;
            r.scale_count += 1;
            r.last_scaled_at = self.time;
            r.rate = speed * speedup.speedup(r.alloc.total_units());
            self.cluster.release_placement(&demand, &released);
            self.log_node_frees(&released);
            self.stamp_release(class);
            self.placement_pool.push(released);
        }
        self.metrics.record_scale_event();
        let r = &self.running[&job_id];
        let pos = self.running_order_pos(job_id, r.started_at);
        self.log.push(ViewDelta::RunningRescaled {
            pos: pos as u32,
            units: r.alloc.total_units(),
            remaining_at_update: r.remaining_work,
            last_update: r.last_update,
            rate: r.rate,
            last_scaled_at: r.last_scaled_at,
        });
        self.schedule_completion(job_id);
        ActionOutcome::Scaled
    }

    fn record_utilization_sample(&mut self) {
        let mut per_class = PerClassUtilization::new();
        for id in self.cluster.class_ids() {
            per_class.push(self.cluster.class_utilization(id));
        }
        let sample = UtilizationSample {
            time: self.time,
            per_class,
            overall: self.cluster.overall_utilization(),
            pending: self.pending.len(),
            running: self.running.len(),
        };
        self.metrics.record_sample(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, NodeClassSpec};
    use crate::job::{Job, JobClass, SpeedupModel, TimeUtility};
    use crate::node::SpeedProfile;
    use crate::resources::ResourceVector;

    /// A scheduler that starts every pending job on class 0 at minimum
    /// parallelism as soon as it fits.
    struct EagerMin;
    impl Scheduler for EagerMin {
        fn name(&self) -> &str {
            "eager-min"
        }
        fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
            view.pending
                .iter()
                .filter(|j| view.can_start(j, NodeClassId(0), j.min_parallelism))
                .map(|j| Action::Start {
                    job: j.id,
                    class: NodeClassId(0),
                    parallelism: j.min_parallelism,
                })
                .collect()
        }
    }

    /// A scheduler that never starts anything.
    struct Lazy;
    impl Scheduler for Lazy {
        fn name(&self) -> &str {
            "lazy"
        }
        fn decide(&mut self, _view: &ClusterView) -> Vec<Action> {
            vec![Action::Wait]
        }
    }

    fn tiny_spec() -> ClusterSpec {
        ClusterSpec::new(vec![NodeClassSpec::new(
            "generic",
            2,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        )])
    }

    fn simple_job(id: u64, arrival: f64, work: f64, deadline: f64) -> Job {
        Job::builder(JobId(id), JobClass::Batch)
            .arrival(arrival)
            .total_work(work)
            .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 1.0))
            .parallelism_range(1, 4)
            .speedup(SpeedupModel::Linear)
            .deadline(deadline)
            .utility(TimeUtility::hard(1.0))
            .build()
    }

    #[test]
    fn single_job_completes_on_time() {
        let sim = Simulator::new(tiny_spec(), SimConfig::default());
        let jobs = vec![simple_job(0, 0.0, 10.0, 100.0)];
        let result = sim.run(jobs, &mut EagerMin);
        assert_eq!(result.summary.completed_jobs, 1);
        assert_eq!(result.summary.missed_jobs, 0);
        let rec = &result.completed[0];
        assert!((rec.finish - 10.0).abs() < 1e-6, "finish = {}", rec.finish);
        assert!((rec.wait - 0.0).abs() < 1e-9);
        assert_eq!(result.summary.total_utility, 1.0);
    }

    #[test]
    fn deadline_miss_is_recorded() {
        let sim = Simulator::new(tiny_spec(), SimConfig::default());
        // Needs 50s at p=1 but deadline is 20s away.
        let jobs = vec![simple_job(0, 0.0, 50.0, 20.0)];
        let result = sim.run(jobs, &mut EagerMin);
        assert_eq!(result.summary.completed_jobs, 1);
        assert_eq!(result.summary.missed_jobs, 1);
        assert_eq!(result.summary.total_utility, 0.0);
        assert!(result.summary.miss_rate > 0.99);
    }

    #[test]
    fn jobs_queue_when_cluster_is_full() {
        // Each node fits 4 units of 2 cpu; with 2 nodes and p=1 jobs of 8 cpu
        // demand, only 2 can run at once.
        let spec = ClusterSpec::new(vec![NodeClassSpec::new(
            "small",
            2,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        )]);
        let big_demand = ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        let mk = |id: u64| {
            Job::builder(JobId(id), JobClass::Batch)
                .arrival(0.0)
                .total_work(10.0)
                .demand_per_unit(big_demand)
                .parallelism_range(1, 1)
                .speedup(SpeedupModel::Linear)
                .deadline(1000.0)
                .build()
        };
        let sim = Simulator::new(spec, SimConfig::default());
        let result = sim.run(vec![mk(0), mk(1), mk(2), mk(3)], &mut EagerMin);
        assert_eq!(result.summary.completed_jobs, 4);
        // Two waves of two jobs: makespan about 20 seconds.
        assert!((result.summary.makespan - 20.0).abs() < 1.0);
        // The second wave waited ~10 seconds.
        let waits: Vec<f64> = result.completed.iter().map(|j| j.wait).collect();
        assert!(waits.iter().filter(|w| **w > 5.0).count() == 2);
    }

    #[test]
    fn lazy_scheduler_aborts_instead_of_hanging() {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(5.0);
        cfg.max_sim_time = 500.0;
        let sim = Simulator::new(tiny_spec(), cfg);
        let jobs = vec![simple_job(0, 0.0, 10.0, 100.0)];
        let result = sim.run(jobs, &mut Lazy);
        assert_eq!(result.summary.completed_jobs, 0);
        assert_eq!(result.summary.unfinished_jobs, 1);
        assert!(result.summary.miss_rate > 0.99);
    }

    #[test]
    fn scaling_accelerates_completion() {
        struct ScaleUp {
            scaled: bool,
        }
        impl Scheduler for ScaleUp {
            fn name(&self) -> &str {
                "scale-up"
            }
            fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
                let mut actions = Vec::new();
                for j in &view.pending {
                    actions.push(Action::Start {
                        job: j.id,
                        class: NodeClassId(0),
                        parallelism: 1,
                    });
                }
                if !self.scaled {
                    if let Some(r) = view.running.first() {
                        self.scaled = true;
                        actions.push(Action::Scale {
                            job: r.id,
                            new_parallelism: 4,
                        });
                    }
                }
                actions
            }
        }
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(2.0);
        cfg.reconfig_cost_frac = 0.0;
        cfg.scale_cooldown = 0.0;
        let sim = Simulator::new(tiny_spec(), cfg);
        let jobs = vec![simple_job(0, 0.0, 40.0, 1000.0)];
        let result = sim.run(jobs, &mut ScaleUp { scaled: false });
        assert_eq!(result.summary.completed_jobs, 1);
        let finish = result.completed[0].finish;
        // Without scaling it would take 40s; with a scale-up to 4 after ~2s it
        // finishes around 2 + 38/4 ≈ 11.5s.
        assert!(finish < 20.0, "finish = {finish}");
        assert_eq!(result.summary.scale_events, 1);
        assert!(result.completed[0].avg_parallelism > 1.5);
    }

    #[test]
    fn scaling_disabled_is_rejected() {
        let mut sim = Simulator::new(tiny_spec(), SimConfig::rigid());
        sim.start(vec![simple_job(0, 0.0, 40.0, 1000.0)]);
        assert!(sim.advance());
        let outcome = sim.apply(&Action::Start {
            job: JobId(0),
            class: NodeClassId(0),
            parallelism: 1,
        });
        assert_eq!(outcome, ActionOutcome::Started);
        let outcome = sim.apply(&Action::Scale {
            job: JobId(0),
            new_parallelism: 4,
        });
        assert_eq!(outcome, ActionOutcome::Invalid("scaling disabled"));
    }

    #[test]
    fn invalid_actions_are_counted_not_fatal() {
        let mut sim = Simulator::new(tiny_spec(), SimConfig::default());
        sim.start(vec![simple_job(0, 0.0, 10.0, 100.0)]);
        assert!(sim.advance());
        // Unknown job.
        assert!(sim
            .apply(&Action::Start {
                job: JobId(99),
                class: NodeClassId(0),
                parallelism: 1
            })
            .is_invalid());
        // Unknown class.
        assert!(sim
            .apply(&Action::Start {
                job: JobId(0),
                class: NodeClassId(7),
                parallelism: 1
            })
            .is_invalid());
        // Too much demand: request more units than the cluster holds.
        let fat = Job::builder(JobId(1), JobClass::Batch)
            .arrival(0.0)
            .total_work(1.0)
            .demand_per_unit(ResourceVector::of(100.0, 1.0, 0.0, 0.0))
            .deadline(10.0)
            .build();
        let _ = fat; // demand is checked through the real pending job below
        let outcome = sim.apply(&Action::Start {
            job: JobId(0),
            class: NodeClassId(0),
            parallelism: 1,
        });
        assert_eq!(outcome, ActionOutcome::Started);
        let result = Simulator::finalize(sim);
        assert!(result.summary.invalid_actions >= 2);
    }

    #[test]
    fn gpu_speedup_shortens_ml_jobs() {
        let spec = ClusterSpec::icpp_default();
        let job = Job::builder(JobId(0), JobClass::MlTraining)
            .arrival(0.0)
            .total_work(60.0)
            .demand_per_unit(ResourceVector::of(2.0, 8.0, 1.0, 1.0))
            .parallelism_range(1, 2)
            .speedup(SpeedupModel::Linear)
            .deadline(1000.0)
            .build();
        struct GpuFirst;
        impl Scheduler for GpuFirst {
            fn name(&self) -> &str {
                "gpu-first"
            }
            fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
                view.pending
                    .iter()
                    .map(|j| Action::Start {
                        job: j.id,
                        class: NodeClassId(2),
                        parallelism: 1,
                    })
                    .collect()
            }
        }
        let result = Simulator::new(spec, SimConfig::default()).run(vec![job], &mut GpuFirst);
        // 60 work units at 6x speed = 10 seconds.
        assert!((result.completed[0].finish - 10.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_trace_is_sampled() {
        let mut cfg = SimConfig::default();
        cfg.util_sample_interval = 1.0;
        let sim = Simulator::new(tiny_spec(), cfg);
        let jobs = vec![
            simple_job(0, 0.0, 10.0, 100.0),
            simple_job(1, 1.0, 10.0, 100.0),
        ];
        let result = sim.run(jobs, &mut EagerMin);
        assert!(result.trace.samples.len() >= 5);
        assert!(result.summary.mean_utilization > 0.0);
        // Samples are in time order.
        for w in result.trace.samples.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn out_of_order_events_are_clamped_and_counted() {
        let mut sim = Simulator::new(tiny_spec(), SimConfig::default());
        sim.start(vec![simple_job(0, 1.0, 10.0, 100.0)]);
        assert!(sim.advance()); // arrival at t = 1.0
        assert_eq!(sim.time(), 1.0);
        assert_eq!(sim.clamped_event_count(), 0);
        // Inject an event whose timestamp is (within float tolerance) behind
        // the clock: the engine must clamp it forward, never run time
        // backwards, and count the clamp.
        sim.events.push(1.0 - 5e-10, EventKind::DecisionEpoch);
        sim.events.push(2.0, EventKind::DecisionEpoch);
        assert!(sim.advance()); // the stale epoch fires, clamped to t = 1.0
        assert_eq!(
            sim.time(),
            1.0,
            "clamped event must not move time backwards"
        );
        assert_eq!(sim.clamped_event_count(), 1);
        assert!(sim.advance()); // the healthy epoch fires at t = 2.0
        assert_eq!(sim.time(), 2.0);
        assert_eq!(sim.clamped_event_count(), 1);
    }

    #[test]
    fn view_into_matches_fresh_view_throughout_a_run() {
        // Pin the clear-and-refill path to the rebuild-from-scratch
        // semantics: at every decision epoch of a mixed start/scale run the
        // refilled snapshot must equal a freshly built one, field for field.
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(2.0);
        cfg.scale_cooldown = 0.0;
        let mut sim = Simulator::new(tiny_spec(), cfg);
        let jobs: Vec<Job> = (0..12)
            .map(|i| simple_job(i, i as f64 * 1.5, 8.0 + i as f64, 500.0))
            .collect();
        sim.start(jobs);
        let mut reused = sim.view();
        let mut epochs = 0;
        while sim.advance() {
            sim.view_into(&mut reused);
            let fresh = sim.view();
            assert_eq!(fresh.time, reused.time);
            assert_eq!(fresh.future_arrivals, reused.future_arrivals);
            assert_eq!(fresh.classes, reused.classes);
            assert_eq!(fresh.pending, reused.pending);
            assert_eq!(fresh.running, reused.running);
            assert_eq!(fresh.pending_by_deadline, reused.pending_by_deadline);
            assert_eq!(fresh.pending_work_total(), reused.pending_work_total());
            epochs += 1;
            // Drive a simple policy so the running set stays busy.
            if let Some(job) = reused.pending.first() {
                let _ = sim.apply(&Action::Start {
                    job: job.id,
                    class: NodeClassId(0),
                    parallelism: job.min_parallelism,
                });
            } else if let Some(r) = reused.running.iter().find(|r| reused.scale_ready(r)) {
                let _ = sim.apply(&Action::Scale {
                    job: r.id,
                    new_parallelism: r.units + 1,
                });
            }
            if epochs > 500 {
                break;
            }
        }
        assert!(epochs >= 12, "expected at least one epoch per job");
    }

    #[test]
    fn time_affine_rows_agree_with_the_engine_at_any_later_time() {
        // A row read at `now` must report what the engine itself would:
        // the remaining work `reconcile(now)` folds in, and the cooldown
        // verdict `apply_scale` reaches at `now`.
        let mut cfg = SimConfig::default();
        cfg.scale_cooldown = 6.0;
        cfg.reconfig_cost_frac = 0.05;
        let mut sim = Simulator::new(tiny_spec(), cfg);
        sim.start(vec![simple_job(0, 0.0, 40.0, 1000.0)]);
        assert!(sim.advance());
        let start = Action::Start {
            job: JobId(0),
            class: NodeClassId(0),
            parallelism: 1,
        };
        assert_eq!(sim.apply(&start), ActionOutcome::Started);
        sim.time = 7.0;
        let grow = Action::Scale {
            job: JobId(0),
            new_parallelism: 3,
        };
        assert_eq!(sim.apply(&grow), ActionOutcome::Scaled);
        let view = sim.view();
        let row = &view.running[0];
        assert_eq!(
            (row.last_update, row.last_scaled_at, row.units),
            (7.0, 7.0, 3)
        );
        for now in [7.0, 7.5, 12.0, 13.0 - 1e-9, 13.0, 13.0 + 1e-9, 20.0, 1e4] {
            let mut r = sim.running[&JobId(0)].clone();
            r.reconcile(now);
            assert_eq!(
                row.remaining_work(now).to_bits(),
                r.remaining_work.to_bits()
            );
            let mut at = sim.clone();
            at.time = now;
            let verdict = at.apply(&Action::Scale {
                job: JobId(0),
                new_parallelism: 2,
            });
            assert_eq!(
                row.scale_ready(now, view.allow_scaling, view.scale_cooldown),
                verdict != ActionOutcome::Invalid("reconfiguration cooldown"),
                "now {now}: engine said {verdict:?}"
            );
        }
    }

    #[test]
    fn running_view_order_is_start_time_then_id() {
        // Start jobs out of id order at identical timestamps and verify the
        // incrementally maintained order matches the documented sort key.
        let spec = ClusterSpec::new(vec![NodeClassSpec::new(
            "wide",
            8,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        )]);
        let mut sim = Simulator::new(spec, SimConfig::default());
        let jobs: Vec<Job> = [5u64, 1, 9, 3, 7]
            .iter()
            .map(|&id| simple_job(id, 0.0, 50.0, 1000.0))
            .collect();
        sim.start(jobs);
        // Drain all five arrivals (same timestamp).
        for _ in 0..5 {
            assert!(sim.advance());
        }
        // Start in a scrambled order; started_at is identical for all.
        for id in [9u64, 1, 7, 5, 3] {
            let outcome = sim.apply(&Action::Start {
                job: JobId(id),
                class: NodeClassId(0),
                parallelism: 1,
            });
            assert_eq!(outcome, ActionOutcome::Started);
        }
        let order: Vec<u64> = sim.view().running.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn run_reusing_matches_fresh_runs_across_replications() {
        // One simulator + one view serving several replications must produce
        // exactly the summaries of fresh per-replication simulators, and the
        // per-run records must be readable until the next reset.
        let workloads: Vec<Vec<Job>> = (0..4)
            .map(|rep| {
                (0..15)
                    .map(|i| {
                        simple_job(
                            i,
                            i as f64 * (0.5 + rep as f64 * 0.3),
                            5.0 + ((i + rep) % 7) as f64,
                            300.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut reused = Simulator::new(tiny_spec(), SimConfig::default());
        let mut view = reused.view();
        for jobs in &workloads {
            let fresh =
                Simulator::new(tiny_spec(), SimConfig::default()).run(jobs.clone(), &mut EagerMin);
            let summary = reused.run_reusing(jobs.clone(), &mut EagerMin, &mut view);
            assert_eq!(summary, fresh.summary);
            assert_eq!(reused.completed_so_far(), fresh.completed.as_slice());
        }
    }

    #[test]
    fn run_source_matches_batch_run_over_the_same_jobs() {
        // Streaming the jobs one at a time must produce exactly the result
        // of loading them upfront: off the decision grid, and on it, where
        // every arrival ties with a decision epoch and a utilisation sample.
        let off_grid: Vec<Job> = (0..25)
            .map(|i| simple_job(i, i as f64 * 1.37, 4.0 + (i as f64) * 0.93, 400.0))
            .collect();
        let on_grid: Vec<Job> = (0..40)
            .map(|i| simple_job(i, i as f64 * 2.0, 3.0 + (i % 5) as f64, 400.0))
            .collect();
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(2.0);
        cfg.util_sample_interval = 2.0;
        for jobs in [off_grid, on_grid] {
            let batch = Simulator::new(tiny_spec(), cfg.clone()).run(jobs.clone(), &mut EagerMin);

            let mut sim = Simulator::new(tiny_spec(), cfg.clone());
            let mut view = sim.view();
            let summary = sim.run_source(jobs.iter().cloned(), &mut EagerMin, &mut view);
            assert_eq!(summary, batch.summary);
            assert_eq!(sim.completed_so_far(), batch.completed.as_slice());
            assert_eq!(sim.total_jobs(), jobs.len());

            // And the same simulator streams the next replication correctly.
            let summary2 = sim.run_source(jobs.iter().cloned(), &mut EagerMin, &mut view);
            assert_eq!(summary2, batch.summary);
        }
    }

    #[test]
    fn start_keeps_arrivals_out_of_the_event_heap() {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(2.0);
        let mut sim = Simulator::new(tiny_spec(), cfg);
        let jobs: Vec<Job> = (0..1000)
            .map(|i| simple_job(i, i as f64 * 0.5, 4.0, 1e4))
            .collect();
        sim.start(jobs);
        assert_eq!(sim.buffered_arrivals(), 1000);
        // Only the first decision epoch and utilisation sample are queued.
        assert_eq!(sim.events.len(), 2);
        assert!(sim.advance());
        assert_eq!(sim.last_epoch(), EpochKind::Arrival(JobId(0)));
        assert_eq!(sim.buffered_arrivals(), 999);
        assert_eq!(sim.events.len(), 2);
    }

    #[test]
    fn streaming_views_report_true_future_arrival_counts() {
        // A scheduler that only observes: the future_arrivals sequence seen
        // under run_source must match the batch run's, even though the
        // stream buffers a single arrival at a time (the DRL state encoder
        // feeds on this field).
        struct Recorder {
            seen: Vec<usize>,
        }
        impl Scheduler for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
                self.seen.push(view.future_arrivals);
                Vec::new()
            }
        }
        let jobs: Vec<Job> = (0..20)
            .map(|i| simple_job(i, i as f64 * 1.7, 3.0, 1e5))
            .collect();

        let mut batch_recorder = Recorder { seen: Vec::new() };
        let _ = Simulator::new(tiny_spec(), SimConfig::default())
            .run(jobs.clone(), &mut batch_recorder);
        assert!(
            batch_recorder.seen.contains(&19),
            "early views see the tail"
        );

        let mut stream_recorder = Recorder { seen: Vec::new() };
        let mut sim = Simulator::new(tiny_spec(), SimConfig::default());
        let mut view = sim.view();
        let _ = sim.run_source(jobs.iter().cloned(), &mut stream_recorder, &mut view);
        assert_eq!(stream_recorder.seen, batch_recorder.seen);
    }

    #[test]
    fn run_source_counts_unarrived_jobs_when_truncated_by_max_sim_time() {
        // A horizon shorter than the arrival span: the batch path counts the
        // never-arrived tail as unfinished, and the streamed path must agree
        // even though it never pulled those jobs.
        let jobs: Vec<Job> = (0..40)
            .map(|i| simple_job(i, i as f64 * 5.3, 2.0, 1e6))
            .collect();
        let mut cfg = SimConfig::default();
        cfg.max_sim_time = 60.0;
        let batch = Simulator::new(tiny_spec(), cfg.clone()).run(jobs.clone(), &mut EagerMin);
        assert!(batch.summary.unfinished_jobs > 0, "the run must truncate");

        let mut sim = Simulator::new(tiny_spec(), cfg);
        let mut view = sim.view();
        let summary = sim.run_source(jobs.iter().cloned(), &mut EagerMin, &mut view);
        assert_eq!(summary.total_jobs, 40);
        assert_eq!(summary, batch.summary);
    }

    #[test]
    fn run_source_handles_an_empty_stream() {
        let mut sim = Simulator::new(tiny_spec(), SimConfig::default());
        let mut view = sim.view();
        let summary = sim.run_source(std::iter::empty(), &mut EagerMin, &mut view);
        assert_eq!(summary.total_jobs, 0);
        assert_eq!(summary.completed_jobs, 0);
    }

    #[test]
    fn run_source_pulls_lazily_from_an_unbounded_stream() {
        // An endless generator driven through `take`: the engine must only
        // pull what it simulates, never trying to materialise the stream.
        let endless = (0u64..).map(|i| simple_job(i, i as f64 * 3.1, 2.0, 1e7));
        let mut cfg = SimConfig::default();
        cfg.max_sim_time = 1e6;
        let mut sim = Simulator::new(tiny_spec(), cfg);
        let mut view = sim.view();
        let summary = sim.run_source(endless.take(40), &mut EagerMin, &mut view);
        assert_eq!(summary.total_jobs, 40);
        assert_eq!(summary.completed_jobs, 40);
    }

    #[test]
    fn change_log_stays_bounded_over_long_streaming_runs() {
        // The drivers compact the view change log each epoch: a long
        // streamed run must keep the log at O(one epoch), not O(jobs) —
        // the streaming entry point's O(running + pending) memory contract.
        let endless = (0u64..).map(|i| simple_job(i, i as f64 * 2.3, 2.0, 1e8));
        let mut cfg = SimConfig::default();
        cfg.max_sim_time = 1e7;
        let mut sim = Simulator::new(tiny_spec(), cfg);
        let mut view = sim.view();
        let summary = sim.run_source(endless.take(2000), &mut EagerMin, &mut view);
        assert_eq!(summary.completed_jobs, 2000);
        assert!(
            sim.log.len() <= 64,
            "change log not compacted: {} entries retained",
            sim.log.len()
        );
        assert!(
            sim.log_base > 2000,
            "compaction never advanced the base ({})",
            sim.log_base
        );
        // And the compacted engine still refills views correctly.
        sim.reset();
        sim.start(vec![simple_job(0, 0.0, 5.0, 100.0)]);
        assert!(sim.advance());
        sim.view_into(&mut view);
        let fresh = sim.view();
        assert_eq!(fresh.pending, view.pending);
        assert_eq!(fresh.running, view.running);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut sim = Simulator::new(tiny_spec(), SimConfig::default());
        let mut view = sim.view();
        let jobs = vec![simple_job(0, 0.0, 10.0, 100.0)];
        let _ = sim.run_reusing(jobs, &mut EagerMin, &mut view);
        sim.reset();
        assert_eq!(sim.time(), 0.0);
        assert_eq!(sim.pending_count(), 0);
        assert_eq!(sim.running_count(), 0);
        assert_eq!(sim.total_jobs(), 0);
        assert_eq!(sim.clamped_event_count(), 0);
        assert!(sim.completed_so_far().is_empty());
        assert_eq!(
            sim.cluster().free_capacity(),
            sim.spec().total_capacity(),
            "reset must free every allocation"
        );
    }

    #[test]
    fn determinism_same_seedless_run_is_identical() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| simple_job(i, i as f64 * 0.5, 5.0 + i as f64, 200.0))
            .collect();
        let r1 = Simulator::new(tiny_spec(), SimConfig::default()).run(jobs.clone(), &mut EagerMin);
        let r2 = Simulator::new(tiny_spec(), SimConfig::default()).run(jobs, &mut EagerMin);
        assert_eq!(r1.summary, r2.summary);
        assert_eq!(r1.completed.len(), r2.completed.len());
        for (a, b) in r1.completed.iter().zip(r2.completed.iter()) {
            assert_eq!(a, b);
        }
    }

    /// Refill `view` and require it to agree with a fresh rebuild on the
    /// generation header, the release stamps and the arrival sequence
    /// numbers; returns the generation and the stamps.
    fn refilled_gen(sim: &Simulator, view: &mut ClusterView) -> (u64, Vec<usize>) {
        sim.view_into(view);
        let rebuilt = sim.view();
        assert_eq!(view.feasibility_gen, rebuilt.feasibility_gen);
        assert_eq!(view.released_at, rebuilt.released_at);
        let seqs = |v: &ClusterView| v.pending.iter().map(|j| j.arrival_seq).collect::<Vec<_>>();
        assert_eq!(seqs(view), seqs(&rebuilt));
        assert!(
            seqs(view).windows(2).all(|w| w[0] < w[1]),
            "arrival sequence numbers increase along the queue"
        );
        assert_ne!(
            view.feasibility_gen, 0,
            "engine views are never generation 0"
        );
        (view.feasibility_gen, view.released_at.clone())
    }

    #[test]
    fn releases_stamp_their_class_and_only_queue_changes_mint_a_generation() {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(1.0);
        cfg.scale_cooldown = 0.0;
        let class = |name, count| {
            NodeClassSpec::new(
                name,
                count,
                ResourceVector::of(8.0, 32.0, 0.0, 10.0),
                SpeedProfile::uniform(1.0),
            )
        };
        let spec = ClusterSpec::new(vec![class("generic", 2), class("second", 1)]);
        let mut sim = Simulator::new(spec, cfg);
        let mut view = sim.view();
        let (fresh, _) = refilled_gen(&sim, &mut view);
        let jobs = vec![
            simple_job(0, 0.0, 100.0, 1e4),
            simple_job(1, 0.5, 100.0, 1e4),
            simple_job(2, 0.6, 100.0, 1e4),
            simple_job(3, 0.7, 3.0, 1e4),
        ];
        sim.start(jobs);
        let (started, stamps) = refilled_gen(&sim, &mut view);
        assert_ne!(started, fresh, "start");
        assert_eq!(stamps, [0, 0], "nothing released yet");
        let unchanged = |sim: &Simulator, view: &mut ClusterView, what: &str| {
            assert_eq!(refilled_gen(sim, view), (started, stamps.clone()), "{what}");
        };

        // Arrivals, starts, scale-ups and periodic epochs keep the
        // generation and the stamps; each arrival takes the next sequence
        // number.
        assert!(sim.advance());
        assert_eq!(sim.last_epoch(), EpochKind::Arrival(JobId(0)));
        unchanged(&sim, &mut view, "arrival");
        let start = |job, class, parallelism| Action::Start {
            job: JobId(job),
            class: NodeClassId(class),
            parallelism,
        };
        assert_eq!(sim.apply(&start(0, 0, 1)), ActionOutcome::Started);
        unchanged(&sim, &mut view, "start");
        let scale = |job, new_parallelism| Action::Scale {
            job: JobId(job),
            new_parallelism,
        };
        assert_eq!(sim.apply(&scale(0, 3)), ActionOutcome::Scaled);
        unchanged(&sim, &mut view, "scale-up");
        for id in 1..4 {
            assert!(sim.advance());
            assert_eq!(sim.last_epoch(), EpochKind::Arrival(JobId(id)));
            unchanged(&sim, &mut view, "arrival");
        }
        let seqs: Vec<u64> = view.pending.iter().map(|j| j.arrival_seq).collect();
        assert_eq!(seqs, [2, 3, 4], "job 0 took sequence number 1");
        assert!(sim.advance());
        assert_eq!(sim.last_epoch(), EpochKind::Periodic);
        unchanged(&sim, &mut view, "periodic epoch");

        // A scale-down stamps its class, after its own node deltas.
        let before = view.log_position();
        assert_eq!(sim.apply(&scale(0, 2)), ActionOutcome::Scaled);
        let (gen, after_shrink) = refilled_gen(&sim, &mut view);
        assert_eq!(gen, started, "a scale-down keeps the generation");
        assert!(before < after_shrink[0] && after_shrink[0] <= view.log_position());
        assert_eq!(after_shrink[1], 0, "class 1 released nothing");

        // A completion stamps only the class it ran on.
        assert_eq!(sim.apply(&start(3, 1, 1)), ActionOutcome::Started);
        let before = view.log_position();
        loop {
            assert!(sim.advance());
            if sim.last_epoch() == EpochKind::Completion(JobId(3)) {
                break;
            }
            assert_eq!(sim.last_epoch(), EpochKind::Periodic);
        }
        let (gen, after_completion) = refilled_gen(&sim, &mut view);
        assert_eq!(gen, started, "a completion keeps the generation");
        assert_eq!(after_completion[0], after_shrink[0], "class 0 untouched");
        assert!(before < after_completion[1] && after_completion[1] <= view.log_position());

        // A cancel, a degrade and a reset each begin a generation; the
        // degraded job re-enters the queue with a new sequence number.
        let mut seen = vec![fresh, started];
        let mut expect_new = |gen: u64, what: &str| {
            assert!(!seen.contains(&gen), "{what} must change the generation");
            seen.push(gen);
        };
        assert!(sim.cancel_pending(JobId(1)).is_some());
        expect_new(refilled_gen(&sim, &mut view).0, "cancel");
        assert!(sim.degrade_pending_to_rigid(JobId(2)));
        expect_new(refilled_gen(&sim, &mut view).0, "degrade");
        assert_eq!(view.pending.len(), 1);
        assert_eq!(view.pending[0].arrival_seq, 5, "a degrade re-admits");
        sim.reset();
        let (gen, stamps) = refilled_gen(&sim, &mut view);
        expect_new(gen, "reset");
        assert_eq!(stamps, [0, 0], "a reset clears the stamps");
        // A clone never shares its original's generation.
        let clone = sim.clone();
        assert_ne!(clone.view().feasibility_gen, sim.view().feasibility_gen);
    }
}
