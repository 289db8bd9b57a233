//! Scheduler-facing snapshot of the simulation state.
//!
//! A [`ClusterView`] is built and refilled by the engine
//! ([`crate::engine::Simulator::view`] / `view_into`) at every decision
//! epoch; no other public path builds one. It owns its data (no borrows
//! into the engine) so policies can keep a clone around or ship it to an
//! RL replay buffer.
//!
//! The view owns its layout: pending rows in arrival order, running rows in
//! `(started_at, id)` order and the deadline index over the pending rows.
//! The engine's change log names jobs by key (`ViewDelta`), and the
//! incremental refill's `ClusterView::replay` is the one place that finds
//! their positions and keeps the deadline index in step; the engine keeps
//! neither order.

use crate::config::ClusterSpec;
use crate::fit_index::{rank_floor, units_that_fit, FitIndex};
use crate::job::{Job, JobClass, JobId, SpeedupModel, TimeUtility};
use crate::node::NodeClassId;
use crate::resources::ResourceVector;
use std::sync::Arc;

/// One node class: its static fields, each node's free capacity and the
/// fit index over them. The cluster keeps one row per class as its record
/// of the class ([`crate::cluster::Cluster::class_row`]); views copy it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeClassView {
    /// Class id.
    pub id: NodeClassId,
    /// Human-readable name.
    pub name: String,
    /// Number of machines in the class.
    pub node_count: usize,
    /// Total capacity of the class.
    pub total_capacity: ResourceVector,
    /// Free capacity aggregated over the class.
    pub free_capacity: ResourceVector,
    /// Free capacity of each machine in the class (for fragmentation-aware
    /// feasibility checks), in node-id order.
    pub node_free: Vec<ResourceVector>,
    /// Per-node capacity (uniform within a class) — the denominator of the
    /// fit-index bucket ranks, taken straight from the spec.
    pub unit_capacity: ResourceVector,
    /// Bucketed free-capacity index over [`Self::node_free`], always built:
    /// kept current by [`Self::set_node_free`] / [`Self::rebuild_fit_index`].
    /// A pure function of `node_free`, so the derived `PartialEq` stays a
    /// pure state comparison. Counting queries and the cluster's placement
    /// search walk it emptiest-first ([`Self::fits_desc`]).
    pub(crate) fit_index: FitIndex,
    /// Speed factor per job class ([`JobClass::ALL`] order).
    pub speed_factors: [f64; JobClass::COUNT],
}

impl NodeClassView {
    /// How many units of `per_unit` demand can still be placed on this class,
    /// respecting per-node fragmentation. Saturating — at 64k nodes the raw
    /// per-node sum can exceed `u32::MAX`.
    ///
    /// The saturating sum is order-independent, so it takes the
    /// [`Self::fits_desc`] walk, which skips the nodes below the demand's
    /// [`rank_floor`].
    pub fn units_available(&self, per_unit: &ResourceVector) -> u32 {
        if per_unit.total() <= 0.0 {
            return u32::MAX;
        }
        self.fits_desc(per_unit)
            .map(|(_, fit)| fit)
            .fold(0, u32::saturating_add)
    }

    /// The one emptiest-first walk behind the unit counts and the cluster's
    /// placement search: `(position in the row, units that fit)` for every
    /// node in the fit index's buckets at or above the demand's
    /// [`rank_floor`], emptiest bucket first and in ascending position
    /// within a bucket. The nodes below the floor fit nothing, so skipping
    /// them changes no count and no placement.
    #[inline]
    pub fn fits_desc<'a>(
        &'a self,
        per_unit: &'a ResourceVector,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        let floor = rank_floor(per_unit, &self.unit_capacity);
        self.fit_index
            .nodes_desc_from(floor)
            .map(move |idx| (idx, units_that_fit(&self.node_free[idx], per_unit)))
    }

    /// Rebuild [`Self::fit_index`] from the current [`Self::node_free`] rows
    /// (full view rebuilds; incremental refills go through
    /// [`Self::set_node_free`]).
    pub(crate) fn rebuild_fit_index(&mut self) {
        let cap = self.unit_capacity;
        self.fit_index.rebuild(&cap, self.node_free.iter().copied());
    }

    /// Update one node's free vector, keeping the fit index in step (the
    /// cluster's allocations and releases and the incremental-view
    /// `NodeFree` delta land here).
    pub(crate) fn set_node_free(&mut self, index: usize, free: ResourceVector) {
        self.node_free[index] = free;
        self.fit_index.update(index, &free, &self.unit_capacity);
    }

    /// Upper bound on placeable units from the class-level free-capacity
    /// aggregate, ignoring fragmentation. Never below the true per-node
    /// answer, and O(resource dims) instead of O(nodes) — the fast
    /// infeasibility screen for saturated classes. The per-node count
    /// grants [`units_that_fit`]'s 1e-9 tolerance once per node, so the
    /// aggregate gets it once per node too (three nodes of `1 − 0.5e-9`
    /// CPU fit three 1-CPU units, their plain aggregate only two), plus the
    /// 1e-6 drift between the delta-maintained aggregate and the node sum
    /// that `Cluster::check_invariants` allows.
    #[inline]
    pub fn aggregate_unit_bound(&self, per_unit: &ResourceVector) -> u32 {
        let slack = (self.node_count.saturating_sub(1)) as f64 * 1e-9 + 1e-6;
        units_that_fit(
            &(self.free_capacity + ResourceVector::splat(slack)),
            per_unit,
        )
    }

    /// [`Self::units_available`], stopping as soon as `cap` units are
    /// proven placeable: returns `min(units_available, cap)`.
    ///
    /// Feasibility queries never need more than the requested parallelism,
    /// so the hot scheduler paths answer with (a) the O(dims) aggregate
    /// screen — which alone rejects requests on saturated classes, the
    /// common case under load — and (b) the [`Self::fits_desc`] walk, which
    /// exits as soon as the target is reached (after the *fewest possible*
    /// machines, because the emptiest nodes contribute the most units) and
    /// never descends below the demand's [`rank_floor`]. A query the class
    /// cannot satisfy therefore visits every node in the buckets at or above
    /// the floor — all of the class when the floor is 0 (some capacity
    /// dimension undemanded) — but not the nearly-full nodes beneath it.
    pub fn units_available_capped(&self, per_unit: &ResourceVector, cap: u32) -> u32 {
        if per_unit.total() <= 0.0 {
            return cap;
        }
        if cap == 0 {
            return 0;
        }
        let bound = self.aggregate_unit_bound(per_unit);
        if bound == 0 {
            return 0;
        }
        let cap = cap.min(bound);
        let mut total = 0u32;
        for (_, fit) in self.fits_desc(per_unit) {
            total = total.saturating_add(fit);
            if total >= cap {
                return cap;
            }
        }
        total
    }

    /// True when `units` units of `per_unit` demand fit on this class right
    /// now (fragmentation-aware, early-exiting).
    pub fn can_host(&self, per_unit: &ResourceVector, units: u32) -> bool {
        self.units_available_capped(per_unit, units) >= units
    }

    /// Speed factor for one job class.
    pub fn speed_factor(&self, class: JobClass) -> f64 {
        self.speed_factors[class.index()]
    }

    /// Scalar utilisation of the class (capacity-weighted across dimensions).
    pub fn utilization(&self) -> f64 {
        let used = self.total_capacity.saturating_sub(&self.free_capacity);
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..crate::resources::NUM_RESOURCES {
            if self.total_capacity.0[i] > 0.0 {
                num += used.0[i];
                den += self.total_capacity.0[i];
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

/// A job waiting in the queue, as seen by the scheduler — and the engine's
/// own record of the job from admission until it starts: the engine converts
/// each arriving `Job` into this row once, keeps it in its pending queue and
/// views copy it.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJobView {
    /// Job id.
    pub id: JobId,
    /// Workload class.
    pub class: JobClass,
    /// Arrival time.
    pub arrival: f64,
    /// Absolute deadline.
    pub deadline: f64,
    /// Total work.
    pub total_work: f64,
    /// Per-unit resource demand.
    pub demand_per_unit: ResourceVector,
    /// Minimum parallelism.
    pub min_parallelism: u32,
    /// Maximum parallelism.
    pub max_parallelism: u32,
    /// Speedup model.
    pub speedup: SpeedupModel,
    /// Whether the job may be re-scaled after starting.
    pub malleable: bool,
    /// Time-utility function (its `value` is earned when meeting the
    /// deadline).
    pub utility: TimeUtility,
    /// Arrival sequence number, engine-assigned: it increases strictly
    /// along [`ClusterView::pending`] and is never reused within a run, so
    /// the rows that arrived after a given one are a suffix of the queue.
    pub arrival_seq: u64,
}

impl PendingJobView {
    /// The row of an arriving job, its arrival sequence number still 0 (the
    /// pending queue stamps it on admission).
    pub(crate) fn from_job(job: &Job) -> Self {
        PendingJobView {
            id: job.id,
            class: job.class,
            arrival: job.arrival,
            deadline: job.deadline,
            total_work: job.total_work,
            demand_per_unit: job.demand_per_unit,
            min_parallelism: job.min_parallelism,
            max_parallelism: job.max_parallelism,
            speedup: job.speedup,
            malleable: job.malleable,
            utility: job.utility,
            arrival_seq: 0,
        }
    }

    /// Clamp a requested parallelism into the job's feasible range,
    /// honouring rigidity (a rigid job runs at exactly `min_parallelism`).
    pub(crate) fn clamp_parallelism(&self, requested: u32) -> u32 {
        if !self.malleable {
            return self.min_parallelism;
        }
        requested.clamp(self.min_parallelism, self.max_parallelism)
    }

    /// How long the job has been waiting by `now` (`now − arrival`, never
    /// negative). Rows hold no time-dependent state, so a row stays valid
    /// while time advances and every reader picks its own `now`.
    pub fn wait(&self, now: f64) -> f64 {
        (now - self.arrival).max(0.0)
    }

    /// Time remaining until the deadline (may be negative).
    pub fn time_to_deadline(&self, now: f64) -> f64 {
        self.deadline - now
    }

    /// Estimated service time on a node class at a given parallelism.
    pub fn service_time_on(&self, class: &NodeClassView, parallelism: u32) -> f64 {
        let speed = class.speed_factor(self.class).max(1e-9);
        self.total_work / (speed * self.speedup.speedup(parallelism))
    }

    /// Slack if started now on `class` with `parallelism` units: time to
    /// deadline minus estimated service time. Negative means the deadline
    /// would be missed even if started immediately.
    pub fn slack_on(&self, now: f64, class: &NodeClassView, parallelism: u32) -> f64 {
        self.time_to_deadline(now) - self.service_time_on(class, parallelism)
    }
}

/// A running job, as seen by the scheduler — and the engine's own record of
/// the job from its start to its completion: the engine builds this row from
/// the job's pending row, stores it with the job's placement and views copy
/// it, so the methods below are the one computation of remaining work,
/// cooldown and finish time, and the completion record reads its fields.
///
/// Rows are **time-affine**: they hold the engine's reconciled progress
/// (remaining work as of [`Self::last_update`], the constant `rate` since
/// then, the cooldown anchor) instead of values at "now", and the
/// time-dependent quantities are methods taking the `now` to read them at.
/// Between its start and completion a row changes only when the job is
/// re-scaled, so a refill where only time moved rewrites no row.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJobView {
    /// Job id.
    pub id: JobId,
    /// Workload class.
    pub class: JobClass,
    /// Node class the job is placed on.
    pub node_class: NodeClassId,
    /// Current degree of parallelism.
    pub units: u32,
    /// Remaining work as of [`Self::last_update`] — not "now"; read the
    /// current value through [`Self::remaining_work`].
    pub remaining_at_update: f64,
    /// Time the engine last reconciled the job's progress (its start or
    /// most recent re-scale).
    pub last_update: f64,
    /// Total work at submission.
    pub total_work: f64,
    /// Arrival time.
    pub arrival: f64,
    /// Time the job started executing.
    pub started_at: f64,
    /// Absolute deadline.
    pub deadline: f64,
    /// Per-unit demand.
    pub demand_per_unit: ResourceVector,
    /// Minimum parallelism.
    pub min_parallelism: u32,
    /// Maximum parallelism.
    pub max_parallelism: u32,
    /// Speedup model.
    pub speedup: SpeedupModel,
    /// Whether the job may be re-scaled.
    pub malleable: bool,
    /// Execution rate in work units per second, constant since
    /// [`Self::last_update`].
    pub rate: f64,
    /// Time-utility function (its `value` is earned when meeting the
    /// deadline).
    pub utility: TimeUtility,
    /// Time of the job's start or most recent re-scale — the anchor of the
    /// reconfiguration cooldown read by [`Self::scale_ready`].
    pub last_scaled_at: f64,
}

impl RunningJobView {
    /// Remaining work at `now`: the reconciled value minus the progress made
    /// at the constant rate since [`Self::last_update`], clamped at zero.
    /// The engine's `reconcile` calls this to fold the progress in.
    pub fn remaining_work(&self, now: f64) -> f64 {
        if now <= self.last_update {
            self.remaining_at_update
        } else {
            (self.remaining_at_update - (now - self.last_update) * self.rate).max(0.0)
        }
    }

    /// True when the engine would accept a re-scaling of this job at `now`
    /// under the given rules (the view header's `allow_scaling` /
    /// `scale_cooldown`; [`ClusterView::scale_ready`] passes them): scaling
    /// enabled and the reconfiguration cooldown elapsed, with a 1e-9
    /// tolerance. The engine's `apply_scale` calls this as its cooldown
    /// test.
    pub fn scale_ready(&self, now: f64, allow_scaling: bool, scale_cooldown: f64) -> bool {
        allow_scaling && now - self.last_scaled_at >= scale_cooldown - 1e-9
    }

    /// Expected finish time when the job keeps its current rate from `now`
    /// (the rate floored at 1e-9). The engine schedules the job's
    /// completion event at this time after every start and re-scale.
    pub fn expected_finish(&self, now: f64) -> f64 {
        now + self.remaining_work(now) / self.rate.max(1e-9)
    }

    /// Slack at `now` at the current rate (negative means the deadline will
    /// be missed without scaling up).
    pub fn slack(&self, now: f64) -> f64 {
        self.deadline - self.expected_finish(now)
    }

    /// The minimum service time achievable anywhere in the cluster given the
    /// best speed factor available to this job class: the whole work at
    /// `max_parallelism` (the completion record's slowdown denominator).
    pub(crate) fn best_case_service_time(&self, best_speed: f64) -> f64 {
        self.total_work / (best_speed.max(1e-9) * self.speedup.speedup(self.max_parallelism))
    }
}

/// One recorded change to the scheduler-visible state, the unit of the
/// incremental view protocol (see [`crate::engine::Simulator::view_into`]).
/// Deltas name jobs by key, never by a position in a view's arrays: a
/// pending row by its [`PendingJobView::arrival_seq`], a running row by its
/// `(started_at, id)`. [`ClusterView::replay`] turns keys into positions,
/// so the view is the only owner of its layout and its indices. Rows and
/// capacities are captured at emit time, so a view can catch up from any
/// recorded position.
// Row-carrying variants stay inline: boxing them would put one heap
// allocation on every arrival/start, breaking the allocation-free stepping
// contract the counting-allocator tests pin.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum ViewDelta {
    /// A job arrived: append this row to `pending`.
    Arrived(PendingJobView),
    /// A pending job started, was cancelled or was degraded: remove the
    /// row with this arrival sequence number.
    PendingRemoved { seq: u64 },
    /// A job started: insert this row at its `(started_at, id)` position.
    RunningInserted(RunningJobView),
    /// A running job was re-scaled — the only change to a running row
    /// between its start and completion: overwrite the row with the same
    /// `(started_at, id)`.
    RunningRescaled(RunningJobView),
    /// A running job completed: remove the row with this key.
    RunningRemoved { started_at: f64, id: JobId },
    /// A node's free capacity changed: overwrite its `node_free` entry.
    NodeFree {
        class: u32,
        index: u32,
        free: ResourceVector,
    },
}

/// Synchronisation cookie of the incremental view maintenance protocol.
///
/// A [`ClusterView`] refilled by [`crate::engine::Simulator::view_into`]
/// remembers which simulator instance, run and change-log position it
/// mirrors; a matching cookie lets the next refill apply only the deltas
/// recorded since, anything else falls back to a full rebuild. The cookie is
/// engine-owned state: a freshly built view starts unsynced (cookie
/// zeroed), which is always safe — the first refill rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ViewSync {
    /// Identity of the simulator run the view last mirrored, minted anew
    /// on every construction, clone and reset (0 = never synced). The
    /// start memo ([`crate::StartMemo`]) keys on it and on `log_pos`.
    pub run_id: u64,
    /// Change-log position up to which deltas have been applied.
    pub log_pos: usize,
}

/// The complete decision-epoch snapshot handed to a [`crate::scheduler::Scheduler`].
///
/// Views are **engine-maintained**: between two refills by the same
/// simulator the engine patches only what changed (see
/// [`crate::engine::Simulator::view_into`]). Do not structurally mutate a
/// view that will be refilled again — clone it first (schedulers receive
/// `&ClusterView` and cannot, but tests holding the buffer could).
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Current simulated time.
    pub time: f64,
    /// Cluster specification (shared, cheap to clone).
    pub spec: Arc<ClusterSpec>,
    /// Per node class aggregates, indexed by `NodeClassId`.
    pub classes: Vec<NodeClassView>,
    /// Pending jobs in arrival order.
    pub pending: Vec<PendingJobView>,
    /// Running jobs in start order: sorted by `(started_at, id)`.
    pub running: Vec<RunningJobView>,
    /// Number of jobs that have not yet arrived.
    pub future_arrivals: usize,
    /// Indices into [`Self::pending`] ordered by `(deadline, id)` — the
    /// deadline index, which the incremental refill maintains as it replays
    /// arrivals and removals (the full rebuild sorts it afresh). EDF-family
    /// schedulers iterate [`Self::pending_in_deadline_order`] and the DRL
    /// queue slots are its first rows, instead of re-sorting the queue at
    /// every decision.
    pub pending_by_deadline: Vec<u32>,
    /// Whether the engine accepts re-scaling at all (its
    /// `SimConfig::allow_scaling`); read by [`Self::scale_ready`].
    pub allow_scaling: bool,
    /// Minimum time between two re-scalings of one job (its
    /// `SimConfig::scale_cooldown`); read by [`Self::scale_ready`].
    pub scale_cooldown: f64,
    /// Release stamps, indexed by `NodeClassId`: the change-log position
    /// just after the latest completion or scale-down that freed capacity
    /// on the class, 0 if none since the simulator started or reset
    /// (engine-maintained). Nothing else adds capacity, so between two
    /// views of one run a class's nodes have only lost free capacity unless
    /// its stamp lies after the earlier view's [`Self::log_position`]
    /// ([`crate::StartMemo`] relies on this).
    pub released_at: Vec<usize>,
    /// Incremental-refill cookie (engine-owned).
    pub(crate) sync: ViewSync,
}

impl ClusterView {
    /// Build an unsynced view (the engine's [`crate::engine::Simulator::view`]
    /// refills it at once). The deadline index is derived from `pending`;
    /// the view allows scaling with no cooldown until a refill copies both
    /// from the engine's config.
    pub(crate) fn new(
        time: f64,
        spec: Arc<ClusterSpec>,
        classes: Vec<NodeClassView>,
        pending: Vec<PendingJobView>,
        running: Vec<RunningJobView>,
        future_arrivals: usize,
    ) -> Self {
        let mut pending_by_deadline = Vec::new();
        Self::fill_sorted_deadline_index(&pending, &mut pending_by_deadline);
        ClusterView {
            time,
            spec,
            classes,
            pending,
            running,
            future_arrivals,
            pending_by_deadline,
            allow_scaling: true,
            scale_cooldown: 0.0,
            released_at: Vec::new(),
            sync: ViewSync::default(),
        }
    }

    /// Compute the `(deadline, id)`-sorted index over a pending-row slice
    /// from scratch into a caller-retained buffer — the full-rebuild
    /// reference for the index [`Self::replay`] maintains (allocation-free
    /// once `out` has capacity; `sort_unstable` sorts in place).
    pub(crate) fn fill_sorted_deadline_index(pending: &[PendingJobView], out: &mut Vec<u32>) {
        out.clear();
        out.extend(0..pending.len() as u32);
        out.sort_unstable_by(|&a, &b| {
            let (ja, jb) = (&pending[a as usize], &pending[b as usize]);
            ja.deadline
                .partial_cmp(&jb.deadline)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ja.id.cmp(&jb.id))
        });
    }

    /// Pending jobs in `(deadline, id)` order, straight from the maintained
    /// index — no sort.
    pub fn pending_in_deadline_order(&self) -> impl Iterator<Item = &PendingJobView> + '_ {
        debug_assert_eq!(self.pending_by_deadline.len(), self.pending.len());
        self.pending_by_deadline
            .iter()
            .map(move |&i| &self.pending[i as usize])
    }

    /// Position in [`Self::pending_by_deadline`] of the first row whose
    /// `(deadline, id)` key is not below the given one, searching onwards
    /// from `from`: every row before `from` must be below the key. The
    /// search gallops (doubling steps, then a binary search), so it costs
    /// O(log distance) and looking up a sorted run of keys in order, each
    /// from the position after the last, costs little more than one pass.
    pub(crate) fn deadline_position(&self, from: usize, deadline: f64, id: JobId) -> usize {
        let below = |slot: &u32| {
            let job = &self.pending[*slot as usize];
            (job.deadline, job.id) < (deadline, id)
        };
        let order = &self.pending_by_deadline;
        let (mut lo, mut step) = (from.min(order.len()), 1);
        while lo + step <= order.len() && below(&order[lo + step - 1]) {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step - 1).min(order.len());
        lo + order[lo..hi].partition_point(below)
    }

    /// Sort running rows by `(started_at, id)`, the order of
    /// [`Self::running`] — the full-rebuild reference for the order
    /// [`Self::replay`] keeps by binary search (in place, no allocation).
    pub(crate) fn sort_running(running: &mut [RunningJobView]) {
        running.sort_unstable_by(|a, b| {
            a.started_at
                .partial_cmp(&b.started_at)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
    }

    /// Apply recorded deltas in log order — the one place that turns the
    /// log's keys into positions in the view's arrays. Pending rows are
    /// found by binary search on [`PendingJobView::arrival_seq`] and
    /// running rows on `(started_at, id)`; both keys are unique and
    /// increase along their arrays. [`Self::pending_by_deadline`] follows
    /// every arrival and removal. Costs O(log rows) per delta plus the
    /// shifts of an insertion or removal; the deadline index is never
    /// copied or re-sorted.
    pub(crate) fn replay(&mut self, deltas: &[ViewDelta]) {
        for delta in deltas {
            match delta {
                ViewDelta::Arrived(row) => {
                    let at = self.deadline_position(0, row.deadline, row.id);
                    self.pending_by_deadline
                        .insert(at, self.pending.len() as u32);
                    self.pending.push(row.clone());
                }
                ViewDelta::PendingRemoved { seq } => self.remove_pending(*seq),
                ViewDelta::RunningInserted(row) => {
                    let at = self.running_position(row.started_at, row.id);
                    self.running.insert(at, row.clone());
                }
                ViewDelta::RunningRescaled(row) => {
                    let at = self.running_slot(row.started_at, row.id);
                    self.running[at] = row.clone();
                }
                ViewDelta::RunningRemoved { started_at, id } => {
                    let at = self.running_slot(*started_at, *id);
                    self.running.remove(at);
                }
                ViewDelta::NodeFree { class, index, free } => {
                    // Routed through the setter so the view's fit index
                    // tracks the change; the rebuild path re-derives it,
                    // keeping both paths byte-identical.
                    self.classes[*class as usize].set_node_free(*index as usize, *free);
                }
            }
        }
    }

    /// Remove the pending row with arrival sequence number `seq` and its
    /// deadline-index entry, and renumber the entries of the rows behind it.
    fn remove_pending(&mut self, seq: u64) {
        let pos = self.pending.partition_point(|j| j.arrival_seq < seq);
        let job = self
            .pending
            .get(pos)
            .filter(|j| j.arrival_seq == seq)
            .unwrap_or_else(|| panic!("no pending row with arrival sequence {seq}"));
        let at = self.deadline_position(0, job.deadline, job.id);
        debug_assert_eq!(self.pending_by_deadline[at], pos as u32);
        self.pending_by_deadline.remove(at);
        for index in &mut self.pending_by_deadline {
            if *index > pos as u32 {
                *index -= 1;
            }
        }
        self.pending.remove(pos);
    }

    /// Position of the first running row whose `(started_at, id)` is not
    /// below the given key.
    fn running_position(&self, started_at: f64, id: JobId) -> usize {
        self.running
            .partition_point(|r| (r.started_at, r.id) < (started_at, id))
    }

    /// Position of the running row with this key. Start times are engine
    /// clock readings (finite), so the search lands exactly on the row; a
    /// miss means the view was mutated behind the engine's back.
    fn running_slot(&self, started_at: f64, id: JobId) -> usize {
        let at = self.running_position(started_at, id);
        assert!(
            self.running.get(at).is_some_and(|r| r.id == id),
            "no running row for {id}"
        );
        at
    }

    /// Change-log position of the simulator state this view mirrors.
    /// Between two views of the same simulator run, a larger position is a
    /// later state, and [`Self::released_at`] stamps are positions on the
    /// same scale.
    pub fn log_position(&self) -> usize {
        self.sync.log_pos
    }

    /// Sum of `total_work` over the pending jobs, folded in row order from
    /// `0.0`. O(pending); only the DRL state encoder reads it.
    pub fn pending_work_total(&self) -> f64 {
        self.pending.iter().fold(0.0, |acc, j| acc + j.total_work)
    }

    /// True when the engine would accept a re-scaling of `job` at this
    /// view's time ([`RunningJobView::scale_ready`] under the header's
    /// scaling rules).
    pub fn scale_ready(&self, job: &RunningJobView) -> bool {
        job.scale_ready(self.time, self.allow_scaling, self.scale_cooldown)
    }

    /// One class view by id.
    pub fn class(&self, id: NodeClassId) -> &NodeClassView {
        &self.classes[id.0]
    }

    /// Number of node classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Find a pending job by id.
    pub fn pending_job(&self, id: JobId) -> Option<&PendingJobView> {
        self.pending.iter().find(|j| j.id == id)
    }

    /// Find a running job by id.
    pub fn running_job(&self, id: JobId) -> Option<&RunningJobView> {
        self.running.iter().find(|j| j.id == id)
    }

    /// Can `parallelism` units of this pending job be placed on `class` right
    /// now? (Fragmentation-aware; screened through the class free-capacity
    /// aggregate and early-exiting, so a saturated class answers in O(dims)
    /// and an open one after a node or two. An infeasible query on a
    /// fragmented class visits the nodes in fit-index buckets at or above
    /// the demand's rank floor — see
    /// [`NodeClassView::units_available_capped`].)
    pub fn can_start(&self, job: &PendingJobView, class: NodeClassId, parallelism: u32) -> bool {
        if parallelism < job.min_parallelism || parallelism > job.max_parallelism {
            return false;
        }
        self.classes[class.0].can_host(&job.demand_per_unit, parallelism)
    }

    /// The node class on which `job` would execute fastest among the classes
    /// that can currently host at least its minimum parallelism (one
    /// [`Self::can_start`] per class). Ties break toward the lower class id
    /// so behaviour is deterministic.
    pub fn best_class_for(&self, job: &PendingJobView) -> Option<NodeClassId> {
        let mut best: Option<(NodeClassId, f64)> = None;
        for class in &self.classes {
            if !self.can_start(job, class.id, job.min_parallelism) {
                continue;
            }
            let speed = class.speed_factor(job.class);
            match best {
                Some((_, s)) if s >= speed => {}
                _ => best = Some((class.id, speed)),
            }
        }
        best.map(|(id, _)| id)
    }

    /// The largest feasible parallelism for `job` on `class`, capped by the
    /// job's maximum, or `None` if not even the minimum fits. (Counts at
    /// most `max_parallelism` units — same screens as [`Self::can_start`].)
    pub fn max_feasible_parallelism(
        &self,
        job: &PendingJobView,
        class: NodeClassId,
    ) -> Option<u32> {
        let feasible =
            self.classes[class.0].units_available_capped(&job.demand_per_unit, job.max_parallelism);
        if feasible >= job.min_parallelism {
            Some(feasible)
        } else {
            None
        }
    }

    /// Overall cluster utilisation in `[0, 1]` (capacity weighted).
    pub fn overall_utilization(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for c in &self.classes {
            let used = c.total_capacity.saturating_sub(&c.free_capacity);
            for i in 0..crate::resources::NUM_RESOURCES {
                if c.total_capacity.0[i] > 0.0 {
                    num += used.0[i];
                    den += c.total_capacity.0[i];
                }
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, NodeClassSpec};
    use crate::node::SpeedProfile;

    fn make_view() -> ClusterView {
        let spec = Arc::new(ClusterSpec::new(vec![NodeClassSpec::new(
            "generic",
            2,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(2.0),
        )]));
        let mut class_view = NodeClassView {
            id: NodeClassId(0),
            name: "generic".into(),
            node_count: 2,
            total_capacity: ResourceVector::of(16.0, 64.0, 0.0, 20.0),
            free_capacity: ResourceVector::of(12.0, 48.0, 0.0, 16.0),
            node_free: vec![
                ResourceVector::of(4.0, 16.0, 0.0, 6.0),
                ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            ],
            unit_capacity: ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            fit_index: FitIndex::default(),
            speed_factors: [2.0; JobClass::COUNT],
        };
        class_view.rebuild_fit_index();
        let job = Job::builder(JobId(1), JobClass::Batch)
            .arrival(0.0)
            .total_work(40.0)
            .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 1.0))
            .parallelism_range(1, 6)
            .deadline(30.0)
            .build();
        ClusterView::new(
            10.0,
            spec,
            vec![class_view],
            vec![PendingJobView::from_job(&job)],
            vec![],
            3,
        )
    }

    #[test]
    fn units_available_respects_fragmentation() {
        let view = make_view();
        let per_unit = ResourceVector::of(3.0, 4.0, 0.0, 1.0);
        // node 0 fits 1 (4/3), node 1 fits 2 (8/3) -> 3
        assert_eq!(view.classes[0].units_available(&per_unit), 3);
    }

    #[test]
    fn capped_units_match_full_count_up_to_the_cap() {
        let view = make_view();
        let class = &view.classes[0];
        for per_unit in [
            ResourceVector::of(3.0, 4.0, 0.0, 1.0),
            ResourceVector::of(1.0, 2.0, 0.0, 0.5),
            ResourceVector::of(100.0, 1.0, 0.0, 0.0), // fits nowhere
        ] {
            let full = class.units_available(&per_unit);
            for cap in 0..12u32 {
                assert_eq!(
                    class.units_available_capped(&per_unit, cap),
                    full.min(cap),
                    "cap {cap} demand {per_unit}"
                );
                assert_eq!(class.can_host(&per_unit, cap), full >= cap, "cap {cap}");
            }
            // The aggregate screen is a true upper bound.
            assert!(class.aggregate_unit_bound(&per_unit) >= full);
        }
    }

    /// Three nodes, each `0.5e-9` CPU short of one unit: the per-node
    /// tolerance fits a unit on each, although the summed free capacity
    /// (`3 − 1.5e-9`) holds only two with the tolerance applied once. The
    /// aggregate screen must still bound the count from above, so the
    /// capped count and the feasibility queries built on it see all three.
    #[test]
    fn capped_count_applies_the_tolerance_per_node() {
        let unit = ResourceVector::of(1.0, 0.0, 0.0, 0.0);
        let free = ResourceVector::of(1.0 - 0.5e-9, 0.0, 0.0, 0.0);
        let spec = Arc::new(ClusterSpec::new(vec![NodeClassSpec::new(
            "thin",
            3,
            unit,
            SpeedProfile::uniform(1.0),
        )]));
        let mut class_view = NodeClassView {
            id: NodeClassId(0),
            name: "thin".into(),
            node_count: 3,
            total_capacity: ResourceVector::of(3.0, 0.0, 0.0, 0.0),
            free_capacity: ResourceVector::of(3.0 * (1.0 - 0.5e-9), 0.0, 0.0, 0.0),
            node_free: vec![free; 3],
            unit_capacity: unit,
            fit_index: FitIndex::default(),
            speed_factors: [1.0; JobClass::COUNT],
        };
        class_view.rebuild_fit_index();
        let job = Job::builder(JobId(1), JobClass::Batch)
            .arrival(0.0)
            .total_work(3.0)
            .demand_per_unit(unit)
            .parallelism_range(1, 3)
            .deadline(30.0)
            .build();
        let view = ClusterView::new(
            0.0,
            spec,
            vec![class_view],
            vec![PendingJobView::from_job(&job)],
            vec![],
            0,
        );
        let (class, job) = (&view.classes[0], &view.pending[0]);
        assert_eq!(class.units_available(&unit), 3);
        assert!(class.aggregate_unit_bound(&unit) >= 3);
        for cap in 0..6 {
            assert_eq!(
                class.units_available_capped(&unit, cap),
                cap.min(3),
                "cap {cap}"
            );
        }
        assert!(view.can_start(job, NodeClassId(0), 3));
        assert_eq!(view.max_feasible_parallelism(job, NodeClassId(0)), Some(3));
    }

    #[test]
    fn indexed_and_plain_counting_agree() {
        // The floored index walk counts exactly what a plain per-node sum
        // over every row counts — the sum is iteration-order-independent.
        let view = make_view();
        let class = &view.classes[0];
        for per_unit in [
            ResourceVector::of(3.0, 4.0, 0.0, 1.0),
            ResourceVector::of(1.0, 2.0, 0.0, 0.5),
            ResourceVector::of(100.0, 1.0, 0.0, 0.0),
        ] {
            let plain = class
                .node_free
                .iter()
                .map(|free| units_that_fit(free, &per_unit))
                .fold(0, u32::saturating_add);
            assert_eq!(class.units_available(&per_unit), plain);
            for cap in 0..12u32 {
                assert_eq!(
                    class.units_available_capped(&per_unit, cap),
                    plain.min(cap),
                    "cap {cap} demand {per_unit}"
                );
            }
        }
    }

    #[test]
    fn set_node_free_keeps_index_in_step() {
        let mut view = make_view();
        let class = &mut view.classes[0];
        // Drain node 1, free node 0 fully: count must track exactly.
        class.set_node_free(1, ResourceVector::zero());
        class.set_node_free(0, ResourceVector::of(8.0, 32.0, 0.0, 10.0));
        let per_unit = ResourceVector::of(3.0, 4.0, 0.0, 1.0);
        assert_eq!(class.units_available(&per_unit), 2);
        assert_eq!(class.units_available_capped(&per_unit, 10), 2);
        // The incrementally maintained index equals a fresh rebuild.
        let mut rebuilt = class.clone();
        rebuilt.rebuild_fit_index();
        assert_eq!(*class, rebuilt);
    }

    #[test]
    fn deadline_order_iterates_by_deadline_then_id() {
        let mut view = make_view();
        let base = view.pending[0].clone();
        view.pending = vec![
            PendingJobView {
                id: JobId(5),
                deadline: 30.0,
                ..base.clone()
            },
            PendingJobView {
                id: JobId(1),
                deadline: 10.0,
                ..base.clone()
            },
            PendingJobView {
                id: JobId(9),
                deadline: 10.0,
                ..base.clone()
            },
            PendingJobView {
                id: JobId(3),
                deadline: 20.0,
                ..base
            },
        ];
        ClusterView::fill_sorted_deadline_index(&view.pending, &mut view.pending_by_deadline);
        let ids: Vec<u64> = view.pending_in_deadline_order().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 9, 3, 5]);
        // Galloping lookups agree with a linear scan from every start.
        let mut keys: Vec<(f64, JobId)> = view.pending.iter().map(|j| (j.deadline, j.id)).collect();
        keys.extend([(10.0, JobId(4)), (0.0, JobId(0)), (99.0, JobId(0))]);
        for (deadline, id) in keys {
            let expected = view
                .pending_in_deadline_order()
                .take_while(|j| (j.deadline, j.id) < (deadline, id))
                .count();
            for from in 0..=expected {
                assert_eq!(view.deadline_position(from, deadline, id), expected);
            }
        }
    }

    #[test]
    fn pending_view_carries_wait_and_slack() {
        let view = make_view();
        let j = &view.pending[0];
        assert!((j.wait(view.time) - 10.0).abs() < 1e-9);
        // service time at p=1: 40 / (2*1) = 20, time to deadline = 20 -> slack 0
        assert!((j.slack_on(10.0, &view.classes[0], 1)).abs() < 1e-9);
        assert!(j.slack_on(10.0, &view.classes[0], 4) > 0.0);
    }

    #[test]
    fn wait_is_the_engine_expression_at_any_now() {
        let j = make_view().pending[0].clone();
        // The engine's pending-wait expression, `(now - arrival).max(0.0)`,
        // including a `now` before the arrival (clamped, never negative).
        for now in [-5.0, 0.0, 1e-12, 3.25, 10.0, 1e9] {
            assert_eq!(
                j.wait(now).to_bits(),
                (now - j.arrival).max(0.0).to_bits(),
                "now {now}"
            );
        }
        assert_eq!(j.wait(-5.0), 0.0);
    }

    fn running_row() -> RunningJobView {
        RunningJobView {
            id: JobId(2),
            class: JobClass::Stream,
            node_class: NodeClassId(0),
            units: 2,
            remaining_at_update: 10.0,
            last_update: 4.0,
            total_work: 20.0,
            arrival: 0.0,
            started_at: 1.0,
            deadline: 20.0,
            demand_per_unit: ResourceVector::of(1.0, 1.0, 0.0, 0.1),
            min_parallelism: 1,
            max_parallelism: 4,
            speedup: SpeedupModel::Linear,
            malleable: true,
            rate: 2.0,
            utility: TimeUtility::hard(1.0),
            last_scaled_at: 4.0,
        }
    }

    #[test]
    fn remaining_work_is_the_engine_expression_at_any_now() {
        let r = running_row();
        // now < last_update reads the reconciled value unchanged; at
        // last_update nothing has elapsed; 4.0 + 10/2 = 9.0 is the exact
        // drain point, past it the value clamps at 0.
        assert_eq!(r.remaining_work(2.0), 10.0, "before last_update");
        assert_eq!(r.remaining_work(4.0), 10.0);
        assert_eq!(r.remaining_work(9.0), 0.0, "drained");
        assert_eq!(r.remaining_work(6.5), 5.0);
        assert_eq!(r.remaining_work(9.5), 0.0, "clamped at zero");
        assert_eq!(r.remaining_work(1e6), 0.0, "clamped at zero");
    }

    #[test]
    fn scale_ready_is_the_engine_cooldown_test() {
        let r = running_row();
        let cooldown = 20.0;
        let ready_at = r.last_scaled_at + cooldown;
        // Exactly at the boundary ±1e-9: the tolerance accepts 1e-9 early
        // and refuses anything earlier.
        assert!(r.scale_ready(ready_at, true, cooldown));
        assert!(r.scale_ready(ready_at - 1e-9, true, cooldown));
        assert!(r.scale_ready(ready_at + 1e-9, true, cooldown));
        assert!(!r.scale_ready(ready_at - 1e-6, true, cooldown));
        // Scaling disabled: never ready, however long the job has waited.
        assert!(!r.scale_ready(1e9, false, cooldown));
        assert!(!r.scale_ready(1e9, false, 0.0));
        // No cooldown: ready at the very instant of the last re-scale.
        assert!(r.scale_ready(r.last_scaled_at, true, 0.0));
    }

    #[test]
    fn view_header_rules_drive_scale_ready() {
        let mut view = make_view();
        view.running.push(running_row());
        view.time = 10.0;
        view.allow_scaling = true;
        view.scale_cooldown = 5.0;
        assert!(view.scale_ready(&view.running[0]), "10 - 4 >= 5");
        view.scale_cooldown = 7.0;
        assert!(!view.scale_ready(&view.running[0]), "10 - 4 < 7");
        view.scale_cooldown = 0.0;
        view.allow_scaling = false;
        assert!(!view.scale_ready(&view.running[0]), "scaling disabled");
    }

    #[test]
    fn pending_work_total_folds_rows_in_order() {
        let mut view = make_view();
        let base = view.pending[0].clone();
        view.pending = [0.1, 0.2, 0.3, 1e16, -1e16]
            .iter()
            .map(|&w| PendingJobView {
                total_work: w,
                ..base.clone()
            })
            .collect();
        let expected = view.pending.iter().fold(0.0, |acc, j| acc + j.total_work);
        assert_eq!(view.pending_work_total().to_bits(), expected.to_bits());
        view.pending.clear();
        // Folded from +0.0: an empty queue totals +0.0.
        assert_eq!(view.pending_work_total().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn clamp_parallelism_honours_rigidity() {
        let j = make_view().pending[0].clone();
        assert_eq!(j.clamp_parallelism(0), 1);
        assert_eq!(j.clamp_parallelism(100), 6);
        let rigid = PendingJobView {
            min_parallelism: 2,
            max_parallelism: 6,
            malleable: false,
            ..j
        };
        assert_eq!(rigid.clamp_parallelism(5), 2);
        assert_eq!(rigid.clamp_parallelism(0), 2);
    }

    #[test]
    fn can_start_checks_range_and_capacity() {
        let view = make_view();
        let j = view.pending[0].clone();
        assert!(view.can_start(&j, NodeClassId(0), 1));
        assert!(view.can_start(&j, NodeClassId(0), 6));
        assert!(!view.can_start(&j, NodeClassId(0), 7)); // above job max
        let fat = PendingJobView {
            demand_per_unit: ResourceVector::of(5.0, 4.0, 0.0, 1.0),
            ..j
        };
        // node0 fits 0, node1 fits 1 -> max feasible 1
        assert_eq!(view.max_feasible_parallelism(&fat, NodeClassId(0)), Some(1));
        assert!(!view.can_start(&fat, NodeClassId(0), 2));
    }

    #[test]
    fn running_view_slack() {
        let r = running_row();
        // At now = 6.5 the job has 5 work left at rate 2: finish at 9.0.
        assert!((r.expected_finish(6.5) - 9.0).abs() < 1e-9);
        assert!((r.slack(6.5) - 11.0).abs() < 1e-9);
        // The estimate is the same whenever it is read: progress is affine.
        assert_eq!(r.expected_finish(4.0), r.expected_finish(6.5));
    }

    #[test]
    fn utilization_of_synthetic_view() {
        let view = make_view();
        let u = view.overall_utilization();
        assert!(u > 0.0 && u < 1.0);
        let cu = view.classes[0].utilization();
        assert!((cu - u).abs() < 1e-9); // single class
    }
}
