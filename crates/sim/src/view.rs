//! Scheduler-facing snapshot of the simulation state.
//!
//! A [`ClusterView`] is built by the engine at every decision epoch. It owns
//! its data (no borrows into the engine) so policies can keep it around, ship
//! it to an RL replay buffer, or serialise it for debugging.

use crate::config::ClusterSpec;
use crate::fit_index::{rank_floor, FitIndex};
use crate::job::{Job, JobClass, JobId, SpeedupModel};
use crate::node::NodeClassId;
use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-node-class aggregate information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// fit-index bucket ranks, taken straight from the spec so view-side
    /// ranks are bit-identical to the cluster's. Defaults to zero on
    /// legacy-deserialized views (every node then ties at the top rank).
    #[serde(default)]
    pub unit_capacity: ResourceVector,
    /// Bucketed free-capacity index over [`Self::node_free`] (same structure
    /// the cluster maintains), kept current by [`Self::set_node_free`] /
    /// [`Self::rebuild_fit_index`]. A pure function of `node_free`, so the
    /// derived `PartialEq` stays a pure state comparison. Counting queries
    /// walk it emptiest-first to reach their cap after the fewest nodes;
    /// when it is absent (fabricated or legacy-deserialized views) they
    /// lawfully fall back to the plain slice walk.
    #[serde(default)]
    pub fit_index: FitIndex,
    /// Speed factor per job class ([`JobClass::ALL`] order).
    pub speed_factors: [f64; JobClass::COUNT],
}

impl NodeClassView {
    /// How many units of `per_unit` demand can still be placed on this class,
    /// respecting per-node fragmentation. Saturating — at 64k nodes the raw
    /// per-node sum can exceed `u32::MAX`.
    ///
    /// The saturating sum is order-independent, so it walks only the fit
    /// index's buckets at or above the demand's [`rank_floor`] when the
    /// index is present, and the plain slice otherwise.
    pub fn units_available(&self, per_unit: &ResourceVector) -> u32 {
        if per_unit.total() <= 0.0 {
            return u32::MAX;
        }
        let fits = |free: &ResourceVector| unit_fit(free, per_unit);
        if self.fit_index_valid() {
            let floor = rank_floor(per_unit, &self.unit_capacity);
            self.fit_index
                .nodes_desc_from(floor)
                .map(|idx| fits(&self.node_free[idx]))
                .fold(0, u32::saturating_add)
        } else {
            self.node_free.iter().map(fits).fold(0, u32::saturating_add)
        }
    }

    /// True when the fit index covers every node of the class (always for
    /// engine-built views; false for fabricated or legacy-deserialized ones,
    /// which fall back to the plain walk).
    #[inline]
    fn fit_index_valid(&self) -> bool {
        self.fit_index.len() == self.node_free.len()
    }

    /// Rebuild [`Self::fit_index`] from the current [`Self::node_free`] rows
    /// (the engine calls this after a full view rebuild; incremental refills
    /// go through [`Self::set_node_free`]).
    pub fn rebuild_fit_index(&mut self) {
        let cap = self.unit_capacity;
        self.fit_index.rebuild(&cap, self.node_free.iter().copied());
    }

    /// Update one node's free vector, keeping the fit index in step (the
    /// incremental-view `NodeFree` delta lands here).
    pub fn set_node_free(&mut self, index: usize, free: ResourceVector) {
        let valid = self.fit_index_valid();
        self.node_free[index] = free;
        if valid {
            self.fit_index.update(index, &free, &self.unit_capacity);
        }
    }

    /// Upper bound on placeable units from the class-level free-capacity
    /// aggregate, ignoring fragmentation. Never below the true per-node
    /// answer, and O(resource dims) instead of O(nodes) — the fast
    /// infeasibility screen for saturated classes.
    #[inline]
    pub fn aggregate_unit_bound(&self, per_unit: &ResourceVector) -> u32 {
        unit_fit(&self.free_capacity, per_unit)
    }

    /// [`Self::units_available`], stopping as soon as `cap` units are
    /// proven placeable: returns `min(units_available, cap)`.
    ///
    /// Feasibility queries never need more than the requested parallelism,
    /// so the hot scheduler paths answer with (a) the O(dims) aggregate
    /// screen — which alone rejects requests on saturated classes, the
    /// common case under load — and (b) a walk over the fit index in
    /// emptiest-first order that exits as soon as the target is reached
    /// (after the *fewest possible* machines, because the emptiest nodes
    /// contribute the most units) and never descends below the demand's
    /// [`rank_floor`]. A query the class cannot satisfy therefore visits
    /// every node in the buckets at or above the floor — all of the class
    /// when the floor is 0 (some capacity dimension undemanded) — but not
    /// the nearly-full nodes beneath it. The sum is
    /// iteration-order-independent, so the plain-slice fallback for views
    /// without an index returns the identical answer.
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
        if self.fit_index_valid() {
            let floor = rank_floor(per_unit, &self.unit_capacity);
            for idx in self.fit_index.nodes_desc_from(floor) {
                total = total.saturating_add(unit_fit(&self.node_free[idx], per_unit));
                if total >= cap {
                    return cap;
                }
            }
        } else {
            for free in &self.node_free {
                total = total.saturating_add(unit_fit(free, per_unit));
                if total >= cap {
                    return cap;
                }
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

/// Whole units of `per_unit` demand fitting into `free` capacity (0 when
/// no dimension carries positive demand — callers screen zero-demand
/// requests first). Tracks demand presence with a flag rather than a
/// `u32::MAX` sentinel: the saturating float→u32 cast legitimately
/// produces `u32::MAX` on huge aggregates (e.g. 64k nodes × megabyte-scale
/// capacity against a unit demand), which a sentinel would misread as 0.
#[inline]
fn unit_fit(free: &ResourceVector, per_unit: &ResourceVector) -> u32 {
    let mut fit = u32::MAX;
    let mut any_demand = false;
    for i in 0..crate::resources::NUM_RESOURCES {
        let d = per_unit.0[i];
        if d > 0.0 {
            any_demand = true;
            fit = fit.min(((free.0[i] + 1e-9) / d).floor().max(0.0) as u32);
        }
    }
    if any_demand {
        fit
    } else {
        0
    }
}

/// A job waiting in the queue, as seen by the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Utility earned when meeting the deadline.
    pub utility_value: f64,
    /// Arrival sequence number, engine-assigned: it increases strictly
    /// along [`ClusterView::pending`] and is never reused within a run, so
    /// the rows that arrived after a given one are a suffix of the queue.
    /// 0 on fabricated or deserialized rows.
    #[serde(skip)]
    pub arrival_seq: u64,
}

impl PendingJobView {
    fn from_job(job: &Job) -> Self {
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
            utility_value: job.utility.value,
            arrival_seq: 0,
        }
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

    /// The smallest parallelism (within the job's range) whose slack on
    /// `class` is non-negative, or `None` if even the maximum parallelism
    /// misses the deadline.
    pub fn min_parallelism_meeting_deadline(&self, now: f64, class: &NodeClassView) -> Option<u32> {
        (self.min_parallelism..=self.max_parallelism).find(|&p| self.slack_on(now, class, p) >= 0.0)
    }
}

/// A running job, as seen by the scheduler.
///
/// Rows are **time-affine**: they hold the engine's reconciled progress
/// (remaining work as of [`Self::last_update`], the constant `rate` since
/// then, the cooldown anchor) instead of values at "now", and the
/// time-dependent quantities are methods taking the `now` to read them at.
/// Between its start and completion a row changes only when the job is
/// re-scaled, so a refill where only time moved rewrites no row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Utility earned when meeting the deadline.
    pub utility_value: f64,
    /// Time of the job's start or most recent re-scale — the anchor of the
    /// reconfiguration cooldown read by [`Self::scale_ready`].
    pub last_scaled_at: f64,
}

impl RunningJobView {
    /// Remaining work at `now`: the reconciled value minus the progress made
    /// at the constant rate since [`Self::last_update`], clamped at zero —
    /// the expression the engine folds in when it reconciles the job, so
    /// the value is bit-identical to the simulator's own at `now`.
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
    /// enabled and the reconfiguration cooldown elapsed, with the engine's
    /// 1e-9 tolerance.
    pub fn scale_ready(&self, now: f64, allow_scaling: bool, scale_cooldown: f64) -> bool {
        allow_scaling && now - self.last_scaled_at >= scale_cooldown - 1e-9
    }

    /// Expected finish time when the job keeps its current rate from `now`.
    pub fn expected_finish(&self, now: f64) -> f64 {
        now + self.remaining_work(now) / self.rate.max(1e-9)
    }

    /// Slack at `now` at the current rate (negative means the deadline will
    /// be missed without scaling up).
    pub fn slack(&self, now: f64) -> f64 {
        self.deadline - self.expected_finish(now)
    }
}

/// Synchronisation cookie of the incremental view maintenance protocol.
///
/// A [`ClusterView`] refilled by [`crate::engine::Simulator::view_into`]
/// remembers which simulator instance, run and change-log position it
/// mirrors; a matching cookie lets the next refill apply only the deltas
/// recorded since, anything else falls back to a full rebuild. The cookie is
/// engine-owned state: it never serialises and a fabricated or deserialized
/// view starts unsynced (cookie zeroed), which is always safe — the first
/// refill rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ViewSync {
    /// Identity of the simulator the view last mirrored (0 = never synced).
    pub sim_id: u64,
    /// The simulator's run epoch (bumped on every reset) at last refill.
    pub run_epoch: u64,
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterView {
    /// Current simulated time.
    pub time: f64,
    /// Cluster specification (shared, cheap to clone).
    pub spec: Arc<ClusterSpec>,
    /// Per node class aggregates, indexed by `NodeClassId`.
    pub classes: Vec<NodeClassView>,
    /// Pending jobs in arrival order.
    pub pending: Vec<PendingJobView>,
    /// Running jobs in start order.
    pub running: Vec<RunningJobView>,
    /// Number of jobs that have not yet arrived.
    pub future_arrivals: usize,
    /// Indices into [`Self::pending`] ordered by `(deadline, id)` — the
    /// engine-maintained deadline index. EDF-family schedulers iterate
    /// [`Self::pending_in_deadline_order`] and the DRL queue slots are its
    /// first rows, instead of re-sorting the queue at every decision.
    #[serde(default)]
    pub pending_by_deadline: Vec<u32>,
    /// Whether the engine accepts re-scaling at all (its
    /// `SimConfig::allow_scaling`); read by [`Self::scale_ready`].
    #[serde(default)]
    pub allow_scaling: bool,
    /// Minimum time between two re-scalings of one job (its
    /// `SimConfig::scale_cooldown`); read by [`Self::scale_ready`].
    #[serde(default)]
    pub scale_cooldown: f64,
    /// Feasibility generation: a process-unique id the engine stamps on
    /// every refill, 0 on fabricated or deserialized views. It changes when
    /// the pending queue changes other than by arrivals and starts — a job
    /// is cancelled or degraded — and when the simulator resets or starts.
    /// Arrivals, periodic epochs, starts and re-scalings keep it, and so do
    /// completions: a capacity release is recorded per class in
    /// [`Self::released_at`] instead. Within one generation pending rows
    /// only arrive (with a higher [`PendingJobView::arrival_seq`] than any
    /// row before them) or leave, and a node's free capacity grows only
    /// through a release. So between two views of the same generation, the
    /// later one by [`Self::log_position`], a job that fit no class in the
    /// earlier one can fit in the later one only if it arrived since or on
    /// a class whose `released_at` lies after the earlier view's log
    /// position. 0 means: assume nothing.
    #[serde(skip)]
    pub feasibility_gen: u64,
    /// Release stamps, indexed by `NodeClassId`: the change-log position
    /// just after the latest completion or scale-down that freed capacity
    /// on the class, 0 if none since the simulator started or reset
    /// (engine-maintained; empty on fabricated or deserialized views).
    #[serde(skip)]
    pub released_at: Vec<usize>,
    /// Incremental-refill cookie (engine-owned, never serialised).
    #[serde(skip)]
    pub(crate) sync: ViewSync,
}

impl ClusterView {
    /// Build a view (used by the engine; exposed for tests of downstream
    /// schedulers that want to fabricate synthetic views). The deadline
    /// index is derived from `pending`; a fabricated view allows scaling
    /// with no cooldown (the engine overwrites both from its config).
    pub fn new(
        time: f64,
        spec: Arc<ClusterSpec>,
        classes: Vec<NodeClassView>,
        pending: Vec<PendingJobView>,
        running: Vec<RunningJobView>,
        future_arrivals: usize,
    ) -> Self {
        let pending_by_deadline = Self::sorted_deadline_index(&pending);
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
            feasibility_gen: 0,
            released_at: Vec::new(),
            sync: ViewSync::default(),
        }
    }

    /// Compute the `(deadline, id)`-sorted index over a pending-row slice
    /// from scratch (the full-rebuild reference for the engine-maintained
    /// index).
    pub fn sorted_deadline_index(pending: &[PendingJobView]) -> Vec<u32> {
        let mut index = Vec::new();
        Self::fill_sorted_deadline_index(pending, &mut index);
        index
    }

    /// [`Self::sorted_deadline_index`] into a caller-retained buffer
    /// (allocation-free once `out` has capacity; `sort_unstable` sorts in
    /// place).
    pub fn fill_sorted_deadline_index(pending: &[PendingJobView], out: &mut Vec<u32>) {
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
    pub fn deadline_position(&self, from: usize, deadline: f64, id: JobId) -> usize {
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

    /// Change-log position of the simulator state this view mirrors
    /// (0 on fabricated or deserialized views). Within one
    /// [`Self::feasibility_gen`], a larger position is a later state, and
    /// [`Self::released_at`] stamps are positions on the same scale.
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

    /// Build the pending-job view (helper for the engine and for synthetic
    /// views in tests).
    pub fn pending_view_of(job: &Job) -> PendingJobView {
        PendingJobView::from_job(job)
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
            vec![ClusterView::pending_view_of(&job)],
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

    #[test]
    fn indexed_and_plain_counting_agree() {
        // A view without a fit index (fabricated/legacy) must count exactly
        // like the indexed one — the sum is iteration-order-independent.
        let view = make_view();
        let indexed = &view.classes[0];
        let mut plain = indexed.clone();
        plain.fit_index = FitIndex::default();
        for per_unit in [
            ResourceVector::of(3.0, 4.0, 0.0, 1.0),
            ResourceVector::of(1.0, 2.0, 0.0, 0.5),
            ResourceVector::of(100.0, 1.0, 0.0, 0.0),
        ] {
            assert_eq!(
                indexed.units_available(&per_unit),
                plain.units_available(&per_unit)
            );
            for cap in 0..12u32 {
                assert_eq!(
                    indexed.units_available_capped(&per_unit, cap),
                    plain.units_available_capped(&per_unit, cap),
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
        view.pending_by_deadline = ClusterView::sorted_deadline_index(&view.pending);
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
        assert_eq!(
            j.min_parallelism_meeting_deadline(10.0, &view.classes[0]),
            Some(1)
        );
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
            utility_value: 1.0,
            last_scaled_at: 4.0,
        }
    }

    /// The engine's remaining-work expression over reconciled state
    /// (`RunningJob::reconcile` folds exactly this span in).
    fn engine_remaining(r: &RunningJobView, now: f64) -> f64 {
        if now > r.last_update {
            (r.remaining_at_update - (now - r.last_update) * r.rate).max(0.0)
        } else {
            r.remaining_at_update
        }
    }

    /// The engine's acceptance test for a re-scale's cooldown
    /// (`apply_scale` rejects when this is false).
    fn engine_scale_ready(r: &RunningJobView, now: f64, allow: bool, cooldown: f64) -> bool {
        allow && !(now - r.last_scaled_at < cooldown - 1e-9)
    }

    #[test]
    fn remaining_work_is_the_engine_expression_at_any_now() {
        let r = running_row();
        // now < last_update reads the reconciled value unchanged; at
        // last_update nothing has elapsed; 4.0 + 10/2 = 9.0 is the exact
        // drain point, past it the value clamps at 0.
        for now in [0.0, 3.999, 4.0, 4.0 + 1e-12, 6.5, 9.0 - 1e-9, 9.0, 9.5, 1e6] {
            assert_eq!(
                r.remaining_work(now).to_bits(),
                engine_remaining(&r, now).to_bits(),
                "now {now}"
            );
        }
        assert_eq!(r.remaining_work(2.0), 10.0, "before last_update");
        assert_eq!(r.remaining_work(6.5), 5.0);
        assert_eq!(r.remaining_work(9.5), 0.0, "clamped at zero");
        assert_eq!(r.remaining_work(1e6), 0.0, "clamped at zero");
    }

    #[test]
    fn scale_ready_is_the_engine_cooldown_test() {
        let r = running_row();
        let cooldown = 20.0;
        let ready_at = r.last_scaled_at + cooldown;
        for now in [
            0.0,
            r.last_scaled_at,
            ready_at - 1e-9 - 1e-9,
            ready_at - 1e-9,
            ready_at - 0.5e-9,
            ready_at,
            ready_at + 1e-9,
            1e6,
        ] {
            for allow in [true, false] {
                assert_eq!(
                    r.scale_ready(now, allow, cooldown),
                    engine_scale_ready(&r, now, allow, cooldown),
                    "now {now} allow {allow}"
                );
            }
        }
        // Exactly at the boundary ±1e-9: the engine's tolerance accepts
        // 1e-9 early and refuses anything earlier.
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
