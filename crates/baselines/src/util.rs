//! Shared helpers for the heuristic schedulers, plus the simulation fixtures
//! their tests run against.

use std::cmp::Ordering;
use tcrm_sim::{Action, ClusterView, JobId, NodeClassId, PendingJobView};

/// The node class on which `job` would execute fastest among the classes that
/// can currently host at least its minimum parallelism. Ties break toward the
/// lower class id so behaviour is deterministic.
pub fn best_class_for(job: &PendingJobView, view: &ClusterView) -> Option<NodeClassId> {
    let mut best: Option<(NodeClassId, f64)> = None;
    for class in &view.classes {
        if !view.can_start(job, class.id, job.min_parallelism) {
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

/// The class with the lowest current utilisation that can host the job's
/// minimum parallelism.
pub fn least_loaded_class_for(job: &PendingJobView, view: &ClusterView) -> Option<NodeClassId> {
    let mut best: Option<(NodeClassId, f64)> = None;
    for class in &view.classes {
        if !view.can_start(job, class.id, job.min_parallelism) {
            continue;
        }
        let util = class.utilization();
        match best {
            Some((_, u)) if u <= util => {}
            _ => best = Some((class.id, util)),
        }
    }
    best.map(|(id, _)| id)
}

/// The smallest degree of parallelism (within the job's range and the class's
/// current free capacity) that still meets the deadline if the job starts
/// now; falls back to the largest feasible parallelism when the deadline can
/// no longer be met (run as fast as possible to minimise the overrun).
pub fn deadline_parallelism(
    job: &PendingJobView,
    view: &ClusterView,
    class: NodeClassId,
) -> Option<u32> {
    let max_feasible = view.max_feasible_parallelism(job, class)?;
    let class_view = view.class(class);
    let meets = (job.min_parallelism..=max_feasible)
        .find(|&p| job.slack_on(view.time, class_view, p) >= 0.0);
    Some(meets.unwrap_or(max_feasible))
}

/// All classes able to host at least the minimum parallelism of the job.
pub fn feasible_classes(job: &PendingJobView, view: &ClusterView) -> Vec<NodeClassId> {
    view.classes
        .iter()
        .filter(|c| view.can_start(job, c.id, job.min_parallelism))
        .map(|c| c.id)
        .collect()
}

/// The start pass of the EDF family, memoized across calls: every pending
/// job that fits some class gets a `Start` on its [`best_class_for`] class
/// at [`deadline_parallelism`], in `(deadline, id)` order.
///
/// The memo remembers which jobs its last scan found startable, the newest
/// [`PendingJobView::arrival_seq`] it saw and the view's log position. A
/// later view of the same [`ClusterView::feasibility_gen`] and a log
/// position no older than the memo's (see the generation rules there)
/// needs less than a full scan, because [`best_class_for`] is monotone in
/// free capacity:
///
/// * if no class was released since ([`ClusterView::released_at`]), every
///   node has only lost capacity: only the remembered startable jobs plus
///   the new arrivals (the suffix of [`ClusterView::pending`] past the
///   remembered sequence number) are evaluated;
/// * otherwise one pass in `(deadline, id)` order evaluates those same
///   jobs, and every other job only if a `can_start` at its minimum
///   parallelism succeeds on one of the released classes: the other
///   classes have only lost capacity, so it still fits none of them.
///
/// Any other view gets the full scan. The actions are identical either
/// way.
#[derive(Debug, Clone, Default)]
pub struct StartMemo {
    /// Generation of the last scan (0: nothing to reuse).
    gen: u64,
    log_pos: usize,
    /// Arrival sequence number of the last pending row the last scan saw
    /// (0: none): later rows are new arrivals.
    seen_seq: u64,
    /// `(deadline, id)` keys the last scan found startable, in that order.
    startable: Vec<(f64, JobId)>,
    /// Reused buffer: the keys a memo scan evaluates.
    candidates: Vec<(f64, JobId)>,
    /// Reused buffer: the classes released since the last scan.
    released: Vec<NodeClassId>,
    full_rows: u64,
    memo_rows: u64,
    release_rows: u64,
    can_start_calls: u64,
}

impl StartMemo {
    /// Forget the memo and zero the counters (at simulation start).
    pub fn clear(&mut self) {
        self.gen = 0;
        self.startable.clear();
        self.full_rows = 0;
        self.memo_rows = 0;
        self.release_rows = 0;
        self.can_start_calls = 0;
    }

    /// Pending rows evaluated by full scans since the last [`Self::clear`].
    pub fn full_rows(&self) -> u64 {
        self.full_rows
    }

    /// Pending rows evaluated by memo scans since the last [`Self::clear`].
    pub fn memo_rows(&self) -> u64 {
        self.memo_rows
    }

    /// Pending rows visited by release passes since the last
    /// [`Self::clear`].
    pub fn release_rows(&self) -> u64 {
        self.release_rows
    }

    /// [`ClusterView::can_start`] calls made by all three kinds of scan
    /// since the last [`Self::clear`].
    pub fn can_start_calls(&self) -> u64 {
        self.can_start_calls
    }

    /// Append the start pass's actions for `view` to `actions`.
    pub fn push_starts(&mut self, view: &ClusterView, actions: &mut Vec<Action>) {
        let reuse = self.gen != 0
            && view.feasibility_gen == self.gen
            && view.log_position() >= self.log_pos;
        // The last scan's keys become the candidates; `startable` collects
        // this scan's (the two buffers trade places every call).
        std::mem::swap(&mut self.startable, &mut self.candidates);
        self.startable.clear();
        if reuse {
            let log_pos = self.log_pos;
            self.released.clear();
            self.released.extend(
                (view.released_at.iter().enumerate())
                    .filter(|&(_, &at)| at > log_pos)
                    .map(|(class, _)| NodeClassId(class)),
            );
            let candidates = std::mem::take(&mut self.candidates);
            if self.released.is_empty() {
                self.memo_scan(candidates, view, actions);
            } else {
                self.release_scan(candidates, view, actions);
            }
        } else {
            for job in view.pending_in_deadline_order() {
                self.full_rows += 1;
                self.evaluate(job, view, actions);
            }
        }
        self.gen = view.feasibility_gen;
        self.log_pos = view.log_position();
        self.seen_seq = view.pending.last().map_or(0, |job| job.arrival_seq);
    }

    /// The pending rows that arrived after the last scan: a suffix of the
    /// arrival order.
    fn new_arrivals<'v>(&self, view: &'v ClusterView) -> &'v [PendingJobView] {
        let first = view
            .pending
            .partition_point(|job| job.arrival_seq <= self.seen_seq);
        &view.pending[first..]
    }

    /// No capacity was released: evaluate the last scan's startable keys
    /// plus the new arrivals (disjoint), back in `(deadline, id)` order.
    fn memo_scan(
        &mut self,
        mut candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        actions: &mut Vec<Action>,
    ) {
        let new = self.new_arrivals(view);
        candidates.extend(new.iter().map(|job| (job.deadline, job.id)));
        candidates.sort_unstable_by(key_order);
        let mut from = 0;
        for &(deadline, id) in &candidates {
            from = view.deadline_position(from, deadline, id);
            let Some(&slot) = view.pending_by_deadline.get(from) else {
                break;
            };
            let job = &view.pending[slot as usize];
            if job.id == id {
                self.memo_rows += 1;
                self.evaluate(job, view, actions);
                from += 1;
            }
        }
        self.candidates = candidates;
    }

    /// Capacity was released on the classes in `self.released`: one pass
    /// over the queue, evaluating the last scan's startable keys
    /// (`candidates`, sorted), the new arrivals and the rows that now fit
    /// a released class.
    fn release_scan(
        &mut self,
        candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        actions: &mut Vec<Action>,
    ) {
        let mut next = candidates.iter().peekable();
        for job in view.pending_in_deadline_order() {
            self.release_rows += 1;
            let key = (job.deadline, job.id);
            while next
                .next_if(|&c| key_order(c, &key) == Ordering::Less)
                .is_some()
            {}
            let startable = next.next_if(|&c| c.1 == job.id).is_some();
            if startable || job.arrival_seq > self.seen_seq || self.fits_a_released_class(job, view)
            {
                self.evaluate(job, view, actions);
            }
        }
        self.candidates = candidates;
    }

    fn fits_a_released_class(&mut self, job: &PendingJobView, view: &ClusterView) -> bool {
        for &class in &self.released {
            self.can_start_calls += 1;
            if view.can_start(job, class, job.min_parallelism) {
                return true;
            }
        }
        false
    }

    fn evaluate(&mut self, job: &PendingJobView, view: &ClusterView, actions: &mut Vec<Action>) {
        // `best_class_for` asks `can_start` once per class.
        self.can_start_calls += view.classes.len() as u64;
        let Some(class) = best_class_for(job, view) else {
            return;
        };
        self.startable.push((job.deadline, job.id));
        if let Some(parallelism) = deadline_parallelism(job, view, class) {
            actions.push(Action::Start {
                job: job.id,
                class,
                parallelism,
            });
        }
    }
}

/// The `(deadline, id)` order of [`ClusterView::pending_by_deadline`].
fn key_order(a: &(f64, JobId), b: &(f64, JobId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Test fixtures shared by the scheduler unit tests in this crate.
#[cfg(test)]
pub mod fixtures {
    use tcrm_sim::prelude::*;

    /// A small heterogeneous cluster: one generic class and one "fast" class
    /// that doubles batch speed but has little memory.
    pub fn small_hetero_spec() -> ClusterSpec {
        use tcrm_sim::node::SpeedProfile;
        ClusterSpec::new(vec![
            tcrm_sim::NodeClassSpec::new(
                "generic",
                2,
                ResourceVector::of(8.0, 32.0, 0.0, 10.0),
                SpeedProfile::uniform(1.0),
            ),
            tcrm_sim::NodeClassSpec::new(
                "fast-small",
                1,
                ResourceVector::of(8.0, 8.0, 0.0, 10.0),
                SpeedProfile::uniform(2.0),
            ),
        ])
    }

    /// A deadline-tight elastic job.
    pub fn job(id: u64, arrival: f64, work: f64, deadline: f64) -> Job {
        Job::builder(JobId(id), JobClass::Batch)
            .arrival(arrival)
            .total_work(work)
            .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 0.5))
            .parallelism_range(1, 4)
            .speedup(SpeedupModel::Linear)
            .deadline(deadline)
            .utility(TimeUtility::hard(1.0))
            .build()
    }

    /// Run a scheduler over a job list on the small heterogeneous cluster.
    pub fn run(scheduler: &mut dyn Scheduler, jobs: Vec<Job>) -> tcrm_sim::SimulationResult {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = Some(2.0);
        Simulator::new(small_hetero_spec(), cfg).run(jobs, scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use tcrm_sim::prelude::*;

    fn view_with_one_job() -> ClusterView {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = None;
        let mut sim = Simulator::new(small_hetero_spec(), cfg);
        sim.start(vec![job(0, 0.0, 20.0, 25.0)]);
        assert!(sim.advance());
        sim.view()
    }

    #[test]
    fn best_class_prefers_faster_class() {
        let view = view_with_one_job();
        let j = view.pending[0].clone();
        // The fast-small class doubles batch speed and fits one unit.
        assert_eq!(best_class_for(&j, &view), Some(NodeClassId(1)));
    }

    #[test]
    fn best_class_skips_classes_that_cannot_fit() {
        let view = view_with_one_job();
        let mut j = view.pending[0].clone();
        // Demand more memory than the fast class offers per node (8 GiB).
        j.demand_per_unit = ResourceVector::of(2.0, 16.0, 0.0, 0.5);
        assert_eq!(best_class_for(&j, &view), Some(NodeClassId(0)));
        // Demand nothing can fit.
        j.demand_per_unit = ResourceVector::of(64.0, 1.0, 0.0, 0.0);
        assert_eq!(best_class_for(&j, &view), None);
        assert!(feasible_classes(&j, &view).is_empty());
    }

    #[test]
    fn deadline_parallelism_picks_cheapest_meeting_deadline() {
        let view = view_with_one_job();
        let j = view.pending[0].clone();
        // On the generic class (speed 1): 20 work, deadline in 25s -> p=1 OK.
        assert_eq!(deadline_parallelism(&j, &view, NodeClassId(0)), Some(1));
        // Tighten the deadline so only p>=2 meets it on the generic class.
        let mut tight = j.clone();
        tight.deadline = view.time + 12.0;
        assert_eq!(deadline_parallelism(&tight, &view, NodeClassId(0)), Some(2));
        // Impossible deadline falls back to the maximum feasible parallelism.
        let mut hopeless = j;
        hopeless.deadline = view.time + 1.0;
        assert_eq!(
            deadline_parallelism(&hopeless, &view, NodeClassId(0)),
            Some(4)
        );
    }

    #[test]
    fn least_loaded_prefers_idle_class() {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = None;
        let mut sim = Simulator::new(small_hetero_spec(), cfg);
        sim.start(vec![job(0, 0.0, 50.0, 500.0), job(1, 1.0, 20.0, 500.0)]);
        assert!(sim.advance());
        // Occupy part of the generic class.
        let v = sim.view();
        let first = v.pending[0].clone();
        sim.apply(&Action::Start {
            job: first.id,
            class: NodeClassId(0),
            parallelism: 4,
        });
        assert!(sim.advance());
        let view = sim.view();
        let j = view.pending[0].clone();
        assert_eq!(least_loaded_class_for(&j, &view), Some(NodeClassId(1)));
    }
}
