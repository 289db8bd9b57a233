//! Shared helpers for the heuristic schedulers, plus the simulation fixtures
//! their tests run against.

use tcrm_sim::{Action, ClusterView, NodeClassId, PendingJobView, StartMemo};

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
    Some(deadline_parallelism_up_to(job, view, class, max_feasible))
}

/// [`deadline_parallelism`] given the job's largest feasible parallelism
/// on `class`.
fn deadline_parallelism_up_to(
    job: &PendingJobView,
    view: &ClusterView,
    class: NodeClassId,
    max_feasible: u32,
) -> u32 {
    let class_view = view.class(class);
    (job.min_parallelism..=max_feasible)
        .find(|&p| job.slack_on(view.time, class_view, p) >= 0.0)
        .unwrap_or(max_feasible)
}

/// All classes able to host at least the minimum parallelism of the job.
pub fn feasible_classes(job: &PendingJobView, view: &ClusterView) -> Vec<NodeClassId> {
    view.classes
        .iter()
        .filter(|c| view.can_start(job, c.id, job.min_parallelism))
        .map(|c| c.id)
        .collect()
}

/// The start pass of the EDF family: every pending job that fits some
/// class gets a `Start` on its fastest such class at
/// [`deadline_parallelism`], in `(deadline, id)` order, found through the
/// scheduler's [`StartMemo`].
pub fn push_deadline_starts(memo: &mut StartMemo, view: &ClusterView, actions: &mut Vec<Action>) {
    memo.for_each_startable(view, |job, class, max_feasible| {
        actions.push(Action::Start {
            job: job.id,
            class,
            parallelism: deadline_parallelism_up_to(job, view, class, max_feasible),
        });
    });
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
        assert_eq!(view.best_class_for(&j), Some(NodeClassId(1)));
    }

    #[test]
    fn best_class_skips_classes_that_cannot_fit() {
        let view = view_with_one_job();
        let mut j = view.pending[0].clone();
        // Demand more memory than the fast class offers per node (8 GiB).
        j.demand_per_unit = ResourceVector::of(2.0, 16.0, 0.0, 0.5);
        assert_eq!(view.best_class_for(&j), Some(NodeClassId(0)));
        // Demand nothing can fit.
        j.demand_per_unit = ResourceVector::of(64.0, 1.0, 0.0, 0.0);
        assert_eq!(view.best_class_for(&j), None);
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
