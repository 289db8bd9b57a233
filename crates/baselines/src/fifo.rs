//! Strict first-come-first-served scheduling.

use tcrm_sim::{Action, ClusterView, Scheduler};

/// FCFS without backfilling: jobs start in arrival order at their minimum
/// parallelism on the fastest class that fits; if the head of the queue does
/// not fit anywhere, everything behind it waits.
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Create a FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "fifo"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let mut actions = Vec::new();
        // Pending jobs are already in arrival order.
        for job in &view.pending {
            match view.best_class_for(job) {
                Some(class) => actions.push(Action::Start {
                    job: job.id,
                    class,
                    parallelism: job.min_parallelism,
                }),
                // Head-of-line blocking: stop at the first job that cannot be
                // placed.
                None => break,
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures::{job, run};

    #[test]
    fn completes_all_jobs_in_arrival_order() {
        let jobs = vec![
            job(0, 0.0, 10.0, 1000.0),
            job(1, 1.0, 10.0, 1000.0),
            job(2, 2.0, 10.0, 1000.0),
        ];
        let result = run(&mut FifoScheduler::new(), jobs);
        assert_eq!(result.summary.completed_jobs, 3);
        // Start times follow arrival order.
        let mut by_id = result.completed.clone();
        by_id.sort_by_key(|j| j.id);
        assert!(by_id[0].start <= by_id[1].start + 1e-9);
        assert!(by_id[1].start <= by_id[2].start + 1e-9);
    }

    #[test]
    fn ignores_deadlines_entirely() {
        // A long job arrives first, a tight-deadline job second; FIFO serves
        // the long one first even though that misses the second's deadline
        // when capacity is scarce.
        let mut long = job(0, 0.0, 200.0, 10_000.0);
        long.demand_per_unit = tcrm_sim::ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        long.min_parallelism = 1;
        long.max_parallelism = 1;
        let tight = job(1, 1.0, 5.0, 20.0);
        let result = run(&mut FifoScheduler::new(), vec![long, tight]);
        assert_eq!(result.summary.completed_jobs, 2);
    }
}
