//! Earliest-deadline-first scheduling with deadline-aware parallelism.

use crate::util;
use tcrm_sim::{Action, ClusterView, Scheduler, StartMemo};

/// Classic EDF adapted to elastic jobs: the queue is ordered by absolute
/// deadline and each job starts on its fastest feasible class with the
/// *smallest* parallelism that still meets its deadline (falling back to the
/// largest feasible parallelism when the deadline is already hopeless). This
/// is the strongest deadline-aware heuristic in the comparison and the main
/// non-learning contender of the DRL agent.
#[derive(Debug, Clone, Default)]
pub struct EdfScheduler {
    memo: StartMemo,
}

impl EdfScheduler {
    /// Create an EDF scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The start pass's memo (its work counters).
    pub fn start_memo(&self) -> &StartMemo {
        &self.memo
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> &str {
        "edf"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let mut actions = Vec::new();
        util::push_deadline_starts(&mut self.memo, view, &mut actions);
        actions
    }

    fn on_simulation_start(&mut self) {
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoScheduler;
    use crate::util::fixtures::{job, run};

    #[test]
    fn urgent_jobs_jump_the_queue() {
        // Two saturating jobs: the later-arriving one has the earlier
        // deadline and must start first under EDF.
        let mut relaxed = job(0, 0.0, 30.0, 10_000.0);
        relaxed.demand_per_unit = tcrm_sim::ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        relaxed.max_parallelism = 1;
        let mut urgent = job(1, 0.0, 30.0, 40.0);
        urgent.demand_per_unit = tcrm_sim::ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        urgent.max_parallelism = 1;
        let result = run(&mut EdfScheduler::new(), vec![relaxed, urgent]);
        let mut by_id = result.completed.clone();
        by_id.sort_by_key(|j| j.id);
        assert!(by_id[1].start <= by_id[0].start);
    }

    #[test]
    fn scales_parallelism_up_for_tight_deadlines() {
        // 40 units of work with a deadline 15 seconds away needs parallelism
        // >= 3 on the generic (speed-1) class; EDF should request it.
        let tight = job(0, 0.0, 40.0, 15.0);
        let result = run(&mut EdfScheduler::new(), vec![tight]);
        assert_eq!(result.summary.completed_jobs, 1);
        assert_eq!(
            result.summary.missed_jobs, 0,
            "EDF should meet the deadline"
        );
        assert!(result.completed[0].avg_parallelism >= 2.0);
    }

    #[test]
    fn beats_fifo_on_deadline_heavy_workloads() {
        // A stream of jobs whose deadlines interleave badly with arrival
        // order: EDF should miss no more deadlines than FIFO.
        let make = || {
            let mut jobs = Vec::new();
            for i in 0..10u64 {
                // Alternate tight and loose deadlines.
                let arrival = i as f64 * 4.0;
                let (work, deadline) = if i % 2 == 0 {
                    (30.0, arrival + 25.0)
                } else {
                    (10.0, arrival + 300.0)
                };
                jobs.push(job(i, arrival, work, deadline));
            }
            jobs
        };
        let edf = run(&mut EdfScheduler::new(), make());
        let fifo = run(&mut FifoScheduler::new(), make());
        assert!(
            edf.summary.miss_rate <= fifo.summary.miss_rate + 1e-9,
            "EDF ({}) should not miss more than FIFO ({})",
            edf.summary.miss_rate,
            fifo.summary.miss_rate
        );
    }
}
