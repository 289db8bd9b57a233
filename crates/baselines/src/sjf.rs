//! Shortest-job-first scheduling.

use tcrm_sim::{Action, ClusterView, Scheduler};

/// Orders the queue by best-case service time (the job's work divided by the
/// best speed it could get anywhere at its maximum parallelism) and starts as
/// many jobs as fit, each at its minimum parallelism on its fastest feasible
/// class. Small jobs therefore never wait behind large ones.
#[derive(Debug, Clone, Default)]
pub struct SjfScheduler;

impl SjfScheduler {
    /// Create an SJF scheduler.
    pub fn new() -> Self {
        SjfScheduler
    }
}

impl Scheduler for SjfScheduler {
    fn name(&self) -> &str {
        "sjf"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let mut order: Vec<&tcrm_sim::PendingJobView> = view.pending.iter().collect();
        order.sort_by(|a, b| {
            let sa = best_case_service(a, view);
            let sb = best_case_service(b, view);
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let mut actions = Vec::new();
        for job in order {
            if let Some(class) = view.best_class_for(job) {
                actions.push(Action::Start {
                    job: job.id,
                    class,
                    parallelism: job.min_parallelism,
                });
            }
        }
        actions
    }
}

fn best_case_service(job: &tcrm_sim::PendingJobView, view: &ClusterView) -> f64 {
    view.classes
        .iter()
        .map(|c| job.service_time_on(c, job.max_parallelism))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures::{job, run};

    #[test]
    fn short_jobs_start_before_long_ones_when_contended() {
        // Saturating demand so only one job runs at a time on the generic
        // class; the short job should jump the queue.
        let mut long = job(0, 0.0, 100.0, 10_000.0);
        long.demand_per_unit = tcrm_sim::ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        long.max_parallelism = 1;
        let mut short = job(1, 0.0, 5.0, 10_000.0);
        short.demand_per_unit = tcrm_sim::ResourceVector::of(8.0, 8.0, 0.0, 1.0);
        short.max_parallelism = 1;
        let result = run(&mut SjfScheduler::new(), vec![long, short]);
        let mut by_id = result.completed.clone();
        by_id.sort_by_key(|j| j.id);
        assert!(by_id[1].start <= by_id[0].start);
        assert_eq!(result.summary.completed_jobs, 2);
    }

    #[test]
    fn all_jobs_eventually_complete() {
        let jobs: Vec<_> = (0..6)
            .map(|i| job(i, i as f64, 10.0 + i as f64, 1000.0))
            .collect();
        let result = run(&mut SjfScheduler::new(), jobs);
        assert_eq!(result.summary.completed_jobs, 6);
        assert_eq!(result.summary.unfinished_jobs, 0);
    }
}
