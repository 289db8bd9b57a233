//! A deadline-proportional elasticity heuristic.
//!
//! This is the strongest non-learning contender in the elasticity ablation:
//! it combines EDF ordering with *elastic* allocation. New jobs start at the
//! cheapest parallelism that still meets their deadline; running jobs are
//! re-scaled as their slack evolves — scaled up when they are about to miss
//! their deadline and capacity is available, scaled down when they have ample
//! slack and other jobs are waiting for resources.

use crate::util;
use tcrm_sim::{Action, ClusterView, RunningJobView, Scheduler, StartMemo};

/// Tuning knobs of the heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyElasticConfig {
    /// A running job is scaled up when its slack (at the current rate) drops
    /// below this many seconds.
    pub scale_up_slack: f64,
    /// A running job is considered for scale-down when its slack exceeds this
    /// many seconds *and* jobs are waiting in the queue.
    pub scale_down_slack: f64,
}

impl Default for GreedyElasticConfig {
    fn default() -> Self {
        GreedyElasticConfig {
            scale_up_slack: 0.0,
            scale_down_slack: 60.0,
        }
    }
}

/// The deadline-proportional elastic heuristic scheduler.
#[derive(Debug, Clone, Default)]
pub struct GreedyElasticScheduler {
    config: GreedyElasticConfig,
    memo: StartMemo,
}

impl GreedyElasticScheduler {
    /// Create the heuristic with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the heuristic with explicit thresholds.
    pub fn with_config(config: GreedyElasticConfig) -> Self {
        GreedyElasticScheduler {
            config,
            ..Self::default()
        }
    }

    /// The start pass's memo (its work counters).
    pub fn start_memo(&self) -> &StartMemo {
        &self.memo
    }

    /// Parallelism a running job needs (at its current node class speed) to
    /// finish exactly at its deadline; `None` if even the maximum does not
    /// suffice.
    fn parallelism_to_meet_deadline(job: &RunningJobView, view: &ClusterView) -> Option<u32> {
        let class_view = view.class(job.node_class);
        let speed = class_view.speed_factor(job.class).max(1e-9);
        let time_left = job.deadline - view.time;
        if time_left <= 0.0 {
            return None;
        }
        let remaining = job.remaining_work(view.time);
        (job.min_parallelism..=job.max_parallelism).find(|&p| {
            let rate = speed * job.speedup.speedup(p);
            remaining / rate <= time_left
        })
    }
}

impl Scheduler for GreedyElasticScheduler {
    fn name(&self) -> &str {
        "greedy-elastic"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let mut actions = Vec::new();

        // 1. Re-scale running jobs based on their slack.
        let queue_waiting = !view.pending.is_empty();
        for job in &view.running {
            if !job.malleable || !view.scale_ready(job) {
                continue;
            }
            let slack = job.slack(view.time);
            if slack < self.config.scale_up_slack && job.units < job.max_parallelism {
                // About to miss: grow to whatever is needed (engine rejects if
                // there is no capacity, which is fine — we try again at the
                // next epoch).
                let target = Self::parallelism_to_meet_deadline(job, view)
                    .unwrap_or(job.max_parallelism)
                    .max(job.units + 1);
                actions.push(Action::Scale {
                    job: job.id,
                    new_parallelism: target,
                });
            } else if queue_waiting
                && slack > self.config.scale_down_slack
                && job.units > job.min_parallelism
            {
                // Plenty of slack and others are waiting: give one unit back.
                actions.push(Action::Scale {
                    job: job.id,
                    new_parallelism: job.units - 1,
                });
            }
        }

        // 2. Start pending jobs EDF-ordered at the cheapest deadline-meeting
        //    parallelism on their fastest feasible class.
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
    use crate::edf::EdfScheduler;
    use crate::util::fixtures::{job, run};

    #[test]
    fn scales_up_jobs_that_would_miss() {
        // One job whose deadline cannot be met at p=1 but can at p=4. Start it
        // with generous slack estimation, then tighten by giving a lot of
        // work: the heuristic should end up running it at elevated
        // parallelism.
        let tight = job(0, 0.0, 60.0, 20.0);
        let result = run(&mut GreedyElasticScheduler::new(), vec![tight]);
        assert_eq!(result.summary.completed_jobs, 1);
        assert!(
            result.completed[0].avg_parallelism > 1.5,
            "job was not scaled up (avg parallelism {})",
            result.completed[0].avg_parallelism
        );
    }

    #[test]
    fn no_worse_than_edf_on_miss_rate_for_elastic_workload() {
        let make = || {
            (0..12u64)
                .map(|i| {
                    let arrival = i as f64 * 3.0;
                    job(i, arrival, 25.0, arrival + 28.0)
                })
                .collect::<Vec<_>>()
        };
        let elastic = run(&mut GreedyElasticScheduler::new(), make());
        let edf = run(&mut EdfScheduler::new(), make());
        assert!(
            elastic.summary.miss_rate <= edf.summary.miss_rate + 1e-9,
            "greedy-elastic ({}) should not miss more than EDF ({})",
            elastic.summary.miss_rate,
            edf.summary.miss_rate
        );
    }

    #[test]
    fn records_scale_events() {
        let tight = job(0, 0.0, 60.0, 20.0);
        let relaxed = job(1, 1.0, 10.0, 10_000.0);
        let result = run(&mut GreedyElasticScheduler::new(), vec![tight, relaxed]);
        // At least the tight job needed growth at some point (started before
        // the queue view knew its true remaining work) — scale events may be
        // zero if it started at full parallelism, so just assert the run is
        // consistent.
        assert_eq!(result.summary.completed_jobs, 2);
        assert!(result.summary.invalid_actions < 200);
    }
}
