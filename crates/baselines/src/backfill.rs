//! EASY-backfilling adapted to elastic, deadline-constrained jobs.
//!
//! Classic EASY backfilling (Lifka, JSSPP'95) keeps the head of the queue in
//! strict order but lets later jobs "backfill" into idle capacity as long as
//! they do not delay the head job's reserved start. Here the queue order is
//! earliest-deadline-first (the time-critical analogue of FCFS order) and the
//! reservation is computed from the expected completion times of the jobs
//! currently running on the head job's best class.

use crate::util;
use tcrm_sim::{Action, ClusterView, NodeClassId, PendingJobView, Scheduler};

/// EDF-ordered scheduler with EASY-style backfilling.
///
/// At every decision epoch it walks the queue in deadline order and starts
/// every job that fits (like [`crate::EdfScheduler`]). The first job that does
/// *not* fit anywhere becomes the blocked head: a shadow start time is
/// reserved for it (the earliest time at which enough running work is expected
/// to have drained for the head to start at its minimum parallelism). Jobs
/// behind the head may still start, but only if their expected completion does
/// not run past the shadow time on the head's reserved class, so the
/// reservation is never pushed back.
#[derive(Debug, Clone, Default)]
pub struct EasyBackfillScheduler;

impl EasyBackfillScheduler {
    /// Create an EASY-backfill scheduler.
    pub fn new() -> Self {
        EasyBackfillScheduler
    }

    /// Earliest time at which `job` could start at its minimum parallelism on
    /// `class`, assuming no new work is placed there: running jobs on the
    /// class are drained in expected-finish order until enough units are
    /// available. Returns `None` when even a fully drained class cannot host
    /// the job (per-node demand larger than a node).
    fn shadow_start_on(
        job: &PendingJobView,
        view: &ClusterView,
        class: NodeClassId,
    ) -> Option<f64> {
        let class_view = view.class(class);
        // Units the class could host if every node were completely free; if
        // even that is below the job's minimum there is no reservation to
        // make on this class (per-node demand larger than a node).
        let empty_units: u32 = {
            let per_node = class_view
                .total_capacity
                .scaled(1.0 / class_view.node_count.max(1) as f64);
            let mut fit_per_node = u32::MAX;
            for i in 0..tcrm_sim::NUM_RESOURCES {
                let d = job.demand_per_unit.0[i];
                if d > 0.0 {
                    fit_per_node =
                        fit_per_node.min(((per_node.0[i] + 1e-9) / d).floor().max(0.0) as u32);
                }
            }
            if fit_per_node == u32::MAX {
                fit_per_node = 0;
            }
            fit_per_node * class_view.node_count as u32
        };
        if empty_units < job.min_parallelism {
            return None;
        }

        let mut available = class_view.units_available(&job.demand_per_unit);
        if available >= job.min_parallelism {
            return Some(view.time);
        }
        // Drain running jobs on this class in expected-finish order. This is a
        // conservative estimate: it ignores fragmentation of the freed units,
        // which is acceptable for a reservation heuristic.
        let mut finishing: Vec<(f64, u32)> = view
            .running
            .iter()
            .filter(|r| r.node_class == class)
            .map(|r| {
                let freed = Self::freed_units(r, &job.demand_per_unit);
                (r.expected_finish(view.time), freed)
            })
            .collect();
        finishing.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (finish, freed) in finishing {
            available = available.saturating_add(freed);
            if available >= job.min_parallelism {
                return Some(finish);
            }
        }
        None
    }

    /// How many units of `per_unit` demand the resources held by a running job
    /// would provide once released.
    fn freed_units(running: &tcrm_sim::RunningJobView, per_unit: &tcrm_sim::ResourceVector) -> u32 {
        let held = running.demand_per_unit.scaled(running.units as f64);
        let mut fit = u32::MAX;
        for i in 0..tcrm_sim::NUM_RESOURCES {
            let d = per_unit.0[i];
            if d > 0.0 {
                fit = fit.min(((held.0[i] + 1e-9) / d).floor().max(0.0) as u32);
            }
        }
        if fit == u32::MAX {
            0
        } else {
            fit
        }
    }

    /// The reservation for a blocked head job: the class and shadow time with
    /// the earliest estimated start.
    fn reserve(job: &PendingJobView, view: &ClusterView) -> Option<(NodeClassId, f64)> {
        let mut best: Option<(NodeClassId, f64)> = None;
        for class in &view.classes {
            if let Some(t) = Self::shadow_start_on(job, view, class.id) {
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((class.id, t)),
                }
            }
        }
        best
    }
}

impl Scheduler for EasyBackfillScheduler {
    fn name(&self) -> &str {
        "backfill"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut reservation: Option<(NodeClassId, f64)> = None;

        // Deadline order straight from the view's maintained index.
        for job in view.pending_in_deadline_order() {
            let placement = view
                .best_class_for(job)
                .and_then(|class| util::deadline_parallelism(job, view, class).map(|p| (class, p)));

            match (placement, reservation) {
                (Some((class, parallelism)), None) => {
                    // No reservation yet: behave exactly like EDF.
                    actions.push(Action::Start {
                        job: job.id,
                        class,
                        parallelism,
                    });
                }
                (Some((class, parallelism)), Some((res_class, shadow))) => {
                    // Backfill candidate: only allowed if it cannot delay the
                    // reserved head. Starting on a different class never
                    // delays the head; on the reserved class the candidate
                    // must be expected to finish before the shadow time.
                    let class_view = view.class(class);
                    let finish = view.time + job.service_time_on(class_view, parallelism);
                    if class != res_class || finish <= shadow + 1e-9 {
                        actions.push(Action::Start {
                            job: job.id,
                            class,
                            parallelism,
                        });
                    }
                }
                (None, None) => {
                    // Blocked head: compute its reservation; later jobs may
                    // only backfill around it.
                    reservation = Self::reserve(job, view);
                    // If no class can ever host the job, leave reservation
                    // empty and keep scheduling the rest normally.
                }
                (None, Some(_)) => {
                    // Already reserving for an earlier head; this job waits.
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::EdfScheduler;
    use crate::fifo::FifoScheduler;
    use crate::util::fixtures::{job, run, small_hetero_spec};
    use tcrm_sim::prelude::*;

    fn blocked_head_view() -> ClusterView {
        // Saturate the generic class with a long job so the next wide job is
        // blocked while a narrow job could still backfill.
        let mut cfg = SimConfig::default();
        cfg.decision_interval = None;
        let mut sim = Simulator::new(small_hetero_spec(), cfg);
        let mut hog = job(0, 0.0, 400.0, 10_000.0);
        hog.demand_per_unit = ResourceVector::of(8.0, 16.0, 0.0, 1.0);
        hog.min_parallelism = 2;
        hog.max_parallelism = 2;
        // Wide job that cannot fit anywhere while the hog runs.
        let mut wide = job(1, 0.0, 50.0, 10_000.0);
        wide.demand_per_unit = ResourceVector::of(8.0, 16.0, 0.0, 1.0);
        wide.min_parallelism = 1;
        wide.max_parallelism = 1;
        // Narrow, short job that fits into leftover capacity.
        let narrow = job(2, 0.0, 4.0, 10_000.0);
        sim.start(vec![hog, wide, narrow]);
        // Arrivals are processed one event at a time; advance until the hog
        // is visible, start it by hand, then advance until both remaining
        // jobs have arrived so the backfill decision sees the full queue.
        while sim.view().pending_job(JobId(0)).is_none() {
            assert!(sim.advance());
        }
        sim.apply(&Action::Start {
            job: JobId(0),
            class: NodeClassId(0),
            parallelism: 2,
        });
        let mut guard = 0;
        while sim.view().pending.len() < 2 {
            assert!(sim.advance());
            guard += 1;
            assert!(
                guard < 16,
                "both queued jobs should arrive within a few events"
            );
        }
        sim.view()
    }

    #[test]
    fn backfills_short_jobs_behind_a_blocked_head() {
        let view = blocked_head_view();
        // Job 1 (wide, earlier id => earlier deadline tie-break) is blocked on
        // the saturated generic class; job 2 must still be started.
        let actions = EasyBackfillScheduler::new().decide(&view);
        let started: Vec<JobId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Start { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(
            started.contains(&JobId(2)),
            "short job should backfill, got {started:?}"
        );
        assert!(
            !started.contains(&JobId(1)),
            "blocked head must not be force-started"
        );
    }

    #[test]
    fn shadow_start_is_after_now_when_class_is_full() {
        let view = blocked_head_view();
        let wide = view.pending_job(JobId(1)).unwrap();
        let shadow = EasyBackfillScheduler::shadow_start_on(wide, &view, NodeClassId(0)).unwrap();
        assert!(shadow > view.time, "shadow {shadow} must be in the future");
    }

    #[test]
    fn never_misses_more_than_fifo_on_deadline_heavy_workloads() {
        let make = || {
            (0..14u64)
                .map(|i| {
                    let arrival = i as f64 * 3.0;
                    let (work, deadline) = if i % 2 == 0 {
                        (30.0, arrival + 26.0)
                    } else {
                        (8.0, arrival + 250.0)
                    };
                    job(i, arrival, work, deadline)
                })
                .collect::<Vec<_>>()
        };
        let bf = run(&mut EasyBackfillScheduler::new(), make());
        let fifo = run(&mut FifoScheduler::new(), make());
        assert!(
            bf.summary.miss_rate <= fifo.summary.miss_rate + 1e-9,
            "backfill ({}) should not miss more than FIFO ({})",
            bf.summary.miss_rate,
            fifo.summary.miss_rate
        );
    }

    #[test]
    fn completes_everything_edf_completes_on_a_light_workload() {
        let make = || {
            (0..10u64)
                .map(|i| job(i, i as f64 * 6.0, 12.0, i as f64 * 6.0 + 200.0))
                .collect::<Vec<_>>()
        };
        let bf = run(&mut EasyBackfillScheduler::new(), make());
        let edf = run(&mut EdfScheduler::new(), make());
        assert_eq!(bf.summary.completed_jobs, edf.summary.completed_jobs);
        assert_eq!(bf.summary.missed_jobs, 0);
    }
}
