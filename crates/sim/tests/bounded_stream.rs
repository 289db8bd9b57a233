//! Counting-allocator proof that a streamed run's memory does not grow with
//! its length.
//!
//! Completions and scale-downs record a per-class release stamp, and new
//! arrivals are found by their arrival sequence numbers, so no
//! per-arrival bookkeeping accumulates over a run. A
//! `Simulator::run_source` run must therefore peak at the same live bytes
//! for 20,000 jobs as for 2,000.
//!
//! The jobs are generated on demand, once without a size hint and once
//! with an exact one: the engine pre-sizes its collections for at most
//! 1024 jobs whatever the hint, so an advertised length does not make the
//! peak scale with the job count either. The runs keep bounded metrics.
//! [`metered`] counts process-wide, so this file holds a single `#[test]`.

use tcrm_sim::node::SpeedProfile;
use tcrm_sim::{
    Action, ClusterSpec, ClusterView, Job, JobClass, JobId, NodeClassSpec, ResourceVector,
    Scheduler, SimConfig, Simulator, SpeedupModel, TimeUtility,
};
use tcrm_testkit::metered;

/// Starts every pending job, in deadline order, on the first class that
/// can host its minimum parallelism (the view is not updated between the
/// starts of one call, so some are rejected; the next round retries).
struct FirstFit;

impl Scheduler for FirstFit {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        view.pending_in_deadline_order()
            .filter_map(|job| {
                let class = view
                    .classes
                    .iter()
                    .find(|c| view.can_start(job, c.id, job.min_parallelism))?;
                Some(Action::Start {
                    job: job.id,
                    class: class.id,
                    parallelism: job.min_parallelism,
                })
            })
            .collect()
    }
}

/// Two classes, so completions release capacity on both.
fn cluster() -> ClusterSpec {
    let class = |name, count| {
        NodeClassSpec::new(
            name,
            count,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        )
    };
    ClusterSpec::new(vec![class("a", 2), class("b", 1)])
}

/// Job `i` of the stream: one arrival per second. About three quarters of
/// the cluster's units are busy on average, so the queue stays short.
fn job(i: u64) -> Job {
    let arrival = i as f64;
    Job::builder(JobId(i), JobClass::Batch)
        .arrival(arrival)
        .total_work(4.0 + (i * 7 % 11) as f64)
        .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 1.0))
        .parallelism_range(1, 2)
        .speedup(SpeedupModel::Linear)
        .deadline(arrival + 30.0)
        .utility(TimeUtility::hard(1.0))
        .build()
}

/// Run `n` jobs generated on demand, with an exact size hint or none.
fn streamed(n: u64, hinted: bool) -> usize {
    let mut cfg = SimConfig::default();
    cfg.bounded_metrics = true;
    cfg.decision_interval = Some(5.0);
    cfg.max_sim_time = 1e9;
    let mut sim = Simulator::new(cluster(), cfg);
    let mut view = sim.view();
    let mut jobs = (0..n).map(job);
    let summary = if hinted {
        assert_eq!(jobs.size_hint(), (n as usize, Some(n as usize)));
        sim.run_source(jobs, &mut FirstFit, &mut view)
    } else {
        let unhinted = std::iter::from_fn(|| jobs.next());
        sim.run_source(unhinted, &mut FirstFit, &mut view)
    };
    assert_eq!(summary.total_jobs, n as usize);
    assert_eq!(summary.completed_jobs, n as usize, "every job completes");
    summary.completed_jobs
}

#[test]
fn streamed_peak_does_not_grow_with_the_job_count() {
    const SHORT: u64 = 2_000;
    const LONG: u64 = 20_000;

    // Warm up lazy-init state outside the measurements.
    streamed(64, false);
    for hinted in [false, true] {
        let (_, short_peak) = metered(|| {
            streamed(SHORT, hinted);
        });
        let (_, long_peak) = metered(|| {
            streamed(LONG, hinted);
        });
        eprintln!(
            "hinted {hinted}: streaming {SHORT}: peak {short_peak} B; \
             streaming {LONG}: peak {long_peak} B"
        );

        // Ten times the arrivals may only add amortised growth of buffers
        // sized by the queue's deepest point; 16 bytes per arrival kept
        // until the end of the run would add over 300 kB.
        assert!(
            long_peak < short_peak + short_peak / 2,
            "hinted {hinted}: streamed peak grew with the job count: \
             {short_peak} B -> {long_peak} B"
        );
    }
}
