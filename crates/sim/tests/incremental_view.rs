//! Oracle tests of the incremental observation layer: one engine refills a
//! retained `ClusterView` through the incremental delta protocol, and at
//! every decision epoch — and after every single applied action — that view
//! must be **byte-identical**, field for field, to one rebuilt from scratch
//! by `Simulator::rebuild_view_into`. The same harness (`common`) also checks
//! every placement the pending jobs could ask for against the reference walk
//! and the cluster's invariants.
//!
//! The action scripts deliberately mix valid and invalid actions (unknown
//! jobs, unknown classes, out-of-range parallelism, re-scaling rigid jobs,
//! waiting) so the protocol is exercised across rejected applications too.

mod common;

use common::{
    arb_job_params, assert_dense_coverage, assert_views_equal, build_jobs, dense_params,
    dense_script, run_against_oracles, two_class_spec, JobParams,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcrm_sim::prelude::*;

/// Random workloads × random valid/invalid action scripts: the incremental
/// view is byte-identical to the rebuilt reference at every epoch and after
/// every action. The cases together must apply at least one accepted
/// scale-up and one accepted scale-down, so the `RunningRescaled` patch of
/// both directions is part of what is compared, and cancel and degrade
/// queued jobs, so the key-based `PendingRemoved` replay is too.
#[test]
fn incremental_view_matches_rebuild_reference() {
    static SCALE_UPS: AtomicUsize = AtomicUsize::new(0);
    static SCALE_DOWNS: AtomicUsize = AtomicUsize::new(0);
    static QUEUE_OPS: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn incremental_view_matches_rebuild_reference(
            params in prop::collection::vec(arb_job_params(0), 1..18),
            script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
            interval in 1.0f64..6.0,
        ) {
            let run = run_against_oracles(two_class_spec(), build_jobs(&params), &script, interval);
            SCALE_UPS.fetch_add(run.accepted_scale_ups, Ordering::Relaxed);
            SCALE_DOWNS.fetch_add(run.accepted_scale_downs, Ordering::Relaxed);
            QUEUE_OPS.fetch_add(run.cancels.min(run.degrades), Ordering::Relaxed);
        }
    }
    incremental_view_matches_rebuild_reference();
    assert!(
        SCALE_UPS.load(Ordering::Relaxed) > 0,
        "no case applied an accepted scale-up"
    );
    assert!(
        SCALE_DOWNS.load(Ordering::Relaxed) > 0,
        "no case applied an accepted scale-down"
    );
    assert!(
        QUEUE_OPS.load(Ordering::Relaxed) > 0,
        "no case both cancelled and degraded a queued job"
    );
}

#[test]
fn paired_run_with_dense_script_exercises_scales_and_rejections() {
    // A deterministic, action-dense companion to the proptest.
    let jobs = build_jobs(&dense_params(36, 0));
    let run = run_against_oracles(two_class_spec(), jobs, &dense_script(), 2.0);
    assert!(run.epochs >= 36, "expected at least one epoch per job");
    assert_dense_coverage(&run);
}

#[test]
fn view_taken_mid_run_resyncs_after_reset() {
    // A view refilled across a reset must rebuild against the new run, not
    // replay the cleared change log.
    let params: Vec<JobParams> = (0..6)
        .map(|i| JobParams {
            gap: 1.0,
            work: 10.0 + i as f64,
            slack: 100.0,
            cpu: 2.0,
            mem: 4.0,
            gpu: 0.0,
            min_par: 1,
            extra_par: 2,
            malleable: true,
        })
        .collect();
    let jobs = build_jobs(&params);
    let mut sim = Simulator::new(two_class_spec(), SimConfig::default());
    sim.start(jobs.clone());
    let mut view = sim.view();
    for _ in 0..4 {
        assert!(sim.advance());
        sim.view_into(&mut view);
    }
    sim.reset();
    sim.start(jobs);
    assert!(sim.advance());
    sim.view_into(&mut view);
    let fresh = sim.view();
    assert_views_equal(&view, &fresh);
}
