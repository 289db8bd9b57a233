//! Paired-simulator differential tests of the incremental observation
//! layer: two engines run the **same** workload and action sequence, one
//! refilling its retained `ClusterView` through the incremental delta
//! protocol (`incremental_view = true`, the default) and one through the
//! full-rebuild reference path. At every decision epoch — and after every
//! single applied action — the two snapshots must be **byte-identical**
//! field for field, and the finished runs must produce identical summaries
//! and completion records.
//!
//! The action scripts deliberately mix valid and invalid actions (unknown
//! jobs, unknown classes, out-of-range parallelism, re-scaling rigid jobs,
//! waiting) so the protocol is exercised across rejected applications too.

mod common;

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcrm_sim::node::SpeedProfile;
use tcrm_sim::prelude::*;

/// A small heterogeneous cluster: two classes with different speeds and
/// capacities so placement and speed lookups are non-trivial.
fn paired_spec() -> ClusterSpec {
    ClusterSpec::new(vec![
        NodeClassSpec::new(
            "generic",
            3,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        ),
        NodeClassSpec::new(
            "fast-small",
            2,
            ResourceVector::of(8.0, 8.0, 0.0, 10.0),
            SpeedProfile::uniform(2.0),
        ),
    ])
}

/// Raw per-job parameters produced by the proptest strategies.
#[derive(Debug, Clone)]
struct JobParams {
    gap: f64,
    work: f64,
    slack: f64,
    cpu: f64,
    mem: f64,
    min_par: u32,
    extra_par: u32,
    malleable: bool,
}

fn arb_job_params() -> impl Strategy<Value = JobParams> {
    (
        0.0f64..4.0,
        1.0f64..40.0,
        5.0f64..200.0,
        1.0f64..4.0,
        1.0f64..8.0,
        1u32..3,
        0u32..4,
        any::<bool>(),
    )
        .prop_map(
            |(gap, work, slack, cpu, mem, min_par, extra_par, malleable)| JobParams {
                gap,
                work,
                slack,
                cpu,
                mem,
                min_par,
                extra_par,
                malleable,
            },
        )
}

fn build_jobs(params: &[JobParams]) -> Vec<Job> {
    let mut arrival = 0.0;
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            arrival += p.gap;
            Job::builder(JobId(i as u64), JobClass::Batch)
                .arrival(arrival)
                .total_work(p.work)
                .demand_per_unit(ResourceVector::of(p.cpu, p.mem, 0.0, 0.5))
                .parallelism_range(p.min_par, p.min_par + p.extra_par)
                .speedup(SpeedupModel::Linear)
                .deadline(arrival + p.slack)
                .malleable(p.malleable)
                .utility(TimeUtility::hard(1.0))
                .build()
        })
        .collect()
}

/// Derive one (possibly invalid) action from a script triple and the
/// current reference view.
fn script_action(view: &ClusterView, kind: u8, x: u8, y: u8) -> Action {
    match kind % 5 {
        0 | 1 => {
            // Start a pending job — class index deliberately runs one past
            // the real classes so "unknown node class" is exercised, and the
            // parallelism may exceed the job's range (the engine clamps).
            if view.pending.is_empty() {
                Action::Wait
            } else {
                let job = &view.pending[x as usize % view.pending.len()];
                Action::Start {
                    job: job.id,
                    class: NodeClassId(y as usize % (view.num_classes() + 1)),
                    parallelism: 1 + y as u32 % 6,
                }
            }
        }
        2 => {
            // Re-scale a running job (often rejected: rigid, cooldown, no
            // change, insufficient capacity).
            if view.running.is_empty() {
                Action::Wait
            } else {
                let job = &view.running[x as usize % view.running.len()];
                Action::Scale {
                    job: job.id,
                    new_parallelism: 1 + y as u32 % 6,
                }
            }
        }
        3 => Action::Start {
            // Unknown job id.
            job: JobId(1_000_000 + x as u64),
            class: NodeClassId(0),
            parallelism: 1,
        },
        _ => Action::Wait,
    }
}

/// Field-for-field equality of two snapshots (`ClusterView` itself has no
/// `PartialEq`; comparing fields keeps failures readable).
fn assert_views_equal(inc: &ClusterView, reference: &ClusterView) {
    assert_eq!(inc.time, reference.time, "time diverged");
    assert_eq!(
        inc.future_arrivals, reference.future_arrivals,
        "future_arrivals diverged"
    );
    assert_eq!(inc.classes, reference.classes, "class views diverged");
    assert_eq!(inc.pending, reference.pending, "pending rows diverged");
    assert_eq!(inc.running, reference.running, "running rows diverged");
    assert_eq!(
        inc.pending_by_deadline, reference.pending_by_deadline,
        "deadline index diverged"
    );
    common::assert_derived_equal(inc, reference);
}

/// Drive the paired simulators through the script and assert equality at
/// every step. Returns the number of epochs observed and of re-scales the
/// engines accepted (each one a `RunningRescaled` delta on the incremental
/// path).
fn run_paired(jobs: Vec<Job>, script: &[(u8, u8, u8)], decision_interval: f64) -> (usize, usize) {
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(decision_interval);
    cfg.scale_cooldown = 3.0;
    cfg.util_sample_interval = 2.5;
    cfg.max_sim_time = 5e4;
    let mut cfg_ref = cfg.clone();
    cfg_ref.incremental_view = false;
    assert!(cfg.incremental_view, "incremental path must be the default");

    let mut sim_inc = Simulator::new(paired_spec(), cfg);
    let mut sim_ref = Simulator::new(paired_spec(), cfg_ref);
    sim_inc.start(jobs.clone());
    sim_ref.start(jobs);
    let mut view_inc = sim_inc.view();
    let mut view_ref = sim_ref.view();
    assert_views_equal(&view_inc, &view_ref);

    let mut cursor = 0usize;
    let mut epochs = 0usize;
    let mut accepted_scales = 0usize;
    let mut post_script_epochs = 0usize;
    loop {
        let alive_inc = sim_inc.advance();
        let alive_ref = sim_ref.advance();
        assert_eq!(alive_inc, alive_ref, "engines fell out of lockstep");
        if !alive_inc {
            break;
        }
        epochs += 1;
        if cursor >= script.len() {
            // The script issues no further starts: let completions drain for
            // a while, then stop stepping (unstarted pending jobs would spin
            // on periodic epochs forever; finalize charges them below).
            post_script_epochs += 1;
            if post_script_epochs > 300 {
                sim_inc.view_into(&mut view_inc);
                sim_ref.view_into(&mut view_ref);
                assert_views_equal(&view_inc, &view_ref);
                break;
            }
        }
        sim_inc.view_into(&mut view_inc);
        sim_ref.view_into(&mut view_ref);
        assert_views_equal(&view_inc, &view_ref);
        for _ in 0..2 {
            let Some(&(kind, x, y)) = script.get(cursor) else {
                break;
            };
            cursor += 1;
            let action = script_action(&view_ref, kind, x, y);
            let out_inc = sim_inc.apply(&action);
            let out_ref = sim_ref.apply(&action);
            assert_eq!(out_inc, out_ref, "action outcomes diverged");
            accepted_scales += usize::from(out_inc == ActionOutcome::Scaled);
            sim_inc.view_into(&mut view_inc);
            sim_ref.view_into(&mut view_ref);
            assert_views_equal(&view_inc, &view_ref);
        }
        assert!(epochs < 20_000, "paired run did not terminate");
    }

    let res_inc = sim_inc.finalize();
    let res_ref = sim_ref.finalize();
    assert_eq!(res_inc.summary, res_ref.summary, "summaries diverged");
    assert_eq!(
        res_inc.completed, res_ref.completed,
        "completion records diverged"
    );
    (epochs, accepted_scales)
}

/// Random workloads × random valid/invalid action scripts: the
/// incremental view is byte-identical to the rebuilt reference at every
/// epoch, after every action, and in the final run records. The cases
/// together must apply at least one accepted re-scale, so the
/// `RunningRescaled` patch is part of what is compared.
#[test]
fn incremental_view_matches_rebuild_reference() {
    static ACCEPTED_SCALES: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn incremental_view_matches_rebuild_reference(
            params in prop::collection::vec(arb_job_params(), 1..18),
            script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
            interval in 1.0f64..6.0,
        ) {
            let jobs = build_jobs(&params);
            let (_, scales) = run_paired(jobs, &script, interval);
            ACCEPTED_SCALES.fetch_add(scales, Ordering::Relaxed);
        }
    }
    incremental_view_matches_rebuild_reference();
    assert!(
        ACCEPTED_SCALES.load(Ordering::Relaxed) > 0,
        "no case applied an accepted Scale"
    );
}

#[test]
fn paired_run_with_dense_script_exercises_scales_and_rejections() {
    // A deterministic, action-dense companion to the proptest (fast enough
    // to step through in a debugger when something diverges).
    let params: Vec<JobParams> = (0..14)
        .map(|i| JobParams {
            gap: 0.7 + (i % 3) as f64,
            work: 8.0 + (i * 3 % 25) as f64,
            slack: 20.0 + (i * 11 % 90) as f64,
            cpu: 1.0 + (i % 3) as f64,
            mem: 2.0 + (i % 5) as f64,
            min_par: 1 + (i % 2) as u32,
            extra_par: (i % 4) as u32,
            malleable: i % 3 != 0,
        })
        .collect();
    let jobs = build_jobs(&params);
    let script: Vec<(u8, u8, u8)> = (0..200u32)
        .map(|i| ((i % 5) as u8, (i * 7 % 251) as u8, (i * 13 % 241) as u8))
        .collect();
    let (epochs, scales) = run_paired(jobs, &script, 2.0);
    assert!(epochs >= 14, "expected at least one epoch per job");
    assert!(scales > 0, "the dense script must re-scale a running job");
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
            min_par: 1,
            extra_par: 2,
            malleable: true,
        })
        .collect();
    let jobs = build_jobs(&params);
    let mut sim = Simulator::new(paired_spec(), SimConfig::default());
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
