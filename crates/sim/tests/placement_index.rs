//! Paired-simulator differential tests of the bucketed placement index:
//! two engines run the **same** workload and action sequence, one serving
//! `find_placement` from the per-class `FitIndex` (`placement_index = true`,
//! the default) and one from the reference slice walk. Because placements
//! mutate real cluster state, any ordering divergence between the two paths
//! would compound — so the views (including every per-node free vector and
//! the view-side fit index), action outcomes, summaries and completion
//! records must all stay **byte-identical** at every step.
//!
//! Also hosts the direct `Cluster`-level differential proptest and the
//! 64k-scale saturating `units_available` regression test (the `u32` sum
//! used to wrap in release builds).

mod common;

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcrm_sim::fit_index::{bucket_rank, rank_floor};
use tcrm_sim::node::SpeedProfile;
use tcrm_sim::prelude::*;

/// Same paired cluster as `tests/incremental_view.rs`: two classes with
/// different shapes so placement is non-trivial.
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
/// current reference view — the same mix of starts, scales, unknown ids and
/// waits the incremental-view harness uses, so placements and releases churn
/// the index hard.
fn script_action(view: &ClusterView, kind: u8, x: u8, y: u8) -> Action {
    match kind % 5 {
        0 | 1 => {
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
            job: JobId(1_000_000 + x as u64),
            class: NodeClassId(0),
            parallelism: 1,
        },
        _ => Action::Wait,
    }
}

fn assert_views_equal(indexed: &ClusterView, reference: &ClusterView) {
    assert_eq!(indexed.time, reference.time, "time diverged");
    assert_eq!(
        indexed.future_arrivals, reference.future_arrivals,
        "future_arrivals diverged"
    );
    // `NodeClassView`'s derived PartialEq covers node_free row-for-row plus
    // the view-side fit index, so identical classes ⇒ identical placements
    // were applied on both simulators.
    assert_eq!(indexed.classes, reference.classes, "class views diverged");
    assert_eq!(indexed.pending, reference.pending, "pending rows diverged");
    assert_eq!(indexed.running, reference.running, "running rows diverged");
    assert_eq!(
        indexed.pending_by_deadline, reference.pending_by_deadline,
        "deadline index diverged"
    );
    common::assert_derived_equal(indexed, reference);
}

/// Drive a fit-indexed simulator and a reference-walk simulator through the
/// same script, asserting byte-identical state at every step.
fn run_paired(jobs: Vec<Job>, script: &[(u8, u8, u8)], decision_interval: f64) -> usize {
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(decision_interval);
    cfg.scale_cooldown = 3.0;
    cfg.util_sample_interval = 2.5;
    cfg.max_sim_time = 5e4;
    let mut cfg_ref = cfg.clone();
    cfg_ref.placement_index = false;
    assert!(cfg.placement_index, "indexed path must be the default");

    let mut sim_idx = Simulator::new(paired_spec(), cfg);
    let mut sim_ref = Simulator::new(paired_spec(), cfg_ref);
    sim_idx.start(jobs.clone());
    sim_ref.start(jobs);
    let mut view_idx = sim_idx.view();
    let mut view_ref = sim_ref.view();
    assert_views_equal(&view_idx, &view_ref);

    let mut cursor = 0usize;
    let mut epochs = 0usize;
    let mut post_script_epochs = 0usize;
    loop {
        let alive_idx = sim_idx.advance();
        let alive_ref = sim_ref.advance();
        assert_eq!(alive_idx, alive_ref, "engines fell out of lockstep");
        if !alive_idx {
            break;
        }
        epochs += 1;
        if cursor >= script.len() {
            post_script_epochs += 1;
            if post_script_epochs > 300 {
                sim_idx.view_into(&mut view_idx);
                sim_ref.view_into(&mut view_ref);
                assert_views_equal(&view_idx, &view_ref);
                break;
            }
        }
        sim_idx.view_into(&mut view_idx);
        sim_ref.view_into(&mut view_ref);
        assert_views_equal(&view_idx, &view_ref);
        for _ in 0..2 {
            let Some(&(kind, x, y)) = script.get(cursor) else {
                break;
            };
            cursor += 1;
            let action = script_action(&view_ref, kind, x, y);
            let out_idx = sim_idx.apply(&action);
            let out_ref = sim_ref.apply(&action);
            assert_eq!(out_idx, out_ref, "action outcomes diverged");
            sim_idx.view_into(&mut view_idx);
            sim_ref.view_into(&mut view_ref);
            assert_views_equal(&view_idx, &view_ref);
        }
        // The maintained fit indices stay consistent with the node state on
        // both engines (this also cross-checks the aggregates).
        sim_idx.cluster().check_invariants().expect("indexed sim");
        sim_ref.cluster().check_invariants().expect("reference sim");
        assert!(epochs < 20_000, "paired run did not terminate");
    }

    let res_idx = sim_idx.finalize();
    let res_ref = sim_ref.finalize();
    assert_eq!(res_idx.summary, res_ref.summary, "summaries diverged");
    assert_eq!(
        res_idx.completed, res_ref.completed,
        "completion records diverged"
    );
    epochs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads × random valid/invalid action scripts: the indexed
    /// placement path is byte-identical to the reference walk at every
    /// epoch, after every action, and in the final run records.
    #[test]
    fn indexed_placement_matches_reference_walk(
        params in prop::collection::vec(arb_job_params(), 1..18),
        script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
        interval in 1.0f64..6.0,
    ) {
        let jobs = build_jobs(&params);
        run_paired(jobs, &script, interval);
    }
}

/// True when the fit query for `per_unit` on `class` skips a node: its rank
/// floor is non-zero and some node of the class ranks below it.
fn floor_prunes(c: &Cluster, class: NodeClassId, per_unit: &ResourceVector) -> bool {
    let cap = c.unit_capacity_of_class(class);
    let floor = rank_floor(per_unit, &cap);
    floor > 0
        && c.nodes_of_class(class)
            .any(|n| bucket_rank(&n.free(), &cap) < floor)
}

/// Direct cluster-level differential: random demand/unit sequences with
/// interleaved releases; `find_placement` must return the identical
/// placement vector on both paths after every mutation, and the counting
/// queries must match a fresh per-node saturating sum. The cases together
/// must query at least once past a node below a non-zero rank floor, so the
/// floored walk is part of what is compared.
#[test]
fn cluster_paths_agree_under_random_churn() {
    static PRUNED: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn cluster_paths_agree_under_random_churn(
            ops in prop::collection::vec(
                (0usize..4, 0.5f64..8.0, 0.5f64..40.0, 0.0f64..2.0, 1u32..7, any::<bool>()),
                1..60,
            ),
        ) {
            let mut c = Cluster::new(ClusterSpec::icpp_default());
            let mut live: Vec<(ResourceVector, Vec<Placement>)> = Vec::new();
            for (class, cpu, mem, gpu, units, release) in ops {
                let class = NodeClassId(class % c.num_classes());
                let per_unit = ResourceVector::of(cpu, mem, gpu.floor(), 0.25);
                let prunes = floor_prunes(&c, class, &per_unit);
                PRUNED.fetch_add(usize::from(prunes), Ordering::Relaxed);
                c.set_indexed_placement(true);
                let indexed = c.find_placement(class, &per_unit, units);
                c.set_indexed_placement(false);
                let walk = c.find_placement(class, &per_unit, units);
                prop_assert_eq!(&indexed, &walk, "placement paths diverged");
                let fresh_sum = c
                    .nodes_of_class(class)
                    .map(|n| n.units_that_fit(&per_unit))
                    .filter(|&u| u != u32::MAX)
                    .fold(0u32, |a, u| a.saturating_add(u));
                prop_assert_eq!(c.units_available(class, &per_unit), fresh_sum);
                prop_assert_eq!(
                    c.max_placeable_units(class, &per_unit, units),
                    fresh_sum.min(units)
                );
                if let Some(p) = indexed {
                    c.apply_placement(&per_unit, &p);
                    live.push((per_unit, p));
                }
                if release && !live.is_empty() {
                    let (d, p) = live.remove(live.len() / 2);
                    c.release_placement(&d, &p);
                }
                c.check_invariants().expect("invariants hold under churn");
            }
        }
    }
    cluster_paths_agree_under_random_churn();
    assert!(
        PRUNED.load(Ordering::Relaxed) > 0,
        "no query skipped a node below a non-zero rank floor"
    );
}

#[test]
fn paired_run_with_dense_script_churns_the_index() {
    // Deterministic, action-dense companion to the proptest.
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
    let epochs = run_paired(jobs, &script, 2.0);
    assert!(epochs >= 14, "expected at least one epoch per job");
}

#[test]
fn units_available_saturates_at_scale_instead_of_wrapping() {
    // Satellite regression at the new scale tier: a 16k-node class whose
    // per-node fit is ~2^20 sums to ~2^34 — far past u32::MAX. The old
    // unchecked `.sum::<u32>()` wrapped in release builds; the count must
    // saturate (and the capped variant must exit early with the exact cap).
    let spec = ClusterSpec::new(vec![NodeClassSpec::new(
        "huge",
        16_384,
        ResourceVector::of(1_048_576.0, 0.0, 0.0, 0.0),
        SpeedProfile::uniform(1.0),
    )]);
    let c = Cluster::new(spec);
    let sliver = ResourceVector::of(1.0, 0.0, 0.0, 0.0);
    assert_eq!(c.units_available(NodeClassId(0), &sliver), u32::MAX);
    assert_eq!(
        c.units_available_capped(NodeClassId(0), &sliver, 1000),
        1000
    );
    assert_eq!(c.max_placeable_units(NodeClassId(0), &sliver, 64), 64);

    // The view-side count saturates identically.
    let sim = Simulator::new(c.spec().clone(), SimConfig::default());
    let view = sim.view();
    assert_eq!(view.classes[0].units_available(&sliver), u32::MAX);
    assert_eq!(view.classes[0].units_available_capped(&sliver, 1000), 1000);
}

#[test]
fn walk_and_indexed_configs_round_trip_through_serde() {
    // The toggle (and the legacy default) survive config serialisation.
    let cfg = SimConfig::default();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert!(back.placement_index);
    // A config JSON predating the field deserialises to the default (on).
    let legacy_json = json
        .replace(",\"placement_index\":true", "")
        .replace("\"placement_index\":true,", "");
    assert_ne!(legacy_json, json, "field must have been present");
    let legacy: SimConfig = serde_json::from_str(&legacy_json).unwrap();
    assert!(legacy.placement_index);
}
