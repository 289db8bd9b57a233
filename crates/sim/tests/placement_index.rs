//! Oracle tests of the bucketed placement index. Engine runs step one
//! simulator through the shared harness (`common`), which checks
//! `Cluster::find_placement` against the reference walk
//! `Cluster::find_placement_walk` for every pending job on every class at
//! every step, next to the view and cluster-invariant oracles. Their
//! workloads mix GPU and CPU-only demands on a cluster with a GPU class, so
//! queries take both the rank-floored walk and the full walk (a CPU-only
//! job leaves the GPU dimension undemanded).
//!
//! Also hosts the direct `Cluster`-level differential proptest, which also
//! checks the class snapshots' unit counts, and the 16k-node saturating
//! `units_available` regression test (the `u32` sum used to wrap in release
//! builds).

mod common;

use common::{
    arb_job_params, assert_dense_coverage, build_jobs, dense_params, dense_script, floor_prunes,
    run_against_oracles,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcrm_sim::node::SpeedProfile;
use tcrm_sim::prelude::*;
use tcrm_sim::units_that_fit;

/// Three classes of different shapes, one with GPUs.
fn gpu_spec() -> ClusterSpec {
    ClusterSpec::new(vec![
        NodeClassSpec::new(
            "cpu",
            3,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        ),
        NodeClassSpec::new(
            "gpu",
            2,
            ResourceVector::of(16.0, 64.0, 2.0, 10.0),
            SpeedProfile::uniform(2.0),
        ),
        NodeClassSpec::new(
            "edge",
            2,
            ResourceVector::of(4.0, 8.0, 0.0, 5.0),
            SpeedProfile::uniform(0.5),
        ),
    ])
}

/// Random workloads × random valid/invalid action scripts on the GPU
/// cluster: every placement query is byte-identical to the reference walk
/// at every epoch and after every action. The cases together must query
/// past a node below a non-zero rank floor, so the floored walk is part of
/// what is compared.
#[test]
fn indexed_placement_matches_reference_walk() {
    static PRUNED: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn indexed_placement_matches_reference_walk(
            params in prop::collection::vec(arb_job_params(1), 1..18),
            script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
            interval in 1.0f64..6.0,
        ) {
            let run = run_against_oracles(gpu_spec(), build_jobs(&params), &script, interval);
            PRUNED.fetch_add(run.pruned_queries, Ordering::Relaxed);
        }
    }
    indexed_placement_matches_reference_walk();
    assert!(
        PRUNED.load(Ordering::Relaxed) > 0,
        "no placement query skipped a node below a non-zero rank floor"
    );
}

/// Direct cluster-level differential: random demand/unit sequences with
/// interleaved releases; after every mutation the class snapshot the engine
/// builds (`Cluster::class_view`) must count what a fresh per-node
/// saturating sum counts, uncapped and capped, and `find_placement` must
/// return the identical placement vector as `find_placement_walk`. The cases
/// together must query at least once past a node below a non-zero rank
/// floor, so the floored walk is part of what is compared.
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
            let mut c = Cluster::new(&ClusterSpec::icpp_default());
            let mut live: Vec<(ResourceVector, Vec<Placement>)> = Vec::new();
            for (class, cpu, mem, gpu, units, release) in ops {
                let class = NodeClassId(class % c.num_classes());
                let per_unit = ResourceVector::of(cpu, mem, gpu.floor(), 0.25);
                let prunes = floor_prunes(&c, class, &per_unit);
                PRUNED.fetch_add(usize::from(prunes), Ordering::Relaxed);
                let fresh_sum = c
                    .class_row(class)
                    .node_free
                    .iter()
                    .map(|free| units_that_fit(free, &per_unit))
                    .fold(0u32, u32::saturating_add);
                let view = c.class_view(class);
                prop_assert_eq!(
                    view.units_available(&per_unit),
                    fresh_sum,
                    "unit count diverged from the per-node sum"
                );
                for cap in [units, fresh_sum, fresh_sum + 1] {
                    prop_assert_eq!(
                        view.units_available_capped(&per_unit, cap),
                        fresh_sum.min(cap),
                        "unit count capped at {} diverged",
                        cap
                    );
                }
                let indexed = c.find_placement(class, &per_unit, units);
                let walk = c.find_placement_walk(class, &per_unit, units);
                prop_assert_eq!(&indexed, &walk, "placement paths diverged");
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
    // Deterministic, action-dense companion to the proptest; every fourth
    // job wants a GPU.
    let jobs = build_jobs(&dense_params(36, 4));
    let run = run_against_oracles(gpu_spec(), jobs, &dense_script(), 2.0);
    assert!(run.epochs >= 36, "expected at least one epoch per job");
    assert!(
        run.pruned_queries > 0,
        "the dense script must query below a non-zero rank floor"
    );
    assert_dense_coverage(&run);
}

#[test]
fn units_available_saturates_at_scale_instead_of_wrapping() {
    // A 16k-node class whose per-node fit is ~2^20 sums to ~2^34 — far past
    // u32::MAX. The old unchecked `.sum::<u32>()` wrapped in release builds;
    // the count must saturate (and the capped variant must exit early with
    // the exact cap).
    let spec = ClusterSpec::new(vec![NodeClassSpec::new(
        "huge",
        16_384,
        ResourceVector::of(1_048_576.0, 0.0, 0.0, 0.0),
        SpeedProfile::uniform(1.0),
    )]);
    let sim = Simulator::new(spec, SimConfig::default());
    let view = sim.view();
    let class = &view.classes[0];
    let sliver = ResourceVector::of(1.0, 0.0, 0.0, 0.0);
    assert_eq!(class.units_available(&sliver), u32::MAX);
    assert_eq!(class.units_available_capped(&sliver, 1000), 1000);
    assert_eq!(class.units_available_capped(&sliver, 64), 64);
}
