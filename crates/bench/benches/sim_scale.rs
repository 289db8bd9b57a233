//! Criterion bench: decision-epoch throughput of the engine at
//! large-cluster scale — 4096 jobs on a 256-node heterogeneous cluster,
//! batch and streaming. The absolute numbers feed the committed snapshot
//! and the scheduled perf-runner regression gate.
//!
//! The scale tiers (`edf_16k`, `edf_64k`) push the same epoch-dense loop to
//! 16,384- and 65,536-machine clusters — past the old 256-node ceiling that
//! the bucketed placement index lifted. The cluster keeps that index in its
//! one row per node class, whose emptiest-first walk serves both placement
//! and the views' unit counts.
//! Set `TCRM_SIM_SCALE=smoke` to run only a small 16k-node tier (fewer
//! jobs, short budget) — the CI bench-smoke configuration.
//!
//! The reference paths (`Simulator::rebuild_view_into`,
//! `Cluster::find_placement_walk`) are test oracles that the engine never
//! runs, so no row measures them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tcrm_baselines::{EdfScheduler, GreedyElasticScheduler};
use tcrm_sim::{ClusterSpec, SimConfig, Simulator};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

const JOBS: usize = 4096;

/// True when `TCRM_SIM_SCALE=smoke`: run only the quick 16k-node tier.
fn smoke_only() -> bool {
    std::env::var("TCRM_SIM_SCALE").is_ok_and(|v| v == "smoke")
}

/// The default heterogeneous cluster scaled to 256 machines (24 → 256,
/// class proportions preserved).
fn big_cluster() -> ClusterSpec {
    let cluster = ClusterSpec::icpp_scaled(256.0 / 24.0);
    assert_eq!(cluster.num_nodes(), 256, "scale factor drifted");
    cluster
}

fn scale_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    // A periodic epoch stream dense enough that view maintenance, not the
    // event heap, dominates — the regime the refactor targets.
    cfg.decision_interval = Some(5.0);
    cfg.max_sim_time = 1e7;
    cfg
}

fn bench_scale(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut group = c.benchmark_group("sim_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    let cluster = big_cluster();
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(JOBS)
        .with_load(0.95);
    let trace: Vec<_> = SyntheticSource::new(&workload, &cluster, 11)
        .expect("valid spec")
        .collect();
    let label = format!("{JOBS}x256");

    // Batch runs through the sweep-style reuse path (one simulator + one
    // retained view per row, reset between iterations) — the EvalSession
    // worker loop in miniature.
    {
        let mut sim = Simulator::new(cluster.clone(), scale_config());
        let mut view = sim.view();
        group.bench_with_input(BenchmarkId::new("edf_batch", &label), &trace, |b, trace| {
            b.iter(|| {
                let mut sched = EdfScheduler::new();
                sim.run_reusing(trace.clone(), &mut sched, &mut view)
                    .completed_jobs
            })
        });
    }

    // Streaming: jobs pulled one at a time (O(pending + running) memory).
    {
        let mut sim = Simulator::new(cluster.clone(), scale_config());
        let mut view = sim.view();
        group.bench_with_input(
            BenchmarkId::new("edf_stream", &label),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut sched = EdfScheduler::new();
                    sim.run_source(trace.iter().cloned(), &mut sched, &mut view)
                        .completed_jobs
                })
            },
        );
    }

    // A scale-happy policy exercises the re-scale + node-dirty paths too.
    {
        let mut sim = Simulator::new(cluster.clone(), scale_config());
        let mut view = sim.view();
        let id = BenchmarkId::new("greedy-elastic_batch", &label);
        group.bench_with_input(id, &trace, |b, trace| {
            b.iter(|| {
                let mut sched = GreedyElasticScheduler::new();
                sim.run_reusing(trace.clone(), &mut sched, &mut view)
                    .completed_jobs
            })
        });
    }

    group.finish();
}

/// The 16k/64k scale tiers. Fewer jobs than the 256-node rows — the point
/// is per-decision placement cost at node counts where an O(nodes) scan
/// would dominate, not job-stream volume.
fn bench_scale_tiers(c: &mut Criterion) {
    let smoke = smoke_only();
    let mut group = c.benchmark_group("sim_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke { 2 } else { 8 }));
    let tiers: &[usize] = if smoke { &[16_384] } else { &[16_384, 65_536] };
    for &nodes in tiers {
        let cluster = ClusterSpec::icpp_scaled(nodes as f64 / 24.0);
        assert_eq!(cluster.num_nodes(), nodes, "scale factor drifted");
        // 256 jobs keeps the rows in the placement-dominated regime the
        // index targets (per-decision O(nodes) walk vs O(log n + placed)
        // index on a huge, mostly-free cluster) rather than job-stream
        // bookkeeping; it also keeps smoke and full row names identical,
        // so the CI smoke run diffs cleanly against the snapshot.
        let jobs = 256;
        let workload = WorkloadSpec::icpp_default()
            .with_num_jobs(jobs)
            .with_load(0.95);
        let trace: Vec<_> = SyntheticSource::new(&workload, &cluster, 11)
            .expect("valid spec")
            .collect();
        let name = format!("edf_{}k", nodes / 1024);
        let label = format!("{jobs}x{nodes}");
        let mut sim = Simulator::new(cluster.clone(), scale_config());
        let mut view = sim.view();
        group.bench_with_input(BenchmarkId::new(name, &label), &trace, |b, trace| {
            b.iter(|| {
                let mut sched = EdfScheduler::new();
                sim.run_reusing(trace.clone(), &mut sched, &mut view)
                    .completed_jobs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale, bench_scale_tiers);
criterion_main!(benches);
