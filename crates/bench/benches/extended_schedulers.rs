//! Criterion bench: decision latency of the extended heuristics (EASY
//! backfilling, HEFT, slack-pack) and the cost of the energy/fairness
//! post-processing added to the metrics pipeline (the data behind Table 5 /
//! Figure 10).

mod fixtures;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixtures::loaded_view;
use std::hint::black_box;
use std::time::Duration;
use tcrm_baselines::by_name;
use tcrm_sim::{ClusterSpec, SimConfig, Simulator};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

fn bench_extended_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extended_decision_latency");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    for &scale in &[1.0f64, 4.0] {
        let view = loaded_view(scale);
        let nodes = view.spec.num_nodes();
        for name in ["backfill", "heft", "slack-pack", "edf"] {
            group.bench_with_input(BenchmarkId::new(name, nodes), &view, |b, view| {
                let mut scheduler = by_name(name, 1).expect("known baseline");
                // Forget per-run state every call, so EDF's row times its
                // full start pass rather than its memoized re-decide.
                b.iter(|| {
                    scheduler.on_simulation_start();
                    black_box(scheduler.decide(black_box(view)))
                });
            });
        }
    }
    group.finish();
}

fn bench_energy_report(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy_report");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    let cluster = ClusterSpec::icpp_default();
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(200)
        .with_load(0.9);
    let jobs = SyntheticSource::new(&workload, &cluster, 3)
        .expect("valid spec")
        .collect();
    let mut scheduler = by_name("edf", 3).unwrap();
    let result = Simulator::new(cluster.clone(), SimConfig::default()).run(jobs, &mut scheduler);
    group.bench_function("from_trace", |b| {
        b.iter(|| {
            black_box(
                result
                    .trace
                    .energy_report(black_box(&cluster), result.summary.completed_jobs),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extended_decisions, bench_energy_report);
criterion_main!(benches);
