//! Criterion bench: decision latency of the extended heuristics (EASY
//! backfilling, HEFT, slack-pack), greedy Q-value inference of the DQN
//! ablation agent, and the cost of the energy/fairness post-processing added
//! to the metrics pipeline (the data behind Table 5 / Figure 10).

mod fixtures;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixtures::loaded_view;
use std::hint::black_box;
use std::time::Duration;
use tcrm_baselines::by_name;
use tcrm_rl::{DqnAgent, DqnConfig};
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

fn bench_dqn_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqn_inference");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));
    // Shapes matching the default scheduling agent (≈260-dim observation,
    // ≈130 actions).
    let obs_dim = 260;
    let action_count = 131;
    let agent = DqnAgent::new(obs_dim, action_count, &[128, 64], 7, DqnConfig::default());
    let obs: Vec<f32> = (0..obs_dim).map(|i| (i as f32 * 0.01).sin()).collect();
    let mask: Vec<bool> = (0..action_count).map(|i| i % 3 != 0).collect();
    group.bench_function("greedy_masked_q", |b| {
        b.iter(|| {
            black_box(
                agent
                    .q_network()
                    .greedy_masked(black_box(&obs), black_box(&mask)),
            )
        })
    });

    // Batched candidate scoring: stack N observation rows and run one
    // forward (`q_values_batch_ws`) vs N single-row forwards (`q_values`).
    // Acceptance gate: batched wins at every batch ≥ 8.
    for &batch in &[8usize, 32] {
        let mut stacked = tcrm_nn::Matrix::zeros(batch, obs_dim);
        for r in 0..batch {
            for (c, slot) in stacked.row_mut(r).iter_mut().enumerate() {
                *slot = ((r * obs_dim + c) as f32 * 0.01).sin();
            }
        }
        let rows: Vec<Vec<f32>> = (0..batch).map(|r| stacked.row(r).to_vec()).collect();
        group.bench_with_input(
            BenchmarkId::new("q_scoring_per_row", batch),
            &rows,
            |b, rows| {
                b.iter(|| {
                    rows.iter()
                        .map(|obs| agent.q_network().q_values(obs)[0])
                        .sum::<f32>()
                })
            },
        );
        let mut ws = tcrm_nn::Workspace::new();
        group.bench_with_input(
            BenchmarkId::new("q_scoring_batched", batch),
            &stacked,
            |b, stacked| {
                b.iter(|| {
                    agent
                        .q_network()
                        .q_values_batch_ws(black_box(stacked), &mut ws)
                        .sum()
                })
            },
        );
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

criterion_group!(
    benches,
    bench_extended_decisions,
    bench_dqn_inference,
    bench_energy_report
);
criterion_main!(benches);
