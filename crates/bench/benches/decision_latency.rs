//! Criterion bench: per-decision latency of each scheduler on a loaded view,
//! as a function of cluster size (the data behind Table 4's latency column).

mod fixtures;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixtures::loaded_view;
use std::time::Duration;
use tcrm_core::{ActionSpace, AgentConfig, DrlScheduler, StateEncoder};
use tcrm_rl::CategoricalPolicy;
use tcrm_sim::Scheduler;

fn untrained_agent(num_classes: usize) -> DrlScheduler {
    let config = AgentConfig::default();
    let encoder = StateEncoder::new(&config, num_classes);
    let actions = ActionSpace::new(&config, num_classes);
    let policy = CategoricalPolicy::new(
        encoder.observation_dim(),
        &config.policy_hidden,
        actions.action_count(),
        0,
    );
    DrlScheduler::new(policy, config, num_classes)
}

fn bench_decisions(c: &mut Criterion) {
    // The DRL decision is dominated by the policy forward pass, so these
    // numbers depend on the nn kernel backend: record which one ran (force
    // with TCRM_KERNEL=scalar|simd when comparing snapshots).
    eprintln!(
        "decision_latency: nn kernel backend = {} (accelerated: {})",
        tcrm_nn::Backend::active().name(),
        tcrm_nn::Backend::active().is_accelerated()
    );
    let mut group = c.benchmark_group("decision_latency");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    for &scale in &[1.0f64, 4.0] {
        let view = loaded_view(scale);
        let nodes = view.spec.num_nodes();
        // EDF and greedy-elastic memoize their start pass across the views
        // of one simulator run; forgetting the memo every call keeps these
        // rows timing the full scan a fresh run pays.
        let mut edf = tcrm_baselines::EdfScheduler::new();
        group.bench_with_input(BenchmarkId::new("edf", nodes), &view, |b, view| {
            b.iter(|| {
                edf.on_simulation_start();
                edf.decide(view).len()
            })
        });
        // The memoized re-decide: the same view again, memo kept.
        group.bench_with_input(BenchmarkId::new("edf_memo", nodes), &view, |b, view| {
            b.iter(|| edf.decide(view).len())
        });
        let mut tetris = tcrm_baselines::TetrisScheduler::new();
        group.bench_with_input(BenchmarkId::new("tetris", nodes), &view, |b, view| {
            b.iter(|| tetris.decide(view).len())
        });
        let mut elastic = tcrm_baselines::GreedyElasticScheduler::new();
        group.bench_with_input(
            BenchmarkId::new("greedy-elastic", nodes),
            &view,
            |b, view| {
                b.iter(|| {
                    elastic.on_simulation_start();
                    elastic.decide(view).len()
                })
            },
        );
        let mut drl = untrained_agent(view.num_classes());
        group.bench_with_input(BenchmarkId::new("drl", nodes), &view, |b, view| {
            // Advance the clock every call: the agent bounds actions per
            // decision epoch, so repeated decides at a frozen view.time
            // degenerate to the epoch-limit early-out (~20 ns) instead of
            // the policy forward this bench exists to measure.
            let mut epoch_view = view.clone();
            b.iter(|| {
                epoch_view.time += 1e-3;
                drl.decide(&epoch_view).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decisions);
criterion_main!(benches);
