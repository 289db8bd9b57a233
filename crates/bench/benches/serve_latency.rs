//! Criterion bench: end-to-end throughput of the serving facade — producer
//! threads, the deterministic merge, admission control and the full
//! decision-epoch loop with telemetry — plus the raw histogram record path.
//!
//! Gated in `scripts/bench_snapshot.sh`: a serving run must stay cheap
//! enough that the facade never becomes the evaluation bottleneck.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tcrm_baselines::EdfScheduler;
use tcrm_serve::{ClockMode, LatencyHistogram, ServeConfig, ServeSession, ShedPolicy};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::{ReplaySource, ScenarioRegistry, WorkloadSpec};

fn scenario_replay(spec_str: &str, n: usize) -> ReplaySource {
    let registry = ScenarioRegistry::new();
    let base = WorkloadSpec::icpp_default().with_num_jobs(n);
    let cluster = ClusterSpec::icpp_default();
    ReplaySource::from_jobs(
        registry
            .build_str(spec_str, &base, &cluster, 7)
            .expect("valid scenario")
            .collect(),
    )
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_latency");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));

    // Full serving runs: nominal load vs 2x overload with shedding.
    for (name, scenario, cap) in [
        ("nominal", "poisson", usize::MAX / 2),
        ("overload2x", "poisson+overload(2x,60s)", 16),
    ] {
        let replay = scenario_replay(scenario, 150);
        group.bench_with_input(BenchmarkId::new("run", name), &replay, |b, replay| {
            let config = ServeConfig {
                producers: 4,
                channel_capacity: 64,
                queue_cap: cap,
                shed_policy: ShedPolicy::RejectLatestDeadline,
                seed: 3,
                mode: ClockMode::Virtual,
                ..ServeConfig::default()
            };
            b.iter(|| {
                let mut session =
                    ServeSession::new(ClusterSpec::icpp_default(), SimConfig::default(), config);
                let report = session.run_source(|| replay.clone(), &mut EdfScheduler::new());
                report.telemetry.decision_latency.count()
            })
        });
    }

    // The raw telemetry hot path: allocation-free histogram recording.
    group.bench_function("hist_record_1k", |b| {
        let mut hist = LatencyHistogram::new();
        let mut x = 1e-6f64;
        b.iter(|| {
            for _ in 0..1000 {
                x = x * 1.001 + 1e-9;
                if x > 1.0 {
                    x = 1e-6;
                }
                hist.record(x);
            }
            hist.count()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
