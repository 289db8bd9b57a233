//! Criterion bench: the serving plane at scale — streamed ingest of
//! synthetic poisson arrivals under the virtual clock.
//!
//! Two layers:
//!
//! * A criterion row (`serve_scale/ingest/stream/...`) times full serving
//!   runs at the 100k-arrival tier — it feeds the committed snapshot and the
//!   regression gate.
//! * A one-shot million-arrival report (full mode only): the tier runs once
//!   under a peak-tracking allocator and prints wall time, jobs/s and peak
//!   live bytes. That the peak does not grow with the arrival count is
//!   asserted by `crates/serve/tests/alloc_bounded_stream.rs` at test
//!   scale.
//!
//! `TCRM_SIM_SCALE=smoke` shrinks the tier to 20k arrivals and skips the
//! million-arrival report — the CI bench-smoke configuration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tcrm_baselines::EdfScheduler;
use tcrm_serve::{ServeConfig, ServeReport, ServeSession, ShedPolicy};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

struct PeakAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let live = LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed) + new_size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// True when `TCRM_SIM_SCALE=smoke`: shrink the tier, skip the 1M report.
fn smoke_only() -> bool {
    std::env::var("TCRM_SIM_SCALE").is_ok_and(|v| v == "smoke")
}

/// The documented million-run configuration: bounded-aggregate metrics, no
/// event-log text, a real admission cap so overload arrival bursts shed.
fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.bounded_metrics = true;
    cfg.max_sim_time = 1e12;
    cfg
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        producers: 4,
        channel_capacity: 16,
        queue_cap: 64,
        shed_policy: ShedPolicy::RejectNewest,
        seed: 7,
        log_events: false,
        ..ServeConfig::default()
    }
}

fn run_streamed(n: usize) -> ServeReport {
    let cluster = ClusterSpec::icpp_default();
    let spec = WorkloadSpec::icpp_default().with_num_jobs(n);
    let mut session = ServeSession::new(cluster.clone(), sim_config(), serve_config());
    session.run_source(
        || SyntheticSource::new(&spec, &cluster, 7).expect("valid spec"),
        &mut EdfScheduler::new(),
    )
}

/// Run one tier once, printing wall time, jobs/s and peak live bytes.
fn report_tier(label: &str, n: usize, run: impl FnOnce(usize) -> ServeReport) {
    let live0 = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(live0, Ordering::SeqCst);
    let started = Instant::now();
    let report = run(n);
    let wall = started.elapsed().as_secs_f64();
    let peak = PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(live0);
    assert_eq!(report.summary.total_jobs, n);
    eprintln!(
        "serve_scale: {label} n={n} wall={wall:.2}s rate={:.0} jobs/s peak={:.1} MiB",
        n as f64 / wall.max(1e-9),
        peak as f64 / (1024.0 * 1024.0),
    );
}

fn bench_serve_scale(c: &mut Criterion) {
    let n = if smoke_only() { 20_000 } else { 100_000 };
    let label = format!("{}k", n / 1000);

    let mut group = c.benchmark_group("serve_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_only() { 2 } else { 8 }));
    group.bench_function(BenchmarkId::new("ingest/stream", &label), |b| {
        b.iter(|| run_streamed(n).summary.completed_jobs)
    });
    group.finish();

    // The million-arrival tier: one run, reported (not criterion-sampled —
    // a 1M run is seconds, and the peak-memory story is the point).
    if !smoke_only() {
        report_tier("stream", 1_000_000, run_streamed);
    }
}

criterion_group!(benches, bench_serve_scale);
criterion_main!(benches);
