//! Counting-allocator proof of the streaming serving plane's memory model:
//!
//! 1. **Steady-state allocation discipline** — after the pipeline's warm-up
//!    (block buffers, channels, telemetry, the meta map), the per-job ingest
//!    cost of [`ServeSession::run_source`] is allocation-free: quadrupling
//!    the job count adds only a handful of allocations (container growth to
//!    the warm-up plateau), not O(jobs). Block buffers are recycled through
//!    the back-channel instead of reallocated.
//! 2. **Bounded peak** — peak live bytes of a streaming run are a function
//!    of `producers × chunk × channel_capacity + queue_cap`, not of the
//!    total arrival count: a 4× longer run peaks within noise of the short
//!    one.
//!
//! The driving scheduler returns the empty action list (no allocation) so
//! every measured byte is attributable to the ingest pipeline, and the run
//! uses `bounded_metrics` + `log_events: false` — the documented
//! million-arrival configuration. A single `#[test]` in its own binary keeps
//! concurrent test threads from polluting the counters.

use tcrm_serve::{ServeConfig, ServeReport, ServeSession, ShedPolicy};
use tcrm_sim::{Action, ClusterSpec, ClusterView, Scheduler, SimConfig};
use tcrm_testkit::metered;
use tcrm_workload::{SyntheticSource, WorkloadSpec};

/// Never acts: `decide` returns an empty vec (no allocation), so the run is
/// pure ingest — arrivals, admission, shedding — and ends via the deadlock
/// guard once producers drain.
struct Inert;
impl Scheduler for Inert {
    fn name(&self) -> &str {
        "inert"
    }
    fn decide(&mut self, _view: &ClusterView) -> Vec<Action> {
        Vec::new()
    }
}

fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.bounded_metrics = true;
    cfg.max_sim_time = 1e12;
    cfg
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        producers: 4,
        channel_capacity: 4,
        chunk: 64,
        queue_cap: 64,
        shed_policy: ShedPolicy::RejectNewest,
        seed: 7,
        log_events: false,
        ..ServeConfig::default()
    }
}

fn streamed(n: usize) -> ServeReport {
    let cluster = ClusterSpec::icpp_default();
    let spec = WorkloadSpec::icpp_default().with_num_jobs(n);
    let mut session = ServeSession::new(cluster.clone(), sim_config(), serve_config());
    session.run_source(
        || SyntheticSource::new(&spec, &cluster, 7).unwrap(),
        &mut Inert,
    )
}

#[test]
fn streaming_ingest_is_alloc_disciplined_and_peak_bounded() {
    const SHORT: usize = 10_000;
    const LONG: usize = 40_000;

    // Warm up thread-local and lazy-init state outside the measurements.
    assert_eq!(streamed(256).summary.total_jobs, 256);

    let (short_allocs, short_peak) = metered(|| {
        assert_eq!(streamed(SHORT).summary.total_jobs, SHORT);
    });
    let (long_allocs, long_peak) = metered(|| {
        assert_eq!(streamed(LONG).summary.total_jobs, LONG);
    });

    eprintln!(
        "streaming {SHORT}: {short_allocs} allocs, peak {short_peak} B; \
         streaming {LONG}: {long_allocs} allocs, peak {long_peak} B"
    );

    // 1. Steady-state allocation discipline: 30k extra jobs must not buy
    //    30k extra allocations. The slack covers telemetry decimation
    //    rounds and late container doublings; it is ~0.5% of the extra
    //    jobs, so any per-job allocation in the ingest loop blows it.
    let extra_jobs = (LONG - SHORT) as u64;
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra_allocs < extra_jobs / 200,
        "ingest allocates per job: {extra_allocs} extra allocations for {extra_jobs} extra jobs"
    );

    // 2. Peak live bytes are a function of the pipeline, not the workload:
    //    4x the arrivals stays within 2x of the short run's peak (noise
    //    from thread scheduling), nowhere near the 4x a job buffer would
    //    show.
    assert!(
        long_peak < short_peak * 2,
        "streaming peak grew with job count: {short_peak} B -> {long_peak} B"
    );
}
