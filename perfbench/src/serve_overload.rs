//! `serve_overload`: `ServeSession::run_source` streaming a synthetic
//! poisson source with an overload window into the 24-node `icpp_default`
//! cluster under EDF, with `bounded_metrics`, no event log, a small
//! `queue_cap` and `RejectNewest`, so admission sheds. One producer thread
//! plus the serving thread. Per-job ingest dominates: generation, the block
//! mux, admission and shedding (submit, then cancel), bounded metrics.
//!
//! The traced split: `serve.decide.share` and `serve.loop.share` divide the
//! serving thread's wall time and add up to 1; the loop share includes any
//! time the serving thread waits on the producer's channel.
//! `workload.source.share` is the producer thread's time inside the source,
//! which runs concurrently, as a share of that same wall time — it overlaps
//! the other two rather than adding to them.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcrm_baselines::EdfScheduler;
use tcrm_serve::{ServeConfig, ServeReport, ServeSession, ShedPolicy};
use tcrm_sim::{ClusterSpec, Job, SimConfig};
use tcrm_workload::{ScenarioRegistry, ScenarioSpec, WorkloadSource, WorkloadSpec};

use crate::timing::{Sink, Spanned, Timed};
use crate::trace::{self, span, Collected, Tracer};
use crate::{digest, measure_for, ratio, repeat_setup, save_spans, Opts, Outcome, Tally};

const ARRIVALS: usize = 40_000;
const QUEUE_CAP: usize = 16;
const SCENARIO: &str = "poisson+overload(3x,20000s)";

fn sim_config() -> SimConfig {
    SimConfig {
        bounded_metrics: true,
        max_sim_time: 1e12,
        ..SimConfig::default()
    }
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        producers: 1,
        channel_capacity: 16,
        queue_cap: QUEUE_CAP,
        shed_policy: ShedPolicy::RejectNewest,
        seed,
        log_events: false,
        ..ServeConfig::default()
    }
}

/// A delegating source that records a `workload.source` span around every
/// `next`. The producer thread that pulls from it records into its own
/// tracer, handed to `collector` when the source drops on that thread.
struct SpannedSource {
    inner: Box<dyn WorkloadSource>,
    epoch: Instant,
    installed: bool,
    collector: Arc<Mutex<Vec<Tracer>>>,
}

impl Iterator for SpannedSource {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if !self.installed && !trace::is_installed() {
            trace::install(1, self.epoch);
            self.installed = true;
        }
        let _s = span("workload.source");
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl WorkloadSource for SpannedSource {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed)
    }
}

impl Drop for SpannedSource {
    fn drop(&mut self) {
        if self.installed {
            if let Some(tracer) = trace::uninstall() {
                if let Ok(mut tracers) = self.collector.lock() {
                    tracers.push(tracer);
                }
            }
        }
    }
}

/// Everything a run's source is rebuilt from.
struct Feed {
    cluster: ClusterSpec,
    registry: ScenarioRegistry,
    scenario: ScenarioSpec,
    base: WorkloadSpec,
}

impl Feed {
    fn source(&self, seed: u64) -> Box<dyn WorkloadSource> {
        self.registry
            .build(&self.scenario, &self.base, &self.cluster, seed)
            .expect("scenario validated at set-up")
    }
}

struct State {
    feed: Feed,
    session: ServeSession,
    timed: Timed<EdfScheduler>,
    reference: u64,
}

/// What every serving run must reproduce exactly.
fn report_digest(report: &ServeReport) -> u64 {
    digest(&(
        &report.summary,
        report.telemetry.submitted_total(),
        report.telemetry.shed_total(),
        report.telemetry.max_queue_depth,
        report.aborted,
    ))
}

fn check_report(report: &ServeReport, reference: u64, tally: &mut Tally) {
    let t = &report.telemetry;
    let (submitted, shed) = (t.submitted_total(), t.shed_total());
    let completed: u64 = t.classes.completed.iter().sum();
    tally.check(report.summary.total_jobs == ARRIVALS, || {
        format!(
            "total_jobs {} != {ARRIVALS} arrivals generated",
            report.summary.total_jobs
        )
    });
    tally.check(submitted == ARRIVALS as u64, || {
        format!("{submitted} jobs submitted for {ARRIVALS} arrivals")
    });
    // The overload window must fill the queue, or the shed path went
    // unmeasured.
    tally.check(shed > 0, || "the overload window shed no job".to_string());
    tally.check(!report.aborted && shed + completed == submitted, || {
        format!(
            "{shed} shed + {completed} completed != {submitted} submitted (aborted: {})",
            report.aborted
        )
    });
    tally.check(t.max_queue_depth <= QUEUE_CAP, || {
        format!(
            "max_queue_depth {} > queue_cap {QUEUE_CAP}",
            t.max_queue_depth
        )
    });
    tally.check(report_digest(report) == reference, || {
        "serving report differs from the warm-up's".to_string()
    });
}

fn setup(seed: u64, sink: &Sink) -> State {
    let cluster = ClusterSpec::icpp_default();
    let registry = ScenarioRegistry::new();
    let scenario = registry.parse(SCENARIO).expect("valid scenario");
    let feed = Feed {
        base: WorkloadSpec::icpp_default().with_num_jobs(ARRIVALS),
        cluster,
        registry,
        scenario,
    };
    let mut session = ServeSession::new(feed.cluster.clone(), sim_config(), serve_config(seed));
    // Warm-up: one full serving run; its report is the reference.
    let report = session.run_source(|| feed.source(seed), &mut EdfScheduler::new());
    State {
        feed,
        session,
        timed: Timed::new(EdfScheduler::new(), sink.clone()),
        reference: report_digest(&report),
    }
}

pub fn run(opts: Opts) -> Outcome {
    let seed = opts.seed;
    let sink = Sink::new();
    let (mut state, setup) = repeat_setup(|| setup(seed, &sink));
    let mut tally = Tally::default();

    let (mut miss_sum, mut runs) = (0.0f64, 0usize);
    let State {
        feed,
        session,
        timed,
        reference,
    } = &mut state;
    let feed = &*feed;
    let mut measured = measure_for(opts.untraced_budget(), 1, &sink, || {
        let report = session.run_source(|| feed.source(seed), timed);
        timed.flush();
        miss_sum += report.summary.miss_rate;
        runs += 1;
        check_report(&report, *reference, &mut tally);
        ARRIVALS as f64
    });
    measured.miss_rate = miss_sum / runs as f64;

    let mut layers = Vec::new();
    if opts.trace {
        let epoch = Instant::now();
        let collector = Arc::new(Mutex::new(Vec::new()));
        trace::install(0, epoch);
        let (mut traced_wall, mut traced_jobs) = (0.0f64, 0usize);
        let mut last: Option<ServeReport> = None;
        let started = Instant::now();
        while last.is_none() || started.elapsed() < opts.traced_budget() {
            let t0 = Instant::now();
            let make = || SpannedSource {
                inner: feed.source(seed),
                epoch,
                installed: false,
                collector: Arc::clone(&collector),
            };
            let report = {
                let _run = span("serve.run");
                let mut edf = Spanned {
                    name: "serve.decide",
                    inner: EdfScheduler::new(),
                };
                session.run_source(make, &mut edf)
            };
            traced_wall += t0.elapsed().as_secs_f64();
            traced_jobs += ARRIVALS;
            check_report(&report, *reference, &mut tally);
            last = Some(report);
        }
        let mut spans = Collected::default();
        spans.tracers.extend(trace::uninstall());
        spans
            .tracers
            .extend(collector.lock().expect("collector poisoned").drain(..));
        let run_ns = spans.agg("serve.run");
        let source = spans.agg("workload.source");
        let decide = spans.agg("serve.decide");
        let report = last.expect("at least one traced run");
        let t = &report.telemetry;
        layers.extend([
            (
                "workload.source.ns_per_job".to_string(),
                source.ns_per_call(),
            ),
            (
                "workload.source.share".into(),
                ratio(source.total_ns as f64, run_ns.total_ns as f64),
            ),
            (
                "serve.decide.share".into(),
                ratio(decide.total_ns as f64, run_ns.total_ns as f64),
            ),
            (
                "serve.loop.share".into(),
                ratio(run_ns.self_ns as f64, run_ns.total_ns as f64),
            ),
            (
                "serve.shed_ratio".into(),
                ratio(t.shed_total() as f64, t.submitted_total() as f64),
            ),
            ("serve.queue_depth_max".into(), t.max_queue_depth as f64),
            (
                "trace.overhead_ratio".into(),
                ratio(traced_wall / traced_jobs as f64, measured.secs_per_unit()),
            ),
        ]);
        tally.notes.push(
            "workload.source.share is concurrent producer-thread time; \
             serve.decide.share + serve.loop.share split the serving thread"
                .to_string(),
        );
        save_spans("serve_overload", &spans, &mut tally);
    }
    Outcome {
        tally,
        setup,
        measured,
        decisions: sink,
        layers,
    }
}
