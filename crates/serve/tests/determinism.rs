//! The serving plane's three load-bearing guarantees, pinned:
//!
//! 1. **Determinism** — two same-seed virtual-time runs produce a
//!    byte-identical event log and an identical percentile report, despite
//!    real producer threads racing on real channels.
//! 2. **Batch parity** — with admission effectively disabled, a serving run
//!    reports the identical [`Summary`] as `Simulator::run` over the same
//!    jobs (the facade adds observability, never different scheduling) —
//!    including runs the engine aborts, which match `Simulator::run_source`.
//! 3. **Bounded admission** — the queue never exceeds its cap, under every
//!    shed policy, across random workloads and seeds (property-tested).

use proptest::prelude::*;
use tcrm_baselines::EdfScheduler;
use tcrm_serve::{ClockMode, ServeConfig, ServeReport, ServeSession, ShedPolicy};
use tcrm_sim::{Action, ClusterSpec, ClusterView, Job, Scheduler, SimConfig, Simulator};
use tcrm_workload::{ReplaySource, ScenarioRegistry, WorkloadSource, WorkloadSpec};

fn jobs_for(spec_str: &str, n: usize, seed: u64) -> Vec<Job> {
    let registry = ScenarioRegistry::new();
    let base = WorkloadSpec::icpp_default().with_num_jobs(n);
    let cluster = ClusterSpec::icpp_default();
    registry
        .build_str(spec_str, &base, &cluster, seed)
        .unwrap()
        .collect()
}

/// The same jobs as a cheaply cloneable replay: `|| replay.clone()` is the
/// source factory that serves a collected job list.
fn replay_for(spec_str: &str, n: usize, seed: u64) -> ReplaySource {
    ReplaySource::from_jobs(jobs_for(spec_str, n, seed))
}

/// A rebuildable source factory over the same scenario `jobs_for` collects —
/// what `run_source` hands each producer thread.
fn source_for(spec_str: &'static str, n: usize, seed: u64) -> impl Fn() -> Box<dyn WorkloadSource> {
    move || {
        let registry = ScenarioRegistry::new();
        let base = WorkloadSpec::icpp_default().with_num_jobs(n);
        let cluster = ClusterSpec::icpp_default();
        registry.build_str(spec_str, &base, &cluster, seed).unwrap()
    }
}

fn session(config: ServeConfig) -> ServeSession {
    ServeSession::new(ClusterSpec::icpp_default(), SimConfig::default(), config)
}

#[test]
fn same_seed_virtual_runs_are_byte_identical() {
    let replay = replay_for("poisson+overload(2x,60s)", 120, 11);
    let config = ServeConfig {
        producers: 6,
        channel_capacity: 8,
        queue_cap: 12,
        shed_policy: ShedPolicy::RejectLatestDeadline,
        seed: 3,
        mode: ClockMode::Virtual,
        ..ServeConfig::default()
    };
    let a = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
    let b = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
    assert!(!a.event_log.is_empty());
    assert_eq!(
        a.event_log, b.event_log,
        "event logs must be byte-identical"
    );
    assert_eq!(
        a.telemetry.render_markdown(),
        b.telemetry.render_markdown(),
        "percentile reports must be identical"
    );
    assert_eq!(a.summary, b.summary);
}

#[test]
fn producer_count_does_not_change_the_outcome() {
    // Thread scheduling and channel sizes affect timing only: the merged
    // arrival order is a pure function of the jobs, so even the *partition*
    // shape must not leak into scheduling outcomes (only into the
    // producer= attribution in the log).
    let replay = replay_for("poisson", 80, 5);
    let mut base = ServeConfig::default();
    base.queue_cap = usize::MAX / 2;
    let reference = session(base).run_source(|| replay.clone(), &mut EdfScheduler::new());
    for (producers, capacity) in [(1, 1), (2, 3), (9, 64)] {
        let mut config = base;
        config.producers = producers;
        config.channel_capacity = capacity;
        let run = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
        assert_eq!(
            run.summary, reference.summary,
            "{producers} producers x cap {capacity} changed the summary"
        );
    }
}

#[test]
fn chunk_size_never_leaks_into_the_streamed_outcome() {
    // Block size is a transport knob: it changes how many jobs ride each
    // channel rendezvous, never what the engine observes.
    const SCENARIO: &str = "poisson+spike(10x,5s,at=30)";
    let mut base = ServeConfig::default();
    base.producers = 3;
    base.queue_cap = 10;
    base.seed = 5;
    let pinned = session(base).run_source(source_for(SCENARIO, 90, 5), &mut EdfScheduler::new());
    assert!(!pinned.event_log.is_empty());
    for chunk in [1usize, 5, 64, 1024] {
        let mut config = base;
        config.chunk = chunk;
        let run = session(config).run_source(source_for(SCENARIO, 90, 5), &mut EdfScheduler::new());
        assert_eq!(run.event_log, pinned.event_log, "chunk {chunk}");
        assert_eq!(run.summary, pinned.summary, "chunk {chunk}");
        assert_eq!(run.telemetry, pinned.telemetry, "chunk {chunk}");
    }
}

#[test]
fn disabling_the_event_log_changes_nothing_but_the_log() {
    const SCENARIO: &str = "poisson+overload(2x,60s)";
    let mut config = ServeConfig::default();
    config.queue_cap = 12;
    config.seed = 9;
    let logged = session(config).run_source(source_for(SCENARIO, 80, 9), &mut EdfScheduler::new());
    config.log_events = false;
    let silent = session(config).run_source(source_for(SCENARIO, 80, 9), &mut EdfScheduler::new());
    assert!(!logged.event_log.is_empty());
    assert!(
        silent.event_log.is_empty(),
        "log off must leave the log empty"
    );
    assert_eq!(silent.summary, logged.summary);
    assert_eq!(silent.telemetry, logged.telemetry);
}

#[test]
fn serving_matches_the_batch_driver_when_admission_is_disabled() {
    let mut config = ServeConfig::default();
    config.queue_cap = usize::MAX / 2; // never sheds
    let check = |label: &str, jobs: Vec<Job>, serve: ServeReport| {
        let batch = Simulator::new(ClusterSpec::icpp_default(), SimConfig::default())
            .run(jobs, &mut EdfScheduler::new());
        assert_eq!(
            serve.summary, batch.summary,
            "{label}: serving must reproduce the batch summary"
        );
        assert_eq!(serve.telemetry.shed_total(), 0);
        assert!(!serve.aborted);
    };
    for scenario in ["poisson", "poisson+spike(10x,5s,at=30)"] {
        let jobs = jobs_for(scenario, 100, 21);
        let replay = ReplaySource::from_jobs(jobs.clone());
        let replayed = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
        check(scenario, jobs.clone(), replayed);
        let streamed =
            session(config).run_source(source_for(scenario, 100, 21), &mut EdfScheduler::new());
        check(scenario, jobs, streamed);
    }
    // Arrivals snapped down to the 5 s sampling grid tie with utilisation
    // samples and decision epochs: an arrival must win every tie on both
    // sides.
    let snapped: Vec<Job> = jobs_for("poisson", 100, 21)
        .into_iter()
        .map(|mut job| {
            job.arrival = (job.arrival / 5.0).floor() * 5.0;
            job
        })
        .collect();
    let replay = ReplaySource::from_jobs(snapped.clone());
    let replayed = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
    check("poisson on the sampling grid", snapped, replayed);
}

/// Never acts, so every job stays pending until the engine gives up.
struct Inert;
impl Scheduler for Inert {
    fn name(&self) -> &str {
        "inert"
    }
    fn decide(&mut self, _view: &ClusterView) -> Vec<Action> {
        Vec::new()
    }
}

/// Serve `replay` with admission disabled and check the report against the
/// engine's own streaming driver over the same jobs; both runs must abort.
fn assert_aborted_run_matches_run_source<S: Scheduler>(
    sim: SimConfig,
    replay: &ReplaySource,
    scheduler: impl Fn() -> S,
) {
    let cluster = ClusterSpec::icpp_default();
    let mut engine = Simulator::new(cluster.clone(), sim.clone());
    let mut view = engine.view();
    let reference = engine.run_source(replay.clone(), &mut scheduler(), &mut view);
    assert!(engine.is_aborted());
    assert_eq!(reference.total_jobs, replay.len());
    for producers in [1, 4] {
        let config = ServeConfig {
            producers,
            channel_capacity: 2,
            chunk: 3,
            queue_cap: usize::MAX / 2,
            ..ServeConfig::default()
        };
        let mut session = ServeSession::new(cluster.clone(), sim.clone(), config);
        let report = session.run_source(|| replay.clone(), &mut scheduler());
        assert!(report.aborted, "{producers} producers");
        assert_eq!(report.telemetry.shed_total(), 0);
        assert_eq!(report.summary, reference, "{producers} producers");
    }
}

#[test]
fn a_run_truncated_at_max_sim_time_counts_the_jobs_producers_still_hold() {
    // The horizon ends the run while most arrivals are still queued in
    // producer channels (or not yet produced): they must count toward
    // `total_jobs` exactly as the engine's own streaming driver counts them.
    let replay = replay_for("poisson", 200, 4);
    let horizon = replay.clone().nth(40).unwrap().arrival;
    let sim = SimConfig {
        max_sim_time: horizon,
        ..SimConfig::default()
    };
    assert_aborted_run_matches_run_source(sim, &replay, EdfScheduler::new);
}

#[test]
fn a_never_starting_scheduler_trips_the_deadlock_guard() {
    let replay = replay_for("poisson", 60, 8);
    assert_aborted_run_matches_run_source(SimConfig::default(), &replay, || Inert);
}

#[test]
fn wall_mode_matches_virtual_mode_job_visible_behaviour() {
    let replay = replay_for("poisson+overload(2x,60s)", 60, 9);
    let mut config = ServeConfig::default();
    config.queue_cap = 10;
    let virt = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
    config.mode = ClockMode::Wall;
    let wall = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
    assert_eq!(virt.event_log, wall.event_log);
    assert_eq!(virt.summary, wall.summary);
    assert!(virt.telemetry.epoch_compute.is_empty());
    assert!(
        !wall.telemetry.epoch_compute.is_empty(),
        "wall mode must measure per-epoch compute"
    );
}

#[test]
fn overload_run_sheds_and_reports_tails_under_every_policy() {
    let replay = replay_for("poisson+overload(2x,60s)", 150, 13);
    for policy in ShedPolicy::ALL {
        let mut config = ServeConfig::default();
        config.queue_cap = 8;
        config.shed_policy = policy;
        let report = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
        assert!(report.telemetry.max_queue_depth <= 8, "{policy}");
        assert_eq!(
            report.summary.total_jobs, 150,
            "{policy}: shed jobs still count toward the total"
        );
        let rendered = report.telemetry.render_markdown();
        assert!(rendered.contains("decision latency p999"), "{policy}");
        if policy == ShedPolicy::DegradeToRigid {
            assert!(
                report.telemetry.degraded_total() > 0,
                "a 2x overload must trip the degrade threshold"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The admission bound is hard: across policies, caps, seeds and
    /// workload shapes, the queue never exceeds its cap and the accounting
    /// always balances (submitted = shed + everything that stayed).
    #[test]
    fn queue_depth_never_exceeds_the_cap(
        seed in 0u64..1000,
        cap in 1usize..24,
        policy_pick in 0usize..3,
        n in 20usize..120,
        factor in 1.0f64..6.0,
    ) {
        let scenario = format!("poisson+overload({factor}x,60s)");
        let replay = replay_for(&scenario, n, seed);
        let config = ServeConfig {
            producers: 1 + (seed as usize % 5),
            channel_capacity: 1 + (seed as usize % 7),
            queue_cap: cap,
            shed_policy: ShedPolicy::ALL[policy_pick],
            seed,
            mode: ClockMode::Virtual,
            ..ServeConfig::default()
        };
        let report = session(config).run_source(|| replay.clone(), &mut EdfScheduler::new());
        prop_assert!(
            report.telemetry.max_queue_depth <= cap,
            "depth {} over cap {}", report.telemetry.max_queue_depth, cap
        );
        prop_assert_eq!(report.summary.total_jobs, n);
        let t = &report.telemetry;
        prop_assert_eq!(t.submitted_total(), n as u64);
        prop_assert!(t.shed_total() <= t.submitted_total());
    }
}
