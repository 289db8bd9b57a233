//! Every bundled scheduler drives one simulator through the public
//! step-wise API (`start` / `advance` / `view_into` / `decide` / `apply` /
//! `compact_log`, the round semantics of the engine's epoch loop), and at
//! every decision round the incrementally refilled view must equal one
//! rebuilt from scratch by `Simulator::rebuild_view_into`. The stepped run's
//! summary and completion records must equal `run_reusing`'s. Together with
//! the engine-level oracle proptests (`tcrm-sim/tests/incremental_view.rs`,
//! which also compare after every single action) this pins the incremental
//! `ClusterView` to the rebuilt one across full runs for the whole
//! scheduler zoo.
//!
//! The same stepping pins the EDF family's start memo
//! (`tcrm_sim::StartMemo`): at every `decide` a memoized scheduler must
//! return exactly what a memo-free twin returns on the same view, including
//! when epochs pass without a decision, when queued jobs were cancelled or
//! degraded since the last decide, and on an older clone of the view; and
//! EDF's exact work counts on a `sim_scale` style trace are pinned, so a
//! memo that silently stops skipping rows fails here.

use tcrm_baselines::greedy_elastic::GreedyElasticConfig;
use tcrm_baselines::{
    all_baseline_names, by_name, AdmissionAdapter, EdfScheduler, GreedyElasticScheduler,
    RigidAdapter,
};
use tcrm_sim::prelude::*;
use tcrm_workload::{SyntheticSource, WorkloadSpec};

/// A deterministic mixed workload: varied arrivals, demands, deadlines,
/// elasticity ranges and malleability, sized to keep several jobs pending
/// and running at once on the default cluster.
fn workload(n: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            // Jittered but non-decreasing (run_source requires sorted
            // arrivals): the jitter term never exceeds the 1.3 base step.
            let arrival = i as f64 * 1.3 + (i % 4) as f64 * 0.3;
            let work = 10.0 + (i * 7 % 53) as f64;
            let slack = 25.0 + (i * 13 % 160) as f64;
            Job::builder(
                JobId(i),
                match i % 4 {
                    0 => JobClass::Batch,
                    1 => JobClass::Stream,
                    2 => JobClass::MlTraining,
                    _ => JobClass::MlInference,
                },
            )
            .arrival(arrival)
            .total_work(work)
            .demand_per_unit(ResourceVector::of(
                1.0 + (i % 3) as f64,
                4.0 + (i % 5) as f64 * 2.0,
                if i % 4 == 2 { 0.5 } else { 0.0 },
                0.5,
            ))
            .parallelism_range(1 + (i % 2) as u32, 2 + (i % 4) as u32)
            .speedup(if i % 2 == 0 {
                SpeedupModel::Linear
            } else {
                SpeedupModel::Amdahl {
                    serial_fraction: 0.1,
                }
            })
            .deadline(arrival + slack)
            .malleable(i % 3 != 0)
            .utility(TimeUtility::hard(1.0))
            .build()
        })
        .collect()
}

fn config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(4.0);
    cfg.scale_cooldown = 8.0;
    cfg.max_sim_time = 1e5;
    cfg
}

/// All scheduler variants under test: the ten named baselines, the two
/// adapters (rigid ablation, deadline admission) wrapped around EDF, and a
/// greedy-elastic tuned to re-scale eagerly — on this light workload the
/// default thresholds never re-scale, and an accepted `Scale` is the only
/// source of the view's `RunningRescaled` patch.
fn scheduler_specs() -> Vec<(String, Box<dyn Scheduler>)> {
    let mut all: Vec<(String, Box<dyn Scheduler>)> = all_baseline_names()
        .into_iter()
        .map(|name| (name.to_string(), by_name(name, 7).expect("known baseline")))
        .collect();
    all.push((
        "edf+rigid".into(),
        Box::new(RigidAdapter::new(EdfScheduler::new())),
    ));
    all.push((
        "edf+admission".into(),
        Box::new(AdmissionAdapter::new(EdfScheduler::new())),
    ));
    all.push((
        "greedy-elastic(eager)".into(),
        Box::new(GreedyElasticScheduler::with_config(GreedyElasticConfig {
            scale_up_slack: 30.0,
            scale_down_slack: 5.0,
        })),
    ));
    all
}

/// A fresh instance of the named scheduler (identical construction + seed
/// ⇒ identical decisions given identical views).
fn scheduler(name: &str) -> Box<dyn Scheduler> {
    scheduler_specs()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, s)| s)
        .expect("scheduler exists")
}

/// Rebuild `oracle` from scratch and require it equal to the incrementally
/// refilled `view`.
fn assert_view_matches_rebuild(sim: &Simulator, view: &ClusterView, oracle: &mut ClusterView) {
    sim.rebuild_view_into(oracle);
    assert_eq!(view.time, oracle.time, "time diverged");
    assert_eq!(view.future_arrivals, oracle.future_arrivals);
    assert_eq!(view.classes, oracle.classes, "class views diverged");
    assert_eq!(view.pending, oracle.pending, "pending rows diverged");
    assert_eq!(view.running, oracle.running, "running rows diverged");
    assert_eq!(
        view.pending_by_deadline, oracle.pending_by_deadline,
        "deadline index diverged"
    );
    assert_eq!(
        view.released_at, oracle.released_at,
        "release stamps diverged"
    );
    let seqs = |v: &ClusterView| v.pending.iter().map(|j| j.arrival_seq).collect::<Vec<_>>();
    assert_eq!(
        seqs(view),
        seqs(oracle),
        "arrival sequence numbers diverged"
    );
    assert_eq!(view.log_position(), oracle.log_position());
}

/// What [`stepped_run`] observed.
struct Stepped {
    summary: Summary,
    completed: Vec<CompletedJob>,
    /// Decision rounds checked.
    rounds: usize,
    /// Rounds whose view shows capacity released on at least two classes
    /// since the scheduler's previous round, one of them by a scale-down.
    multi_release_rounds: usize,
    /// Queued jobs cancelled and degraded by [`Cadence::surgery`].
    cancels: usize,
    degrades: usize,
    /// Cancels and degrades of a job neither first nor last in the queue.
    mid_queue: usize,
}

/// Which epochs [`stepped_run`] decides at, and for how many rounds.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    /// Decide at every `every`-th epoch only; the epochs in between advance
    /// without a decision.
    every: usize,
    /// At most this many rounds per decided epoch (`None`: the engine's
    /// cap). One round ends the epoch even after actions that changed
    /// state, so capacity a scale-down releases is first seen together
    /// with whatever the next epochs release.
    rounds: Option<usize>,
    /// Before the first round of every decided epoch with an even epoch
    /// count and a non-empty queue, take the queued job at a position
    /// chosen from the queue (the `k`-th operation, from 0, takes position
    /// `k` modulo the queue length) and cancel it (every third operation)
    /// or degrade it to rigid.
    surgery: bool,
}

/// The engine's own round semantics, at every epoch.
const EVERY_EPOCH: Cadence = Cadence {
    every: 1,
    rounds: None,
    surgery: false,
};

/// One batch run stepped by hand, checking the view against its rebuild
/// oracle at every decision round. With a `twin` (the same scheduler,
/// forgetting its state before every call), every `decide` must also
/// return exactly the twin's actions.
fn stepped_run(
    cluster: &ClusterSpec,
    jobs: &[Job],
    sched: &mut dyn Scheduler,
    mut twin: Option<&mut dyn Scheduler>,
    cadence: Cadence,
) -> Stepped {
    let mut sim = Simulator::new(cluster.clone(), config());
    let mut view = sim.view();
    let mut oracle = sim.view();
    let max_rounds = cadence
        .rounds
        .unwrap_or(sim.config().max_decisions_per_epoch);
    let (mut checked, mut multi_release_rounds) = (0, 0);
    let (mut cancels, mut degrades, mut mid_queue) = (0, 0, 0);
    let mut epochs = 0;
    // Log position of the previous round's view, and the classes
    // scale-downs released capacity on since.
    let mut last_pos = 0;
    let mut shrunk: Vec<NodeClassId> = Vec::new();
    sched.on_simulation_start();
    sim.start(jobs.to_vec());
    while sim.advance() {
        epochs += 1;
        if epochs % cadence.every != 0 {
            continue;
        }
        let queued = sim.pending_count();
        if cadence.surgery && queued > 0 && epochs % 2 == 0 {
            let k = cancels + degrades;
            let pos = k % queued;
            let id = sim.pending_jobs().nth(pos).expect("position in queue").id;
            if k % 3 == 0 {
                assert!(sim.cancel_pending(id), "{id} is queued");
                cancels += 1;
            } else {
                assert!(sim.degrade_pending_to_rigid(id), "{id} is queued");
                degrades += 1;
            }
            mid_queue += usize::from(pos > 0 && pos + 1 < queued);
        }
        let mut epoch_changed_state = false;
        for _ in 0..max_rounds {
            sim.view_into(&mut view);
            assert_view_matches_rebuild(&sim, &view, &mut oracle);
            checked += 1;
            let released = view.released_at.iter().filter(|&&at| at > last_pos);
            if released.count() >= 2 && !shrunk.is_empty() {
                multi_release_rounds += 1;
            }
            last_pos = view.log_position();
            shrunk.clear();
            let actions = sched.decide(&view);
            if let Some(twin) = twin.as_mut() {
                twin.on_simulation_start();
                assert_eq!(
                    actions,
                    twin.decide(&view),
                    "{}: memoized decide diverged from its twin at round {checked}",
                    sched.name()
                );
            }
            if actions.is_empty() {
                break;
            }
            let mut any_change = false;
            for action in &actions {
                let outcome = sim.apply(action);
                if let (
                    Action::Scale {
                        job,
                        new_parallelism,
                    },
                    ActionOutcome::Scaled,
                ) = (action, &outcome)
                {
                    let row = view.running_job(*job).expect("scaled job was running");
                    if *new_parallelism < row.units {
                        shrunk.push(row.node_class);
                    }
                }
                any_change |= outcome.changed_state();
            }
            epoch_changed_state |= any_change;
            if !any_change || actions.iter().all(|a| matches!(a, Action::Wait)) {
                break;
            }
        }
        sim.compact_log(&view);
        if !epoch_changed_state && sim.is_stalled() {
            sim.abort_service();
        }
    }
    Stepped {
        summary: sim.finish_service(),
        completed: sim.completed_so_far().to_vec(),
        rounds: checked,
        multi_release_rounds,
        cancels,
        degrades,
        mid_queue,
    }
}

#[test]
fn batch_runs_match_rebuild_reference_for_every_scheduler() {
    let cluster = ClusterSpec::icpp_default();
    let jobs = workload(60);
    let mut scale_events = 0;
    for (name, _) in scheduler_specs() {
        let stepped = stepped_run(
            &cluster,
            &jobs,
            scheduler(&name).as_mut(),
            None,
            EVERY_EPOCH,
        );
        assert!(stepped.rounds > 0, "{name}: no decision round was checked");
        let mut sim = Simulator::new(cluster.clone(), config());
        let mut view = sim.view();
        let summary = sim.run_reusing(jobs.clone(), &mut scheduler(&name), &mut view);
        assert_eq!(stepped.summary, summary, "{name}: stepped summary diverged");
        assert_eq!(
            stepped.completed,
            sim.completed_so_far(),
            "{name}: completion records diverged"
        );
        assert!(
            summary.completed_jobs > 0,
            "{name}: degenerate run (nothing completed)"
        );
        scale_events += summary.scale_events;
    }
    assert!(scale_events > 0, "no scheduler applied an accepted Scale");
}

/// The schedulers whose start pass runs through the memo.
const MEMOIZED: [&str; 5] = [
    "edf",
    "greedy-elastic",
    "greedy-elastic(eager)",
    "edf+admission",
    "edf+rigid",
];

/// Five nodes in two classes: [`workload`] queues up on it, so start
/// passes meet jobs that fit nowhere.
fn small_cluster() -> ClusterSpec {
    use tcrm_sim::node::SpeedProfile;
    ClusterSpec::new(vec![
        NodeClassSpec::new(
            "generic",
            3,
            ResourceVector::of(8.0, 32.0, 1.0, 10.0),
            SpeedProfile::uniform(1.0),
        ),
        NodeClassSpec::new(
            "fast",
            2,
            ResourceVector::of(8.0, 16.0, 0.0, 10.0),
            SpeedProfile::uniform(2.0),
        ),
    ])
}

#[test]
fn memoized_decisions_match_a_memo_free_twin() {
    let jobs = workload(80);
    let mut multi_release_rounds = 0;
    for name in MEMOIZED {
        // Queue operations over both clusters: cancels, degrades, mid-queue.
        let mut surgery_ops = (0, 0, 0);
        for cluster in [ClusterSpec::icpp_default(), small_cluster()] {
            for (every, rounds, surgery) in [
                (1, None, false),
                (2, None, false),
                (1, Some(1), false),
                (1, None, true),
            ] {
                let mut twin = scheduler(name);
                let stepped = stepped_run(
                    &cluster,
                    &jobs,
                    scheduler(name).as_mut(),
                    Some(twin.as_mut()),
                    Cadence {
                        every,
                        rounds,
                        surgery,
                    },
                );
                assert!(stepped.rounds > 0, "{name}: no decision round was checked");
                multi_release_rounds += stepped.multi_release_rounds;
                surgery_ops.0 += stepped.cancels;
                surgery_ops.1 += stepped.degrades;
                surgery_ops.2 += stepped.mid_queue;
            }
        }
        let (cancels, degrades, mid_queue) = surgery_ops;
        assert!(
            cancels > 0 && degrades > 0 && mid_queue > 0,
            "{name}: the surgery must cancel and degrade queued jobs, mid-queue too \
             ({cancels} cancels, {degrades} degrades, {mid_queue} mid-queue)"
        );
    }
    // Some round followed releases on two classes, one by a scale-down.
    assert!(
        multi_release_rounds > 0,
        "no multi-class release was checked"
    );
    // On the small cluster the memo must skip rows a full scan evaluates,
    // and take the release pass.
    let mut edf = EdfScheduler::new();
    stepped_run(&small_cluster(), &jobs, &mut edf, None, EVERY_EPOCH);
    let mut memo_free = MemoFreeEdf::default();
    stepped_run(&small_cluster(), &jobs, &mut memo_free, None, EVERY_EPOCH);
    let memo = edf.start_memo();
    assert!(
        memo.memo_rows() > 0
            && memo.release_rows() > 0
            && memo.can_start_calls() < memo_free.can_start_calls,
        "the memo skipped nothing: {memo:?} vs {} memo-free calls",
        memo_free.can_start_calls
    );
}

#[test]
fn queue_surgery_costs_edf_no_full_scan() {
    // Cancels and degrades add no capacity and re-admit a degraded row as an
    // arrival, so only the first decide of the run scans the whole queue
    // (one row: the first job arrives alone).
    let surgery = Cadence {
        surgery: true,
        ..EVERY_EPOCH
    };
    let mut edf = EdfScheduler::new();
    let stepped = stepped_run(
        &small_cluster(),
        &workload(80),
        &mut edf,
        Some(&mut EdfScheduler::new()),
        surgery,
    );
    assert!(stepped.cancels > 0 && stepped.degrades > 0);
    let memo = edf.start_memo();
    assert_eq!(
        memo.full_rows(),
        1,
        "a full scan after queue surgery: {memo:?}"
    );
    assert!(memo.memo_rows() > 0 && memo.release_rows() > 0);
}

/// One node of 8 CPUs and two 6-CPU rigid jobs arriving together: both fit
/// alone, only one fits at a time.
fn contended_view() -> (Simulator, ClusterView) {
    let spec = ClusterSpec::new(vec![NodeClassSpec::new(
        "one",
        1,
        ResourceVector::of(8.0, 32.0, 0.0, 10.0),
        tcrm_sim::node::SpeedProfile::uniform(1.0),
    )]);
    let job = |id| {
        Job::builder(JobId(id), JobClass::Batch)
            .arrival(0.0)
            .total_work(10.0)
            .demand_per_unit(ResourceVector::of(6.0, 4.0, 0.0, 1.0))
            .parallelism_range(1, 1)
            .deadline(100.0 + id as f64)
            .build()
    };
    let mut sim = Simulator::new(spec, config());
    sim.start(vec![job(0), job(1)]);
    assert!(
        sim.advance() && sim.advance(),
        "two arrivals, no decide between"
    );
    let view = sim.view();
    assert_eq!(view.pending.len(), 2);
    (sim, view)
}

#[test]
fn an_older_view_of_the_same_run_gets_a_full_scan() {
    let (mut sim, mut view) = contended_view();
    let old = view.clone();
    let mut edf = EdfScheduler::new();
    let first = edf.decide(&view);
    assert_eq!(first.len(), 2, "both jobs fit alone: {first:?}");
    assert_eq!(edf.start_memo().full_rows(), 2);
    assert!(sim.apply(&first[0]).changed_state());
    assert!(sim.apply(&first[1]).is_invalid());
    sim.view_into(&mut view);
    assert!(view.log_position() > old.log_position());
    assert!(
        edf.decide(&view).is_empty(),
        "the second job no longer fits"
    );
    // The later view of the same run reused the memo: no full scan.
    assert_eq!(edf.start_memo().full_rows(), 2);
    // The older clone still has room for both: it must not reuse the memo
    // made on the later view.
    let mut twin = EdfScheduler::new();
    assert_eq!(edf.decide(&old), twin.decide(&old));
    assert_eq!(edf.start_memo().full_rows(), 4);
    assert_eq!(edf.decide(&old), first);
}

#[test]
fn an_older_view_after_a_release_gets_a_full_scan() {
    let (mut sim, mut view) = contended_view();
    let mut edf = EdfScheduler::new();
    let first = edf.decide(&view);
    assert!(sim.apply(&first[0]).changed_state());
    sim.view_into(&mut view);
    assert!(edf.decide(&view).is_empty(), "job 1 is blocked");
    // Job 0 completes after the memo's view: a release on the same run,
    // and the release pass finds job 1 startable.
    let before = view.log_position();
    while sim.last_epoch() != EpochKind::Completion(JobId(0)) {
        assert!(sim.advance());
    }
    sim.view_into(&mut view);
    assert!(view.released_at[0] > before && view.log_position() >= view.released_at[0]);
    let full_rows = edf.start_memo().full_rows();
    let released = view.clone();
    let start = edf.decide(&released);
    assert_eq!(start, EdfScheduler::new().decide(&released));
    assert_eq!(start.len(), 1, "job 1 fits the released node: {start:?}");
    assert!(edf.start_memo().release_rows() > 0);
    assert_eq!(
        edf.start_memo().full_rows(),
        full_rows,
        "same run: no full scan"
    );
    assert!(sim.apply(&start[0]).changed_state());
    sim.view_into(&mut view);
    assert!(edf.decide(&view).is_empty(), "nothing is left to start");
    // The older clone still has the released node free: it must not reuse
    // the memo made on the later view.
    assert_eq!(edf.decide(&released), start);
    assert!(edf.start_memo().full_rows() > full_rows);
}

/// EDF with its memo forgotten before every call: every start pass is a
/// full scan. Counts the rows those scans evaluate and their `can_start`
/// calls.
#[derive(Default)]
struct MemoFreeEdf {
    edf: EdfScheduler,
    rows: u64,
    can_start_calls: u64,
}

impl Scheduler for MemoFreeEdf {
    fn name(&self) -> &str {
        "edf(memo-free)"
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        self.edf.on_simulation_start();
        let actions = self.edf.decide(view);
        self.rows += self.edf.start_memo().full_rows();
        self.can_start_calls += self.edf.start_memo().can_start_calls();
        actions
    }
}

#[test]
fn edf_work_counts_are_pinned_on_a_sim_scale_trace() {
    // The sim_scale shape, scaled down: 1000 icpp_default jobs at load 0.95
    // on 64 nodes with a 5 s decision interval, long enough for the queue
    // to build up.
    let cluster = ClusterSpec::icpp_scaled(64.0 / 24.0);
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(1000)
        .with_load(0.95);
    let jobs: Vec<Job> = SyntheticSource::new(&workload, &cluster, 11)
        .expect("valid workload spec")
        .collect();
    let cfg = SimConfig {
        decision_interval: Some(5.0),
        max_sim_time: 1e7,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cluster, cfg);
    let mut view = sim.view();
    let mut edf = EdfScheduler::new();
    let summary = sim.run_reusing(jobs.clone(), &mut edf, &mut view);
    let memo = edf.start_memo();
    assert_eq!(
        (memo.full_rows(), memo.memo_rows(), memo.release_rows()),
        (1, 2094, 12254),
        "EDF's exact (full-scan, memo-scan, release-pass) row counts"
    );
    assert_eq!(memo.can_start_calls(), 25630, "EDF's exact can_start calls");
    let mut memo_free = MemoFreeEdf::default();
    assert_eq!(sim.run_reusing(jobs, &mut memo_free, &mut view), summary);
    assert_eq!(memo_free.rows, 36714, "rows evaluated without the memo");
}
