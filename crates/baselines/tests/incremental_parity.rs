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

use tcrm_baselines::greedy_elastic::GreedyElasticConfig;
use tcrm_baselines::{
    all_baseline_names, by_name, AdmissionAdapter, EdfScheduler, GreedyElasticScheduler,
    RigidAdapter,
};
use tcrm_sim::prelude::*;

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
}

/// One batch run stepped by hand, checking the view against its rebuild
/// oracle at every decision round. Returns the summary, the completion
/// records and the number of rounds checked.
fn stepped_run(
    cluster: &ClusterSpec,
    jobs: &[Job],
    sched: &mut dyn Scheduler,
) -> (Summary, Vec<CompletedJob>, usize) {
    let mut sim = Simulator::new(cluster.clone(), config());
    let mut view = sim.view();
    let mut oracle = sim.view();
    let max_rounds = sim.config().max_decisions_per_epoch;
    let mut checked = 0;
    sched.on_simulation_start();
    sim.start(jobs.to_vec());
    while sim.advance() {
        let mut epoch_changed_state = false;
        for _ in 0..max_rounds {
            sim.view_into(&mut view);
            assert_view_matches_rebuild(&sim, &view, &mut oracle);
            checked += 1;
            let actions = sched.decide(&view);
            if actions.is_empty() {
                break;
            }
            let mut any_change = false;
            for action in &actions {
                any_change |= sim.apply(action).changed_state();
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
    let summary = sim.finish_service();
    (summary, sim.completed_so_far().to_vec(), checked)
}

#[test]
fn batch_runs_match_rebuild_reference_for_every_scheduler() {
    let cluster = ClusterSpec::icpp_default();
    let jobs = workload(60);
    let mut scale_events = 0;
    for (name, _) in scheduler_specs() {
        let (stepped, stepped_completed, rounds) =
            stepped_run(&cluster, &jobs, scheduler(&name).as_mut());
        assert!(rounds > 0, "{name}: no decision round was checked");
        let mut sim = Simulator::new(cluster.clone(), config());
        let mut view = sim.view();
        let summary = sim.run_reusing(jobs.clone(), &mut scheduler(&name), &mut view);
        assert_eq!(stepped, summary, "{name}: stepped summary diverged");
        assert_eq!(
            stepped_completed,
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
