//! Integration tests of the parallel evaluation API: the flattened parallel
//! sweep must be indistinguishable — row for row and byte for byte — from a
//! sequential reference run, and interrupted sweeps must resume from their
//! versioned JSON checkpoint without changing the result.

use tcrm_bench::{EvalSession, PolicyRegistry, ResultTable};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::{load_sweep, ScenarioRegistry, SyntheticSource, Trace, WorkloadSpec};

const POLICIES: [&str; 4] = ["edf", "random", "greedy-elastic+rigid", "tetris+admission"];
const SEEDS: [u64; 3] = [1, 2, 3];

fn points() -> Vec<(f64, WorkloadSpec)> {
    load_sweep(&WorkloadSpec::icpp_default().with_num_jobs(40), &[0.6, 1.0])
}

fn session(registry: &PolicyRegistry) -> EvalSession<'_> {
    EvalSession::new(registry)
        .policies(POLICIES)
        .expect("known policies")
        .cluster(ClusterSpec::icpp_default())
        .sim(SimConfig::default())
        .points(points())
        .seeds(&SEEDS)
        .table("determinism", "parallel vs sequential", "load")
}

#[test]
fn parallel_sweep_equals_sequential_reference_row_for_row() {
    let registry = PolicyRegistry::with_baselines();
    let parallel = session(&registry).run().expect("parallel sweep").table;
    let sequential = session(&registry)
        .sequential()
        .run()
        .expect("sequential sweep")
        .table;

    assert_eq!(parallel.rows.len(), POLICIES.len() * 2 * SEEDS.len());
    assert_eq!(parallel.rows.len(), sequential.rows.len());
    for (p, s) in parallel.rows.iter().zip(sequential.rows.iter()) {
        assert_eq!(p.scheduler, s.scheduler);
        assert_eq!(p.parameter, s.parameter);
        assert_eq!(p.seed, s.seed);
        assert_eq!(
            p.summary, s.summary,
            "{}@{}#{}",
            p.scheduler, p.parameter, p.seed
        );
    }
    // The rendered artefacts are byte-identical (the acceptance gate).
    assert_eq!(parallel.to_csv(), sequential.to_csv());
    assert_eq!(parallel.to_markdown(), sequential.to_markdown());
}

#[test]
fn rows_come_back_in_canonical_grid_order() {
    let registry = PolicyRegistry::with_baselines();
    let table = session(&registry).run().expect("sweep").table;
    let mut expected = Vec::new();
    for (load, _) in points() {
        for policy in POLICIES {
            for seed in SEEDS {
                expected.push((policy.to_string(), load, seed));
            }
        }
    }
    let actual: Vec<(String, f64, u64)> = table
        .rows
        .iter()
        .map(|r| (r.scheduler.clone(), r.parameter, r.seed))
        .collect();
    assert_eq!(actual, expected);
}

/// The scenario-axis acceptance gate: a `(policy × scenario × point × seed)`
/// grid over three scenario families — synthetic, synthetic+transformer and
/// replay — runs through `EvalSession` with checkpoint/resume, and the
/// parallel sweep stays row-for-row identical to the sequential reference.
#[test]
fn scenario_grid_checkpoints_resumes_and_matches_sequential() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-scenarios");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A recorded trace for the replay scenario.
    let trace_path = dir.join("trace.json");
    let trace_spec = WorkloadSpec::icpp_default()
        .with_num_jobs(30)
        .with_load(0.8);
    let jobs: Vec<_> = SyntheticSource::new(&trace_spec, &ClusterSpec::icpp_default(), 99)
        .unwrap()
        .collect();
    Trace::new(trace_spec, 99, jobs).save(&trace_path).unwrap();

    let registry = PolicyRegistry::with_baselines();
    let scenarios = ScenarioRegistry::new();
    let scenario_specs = [
        "poisson".to_string(),
        "poisson+burst(3x)+tighten(0.8)".to_string(),
        format!("replay({})", trace_path.display()),
    ];
    let session = |sequential: bool, checkpoint: Option<&std::path::Path>| {
        let mut s = EvalSession::new(&registry)
            .policies(["edf", "greedy-elastic+rigid"])
            .expect("known policies")
            .scenarios(&scenarios, scenario_specs.iter())
            .expect("valid scenarios")
            .cluster(ClusterSpec::icpp_default())
            .sim(SimConfig::default())
            .points(points())
            .seeds(&[1, 2])
            .table("scenario-grid", "scenario axis", "load");
        if sequential {
            s = s.sequential();
        }
        if let Some(path) = checkpoint {
            s = s.checkpoint(path);
        }
        s
    };

    // Parallel == sequential, row for row and byte for byte.
    let parallel = session(false, None).run().expect("parallel sweep").table;
    let sequential = session(true, None).run().expect("sequential sweep").table;
    // 2 policies × 3 scenarios × 2 points × 2 seeds:
    assert_eq!(parallel.rows.len(), 2 * 3 * 2 * 2);
    assert_eq!(parallel.rows.len(), sequential.rows.len());
    for (p, s) in parallel.rows.iter().zip(sequential.rows.iter()) {
        assert_eq!(p.scheduler, s.scheduler);
        assert_eq!(p.scenario, s.scenario);
        assert_eq!(p.parameter, s.parameter);
        assert_eq!(p.seed, s.seed);
        assert_eq!(p.summary, s.summary, "{}/{}", p.scheduler, p.scenario);
    }
    assert_eq!(parallel.to_csv(), sequential.to_csv());
    assert_eq!(parallel.scenarios().len(), 3);

    // Checkpoint/resume across the scenario axis: a second run resumes every
    // row and reproduces the same table.
    let ckpt = dir.join("grid.json");
    let first = session(false, Some(&ckpt)).run().expect("checkpointed");
    assert_eq!(first.computed, 24);
    let resumed = session(false, Some(&ckpt)).run().expect("resumed");
    assert_eq!(resumed.resumed, 24);
    assert_eq!(resumed.computed, 0);
    assert_eq!(resumed.table.to_csv(), parallel.to_csv());

    // The replay scenario really replays the recorded trace: every one of
    // its rows saw exactly the trace's 30 jobs, at every point and seed.
    assert!(resumed
        .table
        .rows
        .iter()
        .filter(|r| r.scenario.starts_with("replay("))
        .all(|r| r.summary.total_jobs == 30));
}

/// Sharded runs written to per-shard checkpoints merge back into the
/// unsharded grid byte for byte (the multi-machine sweep workflow).
#[test]
fn shard_checkpoints_merge_into_the_full_grid() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-shards");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let registry = PolicyRegistry::with_baselines();
    let full = session(&registry).run().expect("full sweep");

    let shard_path = |i: usize| dir.join(format!("shard-{i}.json"));
    for i in 0..2 {
        let report = session(&registry)
            .shard(i, 2)
            .checkpoint(shard_path(i))
            .run()
            .expect("shard sweep");
        assert!(report.table.rows.len() < full.table.rows.len());
    }
    let merged = ResultTable::merge(vec![
        ResultTable::load_json(shard_path(0)).expect("shard 0 checkpoint"),
        ResultTable::load_json(shard_path(1)).expect("shard 1 checkpoint"),
    ])
    .expect("shards merge");
    assert_eq!(merged.rows.len(), full.table.rows.len());
    assert_eq!(merged.to_csv(), full.table.to_csv());
    assert_eq!(merged.to_markdown(), full.table.to_markdown());
}

#[test]
fn checkpoint_resume_skips_cached_rows_and_preserves_results() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("grid.json");

    let registry = PolicyRegistry::with_baselines();
    // Phase 1: an "interrupted" run covering only the first two seeds.
    let partial = session(&registry)
        .seeds(&SEEDS[..2])
        .checkpoint(&ckpt)
        .run()
        .expect("partial sweep");
    assert_eq!(partial.resumed, 0);
    assert_eq!(partial.computed, POLICIES.len() * 2 * 2);
    assert!(ckpt.exists(), "checkpoint must be written");

    // Phase 2: the full grid resumes from the checkpoint.
    let resumed = session(&registry)
        .checkpoint(&ckpt)
        .run()
        .expect("resumed sweep");
    assert_eq!(resumed.resumed, POLICIES.len() * 2 * 2);
    assert_eq!(resumed.computed, POLICIES.len() * 2);

    // And the result is exactly what a fresh, uncheckpointed run produces.
    let fresh = session(&registry).run().expect("fresh sweep");
    assert_eq!(resumed.table.to_csv(), fresh.table.to_csv());

    // The final checkpoint holds the complete grid in canonical order.
    let on_disk = ResultTable::load_json(&ckpt).expect("final checkpoint readable");
    assert_eq!(on_disk.rows.len(), fresh.table.rows.len());
    assert_eq!(on_disk.to_csv(), fresh.table.to_csv());
}

#[test]
fn checkpoints_from_a_different_grid_configuration_are_not_resumed() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-fingerprint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("grid.json");

    let registry = PolicyRegistry::with_baselines();
    // Phase 1 checkpoints a grid at one workload scale.
    let first = session(&registry).checkpoint(&ckpt).run().expect("sweep");
    assert_eq!(first.resumed, 0);

    // Phase 2 runs the same (scheduler, load, seed) keys at a different
    // workload scale: every cached row is provably stale and none may be
    // resumed.
    let bigger = load_sweep(&WorkloadSpec::icpp_default().with_num_jobs(60), &[0.6, 1.0]);
    let second = EvalSession::new(&registry)
        .policies(POLICIES)
        .expect("known policies")
        .cluster(ClusterSpec::icpp_default())
        .sim(SimConfig::default())
        .points(bigger)
        .seeds(&SEEDS)
        .checkpoint(&ckpt)
        .run()
        .expect("sweep at new scale");
    assert_eq!(second.resumed, 0, "stale-fingerprint rows must not resume");
    assert_eq!(second.computed, POLICIES.len() * 2 * SEEDS.len());
    assert!(second.table.rows.iter().all(|r| r.summary.total_jobs == 60));
}

#[test]
fn cells_with_duplicate_parameter_values_are_never_resumed() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-dup-param");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("grid.json");

    // Two different workloads sharing the parameter label 0.9: the resume
    // key cannot distinguish their rows, so both cells must be recomputed
    // on every run rather than one row silently standing in for the other.
    let registry = PolicyRegistry::with_baselines();
    let run = || {
        EvalSession::new(&registry)
            .policies(["edf"])
            .expect("known policy")
            .cluster(ClusterSpec::icpp_default())
            .sim(SimConfig::default())
            .point(
                0.9,
                WorkloadSpec::icpp_default()
                    .with_num_jobs(30)
                    .with_load(0.9),
            )
            .point(
                0.9,
                WorkloadSpec::icpp_default()
                    .with_num_jobs(50)
                    .with_load(0.9),
            )
            .seeds(&[1])
            .checkpoint(&ckpt)
            .run()
            .expect("sweep")
    };
    let first = run();
    assert_eq!(first.computed, 2);
    let second = run();
    assert_eq!(second.resumed, 0, "ambiguous cells must not resume");
    assert_eq!(second.computed, 2);
    let totals: Vec<usize> = second
        .table
        .rows
        .iter()
        .map(|r| r.summary.total_jobs)
        .collect();
    assert_eq!(totals, vec![30, 50], "each cell keeps its own workload");
}

#[test]
fn non_reusable_policies_are_rebuilt_with_each_replication_seed() {
    use std::sync::{Arc, Mutex};
    use tcrm_sim::{Action, ClusterView, Scheduler};

    // A seed-dependent policy that does NOT override Scheduler::reset — the
    // trap the `reusable()` default guards against: reusing one instance
    // would run every replication with the first seed.
    struct SeedTagged {
        seed: u64,
    }
    impl Scheduler for SeedTagged {
        fn name(&self) -> &str {
            "seed-tagged"
        }
        fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
            // Start everything eagerly (class chosen by seed parity) so the
            // run terminates quickly.
            view.pending
                .iter()
                .map(|j| Action::Start {
                    job: j.id,
                    class: tcrm_sim::NodeClassId((self.seed % 2) as usize),
                    parallelism: j.min_parallelism,
                })
                .collect()
        }
    }

    let built_seeds = Arc::new(Mutex::new(Vec::new()));
    let mut registry = PolicyRegistry::with_baselines();
    {
        let built_seeds = Arc::clone(&built_seeds);
        registry
            .register_fn("seed-tagged", move |seed| {
                built_seeds.lock().unwrap().push(seed);
                Box::new(SeedTagged { seed })
            })
            .unwrap();
    }

    let report = EvalSession::new(&registry)
        .policies(["seed-tagged"])
        .expect("registered")
        .cluster(ClusterSpec::icpp_default())
        .sim(SimConfig::default())
        .point(
            0.9,
            WorkloadSpec::icpp_default()
                .with_num_jobs(10)
                .with_load(0.9),
        )
        .seeds(&[11, 22, 33])
        .sequential()
        .run()
        .expect("sweep");
    assert_eq!(report.computed, 3);
    let mut seeds = built_seeds.lock().unwrap().clone();
    seeds.sort_unstable();
    assert_eq!(
        seeds,
        vec![11, 22, 33],
        "a non-reusable factory must be rebuilt with every replication seed"
    );
}

#[test]
fn corrupt_checkpoints_are_ignored_not_fatal() {
    let dir = std::env::temp_dir().join("tcrm-eval-session-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("grid.json");
    std::fs::write(&ckpt, "{ not json ][").unwrap();

    let registry = PolicyRegistry::with_baselines();
    let report = session(&registry)
        .seeds(&[1])
        .checkpoint(&ckpt)
        .run()
        .expect("sweep despite corrupt checkpoint");
    assert_eq!(report.resumed, 0);
    assert_eq!(report.computed, POLICIES.len() * 2);
    // The corrupt file was replaced with a valid checkpoint.
    assert!(ResultTable::load_json(&ckpt).is_ok());
}
