//! Counting-allocator proofs of allocation-free simulation:
//!
//! * **Stepping** — once a run has warmed up (arrivals drained, buffers
//!   sized), `Simulator::advance` plus `Simulator::view_into` perform **zero
//!   heap allocations** per decision epoch. Utilisation sampling is
//!   included: samples store their per-class vectors inline
//!   (`PerClassUtilization`, fixed arity) and the trace buffer is
//!   pre-reserved at `Simulator::start`, so sampling-heavy runs stay on the
//!   allocation-free path too.
//! * **Streaming** — the first `Simulator::run_source` run sizes every
//!   retained buffer (pending/running sets, event heap, metrics, the
//!   reusable view), and every later full run over the same source — pulled
//!   job by job, never materialised — performs **zero** heap allocations on
//!   the engine side.
//!
//! Allocations are counted per thread, so the two tests may run
//! concurrently.

use tcrm_testkit::count_allocations;

#[test]
fn steady_state_stepping_does_not_allocate() {
    use tcrm_sim::node::SpeedProfile;
    use tcrm_sim::{
        Action, ClusterSpec, Job, JobClass, JobId, NodeClassId, NodeClassSpec, ResourceVector,
        SimConfig, Simulator, SpeedupModel, TimeUtility,
    };

    let spec = ClusterSpec::new(vec![NodeClassSpec::new(
        "generic",
        4,
        ResourceVector::of(16.0, 64.0, 0.0, 10.0),
        SpeedProfile::uniform(1.0),
    )]);
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(1.0);
    // Sampling enabled well inside the measured window: per-class vectors
    // are stored inline and the trace is pre-reserved, so sampling must not
    // allocate either.
    cfg.util_sample_interval = 0.5;
    cfg.max_sim_time = 1e5;

    let jobs: Vec<Job> = (0..30)
        .map(|i| {
            Job::builder(JobId(i), JobClass::Batch)
                .arrival(0.0)
                .total_work(40.0 + 7.0 * i as f64)
                .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 1.0))
                .parallelism_range(1, 4)
                .speedup(SpeedupModel::Linear)
                .deadline(1e6)
                .utility(TimeUtility::hard(1.0))
                .build()
        })
        .collect();

    let mut sim = Simulator::new(spec, cfg);
    sim.start(jobs);

    // Warm-up: drain every arrival (pending peaks at 30), start a handful of
    // long-running jobs, and size the reusable view.
    let mut view = sim.view();
    let mut arrivals = 0;
    while arrivals < 30 {
        assert!(sim.advance());
        sim.view_into(&mut view);
        arrivals = 30 - view.future_arrivals;
    }
    for id in 0..8u64 {
        let outcome = sim.apply(&Action::Start {
            job: JobId(id),
            class: NodeClassId(0),
            parallelism: 1,
        });
        assert!(!outcome.is_invalid(), "warm-up start rejected: {outcome:?}");
    }
    // A couple of warm epochs after the starts so every buffer is sized.
    for _ in 0..3 {
        assert!(sim.advance());
        sim.view_into(&mut view);
    }

    // Steady state: periodic decision epochs and job completions only.
    let mut epochs = 0u32;
    let allocations = count_allocations(|| {
        for _ in 0..200 {
            if !sim.advance() {
                break;
            }
            sim.view_into(&mut view);
            epochs += 1;
        }
    });
    assert!(
        epochs >= 50,
        "expected a long steady-state window, got {epochs}"
    );
    assert_eq!(
        allocations, 0,
        "advance+view_into allocated in steady state ({allocations} allocations over {epochs} epochs)"
    );
}

#[test]
fn run_source_is_allocation_free_after_warm_up() {
    use tcrm_sim::node::SpeedProfile;
    use tcrm_sim::{
        Action, ClusterSpec, ClusterView, Job, JobClass, JobId, NodeClassSpec, ResourceVector,
        Scheduler, SimConfig, Simulator, SpeedupModel, TimeUtility,
    };

    /// A scheduler that never acts: `decide` returns an **empty** vec (which
    /// does not allocate), so the measurement isolates the engine's
    /// streaming path — arrival pulls, event scheduling, pending growth,
    /// utilisation sampling and view refills.
    struct Inert;
    impl Scheduler for Inert {
        fn name(&self) -> &str {
            "inert"
        }
        fn decide(&mut self, _view: &ClusterView) -> Vec<Action> {
            Vec::new()
        }
    }

    let spec = ClusterSpec::new(vec![NodeClassSpec::new(
        "generic",
        4,
        ResourceVector::of(16.0, 64.0, 0.0, 10.0),
        SpeedProfile::uniform(1.0),
    )]);
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(1.0);
    cfg.util_sample_interval = 0.5;
    cfg.max_sim_time = 1e5;

    // A fixed job list replayed through a cloning iterator: `Job` holds no
    // heap-owning fields, so cloning one allocates nothing.
    let jobs: Vec<Job> = (0..64)
        .map(|i| {
            Job::builder(JobId(i), JobClass::Batch)
                .arrival(i as f64 * 0.9)
                .total_work(25.0 + 3.0 * i as f64)
                .demand_per_unit(ResourceVector::of(2.0, 4.0, 0.0, 1.0))
                .parallelism_range(1, 4)
                .speedup(SpeedupModel::Linear)
                .deadline(1e6)
                .utility(TimeUtility::hard(1.0))
                .build()
        })
        .collect();

    let mut sim = Simulator::new(spec, cfg);
    let mut view = sim.view();

    // Warm-up run: sizes the event heap, pending queue, metrics buffers and
    // the view.
    let warm = sim.run_source(jobs.iter().cloned(), &mut Inert, &mut view);
    assert_eq!(warm.total_jobs, 64);

    // Steady state: whole replications, measured end to end. The replayed
    // jobs are plain value types (no heap-owning fields) and `Inert` never
    // allocates, so every counted allocation is the engine's.
    let allocations = count_allocations(|| {
        for _ in 0..4 {
            let summary = sim.run_source(jobs.iter().cloned(), &mut Inert, &mut view);
            assert_eq!(summary.total_jobs, 64);
        }
    });
    assert_eq!(
        allocations, 0,
        "warmed-up run_source replications allocated ({allocations} allocations)"
    );
}
