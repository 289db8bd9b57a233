//! The oracle harness shared by the engine's differential tests: one
//! simulator steps through a workload and a (partly invalid) action script,
//! and at every epoch and after every action its production paths are
//! checked against the reference implementations it keeps as oracles —
//! [`Simulator::view_into`] against [`Simulator::rebuild_view_into`],
//! [`Cluster::find_placement`] against [`Cluster::find_placement_walk`], and
//! [`Cluster::check_invariants`].

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use std::collections::VecDeque;
use tcrm_sim::node::SpeedProfile;
use tcrm_sim::prelude::*;
use tcrm_sim::{bucket_rank, rank_floor, units_that_fit};

/// A small heterogeneous cluster: two classes with different speeds and
/// capacities so placement and speed lookups are non-trivial.
pub fn two_class_spec() -> ClusterSpec {
    ClusterSpec::new(vec![
        NodeClassSpec::new(
            "generic",
            3,
            ResourceVector::of(8.0, 32.0, 0.0, 10.0),
            SpeedProfile::uniform(1.0),
        ),
        NodeClassSpec::new(
            "fast-small",
            2,
            ResourceVector::of(8.0, 8.0, 0.0, 10.0),
            SpeedProfile::uniform(2.0),
        ),
    ])
}

/// Raw per-job parameters produced by the proptest strategies.
#[derive(Debug, Clone)]
pub struct JobParams {
    pub gap: f64,
    pub work: f64,
    pub slack: f64,
    pub cpu: f64,
    pub mem: f64,
    pub gpu: f64,
    pub min_par: u32,
    pub extra_par: u32,
    pub malleable: bool,
}

/// Random job parameters; each job demands `0..=max_gpus` whole GPUs per
/// unit.
pub fn arb_job_params(max_gpus: u32) -> impl Strategy<Value = JobParams> {
    (
        0.0f64..4.0,
        1.0f64..40.0,
        5.0f64..200.0,
        1.0f64..4.0,
        1.0f64..8.0,
        1u32..3,
        0u32..4,
        any::<bool>(),
        0..=max_gpus,
    )
        .prop_map(
            |(gap, work, slack, cpu, mem, min_par, extra_par, malleable, gpus)| JobParams {
                gap,
                work,
                slack,
                cpu,
                mem,
                gpu: f64::from(gpus),
                min_par,
                extra_par,
                malleable,
            },
        )
}

/// A deterministic, action-dense workload of `n` jobs (fast enough to step
/// through in a debugger when something diverges); every `gpu_every`-th job
/// demands one GPU per unit (`0` for none).
pub fn dense_params(n: usize, gpu_every: usize) -> Vec<JobParams> {
    (0..n)
        .map(|i| JobParams {
            gap: 0.7 + (i % 3) as f64,
            work: 8.0 + (i * 3 % 25) as f64,
            slack: 20.0 + (i * 11 % 90) as f64,
            cpu: 1.0 + (i % 3) as f64,
            mem: 2.0 + (i % 5) as f64,
            gpu: f64::from(gpu_every > 0 && i % gpu_every == 0),
            min_par: 1 + (i % 2) as u32,
            extra_par: (i % 4) as u32,
            malleable: i % 3 != 0,
        })
        .collect()
}

/// One step of an action script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// A raw triple: an action derived by [`script_action`], or (kinds 5
    /// and 6) a cancel or degrade of the queued job at position `x` modulo
    /// the queue length.
    Raw(u8, u8, u8),
    /// Cancel a middle queued job once three or more jobs are queued; the
    /// operation waits, armed, until then.
    Cancel,
    /// Degrade a middle queued job once three or more jobs are queued; the
    /// operation waits, armed, until then.
    Degrade,
    /// Ask a running, malleable, scale-ready job for one unit more or one
    /// unit less, the other way from the last accepted request (see
    /// [`rescale_action`]); waits, armed, until some job can move.
    Rescale,
}

impl From<(u8, u8, u8)> for Step {
    fn from((kind, x, y): (u8, u8, u8)) -> Self {
        Step::Raw(kind, x, y)
    }
}

/// The action script paired with [`dense_params`], five steps at a time:
/// a raw start, a wait, a raw re-scale of any running job (often
/// rejected), a start of an unknown job, and a re-scale chosen from the
/// view. One step in twenty cancels and one degrades, chosen from the view
/// too. With one raw start per five steps the queue builds up, so the
/// armed queue operations fire.
pub fn dense_script() -> Vec<Step> {
    (0..200u32)
        .map(|i| {
            let (x, y) = ((i * 7 % 251) as u8, (i * 13 % 241) as u8);
            match (i % 5, i % 20) {
                (4, _) => Step::Rescale,
                (_, 13) => Step::Cancel,
                (_, 7) => Step::Degrade,
                (1, _) => Step::Raw(4, x, y),
                (kind, _) => Step::Raw(kind as u8, x, y),
            }
        })
        .collect()
}

/// The re-scale [`Step::Rescale`] issues on `view`: one unit more or less
/// for the first running, malleable, scale-ready job that can move that
/// way (a scale-up needs a free unit on the job's class), in the requested
/// direction if some job can move in it, else in the other.
fn rescale_action(view: &ClusterView, up: bool) -> Option<Action> {
    let step = |up: bool| {
        view.running
            .iter()
            .filter(|job| job.malleable && view.scale_ready(job))
            .find_map(|job| {
                let units = if up {
                    let free = view
                        .class(job.node_class)
                        .units_available(&job.demand_per_unit);
                    Some(job.units + 1).filter(|&u| u <= job.max_parallelism && free > 0)
                } else {
                    Some(job.units - 1).filter(|&u| u >= job.min_parallelism)
                }?;
                Some(Action::Scale {
                    job: job.id,
                    new_parallelism: units,
                })
            })
    };
    step(up).or_else(|| step(!up))
}

pub fn build_jobs(params: &[JobParams]) -> Vec<Job> {
    let mut arrival = 0.0;
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            arrival += p.gap;
            Job::builder(JobId(i as u64), JobClass::Batch)
                .arrival(arrival)
                .total_work(p.work)
                .demand_per_unit(ResourceVector::of(p.cpu, p.mem, p.gpu, 0.5))
                .parallelism_range(p.min_par, p.min_par + p.extra_par)
                .speedup(SpeedupModel::Linear)
                .deadline(arrival + p.slack)
                .malleable(p.malleable)
                .utility(TimeUtility::hard(1.0))
                .build()
        })
        .collect()
}

/// Derive one (possibly invalid) action from a script triple and the
/// current view. Kinds 5 and 6 are the queue operations
/// [`run_against_oracles`] applies itself; here they wait.
pub fn script_action(view: &ClusterView, kind: u8, x: u8, y: u8) -> Action {
    match kind % 7 {
        0 | 1 => {
            // Start a pending job — class index deliberately runs one past
            // the real classes so "unknown node class" is exercised, and the
            // parallelism may exceed the job's range (the engine clamps).
            if view.pending.is_empty() {
                Action::Wait
            } else {
                let job = &view.pending[x as usize % view.pending.len()];
                Action::Start {
                    job: job.id,
                    class: NodeClassId(y as usize % (view.num_classes() + 1)),
                    parallelism: 1 + y as u32 % 6,
                }
            }
        }
        2 => {
            // Re-scale a running job (often rejected: rigid, cooldown, no
            // change, insufficient capacity).
            if view.running.is_empty() {
                Action::Wait
            } else {
                let job = &view.running[x as usize % view.running.len()];
                Action::Scale {
                    job: job.id,
                    new_parallelism: 1 + y as u32 % 6,
                }
            }
        }
        3 => Action::Start {
            // Unknown job id.
            job: JobId(1_000_000 + x as u64),
            class: NodeClassId(0),
            parallelism: 1,
        },
        _ => Action::Wait,
    }
}

/// Field-for-field equality of two snapshots (`ClusterView` itself has no
/// `PartialEq`; comparing fields keeps failures readable).
pub fn assert_views_equal(view: &ClusterView, reference: &ClusterView) {
    assert_eq!(view.time, reference.time, "time diverged");
    assert_eq!(
        view.future_arrivals, reference.future_arrivals,
        "future_arrivals diverged"
    );
    // `NodeClassView`'s derived PartialEq covers node_free row-for-row plus
    // the view-side fit index.
    assert_eq!(view.classes, reference.classes, "class views diverged");
    assert_eq!(view.pending, reference.pending, "pending rows diverged");
    assert_eq!(view.running, reference.running, "running rows diverged");
    assert_eq!(
        view.pending_by_deadline, reference.pending_by_deadline,
        "deadline index diverged"
    );
    assert_derived_equal(view, reference);
}

/// True when the fit query for `per_unit` on `class` skips a node: its rank
/// floor is non-zero and some node of the class ranks below it.
pub fn floor_prunes(c: &Cluster, class: NodeClassId, per_unit: &ResourceVector) -> bool {
    let row = c.class_row(class);
    let floor = rank_floor(per_unit, &row.unit_capacity);
    floor > 0
        && row
            .node_free
            .iter()
            .any(|free| bucket_rank(free, &row.unit_capacity) < floor)
}

/// What one [`run_against_oracles`] exercised.
#[derive(Debug, Default)]
pub struct OracleRun {
    /// Decision epochs stepped.
    pub epochs: usize,
    /// Scale-ups the engine accepted (each one a `RunningRescaled` delta).
    pub accepted_scale_ups: usize,
    /// Scale-downs the engine accepted (each one a `RunningRescaled` delta).
    pub accepted_scale_downs: usize,
    /// Placement queries whose rank floor skipped at least one node.
    pub pruned_queries: usize,
    /// Queued jobs cancelled (each one a `PendingRemoved` delta).
    pub cancels: usize,
    /// Queued jobs degraded to rigid (a `PendingRemoved` delta and a
    /// re-admission at the tail).
    pub degrades: usize,
    /// Cancels and degrades of a job neither first nor last in the queue.
    pub mid_queue: usize,
}

/// Require a [`dense_script`] run to have taken every path several times:
/// at least three accepted scale-ups, scale-downs, cancels, degrades and
/// mid-queue removals.
pub fn assert_dense_coverage(run: &OracleRun) {
    assert!(
        run.accepted_scale_ups >= 3
            && run.accepted_scale_downs >= 3
            && run.cancels >= 3
            && run.degrades >= 3
            && run.mid_queue >= 3,
        "the dense script must take every path at least three times: {run:?}"
    );
}

/// Refill `view` incrementally and `oracle` from scratch and require them
/// byte-identical; require the view's unit count to equal a fresh per-node
/// sum over the cluster, and the indexed placement to equal the reference
/// walk, for every pending job on every class (placements at the job's
/// minimum and maximum parallelism); require the cluster's invariants.
fn check_oracles(
    sim: &Simulator,
    view: &mut ClusterView,
    oracle: &mut ClusterView,
    run: &mut OracleRun,
) {
    sim.view_into(view);
    sim.rebuild_view_into(oracle);
    assert_views_equal(view, oracle);
    let cluster = sim.cluster();
    for job in sim.pending_jobs() {
        let demand = &job.demand_per_unit;
        for class in cluster.class_ids() {
            run.pruned_queries += usize::from(floor_prunes(cluster, class, demand));
            let fresh_sum = cluster
                .class_row(class)
                .node_free
                .iter()
                .map(|free| units_that_fit(free, demand))
                .fold(0u32, u32::saturating_add);
            assert_eq!(
                view.class(class).units_available(demand),
                fresh_sum,
                "unit count of {} on {class} diverged from the per-node sum",
                job.id
            );
            for units in [job.min_parallelism, job.max_parallelism] {
                assert_eq!(
                    cluster.find_placement(class, demand, units),
                    cluster.find_placement_walk(class, demand, units),
                    "placement of {} x{units} on {class} diverged from the walk",
                    job.id
                );
            }
        }
    }
    cluster.check_invariants().expect("cluster invariants");
}

/// Apply `action`, counting an accepted re-scale in `run`; returns whether
/// an accepted re-scale went up.
fn apply_counted(
    sim: &mut Simulator,
    view: &ClusterView,
    action: &Action,
    run: &mut OracleRun,
) -> Option<bool> {
    let outcome = sim.apply(action);
    let Action::Scale {
        job,
        new_parallelism,
    } = *action
    else {
        return None;
    };
    if outcome != ActionOutcome::Scaled {
        return None;
    }
    // An accepted re-scale moves the units towards the request.
    let up = new_parallelism > view.running_job(job).expect("scaled job runs").units;
    if up {
        run.accepted_scale_ups += 1;
    } else {
        run.accepted_scale_downs += 1;
    }
    Some(up)
}

/// Cancel (`cancel`) or degrade the queued job at `pos` through the
/// service hooks admission uses, counting the operation in `run`.
fn queue_operation(
    sim: &mut Simulator,
    view: &ClusterView,
    pos: usize,
    cancel: bool,
    run: &mut OracleRun,
) {
    let id = view.pending[pos].id;
    if cancel {
        assert!(sim.cancel_pending(id), "{id} is queued");
        run.cancels += 1;
    } else {
        assert!(sim.degrade_pending_to_rigid(id), "{id} is queued");
        run.degrades += 1;
    }
    run.mid_queue += usize::from(pos > 0 && pos + 1 < view.pending.len());
}

/// Step one simulator through `jobs` and `script` (two [`Step`]s per
/// epoch, each followed by any armed operation that can fire), checking it
/// against its oracles at the start, at every epoch and after every step.
/// The view is compacted out of the change log at the end of each epoch, as
/// the engine's own epoch loop does.
pub fn run_against_oracles<S: Copy + Into<Step>>(
    spec: ClusterSpec,
    jobs: Vec<Job>,
    script: &[S],
    decision_interval: f64,
) -> OracleRun {
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(decision_interval);
    cfg.scale_cooldown = 3.0;
    cfg.max_sim_time = 5e4;
    let mut sim = Simulator::new(spec, cfg);
    sim.start(jobs);
    let mut view = sim.view();
    let mut oracle = sim.view();
    let mut run = OracleRun::default();
    check_oracles(&sim, &mut view, &mut oracle, &mut run);

    let mut cursor = 0usize;
    let mut post_script_epochs = 0usize;
    // Armed view-chosen operations: queue operations (true: cancel),
    // oldest first, and re-scales, with the next re-scale's direction.
    let mut armed_queue_ops: VecDeque<bool> = VecDeque::new();
    let (mut armed_rescales, mut scale_up) = (0usize, true);
    while sim.advance() {
        run.epochs += 1;
        check_oracles(&sim, &mut view, &mut oracle, &mut run);
        if cursor >= script.len() {
            // The script issues no further starts: let completions drain for
            // a while, then stop stepping (unstarted pending jobs would spin
            // on periodic epochs forever).
            post_script_epochs += 1;
            if post_script_epochs > 300 {
                break;
            }
        }
        for _ in 0..2 {
            // Armed operations keep firing after the script ends.
            let step = script.get(cursor).map(|&step| step.into());
            cursor += usize::from(step.is_some());
            match step {
                None => {}
                Some(Step::Raw(kind, x, _)) if kind % 7 >= 5 && !view.pending.is_empty() => {
                    let pos = x as usize % view.pending.len();
                    queue_operation(&mut sim, &view, pos, kind % 7 == 5, &mut run);
                    check_oracles(&sim, &mut view, &mut oracle, &mut run);
                }
                Some(Step::Raw(kind, x, y)) => {
                    let action = script_action(&view, kind, x, y);
                    apply_counted(&mut sim, &view, &action, &mut run);
                    check_oracles(&sim, &mut view, &mut oracle, &mut run);
                }
                Some(Step::Cancel) => armed_queue_ops.push_back(true),
                Some(Step::Degrade) => armed_queue_ops.push_back(false),
                Some(Step::Rescale) => armed_rescales += 1,
            }
            if view.pending.len() >= 3 {
                if let Some(cancel) = armed_queue_ops.pop_front() {
                    queue_operation(&mut sim, &view, view.pending.len() / 2, cancel, &mut run);
                    check_oracles(&sim, &mut view, &mut oracle, &mut run);
                }
            }
            if armed_rescales > 0 {
                if let Some(action) = rescale_action(&view, scale_up) {
                    armed_rescales -= 1;
                    if let Some(up) = apply_counted(&mut sim, &view, &action, &mut run) {
                        scale_up = !up;
                    }
                    check_oracles(&sim, &mut view, &mut oracle, &mut run);
                }
            }
        }
        sim.compact_log(&view);
        assert!(run.epochs < 20_000, "run did not terminate");
    }
    run
}

/// Offsets past `view.time` at which the derived row values are compared:
/// rows are time-affine, so two views that agree on their stored state must
/// also agree on every value read at a later `now` (including after a
/// running job would have drained and clamped at zero).
const READ_OFFSETS: [f64; 4] = [0.0, 0.75, 9.5, 5e3];

/// Bit-for-bit equality of everything the two views derive from their rows
/// at `view.time` and at later times: pending `wait`, running
/// `remaining_work` / `scale_ready` / `slack`, and the pending-work total.
pub fn assert_derived_equal(a: &ClusterView, b: &ClusterView) {
    assert_eq!(
        a.scale_cooldown.to_bits(),
        b.scale_cooldown.to_bits(),
        "scale cooldown diverged"
    );
    assert_eq!(
        a.pending_work_total().to_bits(),
        b.pending_work_total().to_bits(),
        "pending-work total diverged"
    );
    for dt in READ_OFFSETS {
        let now = a.time + dt;
        for (x, y) in a.pending.iter().zip(&b.pending) {
            assert_eq!(
                x.wait(now).to_bits(),
                y.wait(now).to_bits(),
                "wait diverged"
            );
        }
        for (x, y) in a.running.iter().zip(&b.running) {
            assert_eq!(
                x.remaining_work(now).to_bits(),
                y.remaining_work(now).to_bits(),
                "remaining work of {} diverged at +{dt}",
                x.id
            );
            assert_eq!(
                x.scale_ready(now, a.scale_cooldown),
                y.scale_ready(now, b.scale_cooldown),
                "scale readiness of {} diverged at +{dt}",
                x.id
            );
            assert_eq!(
                x.slack(now).to_bits(),
                y.slack(now).to_bits(),
                "slack of {} diverged at +{dt}",
                x.id
            );
        }
    }
}
