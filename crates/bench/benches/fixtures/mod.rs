//! Fixtures shared by the decision-latency benches (`mod fixtures;` from
//! each bench file).

use tcrm_sim::{Action, ClusterSpec, ClusterView, NodeClassId, SimConfig, Simulator};
use tcrm_workload::{SyntheticSource, WorkloadSpec};

/// Build a mid-simulation view with a populated queue and running set.
///
/// The simulator is stepped by hand (`advance` / `apply`) rather than
/// through `Simulator::run`: the bench needs one frozen mid-run snapshot to
/// time `decide` on, and the epoch loop has no hook to stop at a given
/// state. A fixed policy starts a handful of jobs to occupy the cluster and
/// lets the rest of the 60-job, load-1.2 workload queue up.
pub fn loaded_view(scale: f64) -> ClusterView {
    let cluster = ClusterSpec::icpp_scaled(scale);
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(60)
        .with_load(1.2);
    let jobs = SyntheticSource::new(&workload, &cluster, 5)
        .expect("valid spec")
        .collect();
    let mut cfg = SimConfig::default();
    cfg.decision_interval = Some(5.0);
    let mut sim = Simulator::new(cluster, cfg);
    sim.start(jobs);
    for _ in 0..40 {
        if !sim.advance() {
            break;
        }
        let view = sim.view();
        if let Some(job) = view.pending.first() {
            if view.running.len() < 6 {
                let _ = sim.apply(&Action::Start {
                    job: job.id,
                    class: NodeClassId(0),
                    parallelism: job.min_parallelism,
                });
            }
        }
    }
    sim.view()
}
