//! The scheduler interface: the single integration point between the
//! simulator and any resource-management policy (the DRL agent in
//! `tcrm-core`, the heuristics in `tcrm-baselines`, or ad-hoc policies in
//! tests and examples).

use crate::job::JobId;
use crate::node::NodeClassId;
use crate::view::ClusterView;
use serde::{Deserialize, Serialize};

/// A scheduling decision returned by a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Start a pending job on `class` with the given degree of parallelism.
    Start {
        /// The pending job to start.
        job: JobId,
        /// Node class to place the job on.
        class: NodeClassId,
        /// Requested degree of parallelism (clamped to the job's range).
        parallelism: u32,
    },
    /// Change the degree of parallelism of a running, malleable job.
    Scale {
        /// The running job to re-scale.
        job: JobId,
        /// New total degree of parallelism (clamped to the job's range).
        new_parallelism: u32,
    },
    /// Do nothing at this decision point.
    Wait,
}

/// Result of applying a single [`Action`], reported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionOutcome {
    /// A pending job was started.
    Started,
    /// A running job changed its parallelism.
    Scaled,
    /// The scheduler chose to wait.
    Waited,
    /// The action could not be applied (unknown job, no capacity, scaling
    /// disabled, …). The reason is a static diagnostic string.
    Invalid(&'static str),
}

impl ActionOutcome {
    /// True if the action changed the cluster state.
    pub fn changed_state(&self) -> bool {
        matches!(self, ActionOutcome::Started | ActionOutcome::Scaled)
    }

    /// True if the engine rejected the action.
    pub fn is_invalid(&self) -> bool {
        matches!(self, ActionOutcome::Invalid(_))
    }
}

/// A resource-management policy.
///
/// `decide` is called at every decision epoch (job arrival, job completion,
/// periodic timer) with a snapshot of the cluster and queue. It returns a
/// batch of actions; the engine applies them in order, silently counting any
/// infeasible ones as invalid. Returning an empty vector or only
/// [`Action::Wait`] ends the epoch.
pub trait Scheduler {
    /// Short name used in result tables.
    fn name(&self) -> &str;

    /// Produce a batch of actions for the current decision epoch.
    fn decide(&mut self, view: &ClusterView) -> Vec<Action>;

    /// Called once before a simulation starts; stateful schedulers reset here.
    fn on_simulation_start(&mut self) {}

    /// Re-arm this instance for a fresh replication driven by `seed`.
    ///
    /// Evaluation sweeps reuse one scheduler instance per worker thread
    /// across many replications instead of constructing a fresh one per run;
    /// this hook is where seed-dependent state (RNGs, per-run counters) must
    /// be re-derived so a reused instance behaves identically to a freshly
    /// built one. Stateless policies keep the default no-op; per-run state
    /// that is already re-initialised in [`Scheduler::on_simulation_start`]
    /// (which still runs at every simulation start) does not need to be
    /// duplicated here.
    fn reset(&mut self, seed: u64) {
        let _ = seed;
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        (**self).decide(view)
    }
    fn on_simulation_start(&mut self) {
        (**self).on_simulation_start()
    }
    fn reset(&mut self, seed: u64) {
        (**self).reset(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(ActionOutcome::Started.changed_state());
        assert!(ActionOutcome::Scaled.changed_state());
        assert!(!ActionOutcome::Waited.changed_state());
        assert!(ActionOutcome::Invalid("x").is_invalid());
        assert!(!ActionOutcome::Started.is_invalid());
    }

    #[test]
    fn action_serde_roundtrip() {
        let a = Action::Start {
            job: JobId(3),
            class: NodeClassId(1),
            parallelism: 4,
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: Action = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
