//! # tcrm-sim — discrete-event heterogeneous cluster simulator
//!
//! This crate is the execution substrate for the ICPP 2020 reproduction
//! *"Deep Reinforcement Learning based Elasticity-compatible Heterogeneous
//! Resource Management for Time-critical Computing"*.
//!
//! It models:
//!
//! * a **heterogeneous cluster**: several node classes (CPU-heavy, memory-heavy,
//!   GPU-accelerated, edge/burstable) with multi-dimensional capacities and
//!   job-class-dependent speed factors,
//! * **elastic (malleable) jobs**: each job can run with any degree of
//!   parallelism within `[min_parallelism, max_parallelism]`, follows a
//!   configurable sub-linear speedup model and may be re-scaled at run time at
//!   a reconfiguration cost,
//! * **time-critical semantics**: each job carries a deadline and a
//!   time-utility function; the simulator records deadline misses, slowdowns
//!   and accrued utility,
//! * a **discrete-event engine** that is fully deterministic given a seed and
//!   drives any implementation of the [`Scheduler`] trait (the DRL agent from
//!   `tcrm-core` and the classical heuristics from `tcrm-baselines`).
//!
//! The public API is intentionally small: build a [`ClusterSpec`] and a
//! [`SimConfig`], generate a job list (usually via `tcrm-workload`), implement
//! or pick a [`Scheduler`], and call [`Simulator::run`].
//!
//! ```
//! use tcrm_sim::prelude::*;
//!
//! // A tiny cluster and a single job scheduled by a trivial policy.
//! let spec = ClusterSpec::icpp_default();
//! let cfg = SimConfig::default();
//! let job = Job::builder(JobId(0), JobClass::Batch)
//!     .arrival(0.0)
//!     .total_work(10.0)
//!     .demand_per_unit(ResourceVector::new([1.0, 2.0, 0.0, 0.1]))
//!     .parallelism_range(1, 4)
//!     .deadline(100.0)
//!     .build();
//!
//! struct Greedy;
//! impl Scheduler for Greedy {
//!     fn name(&self) -> &str { "greedy" }
//!     fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
//!         view.pending
//!             .first()
//!             .map(|j| {
//!                 vec![Action::Start { job: j.id, class: NodeClassId(0), parallelism: j.min_parallelism }]
//!             })
//!             .unwrap_or_default()
//!     }
//! }
//!
//! let result = Simulator::new(spec, cfg).run(vec![job], &mut Greedy);
//! assert_eq!(result.summary.completed_jobs, 1);
//! assert_eq!(result.summary.missed_jobs, 0);
//! ```

pub mod allocation;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod event;
pub mod fit_index;
pub mod hist;
pub mod job;
pub mod metrics;
pub mod node;
mod pending;
pub mod resources;
pub mod scheduler;
mod start_memo;
pub mod stats;
pub mod view;

pub use allocation::{Allocation, Placement};
pub use cluster::Cluster;
pub use config::{ClusterSpec, NodeClassSpec, PowerModel, SimConfig};
pub use engine::{EpochHooks, EpochKind, SimulationResult, Simulator};
pub use event::{Event, EventKind, EventQueue};
pub use fit_index::{bucket_rank, rank_floor, units_that_fit, FitIndex, MAX_RANK, NUM_RANKS};
pub use hist::{HistogramLayout, LogHistogram};
pub use job::{Job, JobBuilder, JobClass, JobId, SpeedupModel, TimeUtility};
pub use metrics::{
    CompletedJob, EnergyReport, MetricsCollector, PerClassUtilization, Summary, UtilizationSample,
    UtilizationTrace, MAX_NODE_CLASSES,
};
pub use node::{NodeClassId, NodeId};
pub use resources::{ResourceKind, ResourceVector, NUM_RESOURCES};
pub use scheduler::{Action, ActionOutcome, Scheduler};
pub use start_memo::StartMemo;
pub use view::{ClusterView, NodeClassView, PendingJobView, RunningJobView};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::allocation::{Allocation, Placement};
    pub use crate::cluster::Cluster;
    pub use crate::config::{ClusterSpec, NodeClassSpec, PowerModel, SimConfig};
    pub use crate::engine::{EpochHooks, EpochKind, SimulationResult, Simulator};
    pub use crate::job::{Job, JobBuilder, JobClass, JobId, SpeedupModel, TimeUtility};
    pub use crate::metrics::{CompletedJob, EnergyReport, Summary, UtilizationTrace};
    pub use crate::node::{NodeClassId, NodeId};
    pub use crate::resources::{ResourceKind, ResourceVector, NUM_RESOURCES};
    pub use crate::scheduler::{Action, ActionOutcome, Scheduler};
    pub use crate::view::{ClusterView, NodeClassView, PendingJobView, RunningJobView};
}
