//! # tcrm-workload — workload scenarios for time-critical clusters
//!
//! The original paper evaluates on cluster traces we do not have; this crate
//! synthesises statistically equivalent workloads — Poisson (or bursty)
//! arrivals, heavy-tailed job sizes, class mixes with heterogeneous resource
//! demands and GPU affinity, elastic parallelism ranges, deadlines drawn
//! from a slack-factor distribution — and turns *any* job stream into a
//! first-class, composable evaluation scenario.
//!
//! The workload API is built around the open [`WorkloadSource`] trait: a
//! seeded, resettable, streaming iterator of jobs. Two source families are
//! bundled: [`SyntheticSource`] (the incremental generator) and
//! [`ReplaySource`] (a recorded [`Trace`] re-emitted verbatim). A custom
//! stream implements the trait or registers a factory with
//! [`ScenarioRegistry::register_fn`]. Composable transformers
//! ([`SourceExt`]) wrap any source: `scale_load`, `inject_burst`,
//! `tighten_deadlines`, `filter_class`, `truncate`, `merge`.
//! Scenarios are addressable through round-tripping **spec strings**
//! (`"poisson(load=0.8)+burst(3x)"`, `"replay(day1.json)+tighten(0.9)"`)
//! resolved by a [`ScenarioRegistry`] — see [`scenario`] for the grammar.
//!
//! ```
//! use tcrm_sim::ClusterSpec;
//! use tcrm_workload::{ScenarioRegistry, SyntheticSource, WorkloadSource, WorkloadSpec};
//!
//! let cluster = ClusterSpec::icpp_default();
//! let spec = WorkloadSpec::icpp_default().with_num_jobs(50).with_load(0.8);
//!
//! // Stream jobs straight from the incremental generator…
//! let mut source = SyntheticSource::new(&spec, &cluster, 42).unwrap();
//! let jobs: Vec<_> = source.by_ref().collect();
//! assert_eq!(jobs.len(), 50);
//! assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! // …rewind and replay the identical stream:
//! source.reset(42);
//! assert_eq!(source.by_ref().collect::<Vec<_>>(), jobs);
//!
//! // …or address the same workload (plus transformers) by spec string:
//! let registry = ScenarioRegistry::new();
//! let mut bursty = registry
//!     .build_str("poisson+burst(3x)+truncate(20)", &spec, &cluster, 42)
//!     .unwrap();
//! assert_eq!(bursty.by_ref().count(), 20);
//! ```
//!
//! Load sweeps and trace serialisation live in [`sweep`] and [`trace`]. A
//! batch of jobs is a collected source:
//! `SyntheticSource::new(&spec, &cluster, seed)?.collect::<Vec<_>>()`.

pub mod distributions;
pub mod error;
#[cfg(test)]
mod generator;
pub mod scenario;
pub mod source;
pub mod spec;
pub mod sweep;
pub mod trace;

pub use distributions::{BoundedPareto, Exponential, LogNormal, WeightedChoice};
pub use error::WorkloadError;
pub use scenario::{
    ScenarioContext, ScenarioFactory, ScenarioRegistry, ScenarioSpec, SourceSpec, TransformSpec,
    DEFAULT_BURST_PERIOD,
};
pub use source::{
    partition_lane, split_seed, FilterClass, InjectBurst, Merge, Partition, RateWindow, Renumber,
    ReplaySource, ScaleLoad, SourceExt, SyntheticSource, TightenDeadlines, Truncate,
    WorkloadSource,
};
pub use spec::{ArrivalProcess, ClassTemplate, DeadlineSpec, ElasticitySpec, WorkloadSpec};
pub use sweep::{load_sweep, slack_sweep};
pub use trace::Trace;
