//! # tcrm-serve — serving facade over the TCRM simulator
//!
//! The batch drivers in `tcrm-sim` answer *"what would this policy score on
//! this trace?"*; this crate answers the serving-side questions the paper's
//! deployment story raises: what happens at the ingress when many producers
//! submit concurrently, how does the system behave under overload, and what
//! do the **tails** of the decision latency look like?
//!
//! Three pieces:
//!
//! * **Deterministic virtual-time executor** ([`ServeSession`]): producer
//!   threads stream a `WorkloadSource` through bounded channels of recycled
//!   job blocks, a seeded multiplexer merges them into one arrival stream,
//!   and the engine's own epoch loop (`Simulator::run_service`) drives the
//!   decision epochs with the session's admission and telemetry hooks. In
//!   [`ClockMode::Virtual`] the whole run is a pure function of
//!   `(jobs, config, scheduler)` — a given `(seed, scenario, policy)` yields
//!   a **byte-identical event log** and identical percentile reports every
//!   run, on every machine. [`ClockMode::Wall`] adds host-clock measurement
//!   of per-epoch compute without changing job-visible behaviour. Memory is
//!   bounded by `producers × chunk × channel_capacity + queue_cap` jobs,
//!   which is what makes million-arrival runs a benchmark row instead of an
//!   allocation.
//! * **Overload robustness**: a hard-bounded admission queue with pluggable
//!   [`ShedPolicy`]s (reject-newest, reject-latest-deadline,
//!   degrade-to-rigid) and per-class backpressure counters.
//! * **Tail-latency telemetry** ([`ServeTelemetry`]): an allocation-free
//!   log-bucketed [`LatencyHistogram`] (p50/p99/p999, mergeable), a
//!   queue-depth time series with high-water mark, and admission/shed rates,
//!   rendered as a fixed-format percentile report.
//!
//! With admission effectively disabled (a cap the workload never reaches), a
//! serving run reports the *identical* summary as `Simulator::run` over the
//! same jobs — the serving plane adds observability and overload handling,
//! never different scheduling outcomes.

pub mod events;
pub mod hist;
pub mod mux;
pub mod session;
pub mod telemetry;

pub use events::{ServeEvent, ShedPolicy};
pub use hist::{LatencyHistogram, LatencyLayout, MIN_LATENCY, NUM_BUCKETS, SUBBUCKETS_PER_OCTAVE};
pub use mux::{produce_blocks, BlockChannel, BlockMux, DEFAULT_CHUNK};
pub use session::{ClockMode, ServeConfig, ServeProgress, ServeReport, ServeSession};
pub use telemetry::{ClassCounters, ServeTelemetry};
