//! # tcrm-bench — experiment harness and benchmark suite
//!
//! Regenerates every table and figure of the (reconstructed) evaluation:
//!
//! * [`policy`] — the composable policy registry: [`PolicyFactory`] entries
//!   (baselines, DRL agents, ad-hoc policies) resolved and composed with
//!   adapters through spec strings like `"edf+rigid"`;
//! * [`runner`] — the builder-style [`EvalSession`]: one flattened,
//!   work-stealing `(policy × workload × seed)` sweep on every core, with
//!   per-worker scratch reuse, streaming progress, versioned-JSON
//!   checkpoints (rerun with the same checkpoint to resume) and shards
//!   for spreading a grid across machines;
//! * [`results`] — row/aggregate types plus CSV, markdown and versioned
//!   JSON emitters;
//! * [`experiments`] — one function per table/figure (`table1` … `fig11`),
//!   exactly as indexed in `DESIGN.md` and `EXPERIMENTS.md`;
//! * the `expdriver` binary — `cargo run -p tcrm-bench --release --bin
//!   expdriver -- <experiment|all> [--quick]`;
//! * Criterion benches (`benches/`) — engine throughput, per-scheduler
//!   decision latency vs cluster size, network forward/backward cost,
//!   training-update cost, workload-generation throughput and the
//!   flattened-vs-per-point sweep comparison.

pub mod cli;
pub mod experiments;
pub mod policy;
pub mod results;
pub mod runner;

pub use policy::{AdapterSpec, PolicyError, PolicyFactory, PolicyRegistry, PolicySpec};
pub use results::{Aggregate, ResultRow, ResultTable, DEFAULT_SCENARIO, RESULT_SCHEMA_VERSION};
pub use runner::{EvalReport, EvalSession, ProgressCallback, SweepPlan, SweepScratch};
