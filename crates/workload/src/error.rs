//! Errors of the workload API: invalid specs, malformed scenario strings
//! (naming the offending segment), unknown scenario names and trace I/O.

use std::fmt;
use tcrm_sim::JobId;

/// Errors produced by workload-source constructors, the scenario spec
/// grammar and the [`crate::ScenarioRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A [`crate::WorkloadSpec`] failed structural validation.
    InvalidWorkload(String),
    /// A scenario spec string does not follow the grammar. `segment` is the
    /// exact piece of the spec that failed, so the error points at the
    /// offending source or transformer rather than the whole string.
    InvalidScenario {
        /// The full spec string being parsed.
        spec: String,
        /// The segment that failed.
        segment: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A scenario spec names a custom source that is not registered.
    UnknownScenario {
        /// The name that failed to resolve.
        requested: String,
        /// Every custom source the registry currently holds.
        registered: Vec<String>,
    },
    /// A scenario factory with this name is already registered.
    DuplicateScenario(String),
    /// A scenario factory name violates the grammar (reserved word, or
    /// contains `+`, parentheses, commas or whitespace).
    InvalidScenarioName(String),
    /// A trace file could not be read, written or parsed.
    TraceIo {
        /// The trace path.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// A trace job failed [`tcrm_sim::Job::validate`] (non-finite or
    /// non-positive work, non-finite times, a deadline before arrival,
    /// parallelism bounds out of order, a negative demand).
    InvalidTraceJob {
        /// The trace path.
        path: String,
        /// The offending job.
        job: JobId,
        /// What is wrong with it (the validation message, naming the job).
        reason: String,
    },
    /// A source would emit non-finite samples — NaN or infinite arrival
    /// times, work sizes or deadlines, e.g. from a degenerate user-supplied
    /// distribution parameter. Rejected at construction so a single NaN can
    /// never poison a sweep worker's arrival clock or panic a sort
    /// downstream.
    NonFiniteSample {
        /// Which quantity went non-finite.
        context: String,
        /// The offending value (NaN or ±infinity).
        value: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidWorkload(reason) => {
                write!(f, "invalid workload spec: {reason}")
            }
            WorkloadError::InvalidScenario {
                spec,
                segment,
                reason,
            } => write!(
                f,
                "invalid scenario spec '{spec}': segment '{segment}': {reason}"
            ),
            WorkloadError::UnknownScenario {
                requested,
                registered,
            } => {
                if registered.is_empty() {
                    write!(
                        f,
                        "unknown scenario source '{requested}'; no custom sources are registered \
                         (built-ins: poisson, bursty, replay, merge)"
                    )
                } else {
                    write!(
                        f,
                        "unknown scenario source '{requested}'; registered custom sources: {}",
                        registered.join(", ")
                    )
                }
            }
            WorkloadError::DuplicateScenario(name) => {
                write!(f, "a scenario source named '{name}' is already registered")
            }
            WorkloadError::InvalidScenarioName(name) => write!(
                f,
                "invalid scenario source name '{name}': names must be non-empty, free of \
                 '+', '(', ')', ',' and whitespace, and must not shadow a built-in \
                 (poisson, bursty, replay, merge)"
            ),
            WorkloadError::TraceIo { path, message } => {
                write!(f, "trace '{path}': {message}")
            }
            WorkloadError::InvalidTraceJob { path, reason, .. } => {
                write!(f, "trace '{path}': invalid {reason}")
            }
            WorkloadError::NonFiniteSample { context, value } => {
                write!(
                    f,
                    "non-finite {context}: {value} (workload sources must yield finite samples)"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}
