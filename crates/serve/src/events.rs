//! The serving plane's event vocabulary: what happened to each job on its
//! way through admission, scheduling and completion, plus the shed policies
//! the admission controller can apply under overload.
//!
//! Events render to single canonical text lines (`Display`); the session
//! prefixes each with a sequence number and the virtual timestamp, making a
//! run's event log a byte-comparable artifact — the CI determinism pin
//! `cmp`s two same-seed logs.

use std::fmt;
use std::str::FromStr;

use tcrm_sim::{JobClass, JobId, NodeClassId};

/// What to do when a job arrives and the bounded admission queue is over its
/// cap (the cap is always hard — no policy lets the queue grow past it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop the arriving job (classic tail drop). The queue keeps its
    /// oldest, earliest-deadline work.
    #[default]
    RejectNewest,
    /// Drop the queued job with the **latest** deadline (ties broken by
    /// highest id): under deadline semantics the latest-deadline job is the
    /// one most likely to still meet its deadline after re-submission, and
    /// shedding it preserves the most urgent work.
    RejectLatestDeadline,
    /// Soften before shedding: once the queue passes half its cap, arriving
    /// jobs are degraded to rigid minimum-parallelism service (cheaper to
    /// place, immune to re-scaling churn). Past the cap itself the policy
    /// still tail-drops — the bound is never exceeded.
    DegradeToRigid,
}

impl ShedPolicy {
    /// Every policy, in canonical order (drives sweeps and the bench).
    pub const ALL: [ShedPolicy; 3] = [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectLatestDeadline,
        ShedPolicy::DegradeToRigid,
    ];

    /// The canonical spelling used by `Display`/`FromStr` and result tables.
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::RejectLatestDeadline => "reject-latest-deadline",
            ShedPolicy::DegradeToRigid => "degrade-to-rigid",
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ShedPolicy::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| {
                format!(
                    "unknown shed policy '{s}' (expected reject-newest, \
                     reject-latest-deadline or degrade-to-rigid)"
                )
            })
    }
}

/// One observable step in a job's life under the serving facade, appended
/// (with `seq time ` prefixes) to the session's canonical event log.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A producer's job reached the engine (its arrival epoch fired).
    Submitted {
        /// The job.
        job: JobId,
        /// Its workload class.
        class: JobClass,
        /// Index of the producer thread that carried it.
        producer: usize,
        /// Admission-queue depth after the arrival joined it.
        depth: usize,
    },
    /// The admission controller dropped a job (the arriving one under
    /// `reject-newest`, possibly an older queued one under
    /// `reject-latest-deadline`).
    Shed {
        /// The dropped job.
        job: JobId,
        /// The policy that chose it.
        policy: ShedPolicy,
    },
    /// The admission controller degraded a job to rigid
    /// minimum-parallelism service instead of dropping it.
    Degraded {
        /// The degraded job.
        job: JobId,
    },
    /// The scheduler started a job.
    Started {
        /// The job.
        job: JobId,
        /// Node class it was placed on.
        class: NodeClassId,
        /// Granted degree of parallelism.
        parallelism: u32,
        /// Virtual seconds between the job's arrival and this decision.
        latency: f64,
    },
    /// The scheduler re-scaled a running job.
    Scaled {
        /// The job.
        job: JobId,
        /// Its new degree of parallelism.
        parallelism: u32,
    },
    /// A job finished.
    Completed {
        /// The job.
        job: JobId,
    },
    /// The run ended (all work drained, or aborted by the deadlock guard /
    /// `max_sim_time`).
    Finished {
        /// Total jobs accounted for (admitted, shed or never submitted).
        total_jobs: usize,
        /// Whether the run aborted before draining.
        aborted: bool,
    },
}

impl fmt::Display for ServeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeEvent::Submitted {
                job,
                class,
                producer,
                depth,
            } => write!(
                f,
                "submit job={} class={class} producer={producer} depth={depth}",
                job.0
            ),
            ServeEvent::Shed { job, policy } => write!(f, "shed job={} policy={policy}", job.0),
            ServeEvent::Degraded { job } => write!(f, "degrade job={}", job.0),
            ServeEvent::Started {
                job,
                class,
                parallelism,
                latency,
            } => write!(
                f,
                "start job={} class={} par={parallelism} wait={latency}",
                job.0, class.0
            ),
            ServeEvent::Scaled { job, parallelism } => {
                write!(f, "scale job={} par={parallelism}", job.0)
            }
            ServeEvent::Completed { job } => write!(f, "complete job={}", job.0),
            ServeEvent::Finished {
                total_jobs,
                aborted,
            } => write!(f, "finish jobs={total_jobs} aborted={aborted}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_policies_round_trip_their_labels() {
        for policy in ShedPolicy::ALL {
            let parsed: ShedPolicy = policy.to_string().parse().unwrap();
            assert_eq!(parsed, policy);
        }
        assert!("drop-all".parse::<ShedPolicy>().is_err());
    }

    #[test]
    fn events_render_single_canonical_lines() {
        let event = ServeEvent::Submitted {
            job: JobId(7),
            class: JobClass::Stream,
            producer: 2,
            depth: 5,
        };
        let line = event.to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("submit job=7"));
        let shed = ServeEvent::Shed {
            job: JobId(9),
            policy: ShedPolicy::RejectLatestDeadline,
        };
        assert_eq!(shed.to_string(), "shed job=9 policy=reject-latest-deadline");
    }
}
