//! Job model: elastic, deadline-constrained, class-tagged work units.
//!
//! A job is described by a total amount of *work* (abstract work units), a
//! per-parallel-unit resource demand, an elasticity range
//! `[min_parallelism, max_parallelism]`, a speedup model that maps the degree
//! of parallelism to an execution-rate multiplier, a deadline and a
//! time-utility function. Service time on a node class with speed factor `s`
//! and parallelism `p` is `total_work / (s * speedup(p))`.

use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a job within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A map keyed by [`JobId`] with a fixed multiplicative hash instead of
/// the standard library's per-process random one. Ids are engine-local
/// integers, so collision attacks are not a concern, and a fixed hash makes
/// the table's layout, and with it when a reused map grows, the same in
/// every process: a warmed-up replication of a run replays the insertions
/// and removals of the one before it exactly, allocation-free included.
pub(crate) type JobIdMap<V> =
    std::collections::HashMap<JobId, V, std::hash::BuildHasherDefault<JobIdHasher>>;

/// The [`JobIdMap`] hasher: one multiply by an odd 64-bit constant per
/// `u64` written (the Fx hash), which spreads consecutive ids over distinct
/// buckets.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobIdHasher(u64);

impl std::hash::Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Workload class of a job. Node classes advertise a speed factor per job
/// class, which is how heterogeneity affects execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Throughput-oriented batch analytics (CPU bound).
    Batch,
    /// Latency-sensitive streaming / event processing (I/O bound).
    Stream,
    /// ML training (benefits strongly from GPU nodes).
    MlTraining,
    /// ML inference / scoring (benefits moderately from GPU nodes).
    MlInference,
}

impl JobClass {
    /// All job classes in index order.
    pub const ALL: [JobClass; 4] = [
        JobClass::Batch,
        JobClass::Stream,
        JobClass::MlTraining,
        JobClass::MlInference,
    ];

    /// Number of job classes.
    pub const COUNT: usize = 4;

    /// Stable index of this class (used by speed matrices and one-hot state
    /// features).
    pub fn index(self) -> usize {
        match self {
            JobClass::Batch => 0,
            JobClass::Stream => 1,
            JobClass::MlTraining => 2,
            JobClass::MlInference => 3,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            JobClass::Batch => "batch",
            JobClass::Stream => "stream",
            JobClass::MlTraining => "ml-train",
            JobClass::MlInference => "ml-infer",
        }
    }
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the execution rate scales with the degree of parallelism.
///
/// All models are normalised so that `speedup(1) == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedupModel {
    /// Perfect linear scaling: `speedup(p) = p`.
    Linear,
    /// Amdahl's law with a serial fraction `f`:
    /// `speedup(p) = 1 / (f + (1 - f)/p)`.
    Amdahl {
        /// Fraction of the work that cannot be parallelised, in `[0, 1]`.
        serial_fraction: f64,
    },
    /// Power-law scaling: `speedup(p) = p^alpha` with `alpha ∈ (0, 1]`.
    Power {
        /// Scaling exponent.
        alpha: f64,
    },
}

impl SpeedupModel {
    /// Execution-rate multiplier at parallelism `p >= 1`.
    pub fn speedup(&self, parallelism: u32) -> f64 {
        let p = parallelism.max(1) as f64;
        match *self {
            SpeedupModel::Linear => p,
            SpeedupModel::Amdahl { serial_fraction } => {
                let f = serial_fraction.clamp(0.0, 1.0);
                1.0 / (f + (1.0 - f) / p)
            }
            SpeedupModel::Power { alpha } => p.powf(alpha.clamp(0.0, 1.0)),
        }
    }
}

impl Default for SpeedupModel {
    fn default() -> Self {
        SpeedupModel::Amdahl {
            serial_fraction: 0.05,
        }
    }
}

/// Time-utility function of a time-critical job.
///
/// Finishing at or before the deadline yields the full `value`. Finishing
/// later decays the utility linearly to zero over a grace window expressed as
/// a fraction of the job's relative deadline; for hard jobs the window is
/// zero and any miss yields zero utility.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeUtility {
    /// Utility earned when the job meets its deadline.
    pub value: f64,
    /// Grace window as a fraction of the relative deadline
    /// (`deadline - arrival`). `0.0` means a hard deadline.
    pub grace_fraction: f64,
}

impl TimeUtility {
    /// A hard-deadline utility: full value on time, zero otherwise.
    pub fn hard(value: f64) -> Self {
        TimeUtility {
            value,
            grace_fraction: 0.0,
        }
    }

    /// A soft-deadline utility decaying over `grace_fraction` of the relative
    /// deadline.
    pub fn soft(value: f64, grace_fraction: f64) -> Self {
        TimeUtility {
            value,
            grace_fraction: grace_fraction.max(0.0),
        }
    }

    /// Utility accrued by a job with the given arrival/deadline finishing at
    /// `finish`.
    pub fn utility(&self, arrival: f64, deadline: f64, finish: f64) -> f64 {
        if finish <= deadline + 1e-9 {
            return self.value;
        }
        let relative = (deadline - arrival).max(1e-9);
        let grace = self.grace_fraction * relative;
        if grace <= 0.0 {
            return 0.0;
        }
        let overrun = finish - deadline;
        (self.value * (1.0 - overrun / grace)).max(0.0)
    }
}

impl Default for TimeUtility {
    fn default() -> Self {
        TimeUtility::soft(1.0, 0.5)
    }
}

/// A unit of elastic, deadline-constrained work submitted to the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique identifier.
    pub id: JobId,
    /// Workload class (drives heterogeneous speed factors).
    pub class: JobClass,
    /// Arrival (submission) time in seconds.
    pub arrival: f64,
    /// Total work in abstract work units. One work unit takes one second on a
    /// speed-1.0 node at parallelism 1 with a linear speedup model.
    pub total_work: f64,
    /// Resource demand of a single parallel unit.
    pub demand_per_unit: ResourceVector,
    /// Minimum degree of parallelism the job can run with.
    pub min_parallelism: u32,
    /// Maximum degree of parallelism the job can exploit.
    pub max_parallelism: u32,
    /// Speedup model mapping parallelism to an execution-rate multiplier.
    pub speedup: SpeedupModel,
    /// Absolute deadline in seconds.
    pub deadline: f64,
    /// Time-utility function.
    pub utility: TimeUtility,
    /// If false the job is rigid: it must run at exactly `min_parallelism`
    /// and may not be re-scaled. Used by the rigid ablation.
    pub malleable: bool,
}

impl Job {
    /// Start building a job with the given id and class.
    pub fn builder(id: JobId, class: JobClass) -> JobBuilder {
        JobBuilder::new(id, class)
    }

    /// Relative deadline (deadline − arrival).
    pub fn relative_deadline(&self) -> f64 {
        self.deadline - self.arrival
    }

    /// Service time on a node class with the given speed factor at the given
    /// parallelism, ignoring queueing and reconfiguration.
    pub fn service_time(&self, speed_factor: f64, parallelism: u32) -> f64 {
        let rate = speed_factor.max(1e-9) * self.speedup.speedup(parallelism);
        self.total_work / rate
    }

    /// Basic structural validity check used by the engine and by property
    /// tests.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.total_work > 0.0) {
            return Err(format!("{}: total_work must be positive", self.id));
        }
        if !self.arrival.is_finite() || !self.deadline.is_finite() || !self.total_work.is_finite() {
            return Err(format!("{}: arrival/deadline/work must be finite", self.id));
        }
        if self.min_parallelism == 0 {
            return Err(format!("{}: min_parallelism must be >= 1", self.id));
        }
        if self.max_parallelism < self.min_parallelism {
            return Err(format!("{}: max_parallelism < min_parallelism", self.id));
        }
        if self.deadline < self.arrival {
            return Err(format!("{}: deadline before arrival", self.id));
        }
        if !self.demand_per_unit.is_non_negative() || !self.demand_per_unit.is_finite() {
            return Err(format!("{}: invalid demand vector", self.id));
        }
        Ok(())
    }
}

/// Fluent builder for [`Job`]. Every field has a sensible default so tests
/// and examples only specify what they care about.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Create a builder with defaults: one work unit, one CPU core + 1 GiB,
    /// parallelism 1..=1, deadline 10× the arrival-relative work, soft
    /// utility.
    pub fn new(id: JobId, class: JobClass) -> Self {
        JobBuilder {
            job: Job {
                id,
                class,
                arrival: 0.0,
                total_work: 1.0,
                demand_per_unit: ResourceVector::of(1.0, 1.0, 0.0, 0.1),
                min_parallelism: 1,
                max_parallelism: 1,
                speedup: SpeedupModel::default(),
                deadline: 10.0,
                utility: TimeUtility::default(),
                malleable: true,
            },
        }
    }

    /// Set the arrival time.
    pub fn arrival(mut self, t: f64) -> Self {
        self.job.arrival = t;
        self
    }

    /// Set the total work.
    pub fn total_work(mut self, w: f64) -> Self {
        self.job.total_work = w;
        self
    }

    /// Set the per-unit resource demand.
    pub fn demand_per_unit(mut self, d: ResourceVector) -> Self {
        self.job.demand_per_unit = d;
        self
    }

    /// Set the elasticity range `[min, max]`.
    pub fn parallelism_range(mut self, min: u32, max: u32) -> Self {
        self.job.min_parallelism = min;
        self.job.max_parallelism = max.max(min);
        self
    }

    /// Set the speedup model.
    pub fn speedup(mut self, model: SpeedupModel) -> Self {
        self.job.speedup = model;
        self
    }

    /// Set the absolute deadline.
    pub fn deadline(mut self, d: f64) -> Self {
        self.job.deadline = d;
        self
    }

    /// Set the time-utility function.
    pub fn utility(mut self, u: TimeUtility) -> Self {
        self.job.utility = u;
        self
    }

    /// Mark the job rigid (non-malleable).
    pub fn rigid(mut self) -> Self {
        self.job.malleable = false;
        self
    }

    /// Set malleability explicitly.
    pub fn malleable(mut self, malleable: bool) -> Self {
        self.job.malleable = malleable;
        self
    }

    /// Finish building. Panics if the job is structurally invalid, which only
    /// happens on programmer error (tests cover the validation separately).
    pub fn build(self) -> Job {
        self.job
            .validate()
            .map(|_| self.job)
            .expect("JobBuilder produced an invalid job")
    }

    /// Finish building without panicking.
    pub fn try_build(self) -> Result<Job, String> {
        self.job.validate().map(|_| self.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::builder(JobId(1), JobClass::Batch)
            .arrival(5.0)
            .total_work(20.0)
            .parallelism_range(1, 8)
            .deadline(45.0)
            .build()
    }

    #[test]
    fn job_class_index_roundtrip() {
        for (i, c) in JobClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn speedup_models_are_normalised_at_one() {
        let models = [
            SpeedupModel::Linear,
            SpeedupModel::Amdahl {
                serial_fraction: 0.1,
            },
            SpeedupModel::Power { alpha: 0.7 },
        ];
        for m in models {
            assert!((m.speedup(1) - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn speedup_is_monotone_and_sublinear_for_amdahl() {
        let m = SpeedupModel::Amdahl {
            serial_fraction: 0.2,
        };
        let mut prev = 0.0;
        for p in 1..=32 {
            let s = m.speedup(p);
            assert!(s >= prev);
            assert!(s <= p as f64 + 1e-12);
            prev = s;
        }
        // Amdahl asymptote is 1/serial_fraction.
        assert!(m.speedup(10_000) < 5.0 + 1e-6);
    }

    #[test]
    fn marginal_gain_decreases() {
        let m = SpeedupModel::Power { alpha: 0.6 };
        let gain = |p: u32| m.speedup(p + 1) - m.speedup(p);
        assert!(gain(1) > gain(4));
        assert!(gain(4) > gain(16));
    }

    #[test]
    fn utility_full_before_deadline_and_decays_after() {
        let u = TimeUtility::soft(10.0, 0.5);
        // relative deadline = 40, grace = 20
        assert_eq!(u.utility(5.0, 45.0, 30.0), 10.0);
        assert_eq!(u.utility(5.0, 45.0, 45.0), 10.0);
        let half = u.utility(5.0, 45.0, 55.0);
        assert!((half - 5.0).abs() < 1e-9);
        assert_eq!(u.utility(5.0, 45.0, 100.0), 0.0);
    }

    #[test]
    fn hard_utility_is_all_or_nothing() {
        let u = TimeUtility::hard(3.0);
        assert_eq!(u.utility(0.0, 10.0, 10.0), 3.0);
        assert_eq!(u.utility(0.0, 10.0, 10.0001), 0.0);
    }

    #[test]
    fn service_time_uses_speed_and_speedup() {
        let j = job();
        // speed 2.0, parallelism 1 -> 20 / 2 = 10
        assert!((j.service_time(2.0, 1) - 10.0).abs() < 1e-9);
        // linear part of Amdahl default keeps it below 10 at p=4
        assert!(j.service_time(2.0, 4) < 10.0);
    }

    #[test]
    fn validation_catches_bad_jobs() {
        let bad = Job::builder(JobId(3), JobClass::Batch)
            .total_work(0.0)
            .try_build();
        assert!(bad.is_err());
        let bad = Job::builder(JobId(4), JobClass::Batch)
            .arrival(10.0)
            .deadline(5.0)
            .try_build();
        assert!(bad.is_err());
    }

    #[test]
    fn builder_defaults_are_valid() {
        let j = Job::builder(JobId(9), JobClass::MlInference).build();
        assert!(j.validate().is_ok());
        assert!(j.malleable);
    }
}
