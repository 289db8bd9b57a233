//! Metrics collection: per-job completion records, utilisation traces and the
//! summary statistics reported in every table and figure of the evaluation.

use crate::config::ClusterSpec;
use crate::hist::{HistogramLayout, LogHistogram};
use crate::job::{JobClass, JobId};
use crate::resources::ResourceVector;
use crate::stats;
use serde::{Deserialize, Serialize};

/// The record kept for every job that finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedJob {
    /// Job id.
    pub id: JobId,
    /// Workload class.
    pub class: JobClass,
    /// Arrival time.
    pub arrival: f64,
    /// Time the job started executing.
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Absolute deadline.
    pub deadline: f64,
    /// Queueing delay (start − arrival).
    pub wait: f64,
    /// Response time (finish − arrival).
    pub response: f64,
    /// Best-case service time (maximum parallelism on the fastest node class)
    /// used as the slowdown denominator.
    pub best_case_service: f64,
    /// Bounded slowdown: response / max(best_case_service, 1s).
    pub slowdown: f64,
    /// True if the job finished after its deadline.
    pub missed: bool,
    /// Utility accrued according to the job's time-utility function.
    pub utility: f64,
    /// Maximum utility the job could have earned.
    pub max_utility: f64,
    /// Time-averaged degree of parallelism while running.
    pub avg_parallelism: f64,
    /// Number of elastic re-scaling operations applied to the job.
    pub scale_count: u32,
}

/// The maximum number of node classes a cluster may declare. Fixing the
/// arity lets the utilisation trace store per-class vectors inline (no
/// per-sample heap allocation); the paper's clusters use 4 classes, so 8
/// leaves generous headroom.
pub const MAX_NODE_CLASSES: usize = 8;

/// Per-node-class utilisation vectors stored inline with fixed arity — the
/// allocation-free replacement for the `Vec<ResourceVector>` each sample used
/// to own. Unused slots beyond [`Self::len`] are kept zeroed so equality and
/// serialisation only reflect the populated prefix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PerClassUtilization {
    values: [ResourceVector; MAX_NODE_CLASSES],
    len: usize,
}

impl PerClassUtilization {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a slice of per-class vectors (at most
    /// [`MAX_NODE_CLASSES`]).
    pub fn from_slice(values: &[ResourceVector]) -> Self {
        let mut out = Self::default();
        for v in values {
            out.push(*v);
        }
        out
    }

    /// Append one class's utilisation vector.
    ///
    /// # Panics
    /// Panics if more than [`MAX_NODE_CLASSES`] vectors are pushed.
    pub fn push(&mut self, value: ResourceVector) {
        assert!(
            self.len < MAX_NODE_CLASSES,
            "cluster declares more than {MAX_NODE_CLASSES} node classes"
        );
        self.values[self.len] = value;
        self.len += 1;
    }

    /// Number of populated classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no class has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The utilisation vector of class `index`, if populated.
    pub fn get(&self, index: usize) -> Option<&ResourceVector> {
        self.values[..self.len].get(index)
    }

    /// Iterate over the populated per-class vectors.
    pub fn iter(&self) -> std::slice::Iter<'_, ResourceVector> {
        self.values[..self.len].iter()
    }
}

impl std::ops::Index<usize> for PerClassUtilization {
    type Output = ResourceVector;
    fn index(&self, index: usize) -> &ResourceVector {
        &self.values[..self.len][index]
    }
}

impl<'a> IntoIterator for &'a PerClassUtilization {
    type Item = &'a ResourceVector;
    type IntoIter = std::slice::Iter<'a, ResourceVector>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One sample of the utilisation trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Sample time.
    pub time: f64,
    /// Per node class utilisation vectors (fraction of capacity in use),
    /// stored inline with fixed arity.
    pub per_class: PerClassUtilization,
    /// Capacity-weighted scalar utilisation over the whole cluster.
    pub overall: f64,
    /// Number of pending jobs at the sample time.
    pub pending: usize,
    /// Number of running jobs at the sample time.
    pub running: usize,
}

/// The utilisation timeline of one simulation (Figure 5).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationTrace {
    /// Samples in time order.
    pub samples: Vec<UtilizationSample>,
}

/// Estimated electrical energy drawn during one simulation, derived from the
/// utilisation trace and the per-class [`crate::config::PowerModel`]s
/// (utilisation-proportional power, integrated over the trace with the
/// trapezoid-free left-Riemann sum the sampling interval justifies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Total energy over the run, in joules.
    pub total_joules: f64,
    /// Total energy over the run, in kilowatt-hours.
    pub total_kwh: f64,
    /// Energy per node class in joules ([`crate::config::ClusterSpec`] class
    /// order).
    pub per_class_joules: Vec<f64>,
    /// Energy divided by the number of jobs that completed (joules per job);
    /// 0 when nothing completed.
    pub joules_per_completed_job: f64,
    /// Duration covered by the trace, in seconds.
    pub duration: f64,
}

impl EnergyReport {
    /// Mean electrical power over the run, in watts.
    pub fn mean_watts(&self) -> f64 {
        if self.duration > 0.0 {
            self.total_joules / self.duration
        } else {
            0.0
        }
    }
}

impl UtilizationTrace {
    /// Mean overall utilisation across samples; the same value as
    /// [`Summary::mean_utilization`] of the run that recorded the trace.
    pub fn mean_overall(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.overall).sum::<f64>() / self.samples.len() as f64
    }

    /// Estimate the energy drawn over the traced interval for a cluster
    /// described by `spec`, using each class's utilisation-proportional
    /// [`crate::config::PowerModel`]. `completed_jobs` is only used for the
    /// per-job normalisation. Returns an all-zero report for traces with
    /// fewer than two samples.
    pub fn energy_report(&self, spec: &ClusterSpec, completed_jobs: usize) -> EnergyReport {
        let num_classes = spec.num_classes();
        let mut per_class_joules = vec![0.0; num_classes];
        if self.samples.len() >= 2 {
            for pair in self.samples.windows(2) {
                let dt = (pair[1].time - pair[0].time).max(0.0);
                if dt <= 0.0 {
                    continue;
                }
                for (ci, class) in spec.node_classes.iter().enumerate() {
                    // Scalar class utilisation: mean over the dimensions the
                    // class actually provides (same convention as
                    // `mean_class_overall`).
                    let util = pair[0]
                        .per_class
                        .get(ci)
                        .map(|v| {
                            let nz: Vec<f64> = v.0.iter().cloned().filter(|x| *x > 0.0).collect();
                            if nz.is_empty() {
                                0.0
                            } else {
                                stats::mean(&nz)
                            }
                        })
                        .unwrap_or(0.0);
                    let watts = class.power.watts_at(util) * class.count as f64;
                    per_class_joules[ci] += watts * dt;
                }
            }
        }
        let total_joules: f64 = per_class_joules.iter().sum();
        // Structured instead of `last().unwrap()`: zero- and single-sample
        // traces (a run shorter than one sampling interval) fall through to
        // a zero-length window rather than risking a panic if the guard and
        // the access ever drift apart.
        let duration = match (self.samples.first(), self.samples.last()) {
            (Some(first), Some(last)) if self.samples.len() >= 2 => {
                (last.time - first.time).max(0.0)
            }
            _ => 0.0,
        };
        EnergyReport {
            total_joules,
            total_kwh: total_joules / 3.6e6,
            per_class_joules,
            joules_per_completed_job: if completed_jobs > 0 {
                total_joules / completed_jobs as f64
            } else {
                0.0
            },
            duration,
        }
    }

    /// Mean utilisation of one node class (scalar, capacity-weighted over the
    /// class's dimensions is approximated by the mean of non-zero dimensions).
    pub fn mean_class_overall(&self, class_index: usize) -> f64 {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.per_class.get(class_index))
            .map(|v| {
                let nz: Vec<f64> = v.0.iter().cloned().filter(|x| *x > 0.0).collect();
                if nz.is_empty() {
                    0.0
                } else {
                    stats::mean(&nz)
                }
            })
            .collect();
        stats::mean(&vals)
    }
}

/// Aggregate statistics of one simulation run. This is the row format of the
/// comparison tables (Tables 2–3) and the y-axes of most figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Total jobs submitted.
    pub total_jobs: usize,
    /// Jobs that finished before the simulation ended.
    pub completed_jobs: usize,
    /// Jobs that were never started (e.g. unschedulable or the run aborted).
    pub unfinished_jobs: usize,
    /// Jobs that finished after their deadline.
    pub missed_jobs: usize,
    /// Deadline-miss rate over submitted jobs (unfinished jobs count as
    /// missed).
    pub miss_rate: f64,
    /// Mean bounded slowdown over completed jobs.
    pub mean_slowdown: f64,
    /// Median bounded slowdown.
    pub p50_slowdown: f64,
    /// 95th percentile bounded slowdown.
    pub p95_slowdown: f64,
    /// 99th percentile bounded slowdown.
    pub p99_slowdown: f64,
    /// Mean queueing delay.
    pub mean_wait: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// Total utility accrued.
    pub total_utility: f64,
    /// Maximum achievable utility (every job meets its deadline).
    pub max_total_utility: f64,
    /// `total_utility / max_total_utility`.
    pub utility_ratio: f64,
    /// Completion time of the last job minus arrival of the first.
    pub makespan: f64,
    /// Mean cluster utilisation over the run.
    pub mean_utilization: f64,
    /// Per-job-class deadline-miss rate ([`JobClass::ALL`] order).
    pub per_class_miss_rate: [f64; JobClass::COUNT],
    /// Per-job-class mean bounded slowdown ([`JobClass::ALL`] order); 0 for
    /// classes with no completed jobs.
    #[serde(default)]
    pub per_class_mean_slowdown: [f64; JobClass::COUNT],
    /// Jain fairness index over completed-job slowdowns: 1 means every job
    /// was slowed equally, small values mean a few jobs bore most of the
    /// queueing pain.
    #[serde(default = "default_fairness")]
    pub slowdown_fairness: f64,
    /// Mean degree of parallelism over completed jobs.
    pub mean_parallelism: f64,
    /// Total number of elastic re-scaling operations.
    pub scale_events: u64,
    /// Number of scheduler actions the engine rejected.
    pub invalid_actions: u64,
    /// Number of decision epochs.
    pub decision_epochs: u64,
}

fn default_fairness() -> f64 {
    1.0
}

impl Summary {
    /// Build the summary of a run from the collector's streaming
    /// aggregates. Each field is the batch formula over the completion
    /// records, folded left to right in completion order (`mean = Σx / n`,
    /// Jain fairness `(Σx)² / (n·Σx²)`, makespan from the running extrema);
    /// `slowdown_percentiles` are the p50/p95/p99 bounded slowdowns.
    fn from_stats(
        c: &MetricsCollector,
        total_jobs: usize,
        slowdown_percentiles: [f64; 3],
    ) -> Summary {
        let b = &c.stats;
        let n = b.completed;
        let mean = |sum: f64| if n > 0 { sum / n as f64 } else { 0.0 };
        let unfinished = total_jobs.saturating_sub(n);
        // Unfinished jobs forfeit their utility; count their maximum toward
        // the achievable total so the ratio penalises them.
        let max_total_utility = b.completed_max_utility + c.unfinished_max_utility;
        let mut per_class_miss_rate = [0.0; JobClass::COUNT];
        let mut per_class_mean_slowdown = [0.0; JobClass::COUNT];
        for class in JobClass::ALL {
            let i = class.index();
            if b.per_class_count[i] > 0 {
                per_class_miss_rate[i] = b.per_class_missed[i] as f64 / b.per_class_count[i] as f64;
                per_class_mean_slowdown[i] =
                    b.per_class_sum_slowdown[i] / b.per_class_count[i] as f64;
            }
        }
        let effective_missed = b.missed + unfinished;
        let [p50_slowdown, p95_slowdown, p99_slowdown] = slowdown_percentiles;
        Summary {
            total_jobs,
            completed_jobs: n,
            unfinished_jobs: unfinished,
            missed_jobs: b.missed,
            miss_rate: if total_jobs > 0 {
                effective_missed as f64 / total_jobs as f64
            } else {
                0.0
            },
            mean_slowdown: mean(b.sum_slowdown),
            p50_slowdown,
            p95_slowdown,
            p99_slowdown,
            mean_wait: mean(b.sum_wait),
            mean_response: mean(b.sum_response),
            total_utility: b.total_utility,
            max_total_utility,
            utility_ratio: if max_total_utility > 0.0 {
                b.total_utility / max_total_utility
            } else {
                0.0
            },
            makespan: if n == 0 {
                0.0
            } else {
                (b.last_finish - b.first_arrival).max(0.0)
            },
            mean_utilization: if b.util_samples > 0 {
                b.util_sum / b.util_samples as f64
            } else {
                0.0
            },
            per_class_miss_rate,
            per_class_mean_slowdown,
            slowdown_fairness: if n == 0 || b.sum_slowdown_sq <= 0.0 {
                1.0
            } else {
                (b.sum_slowdown * b.sum_slowdown) / (n as f64 * b.sum_slowdown_sq)
            },
            mean_parallelism: mean(b.sum_parallelism),
            scale_events: c.scale_events,
            invalid_actions: c.invalid_actions,
            decision_epochs: c.decision_epochs,
        }
    }
}

/// The bounded slowdown histogram's layout: 32 sub-buckets per octave from
/// `1e-3` over 64 octaves (2048 buckets) cover `[1e-3, ~1.8e16)`. Bounded
/// slowdown is `response / max(best_case, 1s)`, so values below 1 are rare
/// and values below `1e-3` are impossible in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlowdownLayout;

impl HistogramLayout for SlowdownLayout {
    const MIN: f64 = 1e-3;
    const SUBBUCKETS_PER_OCTAVE: u32 = 32;
    const NUM_BUCKETS: usize = 64 * 32;
}

/// The streaming aggregates every [`Summary`] is built from: sums,
/// per-class arrays and extrema folded one completion (or utilisation
/// sample) at a time, so they are O(1) in the number of jobs. When the
/// per-job log is dropped ([`crate::SimConfig::bounded_metrics`]) a
/// log-bucketed slowdown histogram is folded too and supplies the slowdown
/// percentiles, with a relative error of at most `2^(1/64) ≈ 1.1%`
/// (clamped to the observed min/max, so degenerate distributions stay
/// exact).
#[derive(Debug, Clone, PartialEq)]
struct BoundedStats {
    completed: usize,
    missed: usize,
    sum_slowdown: f64,
    sum_slowdown_sq: f64,
    sum_wait: f64,
    sum_response: f64,
    sum_parallelism: f64,
    total_utility: f64,
    completed_max_utility: f64,
    first_arrival: f64,
    last_finish: f64,
    per_class_count: [usize; JobClass::COUNT],
    per_class_missed: [usize; JobClass::COUNT],
    per_class_sum_slowdown: [f64; JobClass::COUNT],
    util_sum: f64,
    util_samples: u64,
    slowdown_hist: Option<LogHistogram<SlowdownLayout>>,
}

impl Default for BoundedStats {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundedStats {
    /// An empty accumulator without a slowdown histogram.
    fn new() -> Self {
        BoundedStats {
            completed: 0,
            missed: 0,
            sum_slowdown: 0.0,
            sum_slowdown_sq: 0.0,
            sum_wait: 0.0,
            sum_response: 0.0,
            sum_parallelism: 0.0,
            total_utility: 0.0,
            completed_max_utility: 0.0,
            first_arrival: f64::INFINITY,
            last_finish: f64::NEG_INFINITY,
            per_class_count: [0; JobClass::COUNT],
            per_class_missed: [0; JobClass::COUNT],
            per_class_sum_slowdown: [0.0; JobClass::COUNT],
            util_sum: 0.0,
            util_samples: 0,
            slowdown_hist: None,
        }
    }

    /// Clear every aggregate in place, keeping the histogram allocation.
    fn reset(&mut self) {
        let hist = self.slowdown_hist.take();
        *self = Self::new();
        self.slowdown_hist = hist.map(|mut h| {
            h.reset();
            h
        });
    }

    /// Fold one completion record in. O(1), allocation-free.
    fn fold(&mut self, job: &CompletedJob) {
        self.completed += 1;
        if job.missed {
            self.missed += 1;
            self.per_class_missed[job.class.index()] += 1;
        }
        self.sum_slowdown += job.slowdown;
        self.sum_slowdown_sq += job.slowdown * job.slowdown;
        self.sum_wait += job.wait;
        self.sum_response += job.response;
        self.sum_parallelism += job.avg_parallelism;
        self.total_utility += job.utility;
        self.completed_max_utility += job.max_utility;
        self.first_arrival = self.first_arrival.min(job.arrival);
        self.last_finish = self.last_finish.max(job.finish);
        self.per_class_count[job.class.index()] += 1;
        self.per_class_sum_slowdown[job.class.index()] += job.slowdown;
        if let Some(hist) = &mut self.slowdown_hist {
            hist.record(job.slowdown);
        }
    }

    /// Fold one utilisation sample's overall scalar in.
    fn fold_sample(&mut self, overall: f64) {
        self.util_sum += overall;
        self.util_samples += 1;
    }
}

/// Accumulates metrics while a simulation runs.
///
/// Every completion and utilisation sample is folded into the streaming
/// aggregates the [`Summary`] is built from. By default the
/// collector also keeps the per-job completion log and the utilisation
/// trace, and reports exact slowdown percentiles, sorted in a scratch
/// buffer reused across runs. In bounded mode ([`Self::configure`]) it keeps
/// neither and reads the percentiles from a slowdown histogram, so its
/// footprint is independent of the job count.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    completed: Vec<CompletedJob>,
    trace: UtilizationTrace,
    /// Count of rejected scheduler actions.
    pub invalid_actions: u64,
    /// Count of applied scale actions.
    pub scale_events: u64,
    /// Count of decision epochs.
    pub decision_epochs: u64,
    /// Maximum utility of jobs that never finished (filled in at the end of a
    /// run for jobs still pending/running when the engine gave up).
    pub unfinished_max_utility: f64,
    stats: BoundedStats,
    /// Scratch for the exact slowdown percentiles.
    sorted_slowdowns: Vec<f64>,
}

impl MetricsCollector {
    /// Fresh collector that keeps the per-job log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep the per-job completion log and the utilisation trace
    /// (`bounded == false`, the default) or drop them and take the slowdown
    /// percentiles from a histogram. Called by the engine at the start of
    /// every run from [`crate::SimConfig::bounded_metrics`]; the histogram
    /// is allocated when bounded mode is first turned on and reused across
    /// bounded runs.
    pub fn configure(&mut self, bounded: bool) {
        if bounded != self.is_bounded() {
            self.stats.slowdown_hist = bounded.then(LogHistogram::new);
        }
    }

    /// True when the per-job log and the utilisation trace are dropped
    /// ([`Self::completed`] and [`Self::trace`] stay empty in this mode).
    pub fn is_bounded(&self) -> bool {
        self.stats.slowdown_hist.is_some()
    }

    /// The completion records, in completion order (empty in bounded mode).
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// The utilisation trace (empty in bounded mode).
    pub fn trace(&self) -> &UtilizationTrace {
        &self.trace
    }

    /// Take the completion log and the utilisation trace out of the
    /// collector.
    pub(crate) fn into_log(self) -> (Vec<CompletedJob>, UtilizationTrace) {
        (self.completed, self.trace)
    }

    /// Pre-size the completion log for a run of `total_jobs` jobs so
    /// steady-state recording never grows the buffer. No-op in bounded mode,
    /// where the footprint must stay independent of the job count.
    pub fn reserve(&mut self, total_jobs: usize) {
        if !self.is_bounded() {
            self.completed.reserve(total_jobs);
        }
    }

    /// Pre-size the utilisation trace for roughly `samples` samples so
    /// steady-state sampling never grows the buffer.
    pub fn reserve_samples(&mut self, samples: usize) {
        let have = self.trace.samples.capacity() - self.trace.samples.len();
        if samples > have {
            self.trace.samples.reserve(samples - have);
        }
    }

    /// Clear every record and counter, retaining allocated capacity, so the
    /// collector can be reused for another run.
    pub fn reset(&mut self) {
        self.completed.clear();
        self.trace.samples.clear();
        self.invalid_actions = 0;
        self.scale_events = 0;
        self.decision_epochs = 0;
        self.unfinished_max_utility = 0.0;
        self.stats.reset();
    }

    /// Record a finished job.
    pub fn record_completion(&mut self, job: CompletedJob) {
        self.stats.fold(&job);
        if !self.is_bounded() {
            self.completed.push(job);
        }
    }

    /// Record a utilisation sample.
    pub fn record_sample(&mut self, sample: UtilizationSample) {
        self.stats.fold_sample(sample.overall);
        if !self.is_bounded() {
            self.trace.samples.push(sample);
        }
    }

    /// Count an invalid action.
    pub fn record_invalid_action(&mut self) {
        self.invalid_actions += 1;
    }

    /// Count an applied scale action.
    pub fn record_scale_event(&mut self) {
        self.scale_events += 1;
    }

    /// Count a decision epoch.
    pub fn record_decision_epoch(&mut self) {
        self.decision_epochs += 1;
    }

    /// Add forfeited utility for a job that never finished.
    pub fn record_unfinished(&mut self, max_utility: f64) {
        self.unfinished_max_utility += max_utility;
    }

    /// Produce the summary for `total_jobs` submitted jobs. Allocation-free
    /// once the percentile scratch has grown to the run's completion count.
    pub fn summarize(&mut self, total_jobs: usize) -> Summary {
        const PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];
        let percentiles = match &self.stats.slowdown_hist {
            Some(hist) => PERCENTILES.map(|p| hist.quantile(p / 100.0)),
            None => {
                let sorted = &mut self.sorted_slowdowns;
                sorted.clear();
                sorted.extend(self.completed.iter().map(|j| j.slowdown));
                sorted.sort_unstable_by(f64::total_cmp);
                PERCENTILES.map(|p| stats::percentile_sorted(sorted, p))
            }
        };
        Summary::from_stats(self, total_jobs, percentiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, missed: bool, slowdown: f64, utility: f64) -> CompletedJob {
        CompletedJob {
            id: JobId(id),
            class: JobClass::Batch,
            arrival: 0.0,
            start: 1.0,
            finish: 11.0,
            deadline: if missed { 5.0 } else { 50.0 },
            wait: 1.0,
            response: 11.0,
            best_case_service: 10.0,
            slowdown,
            missed,
            utility,
            max_utility: 1.0,
            avg_parallelism: 2.0,
            scale_count: 0,
        }
    }

    #[test]
    fn summary_counts_and_rates() {
        let mut c = MetricsCollector::new();
        c.record_completion(record(1, false, 1.0, 1.0));
        c.record_completion(record(2, true, 3.0, 0.0));
        c.record_completion(record(3, false, 2.0, 1.0));
        let s = c.summarize(4); // one job never finished
        assert_eq!(s.total_jobs, 4);
        assert_eq!(s.completed_jobs, 3);
        assert_eq!(s.unfinished_jobs, 1);
        assert_eq!(s.missed_jobs, 1);
        assert!((s.miss_rate - 0.5).abs() < 1e-12); // (1 missed + 1 unfinished) / 4
        assert!((s.mean_slowdown - 2.0).abs() < 1e-12);
        assert!((s.total_utility - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utility_ratio_penalises_unfinished_jobs() {
        let mut c = MetricsCollector::new();
        c.record_completion(record(1, false, 1.0, 1.0));
        c.record_unfinished(1.0);
        let s = c.summarize(2);
        assert!((s.utility_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_class_miss_rates_are_isolated() {
        let mut c = MetricsCollector::new();
        let mut a = record(1, true, 1.0, 0.0);
        a.class = JobClass::MlTraining;
        let mut b = record(2, false, 1.0, 1.0);
        b.class = JobClass::MlTraining;
        c.record_completion(a);
        c.record_completion(b);
        c.record_completion(record(3, false, 1.0, 1.0));
        let s = c.summarize(3);
        assert!((s.per_class_miss_rate[JobClass::MlTraining.index()] - 0.5).abs() < 1e-12);
        assert_eq!(s.per_class_miss_rate[JobClass::Batch.index()], 0.0);
        assert_eq!(s.per_class_miss_rate[JobClass::Stream.index()], 0.0);
    }

    #[test]
    fn empty_collector_summarizes_to_zeros() {
        let s = MetricsCollector::new().summarize(0);
        assert_eq!(s.total_jobs, 0);
        assert_eq!(s.miss_rate, 0.0);
        assert_eq!(s.mean_slowdown, 0.0);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.utility_ratio, 0.0);
    }

    #[test]
    fn zero_sample_trace_yields_zero_utilization_summary() {
        // A run shorter than one sampling interval records no samples at
        // all: every utilisation aggregate must degrade to zero, not panic.
        let mut c = MetricsCollector::new();
        c.record_completion(record(1, false, 1.0, 1.0));
        assert!(c.trace.samples.is_empty());
        assert_eq!(c.trace.mean_overall(), 0.0);
        assert_eq!(c.trace.mean_class_overall(0), 0.0);
        let report = c.trace.energy_report(&spec_for_energy(), 1);
        assert_eq!(report.duration, 0.0);
        assert_eq!(report.total_joules, 0.0);
        assert_eq!(report.mean_watts(), 0.0);
        let s = c.summarize(1);
        assert_eq!(s.mean_utilization, 0.0);
    }

    #[test]
    fn single_sample_trace_yields_degenerate_utilization_summary() {
        // One sample means a zero-length integration window: the mean is
        // that sample's value, but energy and duration stay zero.
        let mut c = MetricsCollector::new();
        c.record_sample(sample(10.0, 0.5, 0.25));
        assert!((c.trace.mean_overall() - 0.375).abs() < 1e-12);
        assert!((c.trace.mean_class_overall(0) - 0.5).abs() < 1e-12);
        let report = c.trace.energy_report(&spec_for_energy(), 0);
        assert_eq!(report.duration, 0.0);
        assert_eq!(report.total_joules, 0.0);
        let s = c.summarize(0);
        assert!((s.mean_utilization - 0.375).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_per_class_slowdown_and_fairness() {
        let mut c = MetricsCollector::new();
        let mut a = record(1, false, 4.0, 1.0);
        a.class = JobClass::Stream;
        c.record_completion(a);
        c.record_completion(record(2, false, 1.0, 1.0));
        c.record_completion(record(3, false, 3.0, 1.0));
        let s = c.summarize(3);
        assert!((s.per_class_mean_slowdown[JobClass::Stream.index()] - 4.0).abs() < 1e-12);
        assert!((s.per_class_mean_slowdown[JobClass::Batch.index()] - 2.0).abs() < 1e-12);
        assert_eq!(s.per_class_mean_slowdown[JobClass::MlTraining.index()], 0.0);
        let expected = crate::stats::jain_fairness(&[4.0, 1.0, 3.0]);
        assert!((s.slowdown_fairness - expected).abs() < 1e-12);
        assert!(s.slowdown_fairness > 0.0 && s.slowdown_fairness <= 1.0);
    }

    #[test]
    fn equal_slowdowns_are_perfectly_fair() {
        let mut c = MetricsCollector::new();
        for i in 0..5 {
            c.record_completion(record(i, false, 2.5, 1.0));
        }
        let s = c.summarize(5);
        assert!((s.slowdown_fairness - 1.0).abs() < 1e-12);
    }

    fn spec_for_energy() -> ClusterSpec {
        use crate::config::{NodeClassSpec, PowerModel};
        use crate::node::SpeedProfile;
        ClusterSpec::new(vec![
            NodeClassSpec::new(
                "a",
                2,
                ResourceVector::of(8.0, 32.0, 0.0, 10.0),
                SpeedProfile::uniform(1.0),
            )
            .with_power(PowerModel::new(100.0, 300.0)),
            NodeClassSpec::new(
                "b",
                1,
                ResourceVector::of(16.0, 64.0, 4.0, 10.0),
                SpeedProfile::uniform(1.0),
            )
            .with_power(PowerModel::new(200.0, 800.0)),
        ])
    }

    fn sample(time: f64, util_a: f64, util_b: f64) -> UtilizationSample {
        UtilizationSample {
            time,
            per_class: PerClassUtilization::from_slice(&[
                ResourceVector::splat(util_a),
                ResourceVector::splat(util_b),
            ]),
            overall: (util_a + util_b) / 2.0,
            pending: 0,
            running: 0,
        }
    }

    #[test]
    fn idle_cluster_still_draws_idle_power() {
        let spec = spec_for_energy();
        let mut trace = UtilizationTrace::default();
        trace.samples.push(sample(0.0, 0.0, 0.0));
        trace.samples.push(sample(100.0, 0.0, 0.0));
        let report = trace.energy_report(&spec, 0);
        // 2 × 100 W + 1 × 200 W = 400 W over 100 s = 40 kJ.
        assert!((report.total_joules - 40_000.0).abs() < 1e-6);
        assert!((report.per_class_joules[0] - 20_000.0).abs() < 1e-6);
        assert!((report.per_class_joules[1] - 20_000.0).abs() < 1e-6);
        assert!((report.mean_watts() - 400.0).abs() < 1e-9);
        assert_eq!(report.joules_per_completed_job, 0.0);
        assert!((report.total_kwh - 40_000.0 / 3.6e6).abs() < 1e-12);
    }

    #[test]
    fn energy_grows_with_utilization() {
        let spec = spec_for_energy();
        let mut idle = UtilizationTrace::default();
        idle.samples.push(sample(0.0, 0.0, 0.0));
        idle.samples.push(sample(50.0, 0.0, 0.0));
        let mut busy = UtilizationTrace::default();
        busy.samples.push(sample(0.0, 0.8, 0.9));
        busy.samples.push(sample(50.0, 0.8, 0.9));
        let e_idle = idle.energy_report(&spec, 10);
        let e_busy = busy.energy_report(&spec, 10);
        assert!(e_busy.total_joules > e_idle.total_joules);
        assert!(e_busy.joules_per_completed_job > e_idle.joules_per_completed_job);
        // Full utilisation is bounded by peak power × duration.
        let peak_bound = (2.0 * 300.0 + 800.0) * 50.0;
        assert!(e_busy.total_joules <= peak_bound + 1e-6);
    }

    #[test]
    fn degenerate_traces_report_zero_energy() {
        let spec = spec_for_energy();
        let empty = UtilizationTrace::default();
        assert_eq!(empty.energy_report(&spec, 3).total_joules, 0.0);
        let mut single = UtilizationTrace::default();
        single.samples.push(sample(0.0, 0.5, 0.5));
        let report = single.energy_report(&spec, 3);
        assert_eq!(report.total_joules, 0.0);
        assert_eq!(report.duration, 0.0);
        assert_eq!(report.mean_watts(), 0.0);
    }

    /// Every non-percentile summary field as raw bits, so `-0.0` and
    /// `+0.0` (which `==` equates) tell apart.
    fn non_percentile_bits(s: &Summary) -> Vec<u64> {
        let mut bits = vec![
            s.total_jobs as u64,
            s.completed_jobs as u64,
            s.unfinished_jobs as u64,
            s.missed_jobs as u64,
            s.scale_events,
            s.invalid_actions,
            s.decision_epochs,
        ];
        bits.extend(
            [
                s.miss_rate,
                s.mean_slowdown,
                s.mean_wait,
                s.mean_response,
                s.total_utility,
                s.max_total_utility,
                s.utility_ratio,
                s.makespan,
                s.mean_utilization,
                s.slowdown_fairness,
                s.mean_parallelism,
            ]
            .iter()
            .chain(&s.per_class_miss_rate)
            .chain(&s.per_class_mean_slowdown)
            .map(|v| v.to_bits()),
        );
        bits
    }

    #[test]
    fn bounded_mode_matches_exact_aggregates() {
        // Every summary field except the percentiles must be bit-identical
        // between the per-job log and the streaming aggregation, and equal
        // to the batch formulas over the completion records.
        let mut exact = MetricsCollector::new();
        let mut bounded = MetricsCollector::new();
        bounded.configure(true);
        assert!(bounded.is_bounded() && !exact.is_bounded());
        for i in 0..50u64 {
            let mut job = record(i, i % 7 == 0, 1.0 + (i % 13) as f64 * 0.5, 0.8);
            job.class = JobClass::ALL[(i % 4) as usize];
            job.arrival = i as f64;
            job.finish = i as f64 + 20.0;
            job.wait = 0.1 * (i % 5) as f64;
            exact.record_completion(job.clone());
            bounded.record_completion(job);
        }
        for t in 0..6 {
            let s = sample(t as f64 * 5.0, 0.1 * t as f64, 0.3);
            exact.record_sample(s.clone());
            bounded.record_sample(s);
        }
        exact.record_unfinished(2.5);
        bounded.record_unfinished(2.5);
        let se = exact.summarize(55);
        let sb = bounded.summarize(55);
        assert!(bounded.completed.is_empty() && bounded.trace.samples.is_empty());
        assert_eq!(non_percentile_bits(&se), non_percentile_bits(&sb));

        let jobs = exact.completed();
        let slowdowns: Vec<f64> = jobs.iter().map(|j| j.slowdown).collect();
        let mean_of =
            |f: fn(&CompletedJob) -> f64| stats::mean(&jobs.iter().map(f).collect::<Vec<_>>());
        assert_eq!(
            se.mean_slowdown.to_bits(),
            stats::mean(&slowdowns).to_bits()
        );
        assert_eq!(se.mean_wait.to_bits(), mean_of(|j| j.wait).to_bits());
        assert_eq!(
            se.mean_response.to_bits(),
            mean_of(|j| j.response).to_bits()
        );
        assert_eq!(
            se.mean_parallelism.to_bits(),
            mean_of(|j| j.avg_parallelism).to_bits()
        );
        assert_eq!(
            se.slowdown_fairness.to_bits(),
            stats::jain_fairness(&slowdowns).to_bits()
        );
        assert_eq!(
            se.mean_utilization.to_bits(),
            exact.trace().mean_overall().to_bits()
        );
        let batch_utility: f64 = jobs.iter().map(|j| j.utility).sum();
        assert_eq!(se.total_utility.to_bits(), batch_utility.to_bits());
        for class in JobClass::ALL {
            let of_class: Vec<f64> = jobs
                .iter()
                .filter(|j| j.class == class)
                .map(|j| j.slowdown)
                .collect();
            assert_eq!(
                se.per_class_mean_slowdown[class.index()].to_bits(),
                stats::mean(&of_class).to_bits()
            );
        }

        // Exact percentiles interpolate the sorted slowdowns; the histogram
        // estimates stay within its bucket resolution.
        let mut sorted = slowdowns.clone();
        sorted.sort_by(f64::total_cmp);
        for (p, e, b) in [
            (50.0, se.p50_slowdown, sb.p50_slowdown),
            (95.0, se.p95_slowdown, sb.p95_slowdown),
            (99.0, se.p99_slowdown, sb.p99_slowdown),
        ] {
            assert_eq!(e, stats::percentile_sorted(&sorted, p));
            assert!((b / e - 1.0).abs() < 0.05, "percentile {b} vs exact {e}");
        }
    }

    #[test]
    fn runs_without_completions_report_positive_zero_utility() {
        // Empty sums must fold from +0.0 in both modes: a run in which
        // nothing completed reports `total_utility` and `utility_ratio` as
        // +0.0, never -0.0.
        for bounded in [false, true] {
            let mut c = MetricsCollector::new();
            c.configure(bounded);
            c.record_sample(sample(0.0, 0.2, 0.4));
            c.record_unfinished(3.0);
            let s = c.summarize(2);
            assert_eq!(s.completed_jobs, 0);
            assert_eq!(
                s.total_utility.to_bits(),
                0.0f64.to_bits(),
                "bounded={bounded}"
            );
            assert_eq!(
                s.utility_ratio.to_bits(),
                0.0f64.to_bits(),
                "bounded={bounded}"
            );
            assert_eq!(format!("{:.4}", s.utility_ratio), "0.0000");
            for v in [s.mean_slowdown, s.mean_wait, s.mean_parallelism, s.makespan] {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "bounded={bounded}");
            }
        }
        let mut exact = MetricsCollector::new();
        let mut bounded = MetricsCollector::new();
        bounded.configure(true);
        assert_eq!(
            non_percentile_bits(&exact.summarize(0)),
            non_percentile_bits(&bounded.summarize(0))
        );
    }

    #[test]
    fn bounded_mode_degenerate_cases() {
        let mut c = MetricsCollector::new();
        c.configure(true);
        let empty = c.summarize(0);
        assert_eq!(empty.mean_slowdown, 0.0);
        assert_eq!(empty.p99_slowdown, 0.0);
        assert_eq!(empty.makespan, 0.0);
        assert_eq!(empty.slowdown_fairness, 1.0);
        assert_eq!(empty.mean_utilization, 0.0);
        // A single completion reports its own slowdown exactly (min/max
        // clamping collapses the bucket error).
        c.record_completion(record(1, false, 3.25, 1.0));
        let one = c.summarize(1);
        assert_eq!(one.p50_slowdown, 3.25);
        assert_eq!(one.p99_slowdown, 3.25);
        assert!((one.slowdown_fairness - 1.0).abs() < 1e-12);
        // Reset clears the aggregates in place; configure(false) restores
        // the exact path.
        c.reset();
        assert_eq!(c.summarize(0).completed_jobs, 0);
        c.configure(false);
        c.record_completion(record(2, false, 1.0, 1.0));
        assert_eq!(c.completed.len(), 1);
    }

    #[test]
    fn trace_means() {
        let mut trace = UtilizationTrace::default();
        trace.samples.push(UtilizationSample {
            time: 0.0,
            per_class: PerClassUtilization::from_slice(&[ResourceVector::of(0.5, 0.5, 0.0, 0.0)]),
            overall: 0.4,
            pending: 1,
            running: 1,
        });
        trace.samples.push(UtilizationSample {
            time: 5.0,
            per_class: PerClassUtilization::from_slice(&[ResourceVector::of(1.0, 0.5, 0.0, 0.0)]),
            overall: 0.6,
            pending: 0,
            running: 2,
        });
        assert!((trace.mean_overall() - 0.5).abs() < 1e-12);
        assert!((trace.mean_class_overall(0) - 0.625).abs() < 1e-12);
        assert_eq!(trace.mean_class_overall(5), 0.0);
    }
}
