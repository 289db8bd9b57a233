//! State encoding: turning a [`ClusterView`] into the fixed-length feature
//! vector the policy and value networks consume.
//!
//! The encoding follows the DeepRM/Decima recipe adapted to elastic,
//! deadline-constrained jobs on a heterogeneous cluster:
//!
//! * **per node class** — free capacity (normalised per dimension), scalar
//!   utilisation, and the speed factor for every job class;
//! * **per queue slot** (first `queue_slots` pending jobs) — presence flag,
//!   job-class one-hot, normalised per-unit demand, log-scaled work, time to
//!   deadline, best-case slack, elasticity range and malleability;
//! * **per running slot** (first `running_slots` running jobs) — presence,
//!   class one-hot, node-class one-hot share, normalised parallelism,
//!   remaining-work fraction and slack;
//! * **global aggregates** — queue backlog, total pending work, number of
//!   running jobs, number of pending/running jobs that can no longer meet
//!   their deadline.
//!
//! The heterogeneity-blind ablation replaces every per-class block with the
//! cluster-wide average so the network cannot distinguish node classes.

use crate::config::AgentConfig;
use serde::{Deserialize, Serialize};
use tcrm_sim::{
    ClusterView, JobClass, NodeClassView, PendingJobView, RunningJobView, NUM_RESOURCES,
};

/// Number of features per node class block.
const CLASS_FEATURES: usize = NUM_RESOURCES + 1 + JobClass::COUNT;
/// Number of features per queue slot.
const QUEUE_FEATURES: usize = 1 + JobClass::COUNT + NUM_RESOURCES + 7;
/// Number of features per running slot.
const RUNNING_FEATURES: usize = 1 + JobClass::COUNT + 6;
/// Number of global aggregate features.
const GLOBAL_FEATURES: usize = 8;

/// Time-scale (seconds) used to squash deadline/slack features into a
/// bounded range via `tanh(x / TIME_SCALE)`.
const TIME_SCALE: f64 = 300.0;
/// Work-scale used to squash work features.
const WORK_SCALE: f64 = 200.0;

/// Encodes cluster views into observation vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    queue_slots: usize,
    running_slots: usize,
    num_classes: usize,
    heterogeneity_aware: bool,
}

impl StateEncoder {
    /// Create an encoder for a cluster with `num_classes` node classes.
    pub fn new(config: &AgentConfig, num_classes: usize) -> Self {
        StateEncoder {
            queue_slots: config.queue_slots,
            running_slots: config.running_slots,
            num_classes,
            heterogeneity_aware: config.heterogeneity_aware,
        }
    }

    /// Length of the observation vector.
    pub fn observation_dim(&self) -> usize {
        self.num_classes * CLASS_FEATURES
            + self.queue_slots * QUEUE_FEATURES
            + self.running_slots * RUNNING_FEATURES
            + GLOBAL_FEATURES
    }

    /// Number of queue slots encoded.
    pub fn queue_slots(&self) -> usize {
        self.queue_slots
    }

    /// Number of running slots encoded.
    pub fn running_slots(&self) -> usize {
        self.running_slots
    }

    /// The pending jobs that occupy the queue slots, in the deterministic
    /// slot order used by both the encoder and the action space:
    /// earliest-deadline-first (ties by id), read straight from the
    /// engine-maintained deadline index — no per-call sort.
    pub fn queue_slot_jobs<'a>(&self, view: &'a ClusterView) -> Vec<&'a PendingJobView> {
        view.pending_in_deadline_order()
            .take(self.queue_slots)
            .collect()
    }

    /// The running jobs that occupy the running slots: least slack first
    /// (ties by id), so the jobs most at risk are always visible.
    pub fn running_slot_jobs<'a>(&self, view: &'a ClusterView) -> Vec<&'a RunningJobView> {
        let mut jobs: Vec<&RunningJobView> = view.running.iter().collect();
        jobs.sort_by(|a, b| {
            a.slack(view.time)
                .partial_cmp(&b.slack(view.time))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        jobs.truncate(self.running_slots);
        jobs
    }

    /// Encode a view into an observation vector of length
    /// [`Self::observation_dim`].
    pub fn encode(&self, view: &ClusterView) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.observation_dim());
        self.encode_into(view, &mut out);
        out
    }

    /// [`Self::encode`] into a caller-owned buffer (clear-and-refill), so the
    /// batched rollout hot path re-encodes every step without growing the
    /// heap once the buffer has warmed to [`Self::observation_dim`].
    pub fn encode_into(&self, view: &ClusterView, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.observation_dim());
        self.encode_classes(view, out);
        self.encode_queue(view, out);
        self.encode_running(view, out);
        self.encode_globals(view, out);
        debug_assert_eq!(out.len(), self.observation_dim());
    }

    fn encode_classes(&self, view: &ClusterView, out: &mut Vec<f32>) {
        if self.heterogeneity_aware {
            for class in &view.classes {
                Self::push_class_features(class, out);
            }
            // Pad if the view has fewer classes than the encoder expects
            // (never happens in practice; keeps the length invariant).
            for _ in view.classes.len()..self.num_classes {
                out.extend(std::iter::repeat_n(0.0, CLASS_FEATURES));
            }
        } else {
            // Heterogeneity-blind: every class block becomes the cluster-wide
            // average, with speed factors forced to 1. Each block is staged at
            // the tail of `out` and folded into a stack-allocated accumulator
            // so this branch stays heap-free too.
            let mut avg = [0.0f32; CLASS_FEATURES];
            for class in &view.classes {
                let begin = out.len();
                Self::push_class_features(class, out);
                for (a, b) in avg.iter_mut().zip(out[begin..].iter()) {
                    *a += b / view.classes.len() as f32;
                }
                out.truncate(begin);
            }
            for i in 0..JobClass::COUNT {
                avg[NUM_RESOURCES + 1 + i] = 1.0;
            }
            for _ in 0..self.num_classes {
                out.extend_from_slice(&avg);
            }
        }
    }

    fn push_class_features(class: &NodeClassView, out: &mut Vec<f32>) {
        let free_frac = class.free_capacity.normalized_by(&class.total_capacity);
        for i in 0..NUM_RESOURCES {
            out.push(free_frac.0[i] as f32);
        }
        out.push(class.utilization() as f32);
        for job_class in JobClass::ALL {
            // Speed factors are O(1); /4 keeps GPUs (6x) in a sane range.
            out.push((class.speed_factor(job_class) / 4.0) as f32);
        }
    }

    fn encode_queue(&self, view: &ClusterView, out: &mut Vec<f32>) {
        let slots = self.queue_slot_jobs(view);
        for slot in 0..self.queue_slots {
            match slots.get(slot) {
                Some(job) => self.push_queue_features(job, view, out),
                None => out.extend(std::iter::repeat_n(0.0, QUEUE_FEATURES)),
            }
        }
    }

    fn push_queue_features(&self, job: &PendingJobView, view: &ClusterView, out: &mut Vec<f32>) {
        out.push(1.0); // presence
        for class in JobClass::ALL {
            out.push(if job.class == class { 1.0 } else { 0.0 });
        }
        let total_cap = view.spec.total_capacity();
        let demand_frac = job.demand_per_unit.normalized_by(&total_cap);
        for i in 0..NUM_RESOURCES {
            // Multiply by the node count so the scale is "fraction of one
            // average machine" rather than of the whole cluster.
            out.push((demand_frac.0[i] * view.spec.num_nodes() as f64).min(2.0) as f32);
        }
        out.push(squash(job.total_work, WORK_SCALE));
        out.push(squash(job.time_to_deadline(view.time), TIME_SCALE));
        // Best-case slack across classes at max parallelism (can the deadline
        // still be met at all?).
        let best_slack = view
            .classes
            .iter()
            .map(|c| job.slack_on(view.time, c, job.max_parallelism))
            .fold(f64::NEG_INFINITY, f64::max);
        out.push(squash(best_slack, TIME_SCALE));
        // Slack at minimum parallelism on the best class (how urgent is
        // scaling up?).
        let min_par_slack = view
            .classes
            .iter()
            .map(|c| job.slack_on(view.time, c, job.min_parallelism))
            .fold(f64::NEG_INFINITY, f64::max);
        out.push(squash(min_par_slack, TIME_SCALE));
        out.push(job.min_parallelism as f32 / 16.0);
        out.push(job.max_parallelism as f32 / 16.0);
        out.push(if job.malleable { 1.0 } else { 0.0 });
    }

    fn encode_running(&self, view: &ClusterView, out: &mut Vec<f32>) {
        let slots = self.running_slot_jobs(view);
        for slot in 0..self.running_slots {
            match slots.get(slot) {
                Some(job) => {
                    out.push(1.0);
                    for class in JobClass::ALL {
                        out.push(if job.class == class { 1.0 } else { 0.0 });
                    }
                    out.push(job.units as f32 / 16.0);
                    out.push((job.remaining_work(view.time) / job.total_work.max(1e-9)) as f32);
                    out.push(squash(job.slack(view.time), TIME_SCALE));
                    out.push(job.max_parallelism.saturating_sub(job.units) as f32 / 16.0);
                    out.push(if job.malleable { 1.0 } else { 0.0 });
                    out.push(if view.scale_ready(job) { 1.0 } else { 0.0 });
                }
                None => out.extend(std::iter::repeat_n(0.0, RUNNING_FEATURES)),
            }
        }
    }

    fn encode_globals(&self, view: &ClusterView, out: &mut Vec<f32>) {
        let pending = view.pending.len();
        let running = view.running.len();
        let backlog = pending.saturating_sub(self.queue_slots);
        let total_pending_work = view.pending_work_total();
        let infeasible_pending = view
            .pending
            .iter()
            .filter(|j| {
                view.classes
                    .iter()
                    .map(|c| j.slack_on(view.time, c, j.max_parallelism))
                    .fold(f64::NEG_INFINITY, f64::max)
                    < 0.0
            })
            .count();
        let at_risk_running = view
            .running
            .iter()
            .filter(|r| r.slack(view.time) < 0.0)
            .count();
        out.push((pending as f32 / 50.0).min(2.0));
        out.push((running as f32 / 50.0).min(2.0));
        out.push((backlog as f32 / 50.0).min(2.0));
        out.push(squash(total_pending_work, 10.0 * WORK_SCALE));
        out.push((infeasible_pending as f32 / 20.0).min(2.0));
        out.push((at_risk_running as f32 / 20.0).min(2.0));
        out.push(view.overall_utilization() as f32);
        out.push((view.future_arrivals as f32 / 100.0).min(2.0));
    }
}

/// Squash an unbounded quantity into `(-1, 1)` with `tanh(x / scale)`.
fn squash(x: f64, scale: f64) -> f32 {
    (x / scale).tanh() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrm_sim::prelude::*;

    fn make_view(pending: usize, running: bool) -> ClusterView {
        let mut cfg = SimConfig::default();
        cfg.decision_interval = None;
        let mut sim = Simulator::new(ClusterSpec::icpp_default(), cfg);
        let mut jobs = Vec::new();
        for i in 0..pending as u64 + 1 {
            jobs.push(
                Job::builder(
                    JobId(i),
                    if i % 2 == 0 {
                        JobClass::Batch
                    } else {
                        JobClass::MlTraining
                    },
                )
                .arrival(0.0)
                .total_work(50.0 + i as f64)
                .demand_per_unit(ResourceVector::of(2.0, 8.0, 0.0, 0.5))
                .parallelism_range(1, 6)
                .deadline(100.0 + i as f64 * 10.0)
                .build(),
            );
        }
        sim.start(jobs);
        assert!(sim.advance());
        if running {
            let id = sim.view().pending[0].id;
            sim.apply(&Action::Start {
                job: id,
                class: NodeClassId(0),
                parallelism: 2,
            });
        }
        while sim.view().pending.len() < pending {
            if !sim.advance() {
                break;
            }
        }
        sim.view()
    }

    #[test]
    fn observation_length_matches_dim() {
        let cfg = AgentConfig::default();
        let enc = StateEncoder::new(&cfg, 4);
        let view = make_view(3, true);
        let obs = enc.encode(&view);
        assert_eq!(obs.len(), enc.observation_dim());
        assert!(obs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn features_are_bounded() {
        let cfg = AgentConfig::default();
        let enc = StateEncoder::new(&cfg, 4);
        let view = make_view(15, true);
        let obs = enc.encode(&view);
        assert!(
            obs.iter().all(|v| v.abs() <= 2.5),
            "unbounded feature found: max={}",
            obs.iter().cloned().fold(f32::MIN, f32::max)
        );
    }

    #[test]
    fn empty_slots_are_zero() {
        let cfg = AgentConfig::small();
        let enc = StateEncoder::new(&cfg, 4);
        let view = make_view(1, false);
        let obs = enc.encode(&view);
        // With 1 pending job and 4 queue slots, slots 2..4 must be all-zero.
        let class_len = 4 * CLASS_FEATURES;
        let slot1_start = class_len + QUEUE_FEATURES;
        assert!(obs[class_len] == 1.0, "first slot presence flag");
        assert!(obs[slot1_start..class_len + 4 * QUEUE_FEATURES]
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn queue_slots_are_edf_ordered() {
        let cfg = AgentConfig::default();
        let enc = StateEncoder::new(&cfg, 4);
        let view = make_view(4, false);
        let slots = enc.queue_slot_jobs(&view);
        for w in slots.windows(2) {
            assert!(w[0].deadline <= w[1].deadline);
        }
    }

    #[test]
    fn heterogeneity_blind_encoding_hides_class_differences() {
        let aware = StateEncoder::new(&AgentConfig::default(), 4);
        let blind = StateEncoder::new(&AgentConfig::default().heterogeneity_blind(), 4);
        let view = make_view(2, false);
        let obs_aware = aware.encode(&view);
        let obs_blind = blind.encode(&view);
        assert_eq!(obs_aware.len(), obs_blind.len());
        // In the blind encoding all class blocks are identical.
        let block = CLASS_FEATURES;
        for c in 1..4 {
            assert_eq!(
                &obs_blind[0..block],
                &obs_blind[c * block..(c + 1) * block],
                "blind class blocks must be identical"
            );
        }
        // In the aware encoding at least one pair differs (GPU vs CPU class).
        let mut any_diff = false;
        for c in 1..4 {
            if obs_aware[0..block] != obs_aware[c * block..(c + 1) * block] {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn observation_changes_when_jobs_start() {
        let cfg = AgentConfig::default();
        let enc = StateEncoder::new(&cfg, 4);
        let idle = make_view(2, false);
        let busy = make_view(2, true);
        assert_ne!(enc.encode(&idle), enc.encode(&busy));
    }
}
