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
//!
//! ## Slots
//!
//! Which jobs occupy the slots is decided once per view, by
//! [`StateEncoder::slots_into`], into a reusable [`SlotSnapshot`] that the
//! encoder, the action mask, the action decoder and the agent's fallback all
//! read, so one decision ranks the jobs once. The slot order is:
//!
//! * **queue slots** — earliest deadline first, ties by id: the first
//!   `queue_slots` rows of the engine-maintained deadline index, no sort;
//! * **running slots** — least slack at the view's time first, ties by id,
//!   so the jobs most at risk are always visible. Each job's slack is
//!   computed once, then the running jobs are stably sorted in view order
//!   with the comparator `slack.partial_cmp(..).unwrap_or(Equal)` then id,
//!   and cut to `running_slots`. A NaN slack compares equal to every slack;
//!   that is not a total order, and the standard sort may panic on it.

use crate::config::AgentConfig;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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

    /// Rank the view's jobs into `slots` (clear-and-refill; allocation-free
    /// once the snapshot has warmed to the view's running-job count). See
    /// the [module docs](self) for the slot order.
    pub fn slots_into(&self, view: &ClusterView, slots: &mut SlotSnapshot) {
        let SlotSnapshot {
            queue,
            running,
            slack,
        } = slots;
        let queued = view.pending_by_deadline.len().min(self.queue_slots);
        queue.clear();
        queue.extend_from_slice(&view.pending_by_deadline[..queued]);
        slack.clear();
        slack.extend(view.running.iter().map(|r| r.slack(view.time)));
        running.clear();
        running.extend(0..view.running.len());
        running.sort_by(|&a, &b| {
            slack[a]
                .partial_cmp(&slack[b])
                .unwrap_or(Ordering::Equal)
                .then(view.running[a].id.cmp(&view.running[b].id))
        });
        running.truncate(self.running_slots);
    }

    /// Encode a view into an observation vector of length
    /// [`Self::observation_dim`] (allocating wrapper over
    /// [`Self::encode_into`]).
    pub fn encode(&self, view: &ClusterView) -> Vec<f32> {
        let mut slots = SlotSnapshot::default();
        self.slots_into(view, &mut slots);
        let mut out = Vec::with_capacity(self.observation_dim());
        self.encode_into(view, &slots, &mut out);
        out
    }

    /// Encode a view whose slots `slots` ranked into a caller-owned buffer
    /// (clear-and-refill), so the rollout and decision hot paths re-encode
    /// every step without growing the heap once the buffer has warmed to
    /// [`Self::observation_dim`].
    pub fn encode_into(&self, view: &ClusterView, slots: &SlotSnapshot, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.observation_dim());
        self.encode_classes(view, out);
        self.encode_queue(view, slots, out);
        self.encode_running(view, slots, out);
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

    fn encode_queue(&self, view: &ClusterView, slots: &SlotSnapshot, out: &mut Vec<f32>) {
        for job in slots.queue_jobs(view) {
            self.push_queue_features(job, view, out);
        }
        for _ in slots.queue.len()..self.queue_slots {
            out.extend(std::iter::repeat_n(0.0, QUEUE_FEATURES));
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

    fn encode_running(&self, view: &ClusterView, slots: &SlotSnapshot, out: &mut Vec<f32>) {
        for job in slots.running_jobs(view) {
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
        for _ in slots.running.len()..self.running_slots {
            out.extend(std::iter::repeat_n(0.0, RUNNING_FEATURES));
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

/// The jobs occupying an encoder's slots in one view, as ranked by
/// [`StateEncoder::slots_into`]: indices into the view's `pending` and
/// `running` rows, in slot order. A snapshot describes the view it was
/// filled from; reading it against another view is a logic error (the
/// readers only bounds-check). Reusable across views: every fill clears and
/// refills the same buffers.
#[derive(Debug, Clone, Default)]
pub struct SlotSnapshot {
    /// `view.pending` rows of the queue slots.
    queue: Vec<u32>,
    /// `view.running` rows of the running slots.
    running: Vec<usize>,
    /// Ranking keys: every running job's slack at the view's time, in view
    /// order (computed once per fill instead of once per comparison).
    slack: Vec<f64>,
}

impl SlotSnapshot {
    /// The occupied queue slots' jobs, in slot order.
    pub fn queue_jobs<'s, 'v: 's>(
        &'s self,
        view: &'v ClusterView,
    ) -> impl ExactSizeIterator<Item = &'v PendingJobView> + 's {
        self.queue.iter().map(move |&i| &view.pending[i as usize])
    }

    /// The occupied running slots' jobs, in slot order.
    pub fn running_jobs<'s, 'v: 's>(
        &'s self,
        view: &'v ClusterView,
    ) -> impl ExactSizeIterator<Item = &'v RunningJobView> + 's {
        self.running.iter().map(move |&i| &view.running[i])
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
        let mut slots = SlotSnapshot::default();
        enc.slots_into(&view, &mut slots);
        let queue: Vec<&PendingJobView> = slots.queue_jobs(&view).collect();
        assert!(queue.len() >= 4);
        for w in queue.windows(2) {
            assert!(w[0].deadline <= w[1].deadline);
        }
    }

    /// Test oracle for the running-slot order: a stable sort of references
    /// to the rows by a comparator that recomputes both slacks. The
    /// snapshot's cached-key ranking must match it exactly.
    fn running_order_oracle(view: &ClusterView, running_slots: usize) -> Vec<JobId> {
        let mut jobs: Vec<&RunningJobView> = view.running.iter().collect();
        jobs.sort_by(|a, b| {
            a.slack(view.time)
                .partial_cmp(&b.slack(view.time))
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        jobs.truncate(running_slots);
        jobs.iter().map(|r| r.id).collect()
    }

    fn snapshot_running_order(enc: &StateEncoder, view: &ClusterView) -> Vec<JobId> {
        let mut slots = SlotSnapshot::default();
        enc.slots_into(view, &mut slots);
        slots.running_jobs(view).map(|r| r.id).collect()
    }

    /// A running row of `template` with the given id whose slack at
    /// `view_time` is `deadline - (view_time + remaining / 2)`, or NaN for a
    /// NaN `remaining`.
    fn running_row(
        template: &RunningJobView,
        view_time: f64,
        id: u64,
        deadline: f64,
        remaining: f64,
    ) -> RunningJobView {
        RunningJobView {
            id: JobId(id),
            deadline,
            remaining_at_update: remaining,
            last_update: view_time,
            rate: 2.0,
            ..template.clone()
        }
    }

    #[test]
    fn running_slots_match_the_comparator_sort_oracle() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let base = make_view(2, true);
        let template = base.running[0].clone();
        let t = base.time;
        let mut rng = StdRng::seed_from_u64(25);
        let mut view = base.clone();
        let (mut checked_nan, mut panicked) = (0, 0);
        for case in 0..400 {
            let n = rng.gen_range(0..48usize);
            let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            ids.shuffle(&mut rng);
            // Few distinct deadlines and remaining-work values, so equal
            // slacks (ties broken by id) are common; some NaN slacks.
            view.running = ids
                .iter()
                .map(|&id| {
                    let deadline = t + [40.0, 80.0, 80.0, 200.0][rng.gen_range(0..4usize)];
                    let remaining = if rng.gen_bool(0.08) {
                        f64::NAN
                    } else {
                        [10.0, 20.0, 20.0, 90.0][rng.gen_range(0..4usize)]
                    };
                    running_row(&template, t, id, deadline, remaining)
                })
                .collect();
            let has_nan = view.running.iter().any(|r| r.slack(t).is_nan());
            for running_slots in [0, 1, 5, 64] {
                let mut cfg = AgentConfig::default();
                cfg.running_slots = running_slots;
                let enc = StateEncoder::new(&cfg, 4);
                // A NaN slack makes the comparator inconsistent, which the
                // standard stable sort may detect and panic on (past its
                // insertion-sort sizes). The snapshot must then panic too:
                // it runs the same sort on the same comparisons.
                let ranked = catch_unwind(AssertUnwindSafe(|| snapshot_running_order(&enc, &view)));
                let oracle = catch_unwind(AssertUnwindSafe(|| {
                    running_order_oracle(&view, running_slots)
                }));
                match (ranked, oracle) {
                    (Ok(ranked), Ok(oracle)) => {
                        assert_eq!(
                            ranked, oracle,
                            "case {case}, {n} jobs, {running_slots} slots"
                        );
                        checked_nan += usize::from(has_nan);
                    }
                    (Err(_), Err(_)) => {
                        assert!(has_nan);
                        panicked += 1;
                    }
                    (ranked, _) => panic!(
                        "case {case}, {n} jobs: only the {} panicked",
                        if ranked.is_err() {
                            "snapshot"
                        } else {
                            "oracle"
                        }
                    ),
                }
            }
        }
        assert!(checked_nan > 100, "too few ranked NaN cases: {checked_nan}");
        assert!(panicked > 0, "no NaN case reached the sort's order check");
    }

    #[test]
    fn equal_slacks_rank_by_id_and_nan_slack_follows_the_comparator() {
        let base = make_view(2, true);
        let template = base.running[0].clone();
        let t = base.time;
        let mut view = base.clone();
        // Equal slacks in descending id order: ranked by ascending id, behind
        // the one job with less slack.
        view.running = vec![
            running_row(&template, t, 9, t + 100.0, 20.0),
            running_row(&template, t, 4, t + 100.0, 20.0),
            running_row(&template, t, 7, t + 50.0, 20.0),
            running_row(&template, t, 1, t + 100.0, 20.0),
        ];
        let mut cfg = AgentConfig::default();
        cfg.running_slots = 8;
        let enc = StateEncoder::new(&cfg, 4);
        let order = snapshot_running_order(&enc, &view);
        assert_eq!(order, [7, 1, 4, 9].map(JobId));
        assert_eq!(order, running_order_oracle(&view, 8));
        // A NaN slack compares equal to every slack, so only the id breaks
        // its comparisons: the order is whatever the stable sort makes of
        // that comparator, and the snapshot must reproduce it.
        view.running
            .insert(2, running_row(&template, t, 2, t + 100.0, f64::NAN));
        assert!(view.running[2].slack(t).is_nan());
        assert_eq!(
            snapshot_running_order(&enc, &view),
            running_order_oracle(&view, 8)
        );
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
