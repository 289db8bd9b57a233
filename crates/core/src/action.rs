//! The elasticity-compatible hierarchical action space.
//!
//! One discrete action index encodes a complete scheduling decision:
//!
//! * **start actions** — `(queue slot, node class, parallelism level)`:
//!   start the job in that queue slot on that node class at a parallelism
//!   chosen from `parallelism_levels` evenly-spaced points between the job's
//!   minimum and maximum;
//! * **scale actions** — `(running slot, up | down)`: grow or shrink a
//!   running job by one unit (the elasticity-compatible part);
//! * **wait** — end the decision epoch without further changes.
//!
//! [`ActionSpace::mask_into`] marks exactly the decodable-and-feasible
//! actions so the policy never wastes probability mass on impossible
//! decisions, and [`ActionSpace::decode`] maps an index back to a concrete
//! [`tcrm_sim::Action`] for the engine.
//!
//! Slot indices refer to the jobs a [`SlotSnapshot`] ranked for the view
//! (queue slots earliest deadline first, running slots least slack first;
//! see the [`state`](crate::state) module docs). The mask and the decoder
//! of one decision read the same snapshot the observation was encoded from,
//! so action `i` always names the job the policy saw in that slot.

use crate::config::AgentConfig;
use crate::state::{SlotSnapshot, StateEncoder};
use serde::{Deserialize, Serialize};
use tcrm_sim::{Action, ClusterView, NodeClassId, PendingJobView};

/// A decoded, human-readable description of one action index (used by logs
/// and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionMeaning {
    /// Start the job in `queue_slot` on `class` at parallelism level `level`.
    Start {
        /// Queue slot index.
        queue_slot: usize,
        /// Node class index.
        class: usize,
        /// Parallelism level index.
        level: usize,
    },
    /// Scale the job in `running_slot` up (`+1` unit) or down (`−1` unit).
    Scale {
        /// Running slot index.
        running_slot: usize,
        /// True for scale-up, false for scale-down.
        up: bool,
    },
    /// Do nothing.
    Wait,
}

/// The discrete action space of the DRL scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionSpace {
    queue_slots: usize,
    running_slots: usize,
    parallelism_levels: usize,
    num_classes: usize,
    elastic: bool,
}

impl ActionSpace {
    /// Build the action space for a cluster with `num_classes` node classes.
    pub fn new(config: &AgentConfig, num_classes: usize) -> Self {
        ActionSpace {
            queue_slots: config.queue_slots,
            running_slots: config.running_slots,
            parallelism_levels: config.parallelism_levels.max(1),
            num_classes,
            elastic: config.elastic_actions,
        }
    }

    /// Total number of discrete actions (start + scale + wait). The layout is
    /// fixed regardless of the elastic flag so rigid and elastic agents share
    /// network shapes; rigid agents simply mask the extra actions off.
    pub fn action_count(&self) -> usize {
        self.queue_slots * self.num_classes * self.parallelism_levels + 2 * self.running_slots + 1
    }

    /// Index of the wait action (always the last index).
    pub fn wait_index(&self) -> usize {
        self.action_count() - 1
    }

    /// Index of a start action.
    pub fn start_index(&self, queue_slot: usize, class: usize, level: usize) -> usize {
        debug_assert!(queue_slot < self.queue_slots);
        debug_assert!(class < self.num_classes);
        debug_assert!(level < self.parallelism_levels);
        (queue_slot * self.num_classes + class) * self.parallelism_levels + level
    }

    /// Index of a scale action.
    pub fn scale_index(&self, running_slot: usize, up: bool) -> usize {
        debug_assert!(running_slot < self.running_slots);
        self.queue_slots * self.num_classes * self.parallelism_levels
            + running_slot * 2
            + if up { 0 } else { 1 }
    }

    /// What an action index means structurally (independent of any view).
    pub fn meaning(&self, index: usize) -> ActionMeaning {
        let start_count = self.queue_slots * self.num_classes * self.parallelism_levels;
        if index < start_count {
            let level = index % self.parallelism_levels;
            let rest = index / self.parallelism_levels;
            let class = rest % self.num_classes;
            let queue_slot = rest / self.num_classes;
            ActionMeaning::Start {
                queue_slot,
                class,
                level,
            }
        } else if index < start_count + 2 * self.running_slots {
            let offset = index - start_count;
            ActionMeaning::Scale {
                running_slot: offset / 2,
                up: offset.is_multiple_of(2),
            }
        } else {
            ActionMeaning::Wait
        }
    }

    /// The concrete parallelism a level maps to for a given job: level 0 is
    /// the job's minimum, the last level its maximum, intermediate levels
    /// spaced evenly (rounded). With `elastic == false` every level collapses
    /// to the minimum.
    pub fn level_to_parallelism(&self, job: &PendingJobView, level: usize) -> u32 {
        if !self.elastic || !job.malleable {
            return job.min_parallelism;
        }
        if self.parallelism_levels == 1 || job.max_parallelism == job.min_parallelism {
            return job.min_parallelism;
        }
        let span = (job.max_parallelism - job.min_parallelism) as f64;
        let frac = level as f64 / (self.parallelism_levels - 1) as f64;
        job.min_parallelism + (span * frac).round() as u32
    }

    /// Feasibility mask over all action indices for the current view
    /// (allocating wrapper: ranks the view's slots with `encoder`, then
    /// [`Self::mask_into`]).
    pub fn mask(&self, view: &ClusterView, encoder: &StateEncoder) -> Vec<bool> {
        let mut slots = SlotSnapshot::default();
        encoder.slots_into(view, &mut slots);
        let mut mask = Vec::new();
        self.mask_into(view, &slots, &mut mask);
        mask
    }

    /// Feasibility mask over all action indices for a view whose slots
    /// `slots` ranked, into a caller-owned buffer (clear-and-refill), the
    /// counterpart of [`StateEncoder::encode_into`].
    pub fn mask_into(&self, view: &ClusterView, slots: &SlotSnapshot, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(self.action_count(), false);
        for (slot, job) in slots.queue_jobs(view).enumerate().take(self.queue_slots) {
            for class_idx in 0..self.num_classes.min(view.num_classes()) {
                let class = NodeClassId(class_idx);
                for level in 0..self.parallelism_levels {
                    let parallelism = self.level_to_parallelism(job, level);
                    if view.can_start(job, class, parallelism) {
                        mask[self.start_index(slot, class_idx, level)] = true;
                    }
                }
            }
        }
        if self.elastic {
            for (slot, job) in slots
                .running_jobs(view)
                .enumerate()
                .take(self.running_slots)
            {
                if !job.malleable || !view.scale_ready(job) {
                    continue;
                }
                // Scale-up needs one more unit of capacity on the job's
                // node class.
                if job.units < job.max_parallelism
                    && view.class(job.node_class).can_host(&job.demand_per_unit, 1)
                {
                    mask[self.scale_index(slot, true)] = true;
                }
                if job.units > job.min_parallelism {
                    mask[self.scale_index(slot, false)] = true;
                }
            }
        }
        mask[self.wait_index()] = true;
    }

    /// Decode an action index into a simulator action for a view whose
    /// slots `slots` ranked. Returns `None` when the index refers to an
    /// empty slot (the mask keeps the policy away from those, but decoding
    /// stays total and safe).
    pub fn decode(&self, index: usize, view: &ClusterView, slots: &SlotSnapshot) -> Option<Action> {
        match self.meaning(index) {
            ActionMeaning::Wait => Some(Action::Wait),
            ActionMeaning::Start {
                queue_slot,
                class,
                level,
            } => {
                let job = slots.queue_jobs(view).nth(queue_slot)?;
                if class >= view.num_classes() {
                    return None;
                }
                Some(Action::Start {
                    job: job.id,
                    class: NodeClassId(class),
                    parallelism: self.level_to_parallelism(job, level),
                })
            }
            ActionMeaning::Scale { running_slot, up } => {
                let job = slots.running_jobs(view).nth(running_slot)?;
                let target = if up {
                    job.units.saturating_add(1).min(job.max_parallelism)
                } else {
                    job.units.saturating_sub(1).max(job.min_parallelism)
                };
                Some(Action::Scale {
                    job: job.id,
                    new_parallelism: target,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentConfig;
    use tcrm_sim::prelude::*;

    fn slots_of(encoder: &StateEncoder, view: &ClusterView) -> SlotSnapshot {
        let mut slots = SlotSnapshot::default();
        encoder.slots_into(view, &mut slots);
        slots
    }

    fn setup(pending: usize, start_first: bool) -> (ActionSpace, StateEncoder, Simulator) {
        let cfg = AgentConfig::small();
        let space = ActionSpace::new(&cfg, 4);
        let encoder = StateEncoder::new(&cfg, 4);
        let mut sim_cfg = SimConfig::default();
        sim_cfg.decision_interval = None;
        sim_cfg.scale_cooldown = 0.0;
        let mut sim = Simulator::new(ClusterSpec::icpp_default(), sim_cfg);
        let jobs: Vec<Job> = (0..pending as u64)
            .map(|i| {
                Job::builder(JobId(i), JobClass::Batch)
                    .arrival(0.0)
                    .total_work(40.0)
                    .demand_per_unit(ResourceVector::of(2.0, 8.0, 0.0, 0.5))
                    .parallelism_range(1, 5)
                    .deadline(200.0 + i as f64)
                    .build()
            })
            .collect();
        sim.start(jobs);
        assert!(sim.advance());
        if start_first {
            let id = sim.view().pending[0].id;
            sim.apply(&Action::Start {
                job: id,
                class: NodeClassId(0),
                parallelism: 2,
            });
        }
        while sim.view().pending.len() < pending - usize::from(start_first) {
            if !sim.advance() {
                break;
            }
        }
        (space, encoder, sim)
    }

    #[test]
    fn index_meaning_roundtrip() {
        let cfg = AgentConfig::default();
        let space = ActionSpace::new(&cfg, 4);
        assert_eq!(
            space.action_count(),
            10 * 4 * 3 + 2 * 5 + 1,
            "default action-space size"
        );
        for qs in 0..10 {
            for c in 0..4 {
                for l in 0..3 {
                    let idx = space.start_index(qs, c, l);
                    assert_eq!(
                        space.meaning(idx),
                        ActionMeaning::Start {
                            queue_slot: qs,
                            class: c,
                            level: l
                        }
                    );
                }
            }
        }
        for rs in 0..5 {
            for up in [true, false] {
                let idx = space.scale_index(rs, up);
                assert_eq!(
                    space.meaning(idx),
                    ActionMeaning::Scale {
                        running_slot: rs,
                        up
                    }
                );
            }
        }
        assert_eq!(space.meaning(space.wait_index()), ActionMeaning::Wait);
    }

    #[test]
    fn level_mapping_spans_the_range() {
        let cfg = AgentConfig::default(); // 3 levels
        let space = ActionSpace::new(&cfg, 4);
        let job = PendingJobView {
            id: JobId(0),
            class: JobClass::Batch,
            arrival: 0.0,
            deadline: 10.0,
            total_work: 1.0,
            demand_per_unit: ResourceVector::zero(),
            min_parallelism: 2,
            max_parallelism: 10,
            speedup: SpeedupModel::Linear,
            malleable: true,
            utility: TimeUtility::hard(1.0),
            arrival_seq: 0,
        };
        assert_eq!(space.level_to_parallelism(&job, 0), 2);
        assert_eq!(space.level_to_parallelism(&job, 1), 6);
        assert_eq!(space.level_to_parallelism(&job, 2), 10);
        // Rigid jobs and rigid agents always get the minimum.
        let rigid_job = PendingJobView {
            malleable: false,
            ..job.clone()
        };
        assert_eq!(space.level_to_parallelism(&rigid_job, 2), 2);
        let rigid_space = ActionSpace::new(&AgentConfig::default().rigid(), 4);
        assert_eq!(rigid_space.level_to_parallelism(&job, 2), 2);
    }

    #[test]
    fn mask_allows_feasible_starts_and_wait() {
        let (space, encoder, sim) = setup(3, false);
        let view = sim.view();
        let mask = space.mask(&view, &encoder);
        assert_eq!(mask.len(), space.action_count());
        assert!(mask[space.wait_index()]);
        // Some start action must be feasible on the idle cluster.
        assert!(mask.iter().take(space.action_count() - 1).any(|&m| m));
        // Empty queue slots (slot 3 with only 3 pending jobs and 4 slots)
        // must be fully masked.
        for c in 0..4 {
            for l in 0..2 {
                assert!(!mask[space.start_index(3, c, l)]);
            }
        }
        // No scale actions: nothing is running.
        for rs in 0..2 {
            assert!(!mask[space.scale_index(rs, true)]);
            assert!(!mask[space.scale_index(rs, false)]);
        }
    }

    #[test]
    fn mask_enables_scaling_for_running_malleable_jobs() {
        let (space, encoder, sim) = setup(3, true);
        let view = sim.view();
        assert_eq!(view.running.len(), 1);
        let mask = space.mask(&view, &encoder);
        // The running job is at 2 units of a 1..5 range on an idle class:
        // both directions are feasible.
        assert!(mask[space.scale_index(0, true)]);
        assert!(mask[space.scale_index(0, false)]);
        // Rigid agents never see scale actions.
        let rigid_space = ActionSpace::new(&AgentConfig::small().rigid(), 4);
        let rigid_mask = rigid_space.mask(&view, &encoder);
        assert!(!rigid_mask[rigid_space.scale_index(0, true)]);
        assert!(!rigid_mask[rigid_space.scale_index(0, false)]);
    }

    #[test]
    fn decode_produces_engine_accepted_actions() {
        let (space, encoder, mut sim) = setup(4, false);
        let view = sim.view();
        let slots = slots_of(&encoder, &view);
        let mask = space.mask(&view, &encoder);
        let mut applied = 0;
        for idx in 0..space.action_count() {
            if !mask[idx] || idx == space.wait_index() {
                continue;
            }
            let action = space
                .decode(idx, &view, &slots)
                .expect("masked-in action must decode");
            let outcome = sim.apply(&action);
            assert!(
                !outcome.is_invalid(),
                "masked-in action {idx} rejected: {action:?} -> {outcome:?}"
            );
            applied += 1;
            break; // one is enough; the view is stale after applying
        }
        assert_eq!(applied, 1);
    }

    #[test]
    fn decode_empty_slot_is_none_and_wait_decodes() {
        let (space, encoder, sim) = setup(1, false);
        let view = sim.view();
        let slots = slots_of(&encoder, &view);
        // Slot 3 is empty with a single pending job.
        assert!(space
            .decode(space.start_index(3, 0, 0), &view, &slots)
            .is_none());
        assert_eq!(
            space.decode(space.wait_index(), &view, &slots),
            Some(Action::Wait)
        );
    }

    /// The scale-up mask asks `can_host(demand, 1)`, which stops at the
    /// first node with room; it used to count every unit on the class with
    /// `units_available(demand) >= 1`. The two must agree on every view:
    /// here the views a random feasible policy walks through on loaded
    /// clusters, queried with every visible job's demand, the zero demand
    /// (every 7th job also demands nothing) and random demands.
    #[test]
    fn scale_up_fit_test_matches_the_unit_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tcrm_workload::{SyntheticSource, WorkloadSpec};
        let cluster = ClusterSpec::icpp_default();
        let cfg = AgentConfig::default();
        let space = ActionSpace::new(&cfg, 4);
        let encoder = StateEncoder::new(&cfg, 4);
        let mut rng = StdRng::seed_from_u64(31);
        let (mut checked, mut fits, mut zero_demand_running) = (0, 0, 0);
        for seed in 0..4 {
            let spec = WorkloadSpec::icpp_default()
                .with_num_jobs(40)
                .with_load(1.3);
            let mut jobs: Vec<Job> = SyntheticSource::new(&spec, &cluster, seed)
                .expect("valid spec")
                .collect();
            for job in jobs.iter_mut().step_by(7) {
                job.demand_per_unit = ResourceVector::zero();
            }
            let mut sim = Simulator::new(cluster.clone(), SimConfig::default());
            sim.start(jobs);
            let mut view = sim.view();
            let mut slots = SlotSnapshot::default();
            let mut mask = Vec::new();
            while sim.advance() {
                for _ in 0..12 {
                    sim.view_into(&mut view);
                    let random = ResourceVector::of(
                        rng.gen_range(0.0..16.0),
                        rng.gen_range(0.0..64.0),
                        if rng.gen_bool(0.3) { 1.0 } else { 0.0 },
                        rng.gen_range(0.0..2.0),
                    );
                    let demands: Vec<ResourceVector> = view
                        .running
                        .iter()
                        .map(|r| r.demand_per_unit)
                        .chain(view.pending.iter().map(|p| p.demand_per_unit))
                        .chain([ResourceVector::zero(), random])
                        .collect();
                    zero_demand_running += view
                        .running
                        .iter()
                        .filter(|r| r.demand_per_unit.total() == 0.0)
                        .count();
                    for class in &view.classes {
                        for demand in &demands {
                            let counted = class.units_available(demand) >= 1;
                            assert_eq!(
                                class.can_host(demand, 1),
                                counted,
                                "class {} demand {demand:?} at t={}",
                                class.id.0,
                                view.time
                            );
                            checked += 1;
                            fits += usize::from(counted);
                        }
                    }
                    encoder.slots_into(&view, &mut slots);
                    space.mask_into(&view, &slots, &mut mask);
                    let feasible: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
                    let action = feasible[rng.gen_range(0..feasible.len())];
                    if action == space.wait_index() {
                        break;
                    }
                    let decoded = space.decode(action, &view, &slots).expect("masked in");
                    assert!(!sim.apply(&decoded).is_invalid());
                }
            }
        }
        assert!(checked > 10_000, "{checked} checks");
        assert!(fits > 0 && fits < checked, "{fits} of {checked} fit");
        assert!(zero_demand_running > 0);
    }

    #[test]
    fn gpu_only_demand_is_masked_off_cpu_classes() {
        let cfg = AgentConfig::small();
        let space = ActionSpace::new(&cfg, 4);
        let encoder = StateEncoder::new(&cfg, 4);
        let mut sim_cfg = SimConfig::default();
        sim_cfg.decision_interval = None;
        let mut sim = Simulator::new(ClusterSpec::icpp_default(), sim_cfg);
        let job = Job::builder(JobId(0), JobClass::MlTraining)
            .arrival(0.0)
            .total_work(10.0)
            .demand_per_unit(ResourceVector::of(1.0, 4.0, 1.0, 0.5))
            .parallelism_range(1, 2)
            .deadline(100.0)
            .build();
        sim.start(vec![job]);
        assert!(sim.advance());
        let mask = space.mask(&sim.view(), &encoder);
        // Class 2 is the GPU class in the default spec; classes 0, 1, 3 have
        // no GPUs, so every start action for slot 0 on them must be masked.
        for class in [0usize, 1, 3] {
            for level in 0..2 {
                assert!(!mask[space.start_index(0, class, level)]);
            }
        }
        assert!(mask[space.start_index(0, 2, 0)]);
    }
}
