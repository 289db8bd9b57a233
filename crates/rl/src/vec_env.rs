//! A lockstep pool of environments for vectorized rollouts.
//!
//! [`VecEnv`] owns `N` independent [`Environment`] instances plus one
//! observation / mask buffer per slot. The batched rollout collector drives
//! it in lockstep: stack the active slots' observations into one matrix, run
//! a *single* batched policy forward for all of them, scatter the sampled
//! actions back and step every environment, then reset finished slots in
//! place. All buffers are reused, so a warmed pool performs no heap
//! allocation per step.
//!
//! Slots are stepped sequentially: the simulator environments this crate is
//! paired with step in microseconds, far below the cost of dispatching the
//! slots to threads. A one-slot pool is the single-environment loop;
//! `tests/vec_env_parity.rs` pins it against a hand-written one.

use crate::env::Environment;
use tcrm_nn::Matrix;

struct EnvSlot<E> {
    env: E,
    /// Current observation (pre-step; refreshed by reset/step).
    obs: Vec<f32>,
    /// Current feasibility mask, in lockstep with `obs`.
    mask: Vec<bool>,
    /// Whether this slot is running an episode.
    active: bool,
    /// Action to apply at the next [`VecEnv::step_active`] call.
    pending_action: usize,
    /// Reward of the last step taken by this slot.
    reward: f64,
    /// Whether the last step terminated the episode.
    done: bool,
}

/// A fixed pool of `N` environments stepped in lockstep.
pub struct VecEnv<E: Environment> {
    slots: Vec<EnvSlot<E>>,
    obs_dim: usize,
    action_count: usize,
}

impl<E: Environment> VecEnv<E> {
    /// Build a pool from `envs` (at least one; all must agree on observation
    /// dimensionality and action count). Every slot starts inactive — call
    /// [`Self::reset_env`] to start an episode on it.
    pub fn new(envs: Vec<E>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        let obs_dim = envs[0].observation_dim();
        let action_count = envs[0].action_count();
        let slots = envs
            .into_iter()
            .map(|env| {
                assert_eq!(env.observation_dim(), obs_dim, "observation_dim mismatch");
                assert_eq!(env.action_count(), action_count, "action_count mismatch");
                EnvSlot {
                    env,
                    obs: vec![0.0; obs_dim],
                    mask: vec![false; action_count],
                    active: false,
                    pending_action: 0,
                    reward: 0.0,
                    done: false,
                }
            })
            .collect();
        VecEnv {
            slots,
            obs_dim,
            action_count,
        }
    }

    /// Number of environment slots.
    pub fn num_envs(&self) -> usize {
        self.slots.len()
    }

    /// Observation dimensionality shared by all slots.
    pub fn observation_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action count shared by all slots.
    pub fn action_count(&self) -> usize {
        self.action_count
    }

    /// Start a new episode on slot `i` and mark it active.
    pub fn reset_env(&mut self, i: usize, seed: u64) {
        let slot = &mut self.slots[i];
        slot.env.reset_into(seed, &mut slot.obs, &mut slot.mask);
        slot.active = true;
        slot.reward = 0.0;
        slot.done = false;
    }

    /// Mark slot `i` inactive (no more episodes to run on it).
    pub fn deactivate(&mut self, i: usize) {
        self.slots[i].active = false;
    }

    /// Whether slot `i` is running an episode.
    pub fn is_active(&self, i: usize) -> bool {
        self.slots[i].active
    }

    /// Number of active slots.
    pub fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// Current observation of slot `i`.
    pub fn observation(&self, i: usize) -> &[f32] {
        &self.slots[i].obs
    }

    /// Current feasibility mask of slot `i`.
    pub fn mask(&self, i: usize) -> &[bool] {
        &self.slots[i].mask
    }

    /// Reward of the last step taken by slot `i`.
    pub fn reward(&self, i: usize) -> f64 {
        self.slots[i].reward
    }

    /// Whether the last step of slot `i` terminated its episode.
    pub fn done(&self, i: usize) -> bool {
        self.slots[i].done
    }

    /// Set the action slot `i` will apply at the next step call.
    pub fn set_action(&mut self, i: usize, action: usize) {
        self.slots[i].pending_action = action;
    }

    /// Stack the active slots into `obs` (one row per active slot, in slot
    /// order), their masks into the flat `masks` buffer (stride
    /// [`Self::action_count`]) and the slot index of each row into `rows`.
    /// All three buffers are cleared and refilled — allocation-free once
    /// warmed. Returns the number of stacked rows.
    pub fn stack_active(
        &self,
        obs: &mut Matrix,
        masks: &mut Vec<bool>,
        rows: &mut Vec<usize>,
    ) -> usize {
        obs.clear_rows();
        masks.clear();
        rows.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.active {
                obs.push_row(&slot.obs);
                masks.extend_from_slice(&slot.mask);
                rows.push(i);
            }
        }
        rows.len()
    }

    /// Step every active slot with its pending action, in slot order. The
    /// per-slot reward / done / next observation land in the slot buffers
    /// ([`Self::reward`], [`Self::done`], [`Self::observation`],
    /// [`Self::mask`]).
    pub fn step_active(&mut self) {
        for slot in self.slots.iter_mut().filter(|s| s.active) {
            let (reward, done) =
                slot.env
                    .step_into(slot.pending_action, &mut slot.obs, &mut slot.mask);
            slot.reward = reward;
            slot.done = done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::ChainEnv;

    fn pool(n: usize) -> VecEnv<ChainEnv> {
        VecEnv::new((0..n).map(|_| ChainEnv::new(5, 4)).collect())
    }

    #[test]
    fn new_pool_starts_inactive_with_shared_dims() {
        let v = pool(3);
        assert_eq!(v.num_envs(), 3);
        assert_eq!(v.observation_dim(), 5);
        assert_eq!(v.action_count(), 2);
        assert_eq!(v.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one environment")]
    fn empty_pool_panics() {
        let _ = VecEnv::<ChainEnv>::new(Vec::new());
    }

    #[test]
    fn stack_skips_inactive_slots_and_tracks_rows() {
        let mut v = pool(3);
        v.reset_env(0, 0);
        v.reset_env(2, 0);
        let mut obs = Matrix::default();
        let mut masks = Vec::new();
        let mut rows = Vec::new();
        let n = v.stack_active(&mut obs, &mut masks, &mut rows);
        assert_eq!(n, 2);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(obs.rows(), 2);
        assert_eq!(obs.row(0), v.observation(0));
        assert_eq!(masks.len(), 2 * v.action_count());
    }

    #[test]
    fn lockstep_steps_match_solo_envs() {
        // Drive 3 pool slots with scripted (different) action sequences and
        // check every slot evolves exactly like a standalone env.
        let mut v = pool(3);
        for i in 0..3 {
            v.reset_env(i, i as u64);
        }
        let mut solos: Vec<ChainEnv> = (0..3).map(|_| ChainEnv::new(5, 4)).collect();
        for (i, s) in solos.iter_mut().enumerate() {
            s.reset(i as u64);
        }
        for t in 0..4 {
            for i in 0..3 {
                v.set_action(i, (t + i) % 2);
            }
            v.step_active();
            for (i, s) in solos.iter_mut().enumerate() {
                let tr = s.step((t + i) % 2);
                assert_eq!(v.reward(i), tr.reward);
                assert_eq!(v.done(i), tr.done);
                assert_eq!(v.observation(i), tr.next.observation.as_slice());
                assert_eq!(v.mask(i), tr.next.action_mask.as_slice());
            }
        }
        assert!((0..3).all(|i| v.done(i)));
    }

    #[test]
    fn reset_reactivates_a_finished_slot_in_place() {
        let mut v = pool(1);
        v.reset_env(0, 0);
        for _ in 0..4 {
            v.set_action(0, 0);
            v.step_active();
        }
        assert!(v.done(0));
        v.deactivate(0);
        assert_eq!(v.active_count(), 0);
        v.reset_env(0, 1);
        assert!(v.is_active(0));
        assert!(!v.done(0));
        assert_eq!(v.observation(0)[0], 1.0);
    }
}
