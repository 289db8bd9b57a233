//! # tcrm-rl — policy-gradient reinforcement learning on `tcrm-nn`
//!
//! The paper's scheduler is a deep policy-gradient agent. This crate provides
//! the algorithm family it belongs to, built on the pure-Rust MLPs of
//! `tcrm-nn`:
//!
//! * an [`Environment`] trait with **action masking** (a scheduling decision
//!   epoch exposes only feasible actions),
//! * a masked [`CategoricalPolicy`] and a [`ValueNet`] critic,
//! * flat rollout storage ([`RolloutBatch`]) with discounted returns and
//!   Generalised Advantage Estimation as single sweeps over a whole batch
//!   ([`buffer`]),
//! * three interchangeable algorithms — [`Reinforce`] (with moving-average
//!   baseline), [`A2c`] and [`Ppo`] (clipped surrogate) — behind a common
//!   [`Algorithm`] trait,
//! * a [`Trainer`] that rolls out episodes through a lockstep [`VecEnv`]
//!   pool — one batched policy forward per step for all environments at
//!   once — feeds the algorithm and records a [`TrainingHistory`] (the data
//!   behind the training-convergence figure) ([`vec_env`],
//!   [`Trainer::train_in_place_vec`]).
//!
//! The crate is scheduler-agnostic; `tcrm-core` plugs its
//! `SchedulingEnv` in as the [`Environment`].

pub mod algorithm;
pub mod buffer;
pub mod env;
pub mod policy;
pub mod trainer;
pub mod value;
pub mod vec_env;

pub use algorithm::{
    A2c, A2cConfig, Algorithm, Ppo, PpoConfig, Reinforce, ReinforceConfig, UpdateStats,
};
pub use buffer::{discounted_returns_flat_into, gae_flat_into, normalize_advantages, RolloutBatch};
pub use env::{Environment, Step, Transition};
pub use policy::{
    argmax, greedy_from_logits, greedy_shortcut, sample_categorical, CategoricalPolicy,
    PolicyScratch,
};
pub use trainer::{EpisodeStats, Trainer, TrainerConfig, TrainingHistory};
pub use value::ValueNet;
pub use vec_env::VecEnv;
