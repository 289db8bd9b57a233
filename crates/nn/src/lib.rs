//! # tcrm-nn — a small, dependency-free neural-network substrate
//!
//! The DRL scheduler of the paper uses small multi-layer perceptrons (two
//! hidden layers, a few hundred units) for its policy and value functions.
//! The Rust RL ecosystem is thin and `tch`/libtorch would pull a native
//! dependency into an otherwise pure-Rust reproduction, so this crate
//! implements exactly the machinery those networks need, from scratch:
//!
//! * a row-major [`Matrix`] type with the handful of BLAS-like operations used
//!   by dense layers — including `*_into` kernels and in-place (`*_assign`)
//!   variants that write into caller-provided buffers. The matmul kernels
//!   dispatch through a runtime-selected [`kernels`] backend: portable
//!   register-blocked scalar loops, or an 8-wide AVX2+FMA microkernel with
//!   packed-B panels when the CPU supports it (override with
//!   `TCRM_KERNEL=scalar|simd`; see `tests/backend_diff.rs` for the
//!   differential harness pinning the two against each other),
//! * [`Dense`] layers with ReLU/Tanh/Identity activations and manual
//!   backpropagation — tanh runs on [`kernels::fast_tanh`] (absolute error
//!   ≤ 2e-6, vectorized on the SIMD backend) and the backward pass derives
//!   activation gradients from the cached forward activation instead of
//!   re-evaluating the function,
//! * an [`Mlp`] container with forward / backward / gradient accumulation,
//!   whose hot paths run through a reusable [`Workspace`] and perform **zero
//!   heap allocations after warm-up** (see `tests/alloc_free.rs` for the
//!   counting-allocator proof and `Mlp::forward_ws` for the inference entry
//!   point),
//! * the [`Adam`] optimiser,
//! * numerically stable softmax / log-softmax / cross-entropy helpers with
//!   support for **action masking** (infeasible scheduling actions receive
//!   probability zero),
//! * serde-based checkpointing of network weights.
//!
//! Everything is `f32` and CPU-only; the networks involved are small enough
//! that this trains the agent in seconds to minutes.
//!
//! ```
//! use tcrm_nn::{Activation, Mlp, MlpConfig, Matrix, Adam, Optimizer};
//!
//! // Fit y = 2x with a tiny network.
//! let cfg = MlpConfig::new(1, &[8], 1, Activation::Tanh);
//! let mut net = Mlp::new(&cfg, 0);
//! let mut opt = Adam::new(net.num_parameters(), 1e-2);
//! for _ in 0..400 {
//!     let x = Matrix::from_rows(&[&[0.1], &[0.5], &[-0.3], &[0.8]]);
//!     let target = x.map(|v| 2.0 * v);
//!     let out = net.forward_train(&x);
//!     let grad = out.sub(&target).scale(2.0 / 4.0);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net);
//! }
//! let pred = net.forward(&Matrix::from_rows(&[&[0.25]]));
//! assert!((pred.get(0, 0) - 0.5).abs() < 0.1);
//! ```

pub mod activation;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;

pub use activation::Activation;
pub use kernels::{fast_tanh, fast_tanh_deriv, Backend};
pub use layer::Dense;
pub use loss::{
    cross_entropy_from_logits, log_softmax, masked_softmax, masked_softmax_into, softmax,
};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig, Workspace};
pub use optim::{Adam, Optimizer};
