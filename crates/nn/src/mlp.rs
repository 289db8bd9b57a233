//! Multi-layer perceptrons: the policy and value function approximators.
//!
//! ## Hot-path API
//!
//! The training entry points (`forward_train`, `backward`) route every
//! intermediate through an internal [`Workspace`], and inference offers
//! [`Mlp::forward_ws`] writing into a caller-owned [`Workspace`]. After one
//! warm-up call at a given batch shape, **none of these paths touch the
//! allocator** — verified by the counting-allocator test in
//! `tests/alloc_free.rs`; the zero-allocation contract covers the SIMD
//! kernel backend too, whose packed-B panels live in a reusable
//! thread-local buffer (see [`kernels`](crate::kernels)). The
//! buffer-returning wrappers (`forward`, `forward_vec`) remain for
//! convenience and tests.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Architecture description of an MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Output dimensionality.
    pub output_dim: usize,
    /// Activation of the hidden layers (the output layer is always linear).
    pub activation: Activation,
}

impl MlpConfig {
    /// Build a configuration.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        output_dim: usize,
        activation: Activation,
    ) -> Self {
        MlpConfig {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            activation,
        }
    }
}

/// Reusable buffers for allocation-free forward/backward passes.
///
/// Two ping-pong activation buffers carry the signal through the layer
/// chain (layer `i` reads from one and writes the other), and one scratch
/// matrix holds the fused activation gradient during backprop. A `Workspace`
/// grows to the largest shape it has seen and then stays allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    ping: Matrix,
    pong: Matrix,
    grad_pre: Matrix,
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// A feed-forward network with linear output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Dense>,
    /// Internal workspace for the `&mut self` training paths.
    #[serde(skip)]
    ws: Workspace,
}

/// Equality on architecture and learned parameters; workspace scratch never
/// participates.
impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.layers == other.layers
    }
}

impl Mlp {
    /// Create a network with freshly initialised weights (deterministic for a
    /// given seed).
    pub fn new(config: &MlpConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.output_dim);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let activation = if i == dims.len() - 2 {
                Activation::Identity
            } else {
                config.activation
            };
            layers.push(Dense::new(dims[i], dims[i + 1], activation, &mut rng));
        }
        Mlp {
            config: config.clone(),
            layers,
            ws: Workspace::default(),
        }
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (used by the optimisers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.num_parameters()).sum()
    }

    /// Inference forward pass through a caller-owned workspace. The returned
    /// reference points into `ws`; the call is allocation-free once `ws` has
    /// warmed up at this batch shape.
    pub fn forward_ws<'w>(&self, input: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        let Workspace { ping, pong, .. } = ws;
        match self.layers.split_first() {
            None => {
                ping.copy_from(input);
                ping
            }
            Some((first, rest)) => {
                first.forward_into(input, ping);
                Self::forward_rest(rest, ping, pong)
            }
        }
    }

    /// Inference forward pass of one input row, returning the output row
    /// (borrowed from `ws`); equal to row 0 of [`Self::forward_ws`] on a
    /// one-row matrix. With `nonzero`, the first layer reads only the
    /// weight rows it lists ([`Dense::forward_row_into`]): it must ascend
    /// and name every nonzero input, and the output equals the dense one
    /// when the first layer's weights are finite. Allocation-free once `ws`
    /// has warmed up.
    pub fn forward_row_ws<'w>(
        &self,
        input: &[f32],
        nonzero: Option<&[u32]>,
        ws: &'w mut Workspace,
    ) -> &'w [f32] {
        let Workspace { ping, pong, .. } = ws;
        let out = match self.layers.split_first() {
            None => {
                ping.clear_rows();
                ping.push_row(input);
                ping
            }
            Some((first, rest)) => {
                first.forward_row_into(input, nonzero, ping);
                Self::forward_rest(rest, ping, pong)
            }
        };
        out.row(0)
    }

    /// Run `layers` on the activations in `ping`, ping-ponging through
    /// `pong`; returns the buffer holding the last output.
    fn forward_rest<'w>(
        layers: &[Dense],
        ping: &'w mut Matrix,
        pong: &'w mut Matrix,
    ) -> &'w Matrix {
        let (mut src, mut dst) = (ping, pong);
        for layer in layers {
            layer.forward_into(src, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    /// Inference forward pass (buffer-returning wrapper).
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let mut ws = Workspace::default();
        self.forward_ws(input, &mut ws).clone()
    }

    /// Convenience: forward a single observation vector, returning the output
    /// row.
    pub fn forward_vec(&self, input: &[f32]) -> Vec<f32> {
        self.forward_row_ws(input, None, &mut Workspace::default())
            .to_vec()
    }

    /// Training forward pass (caches activations for backprop). The returned
    /// reference points into the internal workspace; allocation-free after
    /// warm-up.
    pub fn forward_train(&mut self, input: &Matrix) -> &Matrix {
        let Mlp { layers, ws, .. } = self;
        let Workspace { ping, pong, .. } = ws;
        match layers.split_first_mut() {
            None => {
                ping.copy_from(input);
                ping
            }
            Some((first, rest)) => {
                first.forward_train_into(input, ping);
                let (mut src, mut dst) = (ping, pong);
                for layer in rest {
                    layer.forward_train_into(src, dst);
                    std::mem::swap(&mut src, &mut dst);
                }
                src
            }
        }
    }

    /// Backward pass from `dL/d(output)`: accumulates gradients in every
    /// layer. `dL/d(input)` is not computed — no caller reads the gradient
    /// of an observation, and the first layer's input-gradient product costs
    /// as much as its weight gradient. Allocation-free after warm-up.
    pub fn backward(&mut self, grad_output: &Matrix) {
        let Mlp { layers, ws, .. } = self;
        let Workspace {
            ping,
            pong,
            grad_pre,
        } = ws;
        let Some((first, rest)) = layers.split_first_mut() else {
            return;
        };
        ping.copy_from(grad_output);
        let (mut src, mut dst) = (ping, pong);
        for layer in rest.iter_mut().rev() {
            layer.backward_into(src, grad_pre, Some(dst));
            std::mem::swap(&mut src, &mut dst);
        }
        first.backward_into(src, grad_pre, None);
    }

    /// Reset all accumulated gradients (buffers are parked and reused).
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Global L2 norm of the accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for layer in &self.layers {
            if let Some(gw) = &layer.grad_weights {
                sq += gw.data().iter().map(|v| v * v).sum::<f32>();
            }
            if let Some(gb) = &layer.grad_bias {
                sq += gb.iter().map(|v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Scale all accumulated gradients so the global norm does not exceed
    /// `max_norm` (gradient clipping). Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for layer in &mut self.layers {
                if let Some(gw) = &mut layer.grad_weights {
                    gw.scale_assign(scale);
                }
                if let Some(gb) = &mut layer.grad_bias {
                    for g in gb.iter_mut() {
                        *g *= scale;
                    }
                }
            }
        }
        norm
    }

    /// Serialise the weights to JSON (checkpointing).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restore a network from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Mlp> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        (x, y)
    }

    #[test]
    fn construction_shapes() {
        let cfg = MlpConfig::new(10, &[32, 16], 5, Activation::Relu);
        let net = Mlp::new(&cfg, 0);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(
            net.num_parameters(),
            10 * 32 + 32 + 32 * 16 + 16 + 16 * 5 + 5
        );
        let out = net.forward(&Matrix::zeros(3, 10));
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), 5);
        assert_eq!(net.forward_vec(&[0.0; 10]).len(), 5);
    }

    #[test]
    fn same_seed_same_network() {
        let cfg = MlpConfig::new(4, &[8], 2, Activation::Tanh);
        assert_eq!(Mlp::new(&cfg, 5), Mlp::new(&cfg, 5));
        assert_ne!(Mlp::new(&cfg, 5), Mlp::new(&cfg, 6));
    }

    #[test]
    fn forward_ws_matches_forward() {
        let cfg = MlpConfig::new(6, &[12, 7], 3, Activation::Tanh);
        let net = Mlp::new(&cfg, 4);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4, -0.5, 0.6], &[1.0; 6]]);
        let reference = net.forward(&x);
        let mut ws = Workspace::new();
        // Run twice through the same workspace: identical both times.
        assert_eq!(net.forward_ws(&x, &mut ws), &reference);
        assert_eq!(net.forward_ws(&x, &mut ws), &reference);
        // Shape changes are absorbed by the workspace.
        let single = Matrix::from_rows(&[&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]]);
        assert_eq!(net.forward_ws(&single, &mut ws), &net.forward(&single));
    }

    #[test]
    fn gradient_check_end_to_end() {
        let cfg = MlpConfig::new(3, &[5], 2, Activation::Tanh);
        let mut net = Mlp::new(&cfg, 1);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.6]]);
        let out = net.forward_train(&x);
        // L = sum(out^2)
        let grad_out = out.scale(2.0);
        net.zero_grad();
        net.backward(&grad_out);
        let analytic = net.layers()[0].grad_weights.clone().unwrap();
        let eps = 1e-3f32;
        for (r, c) in [(0, 0), (2, 4)] {
            let original = net.layers()[0].weights.get(r, c);
            let mut plus = net.clone();
            plus.layers_mut()[0].weights.set(r, c, original + eps);
            let mut minus = net.clone();
            minus.layers_mut()[0].weights.set(r, c, original - eps);
            let f = |n: &Mlp| n.forward(&x).map(|v| v * v).sum();
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic.get(r, c)).abs() < 2e-2,
                "dW[{r},{c}]: numeric {numeric} vs analytic {}",
                analytic.get(r, c)
            );
        }
    }

    #[test]
    fn learns_xor() {
        let cfg = MlpConfig::new(2, &[16, 16], 1, Activation::Tanh);
        let mut net = Mlp::new(&cfg, 7);
        let mut opt = Adam::new(net.num_parameters(), 5e-3);
        let (x, y) = xor_data();
        for _ in 0..2000 {
            let out = net.forward_train(&x);
            let grad = out.sub(&y).scale(2.0 / 4.0);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net);
        }
        let pred = net.forward(&x);
        let mse = pred.sub(&y).map(|v| v * v).mean();
        assert!(mse < 0.05, "XOR not learned, mse = {mse}");
    }

    #[test]
    fn grad_clipping_bounds_the_norm() {
        let cfg = MlpConfig::new(4, &[8], 3, Activation::Relu);
        let mut net = Mlp::new(&cfg, 2);
        let x = Matrix::from_rows(&[&[10.0, -10.0, 5.0, 2.0]]);
        let out = net.forward_train(&x).clone();
        net.zero_grad();
        net.backward(&out.scale(100.0));
        let before = net.grad_norm();
        assert!(before > 1.0);
        let reported = net.clip_grad_norm(1.0);
        assert!((reported - before).abs() < 1e-4);
        assert!(net.grad_norm() <= 1.0 + 1e-4);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_outputs() {
        let cfg = MlpConfig::new(6, &[12], 4, Activation::Relu);
        let net = Mlp::new(&cfg, 9);
        let json = net.to_json().unwrap();
        let back = Mlp::from_json(&json).unwrap();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]]);
        assert_eq!(net.forward(&x), back.forward(&x));
        assert_eq!(net.config(), back.config());
    }
}
