//! Fully-connected layers with manual backpropagation.
//!
//! The hot-path entry points are the `*_into` methods, which write into
//! caller-provided buffers and reuse the layer's internal caches, so a
//! forward/backward cycle performs **zero heap allocations** once every
//! buffer has warmed up to its steady-state shape. The buffer-returning
//! methods (`forward`, `forward_train`, `backward`) remain as thin wrappers
//! for tests and one-off callers.

use crate::activation::Activation;
use crate::init;
use crate::kernels::{self, Backend};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = act(x · W + b)`.
///
/// Shapes: input `batch × in_dim`, weights `in_dim × out_dim`, bias
/// `out_dim`, output `batch × out_dim`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix (`in_dim × out_dim`).
    pub weights: Matrix,
    /// Bias vector (`out_dim`).
    pub bias: Vec<f32>,
    /// Activation applied to the affine output.
    pub activation: Activation,
    /// Accumulated weight gradient (same shape as `weights`).
    #[serde(skip)]
    pub grad_weights: Option<Matrix>,
    /// Accumulated bias gradient.
    #[serde(skip)]
    pub grad_bias: Option<Vec<f32>>,
    /// Cached input of the last `forward_train` call.
    #[serde(skip)]
    cache_input: Option<Matrix>,
    /// Cached *post-activation* output of the last `forward_train` call.
    /// Backprop recovers the activation derivative from this value
    /// (`1 - a²` for tanh) instead of re-evaluating the activation on the
    /// pre-activation — the forward activation is computed exactly once
    /// per element per cycle.
    #[serde(skip)]
    cache_act: Option<Matrix>,
    /// Retired gradient buffers parked by `zero_grad` so the next backward
    /// pass can reuse their allocations.
    #[serde(skip)]
    spare_grad_weights: Option<Matrix>,
    #[serde(skip)]
    spare_grad_bias: Option<Vec<f32>>,
}

/// Equality on the learned parameters only; gradient and cache scratch never
/// participates (two networks with identical weights are the same network).
impl PartialEq for Dense {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.bias == other.bias
            && self.activation == other.activation
    }
}

impl Dense {
    /// Create a layer with activation-appropriate initialisation (He for
    /// ReLU, Xavier otherwise) and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let weights = match activation {
            Activation::Relu => init::he_uniform(in_dim, out_dim, rng),
            _ => init::xavier_uniform(in_dim, out_dim, rng),
        };
        Dense {
            weights,
            bias: vec![0.0; out_dim],
            activation,
            grad_weights: None,
            grad_bias: None,
            cache_input: None,
            cache_act: None,
            spare_grad_weights: None,
            spare_grad_bias: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Inference-mode forward pass into a caller-provided buffer
    /// (allocation-free once `out` has capacity; no caches kept).
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weights, out);
        out.add_row_broadcast_assign(&self.bias);
        self.activation.forward_inplace(out);
    }

    /// [`Self::forward_into`] for one input row given as a slice, into a
    /// `1 × out_dim` `out`. With `nonzero`, the product reads only the
    /// weight rows it lists ([`kernels::matmul_row_sparse`]): it must
    /// ascend and name every nonzero input, and the result equals the dense
    /// one when the weights are finite.
    pub fn forward_row_into(&self, input: &[f32], nonzero: Option<&[u32]>, out: &mut Matrix) {
        let (k, n) = (self.in_dim(), self.out_dim());
        out.resize(1, n);
        let (w, o) = (self.weights.data(), out.data_mut());
        match nonzero {
            Some(rows) => kernels::matmul_row_sparse(Backend::active(), input, rows, w, o, k, n),
            None => kernels::matmul(Backend::active(), input, w, o, 1, k, n),
        }
        out.add_row_broadcast_assign(&self.bias);
        self.activation.forward_inplace(out);
    }

    /// Inference-mode forward pass (no caches kept).
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    /// Training-mode forward pass into a caller-provided buffer: caches the
    /// input and the post-activation output (reusing previous cache
    /// buffers) so a subsequent [`Self::backward_into`] can compute
    /// gradients without re-evaluating the activation.
    pub fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let cache_input = self.cache_input.get_or_insert_with(Matrix::default);
        cache_input.copy_from(input);
        input.matmul_into(&self.weights, out);
        out.add_row_broadcast_assign(&self.bias);
        self.activation.forward_inplace(out);
        let act = self.cache_act.get_or_insert_with(Matrix::default);
        act.copy_from(out);
    }

    /// Training-mode forward pass (buffer-returning wrapper).
    pub fn forward_train(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_train_into(input, &mut out);
        out
    }

    /// Backward pass: given `dL/d(output)`, accumulate `dL/dW` and `dL/db`
    /// and, when `grad_input` is given, write `dL/d(input)` into it. The
    /// input gradient is the product `dL/d(pre) · Wᵀ`, as large as the
    /// weight gradient itself, so a caller that never reads it (the first
    /// layer of a network, whose input is the observation) passes `None`
    /// and skips it; the weight and bias gradients do not depend on it.
    /// `grad_pre` is scratch space for the fused activation backprop. Must
    /// follow a `forward_train_into` call. Allocation-free once the gradient
    /// and scratch buffers have warmed up.
    pub fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_pre: &mut Matrix,
        grad_input: Option<&mut Matrix>,
    ) {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward called without forward_train");
        let act = self.cache_act.as_ref().expect("missing cached activation");
        // dL/d(pre) = dL/d(out) ⊙ act'(pre), fused into the scratch buffer.
        // The derivative comes from the cached activation value (1 - a² for
        // tanh), so backward never re-evaluates the activation.
        self.activation
            .backprop_from_act_into(act, grad_output, grad_pre);
        // dL/dW += xᵀ · dL/d(pre), accumulated straight into the gradient.
        let (in_dim, out_dim) = (self.weights.rows(), self.weights.cols());
        let gw = match &mut self.grad_weights {
            Some(gw) => gw,
            None => {
                let mut gw = self.spare_grad_weights.take().unwrap_or_default();
                gw.resize(in_dim, out_dim);
                gw.fill(0.0);
                self.grad_weights.insert(gw)
            }
        };
        input.matmul_transa_acc_into(grad_pre, gw);
        let gb = match &mut self.grad_bias {
            Some(gb) => gb,
            None => {
                let mut gb = self.spare_grad_bias.take().unwrap_or_default();
                gb.clear();
                gb.resize(out_dim, 0.0);
                self.grad_bias.insert(gb)
            }
        };
        grad_pre.sum_rows_acc_into(gb);
        // dL/dx = dL/d(pre) · Wᵀ, without materialising the transpose.
        if let Some(grad_input) = grad_input {
            grad_pre.matmul_transb_into(&self.weights, grad_input);
        }
    }

    /// Backward pass (buffer-returning wrapper): returns `dL/d(input)`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad_pre = Matrix::default();
        let mut grad_input = Matrix::default();
        self.backward_into(grad_output, &mut grad_pre, Some(&mut grad_input));
        grad_input
    }

    /// Reset accumulated gradients. The buffers are parked internally and
    /// reused by the next backward pass, so alternating
    /// `zero_grad`/`backward` cycles never re-allocate.
    pub fn zero_grad(&mut self) {
        if let Some(gw) = self.grad_weights.take() {
            self.spare_grad_weights = Some(gw);
        }
        if let Some(gb) = self.grad_bias.take() {
            self.spare_grad_bias = Some(gb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn forward_shapes() {
        let layer = Dense::new(4, 3, Activation::Relu, &mut rng());
        let x = Matrix::zeros(5, 4);
        let y = layer.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 3);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
    }

    #[test]
    fn forward_train_matches_forward() {
        let mut layer = Dense::new(4, 3, Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]]);
        let a = layer.forward(&x);
        let b = layer.forward_train(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn into_variants_match_wrappers_and_reuse_buffers() {
        let mut layer = Dense::new(6, 4, Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4, -0.5, 0.6], &[1.0; 6]]);
        let reference = layer.forward(&x);
        let mut out = Matrix::zeros(9, 9); // wrong shape on purpose
        layer.forward_into(&x, &mut out);
        assert_eq!(out, reference);
        // Training variant agrees and leaves usable caches behind.
        let mut out2 = Matrix::default();
        layer.forward_train_into(&x, &mut out2);
        assert_eq!(out2, reference);
        let grad_out = reference.map(|_| 1.0);
        let mut grad_pre = Matrix::default();
        let mut grad_in = Matrix::default();
        layer.backward_into(&grad_out, &mut grad_pre, Some(&mut grad_in));
        assert_eq!(grad_in.rows(), 2);
        assert_eq!(grad_in.cols(), 6);
    }

    #[test]
    fn skipping_the_input_gradient_leaves_parameter_gradients_bit_identical() {
        let layer = Dense::new(7, 13, Activation::Tanh, &mut rng());
        let x = Matrix::from_vec(5, 7, (0..35).map(|i| (i as f32 * 0.37).sin()).collect());
        let grad_out = Matrix::from_vec(5, 13, (0..65).map(|i| (i as f32 * 0.11).cos()).collect());
        let mut with = layer.clone();
        let mut without = layer;
        let (mut grad_pre, mut grad_in) = (Matrix::default(), Matrix::default());
        with.forward_train(&x);
        with.backward_into(&grad_out, &mut grad_pre, Some(&mut grad_in));
        without.forward_train(&x);
        without.backward_into(&grad_out, &mut grad_pre, None);
        assert_eq!(grad_in.rows(), 5);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(with.grad_weights.as_ref().unwrap()),
            bits(without.grad_weights.as_ref().unwrap())
        );
        let bias_bits = |l: &Dense| bits(&Matrix::row_vector(l.grad_bias.as_ref().unwrap()));
        assert_eq!(bias_bits(&with), bias_bits(&without));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Loss L = sum(output). Finite-difference the weights and input.
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.3, -0.1, 0.8], &[-0.5, 0.2, 0.4]]);
        let out = layer.forward_train(&x);
        let grad_out = out.map(|_| 1.0);
        let grad_in = layer.backward(&grad_out);
        let gw = layer.grad_weights.clone().unwrap();

        let eps = 1e-3f32;
        // Check a few weight entries.
        for (r, c) in [(0, 0), (1, 1), (2, 0)] {
            let mut plus = layer.clone();
            plus.weights.set(r, c, plus.weights.get(r, c) + eps);
            let mut minus = layer.clone();
            minus.weights.set(r, c, minus.weights.get(r, c) - eps);
            let numeric = (plus.forward(&x).sum() - minus.forward(&x).sum()) / (2.0 * eps);
            assert!(
                (numeric - gw.get(r, c)).abs() < 1e-2,
                "dW[{r},{c}] numeric {numeric} analytic {}",
                gw.get(r, c)
            );
        }
        // Check an input entry.
        let mut xp = x.clone();
        xp.set(0, 1, xp.get(0, 1) + eps);
        let mut xm = x.clone();
        xm.set(0, 1, xm.get(0, 1) - eps);
        let numeric = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * eps);
        assert!((numeric - grad_in.get(0, 1)).abs() < 1e-2);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = layer.forward_train(&x);
        let g = out.map(|_| 1.0);
        layer.backward(&g);
        let first = layer.grad_weights.clone().unwrap();
        layer.forward_train(&x);
        layer.backward(&g);
        let second = layer.grad_weights.clone().unwrap();
        assert!((second.get(0, 0) - 2.0 * first.get(0, 0)).abs() < 1e-6);
        layer.zero_grad();
        assert!(layer.grad_weights.is_none());
        assert!(layer.grad_bias.is_none());
        // The parked buffers are reused: the next backward starts from zero.
        layer.forward_train(&x);
        layer.backward(&g);
        let third = layer.grad_weights.clone().unwrap();
        assert!((third.get(0, 0) - first.get(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn serde_skips_caches() {
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        layer.forward_train(&x);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weights, layer.weights);
        assert_eq!(back.bias, layer.bias);
        assert!(back.grad_weights.is_none());
    }
}
