//! Optimisers: the [`Optimizer`] interface and Adam.
//!
//! An optimiser operates on the gradients an [`Mlp`] accumulated via
//! `backward` and keeps its own per-parameter state vectors, indexed in layer order
//! (weights row-major, then bias) so the state lines up deterministically
//! across steps and across checkpoint restores of the same architecture.

use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Common optimiser interface.
pub trait Optimizer {
    /// Apply one update step using the gradients currently accumulated in the
    /// network. Layers with no accumulated gradient are skipped.
    fn step(&mut self, net: &mut Mlp);

    /// The learning rate currently in use.
    fn learning_rate(&self) -> f32;

    /// Change the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(num_parameters: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; num_parameters],
            v: vec![0.0; num_parameters],
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp) {
        use crate::kernels::{self, Backend};
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        let backend = Backend::active();
        let mut idx = 0usize;
        for layer in net.layers_mut() {
            let n = layer.weights.rows() * layer.weights.cols();
            // Gradients are read in place (no clone, no allocation); the
            // whole weight block updates through one contiguous kernel call
            // (8-wide on the SIMD backend).
            if let Some(gw) = &layer.grad_weights {
                kernels::adam_step(
                    backend,
                    layer.weights.data_mut(),
                    gw.data(),
                    &mut self.m[idx..idx + n],
                    &mut self.v[idx..idx + n],
                    self.lr,
                    self.beta1,
                    self.beta2,
                    self.eps,
                    bias1,
                    bias2,
                );
            }
            idx += n;
            if let Some(gb) = &layer.grad_bias {
                let nb = layer.bias.len();
                kernels::adam_step(
                    backend,
                    &mut layer.bias,
                    gb,
                    &mut self.m[idx..idx + nb],
                    &mut self.v[idx..idx + nb],
                    self.lr,
                    self.beta1,
                    self.beta2,
                    self.eps,
                    bias1,
                    bias2,
                );
            }
            idx += layer.bias.len();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::matrix::Matrix;
    use crate::mlp::MlpConfig;

    fn quadratic_step<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        // Minimise ||W x - y||^2 for a 1-layer linear net.
        let cfg = MlpConfig::new(2, &[], 1, Activation::Identity);
        let mut net = Mlp::new(&cfg, 3);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[1.0], &[-2.0], &[-1.0]]);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            let out = net.forward_train(&x);
            let diff = out.sub(&y);
            last = diff.map(|v| v * v).mean();
            net.zero_grad();
            net.backward(&diff.scale(2.0 / 3.0));
            opt.step(&mut net);
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let cfg = MlpConfig::new(2, &[], 1, Activation::Identity);
        let net = Mlp::new(&cfg, 3);
        let mut opt = Adam::new(net.num_parameters(), 0.05);
        let final_loss = quadratic_step(&mut opt, 300);
        assert!(final_loss < 1e-3, "loss = {final_loss}");
    }

    #[test]
    fn step_without_gradients_is_a_no_op() {
        let cfg = MlpConfig::new(3, &[4], 2, Activation::Relu);
        let mut net = Mlp::new(&cfg, 0);
        let before = net.clone();
        let mut opt = Adam::new(net.num_parameters(), 0.1);
        opt.step(&mut net);
        assert_eq!(net, before);
    }
}
