//! Criterion bench: policy-network forward and forward+backward cost at the
//! sizes the agent actually uses, pitting the zero-allocation workspace
//! paths against a faithful re-implementation of the pre-optimization
//! ("naive") compute path: per-layer allocation, scalar ikj matmul with a
//! branchy zero-skip, cloned bias broadcast.
//!
//! Acceptance gate for the zero-allocation PR: `forward_single_ws` must be
//! ≥3x faster than `forward_single_naive` at the small two-hidden-layer
//! shape 1×64 → 128 → 128 → 32.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tcrm_nn::{kernels, Activation, Backend, Matrix, Mlp, MlpConfig, Workspace};

/// The seed repo's forward pass, preserved for comparison: fresh buffers at
/// every layer and the `a == 0.0` skip that defeats autovectorization.
mod naive {
    use super::*;

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a.get(i, k);
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + v * b.get(k, j));
                }
            }
        }
        out
    }

    pub fn forward(net: &Mlp, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in net.layers() {
            let pre = matmul(&x, &layer.weights).add_row_broadcast(&layer.bias);
            x = layer.activation.forward(&pre);
        }
        x
    }
}

/// Scalar vs SIMD, kernel by kernel, at the policy network's hot shapes.
/// The dispatched `Mlp` paths in the `nn_forward` group below run on
/// whichever backend `TCRM_KERNEL`/detection selected (reported on stderr);
/// this group pits the two implementations against each other explicitly.
fn bench_kernel_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_kernels");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));

    // Batched agent shape: 64×256 · 256×128 (the first, dominant layer).
    let a = Matrix::from_vec(
        64,
        256,
        (0..64 * 256)
            .map(|i| ((i % 23) as f32 - 11.0) / 11.0)
            .collect(),
    );
    let b = Matrix::from_vec(
        256,
        128,
        (0..256 * 128)
            .map(|i| ((i % 17) as f32 - 8.0) / 8.0)
            .collect(),
    );
    // Single-decision shape: 1×256 · 256×128.
    let row = Matrix::from_vec(1, 256, (0..256).map(|i| (i as f32 * 0.07).cos()).collect());
    let mut out = Matrix::default();
    for backend in [Backend::Scalar, Backend::Simd] {
        group.bench_function(format!("matmul_64x256x128_{}", backend.name()), |bench| {
            bench.iter(|| {
                a.matmul_into_with(backend, &b, &mut out);
                out.get(0, 0)
            })
        });
        group.bench_function(format!("matmul_1x256x128_{}", backend.name()), |bench| {
            bench.iter(|| {
                row.matmul_into_with(backend, &b, &mut out);
                out.get(0, 0)
            })
        });
    }

    // The PPO update's products at batch 256 (policy 103→128→64→13): the
    // input gradient g₂·W₂ᵀ, the weight gradient x₁ᵀ·g₂ and the ragged
    // 13-wide head a₂·W₃, whose last panel is a masked one.
    let fill = |rows: usize, cols: usize, modulus: usize| {
        let data = (0..rows * cols)
            .map(|i| ((i % modulus) as f32 - (modulus / 2) as f32) / modulus as f32)
            .collect();
        Matrix::from_vec(rows, cols, data)
    };
    let (g2, w2, x1, w3) = (
        fill(256, 64, 19),
        fill(128, 64, 13),
        fill(256, 128, 29),
        fill(64, 13, 7),
    );
    let mut grad_w = Matrix::zeros(128, 64);
    for backend in [Backend::Scalar, Backend::Simd] {
        group.bench_function(
            format!("matmul_transb_256x64x128_{}", backend.name()),
            |bench| {
                bench.iter(|| {
                    g2.matmul_transb_into_with(backend, &w2, &mut out);
                    out.get(0, 0)
                })
            },
        );
        group.bench_function(
            format!("matmul_transa_acc_256x128x64_{}", backend.name()),
            |bench| {
                bench.iter(|| {
                    x1.matmul_transa_acc_into_with(backend, &g2, &mut grad_w);
                    grad_w.get(0, 0)
                })
            },
        );
    }
    group.bench_function("matmul_256x64x13_simd", |bench| {
        bench.iter(|| {
            g2.matmul_into_with(Backend::Simd, &w3, &mut out);
            out.get(0, 0)
        })
    });

    // tanh over a hidden-layer-sized buffer: std library vs fast_tanh on
    // each backend.
    let src: Vec<f32> = (0..64 * 128)
        .map(|i| ((i % 37) as f32 - 18.0) / 6.0)
        .collect();
    let mut buf = src.clone();
    group.bench_function("tanh_8192_std", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&src);
            for v in buf.iter_mut() {
                *v = v.tanh();
            }
            buf[0]
        })
    });
    for backend in [Backend::Scalar, Backend::Simd] {
        group.bench_function(format!("tanh_8192_{}", backend.name()), |bench| {
            bench.iter(|| {
                buf.copy_from_slice(&src);
                kernels::tanh_inplace(backend, &mut buf);
                buf[0]
            })
        });
    }
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    eprintln!(
        "nn_forward: active kernel backend = {} (accelerated: {})",
        Backend::active().name(),
        Backend::active().is_accelerated()
    );
    let mut group = c.benchmark_group("nn_forward");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));

    // The acceptance shape: 1×64 → 128 → 128 → 32, a small two-hidden-layer
    // MLP (the default agent's shape follows).
    let small_cfg = MlpConfig::new(64, &[128, 128], 32, Activation::Relu);
    let small_net = Mlp::new(&small_cfg, 0);
    let small_single = Matrix::from_vec(1, 64, (0..64).map(|i| (i as f32 * 0.17).sin()).collect());
    let mut ws = Workspace::new();
    group.bench_function("forward_single_naive", |b| {
        b.iter(|| naive::forward(&small_net, &small_single).sum())
    });
    group.bench_function("forward_single_alloc", |b| {
        b.iter(|| small_net.forward(&small_single).sum())
    });
    group.bench_function("forward_single_ws", |b| {
        b.iter(|| small_net.forward_ws(&small_single, &mut ws).sum())
    });

    // The default agent: ~250-dim observation, 128x64 hidden, ~131 actions.
    let cfg = MlpConfig::new(256, &[128, 64], 131, Activation::Tanh);
    let net = Mlp::new(&cfg, 0);
    let single = Matrix::from_vec(1, 256, (0..256).map(|i| (i as f32 * 0.07).cos()).collect());
    group.bench_function("forward_single", |b| b.iter(|| net.forward(&single).sum()));
    group.bench_function("forward_single_agent_ws", |b| {
        b.iter(|| net.forward_ws(&single, &mut ws).sum())
    });
    let batch = Matrix::from_vec(
        64,
        256,
        (0..64 * 256)
            .map(|i| ((i % 23) as f32 - 11.0) / 11.0)
            .collect(),
    );
    group.bench_function("forward_batch64", |b| b.iter(|| net.forward(&batch).sum()));
    group.bench_function("forward_batch64_naive", |b| {
        b.iter(|| naive::forward(&net, &batch).sum())
    });
    group.bench_function("forward_batch64_ws", |b| {
        b.iter(|| net.forward_ws(&batch, &mut ws).sum())
    });
    group.bench_function("forward_backward_batch64", |b| {
        let mut train_net = net.clone();
        b.iter(|| {
            let out_scaled = train_net.forward_train(&batch).scale(1e-3);
            train_net.zero_grad();
            train_net.backward(&out_scaled);
            train_net.grad_norm()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_nn, bench_kernel_backends);
criterion_main!(benches);
