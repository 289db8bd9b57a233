//! Counting-allocator proof of the zero-allocation contract: after one
//! warm-up pass at a given batch shape, `Mlp::forward_ws`,
//! `Mlp::forward_train`, `Mlp::backward`, `zero_grad` and an optimizer step
//! perform **zero heap allocations** — on **both** kernel backends. The
//! SIMD backend's packed-B panels must come from the reusable thread-local
//! pack buffer, never from per-call allocations, so the explicit
//! per-backend matmul loop below would fail the moment packing allocated
//! per call.
//!
//! Allocations are counted on the test's own thread, so harness threads
//! never pollute the count.

use tcrm_testkit::count_allocations;

#[test]
fn hot_paths_do_not_allocate_after_warmup() {
    use tcrm_nn::{Activation, Adam, Backend, Matrix, Mlp, MlpConfig, Optimizer, Workspace};

    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

    // ------------------------------------------------------------------
    // Kernel layer, both backends explicitly: matmul (packed + single-row
    // SIMD paths), transposed-B, accumulating transposed-A, and the
    // vectorized tanh, against pre-sized outputs.
    // ------------------------------------------------------------------
    let a_batch = Matrix::from_vec(
        16,
        96,
        (0..16 * 96).map(|i| (i % 13) as f32 / 13.0).collect(),
    );
    let a_row = Matrix::from_vec(1, 96, (0..96).map(|i| (i % 11) as f32 / 11.0).collect());
    let b = Matrix::from_vec(
        96,
        72,
        (0..96 * 72).map(|i| (i % 7) as f32 / 7.0 - 0.5).collect(),
    );
    let b_t = Matrix::from_vec(72, 96, (0..72 * 96).map(|i| (i % 5) as f32 / 5.0).collect());
    // k×m operand for the accumulating transposed-A kernel (out is m×n).
    let a_kt = Matrix::from_vec(96, 16, (0..96 * 16).map(|i| (i % 9) as f32 / 9.0).collect());
    let mut out = Matrix::default();
    let mut acc = Matrix::zeros(16, 72);
    let mut tanh_buf = Matrix::zeros(16, 72);
    // Warm-up: size every output and the thread-local pack buffer on both
    // backends.
    for backend in BACKENDS {
        a_batch.matmul_into_with(backend, &b, &mut out);
        a_row.matmul_into_with(backend, &b, &mut out);
        a_batch.matmul_transb_into_with(backend, &b_t, &mut out);
        a_kt.matmul_transa_acc_into_with(backend, &b, &mut acc);
        tcrm_nn::kernels::tanh_inplace(backend, tanh_buf.data_mut());
    }
    for backend in BACKENDS {
        let kernel_allocs = count_allocations(|| {
            for _ in 0..10 {
                a_batch.matmul_into_with(backend, &b, &mut out);
                a_row.matmul_into_with(backend, &b, &mut out);
                a_batch.matmul_transb_into_with(backend, &b_t, &mut out);
                a_kt.matmul_transa_acc_into_with(backend, &b, &mut acc);
                tcrm_nn::kernels::tanh_inplace(backend, tanh_buf.data_mut());
            }
        });
        assert_eq!(
            kernel_allocs,
            0,
            "{} kernels allocated in steady state",
            backend.name()
        );
    }

    // A 64-dim input through two 128-wide hidden layers (1×64 → 128 → 128),
    // with a full-panel 32-wide head, plus the ragged heads of the policy (13
    // actions) and value (1 output) networks, whose last panel is masked.
    for output_dim in [32, 13, 1] {
        let cfg = MlpConfig::new(64, &[128, 128], output_dim, Activation::Relu);
        let mut net = Mlp::new(&cfg, 3);
        let single = Matrix::zeros(1, 64);
        let batch = Matrix::from_vec(16, 64, (0..16 * 64).map(|i| (i % 7) as f32 / 7.0).collect());
        let grad = Matrix::from_vec(16, output_dim, vec![0.01; 16 * output_dim]);
        let mut opt = Adam::new(net.num_parameters(), 1e-3);
        let mut ws = Workspace::new();

        // Warm-up: size every buffer (inference at both shapes, one full
        // training cycle).
        net.forward_ws(&single, &mut ws);
        net.forward_ws(&batch, &mut ws);
        net.forward_train(&batch);
        net.zero_grad();
        net.backward(&grad);
        opt.step(&mut net);
        net.zero_grad();
        net.backward(&grad);
        opt.step(&mut net);

        // Steady state: zero allocations across repeated full cycles.
        let inference = count_allocations(|| {
            for _ in 0..10 {
                net.forward_ws(&batch, &mut ws).sum();
                net.forward_ws(&single, &mut ws).sum();
            }
        });
        assert_eq!(
            inference, 0,
            "forward_ws allocated in steady state (output width {output_dim})"
        );

        let training = count_allocations(|| {
            for _ in 0..10 {
                net.forward_train(&batch);
                net.zero_grad();
                net.backward(&grad);
                opt.step(&mut net);
            }
        });
        assert_eq!(
            training, 0,
            "forward_train/zero_grad/backward/step allocated in steady state (output width {output_dim})"
        );
    }
}
