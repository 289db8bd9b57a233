//! Counting-allocator proof of the zero-allocation contract: after one
//! warm-up pass at a given batch shape, `Mlp::forward_ws`,
//! `Mlp::forward_train`, `Mlp::backward`, `zero_grad` and an optimizer step
//! perform **zero heap allocations** — on **both** kernel backends. The
//! SIMD backend's packed-B panels must come from the reusable thread-local
//! pack buffer, never from per-call allocations, so the explicit
//! per-backend matmul loop below would fail the moment packing allocated
//! per call.
//!
//! The whole check lives in a single `#[test]` so no concurrent test thread
//! can pollute the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

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
        let kernel_allocs = (0..4)
            .map(|_| {
                count_allocations(|| {
                    for _ in 0..10 {
                        a_batch.matmul_into_with(backend, &b, &mut out);
                        a_row.matmul_into_with(backend, &b, &mut out);
                        a_batch.matmul_transb_into_with(backend, &b_t, &mut out);
                        a_kt.matmul_transa_acc_into_with(backend, &b, &mut acc);
                        tcrm_nn::kernels::tanh_inplace(backend, tanh_buf.data_mut());
                    }
                })
            })
            .min()
            .unwrap();
        assert_eq!(
            kernel_allocs,
            0,
            "{} kernels allocated in steady state",
            backend.name()
        );
    }

    // DQN-typical shape (64-dim observation, two 128-wide hidden layers)
    // with a full-panel head, plus the ragged heads of the policy (13
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

        // Steady state: zero allocations across repeated full cycles. Each
        // phase is measured over several windows and judged on the minimum,
        // so rare counter pollution from a harness thread cannot fail the
        // test spuriously while a genuinely allocating hot path still would.
        let inference = (0..4)
            .map(|_| {
                count_allocations(|| {
                    for _ in 0..10 {
                        net.forward_ws(&batch, &mut ws).sum();
                        net.forward_ws(&single, &mut ws).sum();
                    }
                })
            })
            .min()
            .unwrap();
        assert_eq!(
            inference, 0,
            "forward_ws allocated in steady state (output width {output_dim})"
        );

        let training = (0..4)
            .map(|_| {
                count_allocations(|| {
                    for _ in 0..10 {
                        net.forward_train(&batch);
                        net.zero_grad();
                        net.backward(&grad);
                        opt.step(&mut net);
                    }
                })
            })
            .min()
            .unwrap();
        assert_eq!(
            training, 0,
            "forward_train/zero_grad/backward/step allocated in steady state (output width {output_dim})"
        );
    }
}
