//! Runtime-dispatched compute kernels behind [`Matrix`](crate::Matrix) and
//! [`Activation`](crate::Activation).
//!
//! Two backends implement the three matmul kernels and the vectorized
//! `tanh`:
//!
//! * [`Backend::Scalar`] — the portable register-blocked kernels (4-row
//!   blocks, 16-column tiles, ILP-friendly dot products). Works everywhere
//!   and is the reference the differential test harness
//!   (`tests/backend_diff.rs`) pins the vector backend against.
//! * [`Backend::Simd`] — AVX2+FMA intrinsics on `x86_64`, built from **one
//!   packing routine and one GEMM microkernel**. The packing routine copies
//!   the logical `k×n` right-hand operand into 8-lane panels, zero-padding
//!   the last one, from either a row-major B (`matmul`) or the transpose
//!   of a row-major matrix (`matmul_transb` packs Wᵀ). The panels live in
//!   a thread-local buffer that only grows, so the hot paths stay
//!   allocation-free after warm-up. The microkernel reads the left-hand
//!   operand through a (row stride, k stride) pair, so `matmul_transa_acc`
//!   reads Aᵀ in place (row stride 1: its 4-row loads are contiguous). It
//!   accumulates 4×16 output tiles entirely in registers, can store the
//!   tile or add it to the output, and writes the last, partial panel with
//!   a lane mask: padded lanes compute `0·A` (NaN for a NaN or infinite A)
//!   and are never stored. Single-row `matmul` products keep a separate
//!   streaming path that reads `B` directly, because one output row never
//!   amortises packing; it is the per-decision policy forward, and
//!   single-row forwards must match the rows of a one-slot batch.
//!   On hosts without AVX2+FMA — checked once via
//!   `is_x86_feature_detected!` — this backend degrades to the scalar
//!   kernels, so forcing it is always safe.
//!
//! The active backend is chosen **once** at first use: the `TCRM_KERNEL`
//! environment variable (`scalar`, `simd`, or `auto`) wins, otherwise
//! AVX2+FMA detection picks [`Backend::Simd`] when available. Tests and
//! benches that want both code paths in one process pass an explicit
//! [`Backend`] to the slice-level entry points instead of re-reading the
//! environment.
//!
//! ## `fast_tanh`
//!
//! [`fast_tanh`] replaces `f32::tanh` in the activation hot paths. It
//! computes `tanh(x) = (e^{2|x|} - 1) / (e^{2|x|} + 1)` with the sign
//! applied afterwards, where `e^{2|x|} = 2^y` is evaluated from the split
//! `y = n + f` (`n = ⌊y⌋`, `f ∈ [0, 1)`): `2^n` is assembled directly in
//! the float exponent bits and `2^f` by a degree-8 polynomial. The
//! **absolute error is ≤ 2e-6** over the whole real line (in practice
//! ≲ 4e-7; `tests/properties.rs` enforces the documented bound against an
//! `f64` reference), the function is odd by construction
//! (`fast_tanh(-x) == -fast_tanh(x)` bit-for-bit, signed zero preserved),
//! monotone non-decreasing, saturates to ±1 beyond |x| ≈ 9, and propagates
//! NaN. [`Backend::Simd`] evaluates the identical formula 8 lanes at a
//! time ([`tanh_inplace`]).

#[cfg(target_arch = "x86_64")]
use std::cell::RefCell;
use std::sync::OnceLock;

/// A compute-kernel implementation, selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable register-blocked scalar kernels (the reference semantics).
    Scalar,
    /// 8-wide AVX2+FMA packed-panel microkernel; degrades to
    /// [`Backend::Scalar`] when the CPU lacks AVX2+FMA.
    Simd,
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

impl Backend {
    /// Parse a backend name as accepted by the `TCRM_KERNEL` environment
    /// variable. `auto` (and the empty string) mean "detect".
    pub fn parse(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "simd" | "avx2" | "vector" => Some(Backend::Simd),
            "" | "auto" => Some(Backend::detect()),
            _ => None,
        }
    }

    /// The backend CPU detection would pick on this host.
    pub fn detect() -> Backend {
        if avx2_available() {
            Backend::Simd
        } else {
            Backend::Scalar
        }
    }

    /// The process-wide active backend, resolved once on first call:
    /// `TCRM_KERNEL` if set (unknown values fall back to detection with no
    /// error — kernels must never panic at startup), else [`Backend::detect`].
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| {
            std::env::var("TCRM_KERNEL")
                .ok()
                .as_deref()
                .and_then(Backend::parse)
                .unwrap_or_else(Backend::detect)
        })
    }

    /// Stable lowercase name (round-trips through [`Backend::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// Whether this backend actually runs vector instructions on this host
    /// (`Simd` on a machine with AVX2+FMA). `Scalar` is never accelerated;
    /// `Simd` without AVX2+FMA silently runs the scalar kernels.
    pub fn is_accelerated(self) -> bool {
        self == Backend::Simd && avx2_available()
    }
}

/// One-time AVX2+FMA detection (`std::arch`).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Reusable packed-B panel buffer for the SIMD products. Thread-local so
    /// rayon sweep workers never contend, and grown monotonically so the hot
    /// paths are allocation-free after one warm-up call per thread (pinned
    /// by `tests/alloc_free.rs`).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Dispatch entry points (slice-level; `Matrix` wraps these)
// ---------------------------------------------------------------------------

/// `out = a (m×k) · b (k×n)`, all row-major. `out` must hold `m·n` elements
/// and is fully overwritten.
pub fn matmul(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        if m == 1 {
            // Latency path: a single output row never amortises packing.
            unsafe { avx2::matmul_row(a, b, out, k, n) };
        } else {
            packed_gemm(a, (k, 1), b, false, out, (m, k, n), false);
        }
        return;
    }
    scalar::matmul(a, b, out, m, k, n);
}

/// `out = a (m×k) · bᵀ` where `b` is `n×k` row-major (the transpose is never
/// materialised). `out` must hold `m·n` elements and is fully overwritten.
pub fn matmul_transb(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), n * k, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        packed_gemm(a, (k, 1), b, true, out, (m, k, n), false);
        return;
    }
    scalar::matmul_transb(a, b, out, m, k, n);
}

/// `out += aᵀ · b` where `a` is `k×m` and `b` is `k×n` row-major (the
/// weight-gradient kernel). `out` must hold `m·n` elements; accumulation
/// happens in place.
pub fn matmul_transa_acc(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        packed_gemm(a, (1, m), b, false, out, (m, k, n), true);
        return;
    }
    scalar::matmul_transa_acc(a, b, out, k, m, n);
}

/// Pack B (`b`, or the transpose of `b` with `b_transposed`) into the
/// thread-local panel buffer and run the AVX2 microkernel with A read
/// through `a_strides = (row stride, k stride)`.
#[cfg(target_arch = "x86_64")]
fn packed_gemm(
    a: &[f32],
    (row_stride, k_stride): (usize, usize),
    b: &[f32],
    b_transposed: bool,
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    accumulate: bool,
) {
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        // SAFETY: only reached when AVX2+FMA were detected; the dispatchers
        // assert every slice length the strides and shape imply.
        unsafe {
            avx2::pack_b(b, b_transposed, k, n, &mut pack);
            let gemm = avx2::Gemm {
                a,
                row_stride,
                k_stride,
                pack: &pack,
                m,
                k,
                n,
                accumulate,
            };
            gemm.run(out);
        }
    });
}

/// Apply [`fast_tanh`] to every element in place, vectorized when the
/// backend is accelerated.
pub fn tanh_inplace(backend: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        unsafe { avx2::tanh_slice(xs) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    for v in xs.iter_mut() {
        *v = fast_tanh(*v);
    }
}

/// Numerically-stable softmax in place (subtracts the max), vectorized
/// 8-wide on the accelerated backend (max reduction, [`fast_exp`], sum
/// reduction, normalisation). Degenerate inputs (a non-positive or
/// non-finite exponent sum, e.g. all `-inf`) fall back to the uniform
/// distribution on both backends; behaviour on NaN inputs is
/// backend-specific, exactly like the matmul kernels. The scalar backend is
/// the reference (`std` exp); the SIMD backend evaluates [`fast_exp`] and
/// agrees within the documented 1e-5 relative bound (pinned by
/// `tests/backend_diff.rs`).
pub fn softmax_inplace(backend: Backend, xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        unsafe { avx2::softmax_slice(xs) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    scalar::softmax(xs);
}

/// Numerically-stable log-softmax in place (subtracts `max + ln Σ exp`),
/// vectorized 8-wide on the accelerated backend. Same backend semantics as
/// [`softmax_inplace`] (scalar is the `std`-exp reference), without a
/// degenerate-input fallback — mirroring the long-standing scalar
/// behaviour.
pub fn log_softmax_inplace(backend: Backend, xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        unsafe { avx2::log_softmax_slice(xs) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    scalar::log_softmax(xs);
}

/// One Adam update over a contiguous parameter block:
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g²`,
/// `p ← p − lr·(m/bias1)/(√(v/bias2) + ε)`, element-wise — vectorized
/// 8-wide (FMA + vector sqrt) on the accelerated backend. `bias1`/`bias2`
/// are the step-dependent bias corrections `1-β₁ᵗ` / `1-β₂ᵗ` (hoisted by
/// the caller, [`crate::optim::Adam`]). Scalar and SIMD agree within ulps
/// (the FMA contraction differs); pinned by `tests/backend_diff.rs`.
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    backend: Backend,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    assert_eq!(params.len(), grads.len(), "grad length mismatch");
    assert_eq!(params.len(), m.len(), "m length mismatch");
    assert_eq!(params.len(), v.len(), "v length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() {
        unsafe { avx2::adam_slice(params, grads, m, v, lr, beta1, beta2, eps, bias1, bias2) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    scalar::adam(params, grads, m, v, lr, beta1, beta2, eps, bias1, bias2);
}

/// Fast `e^z` for non-positive `z` (the softmax exponent after max
/// subtraction): `e^z = 2^y` with `y = z·log₂e`, split into `y = n + f`
/// (`n = ⌊y⌋`, `f ∈ [0, 1)`); `2^n` is assembled in the float exponent bits
/// and `2^f` by the same degree-8 polynomial as [`fast_tanh`]. Inputs are
/// clamped at −87 (where `e^z` underflows f32 anyway), so the biased
/// exponent never leaves the normal range. Relative error ≤ 1e-5 over the
/// whole domain (dominated by the rounding of `z·log₂e` at large `|z|`,
/// where the result is vanishingly small anyway) and ≤ 1e-6 on `[-2, 0]`,
/// the range that carries a softmax's probability mass; enforced by
/// `tests/backend_diff.rs`.
#[inline]
pub fn fast_exp(z: f32) -> f32 {
    let z = z.max(-87.0);
    let y = z * std::f32::consts::LOG2_E;
    let n = y.floor();
    let f = (y - n) * LN_2;
    let mut p = EXP_C[0];
    for &c in &EXP_C[1..] {
        p = p * f + c;
    }
    p = p * f + 1.0;
    f32::from_bits(((n as i32 + 127) << 23) as u32) * p
}

// ---------------------------------------------------------------------------
// fast_tanh
// ---------------------------------------------------------------------------

/// `2·log2(e)`: maps `|x|` to the base-2 exponent of `e^{2|x|}`.
const LOG2E_X2: f32 = 2.885_39;
/// `ln 2`, converting the fractional exponent back to base `e`.
const LN_2: f32 = std::f32::consts::LN_2;
/// Saturation cutoff: `1 - tanh(9.02) < 3e-8`, below half an f32 ULP at 1.0,
/// and `2^(9.02·LOG2E_X2) = 2^26` stays far from exponent overflow.
const SAT: f32 = 9.02;
/// Degree-8 Taylor coefficients of `e^z` (`1/i!`), evaluated by Horner on
/// `z = f·ln2 ∈ [0, ln2)`. Truncation error ≤ 2e-7 relative; because every
/// coefficient is positive and the truncation *under*-estimates at the
/// right edge, `2^n · p(f)` stays monotone across panel boundaries.
const EXP_C: [f32; 8] = [
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    0.5,
    1.0,
];

/// Fast hyperbolic tangent: absolute error ≤ 2e-6 vs the true `tanh`
/// (see the [module docs](self) for the construction and the property tests
/// for the enforced bound). Exactly odd, monotone, NaN-propagating, and
/// signed-zero-preserving.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs().min(SAT);
    let y = ax * LOG2E_X2;
    let n = y as i32; // y ≥ 0, so truncation is ⌊y⌋
    let z = (y - n as f32) * LN_2;
    let mut p = EXP_C[0];
    for &c in &EXP_C[1..] {
        p = p * z + c;
    }
    p = p * z + 1.0;
    let t = f32::from_bits(((n + 127) << 23) as u32) * p;
    // tanh(|x|) = 1 - 2/(t+1). The fixed numerator keeps the composition
    // monotone: t+1 rounds monotonically in t, a fixed-numerator division
    // is monotone in its denominator, and so is the final subtraction —
    // the (t-1)/(t+1) form jitters by one ULP where numerator and
    // denominator round in opposite directions. t ≥ 1 (p ≥ 1 for z ≥ 0),
    // so r ∈ [0, 1] and the sign transfer is exact.
    let r = 1.0 - 2.0 / (t + 1.0);
    r.copysign(x)
}

/// Derivative of [`fast_tanh`]: `1 - fast_tanh(x)²` (absolute error ≤ 5e-6
/// vs the true `1 - tanh²`).
#[inline]
pub fn fast_tanh_deriv(x: f32) -> f32 {
    let t = fast_tanh(x);
    1.0 - t * t
}

// ---------------------------------------------------------------------------
// Scalar backend (the portable reference kernels)
// ---------------------------------------------------------------------------

mod scalar {
    /// Register-blocked ikj kernel, branch-free inner loops:
    ///
    /// * **4-row blocks** — four output rows advance together, so every row
    ///   of `b` is fetched once per four rows of output instead of once per
    ///   row (4× less B-matrix traffic);
    /// * **4-wide k-unroll** on the remainder rows — four `a` elements stay
    ///   in registers per pass over the output row.
    pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k_count: usize, n: usize) {
        out.fill(0.0);
        // Register tile: 4 output rows × 16 output columns accumulate in
        // registers across the whole k loop.
        const TILE: usize = 16;
        let mut i = 0;
        while i + 4 <= m {
            let block = &mut out[i * n..(i + 4) * n];
            let (r0, rest) = block.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let mut j = 0;
            while j + TILE <= n {
                let mut acc = [[0.0f32; TILE]; 4];
                for k in 0..k_count {
                    let b_tile = &b[k * n + j..k * n + j + TILE];
                    let a0 = a[i * k_count + k];
                    let a1 = a[(i + 1) * k_count + k];
                    let a2 = a[(i + 2) * k_count + k];
                    let a3 = a[(i + 3) * k_count + k];
                    for (t, &x) in b_tile.iter().enumerate() {
                        acc[0][t] += a0 * x;
                        acc[1][t] += a1 * x;
                        acc[2][t] += a2 * x;
                        acc[3][t] += a3 * x;
                    }
                }
                r0[j..j + TILE].copy_from_slice(&acc[0]);
                r1[j..j + TILE].copy_from_slice(&acc[1]);
                r2[j..j + TILE].copy_from_slice(&acc[2]);
                r3[j..j + TILE].copy_from_slice(&acc[3]);
                j += TILE;
            }
            // Column remainder: scalar accumulation per row.
            while j < n {
                let mut acc = [0.0f32; 4];
                for k in 0..k_count {
                    let x = b[k * n + j];
                    acc[0] += a[i * k_count + k] * x;
                    acc[1] += a[(i + 1) * k_count + k] * x;
                    acc[2] += a[(i + 2) * k_count + k] * x;
                    acc[3] += a[(i + 3) * k_count + k] * x;
                }
                r0[j] = acc[0];
                r1[j] = acc[1];
                r2[j] = acc[2];
                r3[j] = acc[3];
                j += 1;
            }
            i += 4;
        }
        while i < m {
            let a_row = &a[i * k_count..(i + 1) * k_count];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut k = 0;
            while k + 4 <= k_count {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let four = &b[k * n..(k + 4) * n];
                let (b0, rest) = four.split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for ((o, (x0, x1)), (x2, x3)) in out_row
                    .iter_mut()
                    .zip(b0.iter().zip(b1))
                    .zip(b2.iter().zip(b3))
                {
                    *o += a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
                }
                k += 4;
            }
            while k < k_count {
                let scalar = a_row[k];
                let b_row = &b[k * n..(k + 1) * n];
                for (o, x) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += scalar * x;
                }
                k += 1;
            }
            i += 1;
        }
    }

    /// Each output element is a dot product of two contiguous rows, computed
    /// with four independent accumulators for ILP.
    pub fn matmul_transb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k_count: usize,
        n: usize,
    ) {
        for i in 0..m {
            let a_row = &a[i * k_count..(i + 1) * k_count];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k_count..(j + 1) * k_count];
                *o = dot(a_row, b_row);
            }
        }
    }

    /// Accumulation happens directly in the gradient buffer, so no temporary
    /// is ever allocated.
    pub fn matmul_transa_acc(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k_count: usize,
        m: usize,
        n: usize,
    ) {
        for k in 0..k_count {
            let a_row = &a[k * m..(k + 1) * m];
            let b_row = &b[k * n..(k + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Dot product with four independent accumulators (instruction-level
    /// parallelism; the compiler turns each lane into SIMD adds).
    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; 4];
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            acc[0] += ca[0] * cb[0];
            acc[1] += ca[1] * cb[1];
            acc[2] += ca[2] * cb[2];
            acc[3] += ca[3] * cb[3];
        }
        let mut tail = 0.0f32;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += x * y;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Stable softmax in place — the reference semantics (`std` exp, NaN
    /// ignored by the max fold, uniform fallback on a degenerate sum).
    pub fn softmax(xs: &mut [f32]) {
        let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in xs.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum <= 0.0 || !sum.is_finite() {
            let uniform = 1.0 / xs.len() as f32;
            xs.fill(uniform);
            return;
        }
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }

    /// Stable log-softmax in place — the reference semantics.
    pub fn log_softmax(xs: &mut [f32]) {
        let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        for x in xs.iter_mut() {
            *x -= log_sum;
        }
    }

    /// Element-wise Adam update — the reference semantics (no FMA
    /// contraction; matches the historical `optim::Adam` arithmetic).
    #[allow(clippy::too_many_arguments)]
    pub fn adam(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bias1: f32,
        bias2: f32,
    ) {
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Panel width: one AVX2 register of f32 lanes.
    const W: usize = 8;

    /// Single-row product `out (1×n) = a (1×k) · b (k×n)` streaming `b`
    /// directly (no packing): per k step one broadcast and one FMA per
    /// 8-column tile, eight tiles (64 columns) in flight to cover the FMA
    /// latency, then a 32- and 8-column block for the remainder. Each of
    /// those output elements is one in-order FMA chain over k. The last
    /// 1–7 columns run one lane-masked 8-lane `mul` then `add` per k step
    /// (the masked-off lanes are never loaded from memory nor stored).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available and the slices have the
    /// lengths implied by `(1, k, n)`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_row(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        debug_assert_eq!(a.len(), k);
        let mut j = 0;
        while j + 8 * W <= n {
            row_block::<8>(a, b, out, n, j);
            j += 8 * W;
        }
        if j + 4 * W <= n {
            row_block::<4>(a, b, out, n, j);
            j += 4 * W;
        }
        while j + W <= n {
            row_block::<1>(a, b, out, n, j);
            j += W;
        }
        if j < n {
            let mask = lane_mask(n - j);
            let bp = b.as_ptr().add(j);
            let mut acc = _mm256_setzero_ps();
            for (kk, &av) in a.iter().enumerate() {
                let bv = _mm256_maskload_ps(bp.add(kk * n), mask);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), bv));
            }
            _mm256_maskstore_ps(out.as_mut_ptr().add(j), mask, acc);
        }
    }

    /// Columns `j..j + 8·P` of [`matmul_row`]: `P` accumulators, each an
    /// in-order FMA chain over k.
    ///
    /// # Safety
    /// As for [`matmul_row`], with `j + 8·P ≤ n`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn row_block<const P: usize>(a: &[f32], b: &[f32], out: &mut [f32], n: usize, j: usize) {
        let bp = b.as_ptr().add(j);
        let mut c = [_mm256_setzero_ps(); P];
        for (kk, &av) in a.iter().enumerate() {
            let avv = _mm256_set1_ps(av);
            let row = bp.add(kk * n);
            for (q, acc) in c.iter_mut().enumerate() {
                *acc = _mm256_fmadd_ps(avv, _mm256_loadu_ps(row.add(q * W)), *acc);
            }
        }
        let op = out.as_mut_ptr().add(j);
        for (q, acc) in c.iter().enumerate() {
            _mm256_storeu_ps(op.add(q * W), *acc);
        }
    }

    /// Pack the logical `k×n` B operand into zero-padded 8-lane panels,
    /// `pack[p][kk][lane] = B[kk][p·8 + lane]` (`0.0` past column `n`), so
    /// the microkernel reads every panel with unit stride and never needs a
    /// column tail. `b` holds B row-major (`k×n`) or, with `transposed`, B's
    /// transpose row-major (`n×k`). The buffer is reused across calls and
    /// only grows.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available and `b.len() == k·n`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn pack_b(b: &[f32], transposed: bool, k: usize, n: usize, pack: &mut Vec<f32>) {
        let panels = n.div_ceil(W);
        if pack.len() < panels * k * W {
            pack.resize(panels * k * W, 0.0);
        }
        let dst = pack.as_mut_ptr();
        for p in 0..panels {
            let lanes = (n - p * W).min(W);
            let panel = dst.add(p * k * W);
            if transposed {
                if lanes < W {
                    for kk in 0..k {
                        _mm256_storeu_ps(panel.add(kk * W), _mm256_setzero_ps());
                    }
                }
                // Column j of B is row j of `b`: walk it once per lane.
                for lane in 0..lanes {
                    let row = &b[(p * W + lane) * k..][..k];
                    for (kk, &v) in row.iter().enumerate() {
                        *panel.add(kk * W + lane) = v;
                    }
                }
            } else {
                // Fixed-width 8-lane copies; the mask is all-ones except on
                // the last panel, where it zeroes the padding.
                let mask = lane_mask(lanes);
                for kk in 0..k {
                    let src = b.as_ptr().add(kk * n + p * W);
                    _mm256_storeu_ps(panel.add(kk * W), _mm256_maskload_ps(src, mask));
                }
            }
        }
    }

    /// The first `lanes` (≤ 8) lanes set.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// One product `out (m×n) = A · B`, or `out += A · B` with
    /// `accumulate`, against B already packed by [`pack_b`]. A is read in
    /// place through strides: `A[i][kk] = a[i·row_stride + kk·k_stride]`, so
    /// a row-major A is `(k, 1)` and the transpose of a row-major `k×m`
    /// matrix is `(1, m)`.
    pub struct Gemm<'a> {
        pub a: &'a [f32],
        pub row_stride: usize,
        pub k_stride: usize,
        pub pack: &'a [f32],
        pub m: usize,
        pub k: usize,
        pub n: usize,
        pub accumulate: bool,
    }

    impl Gemm<'_> {
        /// Run the product over all of `out` (`m×n` row-major), one panel
        /// pair at a time so the pair stays in L1 while A streams past it:
        /// 4×16 register tiles, 4×8 for an odd last panel, and the same
        /// tiles one row at a time for the `m % 4` remainder rows.
        ///
        /// # Safety
        /// Caller must ensure AVX2+FMA are available, `out.len() == m·n`,
        /// every strided A index is in bounds, and `pack` holds B packed
        /// for this `(k, n)`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn run(&self, out: &mut [f32]) {
            let panels = self.n.div_ceil(W);
            let out = out.as_mut_ptr();
            let mut p = 0;
            while p + 2 <= panels {
                self.panel_block::<2>(out, p);
                p += 2;
            }
            if p < panels {
                self.panel_block::<1>(out, p);
            }
        }

        /// Every row of `out` against panels `p..p+P`.
        ///
        /// # Safety
        /// As for [`Gemm::run`], with `p + P` panels in B.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        unsafe fn panel_block<const P: usize>(&self, out: *mut f32, p: usize) {
            let mut i = 0;
            while i + 4 <= self.m {
                self.tile::<4, P>(out, i, p);
                i += 4;
            }
            while i < self.m {
                self.tile::<1, P>(out, i, p);
                i += 1;
            }
        }

        /// Rows `i..i+R` against panels `p..p+P`: `R·P` accumulators stay in
        /// registers across the whole k loop, each packed B row is loaded
        /// once per `R` rows and each broadcast A element feeds `P` FMAs.
        /// Every output load and store goes through a lane mask, all-ones
        /// except on the last panel, whose lanes past column `n` (zero-padded
        /// B, so they hold `0·A`: NaN for an infinite or NaN A) are never
        /// stored.
        ///
        /// # Safety
        /// As for [`Gemm::run`], with rows `i + R ≤ m` and `p + P` panels.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        unsafe fn tile<const R: usize, const P: usize>(&self, out: *mut f32, i: usize, p: usize) {
            let (k, n) = (self.k, self.n);
            let (a, panel) = (self.a.as_ptr(), self.pack.as_ptr().add(p * k * W));
            let mut masks = [_mm256_setzero_si256(); P];
            for (q, mask) in masks.iter_mut().enumerate() {
                *mask = lane_mask((n - (p + q) * W).min(W));
            }
            let at = |r: usize, q: usize| out.add((i + r) * n + (p + q) * W);
            let mut c = [[_mm256_setzero_ps(); P]; R];
            if self.accumulate {
                for r in 0..R {
                    for q in 0..P {
                        c[r][q] = _mm256_maskload_ps(at(r, q), masks[q]);
                    }
                }
            }
            for kk in 0..k {
                let mut bv = [_mm256_setzero_ps(); P];
                for q in 0..P {
                    bv[q] = _mm256_loadu_ps(panel.add(q * k * W + kk * W));
                }
                for r in 0..R {
                    let av = _mm256_set1_ps(*a.add((i + r) * self.row_stride + kk * self.k_stride));
                    for q in 0..P {
                        c[r][q] = _mm256_fmadd_ps(av, bv[q], c[r][q]);
                    }
                }
            }
            for r in 0..R {
                for q in 0..P {
                    _mm256_maskstore_ps(at(r, q), masks[q], c[r][q]);
                }
            }
        }
    }

    /// 8-lane [`fast_tanh`](super::fast_tanh): the identical
    /// `2^n · p(f·ln2)` construction, with NaN lanes blended back from the
    /// input. Applies the vector body to full 8-lane chunks and the scalar
    /// function to the tail.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_slice(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(W);
        for chunk in &mut chunks {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            _mm256_storeu_ps(chunk.as_mut_ptr(), tanh8(x));
        }
        for v in chunks.into_remainder() {
            *v = super::fast_tanh(*v);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let sign_bit = _mm256_set1_ps(-0.0);
        let sign = _mm256_and_ps(x, sign_bit);
        let ax = _mm256_andnot_ps(sign_bit, x);
        let ax = _mm256_min_ps(ax, _mm256_set1_ps(super::SAT));
        let y = _mm256_mul_ps(ax, _mm256_set1_ps(super::LOG2E_X2));
        let n = _mm256_floor_ps(y);
        let z = _mm256_mul_ps(_mm256_sub_ps(y, n), _mm256_set1_ps(super::LN_2));
        let mut p = _mm256_set1_ps(super::EXP_C[0]);
        for &c in &super::EXP_C[1..] {
            p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(c));
        }
        let one = _mm256_set1_ps(1.0);
        p = _mm256_fmadd_ps(p, z, one);
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)),
            23,
        ));
        let t = _mm256_mul_ps(p, pow2n);
        // 1 - 2/(t+1): same monotone form as the scalar kernel.
        let r = _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(t, one)),
        );
        let r = _mm256_or_ps(r, sign);
        let nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
        _mm256_blendv_ps(r, x, nan)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// 8-lane [`fast_exp`](super::fast_exp) for non-positive exponents:
    /// the same `2^n · p(f·ln2)` construction as the scalar function. The
    /// polynomial runs on FMAs here while the scalar tail rounds each
    /// multiply-add separately, so lanes and tail agree to ulp level (well
    /// inside the documented 1e-5 bound), not bit-for-bit.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(z: __m256) -> __m256 {
        let z = _mm256_max_ps(z, _mm256_set1_ps(-87.0));
        let y = _mm256_mul_ps(z, _mm256_set1_ps(std::f32::consts::LOG2_E));
        let n = _mm256_floor_ps(y);
        let f = _mm256_mul_ps(_mm256_sub_ps(y, n), _mm256_set1_ps(super::LN_2));
        let mut p = _mm256_set1_ps(super::EXP_C[0]);
        for &c in &super::EXP_C[1..] {
            p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(c));
        }
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0));
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(p, pow2n)
    }

    /// Max over a slice: 8-wide reduction plus scalar tail.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn slice_max(xs: &[f32]) -> f32 {
        let chunks = xs.chunks_exact(W);
        let remainder = chunks.remainder();
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        for chunk in chunks {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(chunk.as_ptr()));
        }
        let mut max = hmax(vmax);
        for &x in remainder {
            max = max.max(x);
        }
        max
    }

    /// 8-wide in-place stable softmax (see
    /// [`softmax_inplace`](super::softmax_inplace) for the semantics).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_slice(xs: &mut [f32]) {
        let max = slice_max(xs);
        let maxv = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut chunks = xs.chunks_exact_mut(W);
        for chunk in &mut chunks {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(chunk.as_ptr()), maxv));
            _mm256_storeu_ps(chunk.as_mut_ptr(), e);
            vsum = _mm256_add_ps(vsum, e);
        }
        let mut sum = hsum(vsum);
        for x in chunks.into_remainder() {
            *x = super::fast_exp(*x - max);
            sum += *x;
        }
        if sum <= 0.0 || !sum.is_finite() {
            xs.fill(1.0 / xs.len() as f32);
            return;
        }
        let sumv = _mm256_set1_ps(sum);
        let mut chunks = xs.chunks_exact_mut(W);
        for chunk in &mut chunks {
            let p = _mm256_div_ps(_mm256_loadu_ps(chunk.as_ptr()), sumv);
            _mm256_storeu_ps(chunk.as_mut_ptr(), p);
        }
        for x in chunks.into_remainder() {
            *x /= sum;
        }
    }

    /// 8-wide in-place stable log-softmax (see
    /// [`log_softmax_inplace`](super::log_softmax_inplace)).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn log_softmax_slice(xs: &mut [f32]) {
        let max = slice_max(xs);
        let maxv = _mm256_set1_ps(max);
        let chunks = xs.chunks_exact(W);
        let remainder = chunks.remainder();
        let mut vsum = _mm256_setzero_ps();
        for chunk in chunks {
            vsum = _mm256_add_ps(
                vsum,
                exp8(_mm256_sub_ps(_mm256_loadu_ps(chunk.as_ptr()), maxv)),
            );
        }
        let mut sum = hsum(vsum);
        for &x in remainder {
            sum += super::fast_exp(x - max);
        }
        let log_sum = sum.ln() + max;
        let lsv = _mm256_set1_ps(log_sum);
        let mut chunks = xs.chunks_exact_mut(W);
        for chunk in &mut chunks {
            let r = _mm256_sub_ps(_mm256_loadu_ps(chunk.as_ptr()), lsv);
            _mm256_storeu_ps(chunk.as_mut_ptr(), r);
        }
        for x in chunks.into_remainder() {
            *x -= log_sum;
        }
    }

    /// 8-wide Adam update (see [`adam_step`](super::adam_step)): two FMAs
    /// for the moment updates, vector sqrt + division for the step. The
    /// scalar tail reuses the scalar reference kernel.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available and the slices share one
    /// length (asserted by the dispatcher).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_slice(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bias1: f32,
        bias2: f32,
    ) {
        let n = params.len();
        let b1 = _mm256_set1_ps(beta1);
        let omb1 = _mm256_set1_ps(1.0 - beta1);
        let b2 = _mm256_set1_ps(beta2);
        let omb2 = _mm256_set1_ps(1.0 - beta2);
        let inv_bias1 = _mm256_set1_ps(1.0 / bias1);
        let inv_bias2v = _mm256_set1_ps(1.0 / bias2);
        let epsv = _mm256_set1_ps(eps);
        let lrv = _mm256_set1_ps(lr);
        let (pp, gp, mp, vp) = (
            params.as_mut_ptr(),
            grads.as_ptr(),
            m.as_mut_ptr(),
            v.as_mut_ptr(),
        );
        let mut i = 0;
        while i + W <= n {
            let g = _mm256_loadu_ps(gp.add(i));
            let mi = _mm256_fmadd_ps(b1, _mm256_loadu_ps(mp.add(i)), _mm256_mul_ps(omb1, g));
            _mm256_storeu_ps(mp.add(i), mi);
            let g2 = _mm256_mul_ps(g, g);
            let vi = _mm256_fmadd_ps(b2, _mm256_loadu_ps(vp.add(i)), _mm256_mul_ps(omb2, g2));
            _mm256_storeu_ps(vp.add(i), vi);
            let m_hat = _mm256_mul_ps(mi, inv_bias1);
            let v_hat = _mm256_mul_ps(vi, inv_bias2v);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
            let step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
            _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), step));
            i += W;
        }
        super::scalar::adam(
            &mut params[i..],
            &grads[i..],
            &mut m[i..],
            &mut v[i..],
            lr,
            beta1,
            beta2,
            eps,
            bias1,
            bias2,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Scalar, Backend::Simd] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("AVX2"), Some(Backend::Simd));
        assert_eq!(Backend::parse("nonsense"), None);
        // `auto` and empty resolve to the detected backend.
        assert_eq!(Backend::parse("auto"), Some(Backend::detect()));
        assert_eq!(Backend::parse(""), Some(Backend::detect()));
        assert!(!Backend::Scalar.is_accelerated());
    }

    #[test]
    fn active_backend_honours_env_when_set() {
        let active = Backend::active();
        assert!(matches!(active, Backend::Scalar | Backend::Simd));
        if let Ok(forced) = std::env::var("TCRM_KERNEL") {
            if let Some(parsed) = Backend::parse(&forced) {
                assert_eq!(active, parsed, "TCRM_KERNEL={forced} not honoured");
            }
        }
    }

    /// Exhaustive bit-level scan: `fast_tanh` is monotone non-decreasing
    /// over every consecutive f32 pair in [0, 9.5] (and by exact oddness,
    /// over the negative axis too). ~1.1e9 values, so ignored by default;
    /// run with `cargo test -p tcrm-nn --release -- --ignored` after
    /// touching the kernel.
    #[test]
    #[ignore = "exhaustive (~1e9 evaluations); run explicitly after kernel changes"]
    fn fast_tanh_exhaustive_monotone_scan() {
        let mut prev = 0.0f32;
        let mut bits = 0.0f32.to_bits();
        let end = 9.5f32.to_bits();
        while bits <= end {
            let x = f32::from_bits(bits);
            let y = fast_tanh(x);
            assert!(y >= prev, "monotonicity broken at {x}: {y} < {prev}");
            prev = y;
            bits += 1;
        }
    }

    #[test]
    fn fast_tanh_basics() {
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(fast_tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fast_tanh(f32::INFINITY), 1.0);
        assert_eq!(fast_tanh(f32::NEG_INFINITY), -1.0);
        assert!(fast_tanh(f32::NAN).is_nan());
        assert!((fast_tanh(1.0) - 1.0f64.tanh() as f32).abs() < 2e-6);
        assert!((fast_tanh_deriv(0.0) - 1.0).abs() < 1e-6);
    }
}
