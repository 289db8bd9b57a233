//! Differential test harness: the SIMD kernel backend against the scalar
//! reference, on every matmul kernel, across ragged shapes.
//!
//! Both backends run in the same process through the explicit-backend entry
//! points (`matmul_into_with` & co.), so the comparison happens regardless
//! of what `TCRM_KERNEL` selected for the dispatched wrappers — and
//! regardless of the host CPU: on machines without AVX2+FMA the SIMD
//! backend lawfully degrades to the scalar kernels and the comparison is
//! exact. The CI matrix additionally runs the whole nn suite under
//! `TCRM_KERNEL=scalar` and `TCRM_KERNEL=simd` so the dispatched wrappers
//! themselves get exercised on both backends.
//!
//! Checks:
//! * relative error ≤ 1e-5 between backends on pseudo-random contents,
//!   across shapes that straddle every blocking parameter (1×k rows, odd
//!   k, k and n larger than the 8-wide panel and the 4-row block), and at
//!   the PPO update's shapes (batch 256, widths 103/128/64/13/1);
//! * exact NaN propagation, for all three products: an injected NaN
//!   poisons exactly the dependent output elements on both backends (the
//!   SIMD backend's zero-padded panel lanes compute `0·NaN` and must never
//!   be stored);
//! * exact ∞ propagation, for all three products: with positive
//!   surroundings, an injected +∞ produces +∞ in exactly the dependent
//!   outputs on both backends.
//!
//! Two checks are bit-for-bit rather than a tolerance: the SIMD backend's
//! single-row product (the per-decision policy forward) against a scalar
//! reference that spells out its exact operation sequence
//! (`single_row_simd_product_is_exact`), and the row-list product that
//! reads only the nonzero input rows against both
//! (`row_list_product_equals_the_dense_row_product`).

use proptest::prelude::*;
use tcrm_nn::{Backend, Matrix};

const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

fn fill(rows: usize, cols: usize, seed: u64, salt: u64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (((i as u64 * 2654435761 + seed * 97 + salt * 131) % 23) as f32 - 11.0) / 4.0)
            .collect(),
    )
}

/// The three matmul kernels, each computing the same logical product.
#[derive(Debug, Clone, Copy)]
enum Product {
    /// `a · b`.
    Plain,
    /// `a · (bᵀ)ᵀ`: B handed over transposed (`n×k`).
    TransB,
    /// `0 + (aᵀ)ᵀ · b`: A handed over transposed (`k×m`), accumulated into
    /// a zero output.
    TransAAcc,
}

const PRODUCTS: [Product; 3] = [Product::Plain, Product::TransB, Product::TransAAcc];

/// The logical product `a (m×k) · b (k×n)` through one kernel.
fn product(kind: Product, backend: Backend, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    match kind {
        Product::Plain => a.matmul_into_with(backend, b, &mut out),
        Product::TransB => a.matmul_transb_into_with(backend, &b.transpose(), &mut out),
        Product::TransAAcc => {
            out = Matrix::zeros(a.rows(), b.cols());
            a.transpose()
                .matmul_transa_acc_into_with(backend, b, &mut out);
        }
    }
    out
}

/// Relative error `|a - b| / max(|a|, |b|, 1)` ≤ `tol` element-wise.
fn assert_rel_close(a: &Matrix, b: &Matrix, tol: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows());
    prop_assert_eq!(a.cols(), b.cols());
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        prop_assert!(
            (x - y).abs() <= tol * scale,
            "element {i}: scalar {x} vs simd {y}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Shape bounds straddle every blocking parameter of both backends:
    // the 4-row block (m up to 13), the 8-wide panel and 16-column scalar
    // tile (n up to 45, so panel pairs + an odd panel + ragged lanes), and
    // the k-unrolls
    // (k up to 37, odd values included). Zero-sized dimensions exercise the
    // degenerate paths.
    #[test]
    fn matmul_backends_agree(
        m in 0usize..13,
        k in 0usize..37,
        n in 0usize..45,
        seed in 0u64..1000,
    ) {
        let a = fill(m, k, seed, 1);
        let b = fill(k, n, seed, 2);
        let mut scalar = Matrix::from_vec(1, 1, vec![42.0]);
        let mut simd = Matrix::from_vec(1, 1, vec![-7.0]);
        a.matmul_into_with(Backend::Scalar, &b, &mut scalar);
        a.matmul_into_with(Backend::Simd, &b, &mut simd);
        assert_rel_close(&scalar, &simd, 1e-5)?;
        // Repeat on the warm (already-shaped) output buffer: the packed
        // panel buffer is reused, results must be identical.
        let first = simd.clone();
        a.matmul_into_with(Backend::Simd, &b, &mut simd);
        prop_assert_eq!(&first, &simd);
    }

    // Same shape ranges as `matmul_backends_agree`: 4-row blocks plus
    // remainder rows, panel pairs, an odd last panel and ragged lanes.
    #[test]
    fn matmul_transb_backends_agree(
        m in 0usize..13,
        k in 0usize..37,
        n in 0usize..45,
        seed in 0u64..1000,
    ) {
        let a = fill(m, k, seed, 3);
        let b_t = fill(n, k, seed, 4); // n×k, logical B = b_tᵀ
        let mut scalar = Matrix::default();
        let mut simd = Matrix::default();
        a.matmul_transb_into_with(Backend::Scalar, &b_t, &mut scalar);
        a.matmul_transb_into_with(Backend::Simd, &b_t, &mut simd);
        assert_rel_close(&scalar, &simd, 1e-5)?;
        let first = simd.clone();
        a.matmul_transb_into_with(Backend::Simd, &b_t, &mut simd);
        prop_assert_eq!(&first, &simd);
    }

    #[test]
    fn matmul_transa_acc_backends_agree(
        k in 0usize..37,
        m in 0usize..13,
        n in 0usize..45,
        seed in 0u64..1000,
    ) {
        let a = fill(k, m, seed, 5); // k×m, logical A = aᵀ
        let b = fill(k, n, seed, 6);
        let base = fill(m, n, seed, 7);
        let mut scalar = base.clone();
        let mut simd = base.clone();
        a.matmul_transa_acc_into_with(Backend::Scalar, &b, &mut scalar);
        a.matmul_transa_acc_into_with(Backend::Simd, &b, &mut simd);
        assert_rel_close(&scalar, &simd, 1e-5)?;
    }

    #[test]
    fn single_row_product_agrees(k in 1usize..300, seed in 0u64..500) {
        // The SIMD backend's dedicated 1×k streaming path (the decision
        // latency shape) vs the scalar remainder-row path, with n spanning
        // the 32/8/scalar column tiers.
        for n in [1usize, 7, 8, 31, 33, 131] {
            let a = fill(1, k, seed, 8);
            let b = fill(k, n, seed, 9);
            let mut scalar = Matrix::default();
            let mut simd = Matrix::default();
            a.matmul_into_with(Backend::Scalar, &b, &mut scalar);
            a.matmul_into_with(Backend::Simd, &b, &mut simd);
            assert_rel_close(&scalar, &simd, 1e-5)?;
        }
    }

    #[test]
    fn nan_propagates_identically(
        m in 1usize..7,
        k in 1usize..19,
        n in 1usize..27,
        poison_in_a in any::<bool>(),
        pr in 0usize..6,
        pc in 0usize..26,
    ) {
        let mut a = fill(m, k, 1, 10);
        let mut b = fill(k, n, 1, 11);
        let (poison_row, poison_col);
        if poison_in_a {
            poison_row = pr % m;
            let pk = pc % k;
            a.set(poison_row, pk, f32::NAN);
            poison_col = usize::MAX; // every column of the poisoned row
        } else {
            let pk = pr % k;
            poison_col = pc % n;
            b.set(pk, poison_col, f32::NAN);
            poison_row = usize::MAX; // every row of the poisoned column
        }
        for (kind, backend) in PRODUCTS.into_iter().flat_map(|p| BACKENDS.map(|b| (p, b))) {
            let out = product(kind, backend, &a, &b);
            for r in 0..m {
                for c in 0..n {
                    let dependent = (poison_in_a && r == poison_row)
                        || (!poison_in_a && c == poison_col);
                    prop_assert_eq!(
                        out.get(r, c).is_nan(),
                        dependent,
                        "{:?} on the {} backend: NaN at ({}, {}) expected_dependent={}",
                        kind, backend.name(), r, c, dependent
                    );
                }
            }
        }
    }

    #[test]
    fn infinity_propagates_identically(
        m in 1usize..7,
        k in 1usize..19,
        n in 1usize..27,
        pr in 0usize..6,
        pk in 0usize..18,
    ) {
        // All-positive surroundings so +∞ cannot cancel or hit 0·∞: the
        // dependent outputs must be exactly +∞, everything else finite.
        let positive = |r: usize, c: usize, salt: u64| {
            Matrix::from_vec(r, c, (0..r * c)
                .map(|i| 0.25 + ((i as u64 * 2654435761 + salt) % 13) as f32 / 8.0)
                .collect())
        };
        let mut a = positive(m, k, 12);
        let b = positive(k, n, 13);
        let poison_row = pr % m;
        a.set(poison_row, pk % k, f32::INFINITY);
        for (kind, backend) in PRODUCTS.into_iter().flat_map(|p| BACKENDS.map(|b| (p, b))) {
            let out = product(kind, backend, &a, &b);
            for r in 0..m {
                for c in 0..n {
                    let v = out.get(r, c);
                    if r == poison_row {
                        prop_assert_eq!(v, f32::INFINITY,
                            "{:?} on the {} backend at ({}, {})", kind, backend.name(), r, c);
                    } else {
                        prop_assert!(v.is_finite(),
                            "{:?} on the {} backend at ({}, {}): {}", kind, backend.name(), r, c, v);
                    }
                }
            }
        }
    }

    #[test]
    fn tanh_backends_agree(xs in prop::collection::vec(-12.0f32..12.0, 0..67)) {
        // The vectorized tanh (8-lane body + scalar tail) vs the scalar
        // loop: both are bounded to the true tanh by ≤ 2e-6, so they agree
        // to ≤ 4e-6 absolutely.
        let reference = Matrix::from_vec(1.max(usize::from(!xs.is_empty())), xs.len(), xs.clone());
        let mut scalar = reference.clone();
        let mut simd = reference.clone();
        tcrm_nn::kernels::tanh_inplace(Backend::Scalar, scalar.data_mut());
        tcrm_nn::kernels::tanh_inplace(Backend::Simd, simd.data_mut());
        for (i, (s, v)) in scalar.data().iter().zip(simd.data().iter()).enumerate() {
            prop_assert!((s - v).abs() <= 4e-6, "element {i}: scalar {s} vs simd {v}");
        }
    }

    #[test]
    fn softmax_backends_agree(xs in prop::collection::vec(-30.0f32..30.0, 0..67)) {
        // Scalar (std exp, the reference) vs 8-wide polynomial exp: the
        // probabilities agree within 1e-5 and the SIMD distribution still
        // sums to 1.
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        tcrm_nn::kernels::softmax_inplace(Backend::Scalar, &mut scalar);
        tcrm_nn::kernels::softmax_inplace(Backend::Simd, &mut simd);
        for (i, (s, v)) in scalar.iter().zip(simd.iter()).enumerate() {
            prop_assert!((s - v).abs() <= 1e-5, "element {i}: scalar {s} vs simd {v}");
        }
        if !xs.is_empty() {
            let sum: f32 = simd.iter().sum();
            prop_assert!((sum - 1.0).abs() <= 1e-5, "simd softmax sums to {sum}");
            prop_assert!(simd.iter().all(|p| (0.0..=1.0 + 1e-6).contains(p)));
        }
    }

    #[test]
    fn log_softmax_backends_agree(xs in prop::collection::vec(-30.0f32..30.0, 1..67)) {
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        tcrm_nn::kernels::log_softmax_inplace(Backend::Scalar, &mut scalar);
        tcrm_nn::kernels::log_softmax_inplace(Backend::Simd, &mut simd);
        for (i, (s, v)) in scalar.iter().zip(simd.iter()).enumerate() {
            let scale = s.abs().max(v.abs()).max(1.0);
            prop_assert!((s - v).abs() <= 1e-5 * scale,
                "element {i}: scalar {s} vs simd {v}");
        }
        // Internal consistency on the SIMD side: exp(log_softmax) ≈ softmax.
        let mut probs = xs.clone();
        tcrm_nn::kernels::softmax_inplace(Backend::Simd, &mut probs);
        for (i, (l, p)) in simd.iter().zip(probs.iter()).enumerate() {
            prop_assert!((l.exp() - p).abs() <= 2e-5, "element {i}: {} vs {p}", l.exp());
        }
    }

    #[test]
    fn adam_backends_agree(
        n in 0usize..70,
        seed in 0u64..500,
        steps in 1usize..4,
        lr in 1e-4f32..0.1,
    ) {
        // Run several Adam steps over the same pseudo-random parameter/
        // gradient block on both backends; parameters and both moment
        // vectors must track within 1e-5 relative (the SIMD path contracts
        // the moment updates into FMAs and multiplies by reciprocal bias
        // corrections — ulp-level differences only).
        let init = |salt: u64| -> Vec<f32> {
            (0..n)
                .map(|i| (((i as u64 * 2654435761 + seed * 97 + salt * 131) % 23) as f32 - 11.0) / 4.0)
                .collect()
        };
        let mut ps = init(1);
        let mut pv = ps.clone();
        let (mut ms, mut vs) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (mut mv, mut vv) = (vec![0.0f32; n], vec![0.0f32; n]);
        for t in 1..=steps {
            let grads: Vec<f32> = init(10 + t as u64);
            let bias1 = 1.0 - 0.9f32.powi(t as i32);
            let bias2 = 1.0 - 0.999f32.powi(t as i32);
            tcrm_nn::kernels::adam_step(
                Backend::Scalar, &mut ps, &grads, &mut ms, &mut vs,
                lr, 0.9, 0.999, 1e-8, bias1, bias2,
            );
            tcrm_nn::kernels::adam_step(
                Backend::Simd, &mut pv, &grads, &mut mv, &mut vv,
                lr, 0.9, 0.999, 1e-8, bias1, bias2,
            );
        }
        for (name, a, b) in [("param", &ps, &pv), ("m", &ms, &mv), ("v", &vs, &vv)] {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                let scale = x.abs().max(y.abs()).max(1.0);
                prop_assert!((x - y).abs() <= 1e-5 * scale,
                    "{name}[{i}]: scalar {x} vs simd {y}");
            }
        }
    }
}

/// Test-only reference for the SIMD single-row product `a (1×k) · b (k×n)`:
/// every column covered by a full 8-lane tile is one in-order fused
/// multiply-add chain over k from +0.0; each of the last `n mod 8` columns
/// is the same chain with an unfused multiply, then add.
fn single_row_reference(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let full = n / 8 * 8;
    (0..n)
        .map(|j| {
            let column = a.iter().enumerate().map(|(kk, &av)| (av, b[kk * n + j]));
            if j < full {
                column.fold(0.0f32, |acc, (av, bv)| av.mul_add(bv, acc))
            } else {
                column.fold(0.0f32, |acc, (av, bv)| acc + av * bv)
            }
        })
        .collect()
}

/// Pseudo-random operand with the values a policy forward meets: runs of
/// zeros (most observation features are zero), -0.0, and, when `special`
/// is set, sparse NaN, +∞ and -∞ entries.
fn spiky(len: usize, seed: u64, special: bool) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut zero_run = 0usize;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            if zero_run > 0 {
                zero_run -= 1;
                return 0.0;
            }
            match r % 64 {
                0..=5 => {
                    zero_run = (r >> 8) as usize % 12;
                    0.0
                }
                6 => -0.0,
                7 if special => f32::NAN,
                8 if special => f32::INFINITY,
                9 if special => f32::NEG_INFINITY,
                _ => ((r >> 6) % 2001) as f32 / 1000.0 - 1.0,
            }
        })
        .collect()
}

/// Bit-for-bit equality, except that any NaN equals any NaN (the payload a
/// NaN operand propagates is not part of the contract).
fn assert_bits_equal(simd: &[f32], reference: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(simd.len(), reference.len());
    for (j, (x, y)) in simd.iter().zip(reference).enumerate() {
        prop_assert!(
            (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits(),
            "{} column {}: simd {} ({:#010x}) vs reference {} ({:#010x})",
            what,
            j,
            x,
            x.to_bits(),
            y,
            y.to_bits()
        );
    }
    Ok(())
}

fn single_row_simd(a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; n];
    tcrm_nn::kernels::matmul(Backend::Simd, a, b, &mut out, 1, k, n);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The SIMD single-row product equals its reference bit for bit: at
    /// the agent's layer shapes (259×128, 128×64, 64×131) and at random
    /// `k < 300`, `n < 140` that cross the 64-, 32- and 8-column blocks and
    /// every tail width, on inputs with zero runs, -0.0, NaN and ±∞.
    /// Meaningless without AVX2+FMA, where the SIMD backend runs the scalar
    /// kernels, so the check is skipped there.
    #[test]
    fn single_row_simd_product_is_exact(
        k in 0usize..300,
        n in 0usize..140,
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        if !Backend::Simd.is_accelerated() {
            return Ok(());
        }
        for (k, n) in [(259, 128), (128, 64), (64, 131), (k, n)] {
            let a = spiky(k, seed, special);
            let b = spiky(k * n, seed ^ 0x5eed, special);
            let what = format!("{k}×{n}");
            assert_bits_equal(&single_row_simd(&a, &b, k, n), &single_row_reference(&a, &b, n), &what)?;
        }
    }
}

/// The indices of the nonzero entries of `a` (-0.0 counts as zero; NaN is
/// nonzero).
fn nonzero_rows(a: &[f32]) -> Vec<u32> {
    (0..a.len() as u32)
        .filter(|&k| a[k as usize] != 0.0)
        .collect()
}

fn single_row_sparse(a: &[f32], rows: &[u32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; n];
    tcrm_nn::kernels::matmul_row_sparse(Backend::Simd, a, rows, b, &mut out, k, n);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The row-list product over the nonzero rows of `a` equals the dense
    /// SIMD single-row product and its reference bit for bit, at the
    /// agent's layer shapes and random `k < 300`, `n < 140`, on inputs with
    /// zero runs and -0.0 (and, with `special`, NaN and ±∞ inputs, which
    /// are nonzero and stay listed) against finite weights. Skipped without
    /// AVX2+FMA, like the dense pin.
    #[test]
    fn row_list_product_equals_the_dense_row_product(
        k in 0usize..300,
        n in 0usize..140,
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        if !Backend::Simd.is_accelerated() {
            return Ok(());
        }
        for (k, n) in [(259, 128), (128, 64), (64, 131), (k, n)] {
            let a = spiky(k, seed, special);
            let b = spiky(k * n, seed ^ 0x5eed, false);
            let rows = nonzero_rows(&a);
            let sparse = single_row_sparse(&a, &rows, &b, k, n);
            let what = format!("{k}×{n}, {} of {k} rows", rows.len());
            assert_bits_equal(&sparse, &single_row_simd(&a, &b, k, n), &what)?;
            assert_bits_equal(&sparse, &single_row_reference(&a, &b, n), &what)?;
        }
    }
}

/// The one corner where the row-list product is not bit-identical: an FMA
/// whose exact result is a nonzero value below half the least subnormal
/// rounds to -0.0, and a skipped zero row then turns the dense chain's -0.0
/// into +0.0. The two results still compare equal.
#[test]
fn row_list_product_differs_only_in_a_zero_sign_after_underflow() {
    if !Backend::Simd.is_accelerated() {
        return;
    }
    let (k, n) = (2, 8);
    let a = [2f32.powi(-80), 0.0];
    let mut b = vec![-(2f32.powi(-80)); n];
    b.resize(k * n, 1.0);
    let dense = single_row_simd(&a, &b, k, n);
    let sparse = single_row_sparse(&a, &[0], &b, k, n);
    for (d, s) in dense.iter().zip(&sparse) {
        assert_eq!(d, s);
        assert_eq!(d.to_bits(), 0.0f32.to_bits());
        assert_eq!(s.to_bits(), (-0.0f32).to_bits());
    }
}

/// Without AVX2+FMA (or on the scalar backend) the row-list entry point
/// computes the dense product, whatever the list says.
#[test]
fn row_list_product_on_the_scalar_backend_is_the_dense_product() {
    let (k, n) = (37, 21);
    let a = spiky(k, 3, false);
    let b = spiky(k * n, 4, false);
    let mut dense = vec![0.0; n];
    tcrm_nn::kernels::matmul(Backend::Scalar, &a, &b, &mut dense, 1, k, n);
    let mut sparse = vec![f32::NAN; n];
    tcrm_nn::kernels::matmul_row_sparse(
        Backend::Scalar,
        &a,
        &nonzero_rows(&a),
        &b,
        &mut sparse,
        k,
        n,
    );
    assert_eq!(
        dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        sparse.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

/// Every product at the PPO update's shapes (batch 256; policy
/// 103→128→64→13, value head 64→1): forward `x·W`, input gradient `g·Wᵀ`
/// and weight gradient `xᵀ·g`, on full panels, the masked 13-lane panel and
/// the single-lane value head.
#[test]
fn products_agree_at_training_shapes() {
    const BATCH: usize = 256;
    for (k, n) in [(103, 128), (128, 64), (64, 13), (64, 1)] {
        let x = fill(BATCH, k, 1, 30);
        let w = fill(k, n, 1, 31);
        let g = fill(BATCH, n, 1, 32);
        let base = fill(k, n, 1, 33);
        let mut fwd = [Matrix::default(), Matrix::default()];
        let mut dx = fwd.clone();
        let mut dw = [base.clone(), base];
        for (i, backend) in BACKENDS.into_iter().enumerate() {
            x.matmul_into_with(backend, &w, &mut fwd[i]);
            g.matmul_transb_into_with(backend, &w, &mut dx[i]);
            x.matmul_transa_acc_into_with(backend, &g, &mut dw[i]);
        }
        for (name, [scalar, simd]) in [("x·W", fwd), ("g·Wᵀ", dx), ("xᵀ·g", dw)] {
            assert_eq!((scalar.rows(), scalar.cols()), (simd.rows(), simd.cols()));
            for (i, (s, v)) in scalar.data().iter().zip(simd.data()).enumerate() {
                let scale = s.abs().max(v.abs()).max(1.0);
                assert!(
                    (s - v).abs() <= 1e-5 * scale,
                    "{name} at k={k}, n={n}, element {i}: scalar {s} vs simd {v}"
                );
            }
        }
    }
}

/// `fast_exp` (the SIMD softmax exponent) against the f64 reference:
/// relative error within the documented 1e-5 bound over the whole domain
/// (the rounding of `z·log₂e` dominates at large `|z|`), and within 1e-6 on
/// `[-2, 0]` where a softmax's probability mass lives.
#[test]
fn fast_exp_matches_f64_reference() {
    let mut worst_all = 0.0f64;
    let mut worst_near = 0.0f64;
    let mut i = 0;
    while i <= 87_000 {
        let z = -(i as f32) / 1000.0;
        let fast = f64::from(tcrm_nn::kernels::fast_exp(z));
        let exact = f64::from(z).exp();
        if exact > 0.0 {
            let rel = ((fast - exact) / exact).abs();
            worst_all = worst_all.max(rel);
            if z >= -2.0 {
                worst_near = worst_near.max(rel);
            }
        }
        i += 7;
    }
    assert!(
        worst_all <= 1e-5,
        "fast_exp worst relative error {worst_all}"
    );
    assert!(
        worst_near <= 1e-6,
        "fast_exp worst near-zero relative error {worst_near}"
    );
    assert_eq!(tcrm_nn::kernels::fast_exp(0.0), 1.0);
}

/// Degenerate softmax input (all `-inf`): both backends fall back to the
/// uniform distribution.
#[test]
fn softmax_degenerate_fallback_matches_on_both_backends() {
    for backend in BACKENDS {
        let mut xs = vec![f32::NEG_INFINITY; 9];
        tcrm_nn::kernels::softmax_inplace(backend, &mut xs);
        for p in xs {
            assert!((p - 1.0 / 9.0).abs() < 1e-7, "{}: {p}", backend.name());
        }
        let mut empty: Vec<f32> = Vec::new();
        tcrm_nn::kernels::softmax_inplace(backend, &mut empty);
        assert!(empty.is_empty());
    }
}

/// Forcing `TCRM_KERNEL` must be reflected by the process-wide dispatch
/// (this is what the CI backend-matrix legs assert for real).
#[test]
fn forced_backend_is_honoured() {
    if let Ok(name) = std::env::var("TCRM_KERNEL") {
        if let Some(expected) = Backend::parse(&name) {
            assert_eq!(Backend::active(), expected, "TCRM_KERNEL={name} ignored");
        }
    }
}

/// The dispatched wrapper must agree with whichever explicit backend is
/// active — i.e. dispatch really routes to one of the two tested kernels.
#[test]
fn dispatched_wrapper_matches_active_backend() {
    let a = fill(5, 33, 3, 20);
    let b = fill(33, 17, 3, 21);
    let mut via_dispatch = Matrix::default();
    let mut via_explicit = Matrix::default();
    a.matmul_into(&b, &mut via_dispatch);
    a.matmul_into_with(Backend::active(), &b, &mut via_explicit);
    assert_eq!(via_dispatch, via_explicit);
}
