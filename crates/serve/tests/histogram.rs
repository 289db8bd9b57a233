//! Histogram guarantees under a counting allocator: the record path is
//! allocation-free, quantile estimates stay inside the bucketing's relative
//! error bound against exact sorted quantiles, and merging is associative.

use proptest::prelude::*;
use tcrm_serve::LatencyHistogram;
use tcrm_testkit::count_allocations;

/// Exact nearest-rank quantile over a sorted slice (the reference the
/// histogram estimate is checked against).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Record and merge are allocation-free; only construction allocates. The
/// count is per-thread, so the proptests below may run concurrently.
#[test]
fn record_quantile_and_merge_do_not_allocate() {
    let mut a = LatencyHistogram::new();
    let mut b = LatencyHistogram::new();
    let allocs = count_allocations(|| {
        for i in 0..10_000u32 {
            a.record(f64::from(i % 997) * 1e-4 + 1e-6);
            b.record(f64::from(i % 31) * 1e-2 + 1e-5);
        }
        let _ = a.quantile(0.5);
        let _ = a.quantile(0.999);
        a.merge(&b);
    });
    assert_eq!(allocs, 0, "record/quantile/merge must stay on the stack");
    assert_eq!(a.count(), 20_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles stay within the bucketing's relative error bound
    /// (half a sub-bucket, `2^(1/32) ≈ 2.2%`; asserted at 5% for slack)
    /// of the exact sorted-sample quantile.
    #[test]
    fn quantiles_stay_within_the_bucket_error_bound(
        samples in prop::collection::vec(1e-6f64..1e3, 1..400),
        q in 0.01f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = exact_quantile(&sorted, q);
        let estimate = h.quantile(q);
        prop_assert!(
            (estimate / exact - 1.0).abs() < 0.05,
            "q={}: estimate {} vs exact {}", q, estimate, exact
        );
    }

    /// Merging is associative and commutative on everything the histogram
    /// reports exactly: buckets, count, min and max. (The running sum is
    /// float-accumulated, so it is compared approximately.)
    #[test]
    fn merge_is_associative_and_commutative(
        xs in prop::collection::vec(1e-9f64..1e2, 0..200),
        ys in prop::collection::vec(1e-9f64..1e2, 0..200),
        zs in prop::collection::vec(1e-9f64..1e2, 0..200),
    ) {
        let hist = |values: &[f64]| {
            let mut h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let (hx, hy, hz) = (hist(&xs), hist(&ys), hist(&zs));

        // (x ⊕ y) ⊕ z
        let mut left = hx.clone();
        left.merge(&hy);
        left.merge(&hz);
        // x ⊕ (y ⊕ z)
        let mut inner = hy.clone();
        inner.merge(&hz);
        let mut right = hx.clone();
        right.merge(&inner);
        // z ⊕ y ⊕ x (commuted)
        let mut commuted = hz.clone();
        commuted.merge(&hy);
        commuted.merge(&hx);

        for other in [&right, &commuted] {
            prop_assert_eq!(left.bucket_counts(), other.bucket_counts());
            prop_assert_eq!(left.count(), other.count());
            prop_assert_eq!(left.min(), other.min());
            prop_assert_eq!(left.max(), other.max());
            prop_assert!((left.mean() - other.mean()).abs() <= 1e-9 * left.mean().abs().max(1.0));
        }
        prop_assert_eq!(left.count(), (xs.len() + ys.len() + zs.len()) as u64);
    }
}
