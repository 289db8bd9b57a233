//! Fixed-memory log-bucketed histogram.
//!
//! [`LogHistogram`] buckets samples geometrically — a fixed number of
//! sub-buckets per factor-of-two octave above a smallest value — in a single
//! preallocated `u64` array, so recording is O(1) and allocation-free and
//! quantiles carry a relative error of at most half a sub-bucket. The
//! bucket layout is a type parameter ([`HistogramLayout`]): the engine's
//! bounded slowdown aggregation and the serving plane's latency telemetry
//! share this one implementation with their own layouts. Histograms of one
//! layout merge exactly (bucket-wise addition).

use std::marker::PhantomData;

/// The bucket layout of a [`LogHistogram`]: bucket `i` covers
/// `[MIN · 2^(i/S), MIN · 2^((i+1)/S))` for `S` =
/// [`Self::SUBBUCKETS_PER_OCTAVE`]; the last bucket is open-ended.
pub trait HistogramLayout {
    /// Smallest bucketed value. Samples at or below it (and non-finite or
    /// negative samples) land in bucket 0.
    const MIN: f64;
    /// Sub-buckets per factor-of-two octave. The worst-case relative
    /// quantile error is `2^(1/(2·S)) − 1`.
    const SUBBUCKETS_PER_OCTAVE: u32;
    /// Total bucket count.
    const NUM_BUCKETS: usize;
}

/// An allocation-free, mergeable log-bucketed histogram. Besides the
/// buckets it keeps the exact count, sum and extrema of the (sanitised)
/// samples; quantile estimates are clamped to the extrema, so degenerate
/// distributions report exact values.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram<L> {
    buckets: Box<[u64]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    layout: PhantomData<L>,
}

impl<L: HistogramLayout> Default for LogHistogram<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: HistogramLayout> LogHistogram<L> {
    /// An empty histogram. The bucket array is the only allocation this
    /// type ever performs; [`Self::reset`] keeps it.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; L::NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            layout: PhantomData,
        }
    }

    /// Forget every sample in place.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Bucket index of one sample: `floor(S · log2(v / MIN))`, clamped to
    /// the array.
    fn bucket_index(value: f64) -> usize {
        if !(value > L::MIN) {
            return 0;
        }
        let idx = ((value / L::MIN).log2() * L::SUBBUCKETS_PER_OCTAVE as f64) as usize;
        idx.min(L::NUM_BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `index` — the representative value
    /// quantiles report.
    fn bucket_mid(index: usize) -> f64 {
        L::MIN * ((index as f64 + 0.5) / L::SUBBUCKETS_PER_OCTAVE as f64).exp2()
    }

    /// Record one sample. Non-finite samples count as 0, negative ones are
    /// clamped to 0. O(1), allocation-free.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`; 0 when empty. The
    /// estimate is the bucket midpoint clamped to the observed `[min, max]`,
    /// so extreme quantiles never overshoot the data.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`. Exact: bucket-wise addition, so
    /// `merge(a, b)` and `merge(b, a)` produce identical buckets, counts and
    /// extrema regardless of grouping.
    pub fn merge(&mut self, other: &Self) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (exact, not bucketed); 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample; 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Raw bucket occupancies (tests and merge-exactness checks).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One nanosecond upwards, 16 sub-buckets per octave.
    #[derive(Debug, Clone, PartialEq)]
    struct Nanos;
    impl HistogramLayout for Nanos {
        const MIN: f64 = 1e-9;
        const SUBBUCKETS_PER_OCTAVE: u32 = 16;
        const NUM_BUCKETS: usize = 1024;
    }

    type Hist = LogHistogram<Nanos>;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Hist::new();
        h.record(0.125);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.125, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0.125);
        assert_eq!(h.max(), 0.125);
        // Reset forgets the sample but keeps the layout.
        h.reset();
        assert!(h.is_empty() && h.bucket_counts().len() == 1024);
        assert_eq!(h, Hist::new());
    }

    #[test]
    fn degenerate_samples_land_in_bucket_zero() {
        let mut h = Hist::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(5e-10);
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts()[0], 5);
        assert!(h.quantile(0.5) <= Nanos::MIN, "clamped to observed range");
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = Hist::new();
        for i in 1..=10_000u32 {
            h.record(f64::from(i) * 1e-4); // 0.1ms .. 1s uniform
        }
        for (q, expect) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let v = h.quantile(q);
            assert!(
                (v / expect - 1.0).abs() < 0.05,
                "q={q}: got {v}, want ~{expect}"
            );
        }
    }
}
