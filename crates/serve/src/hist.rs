//! Fixed-memory log-bucketed latency histogram.
//!
//! The serving plane records one latency sample per decision (and, in
//! wall-clock mode, per epoch), so the recorder must be allocation-free and
//! O(1): [`LatencyHistogram`] is the engine's [`LogHistogram`] with a
//! latency layout — 16 sub-buckets per octave starting at one nanosecond,
//! 1024 buckets total, covering `[1e-9 s, ~5.8e11 s)` with a worst-case
//! relative quantile error of `2^(1/32) ≈ 2.2%` — in a single preallocated
//! `u64` array. Histograms merge exactly (bucket-wise addition), so
//! per-shard telemetry folds into a fleet view without re-reading samples.

use tcrm_sim::{HistogramLayout, LogHistogram};

/// Smallest representable latency (seconds). Samples at or below this (and
/// non-finite or negative samples) land in bucket 0.
pub const MIN_LATENCY: f64 = 1e-9;

/// Sub-buckets per factor-of-two octave. Higher means finer quantiles at the
/// cost of more (still fixed) memory; 16 keeps the relative error under 2.2%.
pub const SUBBUCKETS_PER_OCTAVE: u32 = 16;

/// Total bucket count: 64 octaves × 16 sub-buckets.
pub const NUM_BUCKETS: usize = 1024;

/// The latency layout: [`MIN_LATENCY`], [`SUBBUCKETS_PER_OCTAVE`],
/// [`NUM_BUCKETS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyLayout;

impl HistogramLayout for LatencyLayout {
    const MIN: f64 = MIN_LATENCY;
    const SUBBUCKETS_PER_OCTAVE: u32 = SUBBUCKETS_PER_OCTAVE;
    const NUM_BUCKETS: usize = NUM_BUCKETS;
}

/// An allocation-free, mergeable latency histogram over seconds.
///
/// ```
/// use tcrm_serve::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64 * 1e-3); // 1ms .. 1s
/// }
/// let p50 = h.quantile(0.50);
/// assert!((p50 / 0.5 - 1.0).abs() < 0.05, "p50 within bucket error: {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
pub type LatencyHistogram = LogHistogram<LatencyLayout>;
