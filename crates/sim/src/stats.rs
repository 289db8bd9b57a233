//! Small statistics helpers shared by the metrics module, the workload
//! generator and the benchmark harness.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation; 0.0 for fewer than two samples.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Percentile of an ascending slice via linear interpolation between
/// closest ranks. `p` is in `[0, 100]`. Returns 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`.
///
/// It is 1 when every value is identical and approaches `1/n` when a single
/// value dominates. Values are expected to be non-negative (per-job slowdowns,
/// per-class allocations, …); an empty slice or an all-zero slice returns 1.0
/// (perfectly fair by convention: nobody got anything or nobody was delayed).
pub fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert!((percentile_sorted(&v, 50.0) - 3.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 25.0) - 2.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn jain_fairness_bounds_and_extremes() {
        // Identical values are perfectly fair.
        assert!((jain_fairness(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One dominant value approaches 1/n.
        let skewed = jain_fairness(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        // Known textbook value: (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
        assert!((jain_fairness(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        // Conventions for degenerate inputs.
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        // Always within (0, 1].
        let v = [0.1, 5.0, 2.2, 7.9, 0.4];
        let f = jain_fairness(&v);
        assert!(f > 0.0 && f <= 1.0);
    }
}
