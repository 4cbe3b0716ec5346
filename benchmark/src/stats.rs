//! Order statistics over pass timings and the regression-bound rule.

/// Median of `values` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread printed by `aa` is the number the acceptance rule uses.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (`None` under two samples).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// How much worse a lower-is-better metric may get before it counts as a
/// regression: a share of the baseline, or an absolute floor where the
/// baseline is so small that timer noise exceeds the share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub relative: f64,
    pub absolute_floor: f64,
}

impl Bound {
    /// The allowed worsening for `baseline`: the larger of the two terms.
    pub fn allowance(&self, baseline: f64) -> f64 {
        (baseline * self.relative).max(self.absolute_floor)
    }

    /// True when `current` is no worse than `baseline` by more than the
    /// allowance.
    pub fn holds(&self, baseline: f64, current: f64) -> bool {
        current - baseline <= self.allowance(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_is_relative_or_absolute_floor_whichever_is_larger() {
        let b = Bound {
            relative: 0.10,
            absolute_floor: 0.050,
        };
        // Large baseline: the 10% share governs.
        assert!(b.holds(10.0, 10.9));
        assert!(!b.holds(10.0, 11.1));
        // Small baseline: 10% of 20 ms is 2 ms, the 50 ms floor governs.
        assert!(b.holds(0.020, 0.065));
        assert!(!b.holds(0.020, 0.075));
        // An improvement always holds.
        assert!(b.holds(10.0, 5.0));
    }
}
