//! Small statistics helpers for the experiment reports.

/// Summary statistics over a sample of `u64` measurements (times in
/// ticks, message counts…).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        let mean = sum as f64 / n as f64;
        let var = sorted
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        Some(Summary {
            n,
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            stddev: var.sqrt(),
            p50: percentile(&sorted, 50),
            p99: percentile(&sorted, 99),
        })
    }
}

/// Nearest-rank percentile over a pre-sorted slice. Total: an empty
/// sample yields 0 rather than panicking (aggregation layers represent
/// "no samples" as `Option<Summary>`, but ad-hoc callers — e.g. a sweep
/// cell whose success-latency vector is empty — must not be able to
/// crash a report over it), and a single-sample slice yields that sample
/// for every `p`.
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(p <= 100);
    let Some(&first) = sorted.first() else {
        return 0;
    };
    if p == 0 {
        return first;
    }
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1)]
}

/// Success-rate counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rate {
    /// Successful trials.
    pub hits: usize,
    /// Total trials.
    pub total: usize,
}

impl Rate {
    /// Records one trial.
    pub fn record(&mut self, success: bool) {
        self.total += 1;
        if success {
            self.hits += 1;
        }
    }

    /// The rate in `[0, 1]`; `None` when empty.
    pub fn value(&self) -> Option<f64> {
        (self.total > 0).then(|| self.hits as f64 / self.total as f64)
    }

    /// True when every trial succeeded (and at least one ran).
    pub fn is_perfect(&self) -> bool {
        self.total > 0 && self.hits == self.total
    }

    /// Renders as `hits/total (pp.p%)`.
    pub fn render(&self) -> String {
        match self.value() {
            Some(v) => format!("{}/{} ({:.1}%)", self.hits, self.total, 100.0 * v),
            None => "0/0".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[4, 1, 3, 2, 5]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 5);
        assert!(s.stddev > 1.0 && s.stddev < 2.0);
    }

    #[test]
    fn summary_empty() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_single() {
        let s = Summary::of(&[7]).unwrap();
        assert_eq!((s.min, s.max, s.p50, s.p99), (7, 7, 7, 7));
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
    }

    #[test]
    fn percentile_edge_cases_empty_and_singleton() {
        // Empty sample: total function, no panic, conventional 0.
        assert_eq!(percentile(&[], 0), 0);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[], 99), 0);
        // Singleton: every percentile is the sample (nearest rank of 1).
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(percentile(&[42], p), 42, "p{p}");
        }
    }

    #[test]
    fn rate_counting() {
        let mut r = Rate::default();
        assert_eq!(r.value(), None);
        r.record(true);
        r.record(true);
        r.record(false);
        assert_eq!(r.hits, 2);
        assert_eq!(r.total, 3);
        assert!(!r.is_perfect());
        assert!(r.render().starts_with("2/3"));
        let mut p = Rate::default();
        p.record(true);
        assert!(p.is_perfect());
    }
}
