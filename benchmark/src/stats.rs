//! Timing statistics: the median and the tail percentile every timing in
//! the benchmark is reported with.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a timing series always has a sample.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a timing series, chosen by the "≥ 10 samples beyond" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic picked.
    pub value: f64,
    /// Its percentile in `[0, 100]`.
    pub percentile: f64,
    /// Number of samples in the series.
    pub samples: usize,
}

/// The highest percentile of `samples` that still has at least ten samples
/// beyond it. A series too short for that percentile to lie above the
/// median (fewer than 22 samples) has no tail evidence, and the upper
/// median is reported instead — never a "tail" below the median.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let idx = n.saturating_sub(11).max(n / 2);
    Tail {
        value: s[idx],
        percentile: if n > 1 {
            100.0 * idx as f64 / (n - 1) as f64
        } else {
            100.0
        },
        samples: n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistics of an empty series");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 0..99: index 89 has exactly ten samples (90..99) beyond.
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 89.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 100.0 * 89.0 / 99.0).abs() < 1e-12);
        // 22 samples is the shortest series whose rule index is the median's.
        let s: Vec<f64> = (0..22).map(f64::from).collect();
        assert_eq!(tail(&s).value, 11.0);
        let s: Vec<f64> = (0..23).map(f64::from).collect();
        assert_eq!(tail(&s).value, 12.0);
    }

    #[test]
    fn short_series_fall_back_to_the_upper_median() {
        let s: Vec<f64> = (0..16).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 8.0);
        assert!(t.value >= median(&s));
        assert_eq!(tail(&[5.0]).value, 5.0);
        assert_eq!(tail(&[5.0]).percentile, 100.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a: Vec<f64> = (0..50).map(f64::from).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(tail(&a), tail(&b));
        assert_eq!(median(&a), median(&b));
    }
}
