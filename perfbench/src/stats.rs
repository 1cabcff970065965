//! Order statistics used by the metrics.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` (0 < q <= 100) of `v`.
pub fn percentile(v: &[f64], q: u32) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: u32) -> usize {
    (q as usize * n).div_ceil(100).clamp(1, n)
}

/// The tail percentile reported for `n` samples: the highest whole
/// percentile with at least ten samples beyond it, floored at the median
/// when fewer than twenty samples leave no such percentile.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99).rev().find(|&q| n >= 10 + rank(n, q)).unwrap_or(50)
}

/// Mean of `v`.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_gives_p90_at_100_steps_and_lower_at_fewer() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 89);
        assert_eq!(tail_percentile(60), 83);
        assert_eq!(tail_percentile(36), 72);
        assert_eq!(tail_percentile(1000), 99);
        for n in 20..100 {
            assert!(tail_percentile(n) < 90, "n={n}");
            let q = tail_percentile(n);
            assert!(n - rank(n, q) >= 10, "n={n} q={q}");
            if q < 99 {
                assert!(n - rank(n, q + 1) < 10, "n={n}: q+1 also qualifies");
            }
        }
        assert_eq!(tail_percentile(5), 50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
