//! Order statistics used for every reported timing.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method) — the rule the benchmark contract measures
/// spread with. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The tail statistic reported under the name `p99`: the 99th percentile
/// when at least ten samples lie beyond it, else the highest percentile
/// that still has ten samples beyond it. Below 100 samples that rule lands
/// under the 90th percentile, which is no tail at all, so the maximum is
/// reported instead. Returns `(percentile in 0..=100, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx99 = (n * 99).div_ceil(100) - 1;
    let idx = if n - 1 - idx99 >= 10 {
        idx99
    } else if n >= 100 {
        n - 11
    } else {
        n - 1
    };
    ((idx + 1) as f64 * 100.0 / n as f64, v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 10,000 samples: the true p99 has 100 samples beyond it.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 9_900.0));
        // 1,000 samples: p99 has exactly ten beyond — still allowed.
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 999 samples: p99 would leave nine beyond, so step down to the
        // sample with exactly ten beyond it.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let (pct, val) = tail(&v);
        assert_eq!(val, 989.0);
        assert!(pct < 99.0 && pct > 98.9);
        // 200 samples: p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        // 100 samples: p90 is the lowest tail the rule ever reports.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // Fewer than 100 samples: only the maximum is left.
        assert_eq!(tail(&[5.0, 9.0, 7.0]), (100.0, 9.0));
        assert_eq!(tail(&(1..=99).map(f64::from).collect::<Vec<_>>()).1, 99.0);
    }
}
