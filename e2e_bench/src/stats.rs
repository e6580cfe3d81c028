//! Order statistics of timing samples.

/// The samples in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples; the mean of the two middle samples when their
/// number is even, as Python's `statistics.median` gives it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of all
/// samples at or below it, so `p = 0.8` of 50 samples leaves 10 beyond.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and the third quartile as a share of the
/// median — the run-to-run spread the benchmark's bounds are judged
/// against. `None` below two samples or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p80_of_fifty_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let p80 = percentile(&v, 0.8);
        assert_eq!(p80, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > p80).count(), 10);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&[9.0], 0.8), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
