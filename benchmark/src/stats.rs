//! Order statistics shared by the workloads and `--compare`.

/// Median of `xs` (mean of the two middle values for even counts); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks
/// (rank `p/100·(n−1)`); `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Geometric mean of strictly positive values; `NaN` when empty or when any
/// value is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed by `--compare`
/// match any external check written against that function. Needs at least
/// two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (0 when every value is
/// equal); `None` with fewer than two values or a zero median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs);
    if med == 0.0 {
        return (q3 == q1).then_some(0.0);
    }
    Some((q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        assert!((percentile(&[1.0, 2.0], 90.0) - 1.9).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        let s = spread(&xs).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
