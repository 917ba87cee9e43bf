//! Order statistics shared by the run report and `compare`.

/// First quartile, median and third quartile of `v`, computed like
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method), so
/// numbers printed here match a script over the same values. A single
/// value is its own quartiles.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `v`.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values checked against `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
