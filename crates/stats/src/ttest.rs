//! Student's t-tests.
//!
//! Table 2 of the paper reports full-program speedups only for workloads
//! where "a single-sided Student's T-test \[rejects\] a hypothesis of
//! full-program slowdown with 95+% probability". These helpers implement
//! that exact test: given per-trial baseline and accelerated run times, test
//! whether the speedup is significantly greater than zero.

use crate::special::student_t_cdf;
use crate::summary::Summary;

/// Result of a t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom used for the p-value.
    pub df: f64,
    /// One-sided p-value for the alternative "mean > hypothesised mean"
    /// (smaller means stronger evidence of speedup).
    pub p_greater: f64,
}

impl TTest {
    /// True if the one-sided test rejects the null at significance `alpha`
    /// (e.g. `0.05` for the paper's 95 % threshold).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_greater < alpha
    }
}

/// One-sample, one-sided t-test of `H0: mean == mu0` against
/// `H1: mean > mu0`.
///
/// This is the test the paper applies to per-trial speedup samples with
/// `mu0 = 0` ("reject a hypothesis of full-program slowdown").
///
/// Returns `None` when there are fewer than two samples or the sample
/// variance is zero (the statistic is undefined).
///
/// # Example
///
/// ```
/// use mallacc_stats::ttest::one_sample;
///
/// // Consistent ~0.5% speedups across trials.
/// let speedups = [0.45, 0.52, 0.48, 0.51, 0.49];
/// let t = one_sample(&speedups, 0.0).unwrap();
/// assert!(t.significant_at(0.05));
/// ```
pub fn one_sample(samples: &[f64], mu0: f64) -> Option<TTest> {
    if samples.len() < 2 {
        return None;
    }
    let s = Summary::from_iter(samples.iter().copied());
    let sd = s.sample_std_dev();
    if sd == 0.0 {
        return None;
    }
    let n = samples.len() as f64;
    let t = (s.mean() - mu0) / (sd / n.sqrt());
    let df = n - 1.0;
    Some(TTest {
        t,
        df,
        p_greater: 1.0 - student_t_cdf(t, df),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_few_samples() {
        assert_eq!(one_sample(&[1.0], 0.0), None);
    }

    #[test]
    fn zero_variance_is_undefined() {
        assert_eq!(one_sample(&[2.0, 2.0, 2.0], 0.0), None);
    }

    #[test]
    fn clear_positive_effect_is_significant() {
        let samples = [0.78, 0.74, 0.81, 0.77, 0.76];
        let t = one_sample(&samples, 0.0).unwrap();
        assert!(t.t > 10.0);
        assert!(t.p_greater < 0.001);
        assert!(t.significant_at(0.05));
    }

    #[test]
    fn noise_masks_small_effect() {
        // Mean 0.1 but stddev ~2: not significant — exactly the paper's
        // reason for excluding some workloads from Table 2.
        let samples = [2.0, -1.8, 0.3, -2.1, 2.2, -0.1];
        let t = one_sample(&samples, 0.0).unwrap();
        assert!(!t.significant_at(0.05));
    }

    #[test]
    fn one_sample_matches_reference() {
        // Data: mean 1.0, sd 1.0, n=4 → t = 2.0, df = 3.
        let samples = [0.0, 1.0, 1.0, 2.0];
        let s = Summary::from_iter(samples);
        assert!((s.mean() - 1.0).abs() < 1e-12);
        let t = one_sample(&samples, 0.0).unwrap();
        let expected_t = 1.0 / ((2.0f64 / 3.0).sqrt() / 2.0);
        assert!((t.t - expected_t).abs() < 1e-12);
        assert_eq!(t.df, 3.0);
        // p for t≈2.449, df=3 is ≈ 0.0459 (just under 0.05).
        assert!((t.p_greater - 0.0459).abs() < 2e-3, "p={}", t.p_greater);
    }
}
