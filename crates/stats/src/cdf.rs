//! Exact empirical weighted CDFs.

/// An empirical, weighted cumulative distribution over `f64` samples.
///
/// Unlike [`crate::LogHistogram`], which bins, `Cdf` keeps every sample and
/// answers exact quantile queries. The reproduction uses it for the
/// per-call malloc latency tails (p50/p99/p999) of the multi-core and
/// fleet reports.
///
/// # Example
///
/// ```
/// use mallacc_stats::Cdf;
///
/// let mut cdf = Cdf::new();
/// cdf.record(1.0, 70.0);
/// cdf.record(2.0, 20.0);
/// cdf.record(3.0, 10.0);
/// assert_eq!(cdf.quantile(0.5), Some(1.0));
/// assert_eq!(cdf.quantile(0.95), Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    /// (value, weight) pairs; sorted lazily.
    samples: Vec<(f64, f64)>,
    sorted: bool,
    total_weight: f64,
}

impl Cdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample with the given non-negative weight.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or `weight` is negative/NaN.
    pub fn record(&mut self, value: f64, weight: f64) {
        assert!(!value.is_nan(), "NaN sample");
        assert!(weight >= 0.0, "negative weight {weight}");
        if weight == 0.0 {
            return;
        }
        self.samples.push((value, weight));
        self.total_weight += weight;
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN by construction"));
            self.sorted = true;
        }
    }

    /// Total recorded weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of recorded (non-zero-weight) samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest value `v` such that at least `q` (0–1) of the weight lies at
    /// or below `v`. Returns `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target - 1e-12 {
                return Some(v);
            }
        }
        self.samples.last().map(|&(v, _)| v)
    }

    /// The median: [`Cdf::quantile`] at 0.50. `None` if empty.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// The 99th percentile: the tail-latency headline number of
    /// datacenter SLOs. `None` if empty.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// The 99.9th percentile — the "killer microseconds" tail the fleet
    /// reports track per malloc call. `None` if empty.
    pub fn p999(&mut self) -> Option<f64> {
        self.quantile(0.999)
    }
}

impl FromIterator<(f64, f64)> for Cdf {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut c = Cdf::new();
        for (v, w) in iter {
            c.record(v, w);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn zero_weight_ignored() {
        let mut c = Cdf::new();
        c.record(5.0, 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn quantiles_on_weighted_data() {
        let mut c: Cdf = [(1.0, 70.0), (2.0, 20.0), (3.0, 10.0)]
            .into_iter()
            .collect();
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(0.7), Some(1.0));
        assert_eq!(c.quantile(0.71), Some(2.0));
        assert_eq!(c.quantile(0.9), Some(2.0));
        assert_eq!(c.quantile(0.91), Some(3.0));
        assert_eq!(c.quantile(1.0), Some(3.0));
    }

    #[test]
    fn tail_quantiles_use_exact_ranks() {
        // 1000 equally weighted distinct values 1..=1000. quantile(q)
        // returns the smallest v with at least q of the weight at or
        // below it, so the exact ranks are ceil(q * 1000).
        let mut c: Cdf = (1..=1000).map(|v| (v as f64, 1.0)).collect();
        assert_eq!(c.p50(), Some(500.0));
        assert_eq!(c.p99(), Some(990.0));
        assert_eq!(c.p999(), Some(999.0));
        assert_eq!(c.quantile(1.0), Some(1000.0));

        // With 10 samples, p99 and p999 both land on the last-rank value
        // (ceil(9.9) = ceil(9.99) = 10) — small samples saturate the tail.
        let mut small: Cdf = (1..=10).map(|v| (v as f64, 1.0)).collect();
        assert_eq!(small.p50(), Some(5.0));
        assert_eq!(small.p99(), Some(10.0));
        assert_eq!(small.p999(), Some(10.0));

        // Weighted: one heavy fast mode and a 0.5% slow tail. p50 stays
        // in the fast mode; p999 must surface the tail value.
        let mut w: Cdf = [(20.0, 99.5), (400.0, 0.5)].into_iter().collect();
        assert_eq!(w.p50(), Some(20.0));
        assert_eq!(w.p99(), Some(20.0));
        assert_eq!(w.p999(), Some(400.0));
        assert_eq!(Cdf::new().p999(), None);
    }

    #[test]
    fn records_after_query_resort() {
        let mut c = Cdf::new();
        c.record(5.0, 1.0);
        assert_eq!(c.quantile(1.0), Some(5.0));
        c.record(1.0, 3.0);
        assert_eq!(c.quantile(0.5), Some(1.0));
    }
}
