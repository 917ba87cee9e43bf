//! Scalar sample summaries: mean, variance, standard deviation, extrema —
//! plus [`Breakdown`], an integer cycle decomposition whose rendered
//! percentages always derive from the same integer counts as its totals.

use crate::json::Json;

/// Running summary of a set of `f64` samples.
///
/// Uses Welford's online algorithm so that variance is numerically stable
/// even for long runs of near-identical cycle counts (exactly what repeated
/// fast-path malloc calls produce).
///
/// # Example
///
/// ```
/// use mallacc_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Builds a summary from an iterator of samples (also available via
    /// the [`FromIterator`] impl; this inherent form reads better at call
    /// sites that pass arrays).
    ///
    /// # Example
    ///
    /// ```
    /// let s = mallacc_stats::Summary::from_iter([1.0, 3.0]);
    /// assert_eq!(s.count(), 2);
    /// ```
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.record(x);
        }
        s
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean. Returns 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased (n−1) sample variance. Returns 0 with fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary::from_iter(iter)
    }
}

/// A labelled integer cycle breakdown.
///
/// Tables and JSON reports both read the *same* integer counts, and every
/// derived value (total, fraction, percentage) is computed from those
/// integers on demand — so a table can never show percentages that drift
/// from the JSON dataset, and `sum(parts) == total()` holds by
/// construction.
///
/// # Example
///
/// ```
/// use mallacc_stats::Breakdown;
///
/// let b = Breakdown::from_parts([("memory", 15u64), ("execute", 5)]);
/// assert_eq!(b.total(), 20);
/// assert_eq!(b.fraction(0), 0.75);
/// assert_eq!(b.pct(0), "75.0%");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Breakdown {
    parts: Vec<(String, u64)>,
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a breakdown from `(label, cycles)` pairs.
    pub fn from_parts<L, I>(parts: I) -> Self
    where
        L: Into<String>,
        I: IntoIterator<Item = (L, u64)>,
    {
        let mut b = Self::new();
        for (label, cycles) in parts {
            b.push(label, cycles);
        }
        b
    }

    /// Appends one part. Labels are kept in insertion order; pushing an
    /// existing label adds to its count instead of duplicating it.
    pub fn push(&mut self, label: impl Into<String>, cycles: u64) {
        let label = label.into();
        if let Some(p) = self.parts.iter_mut().find(|(l, _)| *l == label) {
            p.1 += cycles;
        } else {
            self.parts.push((label, cycles));
        }
    }

    /// The `(label, cycles)` parts in insertion order.
    pub fn parts(&self) -> &[(String, u64)] {
        &self.parts
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no part has been pushed.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total cycles: the exact integer sum of every part.
    pub fn total(&self) -> u64 {
        self.parts.iter().map(|(_, c)| c).sum()
    }

    /// Integer cycles of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cycles(&self, i: usize) -> u64 {
        self.parts[i].1
    }

    /// Integer cycles of the part named `label`, if present.
    pub fn cycles_of(&self, label: &str) -> Option<u64> {
        self.parts.iter().find(|(l, _)| l == label).map(|(_, c)| *c)
    }

    /// Fraction of the total held by part `i`, derived from the integer
    /// counts (0 when the total is 0).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.parts[i].1 as f64 / total as f64
        }
    }

    /// Part `i` as a rendered percentage string (one decimal), derived
    /// from the same integers as [`Breakdown::total`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pct(&self, i: usize) -> String {
        crate::table::pct(self.fraction(i))
    }

    /// The breakdown as a JSON object: every part by label (integer
    /// cycles) plus a `"total"` field carrying the integer sum — the same
    /// numbers any table rendering uses.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .parts
            .iter()
            .map(|(l, c)| (l.clone(), Json::from(*c)))
            .collect();
        fields.push(("total".to_string(), Json::from(self.total())));
        Json::Obj(fields)
    }
}

/// Geometric mean of strictly positive values.
///
/// The paper summarises per-workload speedups with a geomean row
/// (Figures 13 and 14); this helper mirrors that.
///
/// Returns `None` if the input is empty or contains a non-positive value.
///
/// # Example
///
/// ```
/// let g = mallacc_stats::geometric_mean([1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        if v <= 0.0 {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_inert() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_iter([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn variance_matches_definition() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_iter(data);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0, 10.5];
        let b_data = [4.0, 5.5, -2.0];
        let mut merged = Summary::from_iter(a_data);
        merged.merge(&Summary::from_iter(b_data));
        let all = Summary::from_iter(a_data.into_iter().chain(b_data));
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_iter([1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean([]), None);
        assert_eq!(geometric_mean([1.0, -1.0]), None);
        assert_eq!(geometric_mean([0.0]), None);
        let g = geometric_mean([2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_conserves_total() {
        // The conservation law: the total IS the sum of the integer parts,
        // with no separately-maintained counter to drift from.
        let b = Breakdown::from_parts([
            ("base", 7u64),
            ("memory", 11),
            ("execute", 3),
            ("frontend", 0),
        ]);
        assert_eq!(b.total(), b.parts().iter().map(|(_, c)| c).sum::<u64>());
        assert_eq!(b.total(), 21);
        // Fractions derive from the same integers, so they sum to 1.
        let sum: f64 = (0..b.len()).map(|i| b.fraction(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_table_and_json_read_the_same_integers() {
        let b = Breakdown::from_parts([("memory", 2u64), ("execute", 1)]);
        let j = b.to_json();
        assert_eq!(j.get("memory").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(j.get("total").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(b.pct(0), "66.7%");
        assert_eq!(b.cycles_of("execute"), Some(1));
        assert_eq!(b.cycles_of("missing"), None);
    }

    #[test]
    fn breakdown_merges_duplicate_labels() {
        let mut b = Breakdown::new();
        b.push("memory", 5);
        b.push("memory", 3);
        assert_eq!(b.len(), 1);
        assert_eq!(b.total(), 8);
    }

    #[test]
    fn empty_breakdown_is_inert() {
        let b = Breakdown::new();
        assert!(b.is_empty());
        assert_eq!(b.total(), 0);
        assert_eq!(b.to_json().get("total").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn extend_and_from_iterator_impls() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }
}
