//! Histograms over per-call cycle counts.
//!
//! The paper's distribution plots (Figures 1, 2, 15, 16) put *call duration in
//! cycles* on a log-scaled x axis and *time spent in calls* (not call count)
//! on the y axis. [`LogHistogram`] reproduces that: samples are binned by
//! `log2` of the cycle count with a fixed number of sub-bins per octave,
//! and each sample carries a weight (the cycles it contributes).

use std::sync::OnceLock;

/// One histogram bin: `[lo, hi)` with an accumulated weight and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Inclusive lower bound of the bin, in the sample's units.
    pub lo: f64,
    /// Exclusive upper bound of the bin.
    pub hi: f64,
    /// Sum of the weights of samples in the bin.
    pub weight: f64,
    /// Number of samples in the bin.
    pub count: u64,
}

impl Bin {
    /// Geometric midpoint of the bin, convenient for plotting on a log axis.
    pub fn mid(&self) -> f64 {
        (self.lo * self.hi).sqrt()
    }
}

/// Values below this bin by table lookup; their bins (at most 95) fit a
/// byte.
const SMALL_VALUES: usize = 4_096;

/// A logarithmically-binned, weighted histogram of `u64` samples.
///
/// # Example
///
/// ```
/// use mallacc_stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(20, 20.0);   // a 20-cycle fast-path call
/// h.record(20_000, 2e4); // a slow page-allocator call
/// let pdf = h.pdf_percent();
/// // Time-weighted: the slow call dominates.
/// assert!(pdf.last().unwrap().1 > 90.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Bin index -> (weight, count). Index is
    /// `floor(log2(x) * DEFAULT_BINS_PER_OCTAVE)`.
    bins: Vec<(f64, u64)>,
    total_weight: f64,
    total_count: u64,
}

impl LogHistogram {
    /// Sub-bins per factor-of-two octave: enough to resolve the paper's
    /// 18-vs-13-cycle fast-path shift.
    pub const DEFAULT_BINS_PER_OCTAVE: u32 = 8;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bin of `value`. Below [`SMALL_VALUES`] it is read from a table
    /// filled once, on first use, from [`LogHistogram::bin_by_log2`]
    /// itself, so both paths agree exactly; per-call cycle counts almost
    /// always land there.
    fn bin_index(value: u64) -> usize {
        static SMALL: OnceLock<[u8; SMALL_VALUES]> = OnceLock::new();
        if value >= SMALL_VALUES as u64 {
            return Self::bin_by_log2(value);
        }
        let table =
            SMALL.get_or_init(|| std::array::from_fn(|v| Self::bin_by_log2(v as u64) as u8));
        usize::from(table[value as usize])
    }

    /// `floor(log2(value) * DEFAULT_BINS_PER_OCTAVE)`, with 0 binned as 1.
    fn bin_by_log2(value: u64) -> usize {
        let v = value.max(1) as f64;
        (v.log2() * Self::DEFAULT_BINS_PER_OCTAVE as f64).floor() as usize
    }

    /// Records a sample `value` (e.g. a call's duration in cycles) with an
    /// associated `weight` (e.g. the same duration, to weight by time).
    pub fn record(&mut self, value: u64, weight: f64) {
        let idx = Self::bin_index(value);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, (0.0, 0));
        }
        self.bins[idx].0 += weight;
        self.bins[idx].1 += 1;
        self.total_weight += weight;
        self.total_count += 1;
    }

    /// Records `value` weighted by itself — the paper's "time in calls" view.
    pub fn record_time_weighted(&mut self, value: u64) {
        self.record(value, value as f64);
    }

    /// Sum of all recorded weights.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of recorded samples.
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), (0.0, 0));
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            dst.0 += src.0;
            dst.1 += src.1;
        }
        self.total_weight += other.total_weight;
        self.total_count += other.total_count;
    }

    /// Returns the non-empty bins in increasing order of value.
    pub fn bins(&self) -> Vec<Bin> {
        let k = Self::DEFAULT_BINS_PER_OCTAVE as f64;
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c > 0)
            .map(|(i, &(weight, count))| Bin {
                lo: 2f64.powf(i as f64 / k),
                hi: 2f64.powf((i + 1) as f64 / k),
                weight,
                count,
            })
            .collect()
    }

    /// PDF of weight per bin, in percent: `(bin midpoint, % of total weight)`.
    pub fn pdf_percent(&self) -> Vec<(f64, f64)> {
        if self.total_weight == 0.0 {
            return Vec::new();
        }
        self.bins()
            .into_iter()
            .map(|b| (b.mid(), 100.0 * b.weight / self.total_weight))
            .collect()
    }

    /// Fraction (0–1) of total weight contributed by samples `< threshold`.
    ///
    /// Bins straddling the threshold are apportioned by log-linear
    /// interpolation; the paper uses this to report e.g. "more than 60 % of
    /// malloc time is spent on calls that take less than 100 cycles".
    pub fn weight_fraction_below(&self, threshold: u64) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        let t = threshold.max(1) as f64;
        let mut acc = 0.0;
        for b in self.bins() {
            if b.hi <= t {
                acc += b.weight;
            } else if b.lo < t {
                let frac = (t.ln() - b.lo.ln()) / (b.hi.ln() - b.lo.ln());
                acc += b.weight * frac;
            }
        }
        acc / self.total_weight
    }

    /// Approximate weighted quantile: the upper edge of the first bin at or
    /// beyond cumulative fraction `q` (0–1) of the total weight.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_value(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total_weight == 0.0 {
            return None;
        }
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for b in self.bins() {
            acc += b.weight;
            if acc >= target - 1e-12 {
                return Some(b.hi);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bins_cover_sample() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 17, 100, 65_536] {
            h.record(v, 1.0);
            let b = h.bins();
            let covered = b
                .iter()
                .any(|bin| bin.lo <= v as f64 * 1.000001 && (v as f64) < bin.hi * 1.000001);
            assert!(covered, "sample {v} not covered by any bin: {b:?}");
        }
        assert_eq!(h.total_count(), 6);
    }

    #[test]
    fn pdf_sums_to_100() {
        let mut h = LogHistogram::new();
        for v in [18u64, 20, 22, 300, 4000, 120_000] {
            h.record_time_weighted(v);
        }
        let total: f64 = h.pdf_percent().iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weight_fraction_below_extremes() {
        let mut h = LogHistogram::new();
        h.record_time_weighted(10);
        h.record_time_weighted(10_000);
        assert_eq!(h.weight_fraction_below(1), 0.0);
        assert!((h.weight_fraction_below(1_000_000) - 1.0).abs() < 1e-12);
        // The 10k-cycle call carries ~99.9% of the time weight.
        let below100 = h.weight_fraction_below(100);
        assert!(below100 > 0.0 && below100 < 0.01, "got {below100}");
    }

    #[test]
    fn quantiles_follow_weight() {
        let mut h = LogHistogram::new();
        h.record(10, 90.0);
        h.record(1000, 10.0);
        let p50 = h.quantile_value(0.5).unwrap();
        assert!(p50 < 20.0, "median should sit in the heavy bin: {p50}");
        let p99 = h.quantile_value(0.99).unwrap();
        assert!(p99 > 500.0, "p99 should reach the tail: {p99}");
        assert_eq!(LogHistogram::new().quantile_value(0.5), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogHistogram::new();
        a.record(10, 1.0);
        let mut b = LogHistogram::new();
        b.record(10, 3.0);
        b.record(1000, 1.0);
        a.merge(&b);
        assert_eq!(a.total_count(), 3);
        assert!((a.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table_bins_equal_the_log2_expression() {
        for v in 0..SMALL_VALUES as u64 {
            assert_eq!(
                LogHistogram::bin_index(v),
                LogHistogram::bin_by_log2(v),
                "{v}"
            );
        }
        for k in 0..64 {
            let p = 1u64 << k;
            for v in [p - 1, p, p + 1] {
                assert_eq!(
                    LogHistogram::bin_index(v),
                    LogHistogram::bin_by_log2(v),
                    "{v}"
                );
            }
        }
        assert_eq!(
            LogHistogram::bin_index(u64::MAX),
            LogHistogram::bin_by_log2(u64::MAX)
        );
        assert_eq!(LogHistogram::bin_index(SMALL_VALUES as u64 - 1), 95);
    }

    #[test]
    fn zero_sample_goes_to_first_bin() {
        let mut h = LogHistogram::new();
        h.record(0, 1.0);
        assert_eq!(h.bins()[0].count, 1);
    }

    #[test]
    fn bin_midpoint_is_geometric() {
        let b = Bin {
            lo: 2.0,
            hi: 8.0,
            weight: 1.0,
            count: 1,
        };
        assert!((b.mid() - 4.0).abs() < 1e-12);
    }
}
