//! Statistics over activation values.
//!
//! The conversion algorithm (paper §III-B, Algorithm 1) is driven entirely by
//! *empirical* statistics of DNN pre-activations: percentiles `P[0..=M]`
//! define the candidate α grid, and histograms/densities estimate the
//! pre-activation pdfs `f_D(d)` and `f_S(s)` used by the error model
//! (Eq. 6/7). This module provides those estimators.

use serde::{Deserialize, Serialize};

/// Summary moments of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
}

/// Computes [`Moments`] of a sample; all fields are 0 for an empty slice.
pub fn moments(values: &[f32]) -> Moments {
    if values.is_empty() {
        return Moments {
            count: 0,
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    Moments {
        count: values.len(),
        mean,
        std: var.sqrt(),
        min: values.iter().copied().fold(f32::INFINITY, f32::min),
        max: values.iter().copied().fold(f32::NEG_INFINITY, f32::max),
    }
}

/// The `q`-th percentile (0..=100) of `values` with linear interpolation,
/// matching the convention of NumPy's default.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 100]`.
pub fn percentile(values: &[f32], q: f32) -> f32 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile q={q} outside [0, 100]"
    );
    let mut sorted: Vec<f32> = values.to_vec();
    sort_ascending(&mut sorted);
    percentile_sorted(&sorted, q)
}

/// Sorts ascending for the percentile estimators. The sort is unstable:
/// the only elements the comparator calls equal yet differ in bits are
/// `+0.0` and `-0.0` (for NaN-free input), so a table built on it can
/// differ from a stably sorted one only in the sign of a zero entry.
fn sort_ascending(values: &mut [f32]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// [`percentile`] on data that is already sorted ascending (no copy).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f32], q: f32) -> f32 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile q={q} outside [0, 100]"
    );
    let rank = q / 100.0 * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The integer percentiles `P[0], P[1], …, P[100]` of a sample, sorted once.
///
/// Algorithm 1 indexes this table to build its candidate α grid.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile_table(values: &[f32]) -> Vec<f32> {
    assert!(!values.is_empty(), "percentile table of empty sample");
    let mut sorted: Vec<f32> = values.to_vec();
    sort_ascending(&mut sorted);
    (0..=100)
        .map(|i| percentile_sorted(&sorted, i as f32))
        .collect()
}

/// A fixed-range histogram used as a density estimate of pre-activations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub lo: f32,
    /// Exclusive upper edge of the last bin (values above are clamped in).
    pub hi: f32,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Total number of samples accumulated.
    pub total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            hi > lo,
            "histogram range must be non-empty (lo {lo}, hi {hi})"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f32 {
        (self.hi - self.lo) / self.counts.len() as f32
    }

    /// Index of the bin that owns `value`.
    ///
    /// Bins are half-open `[edge_i, edge_{i+1})` except the last, which is
    /// closed: `value == hi` (and anything beyond) lands in the final bin,
    /// mirroring how `value < lo` clamps to bin 0. This keeps every
    /// recorded sample inside the histogram rather than silently dropping
    /// the exact upper edge.
    fn bin_index(&self, value: f32) -> usize {
        let b = ((value - self.lo) / self.bin_width()).floor();
        (b.max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Accumulates one value; out-of-range values clamp to the edge bins
    /// (see [`Histogram::bin_index`] for the exact edge convention).
    pub fn record(&mut self, value: f32) {
        let idx = self.bin_index(value);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Accumulates every value of a slice.
    pub fn record_all(&mut self, values: &[f32]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Probability density estimate at bin centres: counts normalised so the
    /// histogram integrates to 1. Empty histogram returns zeros.
    pub fn density(&self) -> Vec<f32> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = 1.0 / (self.total as f32 * self.bin_width());
        self.counts.iter().map(|&c| c as f32 * norm).collect()
    }

    /// Fraction of recorded samples with value `< x` (piecewise-linear CDF).
    pub fn cdf(&self, x: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let pos = (x - self.lo) / self.bin_width();
        let full = (pos.floor() as usize).min(self.counts.len() - 1);
        let frac = pos - full as f32;
        let whole: u64 = self.counts[..full].iter().sum();
        let partial = self.counts[full] as f32 * frac;
        (whole as f32 + partial) / self.total as f32
    }

    /// Probability mass in `[a, b)` according to the piecewise-linear CDF.
    pub fn mass(&self, a: f32, b: f32) -> f32 {
        (self.cdf(b) - self.cdf(a)).max(0.0)
    }
}

/// Measures how skewed a non-negative sample is: the fraction of mass that
/// lies below `frac * max`. The paper observes >99 % of pre-activations lie
/// in `[0, d_max/3]` — this statistic quantifies that claim.
pub fn mass_below_fraction_of_max(values: &[f32], frac: f32) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let cut = max * frac;
    values.iter().filter(|&&v| v <= cut).count() as f32 / values.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sample() {
        let m = moments(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.count, 4);
        assert!((m.mean - 2.5).abs() < 1e-6);
        assert!((m.std - (1.25f32).sqrt()).abs() < 1e-6);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
    }

    #[test]
    fn moments_empty() {
        let m = moments(&[]);
        assert_eq!(m.count, 0);
        assert_eq!(m.mean, 0.0);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-6);
        assert!((percentile(&v, 75.0) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn percentile_table_is_monotone() {
        let v: Vec<f32> = (0..1000).map(|i| ((i * 37) % 991) as f32 * 0.01).collect();
        let table = percentile_table(&v);
        assert_eq!(table.len(), 101);
        for w in table.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record_all(&[0.05, 0.15, 0.15, 0.95, 0.5]);
        let total: f32 = h.density().iter().map(|d| d * h.bin_width()).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(7.0);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.total, 2);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 2.0, 20);
        h.record_all(&[0.1, 0.2, 0.3, 1.5, 1.9, 0.05, 0.06]);
        let mut prev = -1.0;
        for i in 0..=40 {
            let x = i as f32 * 0.05;
            let c = h.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(3.0), 1.0);
    }

    #[test]
    fn record_edge_convention() {
        // value == hi lands in the last (closed) bin; value < lo clamps to
        // bin 0; values beyond hi clamp to the last bin. Nothing recorded
        // is ever dropped.
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(1.0); // exact upper edge
        h.record(5.0); // beyond hi
        h.record(-3.0); // below lo
        h.record(0.25); // interior: second bin ([0.25, 0.5))
        assert_eq!(h.counts, vec![1, 1, 0, 2]);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn mass_of_interval() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        // All mass in [0.0, 0.1).
        for _ in 0..100 {
            h.record(0.05);
        }
        assert!((h.mass(0.0, 0.1) - 1.0).abs() < 1e-5);
        assert!(h.mass(0.5, 1.0) < 1e-6);
    }

    #[test]
    fn skew_statistic_detects_concentration() {
        // Exponential-ish sample concentrated near zero.
        let vals: Vec<f32> = (0..1000)
            .map(|i| (-(i as f32) / 100.0).exp() * 3.0)
            .collect();
        let s = mass_below_fraction_of_max(&vals, 1.0 / 3.0);
        assert!(s > 0.85, "expected heavy concentration, got {s}");
        // Uniform sample is not concentrated.
        let unif: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        let u = mass_below_fraction_of_max(&unif, 1.0 / 3.0);
        assert!((u - 0.334).abs() < 0.01, "uniform: got {u}");
    }
}
