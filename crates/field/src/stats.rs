//! Summary statistics and fixed-width histograms.
//!
//! The paper's entropy machinery is built on binned probability estimates
//! ("PDF comparisons were binned using a fixed bin size of 100 across all
//! datasets"); [`Histogram`] provides that estimator, and PDF-level
//! diagnostics (KL divergence, tail mass) are implemented over it.

use serde::{Deserialize, Serialize};

/// Streaming summary statistics (Welford's algorithm for mean/variance).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples observed.
    pub count: usize,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    mean: f64,
    m2: f64,
}

impl SummaryStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SummaryStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Computes statistics of a slice in one pass.
    pub fn of(data: &[f64]) -> Self {
        let mut s = SummaryStats::new();
        for &v in data {
            s.push(v);
        }
        s
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Merges another accumulator (parallel reduction support).
    pub fn merge(&mut self, other: &SummaryStats) {
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
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Fixed-width histogram over `[lo, hi]` with out-of-range values clamped to
/// the edge bins (the convention of `numpy.histogram` with explicit range).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` is not fixable (equal bounds are
    /// widened by a tiny epsilon so degenerate data still bins).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite"
        );
        let (lo, hi) = if hi > lo {
            (lo, hi)
        } else {
            (lo - 0.5, lo + 0.5)
        };
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Rebuilds a histogram from precomputed per-bin counts, e.g. after a
    /// parallel fold over partial count vectors. Equal bounds are widened
    /// exactly as in [`Histogram::new`].
    ///
    /// # Panics
    /// Panics if `counts` is empty or the bounds are not finite.
    pub fn from_counts(lo: f64, hi: f64, counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite"
        );
        let (lo, hi) = if hi > lo {
            (lo, hi)
        } else {
            (lo - 0.5, lo + 0.5)
        };
        let total = counts.iter().sum();
        Histogram {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Builds a histogram of `data` with `bins` bins spanning the data range.
    /// Empty or non-finite-only data produces an empty unit-range histogram.
    pub fn of(data: &[f64], bins: usize) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in data {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !lo.is_finite() {
            return Histogram::new(0.0, 1.0, bins);
        }
        let mut h = Histogram::new(lo, hi, bins);
        h.extend(data);
        h
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Returns true if no samples were added.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Bin index for value `v` (clamped to the edge bins).
    #[inline]
    pub fn bin_of(&self, v: f64) -> usize {
        sickle_simd::bin_index(v, self.lo, self.hi, self.bins())
    }

    /// Adds one sample (non-finite values are skipped).
    #[inline]
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            let b = self.bin_of(v);
            self.counts[b] += 1;
            self.total += 1;
        }
    }

    /// Adds many samples. Under the workspace [`sickle_simd::Kernel`] switch
    /// this routes through the vectorized bin-index kernel; counts are
    /// bit-identical to the scalar push loop for every input (including NaN,
    /// ±inf and out-of-range values).
    pub fn extend(&mut self, data: &[f64]) {
        self.extend_with(data, sickle_simd::kernel());
    }

    /// [`Self::extend`] with an explicit kernel choice (parity tests and
    /// benches; avoids racing on the global switch).
    #[doc(hidden)]
    pub fn extend_with(&mut self, data: &[f64], kernel: sickle_simd::Kernel) {
        match kernel {
            sickle_simd::Kernel::Naive => {
                for &v in data {
                    self.push(v);
                }
            }
            sickle_simd::Kernel::Optimized => {
                let bins = self.counts.len();
                // The fused kernel computes bin indices and accumulates the
                // banked counts in a single pass; the extra slot at `bins`
                // receives the non-finite values the scalar loop skips.
                // Integer addition commutes, so the merged counts are
                // bit-identical to the scalar push loop. The scratch lives
                // on the stack for the common per-cube call sizes, where a
                // heap allocation would be measurable.
                let mut small = [0u64; 257];
                let mut heap;
                let scratch: &mut [u64] = if bins < 257 {
                    &mut small[..=bins]
                } else {
                    heap = vec![0u64; bins + 1];
                    &mut heap
                };
                sickle_simd::bin_counts(data, self.lo, self.hi, bins, scratch);
                for (c, &p) in self.counts.iter_mut().zip(scratch.iter()) {
                    *c += p;
                }
                self.total += data.len() as u64 - scratch[bins];
            }
        }
    }

    /// Merges a histogram with identical binning.
    ///
    /// # Panics
    /// Panics if bounds or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins(), other.bins(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "bounds mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Normalized probability mass per bin (sums to 1; empty histogram gives
    /// a uniform distribution, matching the maximum-entropy prior).
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![1.0 / self.bins() as f64; self.bins()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Bin centers, for plotting/export.
    pub fn centers(&self) -> Vec<f64> {
        let b = self.bins();
        let w = (self.hi - self.lo) / b as f64;
        (0..b).map(|i| self.lo + (i as f64 + 0.5) * w).collect()
    }

    /// Fraction of mass in the extreme `tail_frac` of the value range on each
    /// side (e.g. 0.05 = outer 5% of the range at both ends). Used to score
    /// how well a sampling method covers distribution tails (paper Fig. 5).
    pub fn tail_mass(&self, tail_frac: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let b = self.bins();
        let k = ((b as f64 * tail_frac).ceil() as usize).clamp(1, (b / 2).max(1));
        let lo_mass: u64 = self.counts[..k].iter().sum();
        let hi_mass: u64 = self.counts[b - k..].iter().sum();
        (lo_mass + hi_mass) as f64 / self.total as f64
    }
}

/// Shannon entropy (nats) of a probability mass function; zero-probability
/// bins contribute nothing.
pub fn shannon_entropy(pmf: &[f64]) -> f64 {
    -pmf.iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

/// Kullback–Leibler divergence `D(p ‖ q)` in nats with additive smoothing of
/// `q` (so the divergence stays finite when `q` has empty bins), matching the
/// reference implementation's epsilon-regularized KL.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "pmf length mismatch");
    const EPS: f64 = 1e-12;
    let qs: f64 = q.iter().map(|&v| v + EPS).sum();
    p.iter()
        .zip(q.iter())
        .filter(|(&pi, _)| pi > 0.0)
        .map(|(&pi, &qi)| pi * (pi / ((qi + EPS) / qs)).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_matches_push() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut pushed = Histogram::new(-1.0, 1.0, 16);
        pushed.extend(&data);
        let rebuilt = Histogram::from_counts(-1.0, 1.0, pushed.counts.clone());
        assert_eq!(rebuilt.counts, pushed.counts);
        assert_eq!(rebuilt.total, pushed.total);
        assert_eq!(rebuilt.pmf(), pushed.pmf());
    }

    #[test]
    fn summary_stats_basic() {
        let s = SummaryStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn summary_stats_merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        let whole = SummaryStats::of(&data);
        let mut a = SummaryStats::of(&data[..37]);
        let b = SummaryStats::of(&data[37..]);
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
    }

    #[test]
    fn histogram_bins_uniform_data() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let h = Histogram::of(&data, 10);
        assert_eq!(h.total, 1000);
        for &c in &h.counts {
            assert!((c as i64 - 100).abs() <= 1, "bin count {c}");
        }
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(5.0);
        h.push(f64::NAN); // skipped
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.total, 2);
    }

    #[test]
    fn histogram_degenerate_range() {
        let h = Histogram::of(&[2.0, 2.0, 2.0], 5);
        assert_eq!(h.total, 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn pmf_sums_to_one() {
        let h = Histogram::of(&[1.0, 2.0, 2.0, 3.0], 3);
        let p = h.pmf();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let empty = Histogram::new(0.0, 1.0, 4);
        assert!((empty.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_maximized_by_uniform() {
        let uniform = vec![0.25; 4];
        let peaked = vec![0.97, 0.01, 0.01, 0.01];
        assert!(shannon_entropy(&uniform) > shannon_entropy(&peaked));
        assert!((shannon_entropy(&uniform) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(shannon_entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_divergence_properties() {
        let p = vec![0.5, 0.3, 0.2];
        let q = vec![0.1, 0.6, 0.3];
        assert!(kl_divergence(&p, &p) < 1e-9);
        assert!(kl_divergence(&p, &q) > 0.0);
        // Asymmetry in general.
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
    }

    #[test]
    fn kl_divergence_finite_with_empty_q_bins() {
        let p = vec![0.5, 0.5, 0.0];
        let q = vec![1.0, 0.0, 0.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn tail_mass_detects_heavy_tails() {
        // All mass at the extremes.
        let mut extreme = Histogram::new(0.0, 1.0, 100);
        for _ in 0..50 {
            extreme.push(0.001);
            extreme.push(0.999);
        }
        assert!((extreme.tail_mass(0.05) - 1.0).abs() < 1e-12);
        // All mass at the center.
        let mut central = Histogram::new(0.0, 1.0, 100);
        for _ in 0..100 {
            central.push(0.5);
        }
        assert_eq!(central.tail_mass(0.05), 0.0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.extend(&[0.1, 0.9]);
        let mut b = Histogram::new(0.0, 1.0, 4);
        b.extend(&[0.5]);
        a.merge(&b);
        assert_eq!(a.total, 3);
    }
}
