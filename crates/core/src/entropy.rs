//! Entropy machinery shared by both MaxEnt phases (paper §4.1, Eqs. 1–2).
//!
//! Given a clustering of items (points or hypercubes) and a scalar cluster
//! variable, we estimate each cluster's probability distribution `P(C_i)` by
//! binning, form the relative-entropy adjacency matrix
//! `A_ij = Σ P(C_i) log(P(C_i)/P(C_j))` (Eq. 2), and reduce it to node
//! strengths — the row sums. A cluster whose distribution diverges strongly
//! from the others carries rare, information-rich structure; sampling weight
//! proportional to strength preferentially retains those regions (the tails
//! in the paper's Fig. 5).

use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;
use sickle_field::stats::{kl_divergence, shannon_entropy};
use sickle_field::Histogram;
use sickle_simd::Kernel;

/// Points per parallel chunk in [`ClusterDistributions::estimate`].
const ESTIMATE_CHUNK: usize = 8192;

/// Per-cluster PDFs of a scalar variable over a common binning.
#[derive(Clone, Debug)]
pub struct ClusterDistributions {
    /// One PMF per cluster, all over the same `bins` bins.
    pub pmfs: Vec<Vec<f64>>,
    /// Number of members per cluster.
    pub sizes: Vec<usize>,
}

impl ClusterDistributions {
    /// Estimates per-cluster PMFs of `values` (parallel to `labels`) using a
    /// common `bins`-bin histogram over the global value range.
    ///
    /// The bin fill is rayon-parallel over fixed-size point chunks; each
    /// chunk folds into private `k × bins` integer counts and the partials
    /// are merged in chunk order, so the result is bit-identical to the
    /// serial loop regardless of thread count.
    ///
    /// # Panics
    /// Panics if `values.len() != labels.len()`, `k == 0`, or any label is
    /// `>= k`.
    pub fn estimate(values: &[f64], labels: &[usize], k: usize, bins: usize) -> Self {
        Self::estimate_with(values, labels, k, bins, sickle_simd::kernel())
    }

    /// [`Self::estimate`] with an explicit kernel choice (parity tests and
    /// benches; avoids racing on the global switch). The optimized path
    /// vectorizes the range scan and the bin-index computation; both are
    /// bit-identical to the scalar formulations, and the chunk-order merge
    /// is unchanged, so the result is bit-identical across kernels.
    #[doc(hidden)]
    pub fn estimate_with(
        values: &[f64],
        labels: &[usize],
        k: usize,
        bins: usize,
        kernel: Kernel,
    ) -> Self {
        assert_eq!(values.len(), labels.len(), "values/labels length mismatch");
        assert!(k > 0, "need at least one cluster");
        // Validate labels *before* the parallel region: a panic inside a
        // worker would hang the pool, and validating here keeps the hot
        // chunk loop assert-free.
        for &l in labels {
            assert!(l < k, "label {l} out of range for k = {k}");
        }
        // Global range for a shared binning. NaN-only (or empty) input falls
        // back to the unit range; `Histogram::new` widens a degenerate
        // min == max range, so binning is always well defined.
        let (lo, hi) = match kernel {
            Kernel::Naive => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &v in values {
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                if lo.is_finite() {
                    (lo, hi)
                } else {
                    (0.0, 1.0)
                }
            }
            Kernel::Optimized => sickle_simd::minmax_finite(values).unwrap_or((0.0, 1.0)),
        };
        // The template carries the (possibly widened) bounds so `bin_of`
        // matches `Histogram::push` semantics exactly.
        let template = Histogram::new(lo, hi, bins);
        let nchunks = values.len().div_ceil(ESTIMATE_CHUNK).max(1);
        let partials: Vec<(Vec<u64>, Vec<usize>)> = (0..nchunks)
            .into_par_iter()
            .map(|c| {
                let s = c * ESTIMATE_CHUNK;
                let e = (s + ESTIMATE_CHUNK).min(values.len());
                let mut counts = vec![0u64; k * bins];
                let mut sizes = vec![0usize; k];
                match kernel {
                    Kernel::Naive => {
                        for (&v, &l) in values[s..e].iter().zip(&labels[s..e]) {
                            // Sizes count every member; bins only finite
                            // values — the same split `push` makes.
                            sizes[l] += 1;
                            if v.is_finite() {
                                counts[l * bins + template.bin_of(v)] += 1;
                            }
                        }
                    }
                    Kernel::Optimized => {
                        // Vectorized binning; the u32::MAX sentinel marks
                        // non-finite values, which count toward sizes but
                        // not bins — the same split the scalar loop makes.
                        let mut idx = vec![0u32; e - s];
                        sickle_simd::bin_indices(
                            &values[s..e],
                            template.lo,
                            template.hi,
                            bins,
                            &mut idx,
                        );
                        for (&b, &l) in idx.iter().zip(&labels[s..e]) {
                            sizes[l] += 1;
                            if b != u32::MAX {
                                counts[l * bins + b as usize] += 1;
                            }
                        }
                    }
                }
                (counts, sizes)
            })
            .collect();
        let mut counts = vec![0u64; k * bins];
        let mut sizes = vec![0usize; k];
        for (pc, ps) in &partials {
            for (c, &p) in counts.iter_mut().zip(pc) {
                *c += p;
            }
            for (s, &p) in sizes.iter_mut().zip(ps) {
                *s += p;
            }
        }
        Self::from_counts(&template, &counts, sizes)
    }

    /// The PMFs of per-cluster bin counts (`k × bins`, row-major) over
    /// `template`'s range; `sizes` counts every member, binned or not.
    pub(crate) fn from_counts(template: &Histogram, counts: &[u64], sizes: Vec<usize>) -> Self {
        let pmfs = counts
            .chunks_exact(template.bins())
            .map(|row| Histogram::from_counts(template.lo, template.hi, row.to_vec()).pmf())
            .collect();
        ClusterDistributions { pmfs, sizes }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.pmfs.len()
    }

    /// True if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.pmfs.is_empty()
    }

    /// Shannon entropy of each cluster's PMF.
    pub fn entropies(&self) -> Vec<f64> {
        self.pmfs.iter().map(|p| shannon_entropy(p)).collect()
    }
}

/// The KL adjacency matrix of Eq. 2: `A[i][j] = D(P_i ‖ P_j)`, with
/// `A[i][i] = 0`.
#[allow(clippy::needless_range_loop)] // i/j index two parallel structures
pub fn adjacency_matrix(dists: &ClusterDistributions) -> Vec<Vec<f64>> {
    let k = dists.len();
    let mut a = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in 0..k {
            if i != j {
                a[i][j] = kl_divergence(&dists.pmfs[i], &dists.pmfs[j]);
            }
        }
    }
    a
}

/// Node strengths: row sums of the adjacency matrix. A high-strength node's
/// distribution diverges most from the rest of the dataset.
pub fn node_strengths(adjacency: &[Vec<f64>]) -> Vec<f64> {
    adjacency.iter().map(|row| row.iter().sum()).collect()
}

/// Converts strengths to sampling weights with a temperature exponent:
/// `w_i ∝ strength_i^τ` (τ = 1 reproduces the paper; τ = 0 degrades to
/// uniform — the ablation knob in DESIGN.md §5). Degenerate all-zero
/// strengths fall back to uniform weights.
pub fn strength_weights(strengths: &[f64], temperature: f64) -> Vec<f64> {
    let raw: Vec<f64> = strengths
        .iter()
        .map(|&s| if s > 0.0 { s.powf(temperature) } else { 0.0 })
        .collect();
    let total: f64 = raw.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return vec![1.0 / strengths.len() as f64; strengths.len()];
    }
    raw.iter().map(|&w| w / total).collect()
}

/// Weighted sampling of `count` distinct indices in `0..weights.len()`
/// without replacement (sequential weighted reservoir via repeated draws with
/// removal — exact, deterministic under the RNG).
///
/// # Panics
/// Panics if `count > weights.len()`.
pub fn weighted_sample_without_replacement(
    weights: &[f64],
    count: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    assert!(
        count <= weights.len(),
        "cannot draw {count} from {}",
        weights.len()
    );
    let mut w: Vec<f64> = weights.iter().map(|&x| x.max(0.0)).collect();
    let mut taken = vec![false; w.len()];
    let mut picked = Vec::with_capacity(count);
    for _ in 0..count {
        let total: f64 = w.iter().sum();
        let idx = if total <= 0.0 {
            // Remaining weight exhausted (zero-weight items left): take the
            // first unpicked index deterministically.
            taken
                .iter()
                .position(|&t| !t)
                .expect("count <= len guarantees a free slot")
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = None;
            for (i, &wi) in w.iter().enumerate() {
                if wi <= 0.0 {
                    continue;
                }
                target -= wi;
                if target <= 0.0 {
                    pick = Some(i);
                    break;
                }
            }
            // Rounding may leave target slightly positive after the loop;
            // fall back to the last positive-weight index.
            pick.unwrap_or_else(|| {
                w.iter()
                    .rposition(|&wi| wi > 0.0)
                    .expect("total > 0 implies a positive weight")
            })
        };
        picked.push(idx);
        taken[idx] = true;
        w[idx] = 0.0;
    }
    picked
}

/// Allocates an integer `budget` across clusters proportionally to
/// `weights`, clamped by per-cluster capacities; leftover budget is
/// redistributed greedily to clusters with remaining capacity in weight
/// order. Returns per-cluster allocations summing to
/// `min(budget, Σ capacities)`.
pub fn allocate_budget(weights: &[f64], capacities: &[usize], budget: usize) -> Vec<usize> {
    assert_eq!(
        weights.len(),
        capacities.len(),
        "weights/capacities length mismatch"
    );
    let k = weights.len();
    let mut alloc = vec![0usize; k];
    if k == 0 {
        return alloc;
    }
    let wsum: f64 = weights.iter().sum();
    let weights: Vec<f64> = if wsum <= 0.0 {
        vec![1.0 / k as f64; k]
    } else {
        weights.iter().map(|&w| w / wsum).collect()
    };
    // First pass: floor of the proportional share, capped by capacity.
    for i in 0..k {
        alloc[i] = ((budget as f64 * weights[i]).floor() as usize).min(capacities[i]);
    }
    // Redistribute the remainder by descending weight among non-full.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let total_cap: usize = capacities.iter().sum();
    let target = budget.min(total_cap);
    let mut assigned: usize = alloc.iter().sum();
    'outer: while assigned < target {
        let mut progressed = false;
        for &i in &order {
            if assigned >= target {
                break 'outer;
            }
            if alloc[i] < capacities[i] {
                alloc[i] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cluster_distributions_respect_labels() {
        let values = vec![0.0, 0.1, 0.9, 1.0];
        let labels = vec![0, 0, 1, 1];
        let d = ClusterDistributions::estimate(&values, &labels, 2, 10);
        assert_eq!(d.sizes, vec![2, 2]);
        // Cluster 0 mass in low bins, cluster 1 in high bins.
        let low0: f64 = d.pmfs[0][..5].iter().sum();
        let high1: f64 = d.pmfs[1][5..].iter().sum();
        assert!((low0 - 1.0).abs() < 1e-12);
        assert!((high1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_kernels_bit_identical() {
        // Enough points to span several ESTIMATE_CHUNKs, with non-finite
        // values sprinkled in: PMFs and sizes must agree bit for bit.
        let mut values: Vec<f64> = (0..20000).map(|i| (i as f64 * 0.013).sin() * 5.0).collect();
        values[7] = f64::NAN;
        values[100] = f64::INFINITY;
        values[9001] = f64::NEG_INFINITY;
        let labels: Vec<usize> = (0..values.len()).map(|i| i % 5).collect();
        let a = ClusterDistributions::estimate_with(&values, &labels, 5, 64, Kernel::Naive);
        let b = ClusterDistributions::estimate_with(&values, &labels, 5, 64, Kernel::Optimized);
        assert_eq!(a.sizes, b.sizes);
        for (pa, pb) in a.pmfs.iter().zip(&b.pmfs) {
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn estimate_degenerate_range_is_guarded() {
        // min == max: Histogram::new widens the bounds, everything lands in
        // a single bin, and both kernels agree.
        let values = vec![2.5; 64];
        let labels = vec![0usize; 64];
        for kernel in [Kernel::Naive, Kernel::Optimized] {
            let d = ClusterDistributions::estimate_with(&values, &labels, 1, 8, kernel);
            assert_eq!(d.sizes, vec![64]);
            assert!((d.pmfs[0].iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert_eq!(d.pmfs[0].iter().filter(|&&p| p > 0.0).count(), 1);
        }
    }

    #[test]
    fn estimate_all_nan_input_is_guarded() {
        // No finite value: the range falls back to [0, 1]; sizes still count
        // every member, and the empty histogram degrades to the uniform
        // maximum-entropy prior.
        let nan = vec![f64::NAN; 10];
        let labels = vec![0usize; 10];
        for kernel in [Kernel::Naive, Kernel::Optimized] {
            let d = ClusterDistributions::estimate_with(&nan, &labels, 1, 4, kernel);
            assert_eq!(d.sizes, vec![10]);
            assert!(
                d.pmfs[0].iter().all(|&p| (p - 0.25).abs() < 1e-12),
                "{:?}",
                d.pmfs[0]
            );
        }
    }

    #[test]
    fn adjacency_zero_diagonal_nonnegative() {
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let d = ClusterDistributions::estimate(&values, &labels, 3, 10);
        let a = adjacency_matrix(&d);
        for (i, row) in a.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert!(v >= -1e-12, "A[{i}][{j}] = {v}");
            }
        }
    }

    #[test]
    fn outlier_cluster_has_highest_strength() {
        // Two near-identical clusters and one far-away one: the outlier's
        // distribution diverges most -> highest node strength.
        let mut values = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            values.push((i % 10) as f64 * 0.01);
            labels.push(0);
            values.push((i % 10) as f64 * 0.01 + 0.005);
            labels.push(1);
            values.push(10.0 + (i % 10) as f64 * 0.01);
            labels.push(2);
        }
        let d = ClusterDistributions::estimate(&values, &labels, 3, 50);
        let s = node_strengths(&adjacency_matrix(&d));
        assert!(s[2] > s[0] && s[2] > s[1], "strengths {s:?}");
    }

    #[test]
    fn strength_weights_normalize_and_temper() {
        let s = vec![1.0, 3.0];
        let w1 = strength_weights(&s, 1.0);
        assert!((w1.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w1[1] - 0.75).abs() < 1e-12);
        let w0 = strength_weights(&s, 0.0);
        assert!((w0[0] - 0.5).abs() < 1e-12);
        let wz = strength_weights(&[0.0, 0.0], 1.0);
        assert_eq!(wz, vec![0.5, 0.5]);
    }

    #[test]
    fn weighted_sampling_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let picks = weighted_sample_without_replacement(&w, 5, &mut rng);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn weighted_sampling_prefers_heavy_weights() {
        let mut heavy_first = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = vec![0.01, 0.01, 10.0, 0.01];
            let p = weighted_sample_without_replacement(&w, 1, &mut rng);
            if p[0] == 2 {
                heavy_first += 1;
            }
        }
        assert!(heavy_first > 180, "heavy index drawn {heavy_first}/200");
    }

    #[test]
    fn budget_allocation_sums_and_respects_caps() {
        let w = vec![0.7, 0.2, 0.1];
        let caps = vec![100, 100, 2];
        let a = allocate_budget(&w, &caps, 50);
        assert_eq!(a.iter().sum::<usize>(), 50);
        assert!(a[2] <= 2);
        assert!(a[0] > a[1]);
    }

    #[test]
    fn budget_allocation_clamps_to_capacity() {
        let a = allocate_budget(&[0.5, 0.5], &[3, 4], 100);
        assert_eq!(a, vec![3, 4]);
    }

    #[test]
    fn budget_allocation_zero_weights_uniform() {
        let a = allocate_budget(&[0.0, 0.0, 0.0], &[10, 10, 10], 9);
        assert_eq!(a.iter().sum::<usize>(), 9);
        assert!(a.iter().all(|&x| x == 3));
    }

    #[test]
    fn entropies_ordering() {
        let values = vec![0.0, 0.0, 0.0, 0.0, 0.1, 0.5, 0.9, 1.0];
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let d = ClusterDistributions::estimate(&values, &labels, 2, 10);
        let e = d.entropies();
        assert!(
            e[1] > e[0],
            "spread cluster should have higher entropy: {e:?}"
        );
    }
}
