//! Phase-2 point samplers (paper §4, Fig. 3 right panel).
//!
//! Every sampler answers the same question: *given the feature rows of one
//! hypercube and a point budget, which rows are retained?* The trait-object
//! design mirrors the reference framework's "pluggable architecture that
//! makes it easy to integrate other sampling strategies".

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sickle_field::FeatureMatrix;

use crate::entropy::{
    adjacency_matrix, allocate_budget, node_strengths, strength_weights, ClusterDistributions,
};
use crate::kmeans::{KMeans, KMeansConfig};

/// A strategy for selecting point rows within a hypercube.
pub trait PointSampler: Send + Sync {
    /// Short name used in configs and result tables (e.g. `"maxent"`).
    fn name(&self) -> &'static str;

    /// Selects up to `budget` distinct row indices from `features`.
    ///
    /// `cluster_col` is the column index of the K-means cluster variable
    /// (ignored by methods that don't cluster). Implementations must return
    /// distinct indices, each `< features.len()`, and must return all rows
    /// when `budget >= features.len()`.
    fn select(
        &self,
        features: &FeatureMatrix,
        cluster_col: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize>;
}

/// Keep every point — the paper's `Xfull` dense baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullSampler;

impl PointSampler for FullSampler {
    fn name(&self) -> &'static str {
        "full"
    }

    fn select(
        &self,
        features: &FeatureMatrix,
        _c: usize,
        _budget: usize,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
        (0..features.len()).collect()
    }
}

/// Uniform random sampling without replacement (`Xrandom`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomSampler;

impl PointSampler for RandomSampler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(
        &self,
        features: &FeatureMatrix,
        _c: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let n = features.len();
        if budget >= n {
            return (0..n).collect();
        }
        rand::seq::index::sample(rng, n, budget).into_vec()
    }
}

/// Latin-hypercube-style selection (`Xlhs`): equal-width bins along every
/// feature dimension; points are accepted greedily when they occupy
/// previously unfilled bins, spreading coverage across the whole feature
/// range in each dimension.
#[derive(Clone, Copy, Debug, Default)]
pub struct LhsSampler;

impl PointSampler for LhsSampler {
    fn name(&self) -> &'static str {
        "lhs"
    }

    fn select(
        &self,
        features: &FeatureMatrix,
        _c: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let n = features.len();
        if budget >= n {
            return (0..n).collect();
        }
        if budget == 0 {
            return Vec::new();
        }
        let d = features.dim();
        let (mins, maxs) = features.column_ranges();
        let bin_of = |v: f64, j: usize| -> usize {
            let span = maxs[j] - mins[j];
            if span <= 0.0 {
                0
            } else {
                (((v - mins[j]) / span * budget as f64) as usize).min(budget - 1)
            }
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut filled = vec![vec![false; budget]; d];
        let mut picked = Vec::with_capacity(budget);
        let mut taken = vec![false; n];
        // Pass 1: strict — all of the point's bins must be free.
        for &i in &order {
            if picked.len() >= budget {
                break;
            }
            let row = features.row(i);
            if row
                .iter()
                .enumerate()
                .all(|(j, &v)| !filled[j][bin_of(v, j)])
            {
                for (j, &v) in row.iter().enumerate() {
                    filled[j][bin_of(v, j)] = true;
                }
                taken[i] = true;
                picked.push(i);
            }
        }
        // Pass 2: relaxed — at least one free bin.
        for &i in &order {
            if picked.len() >= budget {
                break;
            }
            if taken[i] {
                continue;
            }
            let row = features.row(i);
            if row
                .iter()
                .enumerate()
                .any(|(j, &v)| !filled[j][bin_of(v, j)])
            {
                for (j, &v) in row.iter().enumerate() {
                    filled[j][bin_of(v, j)] = true;
                }
                taken[i] = true;
                picked.push(i);
            }
        }
        // Pass 3: random fill.
        for &i in &order {
            if picked.len() >= budget {
                break;
            }
            if !taken[i] {
                taken[i] = true;
                picked.push(i);
            }
        }
        picked
    }
}

/// Quantile-stratified sampling on the cluster variable (`Xstratified`):
/// equal-count strata, equal budget per stratum.
#[derive(Clone, Copy, Debug)]
pub struct StratifiedSampler {
    /// Number of quantile strata.
    pub strata: usize,
}

impl Default for StratifiedSampler {
    fn default() -> Self {
        StratifiedSampler { strata: 10 }
    }
}

impl PointSampler for StratifiedSampler {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn select(
        &self,
        features: &FeatureMatrix,
        cluster_col: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let n = features.len();
        if budget >= n {
            return (0..n).collect();
        }
        if budget == 0 || n == 0 {
            return Vec::new();
        }
        let strata = self.strata.max(1).min(n);
        let values = features.column(cluster_col);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Equal-count strata boundaries over the sorted order.
        let weights = vec![1.0 / strata as f64; strata];
        let caps: Vec<usize> = (0..strata)
            .map(|s| {
                let start = s * n / strata;
                let end = (s + 1) * n / strata;
                end - start
            })
            .collect();
        let alloc = allocate_budget(&weights, &caps, budget);
        let mut picked = Vec::with_capacity(budget);
        for (s, &take) in alloc.iter().enumerate() {
            let start = s * n / strata;
            let end = (s + 1) * n / strata;
            let members = &order[start..end];
            let chosen = rand::seq::index::sample(rng, members.len(), take.min(members.len()));
            picked.extend(chosen.into_iter().map(|j| members[j]));
        }
        picked
    }
}

/// Maximum-entropy point selection (`Xmaxent`, paper §4.1 phase 2):
/// mini-batch k-means on the cluster variable, per-cluster PDFs, KL
/// adjacency, node strengths, and strength-weighted budget allocation with
/// uniform draws inside each cluster.
#[derive(Clone, Copy, Debug)]
pub struct MaxEntSampler {
    /// Number of clusters (the paper uses 5–20 depending on dataset).
    pub num_clusters: usize,
    /// Histogram bins for the per-cluster PDFs (paper fixes 100).
    pub bins: usize,
    /// Strength temperature τ (1 = paper behaviour).
    pub temperature: f64,
    /// Mini-batch k-means configuration knobs.
    pub batch_size: usize,
    /// K-means iterations.
    pub iterations: usize,
}

impl Default for MaxEntSampler {
    fn default() -> Self {
        MaxEntSampler {
            num_clusters: 20,
            bins: 100,
            temperature: 1.0,
            batch_size: 1024,
            iterations: 30,
        }
    }
}

impl PointSampler for MaxEntSampler {
    fn name(&self) -> &'static str {
        "maxent"
    }

    fn select(
        &self,
        features: &FeatureMatrix,
        cluster_col: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        use rand::Rng;
        let n = features.len();
        if budget >= n {
            return (0..n).collect();
        }
        if budget == 0 || n == 0 {
            return Vec::new();
        }
        let values = features.column(cluster_col);
        let km = KMeans::fit(
            &values,
            1,
            &KMeansConfig {
                k: self.num_clusters,
                batch_size: self.batch_size,
                iterations: self.iterations,
                seed: rng.gen(),
            },
        );
        let labels = km.assign(&values);
        let dists = ClusterDistributions::estimate(&values, &labels, km.k, self.bins);
        let strengths = node_strengths(&adjacency_matrix(&dists));
        let weights = strength_weights(&strengths, self.temperature);
        let alloc = allocate_budget(&weights, &dists.sizes, budget);

        // Group member indices per cluster, then draw uniformly within each.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); km.k];
        for (i, &l) in labels.iter().enumerate() {
            members[l].push(i);
        }
        let mut picked = Vec::with_capacity(budget);
        for (c, &take) in alloc.iter().enumerate() {
            let m = &members[c];
            let take = take.min(m.len());
            let chosen = rand::seq::index::sample(rng, m.len(), take);
            picked.extend(chosen.into_iter().map(|j| m[j]));
        }
        picked
    }
}

/// Validates a sampler result against the trait contract; shared by tests
/// and property tests.
pub fn validate_selection(indices: &[usize], n: usize, budget: usize) {
    assert!(indices.len() <= n);
    if budget >= n {
        assert_eq!(
            indices.len(),
            n,
            "must return all rows when budget covers them"
        );
    }
    let mut seen = vec![false; n];
    for &i in indices {
        assert!(i < n, "index {i} out of range {n}");
        assert!(!seen[i], "duplicate index {i}");
        seen[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Bimodal 1D features: a dense blob at 0 and a rare tail at 10.
    fn bimodal(n: usize, tail_frac: f64) -> FeatureMatrix {
        let tail = (n as f64 * tail_frac) as usize;
        let mut data = Vec::with_capacity(n);
        for i in 0..n - tail {
            data.push((i % 100) as f64 * 0.001);
        }
        for i in 0..tail {
            data.push(10.0 + (i % 10) as f64 * 0.01);
        }
        FeatureMatrix::new(vec!["q".into()], data)
    }

    fn all_samplers() -> Vec<Box<dyn PointSampler>> {
        vec![
            Box::new(FullSampler),
            Box::new(RandomSampler),
            Box::new(LhsSampler),
            Box::new(StratifiedSampler::default()),
            Box::new(MaxEntSampler {
                num_clusters: 5,
                bins: 50,
                ..Default::default()
            }),
        ]
    }

    #[test]
    fn all_samplers_satisfy_contract() {
        let features = bimodal(500, 0.05);
        for s in all_samplers() {
            for &budget in &[0usize, 1, 50, 499, 500, 1000] {
                let mut rng = StdRng::seed_from_u64(1);
                let idx = s.select(&features, 0, budget, &mut rng);
                if s.name() == "full" {
                    assert_eq!(idx.len(), 500);
                } else {
                    validate_selection(&idx, 500, budget);
                    assert_eq!(idx.len(), budget.min(500), "{} budget {budget}", s.name());
                }
            }
        }
    }

    #[test]
    fn maxent_overweights_rare_tail() {
        // 5% of the data is a far-away tail; MaxEnt should retain a much
        // larger tail share than random does at a 10% budget.
        let n = 2000;
        let features = bimodal(n, 0.05);
        let budget = n / 10;
        let tail_lo = 5.0;
        let count_tail = |idx: &[usize]| {
            idx.iter()
                .filter(|&&i| features.row(i)[0] > tail_lo)
                .count() as f64
                / idx.len() as f64
        };
        let mut maxent_frac = 0.0;
        let mut random_frac = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = MaxEntSampler {
                num_clusters: 5,
                bins: 50,
                ..Default::default()
            }
            .select(&features, 0, budget, &mut rng);
            maxent_frac += count_tail(&m);
            let mut rng = StdRng::seed_from_u64(seed);
            let r = RandomSampler.select(&features, 0, budget, &mut rng);
            random_frac += count_tail(&r);
        }
        maxent_frac /= 5.0;
        random_frac /= 5.0;
        assert!(
            maxent_frac > 2.0 * random_frac,
            "maxent tail {maxent_frac:.3} vs random tail {random_frac:.3}"
        );
    }

    #[test]
    fn stratified_covers_all_quantiles() {
        let features = bimodal(1000, 0.10);
        let mut rng = StdRng::seed_from_u64(2);
        let idx = StratifiedSampler { strata: 10 }.select(&features, 0, 100, &mut rng);
        // Tail points occupy the top decile; stratified must include some.
        let tail = idx.iter().filter(|&&i| features.row(i)[0] > 5.0).count();
        assert!(tail >= 5, "stratified picked {tail} tail points");
    }

    #[test]
    fn lhs_spreads_across_range() {
        let features = bimodal(1000, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let idx = LhsSampler.select(&features, 0, 20, &mut rng);
        let vals: Vec<f64> = idx.iter().map(|&i| features.row(i)[0]).collect();
        let low = vals.iter().filter(|&&v| v < 5.0).count();
        let high = vals.iter().filter(|&&v| v >= 5.0).count();
        assert!(
            low > 0 && high > 0,
            "LHS must cover both modes: {low}/{high}"
        );
    }

    #[test]
    fn random_is_unbiased_on_average() {
        let n = 1000;
        let features = bimodal(n, 0.10);
        let mut total_tail = 0.0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = RandomSampler.select(&features, 0, 100, &mut rng);
            total_tail += idx.iter().filter(|&&i| features.row(i)[0] > 5.0).count() as f64;
        }
        let mean_tail = total_tail / 20.0;
        assert!(
            (mean_tail - 10.0).abs() < 4.0,
            "mean tail picks {mean_tail}"
        );
    }

    #[test]
    fn maxent_handles_constant_data() {
        let features = FeatureMatrix::new(vec!["q".into()], vec![1.0; 100]);
        let mut rng = StdRng::seed_from_u64(4);
        let idx = MaxEntSampler::default().select(&features, 0, 10, &mut rng);
        validate_selection(&idx, 100, 10);
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn sampler_names_are_distinct() {
        let names: Vec<&str> = all_samplers().iter().map(|s| s.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
