//! Mini-batch k-means clustering.
//!
//! The reference SICKLE uses scikit-learn's `MiniBatchKMeans` "for efficient
//! clustering" of terabyte-scale data. This is a from-scratch Rust port of
//! the same algorithm (Sculley 2010): k-means++-style seeding on a subsample,
//! then per-batch assignment and per-center counted gradient updates.
//!
//! A fit runs serially on the calling thread and allocates its buffers once:
//! the sampling pipeline fits one model per hypercube from inside its
//! parallel cube loop, and that loop is the parallel level. Every
//! nearest-centroid search — the mini-batch assignments, [`KMeans::assign`],
//! [`KMeans::assign_one`] and [`KMeans::inertia`] — is
//! [`sickle_simd::nearest_centroid`], which returns exactly the serial
//! search's labels and distances under either kernel. The seeding updates
//! each pool row's distance to its nearest chosen centroid and their sum in
//! one pass per new centroid. Neither the RNG draws nor any floating-point
//! operation's order differs from the textbook serial loops, so a fit's
//! centroids are the same bits on any thread count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sickle_simd::{nearest_centroid_with, Kernel};

/// Mini-batch k-means configuration.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of mini-batch iterations.
    pub iterations: usize,
    /// RNG seed (the whole fit is deterministic under it).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 20,
            batch_size: 1024,
            iterations: 50,
            seed: 0,
        }
    }
}

/// A fitted k-means model.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Row-major `k x d` centroid matrix.
    pub centroids: Vec<f64>,
    /// Feature dimension.
    pub dim: usize,
    /// Number of clusters actually fitted (`min(k, distinct points)`).
    pub k: usize,
}

/// Squared Euclidean distance, summed in feature order (the search
/// kernel's formula).
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl KMeans {
    /// Fits mini-batch k-means to row-major `data` (`n x dim`).
    ///
    /// If there are fewer points than clusters, `k` is reduced to `n`.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `data` is empty, or `data.len()` is not a
    /// multiple of `dim`.
    pub fn fit(data: &[f64], dim: usize, cfg: &KMeansConfig) -> Self {
        Self::fit_with(data, dim, cfg, sickle_simd::kernel())
    }

    /// [`Self::fit`] with an explicit kernel for its searches (the parity
    /// tests run both without racing on the global switch).
    fn fit_with(data: &[f64], dim: usize, cfg: &KMeansConfig, kernel: Kernel) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(!data.is_empty(), "cannot cluster an empty dataset");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        let n = data.len() / dim;
        let k = cfg.k.min(n).max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // --- k-means++ seeding (on a capped subsample for large n). ---
        // The pool's rows, contiguous: the data itself, or the sampled rows
        // gathered once.
        let gathered: Vec<f64>;
        let pool: &[f64] = if n > 16 * cfg.batch_size {
            gathered = (0..16 * cfg.batch_size)
                .flat_map(|_| {
                    let i = rng.gen_range(0..n);
                    &data[i * dim..(i + 1) * dim]
                })
                .copied()
                .collect();
            &gathered
        } else {
            data
        };
        let m = pool.len() / dim;
        let row = |j: usize| &pool[j * dim..(j + 1) * dim];
        let mut centroids = Vec::with_capacity(k * dim);
        centroids.extend_from_slice(row(rng.gen_range(0..m)));
        // `d2[j]`: squared distance from pool row `j` to its nearest chosen
        // centroid, and `total` their sum in row order, kept in one pass.
        let mut total = 0.0;
        let mut d2: Vec<f64> = pool
            .chunks_exact(dim)
            .map(|x| {
                let d = sq_dist(x, &centroids);
                total += d;
                d
            })
            .collect();
        for c in 1..k {
            let next = if total <= 0.0 {
                rng.gen_range(0..m)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut pick = m - 1;
                for (j, &d) in d2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        pick = j;
                        break;
                    }
                }
                pick
            };
            centroids.extend_from_slice(row(next));
            let newc = &centroids[c * dim..(c + 1) * dim];
            total = 0.0;
            for (d, x) in d2.iter_mut().zip(pool.chunks_exact(dim)) {
                let e = sq_dist(x, newc);
                *d = if e < *d { e } else { *d };
                total += *d;
            }
        }

        // --- Mini-batch updates. ---
        // A batch is the whole data in order when it fits. Otherwise the
        // running index order is reshuffled in full and its first
        // `batch_size` rows are gathered into `rows`: a partial shuffle
        // would draw fewer numbers and pick other rows.
        let shuffled = n > cfg.batch_size;
        let take = n.min(cfg.batch_size);
        let mut order: Vec<usize> = if shuffled {
            (0..n).collect()
        } else {
            Vec::new()
        };
        let mut rows = vec![0.0; if shuffled { take * dim } else { 0 }];
        let mut labels = vec![0usize; take];
        let mut counts = vec![0u64; k];
        for _ in 0..cfg.iterations {
            let batch: &[f64] = if shuffled {
                order.shuffle(&mut rng);
                for (dst, &i) in rows.chunks_exact_mut(dim).zip(&order[..take]) {
                    dst.copy_from_slice(&data[i * dim..(i + 1) * dim]);
                }
                &rows
            } else {
                data
            };
            nearest_centroid_with(batch, dim, &centroids, &mut labels, None, kernel);
            // Sequential counted update (order-stable => deterministic).
            for (row, &c) in batch.chunks_exact(dim).zip(&labels) {
                counts[c] += 1;
                let eta = 1.0 / counts[c] as f64;
                let cent = &mut centroids[c * dim..(c + 1) * dim];
                for (cv, &rv) in cent.iter_mut().zip(row) {
                    *cv += eta * (rv - *cv);
                }
            }
        }
        KMeans { centroids, dim, k }
    }

    /// Each row's nearest centroid and, when `dists` is given, its squared
    /// distance to it.
    fn search(&self, data: &[f64], labels: &mut [usize], dists: Option<&mut [f64]>) {
        sickle_simd::nearest_centroid(data, self.dim, &self.centroids, labels, dists);
    }

    /// Assigns every row of `data` to its nearest centroid.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the fitted dimension.
    pub fn assign(&self, data: &[f64]) -> Vec<usize> {
        let mut labels = vec![0; data.len() / self.dim];
        self.search(data, &mut labels, None);
        labels
    }

    /// Assigns one row, returning `(cluster, squared_distance)`.
    pub fn assign_one(&self, row: &[f64]) -> (usize, f64) {
        let (mut label, mut dist) = ([0], [0.0]);
        self.search(row, &mut label, Some(&mut dist));
        (label[0], dist[0])
    }

    /// Mean squared distance of each point to its assigned centroid
    /// (the k-means inertia / n).
    pub fn inertia(&self, data: &[f64]) -> f64 {
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let mut labels = vec![0; n];
        let mut dists = vec![0.0; n];
        self.search(data, &mut labels, Some(&mut dists));
        dists.iter().sum::<f64>() / n as f64
    }

    /// Centroid `c` as a slice.
    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2D blobs.
    fn blobs() -> (Vec<f64>, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 5.0)];
        let mut data = Vec::new();
        let mut truth = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let c = rng.gen_range(0..3);
            let (cx, cy) = centers[c];
            data.push(cx + rng.gen::<f64>() - 0.5);
            data.push(cy + rng.gen::<f64>() - 0.5);
            truth.push(c);
        }
        (data, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs();
        let km = KMeans::fit(
            &data,
            2,
            &KMeansConfig {
                k: 3,
                batch_size: 64,
                iterations: 60,
                seed: 1,
            },
        );
        let labels = km.assign(&data);
        // Every true cluster must map to exactly one k-means label.
        for t in 0..3 {
            let mut seen = std::collections::HashSet::new();
            for (l, &tr) in labels.iter().zip(&truth) {
                if tr == t {
                    seen.insert(*l);
                }
            }
            assert_eq!(seen.len(), 1, "true blob {t} split across labels {seen:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, _) = blobs();
        let cfg = KMeansConfig {
            k: 3,
            batch_size: 64,
            iterations: 30,
            seed: 5,
        };
        let a = KMeans::fit(&data, 2, &cfg);
        let b = KMeans::fit(&data, 2, &cfg);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_clamped_to_sample_count() {
        let data = vec![1.0, 2.0, 3.0]; // three 1D points
        let km = KMeans::fit(
            &data,
            1,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
        );
        assert_eq!(km.k, 3);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = blobs();
        let i1 = KMeans::fit(
            &data,
            2,
            &KMeansConfig {
                k: 1,
                iterations: 30,
                ..Default::default()
            },
        )
        .inertia(&data);
        let i3 = KMeans::fit(
            &data,
            2,
            &KMeansConfig {
                k: 3,
                iterations: 30,
                ..Default::default()
            },
        )
        .inertia(&data);
        assert!(i3 < i1 * 0.2, "inertia k=1 {i1} vs k=3 {i3}");
    }

    #[test]
    fn assign_one_matches_assign() {
        let (data, _) = blobs();
        let km = KMeans::fit(
            &data,
            2,
            &KMeansConfig {
                k: 3,
                iterations: 20,
                ..Default::default()
            },
        );
        let labels = km.assign(&data);
        for (i, &l) in labels.iter().enumerate().step_by(17) {
            assert_eq!(km.assign_one(&data[i * 2..i * 2 + 2]).0, l);
        }
    }

    #[test]
    fn single_point_dataset() {
        let km = KMeans::fit(&[5.0, 5.0], 2, &KMeansConfig::default());
        assert_eq!(km.k, 1);
        assert_eq!(km.assign(&[1.0, 1.0]), vec![0]);
    }

    #[test]
    fn identical_points_dont_crash() {
        let data = vec![2.0; 100]; // 100 identical 1D points
        let km = KMeans::fit(
            &data,
            1,
            &KMeansConfig {
                k: 5,
                ..Default::default()
            },
        );
        let labels = km.assign(&data);
        assert!(labels.iter().all(|&l| l < km.k));
        assert!(km.inertia(&data) < 1e-20);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_data() {
        let _ = KMeans::fit(&[], 2, &KMeansConfig::default());
    }

    // --- The fit as it was before the shared search kernel, kept as the
    // reference the equivalence properties below hold the fit to. ---

    fn reference_sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn reference_nearest(centroids: &[f64], dim: usize, k: usize, row: &[f64]) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for c in 0..k {
            let d = reference_sq_dist(row, &centroids[c * dim..(c + 1) * dim]);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    fn reference_fit(data: &[f64], dim: usize, cfg: &KMeansConfig) -> KMeans {
        use rayon::prelude::*;
        let n = data.len() / dim;
        let k = cfg.k.min(n).max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let seed_pool: Vec<usize> = if n > 16 * cfg.batch_size {
            (0..16 * cfg.batch_size)
                .map(|_| rng.gen_range(0..n))
                .collect()
        } else {
            (0..n).collect()
        };
        let mut centroids = Vec::with_capacity(k * dim);
        let first = seed_pool[rng.gen_range(0..seed_pool.len())];
        centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
        let mut d2: Vec<f64> = seed_pool
            .iter()
            .map(|&i| reference_sq_dist(&data[i * dim..(i + 1) * dim], &centroids[..dim]))
            .collect();
        for c in 1..k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                seed_pool[rng.gen_range(0..seed_pool.len())]
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut pick = seed_pool[seed_pool.len() - 1];
                for (j, &i) in seed_pool.iter().enumerate() {
                    target -= d2[j];
                    if target <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            centroids.extend_from_slice(&data[next * dim..(next + 1) * dim]);
            let newc = &centroids[c * dim..(c + 1) * dim];
            for (j, &i) in seed_pool.iter().enumerate() {
                let nd = reference_sq_dist(&data[i * dim..(i + 1) * dim], newc);
                if nd < d2[j] {
                    d2[j] = nd;
                }
            }
        }
        let mut counts = vec![0u64; k];
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.iterations {
            let batch: Vec<usize> = if n <= cfg.batch_size {
                indices.clone()
            } else {
                indices.shuffle(&mut rng);
                indices[..cfg.batch_size].to_vec()
            };
            let assign: Vec<usize> = batch
                .par_iter()
                .map(|&i| reference_nearest(&centroids, dim, k, &data[i * dim..(i + 1) * dim]).0)
                .collect();
            for (&i, &c) in batch.iter().zip(assign.iter()) {
                counts[c] += 1;
                let eta = 1.0 / counts[c] as f64;
                let row = &data[i * dim..(i + 1) * dim];
                let cent = &mut centroids[c * dim..(c + 1) * dim];
                for (cv, &rv) in cent.iter_mut().zip(row) {
                    *cv += eta * (rv - *cv);
                }
            }
        }
        KMeans { centroids, dim, k }
    }

    /// `n` rows of `dim` features in one of four flavours: continuous
    /// values; three distinct rows repeated (fewer than most `k`); values
    /// laced with NaN, ±inf and signed zeros; continuous values with one
    /// huge outlier row.
    fn rows(flavour: usize, n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let palette: Vec<f64> = (0..3 * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut data: Vec<f64> = (0..n * dim)
            .map(|i| match flavour {
                1 => palette[(i / dim) % 3 * dim + i % dim],
                2 => match rng.gen_range(0..12) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    _ => rng.gen_range(-3.0..3.0),
                },
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect();
        if flavour == 3 {
            for v in &mut data[..dim] {
                *v = 1e12;
            }
        }
        data
    }

    /// Bitwise equality, except that any NaN equals any NaN: Rust leaves a
    /// NaN result's sign and payload unspecified, so two compilations of one
    /// formula may differ there and nowhere else.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The fit ≡ the pre-kernel fit: bitwise-equal centroids and labels
        /// under both kernels, for one- and four-feature rows, at every
        /// batch boundary (`n` of 1, `k − 1`, `batch`, `batch + 1` and 4096
        /// rows), including `k` above the number of distinct rows and rows
        /// holding NaN and ±inf.
        #[test]
        fn fit_matches_the_reference_bit_for_bit(
            (k, batch, iterations, seed, flavour) in
                (2usize..=24, 8usize..=96, 1usize..=12, 0u64..1 << 40, 0usize..4)
        ) {
            for dim in [1, 4] {
                for n in [1, k - 1, batch, batch + 1, 4096] {
                    let data = rows(flavour, n, dim, seed ^ n as u64);
                    let cfg = KMeansConfig { k, batch_size: batch, iterations, seed };
                    let want = reference_fit(&data, dim, &cfg);
                    let want_labels: Vec<usize> = data
                        .chunks(dim)
                        .map(|r| reference_nearest(&want.centroids, dim, want.k, r).0)
                        .collect();
                    for kernel in [Kernel::Naive, Kernel::Optimized] {
                        let got = KMeans::fit_with(&data, dim, &cfg, kernel);
                        proptest::prop_assert_eq!(got.k, want.k);
                        proptest::prop_assert!(
                            same_bits(&got.centroids, &want.centroids),
                            "{kernel:?} dim {dim} n {n}: {:?} vs {:?}",
                            got.centroids,
                            want.centroids
                        );
                        let mut labels = vec![0; n];
                        nearest_centroid_with(&data, dim, &got.centroids, &mut labels, None, kernel);
                        proptest::prop_assert_eq!(&labels, &want_labels);
                    }
                    proptest::prop_assert_eq!(&KMeans::fit(&data, dim, &cfg).assign(&data), &want_labels);
                }
            }
        }

        /// The seeding subsample (more than 16 batches of rows) draws the
        /// same pool and picks the same rows.
        #[test]
        fn subsampled_seeding_matches_the_reference(
            (k, seed, flavour) in (2usize..=12, 0u64..1 << 40, 0usize..4)
        ) {
            let (dim, batch) = (4, 8);
            let data = rows(flavour, 16 * batch + 37, dim, seed);
            let cfg = KMeansConfig { k, batch_size: batch, iterations: 3, seed };
            let want = reference_fit(&data, dim, &cfg);
            let got = KMeans::fit(&data, dim, &cfg);
            proptest::prop_assert!(same_bits(&got.centroids, &want.centroids));
        }
    }

    #[test]
    fn assign_one_and_inertia_match_the_reference() {
        for flavour in 0..4 {
            let data = rows(flavour, 300, 2, 17 + flavour as u64);
            let km = KMeans::fit(
                &data,
                2,
                &KMeansConfig {
                    k: 6,
                    batch_size: 64,
                    iterations: 10,
                    seed: 3,
                },
            );
            let mut total = 0.0;
            for row in data.chunks(2) {
                let (l, d) = km.assign_one(row);
                let (want_l, want_d) = reference_nearest(&km.centroids, 2, km.k, row);
                assert_eq!((l, d.to_bits()), (want_l, want_d.to_bits()));
                total += d;
            }
            assert_eq!(km.inertia(&data).to_bits(), (total / 300.0).to_bits());
        }
    }
}
