//! Phase-1 hypercube selection (paper §4.1, "Hmaxent" / "Hrandom").
//!
//! The domain is tiled into hypercubes (32³ in the paper); this module
//! decides *which* cubes survive. `Hrandom` draws uniformly. `Hmaxent`
//! summarizes each cube by statistics of the cluster variable, clusters the
//! summaries with mini-batch k-means, estimates per-cluster PDFs, builds the
//! KL adjacency matrix and node strengths (Eqs. 1–2), and draws cubes with
//! probability proportional to their cluster's strength — cubes that live in
//! distributionally rare regions of the flow are preferentially retained.

use rand::rngs::StdRng;
use rand::seq::index::sample as uniform_sample;
use rand::Rng;
use rayon::prelude::*;
use sickle_field::{Histogram, Snapshot, SummaryStats, Tiling};
use sickle_simd::{bin_counts, minmax_finite};

use crate::entropy::{
    adjacency_matrix, node_strengths, strength_weights, weighted_sample_without_replacement,
    ClusterDistributions,
};
use crate::kmeans::{KMeans, KMeansConfig};

/// Cubes one thread summarises side by side in
/// [`HypercubeSelector::cube_summaries`].
const LOCKSTEP: usize = 4;

/// Strategy for choosing which hypercubes to keep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HypercubeSelector {
    /// Uniform random cube selection (`Hrandom`).
    Random,
    /// Maximum-entropy weighted selection (`Hmaxent`).
    MaxEnt {
        /// Number of k-means clusters over cube summaries.
        num_clusters: usize,
        /// Histogram bins for per-cluster PDFs.
        bins: usize,
        /// Strength temperature τ (1 = paper behaviour).
        temperature: f64,
    },
}

impl HypercubeSelector {
    /// The default MaxEnt selector used by the paper's configs.
    pub fn maxent_default() -> Self {
        HypercubeSelector::MaxEnt {
            num_clusters: 8,
            bins: 64,
            temperature: 1.0,
        }
    }

    /// Config-file name (`"random"` / `"maxent"`).
    pub fn name(&self) -> &'static str {
        match self {
            HypercubeSelector::Random => "random",
            HypercubeSelector::MaxEnt { .. } => "maxent",
        }
    }

    /// Per-cube summary rows `[mean, std, min, max]` of `cluster_var`,
    /// computed in parallel over cubes — the feature space the MaxEnt path
    /// clusters.
    ///
    /// Each cube's points are pushed in cube order, as one serial
    /// accumulator would. A push waits on a divide for the running mean, so
    /// a thread steps [`LOCKSTEP`] cubes together: their chains are
    /// independent and overlap. Every cube has the same shape, so its
    /// points sit at the same offsets from its first point.
    pub fn cube_summaries(tiling: &Tiling, snap: &Snapshot, cluster_var: &str) -> Vec<f64> {
        let data = snap.expect_var(cluster_var);
        let grid = tiling.grid;
        let ez = tiling.edges.2;
        let first = |t: usize| {
            let (x, y, z) = tiling.tile(t).origin;
            grid.idx(x, y, z)
        };
        let runs: Vec<usize> = tiling.tile(0).runs(&grid).map(|r| r.start).collect();
        (0..tiling.len().div_ceil(LOCKSTEP))
            .into_par_iter()
            .flat_map_iter(|g| {
                let cubes = g * LOCKSTEP..((g + 1) * LOCKSTEP).min(tiling.len());
                let shifts: Vec<usize> = cubes.map(|t| first(t) - first(0)).collect();
                let mut stats = vec![SummaryStats::new(); shifts.len()];
                for &start in &runs {
                    for i in start..start + ez {
                        for (s, &shift) in stats.iter_mut().zip(&shifts) {
                            s.push(data[i + shift]);
                        }
                    }
                }
                stats
                    .into_iter()
                    .flat_map(|s| [s.mean(), s.std(), s.min, s.max])
            })
            .collect()
    }

    /// Selects `count` distinct tile ids from the tiling.
    ///
    /// # Panics
    /// Panics if `count > tiling.len()`.
    pub fn select(
        &self,
        tiling: &Tiling,
        snap: &Snapshot,
        cluster_var: &str,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let total = tiling.len();
        assert!(
            count <= total,
            "cannot select {count} of {total} hypercubes"
        );
        if count == total {
            return (0..total).collect();
        }
        match *self {
            HypercubeSelector::Random => uniform_sample(rng, total, count).into_vec(),
            HypercubeSelector::MaxEnt {
                num_clusters,
                bins,
                temperature,
            } => {
                let summaries = Self::cube_summaries(tiling, snap, cluster_var);
                let km = KMeans::fit(
                    &summaries,
                    4,
                    &KMeansConfig {
                        k: num_clusters,
                        batch_size: 1024,
                        iterations: 30,
                        seed: rng.gen(),
                    },
                );
                let labels = km.assign(&summaries);
                // Cluster PDFs over the *raw point values* of the cluster
                // variable, pooled across each cluster's member cubes — the
                // paper's "computing probability distributions" step. This
                // captures shape differences (e.g. a high-variance cube with
                // zero mean) that cube-level summaries alone would miss.
                let data = snap.expect_var(cluster_var);
                let dists = tile_distributions(tiling, data, &labels, km.k, bins);
                let strengths = node_strengths(&adjacency_matrix(&dists));
                let cluster_w = strength_weights(&strengths, temperature);
                // Cube weight: its cluster's weight shared across member
                // cubes, so a rare 2-cube cluster outweighs a common 50-cube
                // one per cube.
                let mut cubes_per_cluster = vec![0usize; km.k];
                for &l in &labels {
                    cubes_per_cluster[l] += 1;
                }
                let cube_w: Vec<f64> = labels
                    .iter()
                    .map(|&l| cluster_w[l] / cubes_per_cluster[l].max(1) as f64)
                    .collect();
                weighted_sample_without_replacement(&cube_w, count, rng)
            }
        }
    }
}

/// Per-cluster PDFs of `data` over every point of every tile, each tile's
/// points pooled into its cluster `labels[t]`: what
/// [`ClusterDistributions::estimate`] makes of the tiles' points gathered
/// into one list, without that snapshot-sized gather. Two passes, each
/// parallel over tiles: the finite value range, then each tile's bin counts,
/// summed into its cluster's. A pass copies one tile's contiguous `z`-runs
/// into a per-thread buffer (32 KB for 16³) and makes one kernel call on
/// it. Finite min/max and integer counts do not depend on the order they are
/// taken in, so the result is bit-identical to the estimate over the
/// gathered points. (Only the sign of a zero range end can differ, and no
/// bin or PMF depends on it.) Points outside every tile are in neither pass.
fn tile_distributions(
    tiling: &Tiling,
    data: &[f64],
    labels: &[usize],
    k: usize,
    bins: usize,
) -> ClusterDistributions {
    let fill = |values: &mut Vec<f64>, t: usize| {
        values.clear();
        for run in tiling.tile(t).runs(&tiling.grid) {
            values.extend_from_slice(&data[run]);
        }
    };
    let mut ranges = vec![None; tiling.len()];
    ranges
        .par_iter_mut()
        .enumerate()
        .for_each_init(Vec::new, |values, (t, range)| {
            fill(values, t);
            *range = minmax_finite(values);
        });
    let (lo, hi) = ranges
        .into_iter()
        .flatten()
        .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
        .unwrap_or((0.0, 1.0));
    let template = Histogram::new(lo, hi, bins);
    // Row `t` holds tile `t`'s bin counts; its slot `bins` takes the tile's
    // non-finite values, members of the cluster in no bin.
    let mut tile_counts = vec![0u64; tiling.len() * (bins + 1)];
    tile_counts
        .par_chunks_mut(bins + 1)
        .enumerate()
        .for_each_init(Vec::new, |values, (t, counts)| {
            fill(values, t);
            bin_counts(values, template.lo, template.hi, bins, counts);
        });
    let (ex, ey, ez) = tiling.edges;
    let mut counts = vec![0u64; k * bins];
    let mut sizes = vec![0usize; k];
    for (tile, &l) in tile_counts.chunks_exact(bins + 1).zip(labels) {
        sizes[l] += ex * ey * ez;
        for (c, &n) in counts[l * bins..(l + 1) * bins].iter_mut().zip(tile) {
            *c += n;
        }
    }
    ClusterDistributions::from_counts(&template, &counts, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sickle_field::{Grid3, Tiling};

    /// A field that is zero everywhere except an extreme "hot" corner
    /// occupying exactly one tile.
    fn hotspot_snapshot(n: usize, tile: usize) -> (Snapshot, Tiling) {
        let grid = Grid3::new(n, n, n, 1.0, 1.0, 1.0);
        let mut q = vec![0.0; grid.len()];
        for x in 0..tile {
            for y in 0..tile {
                for z in 0..tile {
                    // Alternating extreme values -> high variance + outlier
                    // distribution in the hot cube.
                    q[grid.idx(x, y, z)] = if (x + y + z) % 2 == 0 { 50.0 } else { -50.0 };
                }
            }
        }
        // Mild noise elsewhere so clustering has something to chew on.
        for (i, v) in q.iter_mut().enumerate() {
            if *v == 0.0 {
                *v = ((i * 2654435761) % 97) as f64 * 1e-4;
            }
        }
        let snap = Snapshot::new(grid, 0.0).with_var("q", q);
        let tiling = Tiling::cubic(grid, tile);
        (snap, tiling)
    }

    #[test]
    fn random_selects_distinct_cubes() {
        let (snap, tiling) = hotspot_snapshot(16, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = HypercubeSelector::Random.select(&tiling, &snap, "q", 10, &mut rng);
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&t| t < tiling.len()));
    }

    #[test]
    fn maxent_prefers_the_hotspot_cube() {
        let (snap, tiling) = hotspot_snapshot(16, 4);
        // Hot cube is tile (0,0,0) = id 0. Over many seeds, MaxEnt should
        // include it far more often than the 4/64 random baseline.
        let mut hits = 0;
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = HypercubeSelector::maxent_default().select(&tiling, &snap, "q", 4, &mut rng);
            if sel.contains(&0) {
                hits += 1;
            }
        }
        assert!(hits >= 24, "hotspot cube selected only {hits}/30 times");
    }

    #[test]
    fn selecting_all_returns_identity() {
        let (snap, tiling) = hotspot_snapshot(8, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let sel =
            HypercubeSelector::maxent_default().select(&tiling, &snap, "q", tiling.len(), &mut rng);
        assert_eq!(sel.len(), tiling.len());
    }

    #[test]
    fn cube_summaries_shape() {
        let (snap, tiling) = hotspot_snapshot(8, 4);
        let s = HypercubeSelector::cube_summaries(&tiling, &snap, "q");
        assert_eq!(s.len(), tiling.len() * 4);
        // Hot cube (id 0) must have the largest std.
        let stds: Vec<f64> = (0..tiling.len()).map(|t| s[t * 4 + 1]).collect();
        let argmax = stds
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 0);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn rejects_overselection() {
        let (snap, tiling) = hotspot_snapshot(8, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = HypercubeSelector::Random.select(&tiling, &snap, "q", 1000, &mut rng);
    }

    #[test]
    fn names_match_config_strings() {
        assert_eq!(HypercubeSelector::Random.name(), "random");
        assert_eq!(HypercubeSelector::maxent_default().name(), "maxent");
    }

    /// Phase 1's PDFs as computed before the tile-run passes, kept as their
    /// reference: every tile's points gathered, in tile order, beside their
    /// tile's label, then one estimate.
    #[allow(clippy::needless_range_loop)] // t indexes tiles and labels in lockstep
    fn gathered_distributions(
        tiling: &Tiling,
        data: &[f64],
        labels: &[usize],
        k: usize,
        bins: usize,
        kernel: sickle_simd::Kernel,
    ) -> ClusterDistributions {
        let grid = tiling.grid;
        let mut point_values: Vec<f64> = Vec::new();
        let mut point_labels: Vec<usize> = Vec::new();
        for t in 0..tiling.len() {
            for i in tiling.tile(t).point_indices(&grid) {
                point_values.push(data[i]);
                point_labels.push(labels[t]);
            }
        }
        ClusterDistributions::estimate_with(&point_values, &point_labels, k, bins, kernel)
    }

    /// Field values in one of five flavours: continuous; laced with NaN,
    /// ±inf and signed zeros; constant; no finite value at all; continuous
    /// with extremes planted only where no tile reaches.
    fn field(flavour: usize, grid: Grid3, tiling: &Tiling, rng: &mut StdRng) -> Vec<f64> {
        let (cx, cy, cz) = tiling.counts;
        let (ex, ey, ez) = tiling.edges;
        (0..grid.len())
            .map(|i| match flavour {
                1 => match rng.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    _ => rng.gen_range(-5.0..5.0),
                },
                2 => 0.25,
                3 => [f64::NAN, f64::INFINITY][i % 2],
                4 => {
                    let (x, y, z) = grid.coords(i);
                    if x >= cx * ex || y >= cy * ey || z >= cz * ez {
                        [1e9, -1e9][i % 2]
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                }
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// Bit patterns, every NaN mapped to one: Rust leaves a NaN result's
    /// sign and payload unspecified, so two compilations of one formula may
    /// differ there and nowhere else.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Binning the tiles' `z`-runs ≡ gathering their points and
        /// estimating: bitwise-equal sizes and PMFs against the reference
        /// under both kernels, on grids that tile exactly and grids that
        /// leave trailing points, for every field flavour.
        #[test]
        fn tile_runs_match_the_gathered_estimate(
            ((nx, ny, nz), (ex, ey, ez), k, bins, (seed, flavour)) in (
                (1usize..=13, 1usize..=13, 1usize..=13),
                (1usize..=6, 1usize..=6, 1usize..=6),
                1usize..=5,
                1usize..=100,
                (0u64..1 << 40, 0usize..5),
            )
        ) {
            let grid = Grid3::new(nx, ny, nz, 1.0, 1.0, 1.0);
            let tiling = Tiling::new(grid, (ex.min(nx), ey.min(ny), ez.min(nz)));
            let mut rng = StdRng::seed_from_u64(seed);
            let data = field(flavour, grid, &tiling, &mut rng);
            let labels: Vec<usize> = (0..tiling.len()).map(|_| rng.gen_range(0..k)).collect();
            let got = tile_distributions(&tiling, &data, &labels, k, bins);
            for kernel in [sickle_simd::Kernel::Naive, sickle_simd::Kernel::Optimized] {
                let want = gathered_distributions(&tiling, &data, &labels, k, bins, kernel);
                proptest::prop_assert_eq!(&got.sizes, &want.sizes);
                for (p, q) in got.pmfs.iter().zip(&want.pmfs) {
                    proptest::prop_assert_eq!(bits(p), bits(q));
                }
                proptest::prop_assert_eq!(got.pmfs.len(), want.pmfs.len());
            }
        }

        /// Summarising cubes in lockstep ≡ one accumulator per cube over
        /// its point indices, bit for bit, whatever the cube count's
        /// remainder by `LOCKSTEP`.
        #[test]
        fn lockstep_summaries_match_one_cube_at_a_time(
            ((nx, ny, nz), (ex, ey, ez), (seed, flavour)) in (
                (1usize..=13, 1usize..=13, 1usize..=13),
                (1usize..=6, 1usize..=6, 1usize..=6),
                (0u64..1 << 40, 0usize..5),
            )
        ) {
            let grid = Grid3::new(nx, ny, nz, 1.0, 1.0, 1.0);
            let tiling = Tiling::new(grid, (ex.min(nx), ey.min(ny), ez.min(nz)));
            let data = field(flavour, grid, &tiling, &mut StdRng::seed_from_u64(seed));
            let want: Vec<f64> = (0..tiling.len())
                .flat_map(|t| {
                    let mut s = SummaryStats::new();
                    for i in tiling.tile(t).point_indices(&grid) {
                        s.push(data[i]);
                    }
                    [s.mean(), s.std(), s.min, s.max]
                })
                .collect();
            let snap = Snapshot::new(grid, 0.0).with_var("q", data);
            let got = HypercubeSelector::cube_summaries(&tiling, &snap, "q");
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
