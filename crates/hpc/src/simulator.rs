//! α–β cluster performance model for strong-scaling prediction beyond the
//! host's core count.
//!
//! The modeled computation is the paper's `subsample.py` on `R` MPI ranks:
//!
//! - **compute**: each rank processes `ceil(C/R)` of the `C` hypercubes
//!   (integer quantization is the knee mechanism — once `C < R` some ranks
//!   idle and speedup saturates at `C`), at `points_per_cube ·
//!   per_point_cost + per_cube_overhead` each;
//! - **serial fraction**: phase-1 cube selection runs on rank 0;
//! - **communication**: a log₂-tree metadata all-reduce
//!   (`α + β·reduce_bytes` per stage) plus a result gather whose volume
//!   grows with the retained samples.
//!
//! Calibrate [`ClusterModel::per_point_cost`] from a measured single-rank
//! run ([`ClusterModel::calibrated`]) to get absolute times; the *shape*
//! (Fig. 7's knee and efficiency collapse) is cost-free.

use serde::{Deserialize, Serialize};

/// Cluster cost model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterModel {
    /// Seconds to process one dense point in phase 2 (clustering + binning).
    pub per_point_cost: f64,
    /// Fixed seconds of overhead per hypercube (allocation, k-means setup).
    pub per_cube_overhead: f64,
    /// Serial phase-1 seconds (cube selection on rank 0).
    pub serial_secs: f64,
    /// Communication latency per message (α), seconds.
    pub comm_latency: f64,
    /// Inverse bandwidth (β), seconds per byte.
    pub comm_inv_bandwidth: f64,
    /// Bytes exchanged per all-reduce stage (cluster PDFs and strengths).
    pub reduce_bytes: f64,
    /// Bytes per retained sample in the final gather.
    pub bytes_per_sample: f64,
}

impl ClusterModel {
    /// A Frontier-like configuration: Slingshot α ≈ 2 µs, ~25 GB/s per rank.
    pub fn frontier() -> Self {
        ClusterModel {
            per_point_cost: 2.0e-7,
            per_cube_overhead: 5.0e-3,
            serial_secs: 0.05,
            comm_latency: 2.0e-6,
            comm_inv_bandwidth: 4.0e-11,
            reduce_bytes: 64.0 * 1024.0,
            bytes_per_sample: 64.0,
        }
    }

    /// Derives a model whose single-rank time matches a measured run of
    /// `cubes` hypercubes of `points_per_cube` points each.
    pub fn calibrated(
        measured_single_rank_secs: f64,
        cubes: usize,
        points_per_cube: usize,
    ) -> Self {
        let mut m = ClusterModel::frontier();
        let work = (cubes * points_per_cube) as f64;
        // Attribute 5% to serial selection, 5% to per-cube overhead, the
        // rest to per-point work.
        m.serial_secs = 0.05 * measured_single_rank_secs;
        m.per_cube_overhead = 0.05 * measured_single_rank_secs / cubes.max(1) as f64;
        m.per_point_cost = 0.90 * measured_single_rank_secs / work.max(1.0);
        m
    }

    /// Predicted wall time for `ranks` ranks over `cubes` hypercubes.
    pub fn time(
        &self,
        cubes: usize,
        points_per_cube: usize,
        samples_per_cube: usize,
        ranks: usize,
    ) -> f64 {
        assert!(ranks > 0, "need at least one rank");
        // Integer work quantization: the slowest rank holds ceil(C/R) cubes.
        let max_cubes = cubes.div_ceil(ranks);
        let compute = max_cubes as f64
            * (points_per_cube as f64 * self.per_point_cost + self.per_cube_overhead);
        let comm = if ranks == 1 {
            0.0
        } else {
            let stages = (ranks as f64).log2().ceil();
            let allreduce =
                stages * (self.comm_latency + self.comm_inv_bandwidth * self.reduce_bytes);
            let gather_bytes = (cubes * samples_per_cube) as f64 * self.bytes_per_sample;
            let gather = self.comm_latency * ranks as f64 + self.comm_inv_bandwidth * gather_bytes;
            allreduce + gather
        };
        self.serial_secs + compute + comm
    }

    /// Runs a full strong-scaling study over `rank_counts`.
    pub fn strong_scaling(
        &self,
        cubes: usize,
        points_per_cube: usize,
        samples_per_cube: usize,
        rank_counts: &[usize],
    ) -> Vec<ScalingPoint> {
        let t1 = self.time(cubes, points_per_cube, samples_per_cube, 1);
        rank_counts
            .iter()
            .map(|&r| {
                let t = self.time(cubes, points_per_cube, samples_per_cube, r);
                ScalingPoint {
                    ranks: r,
                    secs: t,
                    speedup: t1 / t,
                    efficiency: t1 / t / r as f64,
                }
            })
            .collect()
    }
}

/// One point on a strong-scaling curve.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// MPI rank count.
    pub ranks: usize,
    /// Predicted/measured seconds.
    pub secs: f64,
    /// Speedup vs. one rank.
    pub speedup: f64,
    /// Parallel efficiency (`speedup / ranks`).
    pub efficiency: f64,
}

/// Finds the knee of a scaling curve: the largest rank count whose parallel
/// efficiency is still at least `threshold` (the paper marks the knee where
/// "efficiency drops sharply"). Returns the rank count.
pub fn knee_point(points: &[ScalingPoint], threshold: f64) -> usize {
    points
        .iter()
        .filter(|p| p.efficiency >= threshold)
        .map(|p| p.ranks)
        .max()
        .unwrap_or_else(|| points.first().map(|p| p.ranks).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks() -> Vec<usize> {
        (0..10).map(|i| 1usize << i).collect() // 1..512
    }

    #[test]
    fn single_rank_time_is_total_work() {
        let m = ClusterModel::frontier();
        let t = m.time(100, 32_768, 3277, 1);
        let expect = m.serial_secs + 100.0 * (32_768.0 * m.per_point_cost + m.per_cube_overhead);
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn large_dataset_scales_quasi_linearly_then_knees() {
        // SST-P1F100-like: plenty of cubes.
        let m = ClusterModel::frontier();
        let pts = m.strong_scaling(4096, 32_768, 16_384, &ranks());
        // Quasi-linear at 64 ranks.
        let p64 = pts.iter().find(|p| p.ranks == 64).unwrap();
        assert!(p64.efficiency > 0.7, "efficiency at 64: {}", p64.efficiency);
        // Speedup at 512 is large but clearly sublinear (paper: ~171).
        let p512 = pts.iter().find(|p| p.ranks == 512).unwrap();
        assert!(
            p512.speedup > 50.0 && p512.speedup < 512.0,
            "512-rank speedup {}",
            p512.speedup
        );
        assert!(p512.efficiency < p64.efficiency);
    }

    #[test]
    fn small_dataset_plateaus_early() {
        // SST-P1F4-like: few cubes -> starved ranks.
        let m = ClusterModel::frontier();
        let pts = m.strong_scaling(32, 32_768, 3277, &ranks());
        let best = pts
            .iter()
            .cloned()
            .fold(pts[0], |a, b| if b.speedup > a.speedup { b } else { a });
        assert!(best.speedup < 40.0, "plateau speedup {}", best.speedup);
        // Beyond 32 ranks there is no extra speedup (work quantized to 1 cube).
        let p32 = pts.iter().find(|p| p.ranks == 32).unwrap();
        let p512 = pts.iter().find(|p| p.ranks == 512).unwrap();
        assert!(
            p512.speedup <= p32.speedup * 1.05,
            "{} vs {}",
            p512.speedup,
            p32.speedup
        );
    }

    #[test]
    fn knee_point_orders_datasets() {
        let m = ClusterModel::frontier();
        let big = m.strong_scaling(4096, 32_768, 16_384, &ranks());
        let small = m.strong_scaling(32, 32_768, 3277, &ranks());
        let knee_big = knee_point(&big, 0.5);
        let knee_small = knee_point(&small, 0.5);
        assert!(
            knee_big > knee_small,
            "knees: big {knee_big} small {knee_small}"
        );
    }

    #[test]
    fn calibration_matches_measurement() {
        let m = ClusterModel::calibrated(10.0, 50, 10_000);
        let t1 = m.time(50, 10_000, 1000, 1);
        assert!((t1 - 10.0).abs() < 1e-9, "calibrated t1 {t1}");
    }

    #[test]
    fn efficiency_monotonically_bounded() {
        let m = ClusterModel::frontier();
        for p in m.strong_scaling(512, 32_768, 3277, &ranks()) {
            assert!(p.efficiency <= 1.0 + 1e-9);
            assert!(p.speedup > 0.0);
        }
    }

    #[test]
    fn time_decreases_until_comm_dominates() {
        let m = ClusterModel::frontier();
        let t1 = m.time(1024, 32_768, 3277, 1);
        let t64 = m.time(1024, 32_768, 3277, 64);
        assert!(t64 < t1 / 30.0, "t1 {t1} t64 {t64}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ClusterModel::frontier().time(10, 10, 1, 0);
    }

    #[test]
    fn speedup_saturates_at_cube_count() {
        // Once R > C, every extra rank idles: the slowest rank still holds
        // one whole cube, so speedup can never exceed C (and adding ranks
        // past C cannot improve the time at all).
        let m = ClusterModel::frontier();
        let cubes = 16;
        let sweep = m.strong_scaling(cubes, 32_768, 3277, &ranks());
        for p in &sweep {
            assert!(
                p.speedup <= cubes as f64 + 1e-9,
                "{} ranks: speedup {} exceeds cube count {cubes}",
                p.ranks,
                p.speedup
            );
        }
        let t_at_c = m.time(cubes, 32_768, 3277, cubes);
        for r in [2 * cubes, 4 * cubes, 32 * cubes] {
            let t = m.time(cubes, 32_768, 3277, r);
            assert!(
                t >= t_at_c - 1e-12,
                "{r} ranks beat {cubes} ranks: {t} < {t_at_c}"
            );
        }
    }

    #[test]
    fn efficiency_monotone_non_increasing_over_pow2_ranks() {
        // Over a power-of-two sweep the per-rank cube share halves cleanly,
        // so parallel efficiency can only erode (serial fraction + comm).
        // (Non-power-of-two sweeps can jitter: ceil(C/R) is non-monotone in
        // R·ceil(C/R) terms.)
        let m = ClusterModel::frontier();
        for cubes in [32usize, 512, 4096] {
            let sweep = m.strong_scaling(cubes, 32_768, 3277, &ranks());
            for pair in sweep.windows(2) {
                assert!(
                    pair[1].efficiency <= pair[0].efficiency + 1e-9,
                    "{cubes} cubes: efficiency rose from {} ({} ranks) to {} ({} ranks)",
                    pair[0].efficiency,
                    pair[0].ranks,
                    pair[1].efficiency,
                    pair[1].ranks
                );
            }
        }
    }

    #[test]
    fn calibration_round_trips_many_measurements() {
        // calibrated(t, C, P).time(C, P, _, 1) must reproduce t for any
        // plausible measured single-rank time and workload shape.
        for &(secs, cubes, points) in &[
            (0.5f64, 4usize, 512usize),
            (10.0, 50, 10_000),
            (120.0, 4096, 32_768),
            (3600.0, 100_000, 32_768),
        ] {
            let m = ClusterModel::calibrated(secs, cubes, points);
            let t1 = m.time(cubes, points, 1000, 1);
            assert!(
                (t1 - secs).abs() / secs < 1e-9,
                "calibrated({secs}, {cubes}, {points}) reproduces {t1}"
            );
        }
    }
}
