//! End-to-end sampling pipeline: configuration, two-phase execution, and
//! run statistics.
//!
//! This is the Rust analogue of `subsample.py` + its YAML configs: a
//! [`SamplingConfig`] names the hypercube selector, the point method, the
//! budgets, and the variables; [`run_dataset`] executes phase 1 and phase 2
//! over every snapshot, parallelizing across hypercubes exactly where the
//! reference implementation parallelizes across MPI ranks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sickle_field::io as fio;
use sickle_field::{Dataset, SampleSet, Snapshot, Tiling};

use crate::hypercube::HypercubeSelector;
use crate::samplers::{FullSampler, MaxEntSampler, PointSampler, RandomSampler};
use crate::uips::UipsSampler;

/// Phase-2 point-selection method (config-file facing): the four that the
/// paper's case grid selects (`Xfull`, `Xmaxent`, `Xuips`, against
/// `Xrandom`). LHS, stratified and UIPS-GMM are compared by calling their
/// samplers directly; a case naming them is an unknown-variant error.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase", tag = "kind")]
pub enum PointMethod {
    /// Keep all points in each selected cube.
    Full,
    /// Uniform random.
    Random,
    /// Maximum-entropy cluster-weighted selection.
    MaxEnt {
        /// k-means cluster count.
        num_clusters: usize,
        /// Histogram bins for cluster PDFs.
        bins: usize,
    },
    /// Uniform-in-phase-space acceptance sampling.
    Uips {
        /// Bins per feature dimension.
        bins_per_dim: usize,
    },
}

impl PointMethod {
    /// Instantiates the sampler.
    pub fn build(&self) -> Box<dyn PointSampler> {
        match *self {
            PointMethod::Full => Box::new(FullSampler),
            PointMethod::Random => Box::new(RandomSampler),
            PointMethod::MaxEnt { num_clusters, bins } => Box::new(MaxEntSampler {
                num_clusters,
                bins,
                ..Default::default()
            }),
            PointMethod::Uips { bins_per_dim } => Box::new(UipsSampler {
                bins_per_dim,
                ..Default::default()
            }),
        }
    }

    /// Config-facing name (matches the paper's `Xfull`, `Xmaxent`, ... minus
    /// the `X` prefix).
    pub fn name(&self) -> &'static str {
        match self {
            PointMethod::Full => "full",
            PointMethod::Random => "random",
            PointMethod::MaxEnt { .. } => "maxent",
            PointMethod::Uips { .. } => "uips",
        }
    }
}

/// Phase-1 hypercube-selection method (config-file facing).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum CubeMethod {
    /// Uniform random cubes.
    Random,
    /// Entropy-weighted cubes.
    MaxEnt,
}

impl CubeMethod {
    /// Converts to the executable selector.
    pub fn build(&self) -> HypercubeSelector {
        match self {
            CubeMethod::Random => HypercubeSelector::Random,
            CubeMethod::MaxEnt => HypercubeSelector::maxent_default(),
        }
    }
}

/// Snapshot-level selection: every run keeps every snapshot. The one
/// variant keeps the config's `"temporal": {"kind": "all"}` key, so case
/// files and config fingerprints keep their bytes; any other kind is an
/// unknown-variant parse error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase", tag = "kind")]
pub enum TemporalMethod {
    /// Keep every snapshot.
    #[default]
    All,
}

/// Full sampling configuration — the Rust mirror of the paper's YAML files
/// (e.g. `Hmaxent-Xmaxent-32.yaml`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Hypercube (phase 1) selection method.
    pub hypercubes: CubeMethod,
    /// Number of hypercubes to keep per snapshot.
    pub num_hypercubes: usize,
    /// Hypercube edge length in grid points (the paper's `nxsl` etc.).
    pub cube_edge: usize,
    /// Point (phase 2) selection method.
    pub method: PointMethod,
    /// Point budget per hypercube (the paper's `num_samples`, e.g. 3277 =
    /// 10% of 32³).
    pub num_samples: usize,
    /// K-means cluster variable name (Table 1's KCV).
    pub cluster_var: String,
    /// Feature variables extracted into the sample sets (inputs + outputs).
    pub feature_vars: Vec<String>,
    /// Base RNG seed; every (snapshot, cube) pair derives its own stream.
    pub seed: u64,
    /// Snapshot-level selection (always [`TemporalMethod::All`]).
    #[serde(default)]
    pub temporal: TemporalMethod,
}

impl SamplingConfig {
    /// A `Hmaxent-Xmaxent` configuration matching the paper's SST defaults.
    pub fn maxent_default(cluster_var: &str, feature_vars: &[&str]) -> Self {
        SamplingConfig {
            hypercubes: CubeMethod::MaxEnt,
            num_hypercubes: 8,
            cube_edge: 16,
            method: PointMethod::MaxEnt {
                num_clusters: 20,
                bins: 100,
            },
            num_samples: 410, // ~10% of 16^3
            cluster_var: cluster_var.to_string(),
            feature_vars: feature_vars.iter().map(|s| s.to_string()).collect(),
            seed: 0,
            temporal: TemporalMethod::All,
        }
    }

    /// The `Hmaxent-Xmaxent-32`-style case name used in result tables.
    pub fn case_name(&self) -> String {
        format!(
            "H{}-X{}-{}",
            match self.hypercubes {
                CubeMethod::Random => "random",
                CubeMethod::MaxEnt => "maxent",
            },
            self.method.name(),
            self.cube_edge
        )
    }

    /// All variables to extract: `feature_vars` with the cluster variable
    /// appended if missing. Returns `(vars, cluster_col)`.
    pub fn extraction_vars(&self) -> (Vec<String>, usize) {
        let mut vars = self.feature_vars.clone();
        let cluster_col = match vars.iter().position(|v| v == &self.cluster_var) {
            Some(c) => c,
            None => {
                vars.push(self.cluster_var.clone());
                vars.len() - 1
            }
        };
        (vars, cluster_col)
    }
}

/// Run statistics (the pipeline's answer to the paper's "Total Energy
/// Consumed"/"Elapsed Time" log lines; energy itself is modeled by
/// `sickle-energy` from these counts).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SamplingStats {
    /// Dense points scanned by phase 2 (selected cubes × cube volume).
    pub points_in: usize,
    /// Points retained.
    pub points_out: usize,
    /// Hypercubes selected in total.
    pub cubes_selected: usize,
    /// Dense points scanned by phase 1 (whole grid × snapshots — cube
    /// scoring reads everything once).
    pub phase1_points: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
}

impl SamplingStats {
    /// Retention fraction (`points_out / points_in`).
    pub fn retention(&self) -> f64 {
        if self.points_in == 0 {
            0.0
        } else {
            self.points_out as f64 / self.points_in as f64
        }
    }
}

/// Output of a full dataset run: per-snapshot lists of per-cube sample sets.
#[derive(Clone, Debug)]
pub struct SamplingOutput {
    /// `sets[snapshot][cube]`.
    pub sets: Vec<Vec<SampleSet>>,
    /// Aggregate statistics.
    pub stats: SamplingStats,
    /// The executed configuration (for provenance).
    pub config: SamplingConfig,
}

impl SamplingOutput {
    /// Flattens all sample sets of one snapshot into a single merged set.
    pub fn merged_snapshot(&self, snap: usize) -> SampleSet {
        SampleSet::merge(&self.sets[snap])
    }

    /// Total retained points.
    pub fn total_points(&self) -> usize {
        self.sets.iter().flatten().map(SampleSet::len).sum()
    }
}

/// Derives a per-(snapshot, cube) RNG stream from the base seed via
/// SplitMix64 mixing — parallel execution order cannot perturb results.
///
/// Public because every executor (the in-process rayon pipeline here, the
/// ranked thread executor in `sickle-hpc`) must draw from the same streams:
/// that is the determinism contract (DESIGN.md §9) that makes rank counts,
/// work redistribution, and retries invisible in the output.
pub fn derive_rng(seed: u64, snapshot: usize, cube: usize) -> StdRng {
    // `cube` may be usize::MAX (the per-snapshot sentinel), so the +1 must wrap.
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul((snapshot as u64).wrapping_add(1)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul((cube as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One snapshot's sampling plan: phase 1 has run and everything phase 2
/// needs is fixed. Every executor — rayon here, rank threads with retry in
/// `sickle-hpc` — only decides *where and when* [`sample_cube`] runs for
/// each of [`cube_ids`]; what a cube yields is decided here, once, which is
/// why serial ≡ ranked ≡ recovered holds by construction.
///
/// [`sample_cube`]: SnapshotPlan::sample_cube
/// [`cube_ids`]: SnapshotPlan::cube_ids
pub struct SnapshotPlan<'a> {
    snap: &'a Snapshot,
    snapshot_index: usize,
    cfg: &'a SamplingConfig,
    tiling: Tiling,
    vars: Vec<String>,
    cluster_col: usize,
    sampler: Box<dyn PointSampler>,
    cube_ids: Vec<usize>,
}

impl<'a> SnapshotPlan<'a> {
    /// Tiles the snapshot and runs phase 1 (hypercube selection) on the
    /// calling thread, drawing from the snapshot's own RNG stream.
    pub fn new(snap: &'a Snapshot, snapshot_index: usize, cfg: &'a SamplingConfig) -> Self {
        let tiling = Tiling::cubic(snap.grid, cfg.cube_edge);
        let count = cfg.num_hypercubes.min(tiling.len());
        let mut rng = derive_rng(cfg.seed, snapshot_index, usize::MAX);
        let cube_ids = {
            let _p1 = sickle_obs::span!("sample.phase1.select", tiles = tiling.len(), keep = count);
            cfg.hypercubes
                .build()
                .select(&tiling, snap, &cfg.cluster_var, count, &mut rng)
        };
        let (vars, cluster_col) = cfg.extraction_vars();
        SnapshotPlan {
            snap,
            snapshot_index,
            cfg,
            tiling,
            vars,
            cluster_col,
            sampler: cfg.method.build(),
            cube_ids,
        }
    }

    /// The selected hypercubes, in phase-1 order — the canonical output
    /// order of the snapshot's sample sets.
    pub fn cube_ids(&self) -> &[usize] {
        &self.cube_ids
    }

    /// Phase 2 for one hypercube. The RNG stream is derived from
    /// `(seed, snapshot, cube)` alone, so the result does not depend on
    /// which thread runs it, in what order, or how many times.
    pub fn sample_cube(&self, cube_id: usize) -> SampleSet {
        let (features, indices) = self.tiling.extract(self.snap, cube_id, &self.vars);
        let mut rng = derive_rng(self.cfg.seed, self.snapshot_index, cube_id);
        let picked =
            self.sampler
                .select(&features, self.cluster_col, self.cfg.num_samples, &mut rng);
        sickle_obs::counter!("sample.points_out", picked.len());
        let sel_features = features.gather(&picked);
        let sel_indices: Vec<usize> = picked.iter().map(|&p| indices[p]).collect();
        SampleSet::new(
            sel_features,
            sel_indices,
            self.snap.time,
            self.snapshot_index,
        )
        .with_hypercube(cube_id)
    }
}

/// Runs the two-phase pipeline on one snapshot, returning one sample set per
/// selected hypercube. Cubes are processed in parallel.
pub fn run_snapshot(
    snap: &Snapshot,
    snapshot_index: usize,
    cfg: &SamplingConfig,
) -> Vec<SampleSet> {
    let _snap_span = sickle_obs::span!("sample.snapshot", snapshot = snapshot_index);
    let plan = SnapshotPlan::new(snap, snapshot_index, cfg);
    // Rayon workers run on pool threads with their own (empty) span stacks,
    // so the phase-2 spans must name their parent explicitly.
    let parent = sickle_obs::current_span_id();
    plan.cube_ids()
        .par_iter()
        .map(|&cube_id| {
            let _cube = sickle_obs::child_span!(parent, "sample.phase2.cube", cube = cube_id);
            plan.sample_cube(cube_id)
        })
        .collect()
}

/// The dataset loop every executor shares: `snapshot_sets(index,
/// snapshot)` once per snapshot in order, then
/// the run statistics — the one place a [`SamplingOutput`] is assembled.
/// Callers supply only how one snapshot's sets are obtained (computed here
/// or on ranks).
///
/// # Errors
/// The first error `snapshot_sets` returns.
pub fn run_dataset_with<E>(
    dataset: &Dataset,
    cfg: &SamplingConfig,
    mut snapshot_sets: impl FnMut(usize, &Snapshot) -> Result<Vec<SampleSet>, E>,
) -> Result<SamplingOutput, E> {
    let t0 = std::time::Instant::now();
    let sets = dataset
        .snapshots
        .iter()
        .enumerate()
        .map(|(i, snap)| snapshot_sets(i, snap))
        .collect::<Result<Vec<_>, E>>()?;
    let cube_points = cfg
        .cube_edge
        .pow(if dataset.grid().nz == 1 { 2 } else { 3 });
    let cubes_selected: usize = sets.iter().map(Vec::len).sum();
    let stats = SamplingStats {
        points_in: cubes_selected * cube_points,
        points_out: sets.iter().flatten().map(SampleSet::len).sum(),
        cubes_selected,
        phase1_points: dataset.grid().len() * dataset.num_snapshots(),
        elapsed_secs: t0.elapsed().as_secs_f64(),
    };
    let secs = stats.elapsed_secs.max(1e-12);
    sickle_obs::histogram!("sample.points_per_sec", stats.points_out as f64 / secs);
    sickle_obs::histogram!("sample.cubes_per_sec", cubes_selected as f64 / secs);
    Ok(SamplingOutput {
        sets,
        stats,
        config: cfg.clone(),
    })
}

/// Runs the pipeline over every snapshot of a dataset.
pub fn run_dataset(dataset: &Dataset, cfg: &SamplingConfig) -> SamplingOutput {
    let _run = sickle_obs::span!(
        "sample.run_dataset",
        snapshots = dataset.num_snapshots(),
        cubes_per_snapshot = cfg.num_hypercubes
    );
    run_dataset_with(dataset, cfg, |i, snap| {
        Ok::<_, std::convert::Infallible>(run_snapshot(snap, i, cfg))
    })
    .unwrap_or_else(|never| match never {})
}

/// Fingerprint of a sampling configuration (XXH64 over its canonical JSON,
/// in hex-string form so it survives the JSON manifest round-trip), recorded
/// in every store manifest so a store names the configuration that curated it.
pub fn config_fingerprint(cfg: &SamplingConfig) -> String {
    let json = serde_json::to_string(cfg).expect("config serializes");
    fio::content_hash_hex(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::{DatasetMeta, Grid3};

    fn test_dataset(snapshots: usize) -> Dataset {
        let grid = Grid3::new(16, 16, 16, 1.0, 1.0, 1.0);
        let meta = DatasetMeta::new("T", "test", "q", &["u", "q"], &[]);
        let mut d = Dataset::new(meta);
        for s in 0..snapshots {
            let u: Vec<f64> = (0..grid.len())
                .map(|i| ((i * 31 + s * 7) % 100) as f64 * 0.01)
                .collect();
            let q: Vec<f64> = (0..grid.len())
                .map(|i| {
                    if i % 50 == 0 {
                        10.0
                    } else {
                        ((i * 17) % 100) as f64 * 0.001
                    }
                })
                .collect();
            d.push(
                Snapshot::new(grid, s as f64)
                    .with_var("u", u)
                    .with_var("q", q),
            );
        }
        d
    }

    fn test_config() -> SamplingConfig {
        SamplingConfig {
            hypercubes: CubeMethod::MaxEnt,
            num_hypercubes: 4,
            cube_edge: 8,
            method: PointMethod::MaxEnt {
                num_clusters: 5,
                bins: 32,
            },
            num_samples: 51, // ~10% of 8^3
            cluster_var: "q".to_string(),
            feature_vars: vec!["u".to_string(), "q".to_string()],
            seed: 7,
            temporal: TemporalMethod::All,
        }
    }

    #[test]
    fn temporal_default_is_all_and_serde_backcompat() {
        // Old config JSON without a temporal key must still parse.
        let json = r#"{
            "hypercubes": "random",
            "num_hypercubes": 2,
            "cube_edge": 8,
            "method": {"kind": "random"},
            "num_samples": 10,
            "cluster_var": "q",
            "feature_vars": ["q"],
            "seed": 0
        }"#;
        let cfg: SamplingConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.temporal, TemporalMethod::All);
    }

    #[test]
    fn pipeline_respects_budgets() {
        let d = test_dataset(2);
        let out = run_dataset(&d, &test_config());
        assert_eq!(out.sets.len(), 2);
        for snap_sets in &out.sets {
            assert_eq!(snap_sets.len(), 4);
            for s in snap_sets {
                assert_eq!(s.len(), 51);
                assert!(s.hypercube.is_some());
            }
        }
        assert_eq!(out.total_points(), 2 * 4 * 51);
        assert!((out.stats.retention() - 51.0 / 512.0).abs() < 1e-9);
    }

    #[test]
    fn retention_of_degenerate_stats_is_zero_not_nan() {
        // A run that selected nothing (empty dataset, zero cubes) must
        // report 0.0 retention, never 0/0 = NaN — this number lands in CSVs
        // and JSON benchmark reports downstream.
        let stats = SamplingStats {
            points_in: 0,
            points_out: 0,
            cubes_selected: 0,
            phase1_points: 0,
            elapsed_secs: 0.0,
        };
        assert_eq!(stats.retention(), 0.0);
        assert!(stats.retention().is_finite());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let d = test_dataset(1);
        let cfg = test_config();
        let a = run_dataset(&d, &cfg);
        let b = run_dataset(&d, &cfg);
        assert_eq!(a.sets[0][0].indices, b.sets[0][0].indices);
        assert_eq!(a.sets[0][0].features.data, b.sets[0][0].features.data);
    }

    #[test]
    fn different_seeds_differ() {
        let d = test_dataset(1);
        let mut cfg = test_config();
        let a = run_dataset(&d, &cfg);
        cfg.seed = 8;
        let b = run_dataset(&d, &cfg);
        assert_ne!(a.sets[0][0].indices, b.sets[0][0].indices);
    }

    #[test]
    fn full_method_keeps_whole_cubes() {
        let d = test_dataset(1);
        let mut cfg = test_config();
        cfg.method = PointMethod::Full;
        let out = run_dataset(&d, &cfg);
        for s in &out.sets[0] {
            assert_eq!(s.len(), 512); // 8^3
        }
        assert!((out.stats.retention() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_snapshot_concatenates() {
        let d = test_dataset(1);
        let out = run_dataset(&d, &test_config());
        let merged = out.merged_snapshot(0);
        assert_eq!(merged.len(), 4 * 51);
    }

    #[test]
    fn config_json_roundtrip() {
        let cfg = test_config();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: SamplingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.case_name(), cfg.case_name());
        assert_eq!(back.num_samples, cfg.num_samples);
        assert_eq!(back.method, cfg.method);
    }

    #[test]
    fn case_name_matches_paper_convention() {
        let cfg = test_config();
        assert_eq!(cfg.case_name(), "Hmaxent-Xmaxent-8");
    }

    #[test]
    fn extraction_vars_appends_missing_cluster_var() {
        let mut cfg = test_config();
        cfg.feature_vars = vec!["u".to_string()];
        let (vars, col) = cfg.extraction_vars();
        assert_eq!(vars, vec!["u".to_string(), "q".to_string()]);
        assert_eq!(col, 1);
    }

    #[test]
    fn sample_indices_are_valid_grid_points() {
        let d = test_dataset(1);
        let out = run_dataset(&d, &test_config());
        let n = d.grid().len();
        for s in out.sets[0].iter() {
            assert!(s.indices.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn two_dimensional_dataset_works() {
        let grid = Grid3::new(32, 32, 1, 1.0, 1.0, 1.0);
        let meta = DatasetMeta::new("T2", "test 2d", "q", &["q"], &[]);
        let mut d = Dataset::new(meta);
        let q: Vec<f64> = (0..grid.len()).map(|i| (i % 97) as f64).collect();
        d.push(Snapshot::new(grid, 0.0).with_var("q", q));
        let cfg = SamplingConfig {
            hypercubes: CubeMethod::Random,
            num_hypercubes: 4,
            cube_edge: 8,
            method: PointMethod::Random,
            num_samples: 6,
            cluster_var: "q".to_string(),
            feature_vars: vec!["q".to_string()],
            seed: 1,
            temporal: TemporalMethod::All,
        };
        let out = run_dataset(&d, &cfg);
        assert_eq!(out.total_points(), 24);
        // 2D cubes are 8x8 = 64 points.
        assert_eq!(out.stats.points_in, 4 * 64);
    }
}
