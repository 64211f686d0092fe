//! Config-driven cases: the Rust mirror of the artifact's YAML workflow
//! (`srun -n 32 python subsample.py case.yaml` → `train.py case.yaml`), and
//! the one driver every training figure runs.
//!
//! A [`CaseConfig`] JSON names the dataset *generator* (this reproduction
//! regenerates data instead of downloading the Zenodo archive), the
//! sampling configuration, and the training job. [`run_case`] executes one
//! case end to end; the `subsample` binary runs its sampling half
//! ([`sample_case`]) and writes the sample sets as a shard store plus the
//! energy log, and `train_case` runs all of it and prints the same
//! `Evaluation on test set` / `Total Energy Consumed` lines the paper's
//! scripts grep for. Fig. 8 is [`builtin_cases`] run on three datasets.
//!
//! [`DatasetSpec`] is the one recipe table: every binary builds its data
//! from one of its table-scale or figure-scale specs.

use serde::{Deserialize, Serialize};
use sickle_cfd::datasets::{self, GestsParams, Of2dData, Of2dParams, SstParams};
use sickle_cfd::{CombustionConfig, LbmConfig};
use sickle_core::pipeline::{
    run_dataset, CubeMethod, PointMethod, SamplingConfig, SamplingOutput, TemporalMethod,
};
use sickle_energy::{EnergyReport, MachineModel};
use sickle_field::{Dataset, DatasetMeta, Grid3, SampleSet, Tiling};
use sickle_train::data::{dense_cube_data, reconstruction_data, TensorData};
use sickle_train::models::{MateyMini, Model, TokenTransformer};
use sickle_train::trainer::{train, TrainConfig, TrainResult};

use crate::{require_finite, sampling_energy};

/// Which substrate generates the case's data, with the scale knobs the
/// figures vary; every other generator setting is one constant in
/// [`DatasetSpec::build`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub enum DatasetSpec {
    /// LBM cylinder flow (see [`of2d`]).
    Of2d,
    /// Combustion surrogate, 128².
    Tc2d {
        /// Realisation seed.
        seed: u64,
    },
    /// Decaying stratified Taylor–Green.
    SstP1f4 {
        /// Grid points per side.
        n: usize,
        /// Snapshots.
        snapshots: usize,
        /// Solver steps before the first snapshot.
        warmup: usize,
        /// Solver steps between snapshots.
        interval: usize,
    },
    /// Forced stratified turbulence.
    SstP1f100 {
        /// Grid points per side.
        n: usize,
        /// Snapshots.
        snapshots: usize,
        /// Solver steps before the first snapshot.
        warmup: usize,
        /// Solver steps between snapshots.
        interval: usize,
    },
    /// Forced isotropic turbulence, one snapshot.
    Gests {
        /// Grid points per side.
        n: usize,
        /// Forced steps before the snapshot.
        spinup: usize,
    },
}

impl DatasetSpec {
    /// SST-P1F4 at table scale: 32³, 6 snapshots (Table 1, Figs. 4, 5, 7, 9).
    pub const SST_P1F4_TABLE: DatasetSpec = DatasetSpec::SstP1f4 {
        n: 32,
        snapshots: 6,
        warmup: 16,
        interval: 8,
    };
    /// SST-P1F100 at table scale: 32³, 6 snapshots (Table 1).
    pub const SST_P1F100_TABLE: DatasetSpec = DatasetSpec::SstP1f100 {
        n: 32,
        snapshots: 6,
        warmup: 16,
        interval: 8,
    };
    /// GESTS at table scale: 32³ (Table 1, Fig. 5).
    pub const GESTS_TABLE: DatasetSpec = DatasetSpec::Gests { n: 32, spinup: 20 };
    /// SST-P1F4 at figure scale: 64³, so the 16³ tiling yields 64 hypercubes
    /// and phase-1 selection (8 of 64) genuinely separates Hmaxent from
    /// Hrandom (Fig. 8 and the built-in cases).
    pub const SST_P1F4_FIGURE: DatasetSpec = DatasetSpec::SstP1f4 {
        n: 64,
        snapshots: 4,
        warmup: 10,
        interval: 5,
    };
    /// SST-P1F100 at figure scale: 64³, 4 snapshots (Fig. 8).
    pub const SST_P1F100_FIGURE: DatasetSpec = DatasetSpec::SstP1f100 {
        n: 64,
        snapshots: 4,
        warmup: 10,
        interval: 5,
    };
    /// GESTS at figure scale: 64³ (Fig. 8).
    pub const GESTS_FIGURE: DatasetSpec = DatasetSpec::Gests { n: 64, spinup: 15 };

    /// The grid side of the spectral solver, for the generators that run it
    /// (it takes powers of two only).
    fn spectral_n(&self) -> Option<usize> {
        match *self {
            DatasetSpec::SstP1f4 { n, .. }
            | DatasetSpec::SstP1f100 { n, .. }
            | DatasetSpec::Gests { n, .. } => Some(n),
            DatasetSpec::Of2d | DatasetSpec::Tc2d { .. } => None,
        }
    }

    /// The generated grid's points along `(x, y, z)`; `z` is 1 on a 2-D grid.
    fn grid(&self) -> (usize, usize, usize) {
        match *self {
            DatasetSpec::Of2d => (OF2D_LATTICE.0, OF2D_LATTICE.1, 1),
            DatasetSpec::Tc2d { .. } => {
                let cfg = CombustionConfig::default();
                (cfg.nx, cfg.ny, 1)
            }
            DatasetSpec::SstP1f4 { n, .. }
            | DatasetSpec::SstP1f100 { n, .. }
            | DatasetSpec::Gests { n, .. } => (n, n, n),
        }
    }

    /// The largest cube edge the generated grid tiles with: its shortest
    /// side, leaving out the unit `z` of a 2-D grid.
    fn max_cube_edge(&self) -> usize {
        let (nx, ny, nz) = self.grid();
        if nz == 1 {
            nx.min(ny)
        } else {
            nx.min(ny).min(nz)
        }
    }

    /// The snapshots the generated dataset holds.
    fn snapshots(&self) -> usize {
        match *self {
            DatasetSpec::Of2d => OF2D_SNAPSHOTS,
            DatasetSpec::Tc2d { .. } | DatasetSpec::Gests { .. } => 1,
            DatasetSpec::SstP1f4 { snapshots, .. } | DatasetSpec::SstP1f100 { snapshots, .. } => {
                snapshots
            }
        }
    }

    /// The variables every snapshot of the generated dataset holds.
    fn variables(&self) -> &'static [&'static str] {
        match self {
            DatasetSpec::Of2d => &["u", "v", "p", "wz"],
            DatasetSpec::Tc2d { .. } => &["C", "Cvar"],
            DatasetSpec::SstP1f4 { .. } => &["u", "v", "w", "p", "r", "pv"],
            DatasetSpec::SstP1f100 { .. } => &["u", "v", "w", "p", "r", "ee"],
            DatasetSpec::Gests { .. } => &["u", "v", "w", "p", "eps", "omega"],
        }
    }

    /// Generates the dataset (deterministic).
    pub fn build(&self) -> Dataset {
        match *self {
            DatasetSpec::Of2d => of2d().dataset,
            DatasetSpec::Tc2d { seed } => datasets::tc2d(&CombustionConfig::default(), seed),
            DatasetSpec::SstP1f4 {
                n,
                snapshots,
                warmup,
                interval,
            } => datasets::sst_p1f4(&SstParams {
                n,
                snapshots,
                warmup,
                interval,
                ..Default::default()
            }),
            DatasetSpec::SstP1f100 {
                n,
                snapshots,
                warmup,
                interval,
            } => datasets::sst_p1f100(&SstParams {
                n,
                snapshots,
                warmup,
                interval,
                ..Default::default()
            }),
            DatasetSpec::Gests { n, spinup } => datasets::gests(
                &GestsParams {
                    n,
                    spinup,
                    ..Default::default()
                },
                42,
            ),
        }
    }
}

/// OF2D's lattice, `(nx, ny)`.
const OF2D_LATTICE: (usize, usize) = (160, 64);
/// OF2D's recorded snapshots.
const OF2D_SNAPSHOTS: usize = 60;

/// OF2D with its drag signal: a 160×64 lattice at Re 150, 60
/// shedding-resolved snapshots (Table 1, Figs. 1, 5, 6).
pub fn of2d() -> Of2dData {
    datasets::of2d(&Of2dParams {
        lbm: LbmConfig {
            nx: OF2D_LATTICE.0,
            ny: OF2D_LATTICE.1,
            diameter: 10.0,
            reynolds: 150.0,
            ..Default::default()
        },
        warmup: 1500,
        snapshots: OF2D_SNAPSHOTS,
        interval: 40,
    })
}

/// The network a case trains.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Arch {
    /// MLP encoder over point tokens (sampled data).
    MlpTransformer,
    /// Patch encoder over dense cubes.
    CnnTransformer,
    /// MATEY-mini adaptive patch transformer over dense cubes.
    Matey,
}

/// Training-phase settings (the config's `train:` block).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainSpec {
    /// Architecture: `"mlp_transformer"`, `"cnn_transformer"`, or `"matey"`.
    pub arch: Arch,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Held-out fraction the test loss is measured on.
    pub test_frac: f64,
    /// Target variable (defaults to the dataset's first output).
    #[serde(default)]
    pub target: Option<String>,
    /// Token count for unstructured (sampled) inputs.
    #[serde(default = "default_tokens")]
    pub tokens: usize,
    /// Patch edge for structured (dense) inputs.
    #[serde(default = "default_patch")]
    pub patch: usize,
    /// Model width.
    #[serde(default = "default_dim")]
    pub dim: usize,
}

fn default_tokens() -> usize {
    64
}
fn default_patch() -> usize {
    2
}
fn default_dim() -> usize {
    32
}

/// One complete case file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaseConfig {
    /// Case name (used for output file prefixes).
    pub name: String,
    /// Dataset generator.
    pub dataset: DatasetSpec,
    /// Sampling phase (the `subsample:` block); its `seed` also seeds the
    /// model's initialisation and the train/test split.
    pub subsample: SamplingConfig,
    /// Training phase (the `train:` block).
    pub train: TrainSpec,
}

impl CaseConfig {
    /// Parses a case from JSON.
    ///
    /// # Errors
    /// Returns the serde error message on malformed JSON, or one line
    /// naming the field when a value the case cannot run with is given: a
    /// zero count (`dataset.snapshots`, `subsample.num_hypercubes`,
    /// `subsample.cube_edge`, `subsample.num_samples` of a sampled method,
    /// `subsample.method.num_clusters`, `.bins` or `.bins_per_dim`), a
    /// spectral `dataset.n` that is not a power of
    /// two, a `subsample.cube_edge` longer than the grid's side, fewer than
    /// two sampled cubes in all (one training and one test sample), or a
    /// `subsample.cluster_var` the dataset does not have.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let case: CaseConfig = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let (dataset, sub) = (&case.dataset, &case.subsample);
        let zero = match dataset.snapshots() {
            0 => Some("dataset.snapshots"),
            _ if sub.num_hypercubes == 0 => Some("subsample.num_hypercubes"),
            _ if sub.cube_edge == 0 => Some("subsample.cube_edge"),
            // `Xfull` keeps whole cubes and ignores the budget.
            _ if sub.num_samples == 0 && sub.method != PointMethod::Full => {
                Some("subsample.num_samples")
            }
            _ if matches!(
                sub.method,
                PointMethod::MaxEnt {
                    num_clusters: 0,
                    ..
                }
            ) =>
            {
                Some("subsample.method.num_clusters")
            }
            _ if matches!(sub.method, PointMethod::MaxEnt { bins: 0, .. }) => {
                Some("subsample.method.bins")
            }
            _ if matches!(sub.method, PointMethod::Uips { bins_per_dim: 0 }) => {
                Some("subsample.method.bins_per_dim")
            }
            _ => None,
        };
        if let Some(field) = zero {
            return Err(format!("{field} must be at least 1"));
        }
        if let Some(n) = dataset
            .spectral_n()
            .filter(|&n| !sickle_fft::is_power_of_two(n))
        {
            return Err(format!("dataset.n must be a power of two, not {n}"));
        }
        let side = dataset.max_cube_edge();
        if sub.cube_edge > side {
            return Err(format!(
                "subsample.cube_edge {} exceeds the grid side {side}",
                sub.cube_edge
            ));
        }
        // The count of whole cubes does not depend on the domain lengths.
        let (nx, ny, nz) = dataset.grid();
        let cubes = Tiling::cubic(Grid3::new(nx, ny, nz, 1.0, 1.0, 1.0), sub.cube_edge).len();
        let samples = dataset.snapshots() * sub.num_hypercubes.min(cubes);
        if samples < 2 {
            return Err(format!(
                "dataset.snapshots {} × subsample.num_hypercubes {} (whole cubes in the grid: \
                 {cubes}) leaves one sample; a case needs two, one to train and one to test",
                dataset.snapshots(),
                sub.num_hypercubes
            ));
        }
        let vars = dataset.variables();
        if !vars.contains(&sub.cluster_var.as_str()) {
            return Err(format!(
                "subsample.cluster_var \"{}\" is not a dataset variable (have: {})",
                sub.cluster_var,
                vars.join(", ")
            ));
        }
        Ok(case)
    }

    /// Loads a case from a file path.
    ///
    /// # Errors
    /// Returns I/O or parse errors as strings.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_json(&text)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// This case on another dataset: the same methods, budgets and training
    /// job, with the cluster variable, features and target taken from the
    /// dataset's Table-1 metadata.
    pub fn retarget(&self, spec: DatasetSpec, dataset: &Dataset) -> CaseConfig {
        let mut case = self.clone();
        case.dataset = spec;
        case.subsample.cluster_var = dataset.meta.cluster_var.clone();
        case.subsample.feature_vars = feature_vars(&dataset.meta);
        case.train.target = dataset.meta.output_vars.first().cloned();
        case
    }
}

/// Resolves a CLI's leading case arguments, `--builtin <name>` or a case
/// file path, into the case and the arguments after them.
///
/// # Errors
/// Returns a message for an unknown built-in, an unreadable or malformed
/// file, or missing arguments.
pub fn case_from_args(args: &[String]) -> Result<(CaseConfig, &[String]), String> {
    match args {
        [flag, name, rest @ ..] if flag == "--builtin" => builtin_cases()
            .into_iter()
            .find(|c| &c.name == name)
            .map(|c| (c, rest))
            .ok_or_else(|| format!("unknown builtin case '{name}' (try subsample --list)")),
        [path, rest @ ..] if !path.starts_with("--") => CaseConfig::load(path.as_ref())
            .map(|c| (c, rest))
            .map_err(|e| format!("failed to load {path}: {e}")),
        [flag] if flag == "--builtin" => Err("'--builtin' needs a case name".to_string()),
        [other, ..] => Err(format!("unexpected argument '{other}'")),
        [] => Err("expected a case file or --builtin <name>".to_string()),
    }
}

/// The built-in case library, mirroring the artifact's
/// `contrib/configs/SST/P1/*.yaml` set: exactly Fig. 8's five cases on
/// SST-P1F4 at figure scale (8 of 64 cubes of 16³, 10 % in-cube budgets,
/// seed 8, 25 epochs).
pub fn builtin_cases() -> Vec<CaseConfig> {
    let maxent = PointMethod::MaxEnt {
        num_clusters: 20,
        bins: 100,
    };
    let uips = PointMethod::Uips { bins_per_dim: 10 };
    let combos = [
        ("Hmaxent-Xmaxent-16", CubeMethod::MaxEnt, maxent),
        ("Hmaxent-Xuips-16", CubeMethod::MaxEnt, uips),
        ("Hrandom-Xfull-16", CubeMethod::Random, PointMethod::Full),
        ("Hrandom-Xmaxent-16", CubeMethod::Random, maxent),
        ("Hrandom-Xuips-16", CubeMethod::Random, uips),
    ];
    combos
        .into_iter()
        .map(|(name, hypercubes, method)| CaseConfig {
            name: name.to_string(),
            dataset: DatasetSpec::SST_P1F4_FIGURE,
            subsample: SamplingConfig {
                hypercubes,
                num_hypercubes: 8,
                cube_edge: 16,
                method,
                num_samples: 16usize.pow(3) / 10,
                cluster_var: "pv".into(),
                feature_vars: ["u", "v", "w", "r", "p"].map(String::from).to_vec(),
                seed: 8,
                temporal: TemporalMethod::All,
            },
            train: TrainSpec {
                arch: if method == PointMethod::Full {
                    Arch::CnnTransformer
                } else {
                    Arch::MlpTransformer
                },
                epochs: 25,
                batch: 4,
                test_frac: 0.15,
                target: Some("p".into()),
                tokens: 64,
                patch: 2,
                dim: 32,
            },
        })
        .collect()
}

/// Input variables then any output variable not already among them: what
/// a case samples and tensorises.
fn feature_vars(meta: &DatasetMeta) -> Vec<String> {
    let mut vars = meta.input_vars.clone();
    for v in &meta.output_vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    vars
}

/// Builds a `H<h>-X<x>` sampling configuration for a dataset at a 10% point
/// budget over `cube_edge`-sized cubes (the paper's standard setup).
pub fn sampling_config(
    dataset: &Dataset,
    hypercubes: CubeMethod,
    method: PointMethod,
    cube_edge: usize,
    num_hypercubes: usize,
    seed: u64,
) -> SamplingConfig {
    let dims: u32 = if dataset.grid().nz == 1 { 2 } else { 3 };
    SamplingConfig {
        hypercubes,
        num_hypercubes,
        cube_edge,
        method,
        num_samples: (cube_edge.pow(dims) / 10).max(1),
        cluster_var: dataset.meta.cluster_var.clone(),
        feature_vars: feature_vars(&dataset.meta),
        seed,
        temporal: TemporalMethod::All,
    }
}

/// What one case run produced.
pub struct CaseRun {
    /// Modeled energy of the sampling phase.
    pub sampling: EnergyReport,
    /// The training run: losses, training energy, parameter count.
    pub train: TrainResult,
}

impl CaseRun {
    /// Sampling plus training energy, kJ.
    pub fn total_kj(&self) -> f64 {
        (self.sampling.total_joules() + self.train.energy.total_joules()) / 1e3
    }
}

/// The sampling half of a case (what `subsample` runs): the two-phase
/// pipeline and its modeled energy.
pub fn sample_case(dataset: &Dataset, case: &CaseConfig) -> (SamplingOutput, EnergyReport) {
    let out = run_dataset(dataset, &case.subsample);
    let energy = sampling_energy(&out.stats, &case.subsample);
    (out, energy)
}

/// Runs one case on its (already built) dataset: sampling, the dense or
/// sampled tensors, standardisation, training and the energy sum. Exits the
/// process on a non-finite test loss.
pub fn run_case(dataset: &Dataset, case: &CaseConfig) -> CaseRun {
    let (out, sampling) = sample_case(dataset, case);
    let sets: Vec<SampleSet> = out.sets.into_iter().flatten().collect();
    let target = case
        .train
        .target
        .clone()
        .or_else(|| dataset.meta.output_vars.first().cloned())
        .expect("case has no target variable");
    let edge = case.subsample.cube_edge;
    let mut tensor =
        if case.subsample.method == PointMethod::Full || case.train.arch != Arch::MlpTransformer {
            dense_cube_data(
                &sets,
                &dataset.snapshots,
                edge,
                &dataset.meta.input_vars,
                &target,
                case.train.patch,
            )
        } else {
            reconstruction_data(&sets, &dataset.snapshots, edge, &target, case.train.tokens)
        };
    tensor.standardize();
    let (train, _) = train_model(&case.train, &tensor, case.subsample.seed);
    require_finite(
        &format!("{} on {}", case.name, dataset.meta.label),
        &[("test loss", train.best_test as f64)],
    );
    CaseRun { sampling, train }
}

/// Builds `spec`'s architecture for `data`'s shapes, initialised from
/// `seed`, and trains it (split also seeded by `seed`); returns the result
/// and the trained model.
pub fn train_model(
    spec: &TrainSpec,
    data: &TensorData,
    seed: u64,
) -> (TrainResult, Box<dyn Model>) {
    fn fit<M: Model + 'static>(
        mut model: M,
        data: &TensorData,
        cfg: &TrainConfig,
    ) -> (TrainResult, Box<dyn Model>) {
        let res = train(&mut model, data, cfg, MachineModel::frontier_gcd());
        (res, Box::new(model))
    }
    let cfg = TrainConfig {
        epochs: spec.epochs,
        batch: spec.batch,
        lr: 1e-3,
        patience: 20,
        test_frac: spec.test_frac,
        seed,
    };
    let (tokens, features, outputs) = (data.tokens, data.features, data.outputs);
    match spec.arch {
        Arch::MlpTransformer => fit(
            TokenTransformer::mlp_transformer(tokens, features, spec.dim, 1, outputs, seed),
            data,
            &cfg,
        ),
        Arch::CnnTransformer => fit(
            TokenTransformer::cnn_transformer(tokens, features, spec.dim, 1, outputs, seed),
            data,
            &cfg,
        ),
        Arch::Matey => fit(
            MateyMini::new(tokens, features, spec.dim, 1, outputs, 0.25, seed),
            data,
            &cfg,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_cases_match_paper_slurm_list() {
        let names: Vec<String> = builtin_cases().iter().map(|c| c.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "Hmaxent-Xmaxent-16",
                "Hmaxent-Xuips-16",
                "Hrandom-Xfull-16",
                "Hrandom-Xmaxent-16",
                "Hrandom-Xuips-16"
            ]
        );
        for case in builtin_cases() {
            assert_eq!(case.subsample.case_name(), case.name);
        }
    }

    #[test]
    fn case_json_roundtrip() {
        for case in builtin_cases() {
            let json = case.to_json();
            let back = CaseConfig::from_json(&json).unwrap();
            assert_eq!(back.name, case.name);
            assert_eq!(back.dataset, case.dataset);
            assert_eq!(back.subsample, case.subsample);
            assert_eq!(back.train.arch, case.train.arch);
        }
    }

    #[test]
    fn tiny_dataset_specs_build() {
        let d = DatasetSpec::Tc2d { seed: 0 }.build();
        assert_eq!(d.meta.label, "TC2D");
        let d = DatasetSpec::SstP1f4 {
            n: 16,
            snapshots: 2,
            warmup: 2,
            interval: 2,
        }
        .build();
        assert_eq!(d.num_snapshots(), 2);
    }

    #[test]
    fn specs_know_their_grid_and_variables_before_building() {
        let sst = DatasetSpec::SstP1f4 {
            n: 16,
            snapshots: 1,
            warmup: 0,
            interval: 1,
        };
        let forced = DatasetSpec::SstP1f100 {
            n: 16,
            snapshots: 1,
            warmup: 0,
            interval: 1,
        };
        let gests = DatasetSpec::Gests { n: 16, spinup: 0 };
        for spec in [DatasetSpec::Tc2d { seed: 0 }, sst, forced, gests] {
            let d = spec.build();
            let snap = &d.snapshots[0];
            assert_eq!(snap.names, spec.variables(), "{spec:?}");
            let g = snap.grid;
            assert_eq!(spec.grid(), (g.nx, g.ny, g.nz), "{spec:?}");
            assert_eq!(spec.snapshots(), d.num_snapshots(), "{spec:?}");
            let side = if g.nz == 1 {
                g.nx.min(g.ny)
            } else {
                g.nx.min(g.ny).min(g.nz)
            };
            assert_eq!(spec.max_cube_edge(), side, "{spec:?}");
        }
        // OF2D's lattice runs thousands of steps; one step of it shows the
        // same names and grid.
        let lbm = sickle_cfd::CylinderFlow::new(LbmConfig {
            nx: OF2D_LATTICE.0,
            ny: OF2D_LATTICE.1,
            ..Default::default()
        });
        let snap = lbm.snapshot(0.0);
        let g = snap.grid;
        assert_eq!(snap.names, DatasetSpec::Of2d.variables());
        assert_eq!(DatasetSpec::Of2d.grid(), (g.nx, g.ny, g.nz));
        assert_eq!(DatasetSpec::Of2d.max_cube_edge(), g.nx.min(g.ny));
    }

    #[test]
    fn builtins_are_their_own_retarget_onto_sst_p1f4() {
        // Fig. 8 re-targets every built-in at each dataset; on SST-P1F4 that
        // must change nothing but the dataset's scale.
        let spec = DatasetSpec::SstP1f4 {
            n: 16,
            snapshots: 1,
            warmup: 0,
            interval: 1,
        };
        let dataset = spec.build();
        for case in builtin_cases() {
            let moved = case.retarget(spec, &dataset);
            assert_eq!(moved.dataset, spec);
            assert_eq!(moved.subsample, case.subsample);
            assert_eq!(moved.train.target, case.train.target);
        }
    }

    #[test]
    fn sampling_config_uses_table1_metadata() {
        let d = DatasetSpec::Tc2d { seed: 0 }.build();
        let cfg = sampling_config(&d, CubeMethod::Random, PointMethod::Random, 16, 4, 0);
        assert_eq!(cfg.cluster_var, "C");
        assert_eq!(cfg.num_samples, 25); // 16^2 / 10 (2D)
        assert!(cfg.feature_vars.contains(&"Cvar".to_string()));
    }

    #[test]
    fn case_args_resolve_builtins_and_reject_the_rest() {
        let args: Vec<String> = ["--builtin", "Hrandom-Xfull-16", "--output-dir", "X"]
            .map(String::from)
            .to_vec();
        let (case, rest) = case_from_args(&args).unwrap();
        assert_eq!(case.name, "Hrandom-Xfull-16");
        assert_eq!(rest, ["--output-dir", "X"]);
        assert!(case_from_args(&args[..1]).is_err());
        assert!(case_from_args(&["--builtin".into(), "nope".into()]).is_err());
        assert!(case_from_args(&[]).is_err());
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        assert!(CaseConfig::from_json("{not json").is_err());
        assert!(CaseConfig::from_json("{}").is_err());
    }
}
