//! Canned dataset constructors mirroring the paper's Table 1.
//!
//! Each constructor returns a [`Dataset`] whose metadata row (label, K-means
//! cluster variable, input/output variables) matches Table 1, built at
//! *reproduction scale* — the grids are smaller than the originals (which
//! range to 12 TB), but every variable, derived quantity, and statistical
//! property the samplers consume is present. `scale` parameters let the
//! benchmarks grow the datasets for scaling studies.

use rayon::prelude::*;
use sickle_field::derived::{dissipation, enstrophy, potential_vorticity, vorticity_3d};
use sickle_field::{Axis, Dataset, DatasetMeta, Snapshot};

use crate::combustion::{self, CombustionConfig};
use crate::lbm2d::{CylinderFlow, LbmConfig};
use crate::spectral::{Forcing, SpectralConfig, SpectralSolver, Stratification};
use crate::synth::{self, SpectrumKind, SynthConfig};

/// OF2D generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct Of2dParams {
    /// Lattice configuration.
    pub lbm: LbmConfig,
    /// Steps to discard before recording (wake spin-up).
    pub warmup: usize,
    /// Number of recorded snapshots.
    pub snapshots: usize,
    /// Lattice steps between snapshots.
    pub interval: usize,
}

impl Default for Of2dParams {
    fn default() -> Self {
        Of2dParams {
            lbm: LbmConfig::default(),
            warmup: 2000,
            snapshots: 100,
            interval: 50,
        }
    }
}

/// The OF2D dataset plus its per-snapshot drag/lift targets (the paper's
/// global-prediction `sample-single` task maps field samples to drag).
#[derive(Clone, Debug)]
pub struct Of2dData {
    /// Field snapshots with `u, v, p, wz`.
    pub dataset: Dataset,
    /// Drag coefficient at each snapshot.
    pub drag: Vec<f64>,
    /// Lift force at each snapshot.
    pub lift: Vec<f64>,
}

/// Generates the OF2D analogue: unsteady LBM cylinder flow with vortex
/// shedding, recording `u, v, p, wz` snapshots and the drag signal.
pub fn of2d(params: &Of2dParams) -> Of2dData {
    let mut sim = CylinderFlow::new(params.lbm);
    sim.run(params.warmup);
    let meta = DatasetMeta::new(
        "OF2D",
        "2D flow over cylinder (LBM analogue of the OpenFOAM case)",
        "wz",
        &["u", "v"],
        &["D"],
    );
    let mut dataset = Dataset::new(meta);
    let mut drag = Vec::with_capacity(params.snapshots);
    let mut lift = Vec::with_capacity(params.snapshots);
    for s in 0..params.snapshots {
        sim.run(params.interval);
        dataset.push(sim.snapshot((params.warmup + (s + 1) * params.interval) as f64));
        drag.push(sim.drag_coefficient());
        lift.push(sim.lift());
    }
    Of2dData {
        dataset,
        drag,
        lift,
    }
}

/// Generates the TC2D analogue: one snapshot of progress variable `C` and
/// filtered variance `Cvar`.
pub fn tc2d(cfg: &CombustionConfig, seed: u64) -> Dataset {
    let meta = DatasetMeta::new(
        "TC2D",
        "2D turbulent combustion (flamelet-manifold surrogate)",
        "C",
        &["C", "Cvar"],
        &[],
    );
    let mut d = Dataset::new(meta);
    d.push(combustion::generate(cfg, seed));
    d
}

/// SST generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SstParams {
    /// Grid points per side.
    pub n: usize,
    /// Brunt–Väisälä frequency (stratification strength).
    pub n_bv: f64,
    /// Recorded snapshots.
    pub snapshots: usize,
    /// Solver steps between snapshots.
    pub interval: usize,
    /// Solver steps before the first snapshot.
    pub warmup: usize,
    /// Time step.
    pub dt: f64,
    /// Kinematic viscosity.
    pub viscosity: f64,
}

impl Default for SstParams {
    fn default() -> Self {
        SstParams {
            n: 32,
            n_bv: 2.0,
            snapshots: 8,
            interval: 10,
            warmup: 20,
            dt: 0.01,
            viscosity: 0.02,
        }
    }
}

fn add_sst_derived(snap: &mut Snapshot) {
    let pv = potential_vorticity(
        &snap.grid,
        snap.expect_var("u"),
        snap.expect_var("v"),
        snap.expect_var("w"),
        snap.expect_var("r"),
    );
    snap.push_var("pv", pv);
}

/// Generates the SST-P1F4 analogue: decaying Taylor–Green flow under
/// Boussinesq stratification, with snapshots of `u, v, w, p, r` plus the
/// derived potential vorticity `pv` (the Table-1 cluster variable).
pub fn sst_p1f4(params: &SstParams) -> Dataset {
    let cfg = SpectralConfig {
        n: params.n,
        viscosity: params.viscosity,
        diffusivity: params.viscosity,
        dt: params.dt,
        stratification: Stratification::Boussinesq {
            n_bv: params.n_bv,
            gravity: Axis::Z,
        },
        forcing: None,
    };
    let mut solver = SpectralSolver::new(cfg);
    solver.init_taylor_green(1.0);
    solver.run(params.warmup);
    let meta = DatasetMeta::new(
        "SST-P1F4",
        "3D Taylor-Green time-evolving stratified turbulence (Pr = 1)",
        "pv",
        &["u", "v", "w", "r"],
        &["p"],
    )
    .with_gravity(Axis::Z);
    let mut d = Dataset::new(meta);
    for _ in 0..params.snapshots {
        solver.run(params.interval);
        let mut snap = solver.snapshot();
        add_sst_derived(&mut snap);
        d.push(snap);
    }
    d
}

/// Generates the SST-P1F100 analogue: *forced* stratified turbulence, with
/// snapshots of `u, v, w, p, r` plus the dissipation rate `ee` (the Table-1
/// output variable) and density as the cluster variable.
pub fn sst_p1f100(params: &SstParams) -> Dataset {
    let cfg = SpectralConfig {
        n: params.n,
        viscosity: params.viscosity,
        diffusivity: params.viscosity,
        dt: params.dt,
        stratification: Stratification::Boussinesq {
            n_bv: params.n_bv,
            gravity: Axis::Y,
        },
        forcing: Some(Forcing { k_f: 2.0 }),
    };
    let mut solver = SpectralSolver::new(cfg);
    solver.init_taylor_green(1.0);
    solver.run(params.warmup);
    let meta = DatasetMeta::new(
        "SST-P1F100",
        "3D forced stratified turbulence",
        "r",
        &["u", "v", "w", "r"],
        &["ee"],
    )
    .with_gravity(Axis::Y);
    let mut d = Dataset::new(meta);
    let nu = params.viscosity;
    for _ in 0..params.snapshots {
        solver.run(params.interval);
        let mut snap = solver.snapshot();
        let grid = snap.grid;
        let ee = dissipation(
            &grid,
            snap.expect_var("u"),
            snap.expect_var("v"),
            snap.expect_var("w"),
            nu,
        );
        snap.push_var("ee", ee);
        d.push(snap);
    }
    d
}

/// GESTS generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct GestsParams {
    /// Grid points per side.
    pub n: usize,
    /// Spin-up steps of forced evolution before the snapshot.
    pub spinup: usize,
    /// Time step.
    pub dt: f64,
    /// Kinematic viscosity.
    pub viscosity: f64,
}

impl Default for GestsParams {
    fn default() -> Self {
        GestsParams {
            n: 32,
            spinup: 30,
            dt: 0.01,
            viscosity: 0.02,
        }
    }
}

/// Generates the GESTS analogue: forced isotropic turbulence, one snapshot
/// with `u, v, w, p` plus dissipation `eps` (input) and enstrophy `omega`
/// (the Table-1 cluster variable Ω).
pub fn gests(params: &GestsParams, seed: u64) -> Dataset {
    let cfg = SpectralConfig {
        n: params.n,
        viscosity: params.viscosity,
        diffusivity: params.viscosity,
        dt: params.dt,
        stratification: Stratification::None,
        forcing: Some(Forcing { k_f: 2.5 }),
    };
    let mut solver = SpectralSolver::new(cfg);
    // Start from a synthetic isotropic field for faster spin-up to
    // statistically developed turbulence.
    let syn = synth::generate(
        &SynthConfig {
            nx: params.n,
            ny: params.n,
            nz: params.n,
            spectrum: SpectrumKind::PeakedK4 { k_peak: 3.0 },
            urms: 1.0,
            anisotropy: 0.0,
            ..Default::default()
        },
        seed,
    );
    solver.set_velocity(
        syn.expect_var("u"),
        syn.expect_var("v"),
        syn.expect_var("w"),
    );
    solver.run(params.spinup);
    let mut snap = solver.snapshot();
    let grid = snap.grid;
    let u = snap.expect_var("u").to_vec();
    let v = snap.expect_var("v").to_vec();
    let w = snap.expect_var("w").to_vec();
    let eps = dissipation(&grid, &u, &v, &w, params.viscosity);
    let (wx, wy, wz) = vorticity_3d(&grid, &u, &v, &w);
    let omega = enstrophy(&wx, &wy, &wz);
    snap.push_var("eps", eps);
    snap.push_var("omega", omega);
    let meta = DatasetMeta::new(
        "GESTS",
        "3D forced isotropic turbulence (GESTS analogue)",
        "omega",
        &["u", "v", "w", "eps"],
        &["p"],
    );
    let mut d = Dataset::new(meta);
    d.push(snap);
    d
}

/// Generates a large *synthetic* stratified snapshot (no time stepping) for
/// scalability studies: `u, v, w, r` plus potential vorticity `pv`.
/// This stands in for SST-P1F100's bulk data volume.
pub fn synthetic_sst_snapshot(n: usize, anisotropy: f64, seed: u64) -> Snapshot {
    let cfg = SynthConfig {
        nx: n,
        ny: n,
        nz: n,
        spectrum: SpectrumKind::PeakedK4 { k_peak: 4.0 },
        urms: 1.0,
        anisotropy,
        gravity: Axis::Z,
    };
    let mut snap = synth::generate(&cfg, seed);
    add_sst_derived(&mut snap);
    snap
}

/// Summary row matching the paper's Table 1 layout.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Dataset label.
    pub label: String,
    /// Description.
    pub description: String,
    /// Grid extents.
    pub space: String,
    /// Number of snapshots.
    pub time: usize,
    /// Human-readable size.
    pub size: String,
    /// Cluster variable.
    pub kcv: String,
    /// Input variables.
    pub input: String,
    /// Output variables.
    pub output: String,
}

/// Formats a dataset as a Table-1 row.
pub fn table_row(d: &Dataset) -> TableRow {
    let g = d.grid();
    let space = if g.nz == 1 {
        format!("{}x{}", g.nx, g.ny)
    } else {
        format!("{}x{}x{}", g.nx, g.ny, g.nz)
    };
    TableRow {
        label: d.meta.label.clone(),
        description: d.meta.description.clone(),
        space,
        time: d.num_snapshots(),
        size: d.size_string(),
        kcv: d.meta.cluster_var.clone(),
        input: d.meta.input_vars.join(","),
        output: d.meta.output_vars.join(","),
    }
}

/// Computes per-snapshot mean kinetic energy, a quick sanity diagnostic used
/// by examples and tests.
pub fn mean_kinetic_energy(snap: &Snapshot) -> f64 {
    let u = snap.expect_var("u");
    let ke: f64 = match (snap.var("v"), snap.var("w")) {
        (Some(v), Some(w)) => u
            .par_iter()
            .zip(v.par_iter().zip(w.par_iter()))
            .map(|(a, (b, c))| a * a + b * b + c * c)
            .sum(),
        (Some(v), None) => u
            .par_iter()
            .zip(v.par_iter())
            .map(|(a, b)| a * a + b * b)
            .sum(),
        _ => u.par_iter().map(|a| a * a).sum(),
    };
    0.5 * ke / u.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_of2d() -> Of2dParams {
        Of2dParams {
            lbm: LbmConfig {
                nx: 60,
                ny: 32,
                diameter: 6.0,
                reynolds: 60.0,
                ..Default::default()
            },
            warmup: 100,
            snapshots: 4,
            interval: 20,
        }
    }

    #[test]
    fn of2d_has_drag_per_snapshot() {
        let data = of2d(&tiny_of2d());
        assert_eq!(data.dataset.num_snapshots(), 4);
        assert_eq!(data.drag.len(), 4);
        assert!(data.drag.iter().all(|d| d.is_finite() && *d > 0.0));
        assert_eq!(data.dataset.meta.label, "OF2D");
    }

    #[test]
    fn tc2d_metadata() {
        let d = tc2d(
            &CombustionConfig {
                nx: 32,
                ny: 32,
                ..Default::default()
            },
            1,
        );
        assert_eq!(d.meta.label, "TC2D");
        assert_eq!(d.num_snapshots(), 1);
        assert!(d.snapshots[0].var("C").is_some());
        assert!(d.snapshots[0].var("Cvar").is_some());
    }

    #[test]
    fn sst_p1f4_has_cluster_variable() {
        let params = SstParams {
            n: 16,
            snapshots: 2,
            interval: 3,
            warmup: 3,
            ..Default::default()
        };
        let d = sst_p1f4(&params);
        assert_eq!(d.meta.cluster_var, "pv");
        for s in &d.snapshots {
            assert!(s.var("pv").is_some(), "pv missing");
            assert!(s.var("r").is_some(), "density missing");
        }
        assert_eq!(d.meta.gravity, Some(Axis::Z));
    }

    #[test]
    fn sst_p1f100_has_dissipation_output() {
        let params = SstParams {
            n: 16,
            snapshots: 2,
            interval: 3,
            warmup: 3,
            ..Default::default()
        };
        let d = sst_p1f100(&params);
        assert_eq!(d.meta.output_vars, vec!["ee"]);
        for s in &d.snapshots {
            let ee = s.expect_var("ee");
            assert!(ee.iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    }

    #[test]
    fn gests_snapshot_is_isotropic_with_enstrophy() {
        let d = gests(
            &GestsParams {
                n: 16,
                spinup: 5,
                ..Default::default()
            },
            2,
        );
        assert_eq!(d.num_snapshots(), 1);
        let s = &d.snapshots[0];
        assert!(s.var("omega").is_some());
        assert!(s.expect_var("omega").iter().all(|&v| v >= 0.0));
        assert_eq!(d.meta.cluster_var, "omega");
    }

    #[test]
    fn synthetic_sst_has_pv() {
        let snap = synthetic_sst_snapshot(16, 3.0, 9);
        assert!(snap.var("pv").is_some());
        assert_eq!(snap.grid.nx, 16);
    }

    #[test]
    fn table_row_formats() {
        let d = tc2d(
            &CombustionConfig {
                nx: 32,
                ny: 32,
                ..Default::default()
            },
            1,
        );
        let row = table_row(&d);
        assert_eq!(row.space, "32x32");
        assert_eq!(row.time, 1);
        assert_eq!(row.input, "C,Cvar");
    }

    #[test]
    fn kinetic_energy_positive_for_turbulent_fields() {
        let snap = synthetic_sst_snapshot(16, 2.0, 1);
        assert!(mean_kinetic_energy(&snap) > 0.0);
    }
}
