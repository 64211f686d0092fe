//! Fast integration checks of the paper's qualitative claims — miniature
//! versions of the figure experiments, pinned as regression tests so the
//! reproduction's *shape* cannot silently drift.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_cfd::datasets;
use sickle_core::metrics::pdf_reports;
use sickle_core::samplers::{MaxEntSampler, PointSampler, RandomSampler};
use sickle_core::uips::phase_space_cov;
use sickle_core::UipsSampler;
use sickle_field::Tiling;

/// Claim (Figs. 1/3/5): MaxEnt over-covers distribution tails relative to
/// random sampling on anisotropic data.
#[test]
fn maxent_covers_tails_better_than_random() {
    let snap = datasets::synthetic_sst_snapshot(16, 3.0, 1);
    let vars = vec!["u".into(), "v".into(), "w".into(), "pv".into()];
    let tiling = Tiling::new(snap.grid, (16, 16, 16));
    let (features, _) = tiling.extract(&snap, 0, &vars);
    let budget = features.len() / 10;
    let mut rng = StdRng::seed_from_u64(0);
    let maxent = MaxEntSampler {
        num_clusters: 10,
        bins: 64,
        ..Default::default()
    }
    .select(&features, 3, budget, &mut rng);
    let mut rng = StdRng::seed_from_u64(0);
    let random = RandomSampler.select(&features, 3, budget, &mut rng);
    // Tail coverage of the cluster variable (pv, heavy-tailed).
    let tail_of = |idx: &[usize]| pdf_reports(&features, idx, 64)[3].tail_coverage_ratio;
    let t_max = tail_of(&maxent);
    let t_rnd = tail_of(&random);
    assert!(
        t_max > 1.5 * t_rnd,
        "maxent tail {t_max:.2} vs random {t_rnd:.2}"
    );
}

/// Claim (Fig. 4): UIPS achieves more uniform phase-space coverage than
/// random on a low-dimensional manifold.
#[test]
fn uips_phase_space_uniformity_on_tc2d() {
    let d = datasets::tc2d(
        &sickle_cfd::CombustionConfig {
            nx: 64,
            ny: 64,
            ..Default::default()
        },
        2,
    );
    let snap = &d.snapshots[0];
    let vars = vec!["C".into(), "Cvar".into()];
    let tiling = Tiling::new(snap.grid, (64, 64, 1));
    let (features, _) = tiling.extract(snap, 0, &vars);
    let budget = features.len() / 10;
    let mut rng = StdRng::seed_from_u64(3);
    let uips = UipsSampler::default().select(&features, 0, budget, &mut rng);
    let mut rng = StdRng::seed_from_u64(3);
    let random = RandomSampler.select(&features, 0, budget, &mut rng);
    let cov_u = phase_space_cov(&features, &uips, 10);
    let cov_r = phase_space_cov(&features, &random, 10);
    assert!(
        cov_u < 0.8 * cov_r,
        "UIPS CoV {cov_u:.3} vs random {cov_r:.3}"
    );
}

/// Claim (Fig. 7): a small dataset's scaling plateaus where a large one
/// keeps scaling (knee ordering).
#[test]
fn scaling_knee_orders_by_dataset_size() {
    use sickle_hpc::simulator::{knee_point, ClusterModel};
    let m = ClusterModel::frontier();
    let ranks: Vec<usize> = (0..10).map(|i| 1usize << i).collect();
    let small = m.strong_scaling(12, 32_768, 3_277, &ranks);
    let large = m.strong_scaling(4096, 32_768, 16_384, &ranks);
    assert!(knee_point(&large, 0.5) > knee_point(&small, 0.5));
    let s_small = small.iter().map(|p| p.speedup).fold(0.0, f64::max);
    let s_large = large.iter().map(|p| p.speedup).fold(0.0, f64::max);
    assert!(s_small < 15.0, "small plateau {s_small}");
    assert!(s_large > 100.0, "large peak {s_large}");
}

/// Claim (Eq. 3 / Fig. 8 mechanism): training energy scales with the sample
/// count, so a 10% subset trains with roughly a tenth of the energy.
#[test]
fn subsampling_reduces_training_energy_proportionally() {
    use sickle_energy::MachineModel;
    use sickle_train::data::TensorData;
    use sickle_train::models::LstmModel;
    use sickle_train::trainer::{train, TrainConfig};
    let make = |n: usize| {
        TensorData::new(
            (0..n * 6).map(|i| (i % 13) as f32 * 0.1).collect(),
            (0..n).map(|i| (i % 7) as f32 * 0.1).collect(),
            2,
            3,
            1,
        )
    };
    let cfg = TrainConfig {
        epochs: 3,
        batch: 8,
        ..Default::default()
    };
    let full = train(
        &mut LstmModel::new(3, 8, 1, 0),
        &make(200),
        &cfg,
        MachineModel::frontier_gcd(),
    );
    let sub = train(
        &mut LstmModel::new(3, 8, 1, 0),
        &make(20),
        &cfg,
        MachineModel::frontier_gcd(),
    );
    let ratio = full.energy.total_joules() / sub.energy.total_joules();
    assert!((5.0..20.0).contains(&ratio), "energy ratio {ratio}");
}

/// Claim (§2/§6): the synthetic stratified substrate really is anisotropic
/// and the isotropic one is not — the property the whole MaxEnt-vs-GESTS
/// contrast rests on.
#[test]
fn stratified_substrate_is_anisotropic_isotropic_is_not() {
    use sickle_field::derived::partial;
    use sickle_field::{Axis, SummaryStats};
    let strat = datasets::synthetic_sst_snapshot(16, 4.0, 5);
    let gz = SummaryStats::of(&partial(&strat.grid, strat.expect_var("r"), Axis::Z)).std();
    let gx = SummaryStats::of(&partial(&strat.grid, strat.expect_var("r"), Axis::X)).std();
    assert!(gz > 1.3 * gx, "stratified: z-grad {gz} vs x-grad {gx}");

    let iso = sickle_cfd::synth::generate(
        &sickle_cfd::SynthConfig {
            nx: 16,
            ny: 16,
            nz: 16,
            anisotropy: 0.0,
            ..Default::default()
        },
        5,
    );
    let gz = SummaryStats::of(&partial(&iso.grid, iso.expect_var("u"), Axis::Z)).std();
    let gx = SummaryStats::of(&partial(&iso.grid, iso.expect_var("u"), Axis::X)).std();
    let ratio = gz / gx;
    assert!(
        (0.6..1.6).contains(&ratio),
        "isotropic gradient ratio {ratio}"
    );
}
