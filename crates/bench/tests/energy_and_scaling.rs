//! Integration tests for energy accounting across crates and executor ↔
//! simulator consistency.

use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingConfig};
use sickle_energy::{cost_to_train, EnergyMeter, MachineModel};
use sickle_field::{Grid3, Snapshot};
use sickle_hpc::executor::run_with_ranks;
use sickle_hpc::simulator::ClusterModel;

fn snapshot(n: usize) -> Snapshot {
    let grid = Grid3::new(n, n, n, 1.0, 1.0, 1.0);
    let q: Vec<f64> = (0..grid.len())
        .map(|i| ((i * 2654435761) % 997) as f64 * 0.01 + if i % 173 == 0 { 7.0 } else { 0.0 })
        .collect();
    Snapshot::new(grid, 0.0).with_var("q", q)
}

fn config() -> SamplingConfig {
    SamplingConfig {
        hypercubes: CubeMethod::Random,
        num_hypercubes: 8,
        cube_edge: 8,
        method: PointMethod::MaxEnt {
            num_clusters: 6,
            bins: 32,
        },
        num_samples: 51,
        cluster_var: "q".to_string(),
        feature_vars: vec!["q".to_string()],
        seed: 5,
        temporal: sickle_core::pipeline::TemporalMethod::All,
    }
}

#[test]
fn executor_output_matches_pipeline_budget() {
    let snap = snapshot(16);
    let cfg = config();
    let t = run_with_ranks(&snap, &cfg, 2);
    assert_eq!(t.points_out, 8 * 51);
    // The serial pipeline retains the same number of points.
    let mut d =
        sickle_field::Dataset::new(sickle_field::DatasetMeta::new("T", "t", "q", &["q"], &[]));
    d.push(snap);
    let out = run_dataset(&d, &cfg);
    assert_eq!(out.total_points(), t.points_out);
}

#[test]
fn simulator_calibration_is_self_consistent() {
    // Calibrate the model from a synthetic measurement and verify it
    // reproduces it, then check monotonicity in ranks until comm dominates.
    let model = ClusterModel::calibrated(4.0, 64, 512);
    let t1 = model.time(64, 512, 51, 1);
    assert!((t1 - 4.0).abs() < 1e-9);
    let mut prev = t1;
    for r in [2usize, 4, 8, 16, 32, 64] {
        let t = model.time(64, 512, 51, r);
        assert!(
            t <= prev * 1.01,
            "time must not grow before the knee: {t} at {r}"
        );
        prev = t;
    }
}

#[test]
fn nn_flops_flow_into_energy_meter() {
    use rand::{rngs::StdRng, SeedableRng};
    use sickle_nn::{flops, layers::Linear, ParamStore, Tape};
    let meter = EnergyMeter::new(MachineModel::frontier_gcd());
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let layer = Linear::new(&mut store, 32, 32, &mut rng);
    flops::reset();
    let mut tape = Tape::new();
    let x = tape.zeros((16, 32));
    let _ = layer.forward(&mut tape, &store, x);
    meter.record_flops(flops::reset());
    // 16x32 @ 32x32 matmul = 2*16*32*32 flops plus bias adds.
    assert!(meter.flops() >= 2 * 16 * 32 * 32);
    assert!(meter.report().total_joules() > 0.0);
}

#[test]
fn eq3_predicts_more_samples_cost_more() {
    let m = MachineModel::frontier_gcd();
    let small = cost_to_train(0.0, 1_000, 50_000, 100, 6.0, &m);
    let large = cost_to_train(0.0, 10_000, 50_000, 100, 6.0, &m);
    assert!((large / small - 10.0).abs() < 1e-9);
}

#[test]
fn sampling_energy_is_tiny_next_to_dense_training() {
    // The amortization claim behind Fig. 8: curating 10% costs less than
    // the training savings it buys.
    let m_cpu = MachineModel::frontier_cpu_rank();
    let m_gpu = MachineModel::frontier_gcd();
    let points = 1_000_000u64;
    let sampling = {
        let meter = EnergyMeter::new(m_cpu);
        meter.record_flops(points * 4 * 2 * 20); // cluster pass
        meter.record_bytes(points * 4 * 8);
        meter.report().total_joules()
    };
    let full_training = cost_to_train(0.0, 1_000_000, 100_000, 1000, 6.0, &m_gpu);
    let sub_training = cost_to_train(sampling, 100_000, 100_000, 1000, 6.0, &m_gpu);
    assert!(
        sub_training < 0.25 * full_training,
        "sub {sub_training} vs full {full_training}"
    );
}

#[test]
fn rank_quantization_creates_plateau() {
    // With fewer cubes than ranks, extra ranks cannot help — the knee
    // mechanism of Fig. 7, on the *real* executor.
    let snap = snapshot(16);
    let mut cfg = config();
    cfg.num_hypercubes = 2;
    let t2 = run_with_ranks(&snap, &cfg, 2);
    let t8 = run_with_ranks(&snap, &cfg, 8);
    assert_eq!(t2.points_out, t8.points_out);
    let busy8 = t8.cubes_per_rank.iter().filter(|&&c| c > 0).count();
    assert_eq!(busy8, 2, "only two ranks can ever be busy");
}
