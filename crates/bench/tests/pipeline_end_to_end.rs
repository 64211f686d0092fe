//! End-to-end integration: CFD substrate → two-phase sampling → compact
//! storage → training — the full `subsample.py`/`train.py` workflow at
//! miniature scale.

use sickle_cfd::datasets::{self, SstParams};
use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingConfig};
use sickle_energy::MachineModel;
use sickle_store::{ShardStore, StoreConfig};
use sickle_train::data::{drag_windows, reconstruction_data};
use sickle_train::models::{LstmModel, TokenTransformer};
use sickle_train::trainer::{train, TrainConfig};

fn tiny_sst() -> sickle_field::Dataset {
    datasets::sst_p1f4(&SstParams {
        n: 16,
        snapshots: 3,
        interval: 3,
        warmup: 4,
        ..Default::default()
    })
}

fn maxent_config() -> SamplingConfig {
    SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes: 4,
        cube_edge: 8,
        method: PointMethod::MaxEnt {
            num_clusters: 8,
            bins: 40,
        },
        num_samples: 51,
        cluster_var: "pv".into(),
        feature_vars: vec!["u".into(), "v".into(), "w".into(), "r".into()],
        seed: 0,
        temporal: sickle_core::pipeline::TemporalMethod::All,
    }
}

#[test]
fn cfd_to_sampling_to_training_reconstruction() {
    let dataset = tiny_sst();
    let out = run_dataset(&dataset, &maxent_config());
    assert_eq!(out.sets.len(), 3);
    assert_eq!(out.total_points(), 3 * 4 * 51);

    // Train a small MLP-Transformer to reconstruct pressure from samples.
    let sets: Vec<_> = out.sets.iter().flatten().cloned().collect();
    let mut tensor = reconstruction_data(&sets, &dataset.snapshots, 8, "p", 16);
    tensor.standardize();
    let mut model =
        TokenTransformer::mlp_transformer(16, tensor.features, 16, 1, tensor.outputs, 0);
    let cfg = TrainConfig {
        epochs: 8,
        batch: 4,
        test_frac: 0.2,
        ..Default::default()
    };
    let res = train(&mut model, &tensor, &cfg, MachineModel::frontier_gcd());
    assert!(res.train_loss.iter().all(|l| l.is_finite()));
    assert!(res.train_loss.last().unwrap() < res.train_loss.first().unwrap());
    assert!(res.energy.flops > 0);
}

#[test]
fn storage_reduction_matches_retention() {
    let dataset = tiny_sst();
    let out = run_dataset(&dataset, &maxent_config());
    let root = std::env::temp_dir().join(format!("sickle_e2e_store_{}", std::process::id()));
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
    let sparse = store.manifest().total_bytes();
    let dense = dataset.nbytes();
    drop(store);
    std::fs::remove_dir_all(&root).ok();
    // 4 cubes * 512 points = 2048 of 4096 points considered; 51/512 kept.
    // What the store persists must be well under a quarter of dense.
    assert!(sparse * 4 < dense, "sparse {sparse} vs dense {dense}");
}

#[test]
fn of2d_to_drag_training() {
    let data = datasets::of2d(&datasets::Of2dParams {
        lbm: sickle_cfd::LbmConfig {
            nx: 80,
            ny: 32,
            diameter: 6.0,
            reynolds: 100.0,
            ..Default::default()
        },
        warmup: 300,
        snapshots: 12,
        interval: 20,
    });
    // Uniform point sets per snapshot (test exercises drag_windows + LSTM).
    let sets: Vec<_> = data
        .dataset
        .snapshots
        .iter()
        .enumerate()
        .map(|(si, snap)| {
            let vars = vec!["u".to_string(), "v".to_string()];
            let tiling = sickle_field::Tiling::new(snap.grid, (snap.grid.nx, snap.grid.ny, 1));
            let (features, indices) = tiling.extract(snap, 0, &vars);
            let keep: Vec<usize> = (0..features.len()).step_by(40).collect();
            sickle_field::SampleSet::new(
                features.gather(&keep),
                keep.iter().map(|&k| indices[k]).collect(),
                snap.time,
                si,
            )
        })
        .collect();
    let mut tensor = drag_windows(&sets, &data.drag, 2, 16);
    tensor.standardize();
    let mut model = LstmModel::new(tensor.features, 8, 1, 0);
    let cfg = TrainConfig {
        epochs: 10,
        batch: 4,
        test_frac: 0.2,
        ..Default::default()
    };
    let res = train(&mut model, &tensor, &cfg, MachineModel::frontier_gcd());
    assert!(res.best_test.is_finite());
    assert_eq!(res.train_loss.len(), 10);
}

#[test]
fn all_point_methods_run_on_real_data() {
    let dataset = tiny_sst();
    for method in [
        PointMethod::Full,
        PointMethod::Random,
        PointMethod::MaxEnt {
            num_clusters: 8,
            bins: 40,
        },
        PointMethod::Uips { bins_per_dim: 8 },
    ] {
        let mut cfg = maxent_config();
        cfg.method = method;
        let out = run_dataset(&dataset, &cfg);
        let expect = if matches!(method, PointMethod::Full) {
            512
        } else {
            51
        };
        for set in out.sets.iter().flatten() {
            assert_eq!(set.len(), expect, "method {:?}", method);
        }
    }
}
