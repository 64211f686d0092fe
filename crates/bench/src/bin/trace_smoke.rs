//! `trace_smoke` — small instrumented end-to-end run for trace validation:
//!
//! ```sh
//! SICKLE_TRACE=trace.json trace_smoke
//! ```
//!
//! Exercises all four instrumented layers at toy scale — one snapshot of
//! SST-P1F4 through the sampling pipeline, the same snapshot through the
//! 2-rank executor, a handful of pseudo-spectral steps, and a tiny LSTM
//! training run — so the emitted trace contains spans from
//! `sample.*`, `hpc.*`, `cfd.*`, and `train.*`. CI pipes the result into
//! `trace_validate`.

use sickle_bench::cases::{sampling_config, DatasetSpec};
use sickle_cfd::spectral::{SpectralConfig, SpectralSolver};
use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod};
use sickle_hpc::executor::run_with_ranks;
use sickle_train::data::TensorData;
use sickle_train::models::LstmModel;
use sickle_train::trainer::{train, TrainConfig};

fn main() {
    let _obs = sickle_bench::obs_init();

    // Sampling pipeline (sample.* spans, rayon phase-2 workers).
    let sst = DatasetSpec::SST_P1F4_TABLE.build();
    let cfg = sampling_config(
        &sst,
        CubeMethod::MaxEnt,
        PointMethod::MaxEnt {
            num_clusters: 5,
            bins: 32,
        },
        4,
        8,
        7,
    );
    let out = run_dataset(&sst, &cfg);
    sickle_obs::info!(
        "trace_smoke",
        "sampled {} points from {} cubes",
        out.stats.points_out,
        out.stats.cubes_selected
    );

    // Rank executor (hpc.* spans across std::thread::scope threads).
    let snap = sst.snapshots.last().unwrap();
    let timing = run_with_ranks(snap, &cfg, 2);
    sickle_obs::info!(
        "trace_smoke",
        "2-rank run: {:.3}s, imbalance {:.2}",
        timing.elapsed_secs,
        timing.imbalance()
    );

    // Pseudo-spectral solver (cfd.* spans per substep).
    let mut solver = SpectralSolver::new(SpectralConfig {
        n: 16,
        ..Default::default()
    });
    solver.init_taylor_green(1.0);
    solver.run(3);
    sickle_obs::info!(
        "trace_smoke",
        "stepped spectral solver to t={:.2}",
        3.0 * 0.01
    );

    // Trainer (train.* spans with loss/grad-norm gauges).
    let tokens = 3;
    let features = 2;
    let n = 32;
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for i in 0..n {
        let mut sum = 0.0f32;
        for t in 0..tokens {
            for f in 0..features {
                let v = (((i * 7 + t * 3 + f) % 13) as f32) * 0.1 - 0.6;
                inputs.push(v);
                sum += v;
            }
        }
        targets.push(sum / (tokens * features) as f32);
    }
    let data = TensorData::new(inputs, targets, tokens, features, 1);
    let mut model = LstmModel::new(features, 8, 1, 0);
    let tcfg = TrainConfig {
        epochs: 3,
        batch: 8,
        ..Default::default()
    };
    let res = train(
        &mut model,
        &data,
        &tcfg,
        sickle_energy::MachineModel::frontier_gcd(),
    );
    sickle_obs::info!(
        "trace_smoke",
        "trained 3 epochs, final test loss {:.4}",
        res.final_test()
    );
}
