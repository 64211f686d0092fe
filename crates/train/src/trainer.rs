//! The epoch loop: Adam + ReduceLROnPlateau, train/test split, batch
//! shuffling and FLOP-based energy metering — the Rust analogue of
//! `train.py`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_energy::{EnergyMeter, EnergyReport, MachineModel};
use sickle_nn::optim::{Adam, ReduceLrOnPlateau};
use sickle_nn::{flops, Tape};

use crate::data::TensorData;
use crate::models::Model;

/// Training hyperparameters (paper §5.2: 1000 epochs, lr 1e-3, plateau
/// patience 20, batch 16, 90:10 split — scaled down by the figure drivers).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Plateau patience in epochs.
    pub patience: usize,
    /// Test fraction of the data.
    pub test_frac: f64,
    /// Shuffle/split seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch: 16,
            lr: 1e-3,
            patience: 20,
            test_frac: 0.1,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainResult {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Test loss per epoch.
    pub test_loss: Vec<f32>,
    /// Best (minimum) test loss seen — the paper's "Evaluation on test set".
    pub best_test: f32,
    /// Modeled energy for the run.
    pub energy: EnergyReport,
    /// Scalar parameter count of the model.
    pub params: usize,
    /// Training samples used.
    pub samples: usize,
}

impl TrainResult {
    /// Final-epoch test loss.
    pub fn final_test(&self) -> f32 {
        *self.test_loss.last().unwrap_or(&f32::NAN)
    }
}

/// Trains `model` on `data`, metering energy on `machine`.
///
/// Bytes are accounted as one read of inputs+targets per epoch plus one
/// parameter read/write per optimizer step (the dominant data motions).
pub fn train(
    model: &mut dyn Model,
    data: &TensorData,
    cfg: &TrainConfig,
    machine: MachineModel,
) -> TrainResult {
    let (train_set, test_set) = data.split(cfg.test_frac, cfg.seed);
    let _run_span = sickle_obs::span!(
        "train.run",
        epochs = cfg.epochs,
        samples = train_set.n,
        params = model.num_params()
    );
    let meter = EnergyMeter::new(machine);
    let mut opt = Adam::new(cfg.lr);
    let mut sched = ReduceLrOnPlateau::new(cfg.patience);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
    let test_batch = test_set.full_batch();
    let mut train_losses = Vec::with_capacity(cfg.epochs);
    let mut test_losses = Vec::with_capacity(cfg.epochs);
    let mut best = f32::INFINITY;
    flops::reset();
    let epoch_bytes =
        ((train_set.inputs.len() + train_set.targets.len()) * std::mem::size_of::<f32>()) as u64;
    let step_param_bytes = (model.num_params() * 2 * std::mem::size_of::<f32>()) as u64;
    // One tape for the whole run: `reset()` recycles every buffer through
    // the arena, so steady-state steps allocate nothing tensor-sized.
    let mut tape = Tape::new();

    for epoch in 0..cfg.epochs {
        let _epoch_span = sickle_obs::span!("train.epoch", epoch = epoch);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut grad_norm = f64::NAN;
        for batch in train_set.batches(cfg.batch, &mut rng) {
            tape.reset();
            let loss = model.loss_on_batch(&mut tape, &batch);
            epoch_loss += tape.value(loss)[0] as f64;
            tape.backward(loss);
            tape.accumulate_grads(model.store_mut());
            batches += 1;
            // Gradient L2 norm of the epoch's last batch — only computed
            // while tracing, so the untraced hot loop pays nothing.
            if sickle_obs::enabled() {
                let sq: f64 = model
                    .store()
                    .iter()
                    .flat_map(|p| p.grad.iter())
                    .map(|&g| g as f64 * g as f64)
                    .sum();
                grad_norm = sq.sqrt();
            }
            opt.step(model.store_mut());
            model.store_mut().zero_grads();
            meter.record_bytes(step_param_bytes);
        }
        meter.record_bytes(epoch_bytes);
        let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
        let test_loss = model.eval_loss_with(&mut tape, &test_batch);
        best = best.min(test_loss);
        opt.lr = sched.observe(test_loss, opt.lr);
        sickle_obs::gauge!("train.loss", train_loss);
        sickle_obs::gauge!("train.test_loss", test_loss);
        if grad_norm.is_finite() {
            sickle_obs::gauge!("train.grad_norm", grad_norm);
        }
        sickle_obs::debug!(
            "train",
            "epoch {epoch}: train {train_loss:.6} test {test_loss:.6} lr {:.2e}",
            opt.lr
        );
        train_losses.push(train_loss);
        test_losses.push(test_loss);
    }
    meter.record_flops(flops::reset());
    TrainResult {
        train_loss: train_losses,
        test_loss: test_losses,
        best_test: best,
        energy: meter.report(),
        params: model.num_params(),
        samples: train_set.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::LstmModel;

    fn linear_sequence_data(n: usize) -> TensorData {
        // Target = mean of the window's inputs (learnable quickly).
        let tokens = 3;
        let features = 2;
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
        TensorData::new(inputs, targets, tokens, features, 1)
    }

    #[test]
    fn training_reduces_loss_and_meters_energy() {
        let _serial = crate::flops_serial();
        let data = linear_sequence_data(40);
        let mut model = LstmModel::new(2, 8, 1, 0);
        let cfg = TrainConfig {
            epochs: 30,
            batch: 8,
            lr: 0.01,
            ..Default::default()
        };
        let res = train(&mut model, &data, &cfg, MachineModel::frontier_gcd());
        assert_eq!(res.train_loss.len(), 30);
        assert!(
            res.train_loss[29] < res.train_loss[0],
            "{:?}",
            &res.train_loss[..3]
        );
        assert!(res.best_test <= res.test_loss[0]);
        assert!(res.energy.flops > 0, "energy metering must see FLOPs");
        assert!(res.energy.total_joules() > 0.0);
        assert_eq!(res.samples, 36); // 90% of 40
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let _serial = crate::flops_serial();
        let data = linear_sequence_data(20);
        let cfg = TrainConfig {
            epochs: 5,
            batch: 4,
            ..Default::default()
        };
        let r1 = train(
            &mut LstmModel::new(2, 8, 1, 3),
            &data,
            &cfg,
            MachineModel::frontier_gcd(),
        );
        let r2 = train(
            &mut LstmModel::new(2, 8, 1, 3),
            &data,
            &cfg,
            MachineModel::frontier_gcd(),
        );
        assert_eq!(r1.train_loss, r2.train_loss);
        assert_eq!(r1.test_loss, r2.test_loss);
    }

    #[test]
    fn more_epochs_cost_more_energy() {
        let _serial = crate::flops_serial();
        let data = linear_sequence_data(20);
        let cfg_short = TrainConfig {
            epochs: 3,
            batch: 4,
            ..Default::default()
        };
        let cfg_long = TrainConfig {
            epochs: 9,
            batch: 4,
            ..Default::default()
        };
        let e_short = train(
            &mut LstmModel::new(2, 8, 1, 0),
            &data,
            &cfg_short,
            MachineModel::frontier_gcd(),
        );
        let e_long = train(
            &mut LstmModel::new(2, 8, 1, 0),
            &data,
            &cfg_long,
            MachineModel::frontier_gcd(),
        );
        let ratio = e_long.energy.total_joules() / e_short.energy.total_joules();
        assert!((ratio - 3.0).abs() < 0.5, "energy ratio {ratio}");
    }

    #[test]
    fn fewer_samples_cost_less_energy() {
        let _serial = crate::flops_serial();
        // The paper's core efficiency claim at the trainer level.
        let small = linear_sequence_data(10);
        let large = linear_sequence_data(100);
        let cfg = TrainConfig {
            epochs: 5,
            batch: 8,
            ..Default::default()
        };
        let e_small = train(
            &mut LstmModel::new(2, 8, 1, 0),
            &small,
            &cfg,
            MachineModel::frontier_gcd(),
        );
        let e_large = train(
            &mut LstmModel::new(2, 8, 1, 0),
            &large,
            &cfg,
            MachineModel::frontier_gcd(),
        );
        assert!(
            e_small.energy.total_joules() < 0.3 * e_large.energy.total_joules(),
            "small {} vs large {}",
            e_small.energy.total_joules(),
            e_large.energy.total_joules()
        );
    }
}
