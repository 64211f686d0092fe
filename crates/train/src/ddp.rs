//! Distributed-data-parallel training analogue (`torch.distributed`
//! stand-in, paper §5.1).
//!
//! `world` replicas run on OS threads. Each step: replicas pull the master
//! weights, compute gradients on their shard of the batch, and the flat
//! gradients are all-reduced (averaged) into the master before the
//! optimizer step — exactly PyTorch DDP's synchronous data-parallel
//! semantics, with the NCCL ring replaced by an in-memory reduction.
//! Results are bitwise-deterministic for a fixed world size and seed.

use sickle_energy::MachineModel;
use sickle_nn::Tape;

use crate::data::{Batch, TensorData};
use crate::models::Model;
use crate::trainer::{backward_into_store, run_epochs, TrainConfig, TrainResult};

/// Splits a batch into up to `world` contiguous shards (empty shards are
/// dropped, so tiny batches degrade gracefully to fewer workers).
pub fn shard_batch(batch: &Batch, world: usize) -> Vec<Batch> {
    let b = batch.shape.batch;
    let world = world.max(1);
    let per_tok = batch.shape.tokens * batch.shape.features;
    let mut shards = Vec::new();
    let base = b / world;
    let extra = b % world;
    let mut start = 0;
    for w in 0..world {
        let take = base + usize::from(w < extra);
        if take == 0 {
            continue;
        }
        let inputs = batch.inputs[start * per_tok..(start + take) * per_tok].to_vec();
        let targets = batch.targets
            [start * batch.shape.outputs..(start + take) * batch.shape.outputs]
            .to_vec();
        let mut shape = batch.shape;
        shape.batch = take;
        shards.push(Batch {
            inputs,
            targets,
            shape,
        });
        start += take;
    }
    shards
}

/// All-reduce: averages flat gradient vectors elementwise.
pub fn allreduce_mean(grads: &[Vec<f32>]) -> Vec<f32> {
    assert!(!grads.is_empty(), "no gradients to reduce");
    let n = grads[0].len();
    let mut out = vec![0.0f32; n];
    for g in grads {
        assert_eq!(g.len(), n, "gradient length mismatch across replicas");
        for (o, &v) in out.iter_mut().zip(g) {
            *o += v;
        }
    }
    let inv = 1.0 / grads.len() as f32;
    out.iter_mut().for_each(|v| *v *= inv);
    out
}

/// Data-parallel training over `world` thread replicas.
///
/// The master model owns the optimizer state; replicas are synchronized
/// from it at each step (DDP broadcast), then gradients are averaged back.
/// Everything around that step is [`crate::trainer::train`]'s own epoch
/// loop, so `world = 1` reproduces it by construction.
pub fn train_ddp<M>(
    model: &mut M,
    data: &TensorData,
    cfg: &TrainConfig,
    world: usize,
    machine: MachineModel,
) -> TrainResult
where
    M: Model + Clone + Sync,
{
    let world = world.max(1);
    // Gradient all-reduce moves one full gradient vector per replica.
    let allreduce_bytes = (model.num_params() * std::mem::size_of::<f32>()) as u64;
    let mut replicas: Vec<M> = (0..world).map(|_| model.clone()).collect();
    // One arena-reused tape per replica, living across all batches and
    // epochs (the loop's own tape serves evaluation).
    let mut tapes: Vec<Tape> = (0..world).map(|_| Tape::new()).collect();

    run_epochs(model, data, cfg, machine, |model, _eval_tape, batch| {
        let shards = shard_batch(batch, world);
        // Broadcast current master weights.
        for r in replicas.iter_mut() {
            r.store_mut().copy_values_from(model.store());
            r.store_mut().zero_grads();
        }
        // Parallel backward per shard.
        let active = shards.len();
        let results: Vec<(f32, Vec<f32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = replicas[..active]
                .iter_mut()
                .zip(tapes[..active].iter_mut())
                .zip(shards.iter())
                .map(|((replica, tape), shard)| {
                    scope.spawn(move || {
                        let loss = backward_into_store(replica, tape, shard);
                        (loss, replica.store().flat_grads())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica thread panicked"))
                .collect()
        });
        let mean_loss = results.iter().map(|(l, _)| *l as f64).sum::<f64>() / results.len() as f64;
        let grads: Vec<Vec<f32>> = results.into_iter().map(|(_, g)| g).collect();
        model.store_mut().set_flat_grads(&allreduce_mean(&grads));
        (mean_loss, allreduce_bytes * active as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::BatchShape;
    use crate::models::LstmModel;
    use crate::trainer::train;

    fn toy_data(n: usize) -> TensorData {
        let tokens = 2;
        let features = 3;
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let mut sum = 0.0f32;
            for t in 0..tokens {
                for f in 0..features {
                    let v = (((i * 5 + t * 2 + f) % 11) as f32) * 0.1 - 0.5;
                    inputs.push(v);
                    sum += v;
                }
            }
            targets.push(sum);
        }
        TensorData::new(inputs, targets, tokens, features, 1)
    }

    #[test]
    fn shard_batch_partitions_exactly() {
        let batch = Batch {
            inputs: (0..10 * 6).map(|i| i as f32).collect(),
            targets: (0..10).map(|i| i as f32).collect(),
            shape: BatchShape {
                batch: 10,
                tokens: 2,
                features: 3,
                outputs: 1,
            },
        };
        let shards = shard_batch(&batch, 4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.shape.batch).sum();
        assert_eq!(total, 10);
        // First shards get the remainder.
        assert_eq!(shards[0].shape.batch, 3);
        assert_eq!(shards[3].shape.batch, 2);
        // Values preserved in order.
        assert_eq!(shards[0].targets, vec![0.0, 1.0, 2.0]);
        assert_eq!(shards[3].targets, vec![8.0, 9.0]);
    }

    #[test]
    fn shard_batch_drops_empty_shards() {
        let batch = Batch {
            inputs: vec![0.0; 2 * 6],
            targets: vec![0.0; 2],
            shape: BatchShape {
                batch: 2,
                tokens: 2,
                features: 3,
                outputs: 1,
            },
        };
        let shards = shard_batch(&batch, 8);
        assert_eq!(shards.len(), 2);
    }

    #[test]
    fn allreduce_mean_averages() {
        let g = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(allreduce_mean(&g), vec![2.0, 3.0]);
    }

    #[test]
    fn ddp_matches_single_worker_training() {
        let _serial = crate::flops_serial();
        // world=1 DDP must match the plain trainer exactly (same seeds).
        let data = toy_data(24);
        let cfg = TrainConfig {
            epochs: 4,
            batch: 8,
            ..Default::default()
        };
        let mut m1 = LstmModel::new(3, 8, 1, 7);
        let r1 = train(&mut m1, &data, &cfg, MachineModel::frontier_gcd());
        let mut m2 = LstmModel::new(3, 8, 1, 7);
        let r2 = train_ddp(&mut m2, &data, &cfg, 1, MachineModel::frontier_gcd());
        assert_eq!(r1.train_loss, r2.train_loss);
        assert_eq!(r1.test_loss, r2.test_loss);
    }

    #[test]
    fn ddp_multiworker_converges() {
        let _serial = crate::flops_serial();
        let data = toy_data(32);
        let cfg = TrainConfig {
            epochs: 15,
            batch: 8,
            lr: 0.01,
            ..Default::default()
        };
        let mut model = LstmModel::new(3, 8, 1, 1);
        let res = train_ddp(&mut model, &data, &cfg, 4, MachineModel::frontier_gcd());
        assert!(res.train_loss[14] < res.train_loss[0]);
        assert!(res.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn ddp_is_deterministic() {
        let _serial = crate::flops_serial();
        let data = toy_data(16);
        let cfg = TrainConfig {
            epochs: 3,
            batch: 8,
            ..Default::default()
        };
        let mut a = LstmModel::new(3, 8, 1, 2);
        let ra = train_ddp(&mut a, &data, &cfg, 3, MachineModel::frontier_gcd());
        let mut b = LstmModel::new(3, 8, 1, 2);
        let rb = train_ddp(&mut b, &data, &cfg, 3, MachineModel::frontier_gcd());
        assert_eq!(ra.test_loss, rb.test_loss);
    }

    #[test]
    fn ddp_records_allreduce_traffic() {
        let _serial = crate::flops_serial();
        let data = toy_data(16);
        let cfg = TrainConfig {
            epochs: 2,
            batch: 8,
            ..Default::default()
        };
        let mut m1 = LstmModel::new(3, 8, 1, 0);
        let r1 = train_ddp(&mut m1, &data, &cfg, 1, MachineModel::frontier_gcd());
        let mut m4 = LstmModel::new(3, 8, 1, 0);
        let r4 = train_ddp(&mut m4, &data, &cfg, 4, MachineModel::frontier_gcd());
        assert!(
            r4.energy.bytes > r1.energy.bytes,
            "more replicas => more traffic"
        );
    }
}
