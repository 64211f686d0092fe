//! # sickle-train
//!
//! Training pipelines for the reproduction — the Rust analogue of the
//! paper's `train.py`:
//!
//! - [`data`] turns sampler outputs ([`sickle_core`] sample sets) and dense
//!   snapshots into batched tensors for the three learning problems of
//!   paper §5.1: *sample-single* (global drag prediction), *sample-full*
//!   (sparse-to-dense reconstruction), and *full-full* (dense hypercube
//!   prediction).
//! - [`models`] implements Table 2's architectures over `sickle-nn`: the
//!   LSTM regressor, the MLP-Transformer, the CNN-Transformer (Conv3D
//!   realized as equivalent strided patch embedding), and MATEY-mini, a
//!   two-scale adaptive patch transformer standing in for the MATEY
//!   foundation model of Fig. 9.
//! - [`trainer`] is the epoch loop: Adam, ReduceLROnPlateau (patience 20 in
//!   the paper), 90:10 train/test split, batch shuffling, and FLOP-based
//!   energy metering.
//!
//! [`Batch`] and [`BatchShape`] are `sickle_store::batching`'s types: a
//! batch streamed by [`RemoteDataset`] is the value the server assembled.

pub mod data;
pub mod models;
pub mod trainer;

pub use data::{Batch, BatchShape, RemoteDataset, TensorData};
pub use models::{LstmModel, MateyMini, Model, TokenTransformer};
pub use trainer::{TrainConfig, TrainResult};

/// The trainers meter energy from the process-global `nn::flops` counter,
/// which every tape op bumps and every training run resets. Each unit test
/// that drives a tape holds this, so the tests asserting on metered energy
/// see only their own FLOPs.
#[cfg(test)]
pub(crate) fn flops_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
