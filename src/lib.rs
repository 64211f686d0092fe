//! # SICKLE-RS
//!
//! A Rust reproduction of **"Intelligent Sampling of Extreme-Scale
//! Turbulence Datasets for Accurate and Efficient Spatiotemporal Model
//! Training"** (Brewer et al., SC 2025) — the SICKLE framework plus every
//! substrate its evaluation depends on, built from scratch.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`fft`] — power-of-two FFTs (1D/3D, rayon-parallel)
//! - [`field`] — grids, snapshots, hypercube tiling, derived quantities
//! - [`cfd`] — LBM cylinder flow, 3D pseudo-spectral Navier–Stokes,
//!   synthetic turbulence, combustion surrogate (Table 1's datasets)
//! - [`core`] — **the paper's contribution**: MaxEnt two-phase sampling,
//!   UIPS, random/LHS/stratified baselines, pipeline
//! - [`nn`] — autograd tensor library (LSTM/attention/transformer layers)
//! - [`train`] — Table 2's models and the trainer
//! - [`energy`] — FLOP/byte energy accounting (Cray PM counter substitute)
//! - [`hpc`] — rank executor + cluster simulator for scaling studies
//! - [`obs`] — structured tracing, metrics, and Chrome-trace export
//!   (`SICKLE_TRACE` / `SICKLE_LOG`)
//! - [`store`] — out-of-core shard store + the `sickle-serve` TCP data
//!   plane streaming bit-identical training batches to many clients
//! - [`codec`] — shard codecs: f16/u8 quantizers and the
//!   coarse+re-simulate codec, with accuracy-budgeted compression
//!
//! ## Quickstart
//!
//! ```
//! use sickle::core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingConfig};
//! use sickle::cfd::datasets;
//!
//! // Generate a small stratified-turbulence dataset and sample 10% of it
//! // with two-phase MaxEnt.
//! let params = datasets::SstParams { n: 16, snapshots: 2, interval: 2, warmup: 2, ..Default::default() };
//! let data = datasets::sst_p1f4(&params);
//! let cfg = SamplingConfig {
//!     hypercubes: CubeMethod::MaxEnt,
//!     num_hypercubes: 4,
//!     cube_edge: 8,
//!     method: PointMethod::MaxEnt { num_clusters: 8, bins: 50 },
//!     num_samples: 51,
//!     cluster_var: "pv".into(),
//!     feature_vars: vec!["u".into(), "v".into(), "w".into(), "r".into()],
//!     seed: 0,
//!     temporal: sickle::core::pipeline::TemporalMethod::All,
//! };
//! let out = run_dataset(&data, &cfg);
//! assert_eq!(out.total_points(), 2 * 4 * 51);
//! ```

pub use sickle_cfd as cfd;
pub use sickle_codec as codec;
pub use sickle_core as core;
pub use sickle_energy as energy;
pub use sickle_fft as fft;
pub use sickle_field as field;
pub use sickle_hpc as hpc;
pub use sickle_nn as nn;
pub use sickle_obs as obs;
pub use sickle_store as store;
pub use sickle_train as train;
