//! # sickle-field
//!
//! Shared data-model crate for the SICKLE reproduction: structured grids,
//! scalar fields, multi-variable snapshots, hypercube tiling, derived
//! turbulence quantities (vorticity, enstrophy, dissipation, potential
//! vorticity), summary statistics and histograms, and the binary
//! sample-set formats a store shard holds.
//!
//! Everything downstream — the CFD substrates that *produce* data, the
//! samplers that *curate* it, and the training pipelines that *consume* it —
//! speaks in the types defined here, mirroring how the Python SICKLE passes
//! NumPy arrays between `subsample.py` and `train.py`.

pub mod derived;
pub mod grid;
pub mod io;
pub mod points;
pub mod snapshot;
pub mod stats;
pub mod tiling;

pub use grid::{Axis, Grid2, Grid3};
pub use io::SampleSetView;
pub use points::{FeatureMatrix, SampleSet};
pub use snapshot::{Dataset, DatasetMeta, Snapshot};
pub use stats::{Histogram, SummaryStats};
pub use tiling::{Hypercube, Tiling};
