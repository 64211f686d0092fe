//! # sickle-core
//!
//! The paper's primary contribution: **SICKLE**, a Sparse Intelligent
//! Curation framework for Learning Efficiently.
//!
//! The framework curates training subsets from dense simulation snapshots in
//! two phases (paper §4, Fig. 3):
//!
//! 1. **Hypercube selection** ([`hypercube`]): the domain is tiled into
//!    cubes (32³ in the paper); cubes are selected either uniformly at
//!    random (`Hrandom`) or by maximum-entropy weighting (`Hmaxent`) —
//!    cluster the cubes, estimate per-cluster PDFs of the cluster variable,
//!    build the Kullback–Leibler adjacency matrix
//!    `A_ij = Σ P(C_i) log(P(C_i)/P(C_j))`, reduce to node strengths (row
//!    sums), and sample cubes with probability proportional to strength.
//! 2. **Point selection** ([`samplers`]): within each selected cube, retain
//!    a budgeted subset of points.
//!
//! [`pipeline`] wires both phases behind a serde-serializable configuration
//! mirroring the reference implementation's YAML files. A case selects one
//! of the four point methods of the paper's case grid
//! ([`PointMethod`]): `Xfull` (keep everything), `Xrandom`, `Xmaxent`
//! (cluster + entropy-weighted budget allocation) or `Xuips`
//! (uniform-in-phase-space acceptance sampling after binned density
//! estimation). The other samplers are compared by calling them directly:
//! the stratified baseline ([`StratifiedSampler`]) in Fig. 5, the GMM
//! variant of UIPS ([`gmm::UipsGmmSampler`]) in the `ablation_quality`
//! table; the LHS baseline ([`LhsSampler`]) has no figure yet. [`metrics`]
//! computes the PDF-fidelity diagnostics used by the paper's Figures 4
//! and 5.
//!
//! `cargo run --release -p sickle-core --example quickstart` generates a
//! small stratified-turbulence dataset, curates a 10 % subset with
//! two-phase MaxEnt and prints the subset's PDF fidelity.

pub mod entropy;
pub mod gmm;
pub mod hypercube;
pub mod kmeans;
pub mod metrics;
pub mod pipeline;
pub mod samplers;
pub mod uips;

pub use hypercube::HypercubeSelector;
pub use kmeans::{KMeans, KMeansConfig};
pub use pipeline::{PointMethod, SamplingConfig, SamplingOutput, SamplingStats};
pub use samplers::{
    FullSampler, LhsSampler, MaxEntSampler, PointSampler, RandomSampler, StratifiedSampler,
};
pub use uips::UipsSampler;
