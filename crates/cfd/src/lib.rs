//! # sickle-cfd
//!
//! CFD substrates that regenerate analogues of every dataset in the paper's
//! Table 1, entirely in Rust:
//!
//! - [`lbm2d`] — a D2Q9 lattice-Boltzmann solver for unsteady flow over a
//!   cylinder (the **OF2D** dataset: `u, v` inputs, drag `D` target,
//!   vorticity cluster variable).
//! - [`spectral`] — a 3D incompressible pseudo-spectral Navier–Stokes solver
//!   with Boussinesq buoyancy and isotropic forcing (the **SST-P1F4**,
//!   **SST-P1F100**, and **GESTS** datasets at reproduction scale).
//! - [`synth`] — a spectral synthetic-turbulence generator with prescribed
//!   (an)isotropic spectra, for cheaply making arbitrarily large fields for
//!   scaling studies.
//! - [`combustion`] — a flamelet-manifold surrogate for the **TC2D**
//!   2D turbulent-combustion dataset (progress variable and its filtered
//!   variance).
//! - [`resim`] — local re-simulation by Jacobi diffusion relaxation, the
//!   read-path solver behind the `sickle-codec` coarse+re-simulate shard
//!   codec.
//! - [`datasets`] — canned constructors with Table-1 metadata.
//!
//! See DESIGN.md §1 for the substitution argument: the sampling pipeline only
//! observes point-feature distributions, and each substrate reproduces the
//! distributional character (anisotropy, intermittency, bimodality) of the
//! original data at laptop scale.

pub mod combustion;
pub mod datasets;
pub mod lbm2d;
pub mod resim;
pub mod spectral;
pub mod synth;

pub use combustion::CombustionConfig;
pub use lbm2d::{CylinderFlow, LbmConfig};
pub use spectral::{Forcing, SpectralConfig, SpectralSolver, Stratification};
pub use synth::{SpectrumKind, SynthConfig};
