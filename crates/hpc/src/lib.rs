//! # sickle-hpc
//!
//! Strong-scaling machinery for the paper's Fig. 7 (MaxEnt parallel
//! scalability, 1–512 MPI ranks), hardened for the rank loss and node
//! flakiness that are routine at Frontier scale.
//!
//! Three complementary pieces:
//!
//! - [`executor`] — a *real* rank executor: the hypercubes of the
//!   sampling pipeline's per-snapshot plan
//!   ([`sickle_core::pipeline::SnapshotPlan`], the one cube sampler) are
//!   partitioned over OS threads, each pinned to a
//!   single-thread rayon pool (one "MPI rank" = one core), and wall time is
//!   measured. Valid up to the host's core count; validates the simulator.
//!   Fault-tolerant: dead ranks' cubes are re-dealt to survivors with
//!   backoff, corrupted results are detected and re-queued, and the
//!   recovered output is bit-identical to the failure-free run.
//! - [`fault`] — deterministic, replayable fault injection ([`FaultPlan`]
//!   / [`FaultInjector`]): kill, delay, or poison chosen ranks at chosen
//!   cube indices, seeded or parsed from `SICKLE_FAULT_PLAN`.
//! - [`simulator`] — an α–β performance model of the same computation on a
//!   cluster: per-point compute cost, per-cube overhead, log-tree
//!   all-reduce, and result gather. Reproduces the paper's observed shape —
//!   quasi-linear speedup while every rank holds enough hypercubes, then a
//!   knee and efficiency collapse once the dataset is spread too thin
//!   (SST-P1F4 plateaus near 9× at 32 ranks; SST-P1F100 scales to 64 ranks
//!   and reaches ~171× at 512).

pub mod executor;
pub mod fault;
pub mod simulator;

pub use executor::{
    run_dataset_with_ranks, run_resilient, run_with_ranks, ExecutorError, ExecutorOutput,
    RankTiming, RetryPolicy,
};
pub use fault::{Fault, FaultAction, FaultInjector, FaultKind, FaultPlan};
pub use simulator::{knee_point, ClusterModel, ScalingPoint};
