//! # sickle-energy
//!
//! Deterministic energy accounting for the reproduction.
//!
//! The paper measures energy with Frontier's Cray PM counters. Those are
//! hardware-specific; the reproduction substitutes an explicit machine
//! model: every kernel reports FLOPs executed and bytes moved, and
//!
//! ```text
//! E = flops · e_flop + bytes · e_byte + t_modeled · P_idle
//! ```
//!
//! with constants calibrated to a Frontier node (MI250X + EPYC "Trento").
//! The paper's headline claims are *relative* energies (e.g. MaxEnt 85 kJ
//! vs. full 3183 kJ ⇒ 38×); those ratios are preserved because the dominant
//! term scales with `samples × parameters × epochs` — the paper's own cost
//! model (Eq. 3), implemented here as [`cost_to_train`].
//!
//! Meters are thread-safe (atomic counters) so parallel training workers and
//! rayon sampling kernels can record concurrently.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod report;

pub use report::EnergyReport;

/// Energy/performance constants for one machine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: String,
    /// Joules per double-precision-equivalent FLOP (≈10 pJ on MI250X-class
    /// accelerators; Kogge & Shalf 2013 give the 100× data-movement gap).
    pub energy_per_flop: f64,
    /// Joules per byte moved off-chip (≈1 nJ — the "over 100 times greater"
    /// movement cost the paper's introduction cites).
    pub energy_per_byte: f64,
    /// Idle/base power in watts attributed to the allocation while running.
    pub idle_power: f64,
    /// Sustained FLOP/s for modeled-time estimates.
    pub flops_per_sec: f64,
    /// Sustained bytes/s for modeled-time estimates.
    pub bytes_per_sec: f64,
}

impl MachineModel {
    /// One Frontier node: 4× MI250X (8 GCDs) + 64-core EPYC 7713.
    pub fn frontier_node() -> Self {
        MachineModel {
            name: "frontier-node".to_string(),
            energy_per_flop: 10e-12,
            energy_per_byte: 1e-9,
            idle_power: 600.0,
            // ~50 TF/s sustained DP per node (well under peak, as real
            // training achieves), ~10 TB/s aggregate HBM.
            flops_per_sec: 5.0e13,
            bytes_per_sec: 1.0e13,
        }
    }

    /// One MI250X graphics compute die (GCD) — the paper's per-MPI-rank
    /// training unit (8 ranks/node).
    pub fn frontier_gcd() -> Self {
        MachineModel {
            name: "frontier-gcd".to_string(),
            energy_per_flop: 10e-12,
            energy_per_byte: 1e-9,
            idle_power: 75.0,
            flops_per_sec: 6.0e12,
            bytes_per_sec: 1.3e12,
        }
    }

    /// A CPU-only rank (sampling runs on CPUs in the paper's workflow).
    pub fn frontier_cpu_rank() -> Self {
        MachineModel {
            name: "frontier-cpu-rank".to_string(),
            energy_per_flop: 50e-12,
            energy_per_byte: 5e-9,
            idle_power: 4.0, // 225 W / 56 usable cores
            flops_per_sec: 3.0e10,
            bytes_per_sec: 1.0e10,
        }
    }
}

/// Thread-safe FLOP/byte accumulator tied to a machine model.
#[derive(Debug)]
pub struct EnergyMeter {
    model: MachineModel,
    flops: AtomicU64,
    bytes: AtomicU64,
    start: Instant,
}

impl EnergyMeter {
    /// Creates a meter and starts its wall clock.
    pub fn new(model: MachineModel) -> Self {
        EnergyMeter {
            model,
            flops: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Records `n` floating-point operations. While tracing is enabled the
    /// count is mirrored into the process-wide `sickle-obs` totals so open
    /// spans attribute it to their energy sub-totals.
    #[inline]
    pub fn record_flops(&self, n: u64) {
        self.flops.fetch_add(n, Ordering::Relaxed);
        if sickle_obs::enabled() {
            sickle_obs::metrics::add_flops(n);
        }
    }

    /// Records `n` bytes moved. Mirrored into `sickle-obs` like
    /// [`record_flops`](Self::record_flops).
    #[inline]
    pub fn record_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
        if sickle_obs::enabled() {
            sickle_obs::metrics::add_bytes(n);
        }
    }

    /// Total FLOPs recorded so far.
    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Total bytes recorded so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Elapsed wall-clock seconds since creation.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The machine model in use.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Produces the energy report for everything recorded so far, using
    /// *modeled* time (deterministic: flops/throughput + bytes/bandwidth) so
    /// results are reproducible across hosts. Wall time is reported
    /// alongside for reference.
    pub fn report(&self) -> EnergyReport {
        let flops = self.flops() as f64;
        let bytes = self.bytes() as f64;
        let modeled_time = flops / self.model.flops_per_sec + bytes / self.model.bytes_per_sec;
        EnergyReport {
            machine: self.model.name.clone(),
            flops: self.flops(),
            bytes: self.bytes(),
            compute_joules: flops * self.model.energy_per_flop,
            movement_joules: bytes * self.model.energy_per_byte,
            idle_joules: modeled_time * self.model.idle_power,
            modeled_secs: modeled_time,
            wall_secs: self.elapsed_secs(),
        }
    }
}

/// The paper's Eq. 3: `Cost to Train ≈ O(c(m)) + O(m · p · e)` — returns the
/// modeled energy in joules for training `e` epochs of `m` samples through a
/// `p`-parameter model on `machine`, plus a sampling-phase cost.
///
/// `flops_per_sample_param` calibrates how many FLOPs one sample × one
/// parameter costs per epoch (≈6 for dense nets: 2 forward + 4 backward).
pub fn cost_to_train(
    sampling_joules: f64,
    m_samples: usize,
    p_params: usize,
    e_epochs: usize,
    flops_per_sample_param: f64,
    machine: &MachineModel,
) -> f64 {
    let train_flops = m_samples as f64 * p_params as f64 * e_epochs as f64 * flops_per_sample_param;
    let modeled_time = train_flops / machine.flops_per_sec;
    sampling_joules + train_flops * machine.energy_per_flop + modeled_time * machine.idle_power
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_energy_coefficients_match_frontier_node() {
        // Trace spans charge joules with `sickle_obs`' own coefficients,
        // which that crate cannot take from here without a cycle.
        let node = MachineModel::frontier_node();
        assert_eq!(sickle_obs::metrics::span_joules(1, 0), node.energy_per_flop);
        assert_eq!(sickle_obs::metrics::span_joules(0, 1), node.energy_per_byte);
    }

    #[test]
    fn meter_accumulates_atomically() {
        let meter = EnergyMeter::new(MachineModel::frontier_node());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        meter.record_flops(10);
                        meter.record_bytes(3);
                    }
                });
            }
        });
        assert_eq!(meter.flops(), 40_000);
        assert_eq!(meter.bytes(), 12_000);
    }

    #[test]
    fn report_is_deterministic_in_counts() {
        let meter = EnergyMeter::new(MachineModel::frontier_node());
        meter.record_flops(1_000_000_000);
        meter.record_bytes(1_000_000);
        let r = meter.report();
        assert!((r.compute_joules - 1e9 * 10e-12).abs() < 1e-12);
        assert!((r.movement_joules - 1e6 * 1e-9).abs() < 1e-12);
        assert!(r.total_joules() > 0.0);
    }

    #[test]
    fn movement_dominates_per_unit() {
        // The motivating claim: moving a datum costs >100x computing it.
        let m = MachineModel::frontier_node();
        assert!(m.energy_per_byte * 8.0 > 100.0 * m.energy_per_flop);
    }

    #[test]
    fn cost_model_scales_linearly_in_each_factor() {
        let m = MachineModel::frontier_node();
        let base = cost_to_train(0.0, 1000, 10_000, 100, 6.0, &m);
        assert!((cost_to_train(0.0, 2000, 10_000, 100, 6.0, &m) / base - 2.0).abs() < 1e-9);
        assert!((cost_to_train(0.0, 1000, 20_000, 100, 6.0, &m) / base - 2.0).abs() < 1e-9);
        assert!((cost_to_train(0.0, 1000, 10_000, 200, 6.0, &m) / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_cost_amortizes() {
        // Eq. 3's point: the sampling overhead c(m) is fixed while training
        // cost scales with epochs, so subsampling wins at high epoch counts.
        let m = MachineModel::frontier_node();
        let full = cost_to_train(0.0, 100_000, 1_000_000, 1000, 6.0, &m);
        let sampled = cost_to_train(500.0, 10_000, 1_000_000, 1000, 6.0, &m);
        assert!(sampled < 0.2 * full, "sampled {sampled} vs full {full}");
    }

    #[test]
    fn gcd_is_smaller_than_node() {
        let node = MachineModel::frontier_node();
        let gcd = MachineModel::frontier_gcd();
        assert!(gcd.flops_per_sec < node.flops_per_sec);
        assert!(gcd.idle_power < node.idle_power);
    }
}
