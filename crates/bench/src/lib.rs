//! # sickle-bench
//!
//! One binary per table/figure of the paper's evaluation (see `src/bin/`),
//! the `subsample`/`train_case`/`gen_configs` CLIs and the `trace_*` tools;
//! this library holds their shared plumbing so the binaries stay thin and
//! the logic is unit-testable. [`cases`] is the one dataset recipe table
//! and the one case driver. Timing anything is `benchmark/`'s job.
//!
//! | Binary | Paper element |
//! |---|---|
//! | `table1_datasets` | Table 1 (dataset inventory) |
//! | `table2_architectures` | Table 2 (architectures, parameter counts) |
//! | `fig1_of2d_sampling` | Figs. 1 & 3 (OF2D sampling visualisation + wake coverage) |
//! | `fig4_uips_clumping` | Fig. 4 (UIPS uniform on TC2D vs clumping on SST) |
//! | `fig5_pdf_comparison` | Fig. 5 (PDF/tail fidelity across methods) |
//! | `fig6_drag_surrogate` | Fig. 6 (drag surrogate accuracy, MaxEnt vs random, 5 seeds) |
//! | `fig7_scalability` | Fig. 7 (strong scaling 1–512 ranks, knee) |
//! | `fig8_loss_vs_energy` | Fig. 8 (training loss vs energy, the 5 built-in cases × 3 datasets) |
//! | `fig9_matey` | Fig. 9 (MATEY-mini, uniform/random/maxent at 10%) |
//! | `eq3_cost_model` | Eq. 3 (cost-model validation sweep) |
//! | `subsample` | the artifact's `subsample.py case.yaml` (a case's sampling half) |
//! | `train_case` | the artifact's `train.py case.yaml` (a whole case) |

use std::io::Write;
use std::path::PathBuf;

use sickle_core::pipeline::{SamplingConfig, SamplingStats};
use sickle_energy::{EnergyMeter, EnergyReport, MachineModel};

pub mod cases;

/// RAII observability session for the figure binaries: flushes the
/// `SICKLE_TRACE` file (if any) when dropped at the end of `main`.
pub struct ObsSession;

impl Drop for ObsSession {
    fn drop(&mut self) {
        sickle_obs::finish();
    }
}

/// Reads `SICKLE_TRACE` / `SICKLE_LOG` and returns the guard every binary
/// holds for the duration of `main`:
///
/// ```ignore
/// let _obs = sickle_bench::obs_init();
/// ```
pub fn obs_init() -> ObsSession {
    sickle_obs::init_from_env();
    ObsSession
}

/// Directory where figure binaries drop their CSV outputs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SICKLE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("failed to create results directory");
    path
}

/// Writes a CSV result table and echoes the path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("failed to create CSV");
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    println!("  wrote {}", path.display());
    path
}

/// Prints an aligned ASCII table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:<w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Models the energy of a sampling run from its pipeline statistics: the
/// dominant kernels are the k-means/binning passes (≈ `2 · clusters` FLOPs
/// per scanned point per feature) and reading the dense points once.
/// Matches the paper's accounting, where sampling energy comes from the CPU
/// counters of `subsample.py`.
pub fn sampling_energy(stats: &SamplingStats, cfg: &SamplingConfig) -> EnergyReport {
    let meter = EnergyMeter::new(MachineModel::frontier_cpu_rank());
    let nvars = cfg.feature_vars.len().max(1) as u64;
    let clusters = match cfg.method {
        sickle_core::pipeline::PointMethod::MaxEnt { num_clusters, .. } => num_clusters as u64,
        _ => 4, // binning/stride methods touch each point a few times
    };
    // Phase 2: clustering/binning over the selected cubes' points.
    meter.record_flops(stats.points_in as u64 * nvars * 2 * clusters);
    meter.record_bytes(stats.points_in as u64 * nvars * 8);
    // Phase 1: one full scan of the dense snapshots for cube scoring.
    meter.record_flops(stats.phase1_points as u64 * 4);
    meter.record_bytes(stats.phase1_points as u64 * 8);
    meter.report()
}

/// True when every named value is finite — the testable core of
/// [`require_finite`].
pub fn all_finite(values: &[(&str, f64)]) -> bool {
    values.iter().all(|(_, v)| v.is_finite())
}

/// Aborts the benchmark binary with exit code 1 when any named value is
/// non-finite. Training-loss NaNs must fail the run loudly, not flow into
/// CSVs and JSON reports as `NaN` cells that plot as gaps.
pub fn require_finite(context: &str, values: &[(&str, f64)]) {
    if all_finite(values) {
        return;
    }
    for (name, v) in values {
        if !v.is_finite() {
            eprintln!("error: {context}: {name} is {v} (non-finite)");
        }
    }
    std::process::exit(1);
}

/// Convenience: mean and (population) standard deviation of a slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_core::pipeline::{CubeMethod, PointMethod};

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn all_finite_flags_nan_and_infinity() {
        assert!(all_finite(&[("loss", 0.5), ("val", 1.0e9)]));
        assert!(!all_finite(&[("loss", f64::NAN)]));
        assert!(!all_finite(&[("loss", 0.5), ("val", f64::INFINITY)]));
        assert!(!all_finite(&[("loss", f64::NEG_INFINITY)]));
        assert!(all_finite(&[]));
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(12345.0).contains('e'));
        assert_eq!(fmt(1.5), "1.5000");
    }

    #[test]
    fn sampling_energy_scales_with_points() {
        let cfg = SamplingConfig {
            hypercubes: CubeMethod::Random,
            num_hypercubes: 1,
            cube_edge: 8,
            method: PointMethod::MaxEnt {
                num_clusters: 10,
                bins: 50,
            },
            num_samples: 10,
            cluster_var: "q".into(),
            feature_vars: vec!["q".into()],
            seed: 0,
            temporal: sickle_core::pipeline::TemporalMethod::All,
        };
        let small = SamplingStats {
            points_in: 1000,
            points_out: 100,
            cubes_selected: 1,
            phase1_points: 0,
            elapsed_secs: 0.1,
        };
        let big = SamplingStats {
            points_in: 100_000,
            points_out: 100,
            cubes_selected: 1,
            phase1_points: 0,
            elapsed_secs: 0.1,
        };
        let e_small = sampling_energy(&small, &cfg).total_joules();
        let e_big = sampling_energy(&big, &cfg).total_joules();
        assert!((e_big / e_small - 100.0).abs() < 1.0);
    }
}
