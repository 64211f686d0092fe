//! Quality-side ablations for the design choices DESIGN.md §5 calls out:
//!
//! - histogram bin count for the entropy estimate (paper fixes 100),
//! - k-means cluster count (paper uses 5–20),
//! - entropy-weighting temperature τ,
//! - hypercube edge length (8/16/32 — paper's tractability limit is 32³),
//! - UIPS density estimator: binning vs the GMM (flow-like) alternative.
//!
//! Each knob is scored by tail-coverage ratio and KL(full‖sample) on an
//! anisotropic stratified snapshot at a 10% budget, averaged over 3 seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_bench::{fmt, mean_std, print_table, write_csv};
use sickle_cfd::datasets::synthetic_sst_snapshot;
use sickle_core::gmm::UipsGmmSampler;
use sickle_core::metrics::pdf_reports;
use sickle_core::samplers::{MaxEntSampler, PointSampler};
use sickle_core::UipsSampler;
use sickle_field::{FeatureMatrix, Tiling};

const SEEDS: [u64; 3] = [1, 2, 3];

fn features() -> FeatureMatrix {
    let snap = synthetic_sst_snapshot(32, 3.0, 7);
    let vars = vec!["u".into(), "v".into(), "w".into(), "pv".into()];
    let tiling = Tiling::new(snap.grid, (32, 32, 32));
    tiling.extract(&snap, 0, &vars).0
}

/// Scores a sampler: (mean tail-coverage ratio of the cluster variable,
/// mean KL) across seeds.
fn score(sampler: &dyn PointSampler, f: &FeatureMatrix, budget: usize) -> (f64, f64) {
    let mut tails = Vec::new();
    let mut kls = Vec::new();
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let picked = sampler.select(f, 3, budget, &mut rng);
        let reports = pdf_reports(f, &picked, 100);
        tails.push(reports[3].tail_coverage_ratio);
        kls.push(reports.iter().map(|r| r.kl_full_vs_sample).sum::<f64>() / reports.len() as f64);
    }
    (mean_std(&tails).0, mean_std(&kls).0)
}

fn main() {
    let _obs = sickle_bench::obs_init();
    sickle_obs::info!(
        "ablation",
        "== Ablations (quality): MaxEnt/UIPS knobs on anisotropic SST =="
    );
    let f = features();
    let budget = f.len() / 10;
    let header = vec!["knob", "value", "tail_coverage", "mean_KL"];
    let mut rows = Vec::new();
    let mut push = |knob: &str, value: String, s: (f64, f64)| {
        println!("  {knob:<22} {value:<8} tail x{:.2}  KL {:.4}", s.0, s.1);
        rows.push(vec![knob.to_string(), value, fmt(s.0), fmt(s.1)]);
    };

    for bins in [25usize, 50, 100, 200] {
        let s = score(
            &MaxEntSampler {
                num_clusters: 20,
                bins,
                ..Default::default()
            },
            &f,
            budget,
        );
        push("maxent_bins", bins.to_string(), s);
    }
    for k in [5usize, 10, 20, 40] {
        let s = score(
            &MaxEntSampler {
                num_clusters: k,
                bins: 100,
                ..Default::default()
            },
            &f,
            budget,
        );
        push("maxent_clusters", k.to_string(), s);
    }
    for t in [0.0f64, 0.5, 1.0, 2.0] {
        let s = score(
            &MaxEntSampler {
                num_clusters: 20,
                bins: 100,
                temperature: t,
                ..Default::default()
            },
            &f,
            budget,
        );
        push("maxent_temperature", format!("{t}"), s);
    }
    for edge in [8usize, 16, 32] {
        // Cube-size ablation: extract one cube of this edge and sample 10%.
        let snap = synthetic_sst_snapshot(32, 3.0, 7);
        let vars = vec!["u".into(), "v".into(), "w".into(), "pv".into()];
        let tiling = Tiling::cubic(snap.grid, edge);
        let (cf, _) = tiling.extract(&snap, 0, &vars);
        let s = score(
            &MaxEntSampler {
                num_clusters: 20,
                bins: 100,
                ..Default::default()
            },
            &cf,
            cf.len() / 10,
        );
        push("cube_edge", edge.to_string(), s);
    }
    // UIPS density estimators.
    let s = score(
        &UipsSampler {
            bins_per_dim: 10,
            refine_iterations: 1,
        },
        &f,
        budget,
    );
    push("uips_estimator", "binned".to_string(), s);
    let s = score(
        &UipsGmmSampler {
            components: 8,
            em_iters: 8,
        },
        &f,
        budget,
    );
    push("uips_estimator", "gmm".to_string(), s);

    println!();
    print_table(&header, &rows);
    write_csv("ablation_quality.csv", &header, &rows);
    sickle_obs::info!(
        "ablation",
        "Reading: tail_coverage ≈ 1 matches the true PDF; MaxEnt's working"
    );
    sickle_obs::info!(
        "ablation",
        "point should over-cover (>1). τ interpolates uniform (0) to fully"
    );
    sickle_obs::info!(
        "ablation",
        "strength-weighted (1+); bin/cluster counts are plateaus around the"
    );
    sickle_obs::info!("ablation", "paper's choices (100 bins, 20 clusters).");
}
