//! Regenerates **Figures 1 & 3**: sampling-method visualisation on the
//! OF2D cylinder wake at a 10% budget.
//!
//! The paper shows scatter plots; headless, we report the quantitative
//! content — what fraction of each method's samples land in the wake
//! (high-|vorticity| region) versus the quiescent free stream — and dump
//! per-method sample coordinates to CSV for external plotting. MaxEnt
//! should capture the wake best (paper: "MaxEnt should best capture wake
//! structures").

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_bench::cases::DatasetSpec;
use sickle_bench::{fmt, print_table, write_csv};
use sickle_core::samplers::{FullSampler, MaxEntSampler, PointSampler, RandomSampler};
use sickle_core::UipsSampler;
use sickle_field::Tiling;

fn main() {
    let _obs = sickle_bench::obs_init();
    sickle_obs::info!(
        "fig1",
        "== Fig. 1/3: OF2D sampling comparison (10% budget) =="
    );
    let data = DatasetSpec::Of2d.build();
    // Use the paper's snapshot 97-style late snapshot (fully developed wake).
    let snap = &data.snapshots[data.num_snapshots() - 3];
    let grid = snap.grid;
    // Whole-domain extraction: one "tile" covering everything (Fig. 1 uses
    // full-field sampling, not hypercubes).
    let vars = vec!["u".to_string(), "v".to_string(), "wz".to_string()];
    let tiling = Tiling::new(grid, (grid.nx, grid.ny, 1));
    let (features, indices) = tiling.extract(snap, 0, &vars);
    let budget = features.len() / 10;

    // Wake mask: |wz| above the 80th percentile of |wz|.
    let wz = features.column(2);
    let mut abs: Vec<f64> = wz.iter().map(|v| v.abs()).collect();
    abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let thresh = abs[(abs.len() as f64 * 0.8) as usize];
    let wake_frac_of = |picked: &[usize]| -> f64 {
        picked.iter().filter(|&&i| wz[i].abs() >= thresh).count() as f64 / picked.len() as f64
    };

    let methods: Vec<(&str, Box<dyn PointSampler>)> = vec![
        ("full", Box::new(FullSampler)),
        ("random", Box::new(RandomSampler)),
        ("uips", Box::new(UipsSampler::default())),
        (
            "maxent",
            Box::new(MaxEntSampler {
                num_clusters: 10,
                bins: 100,
                ..Default::default()
            }),
        ),
    ];

    let header = vec!["method", "samples", "wake_fraction", "wake_enrichment"];
    let mut rows = Vec::new();
    let mut scatter_rows: Vec<Vec<String>> = Vec::new();
    let base_frac = wake_frac_of(&(0..features.len()).collect::<Vec<_>>());
    for (name, sampler) in methods {
        let mut rng = StdRng::seed_from_u64(97);
        let picked = sampler.select(&features, 2, budget, &mut rng);
        let wf = wake_frac_of(&picked);
        rows.push(vec![
            name.to_string(),
            picked.len().to_string(),
            fmt(wf),
            fmt(wf / base_frac),
        ]);
        // Dump (x, y) sample coordinates for plotting, capped per method.
        for &p in picked.iter().take(2000) {
            let (x, y, _) = grid.coords(indices[p]);
            scatter_rows.push(vec![name.to_string(), x.to_string(), y.to_string()]);
        }
    }
    print_table(&header, &rows);
    write_csv("fig1_wake_coverage.csv", &header, &rows);
    write_csv(
        "fig1_sample_scatter.csv",
        &["method", "x", "y"],
        &scatter_rows,
    );
    sickle_obs::info!(
        "fig1",
        "Expected shape (paper): maxent has the highest wake enrichment;"
    );
    sickle_obs::info!("fig1", "random ~1.0 (unbiased); full = 1.0 by definition.");
}
