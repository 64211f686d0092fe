//! Quickstart: generate a small stratified-turbulence dataset, curate a 10%
//! subset with two-phase MaxEnt sampling, and check the subset's PDF
//! fidelity.
//!
//! ```sh
//! cargo run --release -p sickle-core --example quickstart
//! ```

use sickle_cfd::datasets::{self, SstParams};
use sickle_core::metrics::pdf_reports;
use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingConfig, TemporalMethod};
use sickle_field::Tiling;

fn main() {
    // 1. A 32^3 stratified Taylor-Green DNS, 4 snapshots (SST-P1F4 analogue).
    println!("generating SST-P1F4 analogue (32^3, 4 snapshots)...");
    let params = SstParams {
        n: 32,
        snapshots: 4,
        interval: 6,
        warmup: 12,
        ..Default::default()
    };
    let dataset = datasets::sst_p1f4(&params);
    println!(
        "  dataset '{}': {} snapshots, {} points each, {}",
        dataset.meta.label,
        dataset.num_snapshots(),
        dataset.grid().len(),
        dataset.size_string()
    );

    // 2. Two-phase MaxEnt sampling: entropy-selected 16^3 hypercubes, then
    //    entropy-weighted point selection at a 10% budget.
    let cfg = SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes: 6,
        cube_edge: 16,
        method: PointMethod::MaxEnt {
            num_clusters: 20,
            bins: 100,
        },
        num_samples: 410, // ~10% of 16^3
        cluster_var: "pv".into(),
        feature_vars: vec!["u".into(), "v".into(), "w".into(), "r".into()],
        seed: 0,
        temporal: TemporalMethod::All,
    };
    println!("\nsampling with case {} ...", cfg.case_name());
    let out = run_dataset(&dataset, &cfg);
    println!(
        "  kept {} of {} scanned points ({:.1}%) across {} hypercubes in {:.2}s",
        out.stats.points_out,
        out.stats.points_in,
        100.0 * out.stats.retention(),
        out.stats.cubes_selected,
        out.stats.elapsed_secs
    );

    // 3. Fidelity check: compare the retained subset's PDFs against the full
    //    field of the last snapshot.
    let snap = dataset.snapshots.last().unwrap();
    let tiling = Tiling::new(snap.grid, (snap.grid.nx, snap.grid.ny, snap.grid.nz));
    let (features, indices) = tiling.extract(snap, 0, &cfg.feature_vars);
    let merged = out.merged_snapshot(dataset.num_snapshots() - 1);
    // Map retained grid indices back to feature rows.
    let pos_of: std::collections::HashMap<usize, usize> = indices
        .iter()
        .enumerate()
        .map(|(row, &gi)| (gi, row))
        .collect();
    let picked: Vec<usize> = merged.indices.iter().map(|gi| pos_of[gi]).collect();
    println!("\nPDF fidelity of the 10% subset vs the full field:");
    for r in pdf_reports(&features, &picked, 100) {
        println!(
            "  {:<4} KL(full||sample) = {:.4}   tail coverage x{:.2}",
            r.feature, r.kl_full_vs_sample, r.tail_coverage_ratio
        );
    }
    println!("\ndone — `cargo run --release -p sickle-bench --bin fig6_drag_surrogate` trains end to end.");
}
