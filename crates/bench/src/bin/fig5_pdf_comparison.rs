//! Regenerates **Figure 5**: PDFs of the subsampling methods at a 10%
//! budget on OF2D, SST-P1F4, and GESTS, binned with the paper's fixed 100
//! bins.
//!
//! Reported per (dataset, method, feature): `KL(full ‖ sample)` and the
//! tail-coverage ratio. The paper's claim: "MaxEnt outperforms other
//! methods in tail representation."

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_bench::cases::DatasetSpec;
use sickle_bench::{fmt, mean_std, print_table, write_csv};
use sickle_core::metrics::{pdf_reports, wasserstein_reports};
use sickle_core::samplers::{MaxEntSampler, PointSampler, RandomSampler, StratifiedSampler};
use sickle_core::UipsSampler;
use sickle_field::{Dataset, Tiling};

const BINS: usize = 100;

fn methods() -> Vec<(&'static str, Box<dyn PointSampler>)> {
    vec![
        ("random", Box::new(RandomSampler)),
        ("stratified", Box::new(StratifiedSampler::default())),
        ("uips", Box::new(UipsSampler::default())),
        (
            "maxent",
            Box::new(MaxEntSampler {
                num_clusters: 20,
                bins: BINS,
                ..Default::default()
            }),
        ),
    ]
}

fn pdf_rows(
    label: &str,
    dataset: &Dataset,
    feature_vars: &[&str],
    cluster_var: &str,
) -> Vec<Vec<String>> {
    let snap = dataset.snapshots.last().expect("dataset has snapshots");
    let grid = snap.grid;
    let mut vars: Vec<String> = feature_vars.iter().map(|s| s.to_string()).collect();
    if !vars.iter().any(|v| v == cluster_var) {
        vars.push(cluster_var.to_string());
    }
    let cluster_col = vars.iter().position(|v| v == cluster_var).unwrap();
    let tiling = Tiling::new(grid, (grid.nx, grid.ny, grid.nz));
    let (features, _) = tiling.extract(snap, 0, &vars);
    let budget = features.len() / 10;
    let mut rows = Vec::new();
    for (name, sampler) in methods() {
        let mut rng = StdRng::seed_from_u64(5);
        let picked = sampler.select(&features, cluster_col, budget, &mut rng);
        let reports = pdf_reports(&features, &picked, BINS);
        let kls: Vec<f64> = reports.iter().map(|r| r.kl_full_vs_sample).collect();
        let tails: Vec<f64> = reports.iter().map(|r| r.tail_coverage_ratio).collect();
        let w1s = wasserstein_reports(&features, &picked, BINS);
        let (kl_mean, _) = mean_std(&kls);
        let (tail_mean, _) = mean_std(&tails);
        let (w1_mean, _) = mean_std(&w1s);
        rows.push(vec![
            label.to_string(),
            name.to_string(),
            fmt(kl_mean),
            fmt(tail_mean),
            fmt(w1_mean),
        ]);
    }
    rows
}

fn main() {
    let _obs = sickle_bench::obs_init();
    sickle_obs::info!(
        "fig5",
        "== Fig. 5: PDF fidelity of subsampling methods (10%, {BINS} bins) =="
    );
    let of2d = DatasetSpec::Of2d.build();
    let sst = DatasetSpec::SST_P1F4_TABLE.build();
    let gests = DatasetSpec::GESTS_TABLE.build();
    let mut rows = pdf_rows("OF2D", &of2d, &["u", "v"], "wz");
    rows.extend(pdf_rows("SST-P1F4", &sst, &["u", "v", "w", "r"], "pv"));
    rows.extend(pdf_rows("GESTS", &gests, &["u", "v", "w", "eps"], "omega"));
    let header = vec![
        "dataset",
        "method",
        "mean_KL(full||sample)",
        "tail_coverage_ratio",
        "mean_W1(bins)",
    ];
    print_table(&header, &rows);
    write_csv("fig5_pdf_comparison.csv", &header, &rows);
    sickle_obs::info!(
        "fig5",
        "Expected shape (paper): maxent has tail_coverage_ratio > 1 (tails"
    );
    sickle_obs::info!(
        "fig5",
        "over-represented, the intended behaviour) where random/uips sit near"
    );
    sickle_obs::info!(
        "fig5",
        "or below 1; random has the lowest KL (it matches the bulk by"
    );
    sickle_obs::info!("fig5", "construction) but loses the tails.");
}
