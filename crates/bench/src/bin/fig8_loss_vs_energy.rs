//! Regenerates **Figure 8**: training loss vs total (sampling + training)
//! energy for five sampling configurations on SST-P1F4, SST-P1F100, and
//! GESTS — the paper's headline efficiency result (lower-left is optimal;
//! MaxEnt ≈ 38× less energy than full on SST-P1F4).
//!
//! The five configurations are the built-in cases (`configs/SST/P1/*.json`),
//! each re-targeted at the three datasets and run through
//! `sickle_bench::cases::run_case`, mirroring the paper's Slurm script:
//! `subsample` (phase 1 + 2) → `train` (MLP-Transformer for sampled data,
//! CNN-Transformer for dense `Xfull` cubes) → sum CPU sampling energy and
//! accelerator training energy.
//!
//! Energy mechanics (paper Eq. 3): the dense baseline embeds 512 patch
//! tokens per cube where the 10% samplers feed 64 point tokens, so the
//! quadratic-attention training cost — the term the paper's 32³ cap fights
//! — dominates the gap.

use sickle_bench::cases::{builtin_cases, run_case, DatasetSpec};
use sickle_bench::{fmt, print_table, write_csv};
use sickle_core::pipeline::{CubeMethod, PointMethod};

fn main() {
    let _obs = sickle_bench::obs_init();
    sickle_obs::info!(
        "fig8",
        "== Fig. 8: training loss vs energy (lower-left optimal) =="
    );
    let header = vec!["dataset", "case", "test_loss", "sampling_kJ", "total_kJ"];
    let mut rows = Vec::new();
    for spec in [
        DatasetSpec::SST_P1F4_FIGURE,
        DatasetSpec::SST_P1F100_FIGURE,
        DatasetSpec::GESTS_FIGURE,
    ] {
        let dataset = spec.build();
        let label = &dataset.meta.label;
        println!("  {label}:");
        let mut full_kj = 0.0;
        let mut maxent_kj = 0.0;
        for case in builtin_cases() {
            let case = case.retarget(spec, &dataset);
            let run = run_case(&dataset, &case);
            let (loss, skj, tkj) = (
                run.train.best_test as f64,
                run.sampling.total_kilojoules(),
                run.total_kj(),
            );
            // The figure names a case without its cube edge.
            let name = case.name.rsplit_once('-').map_or(&*case.name, |(hx, _)| hx);
            println!(
                "    {name:<18} loss {:.4}  sampling {skj:.3} kJ + training {:.3} kJ = {tkj:.3} kJ",
                run.train.best_test,
                run.train.energy.total_kilojoules(),
            );
            match (case.subsample.hypercubes, case.subsample.method) {
                (_, PointMethod::Full) => full_kj = tkj,
                (CubeMethod::MaxEnt, PointMethod::MaxEnt { .. }) => maxent_kj = tkj,
                _ => {}
            }
            rows.push(vec![
                label.clone(),
                name.to_string(),
                fmt(loss),
                fmt(skj),
                fmt(tkj),
            ]);
        }
        if maxent_kj > 0.0 {
            println!(
                "    -> full/maxent energy ratio: {:.1}x\n",
                full_kj / maxent_kj
            );
        }
    }
    print_table(&header, &rows);
    write_csv("fig8_loss_vs_energy.csv", &header, &rows);
    sickle_obs::info!(
        "fig8",
        "Expected shape (paper): MaxEnt lower-left for the stratified (SST)"
    );
    sickle_obs::info!(
        "fig8",
        "cases with an order-of-magnitude energy gap vs Xfull; GESTS shows"
    );
    sickle_obs::info!("fig8", "little loss separation between methods.");
}
