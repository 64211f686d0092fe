//! Regenerates **Table 1**: the dataset inventory (label, description,
//! grid, snapshots, size, cluster variable, inputs, outputs) at
//! reproduction scale.

use sickle_bench::cases::DatasetSpec;
use sickle_bench::{print_table, write_csv};
use sickle_cfd::datasets::table_row;

fn main() {
    let _obs = sickle_bench::obs_init();
    sickle_obs::info!(
        "table1",
        "== Table 1: datasets used in the study (reproduction scale) =="
    );
    let datasets = [
        DatasetSpec::Tc2d { seed: 0 },
        DatasetSpec::Of2d,
        DatasetSpec::SST_P1F4_TABLE,
        DatasetSpec::SST_P1F100_TABLE,
        DatasetSpec::GESTS_TABLE,
    ]
    .map(|spec| spec.build());
    let header = vec![
        "Label",
        "Description",
        "Space",
        "Time",
        "Size",
        "KCV",
        "Input",
        "Output",
    ];
    let rows: Vec<Vec<String>> = datasets
        .iter()
        .map(|d| {
            let r = table_row(d);
            vec![
                r.label,
                r.description,
                r.space,
                r.time.to_string(),
                r.size,
                r.kcv,
                r.input,
                r.output,
            ]
        })
        .collect();
    print_table(&header, &rows);
    write_csv("table1_datasets.csv", &header, &rows);
    sickle_obs::info!(
        "table1",
        "Paper-scale originals range from 31 MB (TC2D) to 12 TB (GESTS-8192);"
    );
    sickle_obs::info!(
        "table1",
        "the physics, variables, and statistics are reproduced at laptop scale (DESIGN.md)."
    );
}
