//! `subsample` — the Rust mirror of the artifact's `subsample.py`:
//!
//! ```sh
//! subsample <case.json> [--output-dir DIR]
//! subsample --builtin <case-name> [--output-dir DIR]   # e.g. Hmaxent-Xmaxent-16
//! subsample --list                                      # list built-in cases
//! ```
//!
//! Regenerates the case's dataset, runs the case's sampling half
//! (`cases::sample_case`), persists the output as a shard store under the
//! output directory (`manifest.json` plus one pack, identity codec — what
//! `sickle-serve --root DIR` serves), and prints the energy block (`CPU
//! Energy`, `Total Energy Consumed`, `Elapsed Time`) the artifact's analysis
//! instructions grep for.

use sickle_bench::cases::{builtin_cases, case_from_args, sample_case};
use sickle_store::{ShardStore, StoreConfig};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: subsample <case.json> [--output-dir DIR]");
    eprintln!("       subsample --builtin <name> [--output-dir DIR]");
    eprintln!("       subsample --list");
    std::process::exit(2);
}

fn main() {
    let _obs = sickle_bench::obs_init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--list") {
        for c in builtin_cases() {
            println!("{}", c.name);
        }
        return;
    }
    let (case, rest) = case_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let mut output_dir = PathBuf::from("snapshots");
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--output-dir" => {
                output_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("'--output-dir' needs a value");
                    usage()
                }));
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                usage()
            }
        }
    }

    sickle_obs::info!(
        "subsample",
        "case: {} ({})",
        case.name,
        case.subsample.case_name()
    );
    sickle_obs::info!("subsample", "generating dataset...");
    let dataset = case.dataset.build();
    sickle_obs::info!(
        "subsample",
        "{}: {} snapshots x {} points ({})",
        dataset.meta.label,
        dataset.num_snapshots(),
        dataset.grid().len(),
        dataset.size_string()
    );

    sickle_obs::info!("subsample", "sampling...");
    let (out, report) = sample_case(&dataset, &case);
    let store = ShardStore::ingest(&output_dir, &out, StoreConfig::default()).unwrap_or_else(|e| {
        eprintln!(
            "subsample: cannot write the shard store to {}: {e}",
            output_dir.display()
        );
        std::process::exit(1)
    });
    let bytes_written = store.manifest().total_bytes();
    sickle_obs::info!(
        "subsample",
        "kept {} / {} points ({:.1}%), {} cubes, {} bytes -> {}",
        out.stats.points_out,
        out.stats.points_in,
        100.0 * out.stats.retention(),
        out.stats.cubes_selected,
        bytes_written,
        output_dir.display()
    );
    println!("CPU Energy: {:.6} kJ", report.total_kilojoules());
    println!("{}", report.log_lines());
}
