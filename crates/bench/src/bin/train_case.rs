//! `train_case` — the Rust mirror of the artifact's `train.py`:
//!
//! ```sh
//! train_case <case.json>
//! train_case --builtin <case-name>
//! ```
//!
//! Regenerates the case's dataset and runs the case (`cases::run_case`):
//! its sampling phase (the pipeline is deterministic, so this matches
//! whatever `subsample` wrote), the architecture the config names, and
//! training, then prints the `Evaluation on test set` and `Total Energy
//! Consumed` lines the artifact's analysis greps.

use sickle_bench::cases::{case_from_args, run_case};

fn usage() -> ! {
    eprintln!("usage: train_case <case.json>");
    eprintln!("       train_case --builtin <name>");
    std::process::exit(2);
}

fn main() {
    let _obs = sickle_bench::obs_init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (case, rest) = case_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if let Some(extra) = rest.first() {
        eprintln!("unexpected argument '{extra}'");
        usage();
    }

    sickle_obs::info!(
        "train_case",
        "case: {} (arch {:?})",
        case.name,
        case.train.arch
    );
    let run = run_case(&case.dataset.build(), &case);
    println!("params: {}", run.train.params);
    println!("Evaluation on test set: {:.6}", run.train.best_test);
    println!("{}", run.train.energy.log_lines());
}
