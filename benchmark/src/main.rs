//! The repository's benchmark: five workloads measured end to end, a
//! per-layer ledger and a traced run. See `benchmark/README.md`.
//!
//! ```text
//! sickle-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, result object on the last line
//! sickle-benchmark [--seed N] [--seconds S]                        every workload, untraced then traced
//! sickle-benchmark --aa [--seed N] [--seconds S]                   two sets of one build, compared
//! ```
//!
//! Run it through `benchmark/run.sh`, from the repository root.

use std::path::PathBuf;
use std::process::ExitCode;

mod check;
mod child;
mod driver;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

/// A message for the person at the terminal; the process exits non-zero.
#[derive(Debug)]
pub struct CliError(pub String);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    rep: u32,
    root: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
        text.parse()
            .map_err(|_| CliError(format!("{flag}: cannot read {text:?}")))
    }
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--child" => args.child = Some(value),
            "--seed" => args.seed = Some(number(&flag, &value)?),
            "--seconds" => args.seconds = Some(number(&flag, &value)?),
            "--trace" => args.trace = number::<u8>(&flag, &value)? != 0,
            "--rep" => args.rep = number(&flag, &value)?,
            "--root" => args.root = Some(value.into()),
            "--trace-out" => args.trace_out = Some(value.into()),
            _ => return Err(CliError(format!("unknown argument {flag}"))),
        }
    }
    Ok(args)
}

/// Seed and run length when none is given.
const DEFAULT_SEED: u64 = 8;
const DEFAULT_SECONDS: f64 = 10.0;

fn run(args: Args) -> Result<bool, CliError> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some(workload) = args.child {
        let root = args
            .root
            .ok_or_else(|| CliError("--child needs --root".into()))?;
        let child = child::ChildArgs {
            workload,
            seed,
            rep: args.rep,
            root,
            trace_out: args.trace_out,
        };
        return child::run(&child).map(|()| true);
    }
    if args.aa {
        return driver::aa(seed, seconds);
    }
    match args.workload {
        Some(name) => {
            let workload = workloads::find(&name).ok_or_else(|| {
                let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                CliError(format!(
                    "unknown workload {name}; there are {}",
                    known.join(", ")
                ))
            })?;
            driver::contract(workload, seed, seconds, args.trace)
        }
        None => driver::full(seed, seconds),
    }
}

/// The crates read `SICKLE_*` switches (kernel, mmap, tracing, fault plans).
/// None may leak in from the caller's shell, into this process — whose stamp
/// reports the kernel in use — or into the repetitions it starts.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SICKLE_") {
            std::env::remove_var(key);
        }
    }
}

fn main() -> ExitCode {
    // Before anything reads the environment or starts a thread.
    scrub_environment();
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sickle-benchmark: an output check failed");
            ExitCode::FAILURE
        }
        Err(CliError(message)) => {
            eprintln!("sickle-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
