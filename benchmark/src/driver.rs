//! The parent side: runs each repetition in a fresh child process, reduces
//! repetitions to medians, runs the traced pass, checks outputs and gates,
//! and prints every metric by name with its unit.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::check::Tally;
use crate::child::{self, ChildResult};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, WORKLOADS};
use crate::CliError;

/// Everything the benchmark writes lands here (relative to the repository
/// root, where `run.sh` puts the working directory).
const OUT_DIR: &str = "benchmark/out";
/// A run takes at least this many repetitions however long they are, so a
/// median is a median…
const MIN_REPS: usize = 3;
/// …and no more than this many however short.
const MAX_REPS: usize = 64;
/// A repetition that has not ended by now is hung (the slowest takes about
/// twenty seconds); the whole run has to end within three minutes.
const CHILD_DEADLINE: Duration = Duration::from_secs(120);

fn io_err(what: &str, e: std::io::Error) -> CliError {
    CliError(format!("{what}: {e}"))
}

/// A per-child scratch directory under [`OUT_DIR`], removed when the child
/// is done — whether it succeeded, failed, or the parent is unwinding.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, CliError> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(OUT_DIR).join(format!("tmp/{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating scratch directory", e))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one repetition in a child process and waits for it.
fn repetition(
    workload: &Workload,
    seed: u64,
    rep: u32,
    threads: usize,
    trace_out: Option<&Path>,
) -> Result<ChildResult, CliError> {
    let scratch = Scratch::new()?;
    let exe = std::env::current_exe().map_err(|e| io_err("locating the benchmark binary", e))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--rep", &rep.to_string()])
        .arg("--root")
        .arg(&scratch.0);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // The result line can outgrow a pipe's buffer (one latency per request),
    // so stdout goes to a file in the scratch directory.
    let result_path = scratch.0.join("result.json");
    let result_file =
        File::create(&result_path).map_err(|e| io_err("creating the result file", e))?;
    let mut child = cmd
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(result_file)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| io_err("starting a repetition", e))?;
    let started = Instant::now();
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| io_err("waiting for a repetition", e))?
        {
            Some(status) => break status,
            None if started.elapsed() > CHILD_DEADLINE => {
                // Never leave a process behind: kill, then reap.
                let _ = child.kill();
                let _ = child.wait();
                return Err(CliError(format!(
                    "{} repetition {rep} was killed after {CHILD_DEADLINE:?}",
                    workload.name
                )));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    if !status.success() {
        return Err(CliError(format!(
            "{} repetition {rep} exited with {status}",
            workload.name
        )));
    }
    let stdout =
        std::fs::read_to_string(&result_path).map_err(|e| io_err("reading the result file", e))?;
    child::parse(stdout.lines().last().unwrap_or_default())
}

/// Folds the repetitions' tallies together and checks that every digest
/// came out bit-equal on all of them.
fn reconcile(workload: &Workload, reps: &mut [ChildResult]) -> Tally {
    let mut tally = Tally::default();
    if let Some((first, rest)) = reps.split_first() {
        for (i, rep) in rest.iter().enumerate() {
            for (name, digest) in &first.digests {
                tally.check(rep.digests.get(name) == Some(digest), || {
                    format!(
                        "{}: {name} of repetition {} differs from repetition 0",
                        workload.name,
                        i + 1
                    )
                });
            }
        }
    }
    for rep in reps {
        tally.merge(std::mem::take(&mut rep.tally));
    }
    tally
}

/// The untraced repetitions of one run of one workload.
pub struct Measured {
    pub reps: Vec<ChildResult>,
    pub tally: Tally,
}

/// Repeats the workload until its timed regions add up to `seconds`.
pub fn measure(workload: &Workload, seed: u64, seconds: f64) -> Result<Measured, CliError> {
    let (mut reps, mut timed) = (Vec::new(), 0.0);
    while reps.len() < MAX_REPS && (reps.len() < MIN_REPS || timed < seconds) {
        let rep = repetition(workload, seed, reps.len() as u32, host_threads(), None)?;
        timed += rep.wall_s;
        reps.push(rep);
    }
    let tally = reconcile(workload, &mut reps);
    Ok(Measured { reps, tally })
}

impl Measured {
    fn series(&self, f: impl Fn(&ChildResult) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    /// Request latencies of all repetitions pooled; a workload whose request
    /// is the repetition itself contributes its timed regions.
    fn op_ms(&self) -> Vec<f64> {
        let pooled: Vec<f64> = self
            .reps
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect();
        if pooled.is_empty() {
            self.series(|r| 1e3 * r.wall_s)
        } else {
            pooled
        }
    }

    /// The samples behind each end-to-end metric, in [`END_TO_END`] order.
    fn samples(&self) -> [Vec<f64>; 5] {
        [
            self.series(|r| r.wall_s),
            self.series(|r| r.rate),
            self.op_ms(),
            self.series(|r| r.peak_rss_mb),
            self.series(|r| r.setup_s),
        ]
    }

    /// Each end-to-end metric: the median over repetitions (over pooled
    /// requests for the latency).
    pub fn end_to_end(&self) -> Vec<f64> {
        self.samples().iter().map(|s| median(s)).collect()
    }

    /// A program count as the untraced repetitions report it.
    fn count(&self, name: &str) -> f64 {
        self.reps
            .first()
            .and_then(|r| r.layer.get(name))
            .copied()
            .unwrap_or(0.0)
    }
}

/// The traced pass of one workload: every per-layer metric, by name.
pub struct Traced {
    pub layer: BTreeMap<String, f64>,
    pub tally: Tally,
}

pub fn trace_path(workload: &Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace_{}.json", workload.name))
}

/// One plain repetition, one traced (spans + probes) and one on a single
/// rayon thread. The three must agree bit for bit; their wall clocks give
/// the tracing overhead and the parallel speed-up.
pub fn trace(workload: &Workload, seed: u64) -> Result<Traced, CliError> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| io_err("creating the output directory", e))?;
    let threads = host_threads();
    let mut reps = vec![
        repetition(workload, seed, 0, threads, None)?,
        repetition(workload, seed, 1, threads, Some(&trace_path(workload)))?,
        repetition(workload, seed, 2, 1, None)?,
    ];
    let mut tally = reconcile(workload, &mut reps);
    let [plain, traced, single] = &reps[..] else {
        unreachable!("three repetitions were run")
    };
    let mut layer = traced.layer.clone();
    layer.insert(
        "obs.trace_overhead_frac".into(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    layer.insert(
        "par.speedup_vs_1thread".into(),
        single.wall_s / plain.wall_s,
    );
    let unattributed = layer["ledger.unattributed_frac"];
    tally.check(unattributed <= 0.05, || {
        format!(
            "{}: the ledger leaves {:.1} % of the timed region unattributed",
            workload.name,
            100.0 * unattributed
        )
    });
    for metric in &PER_LAYER {
        // A layer this workload never enters has no count to report.
        let value = *layer.entry(metric.name.to_string()).or_insert(0.0);
        tally.check(value.is_finite(), || {
            format!("{}: {} is {value}", workload.name, metric.name)
        });
    }
    Ok(Traced { layer, tally })
}

fn metric_entry(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn result_object(tally: &Tally, metrics: Vec<(String, Value)>) -> Value {
    Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        (
            "attempted".into(),
            Value::Num(tally.attempted.max(1) as f64),
        ),
        ("failed".into(), Value::Num(tally.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn end_to_end_metrics(values: &[f64]) -> Vec<(String, Value)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, &v)| (m.name.to_string(), metric_entry(v, m.unit)))
        .collect()
}

fn per_layer_metrics(layer: &BTreeMap<String, f64>) -> Vec<(String, Value)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), metric_entry(layer[m.name], m.unit)))
        .collect()
}

fn to_json(value: &Value) -> Result<String, CliError> {
    serde_json::to_string(value).map_err(|e| CliError(e.to_string()))
}

fn print_failures(tally: &Tally) {
    for why in &tally.failures {
        eprintln!("FAILED CHECK: {why}");
    }
}

/// `name value unit`, with quartiles and the sample count for a timing.
fn print_end_to_end(workload: &Workload, measured: &Measured) {
    println!("# {} — {}", workload.name, workload.why);
    println!("# untraced, {} repetitions", measured.reps.len());
    let samples = measured.samples();
    for (metric, s) in END_TO_END.iter().zip(&samples) {
        let (q1, q3) = quartiles(s);
        println!(
            "{} {} {}   ({} is better; q1 {q1:.6}, q3 {q3:.6}, n {})",
            metric.name,
            median(s),
            metric.unit,
            metric.better.as_str(),
            s.len()
        );
    }
    let rate = median(&samples[1]);
    println!(
        "{} {rate} {}   (= work_per_s on this workload)",
        workload.rate_name, workload.rate_unit
    );
    println!("op_p50_ms times: {}", workload.op);
    let (attempted, failed) = (measured.tally.attempted.max(1), measured.tally.failed);
    println!(
        "failed_frac {} ratio   ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
}

fn print_per_layer(workload: &Workload, traced: &Traced) {
    println!(
        "# {} — traced ({})",
        workload.name,
        trace_path(workload).display()
    );
    for metric in &PER_LAYER {
        let better = metric.better.as_str();
        println!(
            "{} {} {}   ({better} is better)",
            metric.name, traced.layer[metric.name], metric.unit
        );
    }
}

/// The builder's contract: one workload, one result object on the last line.
pub fn contract(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, CliError> {
    let (tally, metrics) = if traced {
        let traced = trace(workload, seed)?;
        print_per_layer(workload, &traced);
        let metrics = per_layer_metrics(&traced.layer);
        (traced.tally, metrics)
    } else {
        let measured = measure(workload, seed, seconds)?;
        print_end_to_end(workload, &measured);
        let metrics = end_to_end_metrics(&measured.end_to_end());
        (measured.tally, metrics)
    };
    print_failures(&tally);
    println!("{}", to_json(&result_object(&tally, metrics))?);
    Ok(tally.failed == 0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
fn stamp(seed: u64, seconds: f64) -> Value {
    Value::Object(vec![
        ("host_cores".into(), Value::Num(host_threads() as f64)),
        (
            "rayon_num_threads".into(),
            Value::Num(host_threads() as f64),
        ),
        (
            "simd_kernel".into(),
            Value::Str(format!("{:?}", sickle_simd::kernel())),
        ),
        (
            "fma_available".into(),
            Value::Bool(sickle_simd::fma_available()),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
    ])
}

/// All workloads, untraced then traced; prints every metric and writes
/// `benchmark/out/results.json`.
pub fn full(seed: u64, seconds: f64) -> Result<bool, CliError> {
    let stamp = stamp(seed, seconds);
    println!("# stamp {}", to_json(&stamp)?);
    let (mut ok, mut results) = (true, Vec::new());
    for workload in &WORKLOADS {
        let measured = measure(workload, seed, seconds)?;
        print_end_to_end(workload, &measured);
        print_failures(&measured.tally);
        let traced = trace(workload, seed)?;
        print_per_layer(workload, &traced);
        print_failures(&traced.tally);
        ok &= measured.tally.failed == 0 && traced.tally.failed == 0;
        results.push((
            workload.name.to_string(),
            Value::Object(vec![
                (
                    "untraced".into(),
                    result_object(&measured.tally, end_to_end_metrics(&measured.end_to_end())),
                ),
                (
                    "traced".into(),
                    result_object(&traced.tally, per_layer_metrics(&traced.layer)),
                ),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        ("stamp".into(), stamp),
        ("workloads".into(), Value::Object(results)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| CliError(e.to_string()))?;
    std::fs::write(&path, text + "\n").map_err(|e| io_err("writing results.json", e))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

/// Two back-to-back sets of untraced runs of one build: every end-to-end
/// metric must agree within its bound, every exact count exactly.
pub fn aa(seed: u64, seconds: f64) -> Result<bool, CliError> {
    println!("# stamp {}", to_json(&stamp(seed, seconds))?);
    let mut ok = true;
    let mut sets: [Vec<Measured>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for workload in &WORKLOADS {
            set.push(measure(workload, seed, seconds)?);
        }
    }
    let [first, second] = &sets;
    for ((workload, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        println!("# {} — A/A", workload.name);
        for ((metric, x), y) in END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end()) {
            let differ = (y - x).abs() / x;
            let within = differ <= metric.bound;
            ok &= within;
            println!(
                "{} {x} vs {y} {}   differ {:.2} % (bound {:.0} %) {}",
                metric.name,
                metric.unit,
                100.0 * differ,
                100.0 * metric.bound,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (a.count(metric.name), b.count(metric.name));
            if x == 0.0 && y == 0.0 {
                continue; // not a count of this workload
            }
            let same = x.to_bits() == y.to_bits();
            ok &= same;
            println!(
                "{} {x} vs {y} {}   {}",
                metric.name,
                metric.unit,
                if same { "exact" } else { "DIFFERS" }
            );
        }
        for tally in [&a.tally, &b.tally] {
            print_failures(tally);
            ok &= tally.failed == 0;
        }
    }
    Ok(ok)
}
