//! `bench_diff` — compares a freshly measured `BENCH_*.json` report
//! against the committed baseline and fails on regressions:
//!
//! ```sh
//! bench_diff BENCH_obs_overhead.json fresh_obs_overhead.json
//! bench_diff --max-regression-pct 30 BENCH_store_throughput.json fresh.json
//! ```
//!
//! Only **dimensionless ratio metrics** are compared (cache warm/cold
//! speedup, instrumentation overhead percentages): the committed baseline
//! and the fresh run usually come from different machines, so absolute
//! ns/s numbers would flag hardware, not code. Each metric also carries an
//! absolute noise floor — a "regression" from 0.001% to 0.002% overhead is
//! measurement jitter, not a finding — and a fresh value below the floor
//! never fails.
//!
//! Prints a delta table; exits 1 when any metric regresses by more than
//! the threshold (default 20%), 2 on usage or schema errors.

use std::process::ExitCode;

use serde::Value;

/// Which way "better" points for a metric.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Higher,
    Lower,
}

/// One comparable metric: where it lives and when a delta matters.
struct Metric {
    /// Dotted path into the report (`workloads.<name>.` paths are built
    /// dynamically for per-workload suites).
    path: String,
    direction: Direction,
    /// Absolute level separating signal from noise. A delta only counts
    /// as a regression when the fresh value lands on the wrong side of
    /// it: above the floor for `Lower` metrics (a jump from 0.001% to
    /// 0.002% overhead is jitter), below it for `Higher` metrics (a
    /// 2300× cache speedup sliding to 1800× on different hardware is
    /// fine; collapsing under the floor means the cache stopped working).
    floor: f64,
}

fn lookup<'v>(root: &'v Value, path: &str) -> Option<&'v Value> {
    let mut cur = root;
    for part in path.split('.') {
        let Value::Object(fields) = cur else {
            return None;
        };
        cur = fields.iter().find(|(k, _)| k == part).map(|(_, v)| v)?;
    }
    Some(cur)
}

fn lookup_num(root: &Value, path: &str) -> Option<f64> {
    match lookup(root, path)? {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

fn lookup_str<'v>(root: &'v Value, path: &str) -> Option<&'v str> {
    match lookup(root, path)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// The ratio metrics for one suite. Per-workload suites expand to one
/// entry per `workloads[i].name` present in the *baseline* (a workload
/// added since the baseline has nothing to compare against; a workload
/// removed is reported as missing).
fn metrics_for(suite: &str, baseline: &Value) -> Result<Vec<Metric>, String> {
    match suite {
        "store_throughput" => Ok(vec![Metric {
            path: "warm_over_cold".into(),
            direction: Direction::Higher,
            // 20× the perf_store_throughput budget (>= 5×): hardware
            // moves this ratio, a broken cache collapses it.
            floor: 100.0,
        }]),
        "serve_scale" => Ok(vec![Metric {
            path: "scale_3_over_1".into(),
            direction: Direction::Higher,
            // Just under the loadgen budget (>= 1.6): three servers must
            // beat one regardless of how fast the box is; a collapse to
            // ~1× means the fan-out or the scheduler serialized.
            floor: 1.5,
        }]),
        "obs_overhead" => {
            let Some(Value::Array(workloads)) = lookup(baseline, "workloads") else {
                return Err("obs_overhead baseline has no workloads array".into());
            };
            let mut out = Vec::new();
            for w in workloads {
                let Some(name) = lookup_str(w, "name") else {
                    return Err("obs_overhead workload entry has no name".into());
                };
                out.push(Metric {
                    path: format!("workloads.{name}.enabled_overhead_pct"),
                    direction: Direction::Lower,
                    floor: 2.0,
                });
                out.push(Metric {
                    path: format!("workloads.{name}.disabled_overhead_pct"),
                    direction: Direction::Lower,
                    floor: 0.5,
                });
            }
            Ok(out)
        }
        "compression" => {
            let Some(Value::Array(workloads)) = lookup(baseline, "workloads") else {
                return Err("compression baseline has no workloads array".into());
            };
            let mut out = Vec::new();
            for w in workloads {
                let Some(name) = lookup_str(w, "name") else {
                    return Err("compression workload entry has no name".into());
                };
                out.push(Metric {
                    path: format!("workloads.{name}.bytes_ratio"),
                    direction: Direction::Higher,
                    // The perf_compression acceptance floors: identity is
                    // ~1× by construction, narrow-float codecs must stay
                    // clearly past 2×, u8 past 3×, resim past 6×. Ratios
                    // are byte arithmetic, not timing — hardware cannot
                    // move them, only a codec or header regression can.
                    floor: match name {
                        "identity" => 0.9,
                        "u8" => 3.0,
                        "resim" => 6.0,
                        _ => 2.5,
                    },
                });
                out.push(Metric {
                    path: format!("workloads.{name}.pdf_kl"),
                    direction: Direction::Lower,
                    // Phase-space fidelity must not quietly erode; floors
                    // sit at each codec's budget in perf_compression.
                    floor: match name {
                        "identity" => 1e-9,
                        "resim" => 0.10,
                        "bf16" => 5e-2,
                        _ => 2e-2,
                    },
                });
            }
            Ok(out)
        }
        other => Err(format!(
            "no comparison table for suite `{other}` \
             (known: store_throughput, serve_scale, obs_overhead, compression)"
        )),
    }
}

/// Resolves a `workloads.<name>.<field>` path against the array-shaped
/// report, or a plain dotted path against the object tree.
fn metric_value(report: &Value, path: &str) -> Option<f64> {
    if let Some(rest) = path.strip_prefix("workloads.") {
        let (name, field) = rest.rsplit_once('.')?;
        let Some(Value::Array(workloads)) = lookup(report, "workloads") else {
            return None;
        };
        let w = workloads
            .iter()
            .find(|w| lookup_str(w, "name") == Some(name))?;
        return lookup_num(w, field);
    }
    lookup_num(report, path)
}

struct Args {
    baseline: String,
    fresh: String,
    max_regression_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut max_regression_pct = 20.0;
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regression-pct" => {
                max_regression_pct = it
                    .next()
                    .ok_or("--max-regression-pct requires a value")?
                    .parse()
                    .map_err(|e| format!("--max-regression-pct: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_diff [--max-regression-pct P] <baseline.json> <fresh.json>"
                        .to_string(),
                )
            }
            _ => positional.push(arg),
        }
    }
    let [baseline, fresh] = positional
        .try_into()
        .map_err(|p: Vec<String>| format!("expected exactly 2 report paths, got {}", p.len()))?;
    Ok(Args {
        baseline,
        fresh,
        max_regression_pct,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::value_from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline = load(&args.baseline)?;
    let fresh = load(&args.fresh)?;
    let suite = lookup_str(&baseline, "suite")
        .ok_or_else(|| format!("{}: no `suite` field", args.baseline))?;
    match lookup_str(&fresh, "suite") {
        Some(s) if s == suite => {}
        other => {
            return Err(format!(
                "suite mismatch: baseline is `{suite}`, fresh is `{}`",
                other.unwrap_or("<missing>")
            ))
        }
    }

    println!(
        "suite: {suite}  (max regression: {:.0}%)",
        args.max_regression_pct
    );
    println!(
        "{:<52} {:>12} {:>12} {:>9}  status",
        "metric", "baseline", "fresh", "delta"
    );
    let mut ok = true;
    for m in metrics_for(suite, &baseline)? {
        let base = metric_value(&baseline, &m.path);
        let new = metric_value(&fresh, &m.path);
        let (Some(base), Some(new)) = (base, new) else {
            println!(
                "{:<52} {:>12} {:>12}         -  MISSING",
                m.path,
                base.map_or("-".into(), |v| format!("{v:.4}")),
                new.map_or("-".into(), |v| format!("{v:.4}")),
            );
            ok = false;
            continue;
        };
        // Signed change in the "worse" direction, relative to the larger
        // of baseline and floor so near-zero baselines don't explode.
        let scale = base.abs().max(m.floor).max(1e-12);
        let regression_pct = match m.direction {
            Direction::Higher => 100.0 * (base - new) / scale,
            Direction::Lower => 100.0 * (new - base) / scale,
        };
        let past_floor = match m.direction {
            Direction::Lower => new > m.floor,
            Direction::Higher => new < m.floor,
        };
        let regressed = regression_pct > args.max_regression_pct && past_floor;
        let status = if regressed {
            ok = false;
            "REGRESSED"
        } else if regression_pct > 0.0 {
            "ok (worse)"
        } else {
            "ok"
        };
        println!(
            "{:<52} {:>12.4} {:>12.4} {:>+8.1}%  {status}",
            m.path, base, new, regression_pct
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench_diff: {} regressed vs {} (threshold {:.0}%)",
                args.fresh, args.baseline, args.max_regression_pct
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}
