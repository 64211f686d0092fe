//! One repetition in its own process: a clean allocator, cache, thread pool
//! and set of program counters every time, and `VmHWM` is the repetition's
//! own peak. The child prints its result as one JSON line on stdout.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;

use crate::check::Tally;
use crate::metrics::LEDGER_LAYERS;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Ctx};
use crate::{probes, CliError};

/// What the parent asks of one child.
#[derive(Clone, Debug)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub rep: u32,
    /// Scratch directory, created and removed by the parent.
    pub root: PathBuf,
    /// Record spans, run the layer probes, and write the Chrome trace here.
    pub trace_out: Option<PathBuf>,
}

/// One repetition's result as the parent reads it back.
#[derive(Debug, Default)]
pub struct ChildResult {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rate: f64,
    pub op_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub layer: BTreeMap<String, f64>,
    pub digests: BTreeMap<String, String>,
    pub tally: Tally,
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn object<V>(pairs: impl IntoIterator<Item = (String, V)>, f: impl Fn(V) -> Value) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k, f(v))).collect())
}

/// Runs the repetition and prints the result line.
pub fn run(args: &ChildArgs) -> Result<(), CliError> {
    let workload = workloads::find(&args.workload)
        .ok_or_else(|| CliError(format!("unknown workload {}", args.workload)))?;
    let tracer = Tracer::new(args.trace_out.is_some());
    let ctx = Ctx {
        seed: args.seed,
        rep: args.rep,
        tracer: &tracer,
        root: &args.root,
    };
    let mut rep = (workload.run)(&ctx);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_rss_mb = parse_vm_hwm_mb(&status).unwrap_or(0.0);

    let mut layer: BTreeMap<String, f64> =
        rep.layer.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if let Some(path) = &args.trace_out {
        let spans = tracer.spans();
        let rows = trace::ledger(&spans);
        // The root span is the timed region as the ledger sees it.
        let total = spans
            .first()
            .map_or(rep.wall_s, |s| (s.end_ns - s.start_ns) as f64 / 1e9);
        for name in LEDGER_LAYERS {
            let secs = rows.get(name).copied().unwrap_or(0.0);
            layer.insert(format!("ledger.{name}_frac"), secs / total);
        }
        layer.insert(
            "ledger.unattributed_frac".into(),
            trace::unattributed_frac(&rows, total),
        );
        std::fs::write(path, trace::chrome_trace(&spans, workload.name, args.rep))
            .map_err(|e| CliError(format!("writing {}: {e}", path.display())))?;
        let (rows, tally) = probes::run_all(args.seed, &args.root);
        layer.extend(rows.into_iter().map(|(k, v)| (k.to_string(), v)));
        rep.tally.merge(tally);
    }

    let line = Value::Object(vec![
        ("setup_s".into(), num(rep.setup_s)),
        ("wall_s".into(), num(rep.wall_s)),
        ("rate".into(), num(rep.rate)),
        (
            "op_ms".into(),
            Value::Array(rep.op_ms.iter().map(|&x| num(x)).collect()),
        ),
        ("peak_rss_mb".into(), num(peak_rss_mb)),
        ("layer".into(), object(layer, num)),
        (
            "digests".into(),
            object(rep.digests, |v| Value::Str(format!("{v:016x}"))),
        ),
        ("attempted".into(), num(rep.tally.attempted as f64)),
        ("failed".into(), num(rep.tally.failed as f64)),
        (
            "failures".into(),
            Value::Array(rep.tally.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| CliError(e.to_string()))?
    );
    Ok(())
}

/// Parses a child's result line.
pub fn parse(line: &str) -> Result<ChildResult, CliError> {
    let bad = |what: &str| CliError(format!("child result: bad or missing {what}"));
    let doc =
        serde_json::value_from_str(line).map_err(|e| CliError(format!("child result: {e}")))?;
    let f = |key: &str| doc.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
    let pairs = |key: &str| {
        doc.get(key)
            .and_then(Value::as_object)
            .ok_or_else(|| bad(key))
    };
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| bad(key))
    };
    Ok(ChildResult {
        setup_s: f("setup_s")?,
        wall_s: f("wall_s")?,
        rate: f("rate")?,
        op_ms: list("op_ms")?.iter().filter_map(Value::as_f64).collect(),
        peak_rss_mb: f("peak_rss_mb")?,
        // A non-finite value travels as `null`; it reads back as NaN so the
        // parent still sees, and fails, the metric.
        layer: pairs("layer")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        digests: pairs("digests")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        tally: Tally {
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            failures: list("failures")?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tsickle-benchmark\nVmPeak:\t  412344 kB\nVmHWM:\t  123904 kB\nVmRSS:\t   99000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(121.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vm_hwm_mb(&own).is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"setup_s":0.5,"wall_s":2.25,"rate":3.5,"op_ms":[1.5,2],"peak_rss_mb":121,
            "layer":{"core.points_in":4096,"train.final_loss":null},"digests":{"dataset":"00ff00ff00ff00ff"},
            "attempted":10,"failed":1,"failures":["digest differs"]}"#;
        let r = parse(line).expect("parses");
        assert_eq!(
            (r.setup_s, r.wall_s, r.rate, r.peak_rss_mb),
            (0.5, 2.25, 3.5, 121.0)
        );
        assert_eq!(r.op_ms, vec![1.5, 2.0]);
        assert_eq!(r.layer["core.points_in"], 4096.0);
        assert!(r.layer["train.final_loss"].is_nan());
        assert_eq!(r.digests["dataset"], "00ff00ff00ff00ff");
        assert_eq!((r.tally.attempted, r.tally.failed), (10, 1));
        assert!(parse("{}").is_err());
    }
}
