//! `trace_validate` — checks that a Chrome `trace_event` file emitted via
//! `SICKLE_TRACE` (or assembled by `trace_merge`) is well-formed:
//!
//! ```sh
//! trace_validate trace.json
//! trace_validate --require-cross-process merged.json
//! ```
//!
//! Validates (via `sickle_obs::export`): the file parses as JSON, every
//! span begin has a matching end, timestamps are monotone per (pid, tid)
//! track, required fields are present, and span parent links resolve
//! globally — across processes in a merged trace — without dangling ids
//! or cycles. `--require-cross-process` additionally demands that the
//! trace span at least two processes *and* contain at least one parent
//! link crossing a process boundary (the telemetry CI job runs this
//! against a merged client + server trace). Exits non-zero with a
//! diagnostic on the first violation.

use sickle_obs::export::validate_chrome_trace;

fn main() {
    let mut path = None;
    let mut require_cross = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-cross-process" => require_cross = true,
            _ if path.is_none() => path = Some(arg),
            _ => path = None, // second positional → usage error below
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_validate [--require-cross-process] <trace.json>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("trace_validate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    match validate_chrome_trace(&text) {
        Ok(stats) => {
            println!(
                "{path}: OK — {} events ({} spans, max depth {}, {} values, {} logs) \
                 across {} process(es), {} cross-process link(s)",
                stats.events,
                stats.spans,
                stats.max_depth,
                stats.values,
                stats.logs,
                stats.pids,
                stats.cross_process_links
            );
            if require_cross && (stats.pids < 2 || stats.cross_process_links == 0) {
                eprintln!(
                    "{path}: INVALID — expected a multi-process trace with cross-process \
                     span links, found {} process(es) and {} link(s)",
                    stats.pids, stats.cross_process_links
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
