//! `sickle-top` — live terminal dashboard for a running `sickle-serve`.
//!
//! ```text
//! sickle-top --addr 127.0.0.1:7077 [--interval-ms 1000] [--iterations N]
//!            [--once]
//! ```
//!
//! Polls the server's `Stats` request and renders a refreshing dashboard:
//! request/byte throughput (client-side diffs between polls, so they work
//! against any server), p50/p99 request latency and queue wait (from the
//! server's log₂ histograms), worker wake-ups with their fruitless share
//! (the readiness core's wasted-work ratio), cache hit rate, a per-codec
//! compression table (shards, on-disk vs decoded bytes, ratio), and a
//! per-connection load table. `--once` prints a single snapshot without clearing the screen
//! (the CI-friendly mode); `--iterations` bounds a refreshing run.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::stats::StatsSnapshot;

struct Args {
    addr: String,
    interval: Duration,
    iterations: Option<u64>,
    once: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        interval: Duration::from_millis(1000),
        iterations: None,
        once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--interval-ms" => {
                args.interval = Duration::from_millis(
                    value("--interval-ms")?
                        .parse()
                        .map_err(|e| format!("--interval-ms: {e}"))?,
                );
            }
            "--iterations" => {
                args.iterations = Some(
                    value("--iterations")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                );
            }
            "--once" => args.once = true,
            "--help" | "-h" => {
                return Err("usage: sickle-top --addr HOST:PORT [--interval-ms MS] \
                            [--iterations N] [--once]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    Ok(args)
}

fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// One dashboard frame. `rates` is `(requests/s, bytes out/s)` from
/// client-side diffs, `None` on the first poll.
fn render(snap: &StatsSnapshot, rates: Option<(f64, f64)>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sickle-top — server pid {} up {:.1}s\n\n",
        snap.pid, snap.uptime_secs
    ));
    let (req_rate, byte_rate) = rates.unwrap_or((0.0, 0.0));
    out.push_str(&format!(
        "{:<22} {:>12}\n",
        "requests total", snap.requests_total
    ));
    out.push_str(&format!(
        "{:<22} {:>12}\n",
        "requests shed (busy)", snap.requests_shed
    ));
    out.push_str(&format!(
        "{:<22} {:>12}  ({} fruitless, {:.1}%)\n",
        "worker wake-ups",
        snap.wakeups,
        snap.fruitless_wakeups,
        100.0 * snap.fruitless_wakeups as f64 / snap.wakeups.max(1) as f64
    ));
    out.push_str(&format!(
        "{:<22} {:>12.1}/s\n",
        "throughput (requests)", req_rate
    ));
    out.push_str(&format!(
        "{:<22} {:>12}/s\n",
        "throughput (bytes out)",
        human_bytes(byte_rate)
    ));
    out.push_str(&format!(
        "{:<22} {:>9} in / {} out\n",
        "bytes lifetime",
        human_bytes(snap.bytes_in as f64),
        human_bytes(snap.bytes_out as f64)
    ));
    out.push_str(&format!(
        "{:<22} {:>11.1}%  ({} hit / {} miss)\n",
        "cache hit rate",
        snap.cache_hit_rate * 100.0,
        snap.cache_hits,
        snap.cache_misses
    ));
    for (label, metric) in [
        ("request latency", "serve.request_us"),
        ("queue wait", "serve.queue_wait_us"),
        ("disk read", "store.disk_read_us"),
        ("encode", "serve.encode_us"),
    ] {
        if let Some(m) = snap.metric(metric) {
            out.push_str(&format!(
                "{:<22} {:>9.0}µs p50 / {:.0}µs p99\n",
                label, m.p50, m.p99
            ));
        }
    }
    if !snap.codecs.is_empty() {
        out.push_str(&format!(
            "\n{:<10} {:>8} {:>14} {:>14} {:>8}\n",
            "codec", "shards", "on disk", "decoded", "ratio"
        ));
        for c in &snap.codecs {
            out.push_str(&format!(
                "{:<10} {:>8} {:>14} {:>14} {:>7.1}x\n",
                c.codec,
                c.shards,
                human_bytes(c.disk_bytes as f64),
                human_bytes(c.decoded_bytes as f64),
                c.ratio
            ));
        }
    }
    out.push_str(&format!(
        "\nconnections: {} open, {} lifetime\n",
        snap.connections_open, snap.connections_total
    ));
    if !snap.connections.is_empty() {
        out.push_str(&format!(
            "{:<8} {:>10} {:>14} {:>14}\n",
            "conn", "requests", "bytes in", "bytes out"
        ));
        for c in &snap.connections {
            out.push_str(&format!(
                "{:<8} {:>10} {:>14} {:>14}\n",
                c.id,
                c.requests,
                human_bytes(c.bytes_in as f64),
                human_bytes(c.bytes_out as f64)
            ));
        }
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let mut client = StoreClient::new(
        &args.addr,
        ClientConfig {
            timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    );
    let mut prev: Option<(Instant, u64, u64)> = None;
    let mut remaining = if args.once {
        1
    } else {
        args.iterations.unwrap_or(u64::MAX)
    };
    while remaining > 0 {
        remaining -= 1;
        let snap = client
            .stats()
            .map_err(|e| format!("stats from {}: {e}", args.addr))?;
        let now = Instant::now();
        let rates = prev.map(|(t, reqs, bytes)| {
            let dt = now.duration_since(t).as_secs_f64().max(1e-9);
            (
                snap.requests_total.saturating_sub(reqs) as f64 / dt,
                snap.bytes_out.saturating_sub(bytes) as f64 / dt,
            )
        });
        prev = Some((now, snap.requests_total, snap.bytes_out));
        let frame = render(&snap, rates);
        if args.once {
            print!("{frame}");
        } else {
            // ANSI clear + home keeps the dashboard in place.
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        if remaining > 0 {
            std::thread::sleep(args.interval);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // Honour SICKLE_TRACE: a traced `sickle-top --once` is the smallest
    // real client for exercising cross-process span links (its Stats
    // request carries trace context to the server like any other RPC).
    sickle_obs::init_from_env();
    let result = parse_args().and_then(|args| run(&args));
    sickle_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sickle-top: {msg}");
            ExitCode::FAILURE
        }
    }
}
