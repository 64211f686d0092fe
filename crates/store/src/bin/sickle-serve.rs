//! `sickle-serve` — serve a shard store to training clients over TCP.
//!
//! ```text
//! sickle-serve --root runs/store [--addr 127.0.0.1] [--port 7077]
//!              [--threads 8] [--cache-mb 256] [--lookahead 1]
//!              [--max-seconds N] [--allow-shutdown] [--fixture]
//!              [--max-conns N]
//! ```
//!
//! `--max-seconds` bounds the serving window (for CI smoke runs); without
//! it the server runs until the process is terminated. `--allow-shutdown`
//! honors the protocol's `Shutdown` request, letting a test driver stop
//! the server cleanly (and flush its trace) instead of killing it — the
//! process exits as soon as the request lands, max-seconds or not.
//! `--fixture` ingests a small synthetic dataset into `--root` when no
//! store exists there yet, so CI jobs and quick-start demos (pointing
//! `sickle-top` or a traced client at a live server) need no real data. The
//! fault plan, if any, is read from `SICKLE_FAULT_PLAN`
//! (`drop@conn:request`, `kill@conn:request`, ...). Tracing honours the
//! usual `SICKLE_TRACE*` environment. `--max-conns` bounds admission
//! (arrivals past it get a `Busy` frame).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_hpc::FaultPlan;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};

struct Args {
    root: PathBuf,
    addr: String,
    port: u16,
    threads: usize,
    cache_mb: usize,
    lookahead: usize,
    max_seconds: Option<u64>,
    allow_shutdown: bool,
    fixture: bool,
    max_conns: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::new(),
        addr: "127.0.0.1".to_string(),
        port: 7077,
        threads: 8,
        cache_mb: 256,
        lookahead: 1,
        max_seconds: None,
        allow_shutdown: false,
        fixture: false,
        max_conns: ServeConfig::default().max_conns,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--addr" => args.addr = value("--addr")?,
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--cache-mb" => {
                args.cache_mb = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-mb: {e}"))?;
            }
            "--lookahead" => {
                args.lookahead = value("--lookahead")?
                    .parse()
                    .map_err(|e| format!("--lookahead: {e}"))?;
            }
            "--max-seconds" => {
                args.max_seconds = Some(
                    value("--max-seconds")?
                        .parse()
                        .map_err(|e| format!("--max-seconds: {e}"))?,
                );
            }
            "--allow-shutdown" => args.allow_shutdown = true,
            "--fixture" => args.fixture = true,
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: sickle-serve --root DIR [--addr A] [--port P] \
                            [--threads N] [--cache-mb MB] [--lookahead N] [--max-seconds S] \
                            [--allow-shutdown] [--fixture] [--max-conns N]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.root.as_os_str().is_empty() {
        return Err("--root is required".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = StoreConfig {
        cache_bytes: args.cache_mb << 20,
        ..StoreConfig::default()
    };
    let store = if args.fixture && !args.root.join("manifest.json").exists() {
        let out = sickle_store::testutil::small_output(2, 8, 1024);
        eprintln!(
            "sickle-serve: ingesting synthetic fixture into {}",
            args.root.display()
        );
        ShardStore::ingest(&args.root, &out, cfg)
            .map_err(|e| format!("ingest fixture into {}: {e}", args.root.display()))?
    } else {
        ShardStore::open(&args.root, cfg)
            .map_err(|e| format!("open store {}: {e}", args.root.display()))?
    };
    let fault_plan = FaultPlan::from_env().map_err(|e| format!("SICKLE_FAULT_PLAN: {e}"))?;
    let handle = serve(
        Arc::new(store),
        ServeConfig {
            addr: format!("{}:{}", args.addr, args.port),
            threads: args.threads,
            lookahead: args.lookahead,
            fault_plan,
            allow_shutdown: args.allow_shutdown,
            max_conns: args.max_conns,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind {}:{}: {e}", args.addr, args.port))?;
    eprintln!("sickle-serve: listening on {}", handle.addr());
    let deadline = args
        .max_seconds
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    // Block on the stop latch, not a timer: a client Shutdown request
    // opens it and the process exits (and flushes its trace) right away.
    let waited = handle.wait_for_stop(deadline);
    drop(handle); // graceful: joins the workers
    waited.map(drop).map_err(|e| format!("wait for stop: {e}"))
}

fn main() -> ExitCode {
    sickle_obs::init_from_env();
    let result = parse_args().and_then(|args| run(&args));
    sickle_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sickle-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
