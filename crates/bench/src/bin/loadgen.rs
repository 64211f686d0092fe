//! Cluster load generator, emitted as `BENCH_serve_scale.json` (schema in
//! DESIGN.md §14).
//!
//! Three phases against loopback servers whose per-key service time is
//! modeled with `model_us_per_key` (the sleep stands in for the per-node
//! disk/NIC time a real deployment spends per shard, so aggregate
//! throughput scales with server count even on a single-core CI box —
//! the *real* CPU work of tensorizing does not, but bandwidth is what a
//! store cluster actually multiplies):
//!
//! - **single** — every client streams epochs from ONE server holding the
//!   whole store, through the same `ClusterClient` path used below;
//! - **cluster3** — the same store ring-partitioned (R = 2) across THREE
//!   servers; the per-key work now splits across owners. Budget:
//!   `scale_3_over_1 >= 1.6`.
//! - **saturation** — one server readmitted with `max_conns = 2` under 12
//!   clients: past the admission bound every arrival gets an explicit
//!   `Busy` frame and retries with jittered backoff. Budgets: **zero**
//!   client-visible errors, sheds actually observed (> 0), and a bounded
//!   p99 batch latency — graceful degradation, not collapse.
//!
//! The binary exits nonzero when any budget is violated so CI catches
//! regressions; `bench_diff` additionally gates `scale_3_over_1` against
//! the committed baseline.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use sickle_bench::require_finite;
use sickle_store::batching::{num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::{partition_output, ClusterClient, ClusterConfig, ClusterMember, HashRing};

const SNAPSHOTS: usize = 4;
const CUBES: usize = 16;
const POINTS: usize = 64;
const TOKENS: usize = 16;
const BATCH_SIZE: usize = 8;
const MODEL_US_PER_KEY: u64 = 1000;
const CLIENTS: usize = 12;
const EPOCHS_PER_CLIENT: usize = 2;
const SERVER_THREADS: usize = 2;
const REPLICATION: usize = 2;
const SATURATION_MAX_CONNS: usize = 2;
const BUDGET_SCALE_3_OVER_1: f64 = 1.6;
const BUDGET_SATURATION_P99_MS: f64 = 1000.0;

#[derive(Serialize)]
struct PhaseScale {
    servers: usize,
    clients: usize,
    samples: usize,
    secs: f64,
    samples_per_sec: f64,
}

#[derive(Serialize)]
struct Saturation {
    clients: usize,
    max_conns: usize,
    batches: usize,
    /// Client-visible errors. Budget: exactly 0 — overload must surface
    /// as Busy backpressure, never as a failed batch.
    errors: usize,
    /// Busy frames absorbed and retried across all clients.
    busy_retries: u64,
    /// The server's shed counter; > 0 proves the bound actually engaged.
    requests_shed: u64,
    p50_ms: f64,
    p99_ms: f64,
    budget_p99_ms: f64,
}

#[derive(Serialize)]
struct Report {
    suite: String,
    keys: usize,
    model_us_per_key: u64,
    replication: usize,
    single: PhaseScale,
    cluster3: PhaseScale,
    /// cluster3 samples/s over single-server samples/s. Budget: >= 1.6.
    scale_3_over_1: f64,
    budget_scale_3_over_1: f64,
    saturation: Saturation,
    within_budget: bool,
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_loadgen_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        retries: 4,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(100),
        busy_budget: 1024,
        seed,
        timeout: Duration::from_secs(30),
    }
}

/// Streams `EPOCHS_PER_CLIENT` epochs from each of `CLIENTS` concurrent
/// cluster clients and returns the aggregate sample rate. Used for both
/// phases — the single-server phase is just a one-member "cluster", so the
/// two measurements exercise the identical client path.
fn bench_phase(members: &[ClusterMember], servers: usize) -> PhaseScale {
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let members = members.to_vec();
            std::thread::spawn(move || {
                let mut cluster = ClusterClient::connect(
                    &members,
                    ClusterConfig {
                        replication: REPLICATION,
                        client: client_config(c as u64),
                        ..ClusterConfig::default()
                    },
                )
                .expect("connect cluster");
                let mut rows = 0usize;
                for epoch in 0..EPOCHS_PER_CLIENT {
                    let spec = BatchSpec {
                        seed: (c * 100 + epoch) as u64,
                        batch_size: BATCH_SIZE,
                        tokens: TOKENS,
                    };
                    for batch in cluster.epoch(spec).expect("epoch") {
                        rows += batch.shape.batch;
                    }
                }
                assert!(
                    cluster.down_members().is_empty(),
                    "no member may fail during a load phase"
                );
                rows
            })
        })
        .collect();
    let samples: usize = workers.into_iter().map(|w| w.join().expect("client")).sum();
    let secs = t0.elapsed().as_secs_f64();
    PhaseScale {
        servers,
        clients: CLIENTS,
        samples,
        secs,
        samples_per_sec: samples as f64 / secs,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Drives one admission-bounded server past saturation: every client uses
/// a fresh connection per batch (so slots recycle) and absorbs `Busy`
/// frames under its jittered backoff. Collects per-batch latencies and
/// the two sides of the shed ledger.
fn bench_saturation(out: &sickle_core::pipeline::SamplingOutput, n: usize) -> Saturation {
    let root = temp_root("saturation");
    let store = ShardStore::ingest(&root, out, StoreConfig::default()).expect("ingest");
    let handle = serve(
        Arc::new(store),
        ServeConfig {
            threads: SERVER_THREADS,
            max_conns: SATURATION_MAX_CONNS,
            model_us_per_key: MODEL_US_PER_KEY,
            ..ServeConfig::default()
        },
    )
    .expect("bind saturation server");
    let addr = handle.addr();
    let per_epoch = num_batches(n, BATCH_SIZE);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let spec = BatchSpec {
                    seed: c as u64,
                    batch_size: BATCH_SIZE,
                    tokens: TOKENS,
                };
                let mut latencies_ms = Vec::with_capacity(per_epoch);
                let mut errors = 0usize;
                let mut busy = 0u64;
                for i in 0..per_epoch {
                    let mut client =
                        StoreClient::new(addr.to_string(), client_config((c * 1000 + i) as u64));
                    let t0 = Instant::now();
                    if client.batch(spec, i).is_err() {
                        errors += 1;
                    }
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    busy += client.busy_retries();
                }
                (latencies_ms, errors, busy)
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut errors = 0usize;
    let mut busy_retries = 0u64;
    for w in workers {
        let (l, e, b) = w.join().expect("saturation client");
        latencies_ms.extend(l);
        errors += e;
        busy_retries += b;
    }
    let mut auditor = StoreClient::new(addr.to_string(), client_config(9999));
    let snap = auditor.stats().expect("post-storm stats");
    busy_retries += auditor.busy_retries();
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Saturation {
        clients: CLIENTS,
        max_conns: SATURATION_MAX_CONNS,
        batches: latencies_ms.len(),
        errors,
        busy_retries,
        requests_shed: snap.requests_shed,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        budget_p99_ms: BUDGET_SATURATION_P99_MS,
    }
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve_scale.json".into());

    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let keys = SNAPSHOTS * CUBES;
    let serve_cfg = ServeConfig {
        threads: SERVER_THREADS,
        model_us_per_key: MODEL_US_PER_KEY,
        ..ServeConfig::default()
    };
    println!(
        "  fixture: {keys} keys, modeled {MODEL_US_PER_KEY}us/key, {CLIENTS} clients x {EPOCHS_PER_CLIENT} epochs"
    );

    // Phase single: one server, whole store.
    let root = temp_root("single");
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
    let handle = serve(Arc::new(store), serve_cfg.clone()).expect("bind single server");
    let members = vec![ClusterMember::new("solo", handle.addr().to_string())];
    let single = bench_phase(&members, 1);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
    println!(
        "  single:   {:.0} samples/s ({} samples in {:.2}s)",
        single.samples_per_sec, single.samples, single.secs
    );

    // Phase cluster3: the same store ring-partitioned across three servers.
    let root = temp_root("cluster3");
    let names = ["store-0", "store-1", "store-2"];
    let ring = HashRing::new(&names);
    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let part = partition_output(&out, &ring, name, REPLICATION);
            let store = ShardStore::ingest(&root.join(name), &part, StoreConfig::default())
                .expect("ingest partition");
            serve(Arc::new(store), serve_cfg.clone()).expect("bind cluster member")
        })
        .collect();
    let members: Vec<ClusterMember> = names
        .iter()
        .zip(&handles)
        .map(|(name, h)| ClusterMember::new(*name, h.addr().to_string()))
        .collect();
    let cluster3 = bench_phase(&members, 3);
    drop(handles);
    std::fs::remove_dir_all(&root).ok();
    let scale_3_over_1 = cluster3.samples_per_sec / single.samples_per_sec;
    println!(
        "  cluster3: {:.0} samples/s ({} samples in {:.2}s)   scale: {scale_3_over_1:.2}x",
        cluster3.samples_per_sec, cluster3.samples, cluster3.secs
    );

    // Phase saturation: overload one admission-bounded server.
    let saturation = bench_saturation(&out, keys);
    println!(
        "  saturation: {} batches, {} errors, {} busy retries, {} shed, p50 {:.0}ms p99 {:.0}ms",
        saturation.batches,
        saturation.errors,
        saturation.busy_retries,
        saturation.requests_shed,
        saturation.p50_ms,
        saturation.p99_ms
    );

    require_finite(
        "serve_scale",
        &[
            ("single_samples_per_sec", single.samples_per_sec),
            ("cluster3_samples_per_sec", cluster3.samples_per_sec),
            ("scale_3_over_1", scale_3_over_1),
            ("saturation_p99_ms", saturation.p99_ms),
        ],
    );

    let mut violations = Vec::new();
    if scale_3_over_1 < BUDGET_SCALE_3_OVER_1 {
        violations.push(format!(
            "scale_3_over_1 {scale_3_over_1:.2} < {BUDGET_SCALE_3_OVER_1}"
        ));
    }
    if saturation.errors > 0 {
        violations.push(format!(
            "{} client-visible errors past saturation (want 0)",
            saturation.errors
        ));
    }
    if saturation.requests_shed == 0 {
        violations.push("saturation produced no sheds: the bound never engaged".into());
    }
    if saturation.p99_ms > BUDGET_SATURATION_P99_MS {
        violations.push(format!(
            "saturation p99 {:.0}ms > {BUDGET_SATURATION_P99_MS:.0}ms",
            saturation.p99_ms
        ));
    }

    let report = Report {
        suite: "serve_scale".into(),
        keys,
        model_us_per_key: MODEL_US_PER_KEY,
        replication: REPLICATION,
        single,
        cluster3,
        scale_3_over_1,
        budget_scale_3_over_1: BUDGET_SCALE_3_OVER_1,
        saturation,
        within_budget: violations.is_empty(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write report JSON");
    println!("  wrote {out_path}");

    if !report.within_budget {
        for v in &violations {
            eprintln!("  BUDGET VIOLATION: {v}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
