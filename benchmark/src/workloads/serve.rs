//! `serve_warm` and `serve_cold`: two closed-loop clients stream whole
//! shuffled epochs of `GetBatch` from an in-process loopback server with two
//! workers. The same 128 dense shards (4096 points × 5 features, ≈ 25 MB
//! decoded) are served either from a cache they fit in (warm: the server,
//! protocol, cache-hit and tensorize path, and nothing else) or from a cache
//! a quarter their size with mixed codecs (cold: map + hash + decode + evict
//! on almost every request).

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_core::pipeline::run_dataset;
use sickle_field::SampleSet;
use sickle_store::batching::{local_batch, num_batches};
use sickle_store::{
    serve, BatchSpec, ClientConfig, ServeConfig, ShardStore, StatsSnapshot, StoreClient,
    StoreConfig,
};

use super::{dense_case, mix, mixed_codecs, synthetic_dataset, timed, Ctx, Rep};
use crate::check::{Digest, Tally};
use crate::stats;

/// Closed-loop clients (one thread and one connection each): never more
/// than the two cores of the reference host.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const SERVER_THREADS: usize = 2;
pub const TOKENS: usize = 64;
/// Cubes per snapshot of the served `Hrandom-Xfull` output (× 2 snapshots).
const DENSE_CUBES: usize = 64;
/// Distinct epoch shuffles each client cycles through; the reference digest
/// of each is computed in set-up from locally decoded shards.
const SHUFFLES: usize = 8;

struct Shape {
    batch_size: usize,
    /// Epochs each client streams in the timed region: fixed work, sized to
    /// three or four seconds on the reference host.
    epochs: usize,
    cache: StoreConfig,
    mixed_codecs: bool,
    /// `ServeConfig::lookahead`: batches the server prefetches ahead.
    lookahead: usize,
    /// Cache hit rate the timed region must show, or the workload is
    /// mis-sized for what it claims to exercise.
    hit_rate: RangeInclusive<f64>,
}

pub fn run_warm(ctx: &Ctx) -> Rep {
    run(
        ctx,
        &Shape {
            batch_size: 16,
            epochs: 1500,
            cache: StoreConfig::default(), // 256 MB: ten times the working set
            mixed_codecs: false,
            lookahead: ServeConfig::default().lookahead,
            hit_rate: 0.99..=1.0,
        },
    )
}

pub fn run_cold(ctx: &Ctx) -> Rep {
    run(
        ctx,
        &Shape {
            batch_size: 8,
            epochs: 64,
            cache: StoreConfig {
                cache_bytes: 6 << 20,
                mapped_cache_bytes: 2 << 20,
                ..StoreConfig::default()
            },
            mixed_codecs: true,
            // Prefetch off. With the default lookahead of 1 the prefetcher
            // thread races each client's next request for the same shards on
            // two cores: the hit rate of one seed moved between 0.10 and
            // 0.19 from process to process, repetitions between 3.3 and
            // 4.1 s, and throughput was a third lower (≈ 560 against
            // ≈ 790 batches/s). Without it a seed repeats within ±1.5 %.
            lookahead: 0,
            hit_rate: 0.0..=0.5,
        },
    )
}

fn spec(ctx: &Ctx, shape: &Shape, client: usize, shuffle: usize) -> BatchSpec {
    BatchSpec {
        seed: mix(ctx.seed, (100 + client * SHUFFLES + shuffle) as u64),
        batch_size: shape.batch_size,
        tokens: TOKENS,
    }
}

/// Digest of one whole epoch assembled locally, batch by batch in order.
fn local_epoch_digest(sets: &[Arc<SampleSet>], spec: BatchSpec) -> std::io::Result<u64> {
    let mut digest = Digest::default();
    for i in 0..num_batches(sets.len(), spec.batch_size) {
        let batch = local_batch(sets, spec, i)?;
        digest.batch(&batch.inputs, &batch.targets);
    }
    Ok(digest.value())
}

/// Streams one epoch, returning its digest; latencies go to `op_ms`.
fn stream_epoch(
    ctx: &Ctx,
    client: &mut StoreClient,
    spec: BatchSpec,
    batches: usize,
    op_ms: &mut Vec<f64>,
) -> std::io::Result<u64> {
    let mut digest = Digest::default();
    for i in 0..batches {
        let t0 = Instant::now();
        let batch = {
            let _s = ctx.tracer.span("batch", "store");
            client.batch(spec, i)?
        };
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let _s = ctx.tracer.span("digest", "check");
        digest.batch(&batch.inputs, &batch.targets);
    }
    Ok(digest.value())
}

fn metric_p50(stats: &StatsSnapshot, name: &str) -> f64 {
    stats.metric(name).map_or(0.0, |m| m.p50)
}

fn metric_value(stats: &StatsSnapshot, name: &str) -> f64 {
    stats.metric(name).map_or(0.0, |m| m.value)
}

/// Per-layer figures of the serving plane over the timed region: counter
/// differences between two `Stats` snapshots, the server's own histogram
/// medians, and the client-observed tail.
pub fn server_layer(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    busy_retries: u64,
    op_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    // The closing `Stats` request is itself counted; it is not a batch.
    let requests = (after.requests_total - before.requests_total).saturating_sub(1) as f64;
    let bytes_out = (after.bytes_out - before.bytes_out) as f64;
    let evicted =
        metric_value(after, "store.cache.evicted") - metric_value(before, "store.cache.evicted");
    let (tail_pct, tail_ms) = stats::tail(op_ms).unwrap_or((0.0, 0.0));
    vec![
        ("store.cache_hit_rate", hits / (hits + misses).max(1.0)),
        ("store.cache_evictions", evicted),
        ("store.server.requests", requests),
        (
            "store.server.shed",
            (after.requests_shed - before.requests_shed) as f64,
        ),
        (
            "store.server.request_p50_us",
            metric_p50(after, "serve.request_us"),
        ),
        (
            "store.server.queue_wait_p50_us",
            metric_p50(after, "serve.queue_wait_us"),
        ),
        (
            "store.server.encode_p50_us",
            metric_p50(after, "serve.encode_us"),
        ),
        ("store.server.batch_tail_ms", tail_ms),
        ("store.server.batch_tail_pct", tail_pct),
        ("store.client.busy_retries", busy_retries as f64),
        ("store.wire_bytes_per_batch", bytes_out / requests.max(1.0)),
    ]
}

pub fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        seed,
        timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: SERVER_THREADS,
        ..ServeConfig::default()
    }
}

fn run(ctx: &Ctx, shape: &Shape) -> Rep {
    let mut tally = Tally::default();
    let root = ctx.dir("store");

    let t_setup = Instant::now();
    let dataset = synthetic_dataset(ctx.seed);
    let out = run_dataset(&dataset, &dense_case(DENSE_CUBES, mix(ctx.seed, 21)));
    drop(dataset);
    if shape.mixed_codecs {
        ShardStore::ingest_with(&root, &out, StoreConfig::default(), mixed_codecs(&out))
    } else {
        ShardStore::ingest(&root, &out, StoreConfig::default())
    }
    .expect("ingest shards");
    drop(out);

    // The reference: every epoch the clients will stream, assembled by
    // `batching::local_batch` from shards decoded through a private handle.
    let local = ShardStore::open(&root, StoreConfig::default()).expect("open store locally");
    let sets: Vec<Arc<SampleSet>> = local
        .keys()
        .into_iter()
        .map(|key| local.get(key).expect("decode shard locally"))
        .collect();
    let batches = num_batches(sets.len(), shape.batch_size);
    let reference: Vec<Vec<u64>> = (0..CLIENTS)
        .map(|c| {
            (0..SHUFFLES)
                .map(|k| local_epoch_digest(&sets, spec(ctx, shape, c, k)).expect("local epoch"))
                .collect()
        })
        .collect();
    drop((sets, local));

    let store = Arc::new(ShardStore::open(&root, shape.cache).expect("open store"));
    let config = ServeConfig {
        lookahead: shape.lookahead,
        ..serve_config()
    };
    let mut server = serve(store, config).expect("bind loopback server");
    let addr = server.addr().to_string();
    let mut clients: Vec<StoreClient> = (0..CLIENTS)
        .map(|c| StoreClient::new(addr.clone(), client_config(mix(ctx.seed, 90 + c as u64))))
        .collect();
    // One warm-up epoch per client: connections open, cache as full as it
    // will get.
    for (c, client) in clients.iter_mut().enumerate() {
        let got = stream_epoch(
            ctx,
            client,
            spec(ctx, shape, c, 0),
            batches,
            &mut Vec::new(),
        );
        tally.check(got.is_ok_and(|d| d == reference[c][0]), || {
            format!("client {c}: warm-up epoch differs from the local reference")
        });
    }
    let mut control = StoreClient::new(addr, client_config(0));
    let before = control.stats().expect("stats before");
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (per_client, wall_s) = timed(|| {
        let _rep = ctx.tracer.root();
        let parent = ctx.tracer.current();
        std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let reference = &reference[c];
                    scope.spawn(move || {
                        ctx.tracer.adopt(parent);
                        let mut op_ms = Vec::with_capacity(shape.epochs * batches);
                        let mut tally = Tally::default();
                        for epoch in 0..shape.epochs {
                            let k = epoch % SHUFFLES;
                            let before = op_ms.len();
                            let got =
                                stream_epoch(ctx, client, spec(ctx, shape, c, k), batches, &mut op_ms);
                            tally.ok((op_ms.len() - before) as u64);
                            match got {
                                Ok(digest) => tally.check(digest == reference[k], || {
                                    format!("client {c} epoch {epoch}: batches differ from the local reference")
                                }),
                                Err(e) => tally.check(false, || format!("client {c} epoch {epoch}: {e}")),
                            }
                        }
                        (op_ms, tally)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });

    let after = control.stats().expect("stats after");
    server.shutdown();
    let mut op_ms = Vec::new();
    for (ms, t) in per_client {
        op_ms.extend(ms);
        tally.merge(t);
    }
    let busy: u64 = clients.iter().map(StoreClient::busy_retries).sum();
    let layer = server_layer(&before, &after, busy, &op_ms);
    let hit_rate = layer
        .iter()
        .find(|(name, _)| *name == "store.cache_hit_rate");
    tally.check(
        hit_rate.is_some_and(|(_, rate)| shape.hit_rate.contains(rate)),
        || {
            format!(
                "mis-sized: cache hit rate {hit_rate:?} is outside {:?}",
                shape.hit_rate
            )
        },
    );
    Rep {
        setup_s,
        wall_s,
        rate: op_ms.len() as f64 / wall_s,
        layer,
        op_ms,
        tally,
        ..Rep::default()
    }
}
