//! Loopback integration tests for the serving plane: multi-client
//! bit-identity, crash isolation, injected connection drops, protocol
//! error handling, and the readiness core's scheduling contracts (idle
//! cost, write parking, timers, shutdown) — all over real TCP sockets on
//! 127.0.0.1.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_hpc::FaultPlan;
use sickle_store::batching::{batch_keys, local_batch, num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::protocol::{
    read_frame, write_frame, Request, Response, WireErrorKind, TAG_RESP_BATCH, TAG_RESP_ERROR,
    TAG_RESP_MANIFEST,
};
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::{Batch, ShardKey};

const SNAPSHOTS: usize = 2;
const CUBES: usize = 6;
const POINTS: usize = 30;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_loopback_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingests the shared fixture and serves it; returns the store root, the
/// canonical-order sets (the in-memory reference), and the server.
fn start_server(
    tag: &str,
    cfg: ServeConfig,
) -> (
    PathBuf,
    Vec<Arc<sickle_field::SampleSet>>,
    sickle_store::ServerHandle,
) {
    start_server_with(tag, cfg, small_output(SNAPSHOTS, CUBES, POINTS))
}

fn start_server_with(
    tag: &str,
    cfg: ServeConfig,
    out: sickle_core::pipeline::SamplingOutput,
) -> (
    PathBuf,
    Vec<Arc<sickle_field::SampleSet>>,
    sickle_store::ServerHandle,
) {
    let root = temp_root(tag);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
    // Canonical (snapshot, cube) order = ShardKey order, which for the
    // fixture is exactly iteration order.
    let mut keyed: Vec<_> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), Arc::new(s.clone())))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let sets = keyed.into_iter().map(|(_, s)| s).collect();
    let handle = serve(Arc::new(store), cfg).unwrap();
    (root, sets, handle)
}

fn fast_client(addr: std::net::SocketAddr) -> StoreClient {
    StoreClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 4,
            backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
}

fn assert_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.shape, b.shape, "{what}: shape");
    assert_eq!(a.inputs.len(), b.inputs.len(), "{what}: input length");
    for (i, (x, y)) in a.inputs.iter().zip(&b.inputs).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: input {i}");
    }
    for (i, (x, y)) in a.targets.iter().zip(&b.targets).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: target {i}");
    }
}

#[test]
fn two_concurrent_clients_stream_bit_identical_epochs() {
    let (root, sets, handle) = start_server("two_clients", ServeConfig::default());
    let spec = BatchSpec {
        seed: 42,
        batch_size: 5,
        tokens: 8,
    };
    let n = sets.len();
    let addr = handle.addr();
    let stream_epoch = move || {
        let mut client = fast_client(addr);
        (0..num_batches(n, spec.batch_size))
            .map(|i| client.batch(spec, i).unwrap())
            .collect::<Vec<_>>()
    };
    let a = std::thread::spawn(stream_epoch);
    let b = std::thread::spawn(stream_epoch);
    let batches_a = a.join().unwrap();
    let batches_b = b.join().unwrap();
    for (i, (ba, bb)) in batches_a.iter().zip(&batches_b).enumerate() {
        assert_bit_identical(ba, bb, &format!("client A vs B, batch {i}"));
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(ba, &reference, &format!("client A vs in-memory, batch {i}"));
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killing_one_client_does_not_disturb_the_other() {
    let (root, sets, handle) = start_server("kill_client", ServeConfig::default());
    let spec = BatchSpec {
        seed: 7,
        batch_size: 4,
        tokens: 6,
    };
    let addr = handle.addr();

    // The victim: connects, sends *half a frame header*, then vanishes.
    let victim = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0x03, 0xFF]).unwrap();
        // Dropping the stream here resets the connection mid-frame.
    });

    // The survivor streams a full epoch while the victim dies.
    let n = sets.len();
    let mut client = fast_client(addr);
    for i in 0..num_batches(n, spec.batch_size) {
        let got = client.batch(spec, i).unwrap();
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(&got, &reference, &format!("survivor batch {i}"));
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.join().unwrap();
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn injected_drops_recover_with_no_duplicate_or_missing_samples() {
    // Connection 0 is severed on its 2nd request; the retry arrives on
    // connection 1, which is severed on its 1st request; the next retry
    // (connection 2) succeeds. Every batch must still come back exactly
    // once and bit-identical, proving retries neither skip nor duplicate.
    let plan = FaultPlan::parse("drop@0:1,drop@1:0").unwrap();
    let (root, sets, handle) = start_server(
        "drop_fault",
        ServeConfig {
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    );
    let spec = BatchSpec {
        seed: 99,
        batch_size: 3,
        tokens: 5,
    };
    let n = sets.len();
    let mut client = fast_client(handle.addr());
    let mut streamed = Vec::new();
    for i in 0..num_batches(n, spec.batch_size) {
        streamed.push(client.batch(spec, i).unwrap());
    }
    let mut total = 0;
    for (i, got) in streamed.iter().enumerate() {
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(got, &reference, &format!("post-drop batch {i}"));
        total += got.shape.batch;
    }
    assert_eq!(total, n, "each sample served exactly once across the epoch");
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_cold_epoch_decodes_each_shard_once() {
    // 128 shards in the default cache (no evictions), lookahead 1, and a
    // client that keeps the next batch in flight: the prefetcher's decode
    // of batch i + 1 races the foreground request for the same shards on
    // every batch. Each shard must still be decoded exactly once.
    let root = temp_root("one_decode");
    let store = Arc::new(
        ShardStore::ingest(&root, &small_output(8, 16, POINTS), StoreConfig::default()).unwrap(),
    );
    let n = store.keys().len();
    let handle = serve(Arc::clone(&store), ServeConfig::default()).unwrap();
    let mut client = fast_client(handle.addr());
    for seed in [3, 4] {
        let spec = BatchSpec {
            seed,
            batch_size: 4,
            tokens: 8,
        };
        let batches = num_batches(n, spec.batch_size);
        for i in 0..batches {
            client.batch(spec, i).unwrap();
            if i + 1 < batches {
                client.send_batch(spec, i + 1).unwrap();
            }
        }
        assert_eq!(store.decodes(), n as u64, "decodes after epoch {seed}");
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// A raw connection for tests that speak frames directly.
fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Sends one request frame and reads the response frame.
fn ask(stream: &mut TcpStream, req: Request) -> (u8, Vec<u8>) {
    let (tag, payload) = req.encode();
    write_frame(stream, tag, &payload).unwrap();
    read_frame(stream).unwrap()
}

/// The kind and message of an error frame; anything else fails the test.
fn error_of((tag, payload): (u8, Vec<u8>)) -> (WireErrorKind, String) {
    assert_eq!(tag, TAG_RESP_ERROR);
    match Response::decode(tag, &payload).unwrap() {
        Response::Error { kind, message } => (kind, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn malformed_request_gets_error_frame_and_connection_survives() {
    let (root, _sets, handle) = start_server("malformed", ServeConfig::default());
    let mut stream = raw_conn(handle.addr());

    // Unknown tags, unassigned 0x02 included, are answered with an error
    // frame, not a disconnect.
    for (bad_tag, junk) in [(0x55, &b"junk"[..]), (0x02, &[0u8; 16][..])] {
        write_frame(&mut stream, bad_tag, junk).unwrap();
        let (_, message) = error_of(read_frame(&mut stream).unwrap());
        assert!(message.contains("unknown request tag"), "got: {message}");
    }

    // Same connection still serves real requests afterwards.
    let (tag, payload) = ask(&mut stream, Request::Manifest);
    match Response::decode(tag, &payload).unwrap() {
        Response::Manifest(json) => {
            let m: sickle_store::StoreManifest =
                serde_json::from_str(std::str::from_utf8(&json).unwrap()).unwrap();
            assert_eq!(m.len(), SNAPSHOTS * CUBES);
        }
        other => panic!("expected manifest, got {other:?}"),
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// The one frame: `GetBatch` lets the server pick the keys, `GetTensors`
/// names them, and for the same keys the two answers are the same bytes.
#[test]
fn get_batch_and_get_tensors_answer_with_the_same_frame() {
    let (root, _sets, handle) = start_server("one_frame", ServeConfig::default());
    let mut stream = raw_conn(handle.addr());
    let keys = fast_client(handle.addr()).manifest().unwrap().keys();
    let spec = BatchSpec {
        seed: 11,
        batch_size: 5,
        tokens: 8,
    };
    // Every batch of the epoch, the ragged last one included.
    for index in 0..num_batches(keys.len(), spec.batch_size) {
        let by_spec = ask(
            &mut stream,
            Request::GetBatch {
                spec,
                index: index as u64,
            },
        );
        let by_keys = ask(
            &mut stream,
            Request::GetTensors {
                tokens: spec.tokens as u32,
                keys: batch_keys(&keys, spec, index).unwrap(),
            },
        );
        assert_eq!(by_spec.0, TAG_RESP_BATCH, "batch {index}");
        assert_eq!(by_spec, by_keys, "batch {index}: tag and payload");
    }

    // No keys, no batch: InvalidData. An unknown key: NotFound. Either is
    // an error frame, and the connection still answers the next request.
    for (keys, want) in [
        (Vec::new(), WireErrorKind::InvalidData),
        (
            vec![ShardKey {
                snapshot: 1000,
                cube: 0,
            }],
            WireErrorKind::NotFound,
        ),
    ] {
        let (kind, message) = error_of(ask(&mut stream, Request::GetTensors { tokens: 8, keys }));
        assert_eq!(kind, want, "{message}");
    }
    assert_eq!(ask(&mut stream, Request::Manifest).0, TAG_RESP_MANIFEST);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// A request's sizes come off the wire: a batch too large to frame is an
/// `InvalidData` error frame, refused before it is built, and the
/// connection answers the next request.
#[test]
fn oversized_batch_requests_get_invalid_data_and_the_connection_survives() {
    let (root, _sets, handle) = start_server("oversized", ServeConfig::default());
    let mut stream = raw_conn(handle.addr());
    let keys = fast_client(handle.addr()).manifest().unwrap().keys();
    let spec = BatchSpec {
        seed: 1,
        batch_size: 4,
        tokens: u32::MAX as usize,
    };
    for req in [
        // A 29-byte request for a batch of tens of GB.
        Request::GetBatch { spec, index: 0 },
        // Every key at 2^24 tokens: past MAX_FRAME with no overflow.
        Request::GetTensors {
            tokens: 1 << 24,
            keys,
        },
    ] {
        let (kind, message) = error_of(ask(&mut stream, req));
        assert_eq!(kind, WireErrorKind::InvalidData, "{message}");
        assert!(message.contains("frame cap"), "got: {message}");
    }
    assert_eq!(ask(&mut stream, Request::Manifest).0, TAG_RESP_MANIFEST);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stats_request_reports_live_counters() {
    let (root, sets, handle) = start_server("stats", ServeConfig::default());
    let spec = BatchSpec {
        seed: 5,
        batch_size: 4,
        tokens: 4,
    };
    let mut client = fast_client(handle.addr());
    let batches = num_batches(sets.len(), spec.batch_size);
    for i in 0..batches {
        client.batch(spec, i).unwrap();
    }
    let snap = client.stats().unwrap();
    assert!(
        snap.requests_total >= batches as u64,
        "served {} requests, stats says {}",
        batches,
        snap.requests_total
    );
    assert!(snap.connections_total >= 1);
    assert!(snap.connections_open >= 1, "this connection is live");
    assert!(snap.bytes_out > snap.bytes_in, "batches dwarf requests");
    assert!(
        snap.cache_hits + snap.cache_misses > 0,
        "batch assembly touches the cache"
    );
    let row = snap
        .connections
        .iter()
        .find(|c| c.requests >= batches as u64)
        .expect("this client's connection row");
    assert!(row.bytes_out > 0);
    assert!(
        snap.metric("serve.request_us").is_some(),
        "request latency histogram registered"
    );
    // A second snapshot counts the first stats request itself.
    let again = client.stats().unwrap();
    assert!(again.requests_total > snap.requests_total);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shutdown_is_refused_by_default_and_honored_when_allowed() {
    let (root, _sets, handle) = start_server("no_shutdown", ServeConfig::default());
    let mut client = fast_client(handle.addr());
    let err = client.shutdown_server().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        !handle.wait_for_stop(Some(Instant::now())).unwrap(),
        "a refused shutdown leaves the stop flag down"
    );
    assert!(client.manifest().is_ok(), "server still serving");
    drop(handle);
    std::fs::remove_dir_all(&root).ok();

    let (root, _sets, handle) = start_server(
        "shutdown",
        ServeConfig {
            allow_shutdown: true,
            ..ServeConfig::default()
        },
    );
    let mut client = fast_client(handle.addr());
    client.manifest().unwrap();
    let snap = client.shutdown_server().expect("final stats");
    assert!(snap.requests_total >= 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    assert!(
        handle.wait_for_stop(Some(deadline)).unwrap(),
        "shutdown request raises stop flag"
    );
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sixteen_concurrent_clients_serve_without_error() {
    let (root, sets, handle) = start_server(
        "sixteen",
        ServeConfig {
            threads: 16,
            ..ServeConfig::default()
        },
    );
    let spec = BatchSpec {
        seed: 1234,
        batch_size: 4,
        tokens: 4,
    };
    let n = sets.len();
    let addr = handle.addr();
    let workers: Vec<_> = (0..16)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = fast_client(addr);
                let batches = num_batches(n, spec.batch_size);
                // Stagger start batches so clients hit different shards.
                for i in 0..batches {
                    let idx = (i + w) % batches;
                    client.batch(spec, idx).unwrap_or_else(|e| {
                        panic!("client {w} failed on batch {idx}: {e}");
                    });
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread must not panic");
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// Polls `probe` every few milliseconds until it returns `Some`, for at
/// most five seconds.
fn eventually<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sixteen_idle_connections_cost_a_handful_of_wakeups() {
    let (root, _sets, handle) = start_server("idle_wakeups", ServeConfig::default());
    let mut observer = fast_client(handle.addr());
    let idle: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    let before = eventually("all idle connections admitted", || {
        let snap = observer.stats().unwrap();
        (snap.connections_open == 17).then_some(snap)
    });
    std::thread::sleep(Duration::from_millis(500));
    let after = observer.stats().unwrap();
    // Two timer ticks and the second stats request itself; the sweeping
    // scheduler made roughly 2 000 passes per worker in the same window.
    let wakeups = after.wakeups - before.wakeups;
    assert!(wakeups < 20, "{wakeups} wake-ups over 16 idle connections");
    assert!(after.fruitless_wakeups <= after.wakeups);
    assert_eq!(after.connections_open, 17, "idle peers are still connected");
    drop(idle);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stalled_reader_parks_on_writability_and_resumes_bit_identically() {
    // One 1 MiB batch (a 2^16-point set at 2^17 tokens of 2 features),
    // requested 48 times back to back by a peer that does not read: far
    // more than loopback socket buffers hold.
    const REQUESTS: usize = 48;
    let (root, _sets, handle) = start_server_with(
        "write_park",
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
        small_output(1, 1, 1 << 16),
    );
    let mut observer = fast_client(handle.addr());
    observer.manifest().unwrap();

    let mut peer = TcpStream::connect(handle.addr()).unwrap();
    let (tag, payload) = Request::GetBatch {
        spec: BatchSpec {
            seed: 3,
            batch_size: 1,
            tokens: 1 << 17,
        },
        index: 0,
    }
    .encode();
    for _ in 0..REQUESTS {
        write_frame(&mut peer, tag, &payload).unwrap();
    }
    // The peer's row is the youngest connection. Wait until its answered
    // count stops moving for five samples in a row: the server has filled
    // the socket and parked (one still sample can be a slow response).
    let answered = |observer: &mut StoreClient| {
        let snap = observer.stats().unwrap();
        let row = snap.connections.iter().max_by_key(|c| c.id).unwrap();
        (row.requests, snap.wakeups)
    };
    let (mut last, mut still) = (0, 0);
    eventually("the response stream to stall", || {
        let (now, _) = answered(&mut observer);
        still = if now > 0 && now == last { still + 1 } else { 0 };
        last = now;
        std::thread::sleep(Duration::from_millis(20));
        (still >= 5).then_some(())
    });
    let (parked_at, wakeups_before) = answered(&mut observer);
    std::thread::sleep(Duration::from_millis(200));
    let (still_at, wakeups_after) = answered(&mut observer);
    assert!(
        (parked_at as usize) < REQUESTS,
        "nothing was left to park: {parked_at} answered"
    );
    assert_eq!(still_at, parked_at, "no request answered while parked");
    let spun = wakeups_after - wakeups_before;
    assert!(
        spun < 10,
        "{spun} wake-ups while parked: the worker is polling"
    );

    // The peer starts reading: every response arrives whole and identical.
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let first = read_frame(&mut peer).unwrap();
    assert_eq!(first.0, TAG_RESP_BATCH);
    assert!(first.1.len() > 1 << 20, "{} bytes", first.1.len());
    for i in 1..REQUESTS {
        let response = read_frame(&mut peer).unwrap();
        assert!(response == first, "response {i} differs from the first");
    }
    let (done, _) = answered(&mut observer);
    assert_eq!(done as usize, REQUESTS);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn silent_connection_is_closed_after_the_idle_window() {
    let (root, _sets, handle) = start_server(
        "idle_expiry",
        ServeConfig {
            read_timeout: Duration::from_millis(20),
            idle_timeouts: 3,
            ..ServeConfig::default()
        },
    );
    let mut silent = TcpStream::connect(handle.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = Instant::now();
    let eof = silent.read(&mut [0u8; 1]).expect("closed, not timed out");
    assert_eq!(eof, 0, "the server hangs up on a silent peer");
    assert!(
        t0.elapsed() >= Duration::from_millis(60),
        "closed after {:?}, before read_timeout x idle_timeouts",
        t0.elapsed()
    );
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shutdown_with_a_hundred_parked_connections_is_prompt() {
    let (root, _sets, mut handle) = start_server("shutdown_parked", ServeConfig::default());
    let mut observer = fast_client(handle.addr());
    let parked: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    eventually("all connections admitted", || {
        (observer.stats().unwrap().connections_open == 101).then_some(())
    });
    let t0 = Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    // The last worker out closed every parked socket.
    for mut stream in parked {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn fresh_connection_is_served_without_an_accept_nap() {
    let (root, _sets, handle) = start_server("fresh_conn", ServeConfig::default());
    let (tag, payload) = Request::Stats.encode();
    let mut micros: Vec<u128> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            write_frame(&mut stream, tag, &payload).unwrap();
            read_frame(&mut stream).unwrap();
            t0.elapsed().as_micros()
        })
        .collect();
    micros.sort_unstable();
    // The accept thread used to sleep 2 ms between looks at the listener.
    let median = micros[micros.len() / 2];
    assert!(
        median < 1000,
        "connect + first Stats took {median} us (median)"
    );
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}
