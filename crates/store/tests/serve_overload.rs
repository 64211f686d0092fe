//! Overload test for the admission bound: a server with `max_conns = 2`
//! under more clients than it admits must answer every over-bound arrival
//! with an explicit `Busy` error frame — never a silent connection drop —
//! and the client's jittered busy-retry loop must recover every batch
//! bit-identically with zero client-visible errors. The final audit
//! reconciles the two sides of the ledger: the server's `requests_shed`
//! counter must equal the total number of `Busy` frames the clients
//! observed and retried, which proves no shed was invisible (a dropped
//! connection would surface as a transport retry, not a busy retry, and
//! the two counts would diverge).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sickle_store::batching::{local_batch, num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::Batch;

const MAX_CONNS: usize = 2;
const THREADS: usize = 6;

fn temp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_serve_overload_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn overload_client(addr: std::net::SocketAddr, seed: u64) -> StoreClient {
    StoreClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 4,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            busy_budget: 256,
            seed,
            timeout: Duration::from_secs(5),
        },
    )
}

fn assert_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.shape, b.shape, "{what}: shape");
    for (i, (x, y)) in a.inputs.iter().zip(&b.inputs).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: input {i}");
    }
    for (i, (x, y)) in a.targets.iter().zip(&b.targets).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: target {i}");
    }
}

#[test]
fn saturated_server_sheds_with_busy_frames_and_clients_recover_everything() {
    let root = temp_root();
    let out = small_output(1, 6, 128);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
    let mut keyed: Vec<_> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), Arc::new(s.clone())))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let sets: Vec<_> = keyed.into_iter().map(|(_, s)| s).collect();
    let handle = serve(
        Arc::new(store),
        ServeConfig {
            threads: 2,
            max_conns: MAX_CONNS,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Phase 1 — deterministic shed. Two holders pin both admission slots
    // (their connections are cached after the first request), so a third
    // arrival MUST be answered Busy, not accepted and not dropped.
    let mut holder_a = overload_client(addr, 1);
    let mut holder_b = overload_client(addr, 2);
    holder_a.manifest().expect("holder A pins a slot");
    holder_b.manifest().expect("holder B pins a slot");
    let third = std::thread::spawn(move || {
        let mut client = overload_client(addr, 3);
        let manifest = client.manifest().expect("third client recovers via retry");
        (manifest.len(), client.busy_retries())
    });
    // Let the third client bounce off the full server, then free the slots
    // so its backoff loop can land.
    std::thread::sleep(Duration::from_millis(50));
    drop(holder_a);
    drop(holder_b);
    let (manifest_len, third_busy) = third.join().expect("third client thread");
    assert_eq!(manifest_len, 6);
    assert!(
        third_busy >= 1,
        "a full server must shed the third arrival with a Busy frame"
    );

    // Phase 2 — sustained saturation: 6 epoch-streaming threads against 2
    // admission slots. Each thread uses a FRESH client per batch so its
    // slot is released between batches (a cached connection would pin the
    // slot forever and starve the others); every batch must come back
    // bit-identical with zero client-visible errors.
    let spec = BatchSpec {
        seed: 31,
        batch_size: 2,
        tokens: 8,
    };
    let n = sets.len();
    let batches = num_batches(n, spec.batch_size);
    let reference: Vec<Batch> = (0..batches)
        .map(|i| local_batch(&sets, spec, i).unwrap())
        .collect();
    let reference = Arc::new(reference);
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut busy = 0u64;
                for i in 0..batches {
                    let mut client = overload_client(addr, (10 + t * batches + i) as u64);
                    let got = client
                        .batch(spec, i)
                        .unwrap_or_else(|e| panic!("thread {t} batch {i}: {e}"));
                    assert_bit_identical(&got, &reference[i], &format!("thread {t} batch {i}"));
                    busy += client.busy_retries();
                }
                busy
            })
        })
        .collect();
    let mut total_busy = third_busy;
    for t in threads {
        total_busy += t.join().expect("epoch thread must not panic");
    }

    // The ledger: every shed the server counted was a Busy frame some
    // client received and retried — and vice versa. The stats client's own
    // sheds (if any) all happen before its successful request, so they are
    // inside the snapshot it reads back.
    let mut auditor = overload_client(addr, 99);
    let snap = auditor.stats().expect("stats after the storm");
    total_busy += auditor.busy_retries();
    assert!(
        snap.requests_shed > 0,
        "saturation produced no sheds at all"
    );
    assert_eq!(
        snap.requests_shed, total_busy,
        "server sheds and client-observed busy retries disagree: \
         some backpressure was invisible to clients"
    );

    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}
