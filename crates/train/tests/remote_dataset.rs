//! The serving plane's headline contract, enforced end-to-end: batches
//! streamed through `RemoteDataset` over real TCP are **bit-identical** to
//! the batches `TensorData::batches` builds in memory from the same sample
//! sets and the same seed.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_store::batching::tensorize_set;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::{Batch, ClientConfig, FaultPlan, ServerHandle, StoreClient};
use sickle_train::{RemoteDataset, TensorData};

const SNAPSHOTS: usize = 2;
const CUBES: usize = 5;
const POINTS: usize = 40;
const TOKENS: usize = 8;

/// Builds the in-memory reference: canonical-order sets tensorized exactly
/// as the server tensorizes them, packed into a [`TensorData`].
fn reference_tensor_data(out: &sickle_core::pipeline::SamplingOutput) -> TensorData {
    let mut keyed: Vec<_> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), s))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let features = keyed[0].1.features.dim();
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for (_, set) in keyed {
        let (i, t) = tensorize_set(set, TOKENS).unwrap();
        inputs.extend(i);
        targets.extend(t);
    }
    TensorData::new(inputs, targets, TOKENS, features, features)
}

#[test]
fn remote_batches_are_bit_identical_to_in_memory_batches() {
    let root = std::env::temp_dir().join(format!("sickle_remote_dataset_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let reference = reference_tensor_data(&out);

    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
    let handle = serve(Arc::new(store), ServeConfig::default()).unwrap();

    let mut remote = RemoteDataset::connect(
        handle.addr().to_string(),
        TOKENS,
        ClientConfig {
            retries: 3,
            backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    assert_eq!(remote.n, SNAPSHOTS * CUBES);
    assert_eq!(remote.features, 2);

    for (seed, batch_size) in [(0u64, 4usize), (42, 3), (42, 4), (7, 3), (7, 10), (1234, 1)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let local = reference.batches(batch_size, &mut rng);
        let streamed = remote.epoch(seed, batch_size).unwrap();
        assert_eq!(local.len(), streamed.len(), "seed {seed}: batch count");
        for (i, (l, r)) in local.iter().zip(&streamed).enumerate() {
            assert_eq!(l.shape, r.shape, "seed {seed} batch {i}: shape");
            for (j, (a, b)) in l.inputs.iter().zip(&r.inputs).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed} batch {i}: input {j} differs"
                );
            }
            for (j, (a, b)) in l.targets.iter().zip(&r.targets).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed} batch {i}: target {j} differs"
                );
            }
        }
    }

    // Past-the-end batch is a clean NotFound, not a hang or a panic.
    let err = remote.batch(0, 4, 9999).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// Ingests the fixture under a fresh root and serves it with `cfg`.
/// Returns the root, the in-memory reference and the server.
fn serve_fixture(tag: &str, cfg: ServeConfig) -> (std::path::PathBuf, TensorData, ServerHandle) {
    let root = std::env::temp_dir().join(format!(
        "sickle_remote_dataset_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let reference = reference_tensor_data(&out);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
    let handle = serve(Arc::new(store), cfg).unwrap();
    (root, reference, handle)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        retries: 3,
        backoff: Duration::from_millis(10),
        timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    }
}

/// Batch `index` of the in-memory epoch seeded by `seed`.
fn local_batch(reference: &TensorData, seed: u64, batch_size: usize, index: usize) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    reference.batches(batch_size, &mut rng).swap_remove(index)
}

fn assert_bit_identical(local: &Batch, streamed: &Batch, what: &str) {
    assert_eq!(local.shape, streamed.shape, "{what}: shape");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&local.inputs),
        bits(&streamed.inputs),
        "{what}: inputs"
    );
    assert_eq!(
        bits(&local.targets),
        bits(&streamed.targets),
        "{what}: targets"
    );
}

#[test]
fn an_epoch_costs_exactly_one_request_per_batch() {
    let (root, _, handle) = serve_fixture("requests", ServeConfig::default());
    let mut remote =
        RemoteDataset::connect(handle.addr().to_string(), TOKENS, client_config()).unwrap();
    // The dataset's connection was accepted first, so it has the lowest id.
    let mut control = StoreClient::new(handle.addr().to_string(), client_config());
    let mut served = || {
        let stats = control.stats().unwrap();
        stats
            .connections
            .iter()
            .min_by_key(|c| c.id)
            .unwrap()
            .requests
    };
    for (seed, batch_size) in [(0u64, 4usize), (42, 3), (7, 10), (1234, 1)] {
        let before = served();
        let batches = remote.epoch(seed, batch_size).unwrap();
        let after = served();
        assert_eq!(batches.len(), remote.num_batches(batch_size));
        assert_eq!(
            after - before,
            batches.len() as u64,
            "seed {seed} batch size {batch_size}: requests for one epoch"
        );
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn any_call_order_gets_the_batch_it_asked_for() {
    let (root, reference, handle) = serve_fixture("order", ServeConfig::default());
    let mut remote =
        RemoteDataset::connect(handle.addr().to_string(), TOKENS, client_config()).unwrap();
    // Skips, a step back, a repeat, then switches of seed and of batch size
    // mid-epoch, each while a read-ahead for another batch is in flight.
    let calls = [
        (5u64, 3usize, 0usize),
        (5, 3, 2),
        (5, 3, 1),
        (5, 3, 1),
        (5, 3, 2),
        (9, 3, 3),
        (9, 3, 0),
        (9, 4, 1),
        (9, 4, 2),
        (5, 4, 0),
        (5, 4, 1),
    ];
    for (seed, batch_size, index) in calls {
        let streamed = remote.batch(seed, batch_size, index).unwrap();
        let local = local_batch(&reference, seed, batch_size, index);
        assert_bit_identical(
            &local,
            &streamed,
            &format!("seed {seed} batch size {batch_size} batch {index}"),
        );
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_cut_read_ahead_is_fetched_again_bit_identically() {
    // Connection 0 serves the manifest (request 0) and batch 0 (request 1),
    // then is cut mid-way through the read-ahead of batch 1 (request 2).
    // Batch 1 is fetched again on connection 1, whose read-ahead of batch 2
    // (its request 1) is cut too.
    let plan = FaultPlan::parse("drop@0:2,drop@1:1").unwrap();
    let (root, reference, handle) = serve_fixture(
        "cut_read_ahead",
        ServeConfig {
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    );
    let mut remote =
        RemoteDataset::connect(handle.addr().to_string(), TOKENS, client_config()).unwrap();
    for (seed, batch_size) in [(42u64, 3usize), (7, 2)] {
        let streamed = remote.epoch(seed, batch_size).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let local = reference.batches(batch_size, &mut rng);
        assert_eq!(local.len(), streamed.len(), "seed {seed}: batch count");
        for (i, (l, r)) in local.iter().zip(&streamed).enumerate() {
            assert_bit_identical(l, r, &format!("seed {seed} batch {i}"));
        }
    }
    // Both cuts fired: the dataset reconnected twice before this client.
    let mut control = StoreClient::new(handle.addr().to_string(), client_config());
    assert_eq!(control.stats().unwrap().connections_total, 4);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}
