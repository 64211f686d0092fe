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
use sickle_store::ClientConfig;
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
