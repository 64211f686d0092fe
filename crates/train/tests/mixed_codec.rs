//! Mixed-codec serving contract: a store holding identity *and* quantized
//! shards side by side serves deterministic epochs, and the identity shards
//! stay bit-identical to in-memory batching — compression is a per-shard
//! storage decision, invisible to the training loop except through the
//! values themselves — and those move the trained loss by no more than a
//! stated budget.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_energy::MachineModel;
use sickle_store::batching::{batch_keys, local_batch, num_batches, tensorize_set, BatchSpec};
use sickle_store::cache::sample_set_bytes;
use sickle_store::manifest::ShardKey;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::{ClientConfig, Codec, StoreClient};
use sickle_train::trainer::{train, TrainConfig};
use sickle_train::{RemoteDataset, TensorData, TokenTransformer};

const SNAPSHOTS: usize = 2;
const CUBES: usize = 4;
const POINTS: usize = 40;
const TOKENS: usize = 8;

fn policy(key: ShardKey) -> Codec {
    if key.cube.is_multiple_of(2) {
        Codec::Identity
    } else {
        Codec::U8Block
    }
}

#[test]
fn mixed_codec_store_serves_deterministic_epochs() {
    let root = std::env::temp_dir().join(format!("sickle_mixed_codec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(SNAPSHOTS, CUBES, POINTS);

    let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), policy).unwrap();
    let mut names: Vec<&str> = store
        .manifest()
        .entries
        .iter()
        .map(|e| e.codec.as_str())
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names, ["identity", "u8"], "store must actually be mixed");

    // The post-codec truth: what every shard decodes to, in canonical order.
    let decoded: Vec<_> = store
        .keys()
        .into_iter()
        .map(|k| (k, store.get(k).unwrap()))
        .collect();

    // Identity shards decode bit-identical to the in-memory sets; u8 shards
    // land within half a quantization step of values on [-1, 1].
    let mut originals: Vec<_> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), s))
        .collect();
    originals.sort_by_key(|(k, _)| *k);
    for ((key, dec), (okey, orig)) in decoded.iter().zip(&originals) {
        assert_eq!(key, okey);
        assert_eq!(dec.indices, orig.indices, "indices are lossless everywhere");
        if policy(*key) == Codec::Identity {
            let a: Vec<u64> = dec.features.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = orig.features.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "identity shard must be bit-exact");
        } else {
            for (a, b) in dec.features.data.iter().zip(&orig.features.data) {
                assert!((a - b).abs() < 2e-2, "u8 shard too lossy: {a} vs {b}");
            }
        }
    }

    // Reference tensors built from the decoded sets, exactly as the server
    // tensorizes them.
    let features = decoded[0].1.features.dim();
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for (_, set) in &decoded {
        let (i, t) = tensorize_set(set, TOKENS).unwrap();
        inputs.extend(i);
        targets.extend(t);
    }
    let reference = TensorData::new(inputs, targets, TOKENS, features, features);

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

    for (seed, batch_size) in [(3u64, 4usize), (11, 5)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let local = reference.batches(batch_size, &mut rng);
        // First epoch decodes cold (the u8 shards run through the codec);
        // the second serves from the decoded cache. Both must match the
        // local reference bit for bit — decode determinism plus cache
        // consistency in one assertion.
        let cold = remote.epoch(seed, batch_size).unwrap();
        let warm = remote.epoch(seed, batch_size).unwrap();
        assert_eq!(local.len(), cold.len(), "seed {seed}: batch count");
        for (i, ((l, c), w)) in local.iter().zip(&cold).zip(&warm).enumerate() {
            assert_eq!(l.shape, c.shape, "seed {seed} batch {i}: shape");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&l.inputs),
                bits(&c.inputs),
                "seed {seed} batch {i}: cold inputs"
            );
            assert_eq!(
                bits(&l.targets),
                bits(&c.targets),
                "seed {seed} batch {i}: cold targets"
            );
            assert_eq!(
                bits(&c.inputs),
                bits(&w.inputs),
                "seed {seed} batch {i}: warm inputs"
            );
            assert_eq!(
                bits(&c.targets),
                bits(&w.targets),
                "seed {seed} batch {i}: warm targets"
            );
        }
    }

    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// A cache far smaller than the working set evicts decoded sets with their
/// cached targets and re-decodes them on almost every request; `GetBatch`
/// and `GetTensors` answers must still equal `local_batch` over the decoded
/// sets bit for bit.
#[test]
fn small_cache_answers_equal_local_batches() {
    let root = std::env::temp_dir().join(format!("sickle_small_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), policy).unwrap();
    let keys = store.keys();
    let sets: Vec<_> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
    let small = Arc::new(
        ShardStore::open(
            &root,
            StoreConfig {
                cache_bytes: 2 * sample_set_bytes(&sets[0]),
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    );
    let handle = serve(
        Arc::clone(&small),
        ServeConfig {
            lookahead: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = StoreClient::new(
        handle.addr().to_string(),
        ClientConfig {
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (seed, batch_size) in [(3u64, 4usize), (11, 3)] {
        let spec = BatchSpec {
            seed,
            batch_size,
            tokens: TOKENS,
        };
        for i in 0..num_batches(sets.len(), batch_size) {
            let reference = local_batch(&sets, spec, i).unwrap();
            let batch_keys = batch_keys(&keys, spec, i).unwrap();
            for (what, got) in [
                ("GetBatch", client.batch(spec, i).unwrap()),
                ("GetTensors", client.tensors(TOKENS, &batch_keys).unwrap()),
            ] {
                assert_eq!(got.shape, reference.shape, "seed {seed} batch {i}: {what}");
                assert_eq!(bits(&got.inputs), bits(&reference.inputs), "{what} inputs");
                assert_eq!(
                    bits(&got.targets),
                    bits(&reference.targets),
                    "{what} targets"
                );
            }
        }
    }
    let (resident, _, _) = small.cache_stats();
    assert!(
        resident < keys.len(),
        "the cache never held the working set"
    );
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

/// Best held-out loss of a short training run on the serving plane's own
/// task (tokens → per-column means, as `tensorize_set` defines it) whose
/// input tokens are what `inputs` decodes; targets come from `truth`, so
/// only the codec differs between two calls. The model learns this task
/// within the run, so a wrong decode moves the loss by tens of percent.
fn trained_loss(inputs: &ShardStore, truth: &ShardStore) -> f64 {
    let mut tokens = Vec::new();
    let mut targets = Vec::new();
    let mut features = 0;
    for key in truth.keys() {
        tokens.extend(tensorize_set(&inputs.get(key).unwrap(), TOKENS).unwrap().0);
        let truth_set = truth.get(key).unwrap();
        features = truth_set.features.dim();
        targets.extend(tensorize_set(&truth_set, TOKENS).unwrap().1);
    }
    let mut data = TensorData::new(tokens, targets, TOKENS, features, features);
    data.standardize();
    let mut model = TokenTransformer::mlp_transformer(TOKENS, features, 16, 1, features, 8);
    let cfg = TrainConfig {
        epochs: 10,
        batch: 4,
        test_frac: 0.25,
        seed: 8,
        ..TrainConfig::default()
    };
    f64::from(train(&mut model, &data, &cfg, MachineModel::frontier_gcd()).best_test)
}

/// The downstream-error bound a lossy store must state (after
/// Wu–Zaki–Meneveau, arXiv:1910.11994): training on decoded shards lands
/// within 5 % (quantizers) or 10 % (coarse + re-simulate) of the loss
/// reached on identity shards.
#[test]
fn lossy_codecs_train_within_loss_delta_of_identity() {
    let out = small_output(SNAPSHOTS, 16, POINTS);
    let store_of = |codec: Codec| {
        let root = std::env::temp_dir().join(format!(
            "sickle_codec_loss_{}_{}",
            codec.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        ShardStore::ingest_with(&root, &out, StoreConfig::default(), |_| codec).unwrap()
    };
    let truth = store_of(Codec::Identity);
    let identity = trained_loss(&truth, &truth);
    assert!(identity.is_finite() && identity > 0.0);
    for (codec, budget_pct) in [
        (Codec::F16, 5.0),
        (Codec::U8Block, 5.0),
        (Codec::resim_default(), 10.0),
    ] {
        let store = store_of(codec);
        let delta_pct = 100.0 * (trained_loss(&store, &truth) - identity) / identity;
        std::fs::remove_dir_all(store.root()).ok();
        assert!(
            delta_pct.abs() <= budget_pct,
            "{}: loss delta {delta_pct:+.2}% vs identity exceeds {budget_pct}%",
            codec.name()
        );
    }
    std::fs::remove_dir_all(truth.root()).ok();
}
