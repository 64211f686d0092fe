//! Property tests for the wire decoders a hostile peer can reach: request
//! frames with and without trace-context trailers, Stats JSON, and raw
//! response payloads. The invariant everywhere is *error, never panic* —
//! the server must survive any byte sequence a client writes, and the
//! client any byte sequence a server returns.

use proptest::prelude::*;

use sickle_obs::TraceContext;
use sickle_store::batching::{Batch, BatchShape, BatchSpec};
use sickle_store::manifest::{ShardEntry, ShardKey, StoreManifest};
use sickle_store::protocol::{read_frame, Request, Response, TRACE_TRAILER_LEN};
use sickle_store::stats::StatsSnapshot;
use sickle_store::{Codec, MmapMode, ShardStore, StoreConfig};

/// Decodes a draw from the 5-way request space (the vendored proptest has
/// no `prop_oneof`, so the discriminant is an explicit field).
#[allow(clippy::type_complexity)]
fn request_of(
    (which, (seed, batch_size, tokens, index), keys): (
        usize,
        (u64, usize, usize, u64),
        Vec<(usize, usize)>,
    ),
) -> Request {
    match which {
        0 => Request::Manifest,
        1 => Request::Stats,
        2 => Request::Shutdown,
        3 => Request::GetBatch {
            spec: BatchSpec {
                seed,
                batch_size,
                tokens,
            },
            index,
        },
        _ => Request::GetTensors {
            tokens: tokens as u32,
            keys: keys
                .into_iter()
                .map(|(snapshot, cube)| ShardKey { snapshot, cube })
                .collect(),
        },
    }
}

/// Distinguishes the per-case temp stores of `hostile_shard_files_...`.
static FUZZ_CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn any_request() -> impl Strategy<Value = Request> {
    (
        0usize..5,
        (0u64..=u64::MAX, 1usize..4096, 1usize..4096, 0u64..=u64::MAX),
        proptest::collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..8),
    )
        .prop_map(request_of)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_request_frames_never_panic(
        tag in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        // Either decode path: any outcome but a panic is fine.
        let _ = Request::decode(tag, &payload);
        let _ = Request::decode_with_context(tag, &payload);
    }

    #[test]
    fn truncated_traced_requests_are_errors_not_panics(
        req in any_request(),
        trace_id in 0u64..=u64::MAX,
        span_id in 0u64..=u64::MAX,
        cut in 1usize..TRACE_TRAILER_LEN,
    ) {
        let ctx = TraceContext { trace_id, span_id };
        let (tag, payload) = req.encode_traced(Some(ctx));
        // Cutting into the trailer always invalidates the frame: the
        // remainder is neither empty nor a whole trailer.
        let cut_payload = &payload[..payload.len() - cut];
        prop_assert!(Request::decode_with_context(tag, cut_payload).is_err());
        prop_assert!(Request::decode(tag, cut_payload).is_err());
    }

    #[test]
    fn bitflipped_traced_requests_never_panic_and_never_misparse(
        req in any_request(),
        trace_id in 0u64..=u64::MAX,
        span_id in 0u64..=u64::MAX,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let ctx = TraceContext { trace_id, span_id };
        let (tag, mut payload) = req.encode_traced(Some(ctx));
        let pos = ((payload.len() - 1) as f64 * pos_frac) as usize;
        payload[pos] ^= 1 << bit;
        // A flip may still parse (e.g. inside the context ids) — but if it
        // does, re-encoding what was parsed must reproduce the flipped
        // frame byte for byte. It must never panic.
        if let Ok((parsed, parsed_ctx)) = Request::decode_with_context(tag, &payload) {
            let (tag2, payload2) = parsed.encode_traced(parsed_ctx);
            prop_assert_eq!(tag2, tag);
            prop_assert_eq!(payload2, payload);
        }
    }

    #[test]
    fn trace_context_decode_is_total(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Any 16-byte slice parses; everything else is None. No panics.
        let got = TraceContext::decode(&bytes);
        prop_assert_eq!(got.is_some(), bytes.len() == TraceContext::WIRE_LEN);
        if let Some(ctx) = got {
            prop_assert_eq!(ctx.encode().to_vec(), bytes);
        }
    }

    #[test]
    fn arbitrary_stats_payloads_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = StatsSnapshot::from_json(&bytes);
    }

    #[test]
    fn bitflipped_stats_json_is_error_or_valid_never_panic(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let reg = sickle_store::ConnRegistry::default();
        let mut json = StatsSnapshot::collect(&reg).to_json();
        let pos = ((json.len() - 1) as f64 * pos_frac) as usize;
        json[pos] ^= 1 << bit;
        let _ = StatsSnapshot::from_json(&json);
    }

    #[test]
    fn arbitrary_response_frames_never_panic(
        tag in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = Response::decode(tag, &payload);
    }

    #[test]
    fn any_request_roundtrips_exactly(req in any_request()) {
        // The full 5-way request space (including GetTensors key lists)
        // survives an encode/decode cycle unchanged.
        let (tag, payload) = req.encode();
        prop_assert_eq!(Request::decode(tag, &payload).unwrap(), req);
    }

    #[test]
    fn hostile_shard_files_are_errors_not_panics(
        magic_sel in 0u8..3,
        data in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        // A store whose manifest hash *matches* hostile shard bytes — a
        // malicious or broken producer, not bit rot — reaches the codec
        // decode layer through `get()`. It must error, never panic.
        let mut bytes = match magic_sel {
            1 => b"SKLQ".to_vec(),
            2 => b"SKLH".to_vec(),
            _ => Vec::new(),
        };
        bytes.extend_from_slice(&data);
        let case = FUZZ_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "sickle_store_shardfuzz_{}_{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("shards")).unwrap();
        let hash = sickle_field::io::content_hash_hex(&bytes);
        let file = format!("shards/{hash}.sklq");
        std::fs::write(root.join(&file), &bytes).unwrap();
        let mut manifest = StoreManifest::new("cfg", vec!["u".into()]);
        manifest.entries.push(ShardEntry {
            snapshot: 0,
            cube: 0,
            file,
            hash,
            points: 0,
            bytes: bytes.len(),
            codec: "f16".to_string(),
        });
        manifest.save_atomic(&root.join("manifest.json")).unwrap();
        let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
        prop_assert!(store.get(ShardKey { snapshot: 0, cube: 0 }).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tensor_blocks_roundtrip_bit_exact(
        count in 0usize..6,
        tokens in 1usize..8,
        features in 1usize..8,
        fill in proptest::collection::vec(-1.0e30f32..1.0e30, 0..8),
    ) {
        let value = |i: usize| *fill.get(i % fill.len().max(1)).unwrap_or(&0.25) + i as f32;
        // What a `GetTensors` answer looks like on the wire: a `Batch`
        // frame with one sample per key (zero keys included).
        let block = Batch {
            shape: BatchShape { batch: count, tokens, features, outputs: features },
            inputs: (0..count * tokens * features).map(value).collect(),
            targets: (0..count * features).map(value).collect(),
        };
        let frame = Response::Batch(block.clone()).encode_frame();
        let (tag, payload) = read_frame(&mut &frame[..]).unwrap();
        match Response::decode(tag, &payload).unwrap() {
            Response::Batch(back) => {
                prop_assert_eq!(back.shape, block.shape);
                let bits =
                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&back.inputs), bits(&block.inputs));
                prop_assert_eq!(bits(&back.targets), bits(&block.targets));
            }
            other => prop_assert!(false, "expected Batch, got {other:?}"),
        }
    }
}

/// Ingests a tiny store, then lets `tamper` vandalise the shard file
/// behind the manifest's back, and asserts every read path — raw handle,
/// decoded get — errors under both the mmap and `read_at` planes. The
/// mmap plane must fail with a clean `Err`, never a SIGBUS: the length
/// check runs against the manifest *before* any page is mapped.
fn hostile_file_errors_both_planes(what: &str, tamper: impl Fn(&std::path::Path)) {
    for (mode, tag) in [(MmapMode::On, "mmap"), (MmapMode::Off, "read")] {
        let out = sickle_store::testutil::small_output(1, 1, 64);
        let root = std::env::temp_dir().join(format!(
            "sickle_store_hostile_{what}_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = StoreConfig {
            mmap: mode,
            ..StoreConfig::default()
        };
        let store = ShardStore::ingest(&root, &out, cfg).expect("ingest");
        let manifest = StoreManifest::load(&root.join("manifest.json")).expect("manifest");
        tamper(&root.join(&manifest.entries[0].file));
        let key = ShardKey {
            snapshot: 0,
            cube: 0,
        };
        let raw = store.shard_handle(key);
        assert!(
            raw.is_err(),
            "{what}/{tag}: raw read must error, got {} bytes",
            raw.map(|b| b.len()).unwrap_or(0)
        );
        let got = store.get(key);
        assert!(got.is_err(), "{what}/{tag}: decode must error");
        for err in [raw.unwrap_err(), got.unwrap_err()] {
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{what}/{tag}: unexpected error {err}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn shard_truncated_after_publish_is_an_error_not_a_sigbus() {
    hostile_file_errors_both_planes("truncated", |file| {
        let bytes = std::fs::read(file).expect("read shard");
        std::fs::write(file, &bytes[..bytes.len() / 2]).expect("truncate shard");
    });
}

#[test]
fn shard_emptied_after_publish_is_an_error() {
    hostile_file_errors_both_planes("emptied", |file| {
        std::fs::write(file, b"").expect("empty shard");
    });
}

#[test]
fn shard_bitflipped_after_publish_fails_the_hash_check() {
    hostile_file_errors_both_planes("bitflip", |file| {
        let mut bytes = std::fs::read(file).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(file, &bytes).expect("rewrite shard");
    });
}

#[test]
fn every_single_byte_flip_fails_the_content_hash() {
    // Small identity (SKLH) and resim (SKLQ) shards whose lengths are not
    // a multiple of the hash's 32-byte stripe, so flips land in full
    // stripes and in the 8/4/1-byte tail alike. The length still matches
    // the manifest, so only the content hash can catch each flip.
    for (codec, points) in [(Codec::Identity, 9), (Codec::resim_default(), 27)] {
        for (mode, tag) in [(MmapMode::On, "mmap"), (MmapMode::Off, "read")] {
            let out = sickle_store::testutil::small_output(1, 1, points);
            let root = std::env::temp_dir().join(format!(
                "sickle_store_byteflip_{}_{tag}_{}",
                codec.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let cfg = StoreConfig {
                mmap: mode,
                ..StoreConfig::default()
            };
            let store = ShardStore::ingest_with(&root, &out, cfg, |_| codec).expect("ingest");
            let file = root.join(&store.manifest().entries[0].file);
            let clean = std::fs::read(&file).expect("read shard");
            assert_ne!(clean.len() % 32, 0, "{codec:?}: pick a length with a tail");
            assert!(
                clean.len() > 64,
                "{codec:?}: need at least two full stripes"
            );
            let key = ShardKey {
                snapshot: 0,
                cube: 0,
            };
            for offset in 0..clean.len() {
                let mut bytes = clean.clone();
                bytes[offset] ^= 0xA5;
                std::fs::write(&file, &bytes).expect("rewrite shard");
                let err = store.get(key).expect_err("a flipped byte must not verify");
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{codec:?}/{tag} byte {offset}: {err}"
                );
            }
            std::fs::write(&file, &clean).expect("restore shard");
            assert!(store.get(key).is_ok(), "{codec:?}/{tag}: clean shard reads");
            std::fs::remove_dir_all(&root).ok();
        }
    }
}

#[test]
fn unknown_codec_tag_in_shard_is_invalid_data_not_abort() {
    let out = sickle_store::testutil::small_output(1, 1, 16);
    let root = std::env::temp_dir().join(format!("sickle_store_badtag_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), |_| Codec::F16)
        .expect("ingest");
    drop(store);
    // Flip the codec tag to an unknown value and *fix up* the content hash
    // so the tamper check passes — the codec layer, not the hash, must be
    // what rejects the shard.
    let mut manifest = StoreManifest::load(&root.join("manifest.json")).expect("manifest");
    let mut bytes = std::fs::read(root.join(&manifest.entries[0].file)).expect("shard");
    bytes[8] = 250;
    let hash = sickle_field::io::content_hash_hex(&bytes);
    let file = format!("shards/{hash}.sklq");
    std::fs::write(root.join(&file), &bytes).expect("rewrite");
    manifest.entries[0].file = file;
    manifest.entries[0].hash = hash;
    manifest
        .save_atomic(&root.join("manifest.json"))
        .expect("save");
    let store = ShardStore::open(&root, StoreConfig::default()).expect("open");
    let err = store
        .get(ShardKey {
            snapshot: 0,
            cube: 0,
        })
        .expect_err("unknown tag must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("unknown codec tag"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&root).ok();
}
