//! Property tests for the decoders a hostile peer or a hostile disk can
//! reach: request frames with and without trace-context trailers, Stats
//! JSON, raw response payloads, shard bytes, and the pack and manifest of
//! a store. The invariant everywhere is *error, never panic* — the server
//! must survive any byte sequence a client writes or a pack holds, and the
//! client any byte sequence a server returns.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use sickle_field::SampleSet;
use sickle_obs::TraceContext;
use sickle_store::batching::{Batch, BatchShape, BatchSpec};
use sickle_store::manifest::{ShardEntry, ShardKey, StoreManifest};
use sickle_store::protocol::{read_frame, Request, Response, TRACE_TRAILER_LEN};
use sickle_store::stats::StatsSnapshot;
use sickle_store::{Codec, ShardStore, StoreConfig};

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

/// Distinguishes the per-case temp stores of the hostile-store tests.
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
        let root = fuzz_root("shardfuzz");
        std::fs::create_dir_all(&root).unwrap();
        let mut manifest = StoreManifest::new("cfg", vec!["u".into()]);
        manifest.entries.push(ShardEntry {
            snapshot: 0,
            cube: 0,
            offset: 0,
            bytes: bytes.len(),
            hash: sickle_field::io::content_hash_hex(&bytes),
            points: 0,
            codec: "f16".to_string(),
        });
        manifest.pack = StoreManifest::pack_name(&manifest.entries);
        manifest.pack_bytes = bytes.len();
        std::fs::write(root.join(&manifest.pack), &bytes).unwrap();
        manifest.save_atomic(&root.join("manifest.json")).unwrap();
        let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
        prop_assert!(store.get(ShardKey { snapshot: 0, cube: 0 }).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hostile_ranges_are_errors_not_panics(
        offset in 0usize..1024,
        bytes in 0usize..1024,
        pack_sel in 0u8..4,
    ) {
        // A genuine one-shard store whose manifest then names an arbitrary
        // range and pack length. Only the genuine triple may read; every
        // other one is `InvalidData` from the load, the pack's length check
        // or the hash — never a panic, an out-of-bounds slice or a SIGBUS.
        let root = fuzz_root("rangefuzz");
        let out = sickle_store::testutil::small_output(1, 1, 9);
        ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let mut manifest = StoreManifest::load(&root.join("manifest.json")).unwrap();
        let real = manifest.pack_bytes;
        let pack_bytes = [real - 1, real, real + 1, usize::MAX][pack_sel as usize];
        let genuine = (offset, bytes, pack_bytes) == (0, real, real);
        manifest.entries[0].offset = offset;
        manifest.entries[0].bytes = bytes;
        manifest.pack_bytes = pack_bytes;
        manifest.save_atomic(&root.join("manifest.json")).unwrap();
        let got = ShardStore::open(&root, StoreConfig::default())
            .and_then(|store| store.get(ShardKey { snapshot: 0, cube: 0 }));
        match got {
            Ok(_) => prop_assert!(genuine, "{offset}+{bytes} of {pack_bytes} read"),
            Err(err) => {
                prop_assert!(!genuine, "genuine store failed: {err}");
                prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            }
        }
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

/// A fresh temp store root for one fuzz case.
fn fuzz_root(tag: &str) -> PathBuf {
    let case = FUZZ_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root =
        std::env::temp_dir().join(format!("sickle_store_{tag}_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

const KEYS: [ShardKey; 3] = [
    ShardKey {
        snapshot: 0,
        cube: 0,
    },
    ShardKey {
        snapshot: 0,
        cube: 1,
    },
    ShardKey {
        snapshot: 0,
        cube: 2,
    },
];

/// Ingests a three-shard store, lets `tamper` vandalise its pack behind
/// the manifest's back, and reopens it, handing the attempt to `check`
/// with the shards as ingested.
fn tampered_pack(
    what: &str,
    tamper: impl Fn(&Path, &StoreManifest),
    check: impl Fn(&str, std::io::Result<ShardStore>, &[Arc<SampleSet>]),
) {
    let root = fuzz_root(&format!("hostile_{what}"));
    let out = sickle_store::testutil::small_output(1, KEYS.len(), 64);
    let clean: Vec<_> = {
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
        KEYS.iter().map(|&k| store.get(k).expect("clean")).collect()
    };
    let manifest = StoreManifest::load(&root.join("manifest.json")).expect("manifest");
    tamper(&root.join(&manifest.pack), &manifest);
    check(
        what,
        ShardStore::open(&root, StoreConfig::default()),
        &clean,
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The open must fail with `InvalidData`: the pack's length is checked
/// against the manifest *before* any page is mapped, so the open errors
/// cleanly instead of a read raising SIGBUS.
fn refused_at_open(what: &str, opened: std::io::Result<ShardStore>, _: &[Arc<SampleSet>]) {
    match opened {
        Ok(_) => panic!("{what}: a resized pack must not open"),
        Err(err) => assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{what}: unexpected error {err}"
        ),
    }
}

#[test]
fn shard_truncated_after_publish_is_an_error_not_a_sigbus() {
    tampered_pack(
        "truncated",
        |pack, _| {
            let bytes = std::fs::read(pack).expect("read pack");
            std::fs::write(pack, &bytes[..bytes.len() / 2]).expect("truncate pack");
        },
        refused_at_open,
    );
}

#[test]
fn shard_emptied_after_publish_is_an_error() {
    tampered_pack(
        "emptied",
        |pack, _| std::fs::write(pack, b"").expect("empty pack"),
        refused_at_open,
    );
}

#[test]
fn pack_grown_after_publish_is_an_error() {
    tampered_pack(
        "grown",
        |pack, _| {
            let mut bytes = std::fs::read(pack).expect("read pack");
            bytes.push(0);
            std::fs::write(pack, &bytes).expect("grow pack");
        },
        refused_at_open,
    );
}

#[test]
fn shard_bitflipped_after_publish_fails_the_hash_check() {
    tampered_pack(
        "bitflip",
        |pack, manifest| {
            let mut bytes = std::fs::read(pack).expect("read pack");
            let e = &manifest.entries[1];
            bytes[e.offset + e.bytes / 2] ^= 0x40;
            std::fs::write(pack, &bytes).expect("rewrite pack");
        },
        |what, opened, clean| {
            let store = opened.expect("the pack's length is intact");
            let raw = store.shard_handle(KEYS[1]);
            assert!(
                raw.is_err(),
                "{what}: raw read must error, got {} bytes",
                raw.map(|b| b.len()).unwrap_or(0)
            );
            let got = store.get(KEYS[1]);
            assert!(got.is_err(), "{what}: decode must error");
            for err in [raw.unwrap_err(), got.unwrap_err()] {
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{what}: unexpected error {err}"
                );
            }
            for i in [0, 2] {
                let set = store.get(KEYS[i]).expect("an untouched shard still reads");
                assert_eq!(
                    set.features.data, clean[i].features.data,
                    "{what}: shard {i}"
                );
            }
        },
    );
}

#[test]
fn hostile_ranges_and_missing_packs_are_errors_not_panics() {
    type Hostile = fn(&Path, &mut StoreManifest);
    let cases: [(&str, Hostile, std::io::ErrorKind); 8] = [
        (
            "offset + bytes overflows",
            |_, m| m.entries[1].offset = usize::MAX,
            std::io::ErrorKind::InvalidData,
        ),
        (
            "bytes alone overflow",
            |_, m| m.entries[0].bytes = usize::MAX,
            std::io::ErrorKind::InvalidData,
        ),
        (
            "range runs past the pack",
            |_, m| m.entries[2].bytes += 1,
            std::io::ErrorKind::InvalidData,
        ),
        (
            "manifest pack length too long",
            |_, m| m.pack_bytes += 1,
            std::io::ErrorKind::InvalidData,
        ),
        (
            "manifest pack length too short",
            |_, m| {
                m.pack_bytes -= 1;
                m.entries[2].bytes -= 1;
            },
            std::io::ErrorKind::InvalidData,
        ),
        (
            "pack is missing",
            |root, m| std::fs::remove_file(root.join(&m.pack)).expect("remove pack"),
            std::io::ErrorKind::NotFound,
        ),
        (
            "pack outside the root",
            |_, m| m.pack = format!("../{}", m.pack),
            std::io::ErrorKind::InvalidData,
        ),
        (
            "pack not a pack name",
            |_, m| m.pack = "manifest.json".into(),
            std::io::ErrorKind::InvalidData,
        ),
    ];
    for (what, hostile, kind) in cases {
        let root = fuzz_root("hostile_range");
        let out = sickle_store::testutil::small_output(1, KEYS.len(), 16);
        ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
        let mut manifest = StoreManifest::load(&root.join("manifest.json")).expect("load");
        hostile(&root, &mut manifest);
        manifest
            .save_atomic(&root.join("manifest.json"))
            .expect("save");
        match ShardStore::open(&root, StoreConfig::default()) {
            Ok(_) => panic!("{what}: a hostile manifest must not open"),
            Err(err) => assert_eq!(err.kind(), kind, "{what}: {err}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn every_single_byte_flip_fails_the_content_hash() {
    // Small identity (SKLH) and resim (SKLQ) shards whose lengths are not
    // a multiple of the hash's 32-byte stripe, so flips land in full
    // stripes and in the 8/4/1-byte tail alike. The pack's length still
    // matches the manifest, so only the content hash can catch each flip,
    // and it must catch it in the flipped shard alone.
    for (codec, points) in [(Codec::Identity, 9), (Codec::resim_default(), 27)] {
        let out = sickle_store::testutil::small_output(1, KEYS.len(), points);
        let root = fuzz_root(&format!("byteflip_{}", codec.name()));
        let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), |_| codec)
            .expect("ingest");
        let entries = store.manifest().entries.clone();
        let pack = root.join(&store.manifest().pack);
        drop(store);
        for e in &entries {
            assert_ne!(e.bytes % 32, 0, "{codec:?}: pick a length with a tail");
            assert!(e.bytes > 64, "{codec:?}: need at least two full stripes");
        }
        let clean = std::fs::read(&pack).expect("read pack");
        for offset in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0xA5;
            std::fs::write(&pack, &bytes).expect("rewrite pack");
            let store = ShardStore::open(&root, StoreConfig::default()).expect("length intact");
            for (e, &key) in entries.iter().zip(&KEYS) {
                let got = store.get(key);
                if (e.offset..e.offset + e.bytes).contains(&offset) {
                    let err = got.expect_err("a flipped byte must not verify");
                    assert_eq!(
                        err.kind(),
                        std::io::ErrorKind::InvalidData,
                        "{codec:?} byte {offset}: {err}"
                    );
                } else {
                    assert!(got.is_ok(), "{codec:?} byte {offset}: {key:?}");
                }
            }
        }
        std::fs::write(&pack, &clean).expect("restore pack");
        let store = ShardStore::open(&root, StoreConfig::default()).expect("open");
        assert!(
            KEYS.iter().all(|&k| store.get(k).is_ok()),
            "{codec:?}: clean pack reads"
        );
        std::fs::remove_dir_all(&root).ok();
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
    let pack = root.join(&manifest.pack);
    let mut bytes = std::fs::read(&pack).expect("pack");
    bytes[8] = 250;
    std::fs::write(&pack, &bytes).expect("rewrite");
    manifest.entries[0].hash = sickle_field::io::content_hash_hex(&bytes);
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
