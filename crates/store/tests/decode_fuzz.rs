//! The decoders a hostile peer or a hostile disk can reach, under the
//! shared attack harness: request frames with and without trace-context
//! trailers, response frames, Stats JSON and trace contexts, plus the pack
//! and manifest of a store. The invariant everywhere is *error, never
//! panic* — the server must survive any byte sequence a client writes or a
//! pack holds, and the client any byte sequence a server returns.
//!
//! Each corpus is a small valid frame; `sickle_field::io::attack` refuses
//! every strict prefix of it and runs every single-bit flip and noise
//! behind every tag. The caps a flip cannot reach (`MAX_TENSOR_KEYS`,
//! `MAX_FRAME`, `u32::MAX` shapes) are pinned in `protocol::tests`; the
//! store tests here tamper with a published pack and its manifest.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use sickle_field::io::attack::{bit_flips_return, noise, noise_returns, prefixes_are_errors};
use sickle_field::io::invalid;
use sickle_field::SampleSet;
use sickle_obs::TraceContext;
use sickle_store::batching::{Batch, BatchShape, BatchSpec};
use sickle_store::manifest::{ShardEntry, ShardKey, StoreManifest};
use sickle_store::protocol::{
    Request, Response, WireErrorKind, TAG_REQ_BATCH, TAG_REQ_MANIFEST, TAG_REQ_SHUTDOWN,
    TAG_REQ_STATS, TAG_REQ_TENSORS, TAG_RESP_BATCH, TAG_RESP_ERROR, TAG_RESP_MANIFEST,
    TAG_RESP_STATS, TRACE_MAGIC,
};
use sickle_store::stats::StatsSnapshot;
use sickle_store::{Codec, ShardStore, StoreConfig};

/// The context every traced corpus carries.
const CTX: TraceContext = TraceContext {
    trace_id: 0xABCD_EF01_2345_6789,
    span_id: (4242 << 32) + 17,
};

/// One request of every kind, `GetTensors` with and without keys.
fn requests() -> Vec<Request> {
    let spec = BatchSpec {
        seed: 0xDEAD_BEEF,
        batch_size: 32,
        tokens: 4095,
    };
    let keys = [(0, 5), (usize::MAX, 9)].map(|(snapshot, cube)| ShardKey { snapshot, cube });
    vec![
        Request::Manifest,
        Request::Stats,
        Request::Shutdown,
        Request::GetBatch {
            spec,
            index: u64::MAX,
        },
        Request::GetTensors {
            tokens: 16,
            keys: keys.to_vec(),
        },
        Request::GetTensors {
            tokens: 1,
            keys: Vec::new(),
        },
    ]
}

/// A frame as the decoder sees it: the tag byte, then the payload.
fn frame((tag, payload): (u8, Vec<u8>)) -> Vec<u8> {
    [&[tag][..], &payload].concat()
}

fn decode_request(frame: &[u8]) -> io::Result<(Request, Option<TraceContext>)> {
    let (&tag, payload) = frame.split_first().ok_or_else(|| invalid("empty frame"))?;
    Request::decode_with_context(tag, payload)
}

fn decode_response(frame: &[u8]) -> io::Result<Response> {
    let (&tag, payload) = frame.split_first().ok_or_else(|| invalid("empty frame"))?;
    Response::decode(tag, payload)
}

/// `Batch` frames of three shapes, an empty one included; the values'
/// bits include NaN payloads, infinities and signed zeros.
fn batches() -> Vec<Batch> {
    let bits = |n: usize| (0..n as u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)));
    let shapes = [(2, 3, 2, 2), (0, 3, 2, 2), (1, 1, 1, 1)];
    shapes
        .map(|(batch, tokens, features, outputs)| Batch {
            shape: BatchShape {
                batch,
                tokens,
                features,
                outputs,
            },
            inputs: bits(batch * tokens * features).collect(),
            targets: bits(batch * outputs).collect(),
        })
        .to_vec()
}

/// A response frame without its `u32` length prefix.
fn response_frame(resp: Response) -> Vec<u8> {
    let wire = resp.encode_frame();
    frame((wire[0], wire[5..].to_vec()))
}

#[test]
fn any_request_roundtrips_exactly() {
    // Every request kind survives an encode/decode cycle unchanged, with
    // its context when traced and without one when not; `Request::decode`
    // (a server that ignores telemetry) parses the traced frame too.
    for req in requests() {
        let plain = decode_request(&frame(req.encode())).unwrap();
        assert_eq!(plain, (req.clone(), None));
        let (tag, payload) = req.encode_traced(Some(CTX));
        assert_eq!(Request::decode(tag, &payload).unwrap(), req);
        let traced = decode_request(&frame((tag, payload))).unwrap();
        assert_eq!(traced, (req, Some(CTX)));
    }
}

#[test]
fn truncated_traced_requests_are_errors_not_panics() {
    // A traced frame decodes here only with its context: a prefix that cuts
    // the whole trailer off is a well-formed *untraced* request.
    let decode_traced = |f: &[u8]| match decode_request(f)? {
        (req, Some(_)) => Ok(req),
        (_, None) => Err(invalid("no trace context")),
    };
    for req in requests() {
        let what = format!("{req:?}");
        prefixes_are_errors(&what, &frame(req.encode()), decode_request);
        prefixes_are_errors(&what, &frame(req.encode_traced(Some(CTX))), decode_traced);
    }
}

#[test]
fn bitflipped_traced_requests_never_panic_and_never_misparse() {
    // A flip may still parse (e.g. inside the context ids) — but if it
    // does, re-encoding what was parsed must reproduce the flipped frame
    // byte for byte.
    let reencodes = |f: &[u8]| {
        let (req, ctx) = decode_request(f)?;
        assert_eq!(frame(req.encode_traced(ctx)), f, "misparsed");
        Ok(())
    };
    for req in requests() {
        let what = format!("{req:?}");
        bit_flips_return(&what, &frame(req.encode()), reencodes);
        bit_flips_return(&what, &frame(req.encode_traced(Some(CTX))), reencodes);
    }
}

#[test]
fn arbitrary_request_frames_never_panic() {
    // Noise behind every tag, 0x02 (retired) and two that never were.
    let tags = [
        TAG_REQ_MANIFEST,
        TAG_REQ_BATCH,
        TAG_REQ_STATS,
        TAG_REQ_SHUTDOWN,
        TAG_REQ_TENSORS,
        0x02,
        TRACE_MAGIC,
        0xFF,
    ];
    noise_returns("request noise", &tags.map(|t| [t]), decode_request);
}

#[test]
fn arbitrary_response_frames_never_panic() {
    let tags = [
        TAG_RESP_MANIFEST,
        TAG_RESP_BATCH,
        TAG_RESP_STATS,
        TAG_RESP_ERROR,
        0x82,
        0,
    ];
    noise_returns("response noise", &tags.map(|t| [t]), decode_response);
    let others = [
        Response::Manifest(b"{\"version\":3}".to_vec()),
        Response::Stats(b"{\"requests\":12}".to_vec()),
        Response::Error {
            kind: WireErrorKind::Busy,
            message: "admission bound reached".into(),
        },
    ];
    for resp in batches().into_iter().map(Response::Batch).chain(others) {
        bit_flips_return("response", &response_frame(resp), decode_response);
    }
}

#[test]
fn tensor_blocks_roundtrip_bit_exact() {
    // What a `GetTensors` answer looks like on the wire: a `Batch` frame
    // with one sample per key (zero keys included). Its length is exact,
    // so every prefix is refused.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for block in batches() {
        let frame = response_frame(Response::Batch(block.clone()));
        match decode_response(&frame).unwrap() {
            Response::Batch(back) => {
                assert_eq!(back.shape, block.shape);
                assert_eq!(bits(&back.inputs), bits(&block.inputs));
                assert_eq!(bits(&back.targets), bits(&block.targets));
            }
            other => panic!("expected Batch, got {other:?}"),
        }
        prefixes_are_errors("batch frame", &frame, decode_response);
    }
}

#[test]
fn trace_context_decode_is_total() {
    // Any 16-byte slice parses; everything else is None. No panics.
    noise_returns("trace context", &[b""], |bytes| {
        let got = TraceContext::decode(bytes);
        assert_eq!(got.is_some(), bytes.len() == TraceContext::WIRE_LEN);
        assert!(got.is_none_or(|ctx| ctx.encode() == bytes));
        Ok(())
    });
}

fn decode_stats(bytes: &[u8]) -> io::Result<StatsSnapshot> {
    StatsSnapshot::from_json(bytes).map_err(invalid)
}

#[test]
fn arbitrary_stats_payloads_never_panic() {
    noise_returns(
        "stats noise",
        &[&b"{"[..], b"", b"{\"requests\":"],
        decode_stats,
    );
}

#[test]
fn bitflipped_stats_json_is_error_or_valid_never_panic() {
    let json = StatsSnapshot::collect(&sickle_store::ConnRegistry::default()).to_json();
    bit_flips_return("stats JSON", &json, decode_stats);
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

/// Distinguishes the per-case temp stores of the hostile-store tests.
static FUZZ_CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[test]
fn hostile_shard_files_are_errors_not_panics() {
    // A store whose manifest hashes *match* hostile shard bytes — a
    // malicious or broken producer, not bit rot — reaches the codec decode
    // layer through `get()`. Noise behind every magic, one shard each in one
    // pack: every read must be refused by the codec layer, never panic.
    let magics: [&[u8]; 4] = [b"SKLQ\x01\x00\x00\x00\x04", b"SKLQ", b"SKLH", b""];
    let noise = magics
        .iter()
        .flat_map(|m| (0..64).step_by(9).map(move |len| noise(m, len, 1)));
    let root = fuzz_root("shardfuzz");
    std::fs::create_dir_all(&root).unwrap();
    let mut manifest = StoreManifest::new("cfg", vec!["u".into()]);
    let mut pack = Vec::new();
    for (cube, shard) in noise.enumerate() {
        manifest.entries.push(ShardEntry {
            snapshot: 0,
            cube,
            offset: pack.len(),
            bytes: shard.len(),
            hash: sickle_field::io::content_hash_hex(&shard),
            points: 0,
            codec: "f16".to_string(),
        });
        pack.extend_from_slice(&shard);
    }
    manifest.pack = StoreManifest::pack_name(&manifest.entries);
    manifest.pack_bytes = pack.len();
    std::fs::write(root.join(&manifest.pack), &pack).unwrap();
    manifest.save_atomic(&root.join("manifest.json")).unwrap();
    let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
    for entry in &manifest.entries {
        let err = store.get(entry.key()).expect_err("hostile shard read");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{entry:?}: {err}");
    }
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
}

/// A fresh temp store root for one fuzz case.
fn fuzz_root(tag: &str) -> PathBuf {
    let case = FUZZ_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root =
        std::env::temp_dir().join(format!("sickle_store_{tag}_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

const KEYS: [ShardKey; 3] = [key(0), key(1), key(2)];

const fn key(cube: usize) -> ShardKey {
    ShardKey { snapshot: 0, cube }
}

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
    use std::os::unix::fs::FileExt;
    // Small identity (SKLH) and resim (SKLQ) shards whose lengths are not
    // a multiple of the hash's 32-byte stripe, so flips land in full
    // stripes and in the 8/4/1-byte tail alike. The pack's length still
    // matches the manifest, so only the content hash can catch each flip,
    // and it must catch it in the flipped shard alone. One store stays
    // open: each byte is flipped in place (same length, so its mapping
    // sees the new byte) and restored, and a one-byte cache budget keeps
    // at most the last shard read resident, so every read is a miss.
    let cfg = StoreConfig {
        cache_bytes: 1,
        ..StoreConfig::default()
    };
    for (codec, points) in [(Codec::Identity, 9), (Codec::resim_default(), 27)] {
        let out = sickle_store::testutil::small_output(1, KEYS.len(), points);
        let root = fuzz_root(&format!("byteflip_{}", codec.name()));
        let store = ShardStore::ingest_with(&root, &out, cfg, |_| codec).expect("ingest");
        let entries = store.manifest().entries.clone();
        for e in &entries {
            assert_ne!(e.bytes % 32, 0, "{codec:?}: pick a length with a tail");
            assert!(e.bytes > 64, "{codec:?}: need at least two full stripes");
        }
        let pack_path = root.join(&store.manifest().pack);
        let clean = std::fs::read(&pack_path).expect("read pack");
        let pack = std::fs::OpenOptions::new()
            .write(true)
            .open(&pack_path)
            .expect("open pack");
        for (offset, &byte) in clean.iter().enumerate() {
            pack.write_all_at(&[byte ^ 0xA5], offset as u64)
                .expect("flip byte");
            for (e, &key) in entries.iter().zip(&KEYS) {
                assert!(
                    !store.is_cached(key),
                    "{codec:?} byte {offset}: {key:?} hit"
                );
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
            pack.write_all_at(&[byte], offset as u64)
                .expect("restore byte");
        }
        assert_eq!(std::fs::read(&pack_path).expect("reread pack"), clean);
        assert!(
            KEYS.iter().all(|&k| store.get(k).is_ok()),
            "{codec:?}: clean pack reads"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
