//! Robustness property tests for the SKLQ codec decoders.
//!
//! Shard bytes cross disks and sockets before [`sickle_codec::decode_shard`]
//! sees them, so hostile input is a normal operating condition: truncation
//! and bit flips must surface as `io::Error`, never a panic or an abort,
//! and no count read from the wire may drive an unbounded allocation or an
//! unbounded amount of solver work (the resim codec runs a solver on the
//! read path — a flipped sweep count must not become a CPU sink).

use proptest::prelude::*;
use sickle_codec::{decode_shard, encode_shard, shard_codec_name, Codec};
use sickle_field::points::{FeatureMatrix, SampleSet};

fn all_codecs() -> Vec<Codec> {
    vec![
        Codec::Identity,
        Codec::F16,
        Codec::U8Block,
        Codec::resim_default(),
    ]
}

fn codec_by_index(i: usize) -> Codec {
    let all = all_codecs();
    all[i % all.len()]
}

/// A mix of a raster cube (affine indices) and a scattered set (list
/// indices), covering both header encodings.
fn shard_bytes(e: usize, scatter: usize, codec: Codec) -> Vec<u8> {
    let n = e * e * e;
    let names: Vec<String> = vec!["u".into(), "q".into()];
    let cube_indices: Vec<usize> = (0..n)
        .map(|r| {
            let z = r % e;
            let y = (r / e) % e;
            let x = r / (e * e);
            (x * 64 + y) * 64 + z
        })
        .collect();
    let cube = SampleSet::new(
        FeatureMatrix::new(
            names.clone(),
            (0..n * 2).map(|i| (i as f64 * 0.13).sin()).collect(),
        ),
        cube_indices,
        0.5,
        1,
    );
    let sparse = SampleSet::new(
        FeatureMatrix::new(
            names,
            (0..scatter * 2).map(|i| (i as f64 * 0.31).cos()).collect(),
        ),
        (0..scatter).map(|i| (i * 7919) % 100_000).collect(),
        0.5,
        1,
    );
    encode_shard(&[cube, sparse], codec).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_shard_is_error_not_panic(
        (e, scatter, ci, frac) in (2usize..5, 1usize..30, 0usize..4, 0.0f64..1.0)
    ) {
        let bytes = shard_bytes(e, scatter, codec_by_index(ci));
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_shard(&bytes[..cut]).is_err());
    }

    #[test]
    fn bitflipped_shard_never_panics(
        (e, scatter, ci, pos_frac, bit) in
            (2usize..5, 1usize..30, 0usize..4, 0.0f64..1.0, 0u8..8)
    ) {
        let mut bytes = shard_bytes(e, scatter, codec_by_index(ci));
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        // A flip in a value payload legitimately decodes to different
        // numbers; a flip in any count, tag, or dimension must surface as
        // io::Error — either way the decoder returns, never panics.
        let _ = decode_shard(&bytes);
        let _ = shard_codec_name(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_shard(&data);
        let _ = shard_codec_name(&data);
    }

    #[test]
    fn arbitrary_bytes_with_valid_magic_never_panic(
        (magic_sel, data) in (0u8..2, proptest::collection::vec(0u8..=255, 0..512))
    ) {
        let mut bytes = if magic_sel == 0 { b"SKLQ".to_vec() } else { b"SKLH".to_vec() };
        bytes.extend_from_slice(&data);
        let _ = decode_shard(&bytes);
        let _ = shard_codec_name(&bytes);
    }
}

/// Directed checks for the fields a fuzzer takes longest to hit.
#[test]
fn hostile_fields_are_errors_not_aborts() {
    let bytes = shard_bytes(3, 10, Codec::F16);

    // Unknown codec tag (byte 8) must be an error, not a panic.
    let mut bad = bytes.clone();
    bad[8] = 250;
    assert!(decode_shard(&bad).is_err());
    assert!(shard_codec_name(&bad).is_err());

    // Set count far beyond the payload (bytes 9..17).
    let mut bad = bytes.clone();
    bad[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_shard(&bad).is_err());

    // Unsupported container version.
    let mut bad = bytes.clone();
    bad[4..8].copy_from_slice(&77u32.to_le_bytes());
    assert!(decode_shard(&bad).is_err());

    // Blob length prefix larger than the remaining bytes.
    let mut bad = bytes;
    bad[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_shard(&bad).is_err());
}
