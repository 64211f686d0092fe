//! The SKLQ codec decoders under the shared attack harness.
//!
//! Shard bytes cross disks and sockets before [`sickle_codec::decode_shard`]
//! sees them, so hostile input is a normal operating condition. Each corpus
//! below is a small valid shard per codec; `sickle_field::io::attack`
//! refuses every strict prefix of it and runs every single-bit flip and
//! noise behind every container magic and codec tag, which must return
//! `InvalidData` or sets, never panic, allocate by a hostile count, or run
//! unbounded solver work (the resim codec solves on the read path; its
//! sweep cap is pinned in `resim::tests`). The directed test covers the
//! container fields a flip of a small corpus cannot reach.

use sickle_codec::{decode_shard, encode_shard, Codec};
use sickle_field::io::attack::{bit_flips_return, noise_returns, prefixes_are_errors};
use sickle_field::points::{FeatureMatrix, SampleSet};

/// `SKLQ`, version 1, then each codec tag: noise behind these reaches the
/// f16, u8 and resim payload decoders.
const MAGICS: [&[u8]; 6] = [
    b"SKLQ\x01\x00\x00\x00\x01",
    b"SKLQ\x01\x00\x00\x00\x03",
    b"SKLQ\x01\x00\x00\x00\x04",
    b"SKLQ",
    b"SKLH",
    b"",
];

/// A two-row scattered set (a u32 index list), a raster cube of edge `e`
/// (affine indices) and one row past `u32::MAX` (a u64 list): the sets
/// picked by `pick` as one shard.
fn shard_bytes(e: usize, pick: &[usize], codec: Codec) -> Vec<u8> {
    let n = e * e * e;
    let names: Vec<String> = vec!["u".into(), "q".into()];
    // Row r at lattice (x, y, z) = (r / e², r / e % e, r % e) of a 64³ grid.
    let cube_indices = (0..n).map(|r| (r / (e * e) * 64 + r / e % e) * 64 + r % e);
    let sparse = SampleSet::new(
        FeatureMatrix::new(names.clone(), vec![0.25, -1.5, 3.0, 0.0]),
        vec![7919, 15],
        0.5,
        1,
    );
    let cube = SampleSet::new(
        FeatureMatrix::new(
            names.clone(),
            (0..n * 2).map(|i| (i as f64 * 0.13).sin()).collect(),
        ),
        cube_indices.collect(),
        0.5,
        1,
    );
    let wide = SampleSet::new(
        FeatureMatrix::new(names, vec![0.5, -2.0]),
        vec![1 << 33],
        0.5,
        1,
    )
    .with_hypercube(3);
    let all = [sparse, cube, wide];
    let sets: Vec<SampleSet> = pick.iter().map(|&i| all[i].clone()).collect();
    encode_shard(&sets, codec).to_vec()
}

/// One small valid shard per lossy codec, between them every index
/// encoding of the set header. Identity shards are SKLH, which
/// `sickle-field` attacks at length (here they meet noise behind their
/// magic); `resim::tests` attacks the chain solve besides this lattice.
fn corpora() -> Vec<(String, Vec<u8>)> {
    [
        (Codec::F16, &[0, 2][..]),
        (Codec::U8Block, &[1]),
        // One sweep keeps each decode cheap; flips reach 513 sweeps or the cap.
        (
            Codec::Resim {
                stride: 3,
                sweeps: 1,
            },
            &[1],
        ),
    ]
    .into_iter()
    .map(|(codec, pick)| {
        (
            format!("{} shard", codec.name()),
            shard_bytes(2, pick, codec),
        )
    })
    .collect()
}

#[test]
fn truncated_shard_is_error_not_panic() {
    for (what, bytes) in corpora() {
        prefixes_are_errors(&what, &bytes, decode_shard);
    }
}

#[test]
fn bitflipped_shard_never_panics() {
    // A flip in a value payload legitimately decodes to different numbers;
    // a flip in a count, tag or dimension must be refused — either way the
    // decoder returns.
    for (what, bytes) in corpora() {
        bit_flips_return(&what, &bytes, decode_shard);
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    noise_returns("bare noise", &[b""], decode_shard);
}

#[test]
fn arbitrary_bytes_with_valid_magic_never_panic() {
    noise_returns("noise behind a magic", &MAGICS, decode_shard);
}

/// The `u64::MAX` counts a flip of a small corpus cannot reach (unknown
/// tags and versions are pinned in the crate's unit tests).
#[test]
fn hostile_fields_are_errors_not_aborts() {
    let bytes = shard_bytes(3, &[0, 1, 2], Codec::F16);
    // Set count (bytes 9..17), then the first blob's length prefix.
    for range in [9..17, 17..25] {
        let mut bad = bytes.clone();
        bad[range].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_shard(&bad).is_err());
    }
}
