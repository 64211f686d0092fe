//! The SKLS/SKLH decoders under the shared attack harness.
//!
//! The store/serve data plane feeds these decoders bytes that crossed a
//! disk or a socket, so hostile input is a normal operating condition.
//! Each corpus below is a small valid encoding; `sickle_field::io::attack`
//! refuses every strict prefix of it and runs every single-bit flip and
//! noise behind every known magic, which must return `InvalidData` or a
//! set, never panic or allocate by a hostile count (a zero dimension, a
//! flip away, would panic building the set). The directed test covers the
//! counts a flip of a small corpus cannot reach.

use sickle_field::io::attack::{bit_flips_return, noise_returns, prefixes_are_errors};
use sickle_field::io::{
    decode_sample_set, decode_sample_sets, encode_sample_set, encode_sample_sets,
};
use sickle_field::{FeatureMatrix, SampleSet};

/// Every magic a shard byte string can start with, and none.
const MAGICS: [&[u8]; 4] = [b"SKLS", b"SKLH", b"SKLQ", b""];

fn sample_set(n: usize, dim: usize, cube: Option<usize>) -> SampleSet {
    let names = (0..dim).map(|d| format!("f{d}")).collect();
    let features = FeatureMatrix::new(names, (0..n * dim).map(|i| i as f64 * 0.25).collect());
    let mut set = SampleSet::new(features, (0..n).map(|i| i * 3).collect(), 1.5, 2);
    set.hypercube = cube;
    set
}

fn shard_bytes(sets: usize, n: usize, dim: usize) -> Vec<u8> {
    let sets: Vec<SampleSet> = (0..sets)
        .map(|s| sample_set(n + s, dim, if s % 2 == 0 { Some(s) } else { None }))
        .collect();
    encode_sample_sets(&sets).to_vec()
}

/// SKLS corpora: two columns with a cube tag, and an empty untagged set. The owned decoder parses through the borrowed view,
/// so attacking it attacks both.
fn sample_set_corpora() -> Vec<Vec<u8>> {
    [(2, 2, Some(7)), (0, 1, None)]
        .into_iter()
        .map(|(n, dim, cube)| encode_sample_set(&sample_set(n, dim, cube)).to_vec())
        .collect()
}

/// SKLH corpora: an empty shard, and a tagged and an untagged set.
fn shard_corpora() -> Vec<Vec<u8>> {
    [(0, 1), (2, 1)]
        .into_iter()
        .map(|(sets, n)| shard_bytes(sets, n, 1))
        .collect()
}

#[test]
fn truncated_sample_set_is_error_not_panic() {
    for bytes in sample_set_corpora() {
        prefixes_are_errors("SKLS", &bytes, decode_sample_set);
    }
}

#[test]
fn bitflipped_sample_set_never_panics() {
    for bytes in sample_set_corpora() {
        bit_flips_return("SKLS", &bytes, decode_sample_set);
    }
}

#[test]
fn truncated_shard_is_error_not_panic() {
    for bytes in shard_corpora() {
        prefixes_are_errors("SKLH", &bytes, decode_sample_sets);
    }
}

#[test]
fn bitflipped_shard_never_panics() {
    for bytes in shard_corpora() {
        bit_flips_return("SKLH", &bytes, decode_sample_sets);
    }
}

#[test]
fn codec_tagged_shards_are_errors_here_not_panics() {
    // Noise behind every magic reaches both decoders; quantized SKLQ shards
    // belong to the codec layer, so this crate's decoders must refuse that
    // magic cleanly — an old binary pointed at a compressed store gets an
    // error, not a panic.
    noise_returns("SKLS", &MAGICS, decode_sample_set);
    noise_returns("SKLH", &MAGICS, decode_sample_sets);
    let refused = |b: &[u8]| {
        assert!(decode_sample_set(b).is_err() && decode_sample_sets(b).is_err());
        Ok(())
    };
    noise_returns("SKLQ here", &[b"SKLQ"], refused);
}

/// The `u64::MAX` counts a flip of a small corpus cannot reach: each
/// used to drive an unchecked `with_capacity` or a wrapping length check.
#[test]
fn hostile_counts_are_errors_not_aborts() {
    // Sample set with n = u64::MAX: n*8 + n*dim*8 wraps in release builds,
    // which used to pass the length check and then abort allocating.
    let mut bytes = encode_sample_set(&sample_set(3, 2, None)).to_vec();
    let n_off = 4 + 4 + 8 + 8 + 8 + 4 + 2 * (4 + 2); // header + dim + two "f0"/"f1" names
    assert_eq!(&bytes[n_off..n_off + 8], &3u64.to_le_bytes());
    bytes[n_off..n_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_sample_set(&bytes).is_err());

    // Shard with a count far beyond its payload.
    let mut bytes = shard_bytes(2, 4, 2);
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_sample_sets(&bytes).is_err());
}
