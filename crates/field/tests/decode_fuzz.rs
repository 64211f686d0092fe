//! Robustness property tests for the binary decoders.
//!
//! The store/serve data plane feeds `decode_sample_set` and the SKLH shard
//! decoder with bytes that crossed a disk or a socket, so
//! hostile input is a normal operating condition: every truncation must be
//! an `io::Error`, and no bit flip may panic or trigger an unbounded
//! allocation (counts read from the wire must never drive `with_capacity`
//! unchecked — that is an abort, not even a catchable panic).

use proptest::prelude::*;
use sickle_field::io::{
    decode_sample_set, decode_sample_sets, encode_sample_set, encode_sample_sets,
};
use sickle_field::{FeatureMatrix, SampleSet};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_sample_set_is_error_not_panic(
        (n, dim, frac) in (1usize..20, 1usize..4, 0.0f64..1.0)
    ) {
        let bytes = encode_sample_set(&sample_set(n, dim, Some(7))).to_vec();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_sample_set(&bytes[..cut]).is_err());
    }

    #[test]
    fn bitflipped_sample_set_never_panics(
        (n, dim, pos_frac, bit) in (1usize..20, 1usize..4, 0.0f64..1.0, 0u8..8)
    ) {
        let mut bytes = encode_sample_set(&sample_set(n, dim, None)).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = decode_sample_set(&bytes);
    }

    #[test]
    fn truncated_shard_is_error_not_panic(
        (sets, n, frac) in (1usize..4, 1usize..10, 0.0f64..1.0)
    ) {
        let bytes = shard_bytes(sets, n, 2);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_sample_sets(&bytes[..cut]).is_err());
    }

    #[test]
    fn bitflipped_shard_never_panics(
        (sets, n, pos_frac, bit) in (1usize..4, 1usize..10, 0.0f64..1.0, 0u8..8)
    ) {
        let mut bytes = shard_bytes(sets, n, 2);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = decode_sample_sets(&bytes);
    }

    #[test]
    fn codec_tagged_shards_are_errors_here_not_panics(
        payload in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        // Quantized SKLQ shards belong to the codec layer; this crate's
        // legacy decoders must reject the foreign magic cleanly — an old
        // binary pointed at a compressed store gets an error, not a panic.
        let mut bytes = b"SKLQ".to_vec();
        bytes.extend_from_slice(&payload);
        prop_assert!(decode_sample_sets(&bytes).is_err());
        prop_assert!(decode_sample_set(&bytes).is_err());
    }
}

/// Directed regressions for the specific count fields a fuzzer takes longest
/// to hit: each one used to drive an unchecked `with_capacity` or a
/// wrapping length check.
#[test]
fn hostile_counts_are_errors_not_aborts() {
    // Sample set with n = u64::MAX: n*8 + n*dim*8 wraps in release builds,
    // which used to pass the length check and then abort allocating.
    let set = sample_set(3, 2, None);
    let mut bytes = encode_sample_set(&set).to_vec();
    let n_off = 4 + 4 + 8 + 8 + 8 + 4 + 2 * (4 + 2); // header + dim + two "f0"/"f1" names
    assert_eq!(&bytes[n_off..n_off + 8], &3u64.to_le_bytes());
    bytes[n_off..n_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_sample_set(&bytes).is_err());

    // Sample set claiming zero feature columns (FeatureMatrix would panic).
    let mut bytes = encode_sample_set(&set).to_vec();
    let dim_off = 4 + 4 + 8 + 8 + 8;
    bytes[dim_off..dim_off + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(decode_sample_set(&bytes).is_err());

    // Shard with a count far beyond its payload.
    let mut bytes = shard_bytes(2, 4, 2);
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_sample_sets(&bytes).is_err());

    // A well-formed SKLQ header (codec-layer format): still foreign to the
    // legacy decoder, still an error — the magic check must come first.
    let mut bytes = b"SKLQ".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes()); // container version
    bytes.push(1); // codec tag (f16)
    bytes.extend_from_slice(&1u64.to_le_bytes()); // set count
    assert!(decode_sample_sets(&bytes).is_err());
}
