//! # sickle-codec
//!
//! Shard codecs for the SICKLE store: the layer between persistence and
//! serving that decides how a shard's sample sets are laid out on disk.
//!
//! The paper's extreme-scale claim is ultimately a bytes problem: MaxEnt
//! sampling shrinks what you *train on*, but full-precision f64 shards
//! still dominate disk. Following Wu, Zaki & Meneveau's database
//! compression by local re-simulation, this crate trades read-path compute
//! (and a budgeted amount of accuracy) for storage:
//!
//! | codec      | tag | values stored                  | typical ratio |
//! |------------|-----|--------------------------------|---------------|
//! | `identity` |  —  | raw SKLH (f64)                 | 1x            |
//! | `f16`      |  1  | IEEE binary16                  | ~3x           |
//! | `u8`       |  3  | u8 + per-block scale/offset    | ~5x           |
//! | `resim`    |  4  | strided f16 rows + local solve | ~7x           |
//!
//! **Wire format.** Identity shards are byte-for-byte the existing `SKLH`
//! container — hashes, filenames, and old stores are untouched. Lossy
//! shards use a sibling container:
//! ```text
//! magic "SKLQ" | u32 version | u8 codec_tag | u64 count |
//! count x (u64 len, payload blob)
//! ```
//! [`decode_shard`] dispatches on the magic, so a reader never needs to be
//! told which codec wrote a shard — the bytes say. Unknown magics and
//! unknown tags return `InvalidData`; hostile input never panics. Tag 2
//! (a retired bfloat16 codec) is unknown.
//!
//! The manifest additionally records each shard's codec name (see
//! `sickle-store`), which is how per-codec stats are computed without
//! touching shard bytes.

pub mod half;
pub mod quant;
pub mod resim;
pub mod wire;

use std::io;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sickle_field::io as fio;
use sickle_field::points::SampleSet;

use wire::{invalid, need};

/// Magic for the quantized shard container (sibling of `SKLH`).
pub const QUANT_MAGIC: &[u8; 4] = b"SKLQ";
/// Version of the `SKLQ` container format.
pub const QUANT_VERSION: u32 = 1;

/// A shard codec choice. `Identity` is the compatibility default and
/// writes plain `SKLH` bytes; the rest write `SKLQ` containers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Raw SKLH bytes — what every store before this layer wrote.
    Identity,
    /// IEEE binary16 values.
    F16,
    /// u8 values with per-block scale/offset (block = 256 rows).
    U8Block,
    /// Strided f16 rows re-simulated on read by Jacobi relaxation.
    Resim {
        /// Keep one row in `stride`.
        stride: u32,
        /// Jacobi sweeps the decoder runs.
        sweeps: u32,
    },
}

impl Codec {
    /// The default coarse + re-simulate configuration.
    pub fn resim_default() -> Codec {
        Codec::Resim {
            stride: resim::DEFAULT_STRIDE,
            sweeps: resim::DEFAULT_SWEEPS,
        }
    }

    /// Stable name, as recorded in store manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Identity => "identity",
            Codec::F16 => "f16",
            Codec::U8Block => "u8",
            Codec::Resim { .. } => "resim",
        }
    }

    /// The `SKLQ` codec tag, or `None` for identity.
    fn tag(&self) -> Option<u8> {
        match self {
            Codec::Identity => None,
            Codec::F16 => Some(1),
            Codec::U8Block => Some(3),
            Codec::Resim { .. } => Some(4),
        }
    }
}

/// Encodes sample sets as a shard under `codec`. Identity produces the
/// exact bytes `sickle_field::io::encode_sample_sets` always has; other
/// codecs produce an `SKLQ` container.
pub fn encode_shard(sets: &[SampleSet], codec: Codec) -> Bytes {
    let Some(tag) = codec.tag() else {
        return fio::encode_sample_sets(sets);
    };
    let mut buf = BytesMut::new();
    buf.put_slice(QUANT_MAGIC);
    buf.put_u32_le(QUANT_VERSION);
    buf.put_u8(tag);
    buf.put_u64_le(sets.len() as u64);
    for set in sets {
        let blob = match codec {
            Codec::Identity => unreachable!("identity handled above"),
            Codec::F16 => quant::encode_f16(set),
            Codec::U8Block => quant::encode_u8block(set),
            Codec::Resim { stride, sweeps } => resim::encode_resim(set, stride, sweeps),
        };
        buf.put_u64_le(blob.len() as u64);
        buf.put_slice(&blob);
    }
    sickle_obs::counter!("codec.encode.shards", 1usize);
    buf.freeze()
}

/// Peeks a shard's codec name from its bytes without decoding the payload.
///
/// # Errors
/// `InvalidData` on unknown magic or codec tag, or truncation.
pub fn shard_codec_name(data: &[u8]) -> io::Result<&'static str> {
    need(data, 4, "truncated shard")?;
    match &data[..4] {
        m if m == b"SKLH" => Ok("identity"),
        m if m == QUANT_MAGIC => {
            need(data, 9, "truncated shard")?;
            match data[8] {
                1 => Ok("f16"),
                3 => Ok("u8"),
                4 => Ok("resim"),
                t => Err(invalid(&format!("unknown codec tag {t}"))),
            }
        }
        _ => Err(invalid("bad shard magic")),
    }
}

/// Decodes a shard written by [`encode_shard`] (or by any pre-codec
/// SICKLE version — plain `SKLH` dispatches to the legacy decoder). The
/// codec is read from the bytes; callers never pass it.
///
/// # Errors
/// `InvalidData` on unknown magic, unsupported version, unknown codec
/// tag, or truncated/hostile payloads. Never panics.
pub fn decode_shard(mut data: &[u8]) -> io::Result<Vec<SampleSet>> {
    need(data, 4, "truncated shard")?;
    if &data[..4] == b"SKLH" {
        return fio::decode_sample_sets(data);
    }
    if &data[..4] != QUANT_MAGIC {
        return Err(invalid("bad shard magic"));
    }
    data.advance(4);
    need(data, 4 + 1 + 8, "truncated shard")?;
    let version = data.get_u32_le();
    if version != QUANT_VERSION {
        return Err(invalid(&format!("unsupported SKLQ version {version}")));
    }
    let tag = data.get_u8();
    let decode: fn(&[u8]) -> io::Result<SampleSet> = match tag {
        1 => quant::decode_f16,
        3 => quant::decode_u8block,
        4 => resim::decode_resim,
        t => return Err(invalid(&format!("unknown codec tag {t}"))),
    };
    let count = data.get_u64_le() as usize;
    // Each entry needs >= 8 bytes of length prefix; bound the allocation
    // by what the buffer can actually hold.
    let mut sets = Vec::with_capacity(count.min(data.remaining() / 8));
    for _ in 0..count {
        need(data, 8, "truncated shard")?;
        let len = data.get_u64_le() as usize;
        need(data, len, "truncated shard")?;
        let (blob, rest) = data.split_at(len);
        sets.push(decode(blob)?);
        data = rest;
    }
    sickle_obs::counter!("codec.decode.shards", 1usize);
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::points::FeatureMatrix;

    fn sets() -> Vec<SampleSet> {
        let mk = |seed: f64, n: usize, cube: usize| {
            let names = vec!["u".into(), "q".into()];
            let data: Vec<f64> = (0..n * 2)
                .map(|i| (i as f64 * 0.1 + seed).sin() * 3.0)
                .collect();
            let mut s = SampleSet::new(
                FeatureMatrix::new(names, data),
                (0..n).map(|i| i * 3 + 11).collect(),
                1.25,
                4,
            );
            s.hypercube = Some(cube);
            s
        };
        vec![mk(0.0, 100, 0), mk(2.0, 64, 1)]
    }

    #[test]
    fn identity_bytes_match_legacy_encoder_exactly() {
        let sets = sets();
        let legacy = fio::encode_sample_sets(&sets);
        let ours = encode_shard(&sets, Codec::Identity);
        assert_eq!(&legacy[..], &ours[..]);
        // And the new decoder reads legacy bytes.
        let back = decode_shard(&legacy).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].features.data, sets[0].features.data);
    }

    #[test]
    fn every_codec_roundtrips_structure() {
        let sets = sets();
        for codec in [Codec::F16, Codec::U8Block, Codec::resim_default()] {
            let bytes = encode_shard(&sets, codec);
            assert_eq!(shard_codec_name(&bytes).unwrap(), codec.name());
            let back = decode_shard(&bytes).unwrap();
            assert_eq!(back.len(), sets.len(), "{codec:?}");
            for (a, b) in sets.iter().zip(&back) {
                assert_eq!(a.indices, b.indices, "{codec:?}");
                assert_eq!(a.features.names, b.features.names);
                assert_eq!(a.time, b.time);
                assert_eq!(a.snapshot_index, b.snapshot_index);
                assert_eq!(a.hypercube, b.hypercube);
            }
        }
    }

    #[test]
    fn quantized_is_smaller_than_identity() {
        let sets = sets();
        let id = encode_shard(&sets, Codec::Identity).len() as f64;
        // These fixture sets are short dim-2 chains where per-row index
        // metadata dominates; the dense-cube ratios live in resim::tests.
        for (codec, floor) in [
            (Codec::F16, 2.5),
            (Codec::U8Block, 3.0),
            (Codec::resim_default(), 3.5),
        ] {
            let len = encode_shard(&sets, codec).len() as f64;
            assert!(id / len > floor, "{codec:?}: {id} / {len}");
        }
    }

    #[test]
    fn unknown_tag_is_error_not_abort() {
        // Tag 2 is the retired bfloat16 codec: refused like any other.
        for tag in [2, 200] {
            let mut bytes = encode_shard(&sets(), Codec::F16).to_vec();
            bytes[8] = tag; // codec tag byte
            let err = decode_shard(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}");
            assert!(err.to_string().contains("unknown codec tag"), "tag {tag}");
            assert!(shard_codec_name(&bytes).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn unknown_version_and_magic_are_errors() {
        let mut bytes = encode_shard(&sets(), Codec::F16).to_vec();
        bytes[4] = 9; // version
        assert!(decode_shard(&bytes).is_err());
        let mut bytes = encode_shard(&sets(), Codec::F16).to_vec();
        bytes[0] = b'X';
        assert!(decode_shard(&bytes).is_err());
        assert!(decode_shard(b"").is_err());
        assert!(decode_shard(b"SK").is_err());
    }

    #[test]
    fn truncation_is_error_at_every_prefix() {
        let bytes = encode_shard(&sets(), Codec::U8Block);
        // Sweep a coarse grid of prefixes plus the boundary region.
        for cut in (0..bytes.len())
            .step_by(97)
            .chain(bytes.len() - 9..bytes.len())
        {
            assert!(decode_shard(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
