//! Binary sample-set I/O: the bytes an identity-codec store shard holds.
//!
//! The paper stresses that SICKLE "provides a convenient way to significantly
//! reduce file storage requirements, by storing feature-rich subsampled
//! datasets". Curated output is persisted as a shard store
//! (`sickle_store::ShardStore`); this module holds the shard payload
//! formats and the content hash that store manifests record:
//!
//! - `SKLS` — one sample set (feature rows + grid indices), see
//!   [`encode_sample_set`];
//! - `SKLH` — a framed list of `SKLS` blobs, see [`encode_sample_sets`];
//! - [`content_hash`] — XXH64, the hash of every store shard and pack.
//!
//! Format (all integers little-endian):
//! ```text
//! SKLS: magic | u32 version | f64 time | u64 snapshot | i64 cube (-1 = none) |
//!       u32 dim | dim x (u32 name_len, name bytes) | u64 n |
//!       n x u64 index | n*dim x f64 value
//! SKLH: magic | u32 version | u64 count | count x (u64 len, SKLS blob)
//! ```

use std::io;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::points::{FeatureMatrix, SampleSet};

const VERSION: u32 = 1;

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// `count * item_size` as a `usize`, or `InvalidData` when the product
/// overflows. Every decoder below sizes its reads through this so a
/// bit-flipped count can never wrap a length check (release) or panic on
/// multiply overflow (debug).
fn checked_size(count: u64, item_size: usize, what: &str) -> io::Result<usize> {
    usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(item_size))
        .ok_or_else(|| invalid(what))
}

/// Serializes a sample set (feature rows + indices) compactly.
pub fn encode_sample_set(set: &SampleSet) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SKLS");
    buf.put_u32_le(VERSION);
    buf.put_f64_le(set.time);
    buf.put_u64_le(set.snapshot_index as u64);
    buf.put_i64_le(set.hypercube.map_or(-1, |h| h as i64));
    buf.put_u32_le(set.features.dim() as u32);
    for name in &set.features.names {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    buf.put_u64_le(set.len() as u64);
    for &i in &set.indices {
        buf.put_u64_le(i as u64);
    }
    for &v in &set.features.data {
        buf.put_f64_le(v);
    }
    buf.freeze()
}

/// A sample set parsed **in place**: header scalars are decoded, variable
/// names borrow the buffer as `&str`, and the index/value payloads stay as
/// little-endian byte slices into the input (typically an `mmap`ed shard)
/// — nothing is copied until a caller asks for it. All counts and bounds
/// are validated at parse time with the same overflow-checked arithmetic
/// as [`decode_sample_set`], so [`SampleSetView::to_owned_set`] reads the
/// payloads without re-checking.
///
/// The view borrows `data` for its whole lifetime, so the buffer (e.g. a
/// mapped shard file) must outlive every view parsed from it.
#[derive(Clone, Debug)]
pub struct SampleSetView<'a> {
    /// Simulation time of the originating snapshot.
    pub time: f64,
    /// Index of the originating snapshot.
    pub snapshot_index: usize,
    /// Originating hypercube, when tagged.
    pub hypercube: Option<usize>,
    names: Vec<&'a str>,
    n: usize,
    dim: usize,
    indices: &'a [u8],
    values: &'a [u8],
}

impl<'a> SampleSetView<'a> {
    /// Number of samples (feature rows).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feature dimension (columns per row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrowed variable names, in column order.
    pub fn names(&self) -> &[&'a str] {
        &self.names
    }

    /// Materializes the borrowed view as an owned [`SampleSet`],
    /// bit-identical to decoding the same bytes eagerly.
    pub fn to_owned_set(&self) -> SampleSet {
        let names: Vec<String> = self.names.iter().map(|s| (*s).to_string()).collect();
        let indices = self.indices.as_chunks().0;
        let indices = indices
            .iter()
            .map(|&b| u64::from_le_bytes(b) as usize)
            .collect();
        let values = self.values.as_chunks().0;
        let values = values.iter().map(|&b| f64::from_le_bytes(b)).collect();
        let features = FeatureMatrix::new(names, values);
        let mut set = SampleSet::new(features, indices, self.time, self.snapshot_index);
        set.hypercube = self.hypercube;
        set
    }
}

/// Parses a sample set as a borrowed [`SampleSetView`] — the zero-copy
/// twin of [`decode_sample_set`], sharing its validation (and its error
/// messages) but allocating only the name table.
///
/// # Errors
/// Returns `InvalidData` on bad magic, a zero feature dimension, or
/// truncation.
pub fn decode_sample_set_view(mut data: &[u8]) -> io::Result<SampleSetView<'_>> {
    let err = || invalid("truncated sample set");
    if data.remaining() < 8 {
        return Err(err());
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != b"SKLS" {
        return Err(invalid("bad magic"));
    }
    let _version = data.get_u32_le();
    if data.remaining() < 8 + 8 + 8 + 4 {
        return Err(err());
    }
    let time = data.get_f64_le();
    let snapshot_index = data.get_u64_le() as usize;
    let hc = data.get_i64_le();
    let dim = data.get_u32_le() as usize;
    if dim == 0 {
        return Err(invalid("zero feature dimension"));
    }
    let mut names = Vec::with_capacity(dim.min(data.remaining() / 4));
    for _ in 0..dim {
        if data.remaining() < 4 {
            return Err(err());
        }
        let len = data.get_u32_le() as usize;
        if data.remaining() < len {
            return Err(err());
        }
        let (raw, rest) = data.split_at(len);
        names.push(std::str::from_utf8(raw).map_err(|_| err())?);
        data = rest;
    }
    if data.remaining() < 8 {
        return Err(err());
    }
    let n = data.get_u64_le();
    let idx_bytes = checked_size(n, 8, "sample count overflow")?;
    let val_bytes = checked_size(n, dim, "sample payload overflow")?
        .checked_mul(8)
        .ok_or_else(|| invalid("sample payload overflow"))?;
    let payload_bytes = idx_bytes
        .checked_add(val_bytes)
        .ok_or_else(|| invalid("sample payload overflow"))?;
    if data.remaining() < payload_bytes {
        return Err(err());
    }
    let (indices, rest) = data.split_at(idx_bytes);
    let (values, _) = rest.split_at(val_bytes);
    Ok(SampleSetView {
        time,
        snapshot_index,
        hypercube: if hc >= 0 { Some(hc as usize) } else { None },
        names,
        n: n as usize,
        dim,
        indices,
        values,
    })
}

/// Deserializes a sample set.
///
/// Defensive by contract: counts read from the buffer are attacker-controlled,
/// so none drives an allocation or length check without overflow-checked
/// arithmetic — truncated or bit-flipped input returns `InvalidData`, never
/// panics or aborts. Implemented as [`decode_sample_set_view`] + materialize, so the owned
/// and borrowed paths cannot drift.
///
/// # Errors
/// Returns `InvalidData` on bad magic, a zero feature dimension, or
/// truncation.
pub fn decode_sample_set(data: &[u8]) -> io::Result<SampleSet> {
    Ok(decode_sample_set_view(data)?.to_owned_set())
}

// ---------------------------------------------------------------------------
// Shards and the content hash
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash: one multiply per byte. A stable seed mixer for short
/// keys (the client's backoff seed mixes in its address with it); content
/// checks use [`content_hash`], which reads words, not bytes.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// XXH64 with seed 0 — the content hash of every store shard, store pack
/// name and configuration fingerprint. Four independent 64-bit lanes
/// consume 32-byte stripes, so the hash runs at memory speed where a
/// byte-at-a-time hash would be the read path's bottleneck; the tail is
/// folded 8, 4 and 1 bytes at a time, then avalanched.
pub fn content_hash(data: &[u8]) -> u64 {
    let stripes = data.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a = xxh_round(*a, le_u64(&stripe[lane * 8..]));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| xxh_merge(h, a))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(data.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, le_u64(rest));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h ^= u64::from(word).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// [`content_hash`] formatted as a fixed-width hex string — the form hashes
/// take in JSON manifests and pack file names, where a raw `u64` would not
/// survive the f64 number round-trip of the JSON layer.
pub fn content_hash_hex(data: &[u8]) -> String {
    format!("{:016x}", content_hash(data))
}

const SHARD_MAGIC: &[u8; 4] = b"SKLH";

/// Serializes sample sets as one SKLH shard:
/// `SKLH | u32 version | u64 count | count x (u64 len, SKLS blob)`.
pub fn encode_sample_sets(sets: &[SampleSet]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(SHARD_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(sets.len() as u64);
    for set in sets {
        let blob = encode_sample_set(set);
        buf.put_u64_le(blob.len() as u64);
        buf.put_slice(&blob);
    }
    buf.freeze()
}

/// Deserializes a shard written by [`encode_sample_sets`].
/// Implemented as [`decode_sample_sets_view`] + materialize, so the SKLH
/// framing is validated in one place.
///
/// # Errors
/// Returns `InvalidData` on bad magic, version, or truncation.
pub fn decode_sample_sets(data: &[u8]) -> io::Result<Vec<SampleSet>> {
    let views = decode_sample_sets_view(data)?;
    Ok(views.iter().map(SampleSetView::to_owned_set).collect())
}

/// Parses an SKLH shard as borrowed [`SampleSetView`]s: the framing
/// is validated, the per-set payloads stay in place.
///
/// # Errors
/// Returns `InvalidData` on bad magic, version, or truncation.
pub fn decode_sample_sets_view(mut data: &[u8]) -> io::Result<Vec<SampleSetView<'_>>> {
    let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if data.remaining() < 16 {
        return Err(err("truncated shard"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != SHARD_MAGIC {
        return Err(err("bad shard magic"));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(err(&format!("unsupported shard version {version}")));
    }
    let count = data.get_u64_le() as usize;
    // Each entry needs at least its 8-byte length prefix, so the buffer
    // bounds the plausible count — a bit-flipped count cannot force a huge
    // allocation before the truncation error surfaces.
    let mut sets = Vec::with_capacity(count.min(data.remaining() / 8));
    for _ in 0..count {
        if data.remaining() < 8 {
            return Err(err("truncated shard"));
        }
        let len = data.get_u64_le() as usize;
        if data.remaining() < len {
            return Err(err("truncated shard"));
        }
        let (blob, rest) = data.split_at(len);
        sets.push(decode_sample_set_view(blob)?);
        data = rest;
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;
    use crate::snapshot::Snapshot;

    fn sample_snapshot() -> Snapshot {
        let g = Grid3::new(2, 3, 4, 1.0, 2.0, 3.0);
        Snapshot::new(g, 1.25)
            .with_var("u", (0..24).map(|i| i as f64 * 0.5).collect())
            .with_var("rho", (0..24).map(|i| 1.0 + i as f64).collect())
    }

    #[test]
    fn sample_set_roundtrip() {
        let features = FeatureMatrix::new(
            vec!["u".into(), "v".into()],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        let set = SampleSet::new(features, vec![7, 8, 9], 0.5, 3).with_hypercube(12);
        let bytes = encode_sample_set(&set);
        let back = decode_sample_set(&bytes).unwrap();
        assert_eq!(back.indices, set.indices);
        assert_eq!(back.features, set.features);
        assert_eq!(back.hypercube, Some(12));
        assert_eq!(back.snapshot_index, 3);
    }

    #[test]
    fn sample_set_without_hypercube() {
        let features = FeatureMatrix::new(vec!["u".into()], vec![1.0]);
        let set = SampleSet::new(features, vec![0], 0.0, 0);
        let back = decode_sample_set(&encode_sample_set(&set)).unwrap();
        assert_eq!(back.hypercube, None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_matches_reference_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(content_hash_hex(b""), "ef46db3751d8e999");
        assert_eq!(content_hash_hex(b"a"), "d24ec4f1a98c6e5b");
        assert_eq!(content_hash_hex(b"abc"), "44bc2cf5ad770999");
        assert_eq!(
            content_hash_hex(b"Nobody inspects the spammish repetition"),
            "fbcea83c8a378bf1"
        );
    }

    #[test]
    fn content_hash_sees_every_byte_of_every_length() {
        // Lengths 0..=100 cross the 32-byte stripe boundary three times and
        // exercise every 8/4/1-byte tail; flipping any single bit of any
        // input must change the hash.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let h = content_hash(&data[..len]);
            let mut flipped = data[..len].to_vec();
            for i in 0..len {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    assert_ne!(content_hash(&flipped), h, "len {len} byte {i} bit {bit}");
                    flipped[i] ^= 1 << bit;
                }
            }
        }
    }

    fn two_sets() -> Vec<SampleSet> {
        vec![
            SampleSet::new(
                FeatureMatrix::new(vec!["u".into()], vec![1.0, 2.0]),
                vec![3, 4],
                0.5,
                2,
            )
            .with_hypercube(7),
            SampleSet::new(
                FeatureMatrix::new(vec!["u".into()], vec![9.0]),
                vec![8],
                0.5,
                2,
            ),
        ]
    }

    #[test]
    fn view_decode_matches_owned_decode() {
        let sets = two_sets();
        let bytes = encode_sample_sets(&sets);
        let views = decode_sample_sets_view(&bytes).unwrap();
        let owned = decode_sample_sets(&bytes).unwrap();
        assert_eq!(views.len(), owned.len());
        for (view, set) in views.iter().zip(&owned) {
            assert_eq!(view.len(), set.len());
            assert_eq!(view.dim(), set.features.dim());
            assert_eq!(view.hypercube, set.hypercube);
            assert_eq!(view.snapshot_index, set.snapshot_index);
            assert_eq!(view.names(), set.features.names.as_slice());
        }
        // Both materialize the encoded sets bit for bit.
        for (view, set) in views.iter().zip(&sets) {
            let back = view.to_owned_set();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back.features.data), bits(&set.features.data));
            assert_eq!(back.features.names, set.features.names);
            assert_eq!(back.indices, set.indices);
        }
    }

    #[test]
    fn view_decode_rejects_hostile_input() {
        let bytes = encode_sample_sets(&two_sets());
        for cut in [0, 3, 12, bytes.len() - 1] {
            let err = decode_sample_sets_view(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        let mut bad = bytes.to_vec();
        bad[1] = b'X';
        assert!(decode_sample_sets_view(&bad).is_err());
    }

    #[test]
    fn shard_roundtrip() {
        let sets = two_sets();
        let bytes = encode_sample_sets(&sets);
        let back = decode_sample_sets(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].indices, sets[0].indices);
        assert_eq!(back[0].hypercube, Some(7));
        assert_eq!(back[1].features.data, sets[1].features.data);
    }

    #[test]
    fn shard_rejects_corruption() {
        let bytes = encode_sample_sets(&two_sets());
        assert!(decode_sample_sets(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode_sample_sets(&bad).is_err());
    }

    #[test]
    fn subsampled_storage_is_smaller() {
        // The headline storage claim: a 10% sample set occupies ~10% of the
        // dense snapshot (plus small index overhead).
        let snap = sample_snapshot();
        let dense = snap.nbytes();
        let keep: Vec<usize> = (0..snap.num_points()).step_by(10).collect();
        let vidx = snap.var_indices(&snap.names.clone());
        let mut features = FeatureMatrix::with_capacity(snap.names.clone(), keep.len());
        let mut row = vec![0.0; vidx.len()];
        for &i in &keep {
            snap.gather_point(&vidx, i, &mut row);
            features.push_row(&row);
        }
        let set = SampleSet::new(features, keep, snap.time, 0);
        let sparse = encode_sample_set(&set).len();
        assert!(sparse < dense / 2, "sparse {sparse} vs dense {dense}");
    }
}
