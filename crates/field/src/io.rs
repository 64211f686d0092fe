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
//! SKLS: magic | u32 version | set prefix | n x u64 index | n*dim x f64 value
//! SKLH: magic | u32 version | u64 count | count x (u64 len, SKLS blob)
//! set prefix: f64 time | u64 snapshot | i64 cube (-1 = none) |
//!             u32 dim | dim x (u32 name_len, name bytes) | u64 n
//! ```
//! The set prefix is shared with the codec layer's `SKLQ` set header:
//! [`put_set_prefix`] writes it and [`Reader::set_prefix`] reads it, for
//! both formats.
//!
//! **The bounds rule.** Every binary decoder in the workspace — SKLS/SKLH
//! here, the `SKLQ` container and payloads in `sickle-codec`, the wire
//! frames in `sickle-store` — reads untrusted bytes through one
//! [`Reader`]. A count read from the bytes sizes an allocation or a length
//! check only through [`checked_size`] and a bound against the bytes that
//! are actually present, so truncated or bit-flipped input returns
//! `InvalidData` ([`invalid`]) and never panics, aborts or allocates by a
//! hostile count. [`attack`] is the harness every decoder's tests run: each
//! strict prefix of a valid encoding must be refused, and each single-bit
//! flip, and noise behind each known magic, must return.

pub mod attack;

use std::io;
use std::ops::Deref;

use bytes::{BufMut, Bytes, BytesMut};

use crate::points::{FeatureMatrix, SampleSet};

const VERSION: u32 = 1;

/// `InvalidData` carrying `msg`: the error every binary decoder returns.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `count * width` as a `usize`, or `InvalidData` naming `what` when the
/// product overflows, so a bit-flipped count can never wrap a length check
/// (release) or panic on multiply overflow (debug).
pub fn checked_size(count: u64, width: usize, what: &str) -> io::Result<usize> {
    usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(width))
        .ok_or_else(|| invalid(what))
}

/// A bounded little-endian cursor over untrusted bytes: every read checks
/// the bytes remaining and returns `InvalidData` (`"truncated <what>"`)
/// when they run out. Payloads are borrowed slices of the input sized by
/// [`checked_size`], so a hostile count is refused before it sizes anything.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    what: &'static str,
}

/// The per-set prefix an `SKLS` set and an `SKLQ` set header both start
/// with; `n` is the row count as read, bounded by the payload that follows.
#[derive(Clone, Debug, PartialEq)]
pub struct SetPrefix<'a> {
    /// Simulation time of the originating snapshot.
    pub time: f64,
    /// Index of the originating snapshot.
    pub snapshot_index: usize,
    /// Originating hypercube, when tagged.
    pub hypercube: Option<usize>,
    /// Feature names, in column order (never empty).
    pub names: Vec<&'a str>,
    /// Row count.
    pub n: u64,
}

impl<'a> Reader<'a> {
    /// A reader over `data`; truncation errors name `what`.
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        Reader { data, what }
    }

    /// Renames what truncation errors from here on call the input.
    pub fn context(&mut self, what: &'static str) {
        self.what = what;
    }

    /// The unread bytes, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Errors unless at least `n` bytes remain.
    pub fn need(&self, n: usize) -> io::Result<()> {
        if self.data.len() < n {
            return Err(invalid(format!("truncated {}", self.what)));
        }
        Ok(())
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.need(n)?;
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    /// A `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.chunks(1)?[0]))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.chunks(1)?[0]))
    }

    /// `count` items of `width` bytes each, as one slice.
    pub fn slice(&mut self, count: u64, width: usize) -> io::Result<&'a [u8]> {
        self.take(checked_size(count, width, "oversized count")?)
    }

    /// `count` items of `W` bytes each, as an array view.
    pub fn chunks<const W: usize>(&mut self, count: u64) -> io::Result<&'a [[u8; W]]> {
        Ok(self.slice(count, W)?.as_chunks().0)
    }

    /// A `u32`-length-prefixed UTF-8 name.
    pub fn name(&mut self) -> io::Result<&'a str> {
        let len = self.u32()?;
        let raw = self.slice(len.into(), 1)?;
        std::str::from_utf8(raw).map_err(|_| invalid(format!("non-UTF-8 name in {}", self.what)))
    }

    /// The blobs written by [`put_blobs`], each handed to `decode`. The
    /// capacity reserved up front is bounded by the length prefixes the
    /// remaining bytes can hold.
    pub fn blobs<T>(
        &mut self,
        mut decode: impl FnMut(&'a [u8]) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let count = self.u64()?;
        let bound = self.data.len() / 8;
        let mut out = Vec::with_capacity(usize::try_from(count).map_or(bound, |c| c.min(bound)));
        for _ in 0..count {
            let len = self.u64()?;
            out.push(decode(self.slice(len, 1)?)?);
        }
        Ok(out)
    }

    /// The per-set prefix written by [`put_set_prefix`]. A zero feature
    /// dimension is refused.
    pub fn set_prefix(&mut self) -> io::Result<SetPrefix<'a>> {
        let time = f64::from_bits(self.u64()?);
        let snapshot_index = self.u64()? as usize;
        let hypercube = usize::try_from(self.u64()? as i64).ok();
        let dim = self.u32()? as usize;
        if dim == 0 {
            return Err(invalid("zero feature dimension"));
        }
        // Each name needs at least its 4-byte length prefix.
        let mut names = Vec::with_capacity(dim.min(self.data.len() / 4));
        for _ in 0..dim {
            names.push(self.name()?);
        }
        let n = self.u64()?;
        Ok(SetPrefix {
            time,
            snapshot_index,
            hypercube,
            names,
            n,
        })
    }
}

/// Appends the per-set prefix an `SKLS` set and an `SKLQ` set header share:
/// `f64 time | u64 snapshot | i64 cube (-1 = none) | u32 dim |
/// dim x (u32 name_len, name bytes) | u64 n`.
pub fn put_set_prefix(
    buf: &mut impl BufMut,
    time: f64,
    snapshot_index: usize,
    hypercube: Option<usize>,
    names: &[String],
    n: usize,
) {
    buf.put_f64_le(time);
    buf.put_u64_le(snapshot_index as u64);
    buf.put_i64_le(hypercube.map_or(-1, |h| h as i64));
    buf.put_u32_le(names.len() as u32);
    for name in names {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    buf.put_u64_le(n as u64);
}

/// Appends `u64 count | count x (u64 len, blob)`: the framing of an `SKLH`
/// shard and of an `SKLQ` container.
pub fn put_blobs<B: Deref<Target = [u8]>>(
    buf: &mut impl BufMut,
    blobs: impl ExactSizeIterator<Item = B>,
) {
    buf.put_u64_le(blobs.len() as u64);
    for blob in blobs {
        buf.put_u64_le(blob.len() as u64);
        buf.put_slice(&blob);
    }
}

/// Serializes a sample set (feature rows + indices) compactly.
pub fn encode_sample_set(set: &SampleSet) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SKLS");
    buf.put_u32_le(VERSION);
    put_set_prefix(
        &mut buf,
        set.time,
        set.snapshot_index,
        set.hypercube,
        &set.features.names,
        set.len(),
    );
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
    prefix: SetPrefix<'a>,
    indices: &'a [[u8; 8]],
    values: &'a [[u8; 8]],
}

impl<'a> SampleSetView<'a> {
    /// Time, snapshot, hypercube, names and row count, as read.
    pub fn prefix(&self) -> &SetPrefix<'a> {
        &self.prefix
    }

    /// Materializes the borrowed view as an owned [`SampleSet`],
    /// bit-identical to decoding the same bytes eagerly.
    pub fn to_owned_set(&self) -> SampleSet {
        let p = &self.prefix;
        let names: Vec<String> = p.names.iter().map(|s| (*s).to_string()).collect();
        let indices = self
            .indices
            .iter()
            .map(|&b| u64::from_le_bytes(b) as usize)
            .collect();
        let values = self.values.iter().map(|&b| f64::from_le_bytes(b)).collect();
        let features = FeatureMatrix::new(names, values);
        let mut set = SampleSet::new(features, indices, p.time, p.snapshot_index);
        set.hypercube = p.hypercube;
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
pub fn decode_sample_set_view(data: &[u8]) -> io::Result<SampleSetView<'_>> {
    let mut r = Reader::new(data, "sample set");
    if r.take(4)? != b"SKLS" {
        return Err(invalid("bad magic"));
    }
    let _version = r.u32()?;
    let prefix = r.set_prefix()?;
    let indices = r.chunks(prefix.n)?;
    let values = checked_size(prefix.n, prefix.names.len(), "sample payload overflow")?;
    let values = r.chunks(values as u64)?;
    Ok(SampleSetView {
        prefix,
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
    put_blobs(&mut buf, sets.iter().map(encode_sample_set));
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
pub fn decode_sample_sets_view(data: &[u8]) -> io::Result<Vec<SampleSetView<'_>>> {
    let mut r = Reader::new(data, "shard");
    if r.take(4)? != SHARD_MAGIC {
        return Err(invalid("bad shard magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(invalid(format!("unsupported shard version {version}")));
    }
    r.blobs(decode_sample_set_view)
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
            assert_eq!(view.prefix().n as usize, set.len());
            assert_eq!(view.prefix().names.len(), set.features.dim());
            assert_eq!(view.prefix().hypercube, set.hypercube);
            assert_eq!(view.prefix().snapshot_index, set.snapshot_index);
            assert_eq!(view.prefix().names, set.features.names);
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

    /// The magics a shard or sample-set decoder can be handed.
    const MAGICS: [&[u8]; 4] = [b"SKLS", b"SKLH", b"SKLQ", b""];

    #[test]
    fn view_decode_rejects_hostile_input() {
        let bytes = encode_sample_sets(&two_sets());
        attack::attack("SKLH view", &bytes, &MAGICS, |b| {
            decode_sample_sets_view(b).map(|views| views.len())
        });
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
        attack::attack("SKLH", &bytes, &MAGICS, decode_sample_sets);
        let set = encode_sample_set(&two_sets()[0]);
        attack::attack("SKLS", &set, &MAGICS, decode_sample_set);
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
