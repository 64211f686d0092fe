//! Compact binary snapshot I/O.
//!
//! The paper stresses that SICKLE "provides a convenient way to significantly
//! reduce file storage requirements, by storing feature-rich subsampled
//! datasets". This module implements the storage layer: a little-endian
//! binary format (`SKLF`) for snapshots and sample sets, plus a CSV writer
//! for experiment result tables.
//!
//! Format (all integers little-endian):
//! ```text
//! magic "SKLF" | u32 version | grid (6 x u64 dims/lengths as u64/f64) |
//! f64 time | u32 nvars | nvars x (u32 name_len, name bytes) |
//! nvars x (grid.len() x f64)
//! ```

use std::io::{self, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::grid::Grid3;
use crate::points::{FeatureMatrix, SampleSet};
use crate::snapshot::Snapshot;

const MAGIC: &[u8; 4] = b"SKLF";
const VERSION: u32 = 1;

/// Serializes a snapshot into a byte buffer.
pub fn encode_snapshot(snap: &Snapshot) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + snap.nbytes());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(snap.grid.nx as u64);
    buf.put_u64_le(snap.grid.ny as u64);
    buf.put_u64_le(snap.grid.nz as u64);
    buf.put_f64_le(snap.grid.lx);
    buf.put_f64_le(snap.grid.ly);
    buf.put_f64_le(snap.grid.lz);
    buf.put_f64_le(snap.time);
    buf.put_u32_le(snap.names.len() as u32);
    for name in &snap.names {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    for var in &snap.vars {
        for &v in var {
            buf.put_f64_le(v);
        }
    }
    buf.freeze()
}

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

/// Deserializes a snapshot from bytes.
///
/// Defensive by contract: counts and dimensions read from the buffer are
/// attacker-controlled, so every allocation and length check uses checked
/// arithmetic and is bounded by the bytes actually present — truncated or
/// bit-flipped input returns `InvalidData`, never panics or aborts.
///
/// # Errors
/// Returns `InvalidData` on bad magic, version, corrupt geometry, or
/// truncation.
pub fn decode_snapshot(mut data: &[u8]) -> io::Result<Snapshot> {
    fn need(data: &[u8], n: usize) -> io::Result<()> {
        if data.remaining() < n {
            Err(invalid("truncated snapshot"))
        } else {
            Ok(())
        }
    }
    need(data, 8)?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(invalid("bad magic"));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    need(data, 3 * 8 + 3 * 8 + 8 + 4)?;
    let nx = data.get_u64_le();
    let ny = data.get_u64_le();
    let nz = data.get_u64_le();
    let lx = data.get_f64_le();
    let ly = data.get_f64_le();
    let lz = data.get_f64_le();
    let time = data.get_f64_le();
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(invalid("zero grid dimension"));
    }
    let npts_bytes = checked_size(nx, 8, "grid size overflow")?
        .checked_mul(usize::try_from(ny).map_err(|_| invalid("grid size overflow"))?)
        .and_then(|v| v.checked_mul(usize::try_from(nz).ok()?))
        .ok_or_else(|| invalid("grid size overflow"))?;
    let npts = npts_bytes / 8;
    if !(lx.is_finite() && ly.is_finite() && lz.is_finite() && lx > 0.0 && ly > 0.0 && lz > 0.0) {
        return Err(invalid("bad domain extent"));
    }
    let grid = Grid3::new(nx as usize, ny as usize, nz as usize, lx, ly, lz);
    let nvars = data.get_u32_le() as usize;
    // Each name needs ≥ 4 bytes of length prefix, so the remaining buffer
    // bounds how many can really follow — never trust the count alone.
    let mut names = Vec::with_capacity(nvars.min(data.remaining() / 4));
    for _ in 0..nvars {
        need(data, 4)?;
        let len = data.get_u32_le() as usize;
        need(data, len)?;
        let mut raw = vec![0u8; len];
        data.copy_to_slice(&mut raw);
        let name = String::from_utf8(raw).map_err(|_| invalid("non-utf8 variable name"))?;
        names.push(name);
    }
    let mut snap = Snapshot::new(grid, time);
    for name in names {
        need(data, npts_bytes)?;
        let mut var = Vec::with_capacity(npts);
        for _ in 0..npts {
            var.push(data.get_f64_le());
        }
        snap.push_var(&name, var);
    }
    Ok(snap)
}

/// Writes a snapshot to `path` in SKLF format.
pub fn save_snapshot(snap: &Snapshot, path: &Path) -> io::Result<()> {
    let bytes = encode_snapshot(snap);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)
}

/// Reads a snapshot from `path`.
pub fn load_snapshot(path: &Path) -> io::Result<Snapshot> {
    let mut f = std::fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    decode_snapshot(&data)
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
/// as [`decode_sample_set`], so the accessors can index without
/// re-checking; they panic only on out-of-range positions, which is a
/// caller bug, not an input property.
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

    /// The `i`-th retained grid index.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn index(&self, i: usize) -> usize {
        let raw: [u8; 8] = self.indices[i * 8..i * 8 + 8]
            .try_into()
            .expect("8-byte index");
        u64::from_le_bytes(raw) as usize
    }

    /// The `i`-th value of the flat row-major feature payload — bit-exact
    /// what [`decode_sample_set`] would place at `features.data[i]`.
    ///
    /// # Panics
    /// If `i >= len() * dim()`.
    pub fn value(&self, i: usize) -> f64 {
        let raw: [u8; 8] = self.values[i * 8..i * 8 + 8]
            .try_into()
            .expect("8-byte value");
        f64::from_le_bytes(raw)
    }

    /// Materializes the borrowed view as an owned [`SampleSet`],
    /// bit-identical to decoding the same bytes eagerly.
    pub fn to_owned_set(&self) -> SampleSet {
        let names: Vec<String> = self.names.iter().map(|s| (*s).to_string()).collect();
        let mut indices = Vec::with_capacity(self.n);
        for i in 0..self.n {
            indices.push(self.index(i));
        }
        let mut values = Vec::with_capacity(self.n * self.dim);
        for i in 0..self.n * self.dim {
            values.push(self.value(i));
        }
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
/// Defensive like [`decode_snapshot`]: counts from the buffer never drive
/// an allocation or length check without overflow-checked arithmetic.
/// Implemented as [`decode_sample_set_view`] + materialize, so the owned
/// and borrowed paths cannot drift.
///
/// # Errors
/// Returns `InvalidData` on bad magic, a zero feature dimension, or
/// truncation.
pub fn decode_sample_set(data: &[u8]) -> io::Result<SampleSet> {
    Ok(decode_sample_set_view(data)?.to_owned_set())
}

// ---------------------------------------------------------------------------
// Checkpoint shards and manifest
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

/// XXH64 with seed 0 — the content hash of every checkpoint shard, store
/// shard and configuration fingerprint. Four independent 64-bit lanes
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
/// take in JSON manifests and shard file names, where a raw `u64` would not
/// survive the f64 number round-trip of the JSON layer.
pub fn content_hash_hex(data: &[u8]) -> String {
    format!("{:016x}", content_hash(data))
}

const SHARD_MAGIC: &[u8; 4] = b"SKLH";

/// Serializes one snapshot's per-cube sample sets as a checkpoint shard:
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

/// Deserializes a checkpoint shard written by [`encode_sample_sets`].
/// Implemented as [`decode_sample_sets_view`] + materialize, so the SKLH
/// framing is validated in one place.
///
/// # Errors
/// Returns `InvalidData` on bad magic, version, or truncation.
pub fn decode_sample_sets(data: &[u8]) -> io::Result<Vec<SampleSet>> {
    let views = decode_sample_sets_view(data)?;
    Ok(views.iter().map(SampleSetView::to_owned_set).collect())
}

/// Parses a checkpoint shard as borrowed [`SampleSetView`]s: the framing
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

/// One completed snapshot recorded in a [`CheckpointManifest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Index of the snapshot within its dataset.
    pub snapshot_index: usize,
    /// Shard file name, relative to the manifest's directory.
    pub file: String,
    /// [`content_hash_hex`] of the shard file's bytes. Hex rather than a raw
    /// `u64` because JSON numbers are f64 and would truncate 64-bit hashes.
    pub hash: String,
    /// Sample sets (hypercubes) in the shard.
    pub sets: usize,
    /// Total retained points in the shard.
    pub points: usize,
}

/// The resume index of a checkpointed sampling run: which snapshots are
/// complete, where their shards live, and the hash each shard must match.
/// `config_hash` fingerprints the sampling configuration so a checkpoint
/// is never resumed into a run it does not belong to.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Format version (matches the SKLF/SKLS/SKLH version).
    pub version: u32,
    /// Fingerprint of the producing configuration ([`content_hash_hex`] form).
    pub config_hash: String,
    /// Completed snapshots, in completion order.
    pub entries: Vec<ManifestEntry>,
}

impl CheckpointManifest {
    /// An empty manifest for a run fingerprinted by `config_hash`.
    pub fn new(config_hash: impl Into<String>) -> Self {
        CheckpointManifest {
            version: VERSION,
            config_hash: config_hash.into(),
            entries: Vec::new(),
        }
    }

    /// The entry for a snapshot, if that snapshot completed.
    pub fn entry(&self, snapshot_index: usize) -> Option<&ManifestEntry> {
        self.entries
            .iter()
            .find(|e| e.snapshot_index == snapshot_index)
    }

    /// Inserts or replaces the entry for `entry.snapshot_index`.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.snapshot_index == entry.snapshot_index)
        {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Loads a manifest from a JSON file.
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` when the JSON does not parse.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad manifest: {e}")))
    }

    /// Writes the manifest atomically (temp file + rename), so a crash
    /// mid-write can never leave a torn manifest behind.
    ///
    /// # Errors
    /// Propagates I/O errors from the write or the rename.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }
}

/// Minimal CSV writer for result tables (no quoting; values must not contain
/// commas or newlines — experiment outputs are numeric).
pub struct CsvWriter<W: Write> {
    inner: W,
}

impl<W: Write> CsvWriter<W> {
    /// Wraps a writer and emits the header row.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut inner: W, header: &[&str]) -> io::Result<Self> {
        writeln!(inner, "{}", header.join(","))?;
        Ok(CsvWriter { inner })
    }

    /// Writes one row of already-formatted cells.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn row(&mut self, cells: &[String]) -> io::Result<()> {
        writeln!(self.inner, "{}", cells.join(","))
    }

    /// Finishes writing and returns the inner writer.
    ///
    /// # Errors
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;

    fn sample_snapshot() -> Snapshot {
        let g = Grid3::new(2, 3, 4, 1.0, 2.0, 3.0);
        Snapshot::new(g, 1.25)
            .with_var("u", (0..24).map(|i| i as f64 * 0.5).collect())
            .with_var("rho", (0..24).map(|i| 1.0 + i as f64).collect())
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.grid, snap.grid);
        assert_eq!(back.time, snap.time);
        assert_eq!(back.names, snap.names);
        assert_eq!(back.vars, snap.vars);
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("sickle_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.sklf");
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.vars, snap.vars);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_snapshot(b"NOPE0000000").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let err = decode_snapshot(&bytes[..bytes.len() - 9]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
    fn csv_writer_produces_rows() {
        let mut out = Vec::new();
        {
            let mut w = CsvWriter::new(&mut out, &["a", "b"]).unwrap();
            w.row(&["1".into(), "2".into()]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(String::from_utf8(out).unwrap(), "a,b\n1,2\n");
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
            for i in 0..view.len() {
                assert_eq!(view.index(i), set.indices[i]);
            }
            for i in 0..view.len() * view.dim() {
                assert_eq!(view.value(i).to_bits(), set.features.data[i].to_bits());
            }
            let back = view.to_owned_set();
            assert_eq!(back.features, set.features);
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
    fn manifest_roundtrip_and_upsert() {
        let dir = std::env::temp_dir().join("sickle_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        // Hashes with all 64 bits set must survive the JSON round-trip —
        // that is the point of the hex-string representation.
        let mut m = CheckpointManifest::new(content_hash_hex(b"config"));
        m.upsert(ManifestEntry {
            snapshot_index: 0,
            file: "snap_00000.sklshard".into(),
            hash: content_hash_hex(b"first"),
            sets: 4,
            points: 100,
        });
        // Replacing the same snapshot keeps one entry.
        m.upsert(ManifestEntry {
            snapshot_index: 0,
            file: "snap_00000.sklshard".into(),
            hash: content_hash_hex(b"second"),
            sets: 4,
            points: 100,
        });
        assert_eq!(m.entries.len(), 1);
        m.save_atomic(&path).unwrap();
        let back = CheckpointManifest::load(&path).unwrap();
        assert_eq!(back.config_hash, content_hash_hex(b"config"));
        assert_eq!(back.entry(0).unwrap().hash, content_hash_hex(b"second"));
        assert!(back.entry(1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_load_rejects_garbage() {
        let dir = std::env::temp_dir().join("sickle_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(CheckpointManifest::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subsampled_storage_is_smaller() {
        // The headline storage claim: a 10% sample set occupies ~10% of the
        // dense snapshot (plus small index overhead).
        let snap = sample_snapshot();
        let dense = encode_snapshot(&snap).len();
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
