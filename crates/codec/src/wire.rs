//! Shared wire plumbing for the quantized shard container (`SKLQ`).
//!
//! Every lossy codec stores the same per-set metadata — time, snapshot
//! index, hypercube, feature names, and point indices — followed by a
//! codec-specific value payload. This module owns that common header. Its
//! first fields are the set prefix an `SKLS` set also starts with, written
//! and read by the one pair in `sickle_field::io` ([`put_set_prefix`],
//! [`Reader::set_prefix`]). Like every binary decoder in the workspace,
//! [`decode_header`] reads through that module's bounded [`Reader`]: a
//! count read from the buffer sizes nothing until it is overflow-checked
//! and bounded by the bytes actually present, and the tests attack it with
//! the shared harness (`sickle_field::io::attack`).
//!
//! Set header layout (little-endian):
//! ```text
//! f64 time | u64 snapshot_index | i64 hypercube (-1 = none) |
//! u32 dim | dim x (u32 name_len, name bytes) |
//! u64 n | u8 index_encoding | indices
//! ```
//! Three index encodings, chosen per set by the encoder:
//!
//! - `1` (affine): `u64 base | u32 ex | u32 ey | u32 ez | u64 sx | u64 sy`
//!   — row `r` at lattice coordinate `(x, y, z) = (r/(ey*ez), (r/ez) % ey,
//!   r % ez)` has index `base + x*sx + y*sy + z`. This is exactly the
//!   shape `Hypercube::point_indices` emits for raster cubes (and strided
//!   chains degenerate to it), so dense-cube shards carry ~30 bytes of
//!   index metadata total instead of 4-8 bytes per row — which would
//!   otherwise dominate every lossy codec's on-disk footprint.
//! - `4`: `n x u32` index list (all indices fit in 32 bits).
//! - `8`: `n x u64` index list (the general case).

use std::io;

use bytes::{BufMut, BytesMut};
use sickle_field::io::{invalid, put_set_prefix, Reader};
use sickle_field::points::{FeatureMatrix, SampleSet};

/// The metadata every codec carries per sample set, independent of how the
/// feature values themselves are stored.
#[derive(Clone, Debug, PartialEq)]
pub struct SetHeader {
    pub time: f64,
    pub snapshot_index: usize,
    pub hypercube: Option<usize>,
    pub names: Vec<String>,
    pub indices: Vec<usize>,
}

impl SetHeader {
    /// The header of `set`.
    pub fn of(set: &SampleSet) -> SetHeader {
        SetHeader {
            time: set.time,
            snapshot_index: set.snapshot_index,
            hypercube: set.hypercube,
            names: set.features.names.clone(),
            indices: set.indices.clone(),
        }
    }

    /// The set this header describes, with row-major `values`.
    pub fn into_set(self, values: Vec<f64>) -> SampleSet {
        let features = FeatureMatrix::new(self.names, values);
        let mut set = SampleSet::new(features, self.indices, self.time, self.snapshot_index);
        set.hypercube = self.hypercube;
        set
    }
}

/// An affine description of an index list: row `r` at lattice coordinate
/// `(r/(ey*ez), (r/ez) % ey, r % ez)` has index `base + x*sx + y*sy + z`.
struct AffineIndices {
    base: u64,
    dims: (u32, u32, u32),
    strides: (u64, u64),
}

/// Detects affine structure in an index list. Raster-ordered cubes (what
/// `Hypercube::point_indices` emits) and regularly strided chains both
/// match; MaxEnt-sampled scatter does not. The candidate dimensions come
/// from run lengths, then every index is verified exactly — a false match
/// is impossible, only a missed one.
fn detect_affine(idx: &[usize]) -> Option<AffineIndices> {
    let n = idx.len();
    if n < 2 {
        return None;
    }
    // ez: length of the leading run of consecutive (+1) indices.
    let mut ez = n;
    for r in 0..n - 1 {
        if idx[r + 1] != idx[r].checked_add(1)? {
            ez = r + 1;
            break;
        }
    }
    if !n.is_multiple_of(ez) {
        return None;
    }
    let lines = n / ez;
    let (ey, sy) = if lines == 1 {
        (1, 0u64)
    } else {
        let sy = idx[ez].checked_sub(idx[0])? as u64;
        // ey: number of lines before the line-start delta first changes.
        let mut ey = lines;
        for l in 0..lines - 1 {
            let d = idx[(l + 1) * ez].checked_sub(idx[l * ez])? as u64;
            if d != sy {
                ey = l + 1;
                break;
            }
        }
        if !lines.is_multiple_of(ey) {
            return None;
        }
        (ey, sy)
    };
    let ex = lines / ey;
    let sx = if ex > 1 {
        idx[ey * ez].checked_sub(idx[0])? as u64
    } else {
        0
    };
    if ex > u32::MAX as usize || ey > u32::MAX as usize || ez > u32::MAX as usize {
        return None;
    }
    // Exact verification of every index against the affine formula.
    let base = idx[0] as u64;
    for (r, &i) in idx.iter().enumerate() {
        let z = (r % ez) as u64;
        let y = ((r / ez) % ey) as u64;
        let x = (r / (ez * ey)) as u64;
        let expect = base
            .checked_add(x.checked_mul(sx)?)?
            .checked_add(y.checked_mul(sy)?)?
            .checked_add(z)?;
        if i as u64 != expect {
            return None;
        }
    }
    Some(AffineIndices {
        base,
        dims: (ex as u32, ey as u32, ez as u32),
        strides: (sx, sy),
    })
}

/// Appends a [`SetHeader`] to `buf`, choosing the cheapest index encoding
/// (affine when the indices have lattice structure, else a u32/u64 list).
pub fn encode_header(h: &SetHeader, buf: &mut BytesMut) {
    put_set_prefix(
        buf,
        h.time,
        h.snapshot_index,
        h.hypercube,
        &h.names,
        h.indices.len(),
    );
    if let Some(aff) = detect_affine(&h.indices) {
        buf.put_u8(1);
        buf.put_u64_le(aff.base);
        buf.put_u32_le(aff.dims.0);
        buf.put_u32_le(aff.dims.1);
        buf.put_u32_le(aff.dims.2);
        buf.put_u64_le(aff.strides.0);
        buf.put_u64_le(aff.strides.1);
        return;
    }
    let narrow = h.indices.iter().all(|&i| i <= u32::MAX as usize);
    buf.put_u8(if narrow { 4 } else { 8 });
    if narrow {
        for &i in &h.indices {
            buf.put_u32_le(i as u32);
        }
    } else {
        for &i in &h.indices {
            buf.put_u64_le(i as u64);
        }
    }
}

/// Reads a [`SetHeader`], advancing `r` past it. Truncated or hostile
/// input returns `InvalidData`, never panics.
pub fn decode_header(r: &mut Reader<'_>) -> io::Result<SetHeader> {
    r.context("codec set header");
    let p = r.set_prefix()?;
    let n = p.n;
    let indices = match r.u8()? {
        1 => {
            let base = r.u64()?;
            let ex = u64::from(r.u32()?);
            let ey = u64::from(r.u32()?);
            let ez = u64::from(r.u32()?);
            let sx = r.u64()?;
            let sy = r.u64()?;
            let count = ex
                .checked_mul(ey)
                .and_then(|v| v.checked_mul(ez))
                .ok_or_else(|| invalid("affine index dims overflow"))?;
            if count != n {
                return Err(invalid("affine index dims do not match row count"));
            }
            // Unlike list encodings, affine counts are not bounded by the
            // bytes present (that is the point of the encoding), so a
            // bit-flipped count could otherwise demand an enormous
            // allocation. Cap at far above any real cube (128^3 = 2M rows).
            if count > (1 << 24) {
                return Err(invalid("implausible affine index count"));
            }
            // Every index is at most the last one, so one checked
            // evaluation there bounds them all.
            let last = |d: u64| d.saturating_sub(1);
            let last_index = last(ex)
                .checked_mul(sx)
                .and_then(|v| v.checked_add(base))
                .and_then(|v| v.checked_add(last(ey).checked_mul(sy)?))
                .and_then(|v| v.checked_add(last(ez)))
                .and_then(|v| usize::try_from(v).ok());
            if count > 0 && last_index.is_none() {
                return Err(invalid("affine overflow"));
            }
            let mut indices = Vec::with_capacity(count as usize);
            for x in 0..ex {
                for y in 0..ey {
                    let line = base + x * sx + y * sy;
                    indices.extend((0..ez).map(|z| (line + z) as usize));
                }
            }
            indices
        }
        4 => r
            .chunks::<4>(n)?
            .iter()
            .map(|&b| u32::from_le_bytes(b) as usize)
            .collect(),
        8 => r
            .chunks::<8>(n)?
            .iter()
            .map(|&b| u64::from_le_bytes(b) as usize)
            .collect(),
        e => return Err(invalid(format!("unknown index encoding {e}"))),
    };
    Ok(SetHeader {
        time: p.time,
        snapshot_index: p.snapshot_index,
        hypercube: p.hypercube,
        names: p.names.into_iter().map(str::to_string).collect(),
        indices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::io::attack;

    /// Decodes one header that fills `bytes`.
    fn decode(bytes: &[u8]) -> io::Result<SetHeader> {
        let mut r = Reader::new(bytes, "test header");
        let h = decode_header(&mut r)?;
        assert_eq!(r.rest().len(), 0, "the header fills its bytes");
        Ok(h)
    }

    fn encode(h: &SetHeader) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_header(h, &mut buf);
        buf
    }

    fn sample() -> SetHeader {
        SetHeader {
            time: 1.5,
            snapshot_index: 3,
            hypercube: Some(12),
            names: vec!["u".into(), "v".into()],
            indices: vec![7, 8, 1 << 20],
        }
    }

    #[test]
    fn header_roundtrip_narrow_and_wide() {
        for wide in [false, true] {
            let mut h = sample();
            if wide {
                h.indices.push(1usize << 40);
            }
            assert_eq!(decode(&encode(&h)).unwrap(), h);
        }
    }

    #[test]
    fn header_without_hypercube() {
        let mut h = sample();
        h.hypercube = None;
        assert_eq!(decode(&encode(&h)).unwrap().hypercube, None);
    }

    #[test]
    fn truncation_is_an_error_at_every_length() {
        let buf = encode(&sample());
        attack::attack("set header", &buf, &[b""], |b| {
            decode_header(&mut Reader::new(b, "header"))
        });
    }

    #[test]
    fn affine_roundtrip_for_raster_cube() {
        // Indices shaped like Hypercube::point_indices on a 64^3 grid.
        let e = 6usize;
        let indices: Vec<usize> = (0..e * e * e)
            .map(|r| {
                let z = r % e;
                let y = (r / e) % e;
                let x = r / (e * e);
                (x * 64 + y) * 64 + z + 5000
            })
            .collect();
        let h = SetHeader {
            time: 0.0,
            snapshot_index: 0,
            hypercube: None,
            names: vec!["u".into()],
            indices,
        };
        let buf = encode(&h);
        // Affine form: the whole index block is ~40 bytes, not 4 per row.
        assert!(
            buf.len() < 100,
            "affine encoding not used: {} bytes",
            buf.len()
        );
        let back = decode(&buf).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn affine_roundtrip_for_strided_chain() {
        let indices: Vec<usize> = (0..50).map(|i| 3 + i * 17).collect();
        let h = SetHeader {
            time: 1.0,
            snapshot_index: 2,
            hypercube: Some(1),
            names: vec!["u".into()],
            indices,
        };
        let buf = encode(&h);
        assert!(buf.len() < 100);
        let back = decode(&buf).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn scattered_indices_fall_back_to_list() {
        let h = SetHeader {
            time: 0.0,
            snapshot_index: 0,
            hypercube: None,
            names: vec!["u".into()],
            indices: vec![3, 1, 4, 1, 5, 9, 2, 6],
        };
        assert_eq!(decode(&encode(&h)).unwrap().indices, h.indices);
    }

    /// A one-column header through its index-encoding byte.
    fn prefix(n: u64, encoding: u8) -> BytesMut {
        let mut buf = BytesMut::new();
        put_set_prefix(&mut buf, 0.0, 0, None, &["u".into()], n as usize);
        buf.put_u8(encoding);
        buf
    }

    #[test]
    fn hostile_affine_headers_are_errors() {
        let affine = |n: u64, base: u64, dims: [u32; 3], strides: [u64; 2]| {
            let mut buf = prefix(n, 1);
            buf.put_u64_le(base);
            dims.into_iter().for_each(|d| buf.put_u32_le(d));
            strides.into_iter().for_each(|s| buf.put_u64_le(s));
            decode(&buf)
        };
        // Dims that do not multiply to n.
        assert!(affine(10, 0, [3, 3, 3], [1, 1]).is_err());
        // Implausibly huge count must not allocate.
        assert!(affine(1 << 40, 0, [1 << 20, 1 << 20, 1], [1, 1]).is_err());
        // Strides that overflow the index space.
        assert!(affine(8, u64::MAX - 2, [2, 2, 2], [u64::MAX / 2, u64::MAX / 3]).is_err());
        // Unknown index encoding byte.
        assert!(decode(&prefix(0, 7)).is_err());
    }

    #[test]
    fn hostile_counts_are_errors() {
        // Huge dim with a tiny buffer.
        let mut buf = prefix(0, 8);
        buf[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&buf).is_err());
        // Huge n with a plausible prefix.
        assert!(decode(&prefix(u64::MAX, 8)).is_err());
        // Bad index width.
        assert!(decode(&prefix(0, 3)).is_err());
    }
}
