//! Quantized value payloads: f16 and u8 with per-block scale/offset.
//!
//! Each transcoder takes a [`SampleSet`]'s row-major `f64` feature matrix
//! and stores it narrower; the [`SetHeader`] metadata is handled by
//! [`crate::wire`] and identical across codecs. Payload layouts
//! (little-endian):
//!
//! - **f16**: `n * dim` x `u16` bit patterns, row-major.
//! - **u8block**: `u32 block_rows | dim x ceil(n/block_rows) x
//!   (f32 offset, f32 scale) | n * dim x u8`, row-major bytes. Each column
//!   is quantized independently per block of `block_rows` rows:
//!   `q = round((v - offset) / scale)`, `v ~ offset + scale * q`, so local
//!   dynamic range — not the global extremes — sets the step size.

use bytes::{Buf, BufMut, BytesMut};
use sickle_field::points::{FeatureMatrix, SampleSet};
use std::io;

use crate::half::{extend_f16_le, f32_to_f16_bits};
use crate::wire::{checked_size, decode_header, encode_header, invalid, need, SetHeader};

/// Rows per u8 quantization block. Small enough that one block spans a
/// fraction of a cube (local contrast survives), large enough that the
/// 8-byte scale/offset overhead stays under 1% of the payload.
pub const U8_BLOCK_ROWS: usize = 256;

fn header_of(set: &SampleSet) -> SetHeader {
    SetHeader {
        time: set.time,
        snapshot_index: set.snapshot_index,
        hypercube: set.hypercube,
        names: set.features.names.clone(),
        indices: set.indices.clone(),
    }
}

fn set_of(h: SetHeader, values: Vec<f64>) -> SampleSet {
    let features = FeatureMatrix::new(h.names, values);
    let mut set = SampleSet::new(features, h.indices, h.time, h.snapshot_index);
    set.hypercube = h.hypercube;
    set
}

/// IEEE binary16 transcoder.
pub fn encode_f16(set: &SampleSet) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64 + set.features.data.len() * 2);
    encode_header(&header_of(set), &mut buf);
    for &v in &set.features.data {
        buf.put_u16_le(f32_to_f16_bits(v as f32));
    }
    buf
}

/// Decodes an [`encode_f16`] payload.
pub fn decode_f16(mut data: &[u8]) -> io::Result<SampleSet> {
    let h = decode_header(&mut data)?;
    let count = checked_size(h.len() as u64, h.dim(), "quantized payload overflow")?;
    let bytes = count
        .checked_mul(2)
        .ok_or_else(|| invalid("quantized payload overflow"))?;
    need(data, bytes, "truncated quantized payload")?;
    let mut values = Vec::new();
    extend_f16_le(&mut values, data[..bytes].as_chunks().0);
    Ok(set_of(h, values))
}

/// u8 per-block scale/offset transcoder.
pub fn encode_u8block(set: &SampleSet) -> BytesMut {
    let n = set.len();
    let dim = set.features.dim();
    let nblocks = n.div_ceil(U8_BLOCK_ROWS).max(1);
    let mut buf = BytesMut::with_capacity(64 + dim * nblocks * 8 + n * dim);
    encode_header(&header_of(set), &mut buf);
    buf.put_u32_le(U8_BLOCK_ROWS as u32);

    // Per column, per block: offset = min, scale = (max - min) / 255.
    let mut params = vec![(0.0f32, 0.0f32); dim * nblocks];
    for (b, params_row) in params.chunks_mut(dim).enumerate() {
        let lo = b * U8_BLOCK_ROWS;
        let hi = ((b + 1) * U8_BLOCK_ROWS).min(n);
        for (c, slot) in params_row.iter_mut().enumerate() {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for r in lo..hi {
                let v = set.features.data[r * dim + c];
                if v.is_finite() {
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            if !min.is_finite() {
                // All-NaN/inf (or empty) block: store a degenerate range.
                min = 0.0;
                max = 0.0;
            }
            let scale = if max > min { (max - min) / 255.0 } else { 0.0 };
            *slot = (min as f32, scale as f32);
        }
    }
    for &(offset, scale) in &params {
        buf.put_f32_le(offset);
        buf.put_f32_le(scale);
    }
    for (r, row) in set.features.rows().enumerate() {
        let block = r / U8_BLOCK_ROWS;
        for (c, &v) in row.iter().enumerate() {
            let (offset, scale) = params[block * dim + c];
            let q = if scale > 0.0 && v.is_finite() {
                (((v as f32 - offset) / scale).round()).clamp(0.0, 255.0) as u8
            } else {
                0
            };
            buf.put_u8(q);
        }
    }
    buf
}

/// Rows of a u8 block decoded per inner loop: each block's `(offset, scale)`
/// row is tiled this many times, so a run of rows is one contiguous loop
/// over bytes and parameters alike, and vectorizes. Like
/// [`crate::half::extend_f16_le`], a run is computed in `f32` lanes and
/// widened to `f64` in a second pass.
const U8_TILE_ROWS: usize = 16;

/// Decodes an [`encode_u8block`] payload.
pub fn decode_u8block(mut data: &[u8]) -> io::Result<SampleSet> {
    let h = decode_header(&mut data)?;
    need(data, 4, "truncated u8 block header")?;
    let block_rows = data.get_u32_le() as usize;
    if block_rows == 0 {
        return Err(invalid("zero u8 block size"));
    }
    let n = h.len();
    let dim = h.dim();
    let nblocks = n.div_ceil(block_rows).max(1);
    let nparams = nblocks
        .checked_mul(dim)
        .ok_or_else(|| invalid("u8 block count overflow"))?;
    let param_bytes = nparams
        .checked_mul(8)
        .ok_or_else(|| invalid("u8 block count overflow"))?;
    need(data, param_bytes, "truncated u8 block params")?;
    let (params, data) = data.split_at(param_bytes);
    let count = checked_size(n as u64, dim, "u8 payload overflow")?;
    need(data, count, "truncated u8 payload")?;
    let mut values = Vec::with_capacity(count);
    if count > 0 {
        // A block of `block_rows` rows holds `block_rows * dim` bytes; one
        // too large for `usize` is larger than the payload, so it is all one
        // block.
        let block_len = block_rows.checked_mul(dim).unwrap_or(count);
        let tile_rows = U8_TILE_ROWS.min(block_rows);
        let mut offsets = Vec::with_capacity(tile_rows * dim);
        let mut scales = Vec::with_capacity(tile_rows * dim);
        let mut wide = vec![0.0f32; tile_rows * dim];
        for (q, block_params) in data[..count]
            .chunks(block_len)
            .zip(params.chunks_exact(8 * dim))
        {
            offsets.clear();
            scales.clear();
            for _ in 0..tile_rows {
                for &[o0, o1, o2, o3, s0, s1, s2, s3] in block_params.as_chunks().0 {
                    offsets.push(f32::from_le_bytes([o0, o1, o2, o3]));
                    scales.push(f32::from_le_bytes([s0, s1, s2, s3]));
                }
            }
            for run in q.chunks(tile_rows * dim) {
                let wide = &mut wide[..run.len()];
                for (((w, &q), &offset), &scale) in
                    wide.iter_mut().zip(run).zip(&offsets).zip(&scales)
                {
                    *w = offset + scale * f32::from(q);
                }
                values.extend(wide.iter().map(|&w| f64::from(w)));
            }
        }
    }
    Ok(set_of(h, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> SampleSet {
        let names = vec!["u".into(), "q".into()];
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let x = i as f64 * 0.01;
            data.push((x * 3.0).sin() * 2.0 + 0.5);
            data.push((x * 1.7).cos() * 40.0 - 10.0);
        }
        let mut set = SampleSet::new(FeatureMatrix::new(names, data), (0..n).collect(), 0.75, 2);
        set.hypercube = Some(5);
        set
    }

    fn max_abs_err(a: &SampleSet, b: &SampleSet) -> f64 {
        a.features
            .data
            .iter()
            .zip(&b.features.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn f16_roundtrip_preserves_structure_and_bounds_error() {
        let set = sample(500);
        let back = decode_f16(&encode_f16(&set)).unwrap();
        assert_eq!(back.indices, set.indices);
        assert_eq!(back.features.names, set.features.names);
        assert_eq!(back.hypercube, set.hypercube);
        assert_eq!(back.time, set.time);
        // f16 keeps ~3 decimal digits over this O(10) range.
        assert!(max_abs_err(&set, &back) < 0.05);
    }

    #[test]
    fn u8block_roundtrip_bounds_error_to_block_range() {
        let set = sample(1000);
        let back = decode_u8block(&encode_u8block(&set)).unwrap();
        assert_eq!(back.indices, set.indices);
        // Worst case per value is half a quantization step of its block's
        // range; column q spans ~80, so a global bound of range/255 holds.
        assert!(max_abs_err(&set, &back) < 80.0 / 255.0 + 1e-9);
    }

    #[test]
    fn u8block_constant_column_is_exact() {
        let set = SampleSet::new(
            FeatureMatrix::new(vec!["c".into()], vec![3.25; 40]),
            (0..40).collect(),
            0.0,
            0,
        );
        let back = decode_u8block(&encode_u8block(&set)).unwrap();
        for &v in &back.features.data {
            assert_eq!(v, 3.25);
        }
    }

    #[test]
    fn u8block_handles_non_finite_values() {
        let set = SampleSet::new(
            FeatureMatrix::new(vec!["c".into()], vec![1.0, f64::NAN, 2.0, f64::INFINITY]),
            vec![0, 1, 2, 3],
            0.0,
            0,
        );
        let back = decode_u8block(&encode_u8block(&set)).unwrap();
        // Non-finite inputs land on finite (clamped) outputs; no panic.
        for &v in &back.features.data {
            assert!(v.is_finite());
        }
    }

    /// The per-value loop [`decode_u8block`] replaced: the reference it
    /// must match bit for bit.
    fn decode_u8block_reference(mut data: &[u8]) -> io::Result<SampleSet> {
        let h = decode_header(&mut data)?;
        need(data, 4, "truncated u8 block header")?;
        let block_rows = data.get_u32_le() as usize;
        if block_rows == 0 {
            return Err(invalid("zero u8 block size"));
        }
        let n = h.len();
        let dim = h.dim();
        let nblocks = n.div_ceil(block_rows).max(1);
        let nparams = nblocks
            .checked_mul(dim)
            .ok_or_else(|| invalid("u8 block count overflow"))?;
        let param_bytes = nparams
            .checked_mul(8)
            .ok_or_else(|| invalid("u8 block count overflow"))?;
        need(data, param_bytes, "truncated u8 block params")?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            let offset = data.get_f32_le();
            let scale = data.get_f32_le();
            params.push((offset, scale));
        }
        let count = checked_size(n as u64, dim, "u8 payload overflow")?;
        need(data, count, "truncated u8 payload")?;
        let mut values = Vec::with_capacity(count);
        for r in 0..n {
            let block = r / block_rows;
            for c in 0..dim {
                let (offset, scale) = params[block * dim + c];
                let q = data.get_u8();
                values.push((offset + scale * q as f32) as f64);
            }
        }
        Ok(set_of(h, values))
    }

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A u8 payload written field by field: any block size, any
    /// parameters, including ones the encoder never writes.
    fn u8_payload(n: usize, dim: usize, block_rows: u32, state: &mut u64) -> Vec<u8> {
        const PARAMS: [f32; 9] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-40,
            f32::MAX,
            0.37,
            -12.5,
        ];
        let mut buf = BytesMut::new();
        let header = SetHeader {
            time: 0.5,
            snapshot_index: 1,
            hypercube: None,
            names: (0..dim).map(|c| format!("c{c}")).collect(),
            indices: (0..n).map(|i| i * 3).collect(),
        };
        encode_header(&header, &mut buf);
        buf.put_u32_le(block_rows);
        let nblocks = n.div_ceil(block_rows as usize).max(1);
        for _ in 0..nblocks * dim * 2 {
            let r = next(state);
            let v = if r.is_multiple_of(3) {
                PARAMS[(r >> 8) as usize % PARAMS.len()]
            } else {
                ((r >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0) as f32
            };
            buf.put_f32_le(v);
        }
        for _ in 0..n * dim {
            buf.put_u8(next(state) as u8);
        }
        buf.to_vec()
    }

    #[test]
    fn u8block_matches_reference_bits() {
        // Equal bits, or both NaN (Rust leaves NaN payloads unspecified).
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut state = 7;
        let shapes: [(usize, usize, u32); 9] = [
            (4096, 5, 256),
            (409, 5, 256),
            (300, 2, 256),
            (17, 3, 1),
            (40, 1, 7),
            (33, 5, 16),
            (5, 4, 1000),
            (50, 2, u32::MAX),
            (0, 3, 256),
        ];
        for (n, dim, block_rows) in shapes {
            for _ in 0..4 {
                let payload = u8_payload(n, dim, block_rows, &mut state);
                let got = decode_u8block(&payload).unwrap();
                let want = decode_u8block_reference(&payload).unwrap();
                assert_eq!(got.indices, want.indices);
                assert_eq!(got.features.data.len(), n * dim);
                for (i, (&g, &w)) in got
                    .features
                    .data
                    .iter()
                    .zip(&want.features.data)
                    .enumerate()
                {
                    assert!(
                        same(g, w),
                        "{n}x{dim}/{block_rows} value {i}: {g:e} vs {w:e}"
                    );
                }
                // Every truncation is refused by both.
                for cut in [payload.len() - 1, payload.len() / 2] {
                    assert!(decode_u8block(&payload[..cut]).is_err());
                    assert_eq!(
                        decode_u8block(&payload[..cut]).is_err(),
                        decode_u8block_reference(&payload[..cut]).is_err()
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_payloads_error() {
        let set = sample(300);
        let f16 = encode_f16(&set);
        assert!(decode_f16(&f16[..f16.len() - 1]).is_err());
        let u8b = encode_u8block(&set);
        assert!(decode_u8block(&u8b[..u8b.len() - 1]).is_err());
        assert!(decode_u8block(&u8b[..40]).is_err());
    }
}
