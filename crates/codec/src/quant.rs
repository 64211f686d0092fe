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

use crate::half::{f16_bits_to_f32, f32_to_f16_bits};
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
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(f16_bits_to_f32(data.get_u16_le()) as f64);
    }
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
