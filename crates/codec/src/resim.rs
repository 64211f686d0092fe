//! Coarse + re-simulate transcoder.
//!
//! Persists only every `stride`-th row of a sample set (plus the last row)
//! as f16, and reconstructs the missing rows on read by a local solve:
//! the stored rows become Dirichlet data for a few Jacobi diffusion sweeps
//! (`sickle_cfd::resim`), seeded with the linear interpolant along row
//! order. This is the Wu–Zaki–Meneveau idea — store spatio-temporal
//! sub-samples, re-simulate locally on demand — reduced to the cheapest
//! solver whose reconstruction still couples spatial neighbors.
//!
//! Dense raster-ordered cubes (`PointMethod::Full` shards, where row `r`
//! sits at lattice coordinate `(r/(e*e), (r/e) % e, r % e)`) relax on the
//! full 3-D stencil; anything else falls back to the 1-D chain along row
//! order. The encoder detects the lattice case from the indices themselves
//! — edge-clipped or sparse cubes never get a stencil they do not satisfy.
//!
//! Payload layout after the common [`crate::wire`] header (little-endian):
//! ```text
//! u32 stride | u32 sweeps | u32 ex | u32 ey | u32 ez (0,0,0 = chain) |
//! ncoarse x dim x u16 (f16, row-major)
//! ```
//! Coarse rows are `{0, stride, 2*stride, ...} U {n-1}` — derived, not
//! stored. Reconstruction inherits the maximum principle of the diffusion
//! solve: every rebuilt value lies within the range of the stored rows, so
//! a decoded shard can never introduce out-of-range excursions — it only
//! loses sub-stride fluctuation energy, which the accuracy budgets bound.

use bytes::{Buf, BufMut, BytesMut};
use sickle_cfd::resim::{relax_chain, relax_lattice, seed_linear};
use sickle_field::points::{FeatureMatrix, SampleSet};
use std::io;

use crate::half::{extend_f16_le, f32_to_f16_bits};
use crate::wire::{checked_size, decode_header, encode_header, invalid, need, SetHeader};

/// Default coarsening stride: keep one row in three. Deliberately coprime
/// with the power-of-two cube edges the tiler produces, so the kept rows
/// scatter through the lattice volume instead of aliasing onto a subset of
/// z-planes (stride 4 on an edge-16 cube keeps only every fourth z-plane
/// and measurably doubles the spectra error despite the higher ratio).
/// With affine-coded indices this still lands ~15x smaller than identity
/// on 4-feature cubes; larger strides trade spectra fidelity for little —
/// the coarse rows are already a small fraction of the shard.
pub const DEFAULT_STRIDE: u32 = 3;
/// Default Jacobi sweep count for the read-path solve.
pub const DEFAULT_SWEEPS: u32 = 8;

/// Row positions persisted at `stride` for an `n`-row set.
fn coarse_rows(n: usize, stride: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut rows: Vec<usize> = (0..n).step_by(stride.max(1)).collect();
    if *rows.last().unwrap() != n - 1 {
        rows.push(n - 1);
    }
    rows
}

/// Detects a full raster-ordered cubic lattice: `n == e^3` and every row
/// whose z-coordinate is not at the far face is index-adjacent to the next
/// row (the order `Hypercube::point_indices` emits for unclipped cubes).
fn detect_lattice(indices: &[usize]) -> Option<(usize, usize, usize)> {
    let n = indices.len();
    if n < 8 {
        return None;
    }
    let e = (n as f64).cbrt().round() as usize;
    if e < 2 || e * e * e != n {
        return None;
    }
    for r in 0..n - 1 {
        if r % e != e - 1 && indices[r + 1] != indices[r].wrapping_add(1) {
            return None;
        }
    }
    Some((e, e, e))
}

/// Encodes one set keeping one row in `stride`; `sweeps` is recorded for
/// the decoder's solve.
pub fn encode_resim(set: &SampleSet, stride: u32, sweeps: u32) -> BytesMut {
    let n = set.len();
    let dim = set.features.dim();
    let stride = stride.max(1);
    let rows = coarse_rows(n, stride as usize);
    let (ex, ey, ez) = detect_lattice(&set.indices).unwrap_or((0, 0, 0));

    let mut buf = BytesMut::with_capacity(64 + dim * 8 + rows.len() * dim * 2);
    let header = SetHeader {
        time: set.time,
        snapshot_index: set.snapshot_index,
        hypercube: set.hypercube,
        names: set.features.names.clone(),
        indices: set.indices.clone(),
    };
    encode_header(&header, &mut buf);
    buf.put_u32_le(stride);
    buf.put_u32_le(sweeps);
    buf.put_u32_le(ex as u32);
    buf.put_u32_le(ey as u32);
    buf.put_u32_le(ez as u32);
    for &r in &rows {
        for c in 0..dim {
            buf.put_u16_le(f32_to_f16_bits(set.features.data[r * dim + c] as f32));
        }
    }
    buf
}

/// Decodes an [`encode_resim`] payload, reconstructing the dropped rows by
/// seeded linear interpolation plus `sweeps` Jacobi relaxation sweeps.
pub fn decode_resim(mut data: &[u8]) -> io::Result<SampleSet> {
    let h = decode_header(&mut data)?;
    let n = h.len();
    let dim = h.dim();
    need(data, 4 * 5, "truncated resim header")?;
    let stride = data.get_u32_le() as usize;
    let sweeps = data.get_u32_le() as usize;
    let ex = data.get_u32_le() as usize;
    let ey = data.get_u32_le() as usize;
    let ez = data.get_u32_le() as usize;
    if stride == 0 {
        return Err(invalid("zero resim stride"));
    }
    // A bit-flipped sweep count must not become a CPU sink: decode cost is
    // O(sweeps * n), so bound it far above any sane encoder setting.
    if sweeps > 1024 {
        return Err(invalid("implausible resim sweep count"));
    }
    let lattice = ex > 0 && ey > 0 && ez > 0;
    if lattice && ex.checked_mul(ey).and_then(|v| v.checked_mul(ez)) != Some(n) {
        return Err(invalid("resim lattice does not match row count"));
    }
    let rows = coarse_rows(n, stride);
    let coarse_count = checked_size(rows.len() as u64, dim, "resim payload overflow")?;
    let coarse_bytes = coarse_count
        .checked_mul(2)
        .ok_or_else(|| invalid("resim payload overflow"))?;
    need(data, coarse_bytes, "truncated resim payload")?;

    // Row-major, the layout the relax kernels and `FeatureMatrix` share.
    let mut values = vec![0.0f64; n * dim];
    let mut known = vec![false; n];
    for &r in &rows {
        known[r] = true;
    }
    let mut coarse = Vec::new();
    extend_f16_le(&mut coarse, data[..coarse_bytes].as_chunks().0);
    for (&r, row) in rows.iter().zip(coarse.chunks_exact(dim.max(1))) {
        values[r * dim..(r + 1) * dim].copy_from_slice(row);
    }
    seed_linear(&mut values, dim, &rows);
    if lattice {
        relax_lattice((ex, ey, ez), &mut values, &known, sweeps);
    } else {
        relax_chain(&mut values, &known, sweeps);
    }

    let features = FeatureMatrix::new(h.names, values);
    let mut set = SampleSet::new(features, h.indices, h.time, h.snapshot_index);
    set.hypercube = h.hypercube;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::f16_bits_to_f32;

    /// A dense raster-ordered cube of edge `e` with smooth 4-feature rows
    /// (the dimensionality of the synth turbulence datasets).
    fn cube_set(e: usize) -> SampleSet {
        let n = e * e * e;
        let names = vec!["u".into(), "v".into(), "w".into(), "q".into()];
        let mut data = Vec::with_capacity(n * 4);
        for r in 0..n {
            let z = (r % e) as f64;
            let y = ((r / e) % e) as f64;
            let x = (r / (e * e)) as f64;
            data.push((0.5 * x).sin() + (0.4 * y).cos() + 0.1 * z);
            data.push((0.3 * y + 0.2 * z).cos() - 0.05 * x);
            data.push((0.25 * (x + z)).sin() * 0.8);
            data.push(0.2 * x * y - 0.3 * z);
        }
        // Raster-adjacent global indices, as Hypercube::point_indices emits
        // for an unclipped cube in a larger grid (base offset arbitrary).
        let indices: Vec<usize> = (0..n)
            .map(|r| {
                let z = r % e;
                let y = (r / e) % e;
                let x = r / (e * e);
                (x * 64 + y) * 64 + z + 1000
            })
            .collect();
        // Rows within a z-line are index-adjacent; line breaks jump.
        SampleSet::new(FeatureMatrix::new(names, data), indices, 0.5, 1)
    }

    #[test]
    fn detects_lattice_on_raster_cube() {
        let set = cube_set(8);
        assert_eq!(detect_lattice(&set.indices), Some((8, 8, 8)));
    }

    #[test]
    fn rejects_non_raster_indices() {
        let mut set = cube_set(8);
        set.indices[3] = 0; // break adjacency inside a z-line
        assert_eq!(detect_lattice(&set.indices), None);
        assert_eq!(detect_lattice(&[1, 2, 3]), None); // not a cube count
    }

    #[test]
    fn roundtrip_reconstructs_smooth_cube_accurately() {
        let set = cube_set(12);
        let enc = encode_resim(&set, 7, 8);
        let back = decode_resim(&enc).unwrap();
        assert_eq!(back.indices, set.indices);
        assert_eq!(back.features.names, set.features.names);
        let total = set.features.data.len();
        let rms_truth =
            (set.features.data.iter().map(|v| v * v).sum::<f64>() / total as f64).sqrt();
        let rms_err = (set
            .features
            .data
            .iter()
            .zip(&back.features.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / total as f64)
            .sqrt();
        assert!(
            rms_err < 0.1 * rms_truth,
            "rms_err {rms_err} vs signal {rms_truth}"
        );
    }

    #[test]
    fn coarse_rows_are_exact_to_f16() {
        let set = cube_set(8);
        let back = decode_resim(&encode_resim(&set, 4, 8)).unwrap();
        let dim = set.features.dim();
        for &r in &coarse_rows(set.len(), 4) {
            for c in 0..dim {
                let truth = set.features.data[r * dim + c];
                let got = back.features.data[r * dim + c];
                let f16 = f16_bits_to_f32(f32_to_f16_bits(truth as f32)) as f64;
                assert_eq!(got, f16, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn chain_fallback_on_sparse_sets() {
        let names = vec!["u".into()];
        let n = 50;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let indices: Vec<usize> = (0..n).map(|i| i * 17).collect(); // sparse
        let set = SampleSet::new(FeatureMatrix::new(names, data), indices, 0.0, 0);
        let back = decode_resim(&encode_resim(&set, 5, 10)).unwrap();
        let rms_err = (set
            .features
            .data
            .iter()
            .zip(&back.features.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64)
            .sqrt();
        assert!(rms_err < 0.15, "chain rms {rms_err}");
    }

    #[test]
    fn compresses_well_below_identity() {
        let set = cube_set(16);
        let identity = sickle_field::io::encode_sample_set(&set).len();
        let resim = encode_resim(&set, 7, 8).len();
        assert!(
            (identity as f64) / (resim as f64) > 6.0,
            "identity {identity} resim {resim}"
        );
    }

    #[test]
    fn hostile_input_errors_not_panics() {
        let set = cube_set(8);
        let enc = encode_resim(&set, 6, 8);
        for cut in [10, 40, enc.len() / 2, enc.len() - 1] {
            assert!(decode_resim(&enc[..cut]).is_err(), "cut {cut}");
        }
        // Zero stride must be rejected, not loop forever.
        let mut bad = enc.to_vec();
        // stride lives right after the header; find it by re-decoding the
        // header length.
        let mut rest = &bad[..];
        decode_header(&mut rest).unwrap();
        let off = bad.len() - rest.len();
        bad[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_resim(&bad).is_err());
        // Lattice dims that disagree with n must be rejected.
        let mut bad = enc.to_vec();
        bad[off + 8..off + 12].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode_resim(&bad).is_err());
        // A bit-flipped sweep count must not become a CPU sink.
        let mut bad = enc.to_vec();
        bad[off + 4..off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_resim(&bad).is_err());
    }

    #[test]
    fn deterministic_bits() {
        let set = cube_set(10);
        let a = decode_resim(&encode_resim(&set, 6, 8)).unwrap();
        let b = decode_resim(&encode_resim(&set, 6, 8)).unwrap();
        let bits = |s: &SampleSet| {
            s.features
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
    }
}
