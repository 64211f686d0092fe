//! Cache-blocked SGEMM kernels for the autodiff tape.
//!
//! One BLIS-style driver serves all three logical layouts the tape needs —
//! `C = A·B` (NN), `C = A·Bᵀ` (NT, `B` stored `(n, k)`), and `C = Aᵀ·B`
//! (TN, `A` stored `(m, k)`) — by describing each operand with a logical
//! `(row_stride, col_stride)` pair. The driver packs `B` into `KC × NC`
//! column panels of `NR`-wide micro-panels and `A` into `MC × KC` row
//! blocks of `MR`-tall micro-panels, then runs a register-tiled `MR × NR`
//! microkernel over the packed data. Packing turns every layout (including
//! the transposed ones, whose naive inner loops are serial dot-product
//! chains the compiler cannot vectorize) into the same unit-stride,
//! autovectorization-friendly inner kernel with `MR·NR` independent
//! accumulation chains.
//!
//! All kernels support `accumulate` (`C += A·B`) so backward passes write
//! gradients directly into the destination buffer with no temporary.
//! Accumulation order over `k` is fixed per output element regardless of
//! thread count — row blocks are parallel but disjoint — so results are
//! run-to-run deterministic.
//!
//! Pack buffers are thread-local and grow to a high-water mark, so
//! steady-state calls perform no heap allocation.

use std::cell::RefCell;

use rayon::prelude::*;
use sickle_simd::{fma_available, kernel, Kernel};

/// Microkernel tile rows (accumulator tile is `MR × NR` f32 = 12 of the 16
/// SSE2 xmm registers, leaving room for the `A` broadcast and `B` row).
pub const MR: usize = 6;
/// Microkernel tile columns.
pub const NR: usize = 8;
/// K-dimension block: one packed `A` micro-panel (`KC·MR` f32) and the
/// active `B` micro-panel (`KC·NR` f32) stay L1-resident.
pub const KC: usize = 256;
/// Rows of `A` packed per block (`MC·KC` f32 ≈ 128 KiB, L2-resident).
pub const MC: usize = 128;
/// Columns of `B` packed per panel (`KC·NC` f32 cap on the shared panel).
pub const NC: usize = 4096;

thread_local! {
    /// Packed-A scratch, one per worker thread (each row block packs its own).
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Packed-B scratch, owned by the thread driving the gemm call and shared
    /// read-only with workers. Distinct from `PACK_A` because the driving
    /// thread also participates as a worker.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C (m,n) = A (m,k) · B (k,n)`, or `C += …` when `accumulate`.
///
/// # Panics
/// Panics if a buffer length does not match its shape.
pub fn matmul_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize, acc: bool) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    match kernel() {
        Kernel::Naive => naive_matmul_into(c, a, b, m, k, n, acc),
        // With fewer rows than one micro-tile, packing B costs more than
        // the whole naive product (contiguous axpy rows) — route around.
        Kernel::Optimized if m < MR => naive_matmul_into(c, a, b, m, k, n, acc),
        Kernel::Optimized => gemm_strided(c, m, k, n, a, k, 1, b, n, 1, acc),
    }
}

/// `C (m,n) = A (m,k) · Bᵀ` with `B` stored `(n,k)`, or `C += …`.
///
/// # Panics
/// Panics if a buffer length does not match its shape.
pub fn matmul_nt_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), n * k, "B length mismatch");
    match kernel() {
        Kernel::Naive => naive_matmul_nt_into(c, a, b, m, k, n, acc),
        Kernel::Optimized => gemm_strided(c, m, k, n, a, k, 1, b, 1, k, acc),
    }
}

/// `C (k,n) = Aᵀ · B` with `A` stored `(m,k)` and `B` stored `(m,n)`,
/// or `C += …`.
///
/// # Panics
/// Panics if a buffer length does not match its shape.
pub fn matmul_tn_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), m * n, "B length mismatch");
    match kernel() {
        Kernel::Naive => naive_matmul_tn_into(c, a, b, m, k, n, acc),
        // A reduction this short can't amortize the micro-tile setup; the
        // naive TN loop is m contiguous axpy sweeps and wins outright.
        Kernel::Optimized if m < 8 => naive_matmul_tn_into(c, a, b, m, k, n, acc),
        // Logical dims: M' = k, K' = m, N' = n; A'[i][l] = a[l*k + i].
        Kernel::Optimized => gemm_strided(c, k, m, n, a, 1, k, b, n, 1, acc),
    }
}

/// The blocked driver over logical `C (m,n) = A (m,k) · B (k,n)` where the
/// operands are addressed as `a[i*ars + l*acs]` and `b[l*brs + j*bcs]`.
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    acc: bool,
) {
    assert_eq!(c.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            c.fill(0.0);
        }
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // First k-block either overwrites or accumulates into C;
            // subsequent k-blocks always accumulate.
            let overwrite = pc == 0 && !acc;
            PACK_B.with(|cell| {
                let mut pb = cell.borrow_mut();
                pack_b(&mut pb, b, brs, bcs, pc, kc, jc, nc);
                let pb: &[f32] = &pb;
                let row_blocks = m.div_ceil(MC);
                if row_blocks == 1 {
                    // Single row block: skip the parallel dispatch.
                    row_block(c, 0, m, n, kc, jc, nc, a, ars, acs, pc, pb, overwrite);
                } else {
                    c.par_chunks_mut(MC * n).enumerate().for_each(|(bi, cblk)| {
                        let ic = bi * MC;
                        let mc = cblk.len() / n;
                        row_block(cblk, ic, mc, n, kc, jc, nc, a, ars, acs, pc, pb, overwrite);
                    });
                }
            });
        }
    }
}

/// Packs and multiplies one `mc × kc` block of `A` against the shared packed
/// `B` panel, writing the `mc × nc` result tile of `cblk` (whose rows start
/// at global row `ic`).
#[allow(clippy::too_many_arguments)]
fn row_block(
    cblk: &mut [f32],
    ic: usize,
    mc: usize,
    n: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    pc: usize,
    pb: &[f32],
    overwrite: bool,
) {
    PACK_A.with(|cell| {
        let mut pa = cell.borrow_mut();
        pack_a(&mut pa, a, ars, acs, ic, mc, pc, kc);
        let mut acc_tile = [0.0f32; MR * NR];
        for (q, j0) in (0..nc).step_by(NR).enumerate() {
            let w = NR.min(nc - j0);
            let bp = &pb[q * kc * NR..(q + 1) * kc * NR];
            for (p, i0) in (0..mc).step_by(MR).enumerate() {
                let h = MR.min(mc - i0);
                let ap = &pa[p * kc * MR..(p + 1) * kc * MR];
                microkernel(kc, ap, bp, &mut acc_tile);
                write_tile(cblk, n, i0, jc + j0, h, w, &acc_tile, overwrite);
            }
        }
    });
}

/// The register-tiled inner kernel: `acc[i][j] += Σ_l ap[l][i] · bp[l][j]`
/// over packed micro-panels (`ap` is `kc × MR` with `i` fastest, `bp` is
/// `kc × NR` with `j` fastest). `acc` is overwritten. Dispatches to the
/// AVX2+FMA variant when the CPU supports it (detected once, cached).
#[inline]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { microkernel_fma(kc, ap, bp, acc) };
        return;
    }
    microkernel_portable(kc, ap, bp, acc);
}

/// The microkernel compiled with AVX2+FMA enabled: each `NR`-wide row of the
/// accumulator tile is one ymm register and every `mul_add` lowers to a fused
/// multiply-add, which baseline (SSE2) codegen cannot emit. Two independent
/// accumulator tiles give `2·MR` fma chains — enough to cover the fma latency
/// on two issue ports.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_fma(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    let mut acc0 = [0.0f32; MR * NR];
    let mut acc1 = [0.0f32; MR * NR];
    let pairs = kc / 2;
    for (av, bv) in ap
        .chunks_exact(2 * MR)
        .zip(bp.chunks_exact(2 * NR))
        .take(pairs)
    {
        for i in 0..MR {
            let a0 = av[i];
            let a1 = av[MR + i];
            for j in 0..NR {
                acc0[i * NR + j] = a0.mul_add(bv[j], acc0[i * NR + j]);
                acc1[i * NR + j] = a1.mul_add(bv[NR + j], acc1[i * NR + j]);
            }
        }
    }
    if kc % 2 == 1 {
        let l = kc - 1;
        let av = &ap[l * MR..l * MR + MR];
        let bv = &bp[l * NR..l * NR + NR];
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc0[i * NR + j] = ai.mul_add(bv[j], acc0[i * NR + j]);
            }
        }
    }
    for (d, (x, y)) in acc.iter_mut().zip(acc0.iter().zip(&acc1)) {
        *d = x + y;
    }
}

/// Portable fallback microkernel (autovectorizes under whatever SIMD the
/// baseline target provides).
#[inline]
fn microkernel_portable(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    acc.fill(0.0);
    // Two k-steps per iteration: more independent work in flight between
    // loop-carried accumulator updates.
    let pairs = kc / 2;
    for (av, bv) in ap
        .chunks_exact(2 * MR)
        .zip(bp.chunks_exact(2 * NR))
        .take(pairs)
    {
        for i in 0..MR {
            let a0 = av[i];
            let a1 = av[MR + i];
            for j in 0..NR {
                acc[i * NR + j] += a0 * bv[j] + a1 * bv[NR + j];
            }
        }
    }
    if kc % 2 == 1 {
        let l = kc - 1;
        let av = &ap[l * MR..l * MR + MR];
        let bv = &bp[l * NR..l * NR + NR];
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i * NR + j] += ai * bv[j];
            }
        }
    }
}

/// Writes (or adds) the valid `h × w` corner of an accumulator tile into `c`
/// at `(i0, j0)`.
#[allow(clippy::too_many_arguments)]
fn write_tile(
    c: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
    acc: &[f32; MR * NR],
    overwrite: bool,
) {
    for i in 0..h {
        let crow = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + w];
        let arow = &acc[i * NR..i * NR + w];
        if overwrite {
            crow.copy_from_slice(arow);
        } else {
            for (cv, &av) in crow.iter_mut().zip(arow) {
                *cv += av;
            }
        }
    }
}

/// Packs the `kc × nc` panel of logical `B` starting at `(pc, jc)` into
/// `NR`-wide micro-panels (`[panel][l][j]`, zero-padded to full `NR`).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    pb: &mut Vec<f32>,
    b: &[f32],
    brs: usize,
    bcs: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    let need = panels * kc * NR;
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    for q in 0..panels {
        let j0 = jc + q * NR;
        let w = NR.min(jc + nc - j0);
        let dst = &mut pb[q * kc * NR..(q + 1) * kc * NR];
        for (l, drow) in dst.chunks_exact_mut(NR).enumerate().take(kc) {
            let base = (pc + l) * brs;
            for (j, d) in drow.iter_mut().enumerate() {
                *d = if j < w { b[base + (j0 + j) * bcs] } else { 0.0 };
            }
        }
    }
}

/// Packs the `mc × kc` block of logical `A` starting at `(ic, pc)` into
/// `MR`-tall micro-panels (`[panel][l][i]`, zero-padded to full `MR`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    pa: &mut Vec<f32>,
    a: &[f32],
    ars: usize,
    acs: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    let need = panels * kc * MR;
    if pa.len() < need {
        pa.resize(need, 0.0);
    }
    for p in 0..panels {
        let i0 = ic + p * MR;
        let h = MR.min(ic + mc - i0);
        let dst = &mut pa[p * kc * MR..(p + 1) * kc * MR];
        for (l, drow) in dst.chunks_exact_mut(MR).enumerate().take(kc) {
            let col = (pc + l) * acs;
            for (i, d) in drow.iter_mut().enumerate() {
                *d = if i < h { a[(i0 + i) * ars + col] } else { 0.0 };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Naive kernels (the pre-optimization implementations, kept as the baseline
// the perf guardrail measures against).
// ---------------------------------------------------------------------------

/// Row-parallel `C = A·B` with an axpy inner loop (the old `matmul_kernel`).
pub fn naive_matmul_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert_eq!(c.len(), m * n, "C length mismatch");
    c.par_chunks_mut(n).enumerate().for_each(|(r, orow)| {
        if !acc {
            orow.fill(0.0);
        }
        let arow = &a[r * k..(r + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    });
}

/// Row-parallel `C = A·Bᵀ` with a dot-product inner loop.
pub fn naive_matmul_nt_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert_eq!(c.len(), m * n, "C length mismatch");
    c.par_chunks_mut(n).enumerate().for_each(|(r, orow)| {
        let arow = &a[r * k..(r + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let dot: f32 = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
            if acc {
                *o += dot;
            } else {
                *o = dot;
            }
        }
    });
}

/// `C = Aᵀ·B`, parallel over the `k` output rows (the old `matmul_tn`).
pub fn naive_matmul_tn_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert_eq!(c.len(), k * n, "C length mismatch");
    c.par_chunks_mut(n).enumerate().for_each(|(kk, orow)| {
        if !acc {
            orow.fill(0.0);
        }
        for r in 0..m {
            let av = a[r * k + kk];
            if av != 0.0 {
                let brow = &b[r * n..(r + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-0.5, 0.5).
        (0..len)
            .map(|i| {
                let x = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(40503));
                (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[i * k + l] * b[l * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32], tag: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * (1.0 + w.abs()),
                "{tag}[{i}]: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn blocked_nn_matches_reference_across_block_edges() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (MC + 2, 2 * KC + 1, 2 * NR + 3),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let want = reference_nn(&a, &b, m, k, n);
            let mut c = vec![f32::NAN; m * n];
            gemm_strided(&mut c, m, k, n, &a, k, 1, &b, n, 1, false);
            assert_close(&c, &want, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_accumulate_adds_to_existing() {
        let (m, k, n) = (9, 33, 17);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let want: Vec<f32> = reference_nn(&a, &b, m, k, n)
            .iter()
            .map(|v| v + 1.0)
            .collect();
        let mut c = vec![1.0f32; m * n];
        gemm_strided(&mut c, m, k, n, &a, k, 1, &b, n, 1, true);
        assert_close(&c, &want, "acc");
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, k, n) = (13, 21, 10);
        let a = fill(m * k, 5);
        // NT: b stored (n, k).
        let bt = fill(n * k, 6);
        let b_logical: Vec<f32> = (0..k * n).map(|i| bt[(i % n) * k + i / n]).collect();
        let want = reference_nn(&a, &b_logical, m, k, n);
        let mut c = vec![0.0f32; m * n];
        matmul_nt_into(&mut c, &a, &bt, m, k, n, false);
        assert_close(&c, &want, "nt");
        // TN: C (k,n) = Aᵀ·B with a stored (m,k), b stored (m,n).
        let b2 = fill(m * n, 7);
        let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
        let want = reference_nn(&at, &b2, k, m, n);
        let mut c = vec![0.0f32; k * n];
        matmul_tn_into(&mut c, &a, &b2, m, k, n, false);
        assert_close(&c, &want, "tn");
    }

    #[test]
    fn naive_kernels_match_blocked() {
        let (m, k, n) = (11, 37, 23);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let mut blocked = vec![0.0f32; m * n];
        gemm_strided(&mut blocked, m, k, n, &a, k, 1, &b, n, 1, false);
        let mut naive = vec![0.0f32; m * n];
        naive_matmul_into(&mut naive, &a, &b, m, k, n, false);
        assert_close(&naive, &blocked, "naive vs blocked");
    }
}
