//! Cache-blocked SGEMM kernels for the autodiff tape.
//!
//! One BLIS-style driver serves all three logical layouts the tape needs —
//! `C = A·B` (NN), `C = A·Bᵀ` (NT, `B` stored `(n, k)`), and `C = Aᵀ·B`
//! (TN, `A` stored `(m, k)`) — by describing each operand with a logical
//! `(row_stride, col_stride)` pair, and one register-tiled `MR × NR`
//! microkernel does all the arithmetic, reading `A` through six row offsets
//! and a column stride and `B` as `NR`-wide rows a fixed stride apart.
//!
//! Two drivers feed it. [`gemm_packed`] copies `B` into `KC × NC` column
//! panels of `NR`-wide micro-panels and `A` into `MC × KC` row blocks of
//! `MR`-tall micro-panels, so the microkernel streams unit-stride data no
//! matter how large or how transposed the operands are. [`gemm_pack_free`]
//! points the same microkernel straight at the operands: when all three
//! matrices already sit in cache (the model's 64×32×32-class products) the
//! packing copies are pure overhead — they were 45 % of the GEMM time of a
//! train step. Both visit `k` in the same order with the same two
//! accumulators, so for `k ≤ KC` their results are bit-identical
//! (`tests/gemm_properties.rs`).
//!
//! All kernels support `accumulate` (`C += A·B`) so backward passes write
//! gradients directly into the destination buffer with no temporary.
//! Accumulation order over `k` is fixed per output element regardless of
//! thread count — row blocks are parallel but disjoint — so results are
//! run-to-run deterministic. Whether a product goes to the thread pool is
//! decided by its *work* ([`POOL_MIN_FLOPS`]), never by its row count.
//!
//! The packed driver's buffers are thread-local and grow to a high-water
//! mark; the pack-free driver packs into a stack buffer. Steady-state calls
//! perform no heap allocation, and a cache-sized product performs none on a
//! thread that has never run one before (a pool worker running a child
//! tape, say).

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
/// A product whose three operands together hold at most this many `f32`
/// (`m·k + k·n + m·n`) runs pack-free: the whole problem fits the L2 budget
/// the packed driver grants a single `A` block, so there is nothing for
/// packing to make more local.
pub const PACK_FREE_MAX_ELEMS: usize = MC * KC;
/// A product goes to the thread pool only from this many flops (`2·m·k·n`)
/// up: one full `MC × KC` block of `A` against an `MC`-column panel, ≈ 170 µs
/// on one core. Below it the hand-off costs more than a second thread
/// returns, whatever the row count.
pub const POOL_MIN_FLOPS: usize = 2 * MC * KC * MC;

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
        // With fewer rows than one micro-tile, most of every tile would be
        // padding — the naive product (contiguous axpy rows) wins outright.
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

/// Logical `C (m,n) = A (m,k) · B (k,n)` over operands addressed as
/// `a[i*ars + l*acs]` and `b[l*brs + j*bcs]`: pack-free when the problem
/// already fits cache, packed (and parallel from [`POOL_MIN_FLOPS`]) above.
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
    // `k ≤ KC` keeps the pack-free single pass over `k` identical to the
    // packed driver's (which would otherwise round into `C` between blocks).
    if k <= KC && m * k + k * n + m * n <= PACK_FREE_MAX_ELEMS {
        gemm_pack_free(c, m, k, n, a, ars, acs, b, brs, bcs, acc);
    } else {
        gemm_packed(c, m, k, n, a, ars, acs, b, brs, bcs, acc);
    }
}

/// Handles the shapes with no multiply in them; true if `c` is finished.
fn degenerate(c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) -> bool {
    assert_eq!(c.len(), m * n, "C length mismatch");
    if k == 0 && !acc {
        c.fill(0.0);
    }
    m == 0 || n == 0 || k == 0
}

/// The blocked, packing driver over logical `C (m,n) = A (m,k) · B (k,n)`
/// where the operands are addressed as `a[i*ars + l*acs]` and
/// `b[l*brs + j*bcs]`. Row blocks run on the thread pool when the product
/// is worth [`POOL_MIN_FLOPS`].
///
/// # Panics
/// Panics if `c.len() != m * n` or a stride reaches outside `a` or `b`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed(
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
    if degenerate(c, m, k, n, acc) {
        return;
    }
    let pooled = m > MC && 2 * m * k * n >= POOL_MIN_FLOPS;
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
                let block = |(bi, cblk): (usize, &mut [f32])| {
                    let ic = bi * MC;
                    let mc = cblk.len() / n;
                    row_block(cblk, ic, mc, n, kc, jc, nc, a, ars, acs, pc, pb, overwrite);
                };
                if pooled {
                    c.par_chunks_mut(MC * n).enumerate().for_each(block);
                } else {
                    c.chunks_mut(MC * n).enumerate().for_each(block);
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
                microkernel_packed(kc, ap, bp, &mut acc_tile);
                write_tile(cblk, n, i0, jc + j0, h, w, &acc_tile, overwrite);
            }
        }
    });
}

/// The pack-free driver over logical `C (m,n) = A (m,k) · B (k,n)` with the
/// operands addressed as `a[i*ars + l*acs]` and `b[l*brs + j*bcs]`: the
/// microkernel reads `A` where it lies (row offsets clamped to the last row
/// at the ragged edge, the duplicate rows discarded on write) and `B` too
/// when its rows are contiguous and `n` is a whole number of micro-panels;
/// otherwise `B` is packed one micro-panel at a time into a stack buffer, so
/// the driver touches no thread-local scratch and allocates nothing on any
/// thread. Serial — callers route only cache-sized problems here — and
/// bit-identical to [`gemm_packed`].
///
/// # Panics
/// Panics if `k > KC`, `c.len() != m * n` or a stride reaches outside `a`
/// or `b`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_pack_free(
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
    assert!(k <= KC, "pack-free k {k} exceeds KC");
    if degenerate(c, m, k, n, acc) {
        return;
    }
    // The bound every `A` load below rests on: the last row, last column
    // (checked arithmetic, so absurd strides cannot wrap past it).
    assert!(
        last_index(m - 1, ars, k - 1, acs).is_some_and(|last| last < a.len()),
        "A strides leave the buffer"
    );
    // `panel(j0, bp, row_step)`: the micro-panel of columns `j0..j0 + NR`
    // starts at `bp[0]` and its rows lie `row_step` apart.
    let mut acc_tile = [0.0f32; MR * NR];
    let mut panel = |j0: usize, bp: &[f32], row_step: usize| {
        let w = NR.min(n - j0);
        for i0 in (0..m).step_by(MR) {
            let h = MR.min(m - i0);
            let a_off: [usize; MR] = std::array::from_fn(|i| (i0 + i).min(m - 1) * ars);
            // SAFETY: every `a_off[i] ≤ (m - 1)·ars`, so the largest `A`
            // index is within the bound asserted above. `bp` holds `k` rows
            // `row_step` apart with `NR` readable floats in the last: in
            // place that is the assertion below (`B`'s last element is
            // inside it) plus `j0 + NR ≤ n`; packed, the panel is `k·NR`.
            unsafe { microkernel(k, a, &a_off, acs, bp, row_step, &mut acc_tile) };
            write_tile(c, n, i0, j0, h, w, &acc_tile, !acc);
        }
    };
    if bcs == 1 && n.is_multiple_of(NR) {
        assert!(
            last_index(k - 1, brs, n - 1, 1).is_some_and(|last| last < b.len()),
            "B strides leave the buffer"
        );
        for j0 in (0..n).step_by(NR) {
            panel(j0, &b[j0..], brs);
        }
    } else {
        let mut packed = [0.0f32; KC * NR];
        let bp = &mut packed[..k * NR];
        for j0 in (0..n).step_by(NR) {
            pack_b_panel(bp, b, brs, bcs, 0, j0, NR.min(n - j0));
            panel(j0, bp, NR);
        }
    }
}

/// `i·stride_i + j·stride_j`, or `None` on overflow.
fn last_index(i: usize, stride_i: usize, j: usize, stride_j: usize) -> Option<usize> {
    i.checked_mul(stride_i)?
        .checked_add(j.checked_mul(stride_j)?)
}

/// Row offsets of a packed `A` micro-panel: row `i` of the tile starts at `i`.
const PACKED_A_OFF: [usize; MR] = [0, 1, 2, 3, 4, 5];

/// The register-tiled inner kernel: `acc[i][j] = Σ_l A[i][l] · B[l][j]` with
/// `A[i][l] = a[a_off[i] + l·acs]` and `B[l][j] = b[l·brs + j]`, `l < kc`.
/// Dispatches to the AVX2+FMA variant when the CPU supports it (detected
/// once, cached).
///
/// # Safety
/// `kc ≥ 1`, and for every `i < MR`: `a_off[i] + (kc - 1)·acs < a.len()`;
/// `(kc - 1)·brs + NR ≤ b.len()`.
#[inline]
unsafe fn microkernel(
    kc: usize,
    a: &[f32],
    a_off: &[usize; MR],
    acs: usize,
    b: &[f32],
    brs: usize,
    acc: &mut [f32; MR * NR],
) {
    debug_assert!(kc >= 1 && (kc - 1) * brs + NR <= b.len());
    debug_assert!(a_off.iter().all(|&o| o + (kc - 1) * acs < a.len()));
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`; the index
        // contract is the caller's, passed through unchanged.
        unsafe { microkernel_fma(kc, a, a_off, acs, b, brs, acc) };
        return;
    }
    // SAFETY: the caller's index contract, passed through unchanged.
    unsafe { tile_portable(kc, a, a_off, acs, b, brs, acc) };
}

/// [`microkernel`] over packed micro-panels (`ap` is `kc × MR` with `i`
/// fastest, `bp` is `kc × NR` with `j` fastest): the same tile body with the
/// offsets and strides as compile-time constants, which is worth a tenth of
/// the large-product rate.
#[inline]
fn microkernel_packed(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    assert!(kc >= 1 && ap.len() >= kc * MR && bp.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`; the
        // lengths asserted above are the packed form of the index contract
        // (`MR - 1 + (kc - 1)·MR < kc·MR`, `(kc - 1)·NR + NR ≤ kc·NR`).
        unsafe { microkernel_fma_packed(kc, ap, bp, acc) };
        return;
    }
    // SAFETY: the asserted lengths, as above.
    unsafe { tile_portable(kc, ap, &PACKED_A_OFF, MR, bp, NR, acc) };
}

/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support, and the index
/// contract of [`microkernel`] must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_fma(
    kc: usize,
    a: &[f32],
    a_off: &[usize; MR],
    acs: usize,
    b: &[f32],
    brs: usize,
    acc: &mut [f32; MR * NR],
) {
    // Row-major `A` (the NN and NT layouts) gets its own instance: with the
    // column step a constant, `l` and `l + 1` share six row pointers instead
    // of needing twelve, which no longer fit the general registers.
    // SAFETY: the caller's index contract, passed through unchanged.
    unsafe {
        if acs == 1 {
            tile_fma(kc, a, a_off, 1, b, brs, acc)
        } else {
            tile_fma(kc, a, a_off, acs, b, brs, acc)
        }
    }
}

/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support;
/// `ap.len() ≥ kc·MR`, `bp.len() ≥ kc·NR`, `kc ≥ 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_fma_packed(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    // SAFETY: the caller's lengths are the index contract for these
    // constant offsets and strides.
    unsafe { tile_fma(kc, ap, &PACKED_A_OFF, MR, bp, NR, acc) }
}

/// Row `l` of the `B` micro-panel.
///
/// # Safety
/// `l·brs + NR ≤ b.len()`.
#[inline(always)]
unsafe fn b_row(b: &[f32], brs: usize, l: usize) -> &[f32; NR] {
    // SAFETY: the caller guarantees the `NR` floats from `l·brs` are inside
    // `b`; `[f32; NR]` has the alignment of `f32`.
    unsafe { &*b.as_ptr().add(l * brs).cast::<[f32; NR]>() }
}

/// The tile body for AVX2+FMA callers (inlined into them, so that each
/// `NR`-wide row of the accumulator tile is one ymm register and every
/// `mul_add` lowers to a fused multiply-add, which baseline codegen cannot
/// emit). Two independent accumulator tiles (even and odd `l`) give `2·MR`
/// fma chains — enough to cover the fma latency on two issue ports.
///
/// # Safety
/// The index contract of [`microkernel`] must hold.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_fma(
    kc: usize,
    a: &[f32],
    a_off: &[usize; MR],
    acs: usize,
    b: &[f32],
    brs: usize,
    acc: &mut [f32; MR * NR],
) {
    let mut acc0 = [0.0f32; MR * NR];
    let mut acc1 = [0.0f32; MR * NR];
    for l in (0..kc - 1).step_by(2) {
        // SAFETY: `l + 1 ≤ kc - 1`, so both rows and, below, both columns
        // are inside the caller's contract.
        let (b0, b1) = unsafe { (b_row(b, brs, l), b_row(b, brs, l + 1)) };
        for i in 0..MR {
            let at = a_off[i] + l * acs;
            // SAFETY: see above.
            let (a0, a1) = unsafe { (*a.get_unchecked(at), *a.get_unchecked(at + acs)) };
            for j in 0..NR {
                acc0[i * NR + j] = a0.mul_add(b0[j], acc0[i * NR + j]);
                acc1[i * NR + j] = a1.mul_add(b1[j], acc1[i * NR + j]);
            }
        }
    }
    if kc % 2 == 1 {
        let l = kc - 1;
        // SAFETY: `l = kc - 1` is the last row and column of the contract.
        let b0 = unsafe { b_row(b, brs, l) };
        for i in 0..MR {
            // SAFETY: see above.
            let a0 = unsafe { *a.get_unchecked(a_off[i] + l * acs) };
            for j in 0..NR {
                acc0[i * NR + j] = a0.mul_add(b0[j], acc0[i * NR + j]);
            }
        }
    }
    for (d, (x, y)) in acc.iter_mut().zip(acc0.iter().zip(&acc1)) {
        *d = x + y;
    }
}

/// The portable tile body (autovectorizes under whatever SIMD the baseline
/// target provides).
///
/// # Safety
/// The index contract of [`microkernel`] must hold.
#[inline]
unsafe fn tile_portable(
    kc: usize,
    a: &[f32],
    a_off: &[usize; MR],
    acs: usize,
    b: &[f32],
    brs: usize,
    acc: &mut [f32; MR * NR],
) {
    acc.fill(0.0);
    // Two k-steps per iteration: more independent work in flight between
    // loop-carried accumulator updates.
    for l in (0..kc - 1).step_by(2) {
        // SAFETY: `l + 1 ≤ kc - 1`, so both rows and, below, both columns
        // are inside the caller's contract.
        let (b0, b1) = unsafe { (b_row(b, brs, l), b_row(b, brs, l + 1)) };
        for i in 0..MR {
            let at = a_off[i] + l * acs;
            // SAFETY: see above.
            let (a0, a1) = unsafe { (*a.get_unchecked(at), *a.get_unchecked(at + acs)) };
            for j in 0..NR {
                acc[i * NR + j] += a0 * b0[j] + a1 * b1[j];
            }
        }
    }
    if kc % 2 == 1 {
        let l = kc - 1;
        // SAFETY: `l = kc - 1` is the last row and column of the contract.
        let b0 = unsafe { b_row(b, brs, l) };
        for i in 0..MR {
            // SAFETY: see above.
            let a0 = unsafe { *a.get_unchecked(a_off[i] + l * acs) };
            for j in 0..NR {
                acc[i * NR + j] += a0 * b0[j];
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
        let dst = &mut pb[q * kc * NR..(q + 1) * kc * NR];
        pack_b_panel(dst, b, brs, bcs, pc, j0, NR.min(jc + nc - j0));
    }
}

/// Packs columns `j0..j0 + w` of logical `B`, rows `pc..pc + dst.len() / NR`,
/// into one `NR`-wide micro-panel (`[l][j]`, zero-padded to full `NR`).
fn pack_b_panel(
    dst: &mut [f32],
    b: &[f32],
    brs: usize,
    bcs: usize,
    pc: usize,
    j0: usize,
    w: usize,
) {
    for (l, drow) in dst.chunks_exact_mut(NR).enumerate() {
        let base = (pc + l) * brs;
        for (j, d) in drow.iter_mut().enumerate() {
            *d = if j < w { b[base + (j0 + j) * bcs] } else { 0.0 };
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
// Naive kernels: the reference implementations `Kernel::Naive` selects and
// the parity tests compare against — and, under `Kernel::Optimized`, the
// route for products too thin to fill a micro-tile.
// ---------------------------------------------------------------------------

/// Runs `row(r, c_row)` over the `n`-wide rows of `c`, on the thread pool
/// when the product is worth [`POOL_MIN_FLOPS`]. Rows are disjoint, so the
/// result does not depend on which way it ran.
fn for_each_row(c: &mut [f32], n: usize, flops: usize, row: impl Fn(usize, &mut [f32]) + Sync) {
    if flops >= POOL_MIN_FLOPS {
        c.par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, crow)| row(r, crow));
    } else {
        c.chunks_mut(n)
            .enumerate()
            .for_each(|(r, crow)| row(r, crow));
    }
}

/// `C = A·B` row by row with an axpy inner loop.
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
    for_each_row(c, n, 2 * m * k * n, |r, orow| {
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

/// `C = A·Bᵀ` row by row with a dot-product inner loop.
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
    for_each_row(c, n, 2 * m * k * n, |r, orow| {
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

/// `C = Aᵀ·B` over the `k` output rows, each `m` axpy sweeps. Every term is
/// added, zeros included: `0 · NaN` must reach `C` here as it does in the
/// blocked kernels, or a diverged `dY` hides behind a zero activation.
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
    for_each_row(c, n, 2 * m * k * n, |kk, orow| {
        if !acc {
            orow.fill(0.0);
        }
        for r in 0..m {
            let av = a[r * k + kk];
            let brow = &b[r * n..(r + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
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
            gemm_packed(&mut c, m, k, n, &a, k, 1, &b, n, 1, false);
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
        gemm_packed(&mut c, m, k, n, &a, k, 1, &b, n, 1, true);
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
    fn portable_tile_reads_strided_operands_like_packed_ones() {
        // On an AVX2 host the drivers never reach the portable body, so the
        // pack-free ≡ packed property is pinned here for it directly.
        for kc in [1, 2, 7, 32] {
            let (ars, brs) = (kc + 3, NR + 5);
            let a = fill(MR * ars, 10);
            let b = fill(kc * brs, 11);
            let a_off: [usize; MR] = std::array::from_fn(|i| i * ars);
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            pack_a(&mut pa, &a, ars, 1, 0, MR, 0, kc);
            pack_b(&mut pb, &b, brs, 1, 0, kc, 0, NR);
            let mut strided = [f32::NAN; MR * NR];
            let mut packed = [f32::NAN; MR * NR];
            // SAFETY: `a` holds `MR` rows of `ars ≥ kc`, `b` holds `kc` rows
            // of `brs ≥ NR`; the packed panels are `kc·MR` and `kc·NR`.
            unsafe {
                tile_portable(kc, &a, &a_off, 1, &b, brs, &mut strided);
                tile_portable(kc, &pa, &PACKED_A_OFF, MR, &pb, NR, &mut packed);
            }
            assert_eq!(
                strided.map(f32::to_bits),
                packed.map(f32::to_bits),
                "kc={kc}"
            );
        }
    }

    #[test]
    fn naive_kernels_match_blocked() {
        let (m, k, n) = (11, 37, 23);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let mut blocked = vec![0.0f32; m * n];
        gemm_packed(&mut blocked, m, k, n, &a, k, 1, &b, n, 1, false);
        let mut naive = vec![0.0f32; m * n];
        naive_matmul_into(&mut naive, &a, &b, m, k, n, false);
        assert_close(&naive, &blocked, "naive vs blocked");
    }
}
