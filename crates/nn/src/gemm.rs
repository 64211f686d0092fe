//! Cache-blocked SGEMM kernels for the autodiff tape.
//!
//! One driver serves all three logical layouts the tape needs —
//! `C = A·B` (NN), `C = A·Bᵀ` (NT, `B` stored `(n, k)`), and `C = Aᵀ·B`
//! (TN, `A` stored `(m, k)`) — by describing each operand with a logical
//! `(row_stride, col_stride)` pair. It walks `C` in `MC`-row blocks, on the
//! thread pool when the product is worth [`POOL_MIN_FLOPS`], and each block
//! over `KC`-deep blocks of `k`, pointing a register-tiled microkernel
//! straight at the operands: `A` is read where it lies, through one row
//! offset per tile row and a column stride, and `B` too when its rows are
//! contiguous; otherwise one `B` micro-panel at a time is packed into a
//! stack buffer. Nothing is copied into block-sized scratch: copying `A`
//! and `B` into packed panels was 45 % of a train step's GEMM time, and
//! the large products run as fast or faster without it (DESIGN.md §11).
//!
//! The microkernel has three instruction-set tiers ([`Tier`]). Where the
//! CPU has AVX-512F (`sickle_simd::avx512_available`, probed once and
//! cached) it runs `8 × 16` tiles, one zmm per tile row, and reads a ragged
//! last `B` panel in place through a lane mask; a last panel of at most
//! `NR` columns still runs on the 6×8 AVX2 tile, where half a zmm is slower
//! than a whole ymm. The NT layout's `B` panels are packed through a
//! 16 × 16 in-register transpose. Without AVX-512 the 6×8 AVX2+FMA tile
//! runs, and without FMA the portable one.
//!
//! Every output element is built by one sequence, whatever the tier, the
//! tile edge or the thread count, lanes never mixing: per `KC` block of
//! `k`, one multiply-add chain over even `l` and one over odd `l`, both
//! from `+0.0`; the two chains added once; that sum stored (the first
//! block, unless `accumulate`) or added to `C`. The chains are fused
//! multiply-adds on the AVX-512 and AVX2 tiers, so those two give the same
//! bits, and a multiply then an add on the portable tier.
//! `tests/gemm_properties.rs` holds every tier to a scalar spec of this
//! sequence, bit for bit.
//!
//! Rates on a 2-vCPU Sapphire Rapids Xeon, AVX2 → AVX-512 tier
//! (Gflop/s, best of batches, NN / NT / TN, `(m, k, n)`):
//!
//! ```text
//! (64, 32, 32)   39 → 91   34 → 75   36 → 81
//! (64, 32, 64)   39 → 92   34 → 77   37 → 82
//! (64, 64, 32)   52 → 105  42 → 84   47 → 92
//! (64,  5, 32)    9 → 40    9 → 32    8 → 38
//! ```
//!
//! All kernels support `accumulate` (`C += A·B`) so backward passes write
//! gradients directly into the destination buffer with no temporary.
//! Row blocks are parallel but disjoint, so results are run-to-run
//! deterministic and independent of the thread count. Whether a product
//! goes to the thread pool is decided by its *work* ([`POOL_MIN_FLOPS`]),
//! never by its row count alone. No kernel keeps thread-local scratch or
//! allocates on the heap.

use rayon::prelude::*;
use sickle_simd::{avx512_available, fma_available, kernel, Kernel};

/// Microkernel tile rows. The AVX2 build holds two `MR × NR` accumulator
/// tiles (even and odd `l`), one ymm per tile row: 12 of the 16 ymm
/// registers, leaving room for the `A` broadcast and the two `B` rows.
pub const MR: usize = 6;
/// Microkernel tile columns.
pub const NR: usize = 8;
/// Tile rows of the AVX-512 tier: two `MR16 × NR16` accumulator tiles are
/// 16 of the 32 zmm registers. Eight rows beat six by 2–8 % on the model's
/// 64- and 32-row products (no clamped duplicate rows); six do better only
/// on products of at most six rows.
const MR16: usize = 8;
/// Tile columns of the AVX-512 tier: one zmm of `f32` per row.
const NR16: usize = 16;
/// K-dimension block: the `B` micro-panel a tile streams (`KC·NR16` f32 at
/// most, 16 KiB) stays L1-resident, and fits the driver's stack buffer.
pub const KC: usize = 256;
/// Rows of `C` per block, the unit the thread pool is handed: a block's
/// `MC × KC` slice of `A` (≈ 128 KiB) stays L2-resident across its panels.
pub const MC: usize = 128;
/// A product goes to the thread pool only from this many flops (`2·m·k·n`)
/// up: one full `MC × KC` block of `A` against an `MC`-column panel, ≈ 170 µs
/// on one core. Below it the hand-off costs more than a second thread
/// returns, whatever the row count.
pub const POOL_MIN_FLOPS: usize = 2 * MC * KC * MC;

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
/// `a[i*ars + l*acs]` and `b[l*brs + j*bcs]`, on the widest [`Tier`] the
/// CPU runs.
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
    gemm_pack_free_with(Tier::detect(), c, m, k, n, a, ars, acs, b, brs, bcs, acc);
}

/// Handles the shapes with no multiply in them; true if `c` is finished.
fn degenerate(c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) -> bool {
    assert_eq!(c.len(), m * n, "C length mismatch");
    if k == 0 && !acc {
        c.fill(0.0);
    }
    m == 0 || n == 0 || k == 0
}

/// The instruction-set tier of the microkernel. `Avx512` and `Avx2` give
/// the same bits; `Portable` runs the same sequence unfused (module doc).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `MR16 × 16` tiles, one zmm per row, ragged columns masked.
    Avx512,
    /// The `MR × NR` AVX2+FMA tile.
    Avx2,
    /// The `MR × NR` baseline-target tile.
    Portable,
}

impl Tier {
    /// The widest tier this CPU runs (cached probes in `sickle-simd`).
    pub fn detect() -> Self {
        if avx512_available() {
            Tier::Avx512
        } else if fma_available() {
            Tier::Avx2
        } else {
            Tier::Portable
        }
    }

    /// Whether this CPU runs the tier.
    pub fn available(self) -> bool {
        match self {
            Tier::Avx512 => avx512_available(),
            Tier::Avx2 => fma_available(),
            Tier::Portable => true,
        }
    }
}

/// The driver over logical `C (m,n) = A (m,k) · B (k,n)` with the operands
/// addressed as `a[i*ars + l*acs]` and `b[l*brs + j*bcs]`, on an explicit
/// tier (the matmuls pass [`Tier::detect`], the parity tests each tier):
/// `MC`-row blocks of `C`, on the thread pool when `m > MC` and the product
/// is worth [`POOL_MIN_FLOPS`], each over `KC`-deep blocks of `k`. The
/// first `k` block stores or adds as `acc` says; every later one adds.
///
/// # Panics
/// Panics if the CPU does not run `tier`, `c.len() != m * n` or a stride
/// reaches outside `a` or `b`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_pack_free_with(
    tier: Tier,
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
    // Each block's operands start at its first row and column of `A` and
    // `B`; `block` checks its own reach inside them.
    let rows = |(bi, cblk): (usize, &mut [f32])| {
        let (i0, mc) = (bi * MC, cblk.len() / n);
        for l0 in (0..k).step_by(KC) {
            let (ab, bb) = (&a[i0 * ars + l0 * acs..], &b[l0 * brs..]);
            let (kc, add) = (KC.min(k - l0), acc || l0 > 0);
            block(tier, cblk, mc, kc, n, ab, ars, acs, bb, brs, bcs, add);
        }
    };
    if m > MC && 2 * m * k * n >= POOL_MIN_FLOPS {
        c.par_chunks_mut(MC * n).enumerate().for_each(rows);
    } else {
        c.chunks_mut(MC * n).enumerate().for_each(rows);
    }
}

/// One block of [`gemm_pack_free_with`], `k ≤ KC`: the tile reads `A`
/// where it lies (row offsets clamped to the last row at the ragged edge,
/// the duplicate rows discarded on write) and `B` too when its rows are
/// contiguous (at the 8-wide tiers only when `n` is a whole number of
/// micro-panels; the AVX-512 tier masks the ragged last one); otherwise
/// `B` is packed one micro-panel at a time into a stack buffer.
///
/// # Panics
/// Panics if the CPU does not run `tier`, `k > KC`, `c.len() != m * n` or
/// a stride reaches outside `a` or `b`.
#[allow(clippy::too_many_arguments)]
fn block(
    tier: Tier,
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
    assert!(tier.available(), "this CPU does not run the {tier:?} tier");
    assert!(k <= KC, "block k {k} exceeds KC");
    if degenerate(c, m, k, n, acc) {
        return;
    }
    // The bound every `A` load below rests on: the last row, last column
    // (checked arithmetic, so absurd strides cannot wrap past it).
    assert!(
        last_index(m - 1, ars, k - 1, acs).is_some_and(|last| last < a.len()),
        "A strides leave the buffer"
    );
    // And every `B` load: the last row, last column.
    assert!(
        last_index(k - 1, brs, n - 1, bcs).is_some_and(|last| last < b.len()),
        "B strides leave the buffer"
    );
    // The AVX-512 tier runs every `NR16`-column panel 16 wide but a last one
    // of at most `NR` columns, which runs faster (and with the same bits) on
    // the 8-wide tile below: half the lanes of a zmm are no cheaper than a
    // whole ymm. It reads `B` with contiguous rows or contiguous columns;
    // any other layout (no caller in the crate has one) runs 8 wide.
    let wide = match tier {
        Tier::Avx512 if bcs != 1 && brs != 1 => 0,
        Tier::Avx512 if n % NR16 <= NR => n - n % NR16,
        Tier::Avx512 => n,
        _ => 0,
    };
    #[cfg(target_arch = "x86_64")]
    if wide > 0 {
        // SAFETY: `avx512_available` (so also avx2 + fma) holds, asserted
        // above as `tier.available()`; `c.len() == m·n` (`degenerate`),
        // `wide ≤ n`, and the `A` and `B` bounds are asserted above.
        unsafe { pack_free_avx512(c, m, k, n, wide, a, ars, acs, b, brs, bcs, acc) };
    }
    let fma = tier != Tier::Portable;
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
            // place that is the `B` bound above plus `j0 + NR ≤ n`; packed,
            // the panel is `k·NR`. `fma` unless the tier is
            // `Portable`: the others imply avx2 + fma, asserted above.
            unsafe { microkernel(fma, k, a, &a_off, acs, bp, row_step, &mut acc_tile) };
            write_tile(c, n, i0, j0, h, w, &acc_tile, !acc);
        }
    };
    if bcs == 1 && (n - wide).is_multiple_of(NR) {
        for j0 in (wide..n).step_by(NR) {
            panel(j0, &b[j0..], brs);
        }
    } else {
        let mut packed = [0.0f32; KC * NR];
        let bp = &mut packed[..k * NR];
        for j0 in (wide..n).step_by(NR) {
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

/// The register-tiled inner kernel: `acc[i][j] = Σ_l A[i][l] · B[l][j]` with
/// `A[i][l] = a[a_off[i] + l·acs]` and `B[l][j] = b[l·brs + j]`, `l < kc`:
/// the AVX2+FMA variant when `fma`, the portable one otherwise.
///
/// # Safety
/// `fma` only where `fma_available()`; `kc ≥ 1`, and for every `i < MR`:
/// `a_off[i] + (kc - 1)·acs < a.len()`; `(kc - 1)·brs + NR ≤ b.len()`.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel(
    fma: bool,
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
    if fma {
        // SAFETY: avx2 + fma presence is the caller's `fma`; the index
        // contract is the caller's, passed through unchanged.
        unsafe { microkernel_fma(kc, a, a_off, acs, b, brs, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fma;
    // SAFETY: the caller's index contract, passed through unchanged.
    unsafe { tile::<false>(kc, a, a_off, acs, b, brs, acc) };
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
            tile::<true>(kc, a, a_off, 1, b, brs, acc)
        } else {
            tile::<true>(kc, a, a_off, acs, b, brs, acc)
        }
    }
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

/// The `MR × NR` tile body. Two independent accumulator tiles (even and
/// odd `l`) give `2·MR` multiply-add chains — enough to cover the fma
/// latency on two issue ports. `FUSED` makes each step one fused
/// multiply-add: AVX2+FMA callers inline the body, so that each `NR`-wide
/// row of an accumulator tile is one ymm register and every `mul_add` one
/// instruction, which baseline codegen cannot emit. Unfused, each step is a
/// multiply then an add, and the body autovectorizes under whatever SIMD
/// the baseline target provides.
///
/// # Safety
/// The index contract of [`microkernel`] must hold.
#[inline(always)]
unsafe fn tile<const FUSED: bool>(
    kc: usize,
    a: &[f32],
    a_off: &[usize; MR],
    acs: usize,
    b: &[f32],
    brs: usize,
    acc: &mut [f32; MR * NR],
) {
    let step = |x: f32, y: f32, s: f32| if FUSED { x.mul_add(y, s) } else { s + x * y };
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
                acc0[i * NR + j] = step(a0, b0[j], acc0[i * NR + j]);
                acc1[i * NR + j] = step(a1, b1[j], acc1[i * NR + j]);
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
                acc0[i * NR + j] = step(a0, b0[j], acc0[i * NR + j]);
            }
        }
    }
    for (d, (x, y)) in acc.iter_mut().zip(acc0.iter().zip(&acc1)) {
        *d = x + y;
    }
}

/// The AVX-512 tier of [`gemm_pack_free_with`] over columns `0..wide` of
/// `C`: `MR16 × NR16` tiles, one zmm per tile row, over panels of `NR16`
/// columns. `B` is read in place when its rows are contiguous — a ragged
/// last panel through a lane mask — and otherwise (its columns contiguous,
/// the NT layout) packed one panel at a time into a stack buffer through an
/// in-register transpose. Each element of `C` is built exactly as
/// [`tile`] and [`write_tile`] build it, whatever the tile width: one
/// fma chain over even `l` and one over odd `l`, both from `+0.0`; the two
/// chains added once; that sum stored, or added to `C` when `acc`.
///
/// # Safety
/// Caller must have verified `avx512f`, `avx2` and `fma` CPU support;
/// `m, k ≥ 1`, `k ≤ KC`, `wide ≤ n`, `c.len() == m·n`,
/// `(m - 1)·ars + (k - 1)·acs < a.len()`,
/// `(k - 1)·brs + (n - 1)·bcs < b.len()`, and `bcs == 1` or `brs == 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn pack_free_avx512(
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    wide: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    acc: bool,
) {
    let c = c.as_mut_ptr();
    if bcs == 1 {
        for j0 in (0..wide).step_by(NR16) {
            let w = NR16.min(wide - j0);
            // SAFETY: the caller's contract; row `l < k` of the panel is
            // `b[l·brs + j0..]`, inside the caller's `B` bound for the
            // `w ≤ n - j0` columns read.
            unsafe { panel_avx512(c, m, k, n, j0, w, a, ars, acs, b.as_ptr().add(j0), brs, acc) };
        }
        return;
    }
    // Left uninitialized: zeroing 16 KiB costs a tenth of a 64×32×32
    // product, and the transpose writes every float the panel reads.
    let mut packed = std::mem::MaybeUninit::<[f32; KC * NR16]>::uninit();
    let pp = packed.as_mut_ptr().cast::<f32>();
    for j0 in (0..wide).step_by(NR16) {
        let w = NR16.min(wide - j0);
        // SAFETY: `brs == 1` (the caller's contract, `bcs != 1` here), so
        // column `j0 + j < n`, row `l < k` of `B` is `b[(j0 + j)·bcs + l]`,
        // inside the caller's `B` bound; `packed` holds `KC·NR16 ≥ k·NR16`
        // floats, and the transpose writes all `NR16` of rows `0..k`, which
        // are the ones the panel reads.
        unsafe {
            pack_b_panel_t16(pp, b.as_ptr().add(j0 * bcs), bcs, k, w);
            panel_avx512(c, m, k, n, j0, w, a, ars, acs, pp, NR16, acc);
        }
    }
}

/// Packs `w ≤ 16` contiguous columns of `B` (column `j` at `b + j·bcs`,
/// `k` floats each) into the `k × 16` panel at `dst` (`[l][j]`, lanes
/// `j ≥ w` zero), one 16 × 16 block at a time through an in-register
/// transpose: 16 masked row loads, four rounds of 16 shuffles, 16 stores.
///
/// # Safety
/// `avx512f` CPU support; `dst` has `k·16` writable floats; for `j < w`,
/// `l < k`, `b + j·bcs + l` is readable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pack_b_panel_t16(dst: *mut f32, b: *const f32, bcs: usize, k: usize, w: usize) {
    use std::arch::x86_64::*;
    for l0 in (0..k).step_by(16) {
        let lw = 16.min(k - l0);
        let lmask = ((1u32 << lw) - 1) as u16;
        // `r[j]`: column `j`, rows `l0..l0 + lw`.
        let mut r = [_mm512_setzero_ps(); 16];
        for (j, rj) in r.iter_mut().enumerate().take(w) {
            // SAFETY: `j < w`, rows `l0..l0 + lw ≤ k` (masked-off lanes are
            // not read): the caller's readable range.
            *rj = unsafe { _mm512_maskz_loadu_ps(lmask, b.add(j * bcs + l0)) };
        }
        // Pairs of columns interleaved, then quads, within each 128-bit
        // lane: `u[4g + s]`, lane `q`, holds columns `4g..4g + 4` of row
        // `4q + s`.
        let mut t = [_mm512_setzero_ps(); 16];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_ps(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_ps(r[2 * p], r[2 * p + 1]);
        }
        let mut u = [_mm512_setzero_ps(); 16];
        for g in 0..4 {
            let [t0, t1, t2, t3] = [t[4 * g], t[4 * g + 1], t[4 * g + 2], t[4 * g + 3]];
            u[4 * g] = _mm512_shuffle_ps::<0x44>(t0, t2);
            u[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(t0, t2);
            u[4 * g + 2] = _mm512_shuffle_ps::<0x44>(t1, t3);
            u[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(t1, t3);
        }
        // Then the 128-bit lanes: row `4q + s` gathers lane `q` of
        // `u[s]`, `u[4 + s]`, `u[8 + s]`, `u[12 + s]`.
        let mut rows = [_mm512_setzero_ps(); 16];
        for s in 0..4 {
            let x = _mm512_shuffle_f32x4::<0x88>(u[s], u[4 + s]);
            let y = _mm512_shuffle_f32x4::<0xDD>(u[s], u[4 + s]);
            let z = _mm512_shuffle_f32x4::<0x88>(u[8 + s], u[12 + s]);
            let v = _mm512_shuffle_f32x4::<0xDD>(u[8 + s], u[12 + s]);
            rows[s] = _mm512_shuffle_f32x4::<0x88>(x, z);
            rows[4 + s] = _mm512_shuffle_f32x4::<0x88>(y, v);
            rows[8 + s] = _mm512_shuffle_f32x4::<0xDD>(x, z);
            rows[12 + s] = _mm512_shuffle_f32x4::<0xDD>(y, v);
        }
        for (ll, row) in rows.iter().enumerate().take(lw) {
            // SAFETY: row `l0 + ll < k` of the `k × 16` panel.
            unsafe { _mm512_storeu_ps(dst.add((l0 + ll) * NR16), *row) };
        }
    }
}

/// Columns `j0..j0 + w` (`w ≤ NR16`) of `C`, one `MR16`-row tile at a
/// time, from the `B` panel at `bp` (row `l` at `bp + l·row_step`).
///
/// # Safety
/// `avx512f` CPU support; `c` is the `m × n` product; the `A` bound of
/// [`pack_free_avx512`]; `bp + l·row_step + j` readable for `l < k`,
/// `j < w`; `j0 + w ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_avx512(
    c: *mut f32,
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    w: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    bp: *const f32,
    row_step: usize,
    acc: bool,
) {
    let mask = ((1u32 << w) - 1) as u16;
    for i0 in (0..m).step_by(MR16) {
        let h = MR16.min(m - i0);
        let a_off: [usize; MR16] = std::array::from_fn(|i| (i0 + i).min(m - 1) * ars);
        // SAFETY: `A`: every `a_off[i] ≤ (m - 1)·ars`, so each load is
        // within the caller's `A` bound. `B`: the `w` mask lanes of rows
        // `l < k` are the caller's readable panel. `C`: rows
        // `i0..i0 + h ≤ m`, columns `j0..j0 + w ≤ n` of the `m × n` product.
        unsafe {
            let ct = c.add(i0 * n + j0);
            if acs == 1 {
                tile_avx512::<true>(
                    k,
                    a.as_ptr(),
                    &a_off,
                    acs,
                    bp,
                    row_step,
                    mask,
                    ct,
                    n,
                    h,
                    acc,
                );
            } else {
                tile_avx512::<false>(
                    k,
                    a.as_ptr(),
                    &a_off,
                    acs,
                    bp,
                    row_step,
                    mask,
                    ct,
                    n,
                    h,
                    acc,
                );
            }
        }
    }
}

/// One tile of [`pack_free_avx512`]: rows `0..h` of `C` at `c` (row stride
/// `ldc`), the `mask` lanes of each, from
/// `A[i][l] = *a.add(a_off[i] + l·acs)` and `B[l][j] = *b.add(l·brs + j)`,
/// `l < k`. `UNIT_ACS` only when `acs == 1`.
///
/// # Safety
/// `avx512f` CPU support; `k ≥ 1`, `h ≤ MR16`; every `A` and `B` element
/// named above (for the `mask` lanes `j`) is readable, and the `mask` lanes
/// of rows `0..h` at `c` are writable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx512<const UNIT_ACS: bool>(
    k: usize,
    a: *const f32,
    a_off: &[usize; MR16],
    acs: usize,
    b: *const f32,
    brs: usize,
    mask: u16,
    c: *mut f32,
    ldc: usize,
    h: usize,
    acc: bool,
) {
    use std::arch::x86_64::*;
    // Row-major `A` (the NN and NT layouts) gets its own instance, as in
    // `microkernel_fma`: with the column step a constant, `l` and `l + 1`
    // share the row pointers.
    let acs = if UNIT_ACS { 1 } else { acs };
    let mut even = [_mm512_setzero_ps(); MR16];
    let mut odd = [_mm512_setzero_ps(); MR16];
    let mut l = 0;
    while l + 1 < k {
        // SAFETY: `l + 1 < k`: both rows of `B` and both columns of `A` are
        // inside the caller's contract; masked-off lanes are not read.
        unsafe {
            let b0 = _mm512_maskz_loadu_ps(mask, b.add(l * brs));
            let b1 = _mm512_maskz_loadu_ps(mask, b.add((l + 1) * brs));
            for i in 0..MR16 {
                let at = a.add(a_off[i] + l * acs);
                even[i] = _mm512_fmadd_ps(_mm512_set1_ps(*at), b0, even[i]);
                odd[i] = _mm512_fmadd_ps(_mm512_set1_ps(*at.add(acs)), b1, odd[i]);
            }
        }
        l += 2;
    }
    if l < k {
        // SAFETY: `l = k - 1`, the last row and column of the contract.
        unsafe {
            let b0 = _mm512_maskz_loadu_ps(mask, b.add(l * brs));
            for i in 0..MR16 {
                let a0 = *a.add(a_off[i] + l * acs);
                even[i] = _mm512_fmadd_ps(_mm512_set1_ps(a0), b0, even[i]);
            }
        }
    }
    for i in 0..h {
        let sum = _mm512_add_ps(even[i], odd[i]);
        // SAFETY: row `i < h` of the caller's writable `C` tile; only the
        // `mask` lanes are loaded or stored.
        unsafe {
            let dst = c.add(i * ldc);
            let out = if acc {
                _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), sum)
            } else {
                sum
            };
            _mm512_mask_storeu_ps(dst, mask, out);
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
    fn portable_tile_reads_strided_operands_like_packed_ones() {
        // On an AVX2 host the matmuls never reach the portable body, so its
        // two ways of reading `B` are pinned here directly: in place through
        // padded strides, and packed into micro-panels from the transposed
        // layout — across the `KC` block edge too.
        let (m, n) = (MR + 1, 2 * NR);
        for k in [1, 2, 7, 32, KC + 44] {
            let (ars, brs) = (k + 3, n + 5);
            let a = fill(m * ars, 10);
            let b = fill(k * brs, 11);
            // The same logical `B`, stored `(n, k)`.
            let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * brs + i / k]).collect();
            let (mut strided, mut packed) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
            let tier = Tier::Portable;
            gemm_pack_free_with(tier, &mut strided, m, k, n, &a, ars, 1, &b, brs, 1, false);
            gemm_pack_free_with(tier, &mut packed, m, k, n, &a, ars, 1, &bt, 1, k, false);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&strided), bits(&packed), "k={k}");
        }
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
