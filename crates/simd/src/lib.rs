//! # sickle-simd
//!
//! The workspace-wide runtime SIMD dispatch layer.
//!
//! Every optimized kernel in the workspace (GEMM microkernels in `sickle-nn`,
//! FFT butterflies in `sickle-fft`, the fused LBM pass in `sickle-cfd`, the
//! histogram binning in `sickle-field`/`sickle-core`) follows the same
//! pattern, hosted here so it exists exactly once:
//!
//! 1. **One cached feature detection** — [`fma_available`] probes
//!    `avx2 + fma` once and caches the answer in an atomic, so hot loops pay
//!    a single relaxed load instead of a `cpuid`.
//! 2. **One global kernel switch** — [`set_kernel`]/[`kernel`] select between
//!    [`Kernel::Naive`] (the reference implementations the parity tests
//!    compare against) and [`Kernel::Optimized`]. The switch can also be
//!    forced from the environment (`SICKLE_KERNEL=naive|optimized`), which CI
//!    uses to run the whole release test suite under each variant.
//! 3. **Exact-semantics shared primitives** — [`bin_indices`] and
//!    [`minmax_finite`] are the vectorized inner loops of the histogram /
//!    MaxEnt machinery. They are documented (and tested) to be *bit-identical*
//!    to their scalar formulations for every input, including NaN, ±inf and
//!    degenerate ranges, so switching kernels never changes sampling results.
//! 4. **Elementwise [`tanh`] and [`exp`]** — the train step's activations:
//!    one branch-free scalar formula each, compiled for the baseline target
//!    and again under AVX2, the two builds bit-identical by construction
//!    (see `math.rs`).
//! 5. **[`nearest_centroid`]** — k-means' assignment step: one branch-free
//!    blocked search compiled the same two ways, returning exactly the
//!    serial search's labels and distances (see `nearest.rs`).
//!
//! `Kernel::Optimized` is always safe to select: each optimized kernel
//! carries a portable fallback used when the CPU lacks AVX2+FMA, so the
//! switch chooses an *algorithm family* (fused/four-lane/packed vs. reference),
//! not an instruction set.

use std::sync::atomic::{AtomicU8, Ordering};

mod math;
mod nearest;

pub use math::{exp, tanh};
pub use nearest::{nearest_centroid, nearest_centroid_with};

/// Which implementation family the workspace kernels dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The reference implementations: serial loops and libm calls that the
    /// parity tests hold the optimized kernels to.
    Naive,
    /// The blocked / four-lane / fused implementations (default).
    /// Falls back to portable code paths on non-AVX2 hardware.
    Optimized,
}

const KERNEL_NAIVE: u8 = 0;
const KERNEL_OPTIMIZED: u8 = 1;
const KERNEL_UNSET: u8 = u8::MAX;

static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

/// Selects the global kernel implementation (bench/testing hook; not
/// intended to be toggled while another thread is inside a kernel).
pub fn set_kernel(k: Kernel) {
    KERNEL.store(
        match k {
            Kernel::Naive => KERNEL_NAIVE,
            Kernel::Optimized => KERNEL_OPTIMIZED,
        },
        Ordering::Relaxed,
    );
}

/// Currently selected kernel implementation.
///
/// The first read initializes the switch from the `SICKLE_KERNEL`
/// environment variable (`naive` or `optimized`, case-insensitive),
/// defaulting to [`Kernel::Optimized`]. CI uses the variable to force the
/// release test suite through each variant.
pub fn kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        KERNEL_NAIVE => Kernel::Naive,
        KERNEL_OPTIMIZED => Kernel::Optimized,
        _ => {
            let k = match std::env::var("SICKLE_KERNEL") {
                Ok(v) if v.eq_ignore_ascii_case("naive") => Kernel::Naive,
                _ => Kernel::Optimized,
            };
            set_kernel(k);
            k
        }
    }
}

/// Whether AVX2+FMA kernels may be used (result cached in an atomic:
/// 0 = unknown, 1 = yes, 2 = no). Always `false` off x86-64.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let ok = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            STATE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
            ok
        }
    }
}

/// Whether AVX2+FMA kernels may be used. Always `false` off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

/// The shared scalar bin formula: truncate-and-saturate cast of the
/// normalized position `(v - lo) / (hi - lo)`. Single source of the binning
/// rule used by `Histogram::bin_of` and the vectorized [`bin_indices`]
/// kernel. Non-finite `v` saturates through the `as isize` cast (NaN →
/// bin 0, ±inf → the end bins); *skipping* non-finite values is the
/// caller's policy, applied where counts are accumulated.
#[inline]
pub fn bin_index(v: f64, lo: f64, hi: f64, bins: usize) -> usize {
    let t = (v - lo) / (hi - lo);
    ((t * bins as f64) as isize).clamp(0, bins as isize - 1) as usize
}

/// Computes the histogram bin index of every value, writing `u32::MAX` for
/// non-finite values (the caller skips those, matching `Histogram::push`).
///
/// For finite `v` the result is exactly
/// `(((v - lo) / (hi - lo) * bins as f64) as isize).clamp(0, bins - 1)` —
/// the scalar formula used by `Histogram::bin_of` — including the saturating
/// behavior when the intermediate overflows to ±inf. The vector path clamps
/// in the f64 domain *before* truncation, which is provably equivalent for
/// every finite input, so counts built from these indices are bit-identical
/// to the scalar loop.
///
/// # Panics
/// Panics if `out.len() != values.len()`, `bins == 0`, or the bounds are not
/// finite with `hi > lo`.
pub fn bin_indices(values: &[f64], lo: f64, hi: f64, bins: usize, out: &mut [u32]) {
    assert_eq!(values.len(), out.len(), "values/out length mismatch");
    assert!(bins > 0, "need at least one bin");
    assert!(
        lo.is_finite() && hi.is_finite() && hi > lo,
        "bounds must be finite with hi > lo"
    );
    #[cfg(target_arch = "x86_64")]
    if fma_available() && bins <= i32::MAX as usize {
        // SAFETY: avx2 presence verified by `fma_available`.
        unsafe { bin_indices_avx2(values, lo, hi, bins, out) };
        return;
    }
    bin_indices_scalar(values, lo, hi, bins, out);
}

/// Scalar reference for [`bin_indices`] (also the non-AVX2 fallback).
pub fn bin_indices_scalar(values: &[f64], lo: f64, hi: f64, bins: usize, out: &mut [u32]) {
    for (&v, o) in values.iter().zip(out.iter_mut()) {
        *o = if v.is_finite() {
            bin_index(v, lo, hi, bins) as u32
        } else {
            u32::MAX
        };
    }
}

/// AVX2 bin-index kernel: 8 values per iteration (two vectors, unrolled to
/// hide `div` latency). The f64-domain clamp before `cvttpd` reproduces the
/// scalar truncate-then-saturate exactly: negative products clamp to 0,
/// products `>= bins` (including +inf) clamp to `bins - 1`. Non-finite lanes
/// are blended to `-1.0` before the truncating convert — `cvttpd(-1.0)` is
/// `-1i32`, whose bit pattern is the `u32::MAX` sentinel — so the whole loop
/// is branch-free.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn bin_indices_avx2(values: &[f64], lo: f64, hi: f64, bins: usize, out: &mut [u32]) {
    use std::arch::x86_64::*;
    let vlo = _mm256_set1_pd(lo);
    let vspan = _mm256_set1_pd(hi - lo);
    let vb = _mm256_set1_pd(bins as f64);
    let vtop = _mm256_set1_pd((bins - 1) as f64);
    let vzero = _mm256_setzero_pd();
    let vneg1 = _mm256_set1_pd(-1.0);
    let n = values.len();
    let vp = values.as_ptr();
    let op = out.as_mut_ptr();
    // One vector's worth of indices; the clamp runs before truncation and
    // NaN lanes resolve to bin 0 via max (overwritten by the sentinel blend).
    let index4 = |v: __m256d| {
        // Finite mask: v - v == 0 exactly for finite v, NaN otherwise.
        let fin = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(v, v), vzero);
        let t = _mm256_div_pd(_mm256_sub_pd(v, vlo), vspan);
        let s = _mm256_mul_pd(t, vb);
        let s = _mm256_min_pd(_mm256_max_pd(s, vzero), vtop);
        _mm256_cvttpd_epi32(_mm256_blendv_pd(vneg1, s, fin))
    };
    let mut i = 0;
    while i + 8 <= n {
        let a = index4(_mm256_loadu_pd(vp.add(i)));
        let b = index4(_mm256_loadu_pd(vp.add(i + 4)));
        _mm_storeu_si128(op.add(i).cast(), a);
        _mm_storeu_si128(op.add(i + 4).cast(), b);
        i += 8;
    }
    while i + 4 <= n {
        _mm_storeu_si128(op.add(i).cast(), index4(_mm256_loadu_pd(vp.add(i))));
        i += 4;
    }
    bin_indices_scalar(&values[i..], lo, hi, bins, &mut out[i..]);
}

/// Bins every value and accumulates histogram counts in one fused pass.
///
/// `counts` must have `bins + 1` slots: slot `b < bins` receives the number
/// of finite values whose [`bin_index`] is `b`, and the extra slot `bins`
/// counts the non-finite values (the caller's skip policy). The counts are
/// bit-identical to the scalar `push` loop for every input — integer
/// addition commutes, so the banked accumulation order does not matter.
///
/// Fusing the index computation with the count accumulation matters on the
/// hot path: the divide-bound index vectors and the load/store-bound bank
/// increments occupy disjoint execution ports, so one loop runs both in the
/// time of the slower, where the two-pass [`bin_indices`] + increment
/// formulation pays for each serially.
///
/// # Panics
/// Panics if `counts.len() != bins + 1`, `bins == 0`, or the bounds are not
/// finite with `hi > lo`.
pub fn bin_counts(values: &[f64], lo: f64, hi: f64, bins: usize, counts: &mut [u64]) {
    assert_eq!(counts.len(), bins + 1, "counts must have bins + 1 slots");
    assert!(bins > 0, "need at least one bin");
    assert!(
        lo.is_finite() && hi.is_finite() && hi > lo,
        "bounds must be finite with hi > lo"
    );
    #[cfg(target_arch = "x86_64")]
    // Small batches don't amortize zeroing the bank scratch; large bin
    // counts don't fit its fixed stride. Both take the scalar loop, which
    // produces the same counts.
    if fma_available() && bins < BANK_STRIDE && values.len() >= 512 {
        // SAFETY: avx2 presence verified by `fma_available`.
        unsafe { bin_counts_avx2(values, lo, hi, bins, counts) };
        return;
    }
    bin_counts_scalar(values, lo, hi, bins, counts);
}

/// Scalar reference for [`bin_counts`] (also the fallback off AVX2).
pub fn bin_counts_scalar(values: &[f64], lo: f64, hi: f64, bins: usize, counts: &mut [u64]) {
    assert_eq!(counts.len(), bins + 1, "counts must have bins + 1 slots");
    for &v in values {
        let slot = if v.is_finite() {
            bin_index(v, lo, hi, bins)
        } else {
            bins
        };
        counts[slot] += 1;
    }
}

#[cfg(target_arch = "x86_64")]
const BANK_STRIDE: usize = 256;

/// Fused AVX2 bin-and-count kernel: 8 values per iteration. Indices come
/// from the same clamp-before-`cvttpd` sequence as [`bin_indices_avx2`],
/// with non-finite lanes blended to `bins as f64` so the converted index is
/// already the skip slot — every index is in `[0, bins]` by construction.
/// Eight count banks (fixed stride 256, so bank addressing is all
/// compile-time constants) break the store-to-load dependency chains that
/// smooth fields cause when consecutive values share a bin.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn bin_counts_avx2(values: &[f64], lo: f64, hi: f64, bins: usize, counts: &mut [u64]) {
    use std::arch::x86_64::*;
    debug_assert!(bins < BANK_STRIDE);
    let vlo = _mm256_set1_pd(lo);
    let vspan = _mm256_set1_pd(hi - lo);
    let vb = _mm256_set1_pd(bins as f64);
    let vtop = _mm256_set1_pd((bins - 1) as f64);
    let vzero = _mm256_setzero_pd();
    let index4 = |v: __m256d| {
        // Finite mask: v - v == 0 exactly for finite v, NaN otherwise.
        let fin = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(v, v), vzero);
        let t = _mm256_div_pd(_mm256_sub_pd(v, vlo), vspan);
        let s = _mm256_mul_pd(t, vb);
        let s = _mm256_min_pd(_mm256_max_pd(s, vzero), vtop);
        _mm256_cvttpd_epi32(_mm256_blendv_pd(vb, s, fin))
    };
    // Banks packed at stride `bins + 1` so the whole working set stays
    // L1-resident next to the streaming reads (a 64-bin histogram uses
    // ~4KB). The backing array is sized for the `bins < BANK_STRIDE` guard
    // but only the used prefix is zeroed — per-cube calls are short enough
    // that blanket-zeroing 16KB would be a measurable fixed cost.
    let stride = bins + 1;
    let mut banks_mem = core::mem::MaybeUninit::<[u64; 8 * BANK_STRIDE]>::uninit();
    let banks = banks_mem.as_mut_ptr().cast::<u64>();
    core::ptr::write_bytes(banks, 0, 8 * stride);
    let mut idx8 = [0u32; 8];
    let n = values.len();
    let vp = values.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let a = index4(_mm256_loadu_pd(vp.add(i)));
        let b = index4(_mm256_loadu_pd(vp.add(i + 4)));
        _mm_storeu_si128(idx8.as_mut_ptr().cast(), a);
        _mm_storeu_si128(idx8.as_mut_ptr().add(4).cast(), b);
        // SAFETY: every index is <= bins, so lane k touches
        // banks[k * stride + idx] <= 8 * stride - 1, within the zeroed
        // prefix.
        for (k, &slot) in idx8.iter().enumerate() {
            *banks.add(k * stride + slot as usize) += 1;
        }
        i += 8;
    }
    for (slot, c) in counts.iter_mut().enumerate() {
        let mut total = 0u64;
        for k in 0..8 {
            total += *banks.add(k * stride + slot);
        }
        *c += total;
    }
    bin_counts_scalar(&values[i..], lo, hi, bins, counts);
}

/// Minimum and maximum over the finite values of `data`, or `None` if no
/// value is finite. Identical to the serial
/// `lo = lo.min(v); hi = hi.max(v)` fold over finite values (min/max are
/// order-independent, so the vector reduction is exact).
pub fn minmax_finite(data: &[f64]) -> Option<(f64, f64)> {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 presence verified by `fma_available`.
        return unsafe { minmax_finite_avx2(data) };
    }
    minmax_finite_scalar(data)
}

/// Scalar reference for [`minmax_finite`] (also the non-AVX2 fallback).
pub fn minmax_finite_scalar(data: &[f64]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in data {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo.is_finite() {
        Some((lo, hi))
    } else {
        None
    }
}

/// AVX2 finite min/max: non-finite lanes are masked to ∓inf so they are
/// identities for the running min/max.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn minmax_finite_avx2(data: &[f64]) -> Option<(f64, f64)> {
    use std::arch::x86_64::*;
    let vzero = _mm256_setzero_pd();
    let pinf = _mm256_set1_pd(f64::INFINITY);
    let ninf = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut vmin = pinf;
    let mut vmax = ninf;
    let n = data.len();
    let p = data.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(p.add(i));
        let fin = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(v, v), vzero);
        vmin = _mm256_min_pd(vmin, _mm256_blendv_pd(pinf, v, fin));
        vmax = _mm256_max_pd(vmax, _mm256_blendv_pd(ninf, v, fin));
        i += 4;
    }
    let mut lanes_min = [0.0f64; 4];
    let mut lanes_max = [0.0f64; 4];
    _mm256_storeu_pd(lanes_min.as_mut_ptr(), vmin);
    _mm256_storeu_pd(lanes_max.as_mut_ptr(), vmax);
    let mut lo = lanes_min.into_iter().fold(f64::INFINITY, f64::min);
    let mut hi = lanes_max.into_iter().fold(f64::NEG_INFINITY, f64::max);
    for &v in &data[i..] {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo.is_finite() {
        Some((lo, hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_switch_roundtrips() {
        let before = kernel();
        set_kernel(Kernel::Naive);
        assert_eq!(kernel(), Kernel::Naive);
        set_kernel(Kernel::Optimized);
        assert_eq!(kernel(), Kernel::Optimized);
        set_kernel(before);
    }

    #[test]
    fn detection_is_stable() {
        let a = fma_available();
        let b = fma_available();
        assert_eq!(a, b);
    }

    fn check_bits(values: &[f64], lo: f64, hi: f64, bins: usize) {
        let mut scalar = vec![0u32; values.len()];
        let mut vector = vec![0u32; values.len()];
        bin_indices_scalar(values, lo, hi, bins, &mut scalar);
        bin_indices(values, lo, hi, bins, &mut vector);
        assert_eq!(scalar, vector, "lo={lo} hi={hi} bins={bins}");
    }

    #[test]
    fn bin_indices_matches_scalar_on_edge_cases() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.999_999_999,
            1.000_000_001,
            123.456,
        ];
        for &bins in &[1usize, 2, 7, 100, 4096] {
            check_bits(&values, 0.0, 1.0, bins);
            check_bits(&values, -1e-9, 1e-9, bins);
            check_bits(&values, -1e308, 1e308, bins);
        }
    }

    #[test]
    fn bin_indices_ragged_lengths() {
        for len in 0..20 {
            let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            check_bits(&values, -1.0, 1.0, 10);
        }
    }

    fn check_counts(values: &[f64], lo: f64, hi: f64, bins: usize) {
        let mut scalar = vec![0u64; bins + 1];
        let mut fused = vec![0u64; bins + 1];
        bin_counts_scalar(values, lo, hi, bins, &mut scalar);
        bin_counts(values, lo, hi, bins, &mut fused);
        assert_eq!(scalar, fused, "lo={lo} hi={hi} bins={bins}");
        let total: u64 = scalar.iter().sum();
        assert_eq!(total, values.len() as u64);
    }

    #[test]
    fn bin_counts_matches_scalar() {
        // Long enough to exercise the fused AVX2 path (>= 512 values), with
        // non-finite values sprinkled in to hit the skip slot.
        let values: Vec<f64> = (0..2048)
            .map(|i| match i % 97 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => (i as f64 * 0.37).sin() * 3.0,
            })
            .collect();
        for &bins in &[1usize, 7, 64, 255, 256, 4096] {
            check_counts(&values, -1.0, 1.0, bins);
            check_counts(&values, -1e-9, 1e-9, bins);
        }
        for len in 0..20 {
            check_counts(&values[..len], -1.0, 1.0, 10);
        }
        // Counts accumulate on top of what is already in the buffer.
        let mut counts = vec![5u64; 11];
        bin_counts(&values[..100], -1.0, 1.0, 10, &mut counts);
        assert_eq!(counts.iter().sum::<u64>(), 55 + 100);
    }

    #[test]
    fn minmax_matches_scalar() {
        let values = [
            3.0,
            f64::NAN,
            -7.5,
            f64::INFINITY,
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            2.25,
            -7.5,
        ];
        assert_eq!(minmax_finite(&values), minmax_finite_scalar(&values));
        assert_eq!(minmax_finite(&values), Some((-7.5, 3.0)));
        let nothing = [f64::NAN, f64::INFINITY];
        assert_eq!(minmax_finite(&nothing), None);
        let empty: [f64; 0] = [];
        assert_eq!(minmax_finite(&empty), None);
        for len in 0..17 {
            let v: Vec<f64> = (0..len).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
            assert_eq!(minmax_finite(&v), minmax_finite_scalar(&v), "len {len}");
        }
    }
}
