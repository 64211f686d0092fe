//! One-dimensional power-of-two FFT plan, and the four-lane ("quad") kernel
//! the multi-dimensional drivers run it through.
//!
//! The plan precomputes the bit-reversal permutation and per-stage twiddle
//! factors once, so repeated transforms of the same length (the common case
//! in a pseudo-spectral solver, which transforms thousands of pencils per
//! step) pay no setup cost and perform no allocation.
//!
//! ## The quad kernel
//!
//! Four independent length-`n` sequences ("lanes") are transformed together
//! in a buffer of `n` [`Quad`]s: slot `k` holds element `k` of every lane,
//! split into its four real and four imaginary parts, so under AVX2 a slot
//! is two 256-bit vectors and each butterfly a handful of full-width
//! instructions with the twiddle broadcast.
//!
//! - The bit-reversal permutation is folded into the gather: slot `k` is
//!   filled from element `rev(k)` of each lane, so no swap pass runs, and
//!   the butterflies leave the result in natural order for the scatter.
//! - Under AVX2+FMA two radix-2 stages run per pass over the buffer, the
//!   four slots of a radix-2² group held in registers (a leftover odd stage
//!   runs alone first); the gather feeds the first pass and the scatter
//!   takes the last. Fusing changes no operation: each lane gets the
//!   twiddles of the stage-by-stage loop, the product rounded as the
//!   `fmaddsub` complex multiply rounds it (one rounded product, then a
//!   fused multiply-add), and the `t == 0` column (`w == 1`) skips its
//!   multiply.
//! - The portable path runs [`FftPlan::forward`]'s stage loop on each lane
//!   with the same `Complex` products, the same bits as one sequence at a
//!   time.
//!
//! No operation mixes lanes, so a lane's bits do not depend on what the
//! other three hold: a group of one to three sequences repeats its last one
//! in the unused lanes and comes out with the bits it would have in a full
//! quad.

use crate::complex::Complex;

/// A reusable plan for forward/inverse complex FFTs of a fixed power-of-two
/// length, using the iterative radix-2 Cooley–Tukey algorithm.
///
/// The forward transform computes `X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)`;
/// the inverse applies the conjugate transform and divides by `n`, so
/// `inverse(forward(x)) == x` up to rounding.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position.
    rev: Vec<u32>,
    /// Twiddle factors for the forward transform, concatenated per stage:
    /// stage with half-size `m` contributes `m` factors `exp(-i*pi*t/m)`.
    twiddles: Vec<Complex>,
}

/// One slot of a four-lane buffer: element `k` of four sequences, real
/// parts then imaginary parts (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub struct Quad {
    /// Real part of each lane.
    pub re: [f64; 4],
    /// Imaginary part of each lane.
    pub im: [f64; 4],
}

impl Quad {
    /// All four lanes zero.
    pub const ZERO: Quad = Quad {
        re: [0.0; 4],
        im: [0.0; 4],
    };

    /// Lane `l` as a complex number.
    #[inline(always)]
    pub fn lane(&self, l: usize) -> Complex {
        Complex::new(self.re[l], self.im[l])
    }

    /// Overwrites lane `l`.
    #[inline(always)]
    pub fn set_lane(&mut self, l: usize, z: Complex) {
        self.re[l] = z.re;
        self.im[l] = z.im;
    }
}

/// The AVX2 view of a [`Quad`]: its real and its imaginary parts as two
/// 256-bit vectors, and the moves between that and four `Complex` lanes.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use std::arch::x86_64::*;

    use crate::complex::Complex;

    /// Real parts, imaginary parts.
    pub(crate) type V = (__m256d, __m256d);

    /// Element `j` of each of four lanes.
    ///
    /// # Safety
    /// AVX2 must be available, and each `src[l].add(j)` valid for reads of
    /// a `Complex`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_lanes(src: [*const Complex; 4], j: usize) -> V {
        let (z0, z1) = (
            _mm_loadu_pd(src[0].add(j).cast()),
            _mm_loadu_pd(src[1].add(j).cast()),
        );
        let (z2, z3) = (
            _mm_loadu_pd(src[2].add(j).cast()),
            _mm_loadu_pd(src[3].add(j).cast()),
        );
        // [re0 im0 re2 im2] and [re1 im1 re3 im3], then by part.
        let a = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(z0), z2);
        let b = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(z1), z3);
        (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
    }

    /// Stores lane `l` of `v` to `dst[l].add(j)` for each lane `dst` names.
    ///
    /// # Safety
    /// AVX2 must be available, and each `dst[l].add(j)` valid for writes of
    /// a `Complex`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn store_lanes(dst: &[*mut Complex], j: usize, (re, im): V) {
        // [re0 im0 re2 im2] and [re1 im1 re3 im3].
        let (a, b) = (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im));
        let lanes = [
            _mm256_castpd256_pd128(a),
            _mm256_castpd256_pd128(b),
            _mm256_extractf128_pd::<1>(a),
            _mm256_extractf128_pd::<1>(b),
        ];
        for (d, z) in dst.iter().zip(lanes) {
            _mm_storeu_pd(d.add(j).cast(), z);
        }
    }

    /// Slot `k` of a quad buffer starting at `p`.
    ///
    /// # Safety
    /// AVX2 must be available, and slot `k` inside the buffer.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_slot(p: *const f64, k: usize) -> V {
        (
            _mm256_load_pd(p.add(8 * k)),
            _mm256_load_pd(p.add(8 * k + 4)),
        )
    }

    /// Overwrites slot `k` of a quad buffer starting at `p`.
    ///
    /// # Safety
    /// AVX2 must be available, and slot `k` inside the buffer.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn store_slot(p: *mut f64, k: usize, (re, im): V) {
        _mm256_store_pd(p.add(8 * k), re);
        _mm256_store_pd(p.add(8 * k + 4), im);
    }
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            crate::is_power_of_two(n),
            "FFT length {n} must be a power of two"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| match bits {
                0 => 0,
                _ => (i.reverse_bits() >> (usize::BITS - bits)) as u32,
            })
            .collect();
        // Precompute twiddles per stage. Stages have half-sizes 1, 2, 4, ... n/2.
        let mut twiddles = Vec::with_capacity(n.max(1));
        let mut m = 1;
        while m < n {
            for t in 0..m {
                let ang = -std::f64::consts::PI * t as f64 / m as f64;
                twiddles.push(Complex::from_polar_unit(ang));
            }
            m <<= 1;
        }
        FftPlan { n, rev, twiddles }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the degenerate length-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bit-reversed index of position `k`.
    #[inline(always)]
    pub(crate) fn rev(&self, k: usize) -> usize {
        self.rev[k] as usize
    }

    #[inline]
    fn permute(&self, data: &mut [Complex]) {
        for (i, &j) in self.rev.iter().enumerate() {
            if i < j as usize {
                data.swap(i, j as usize);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex], conjugate: bool) {
        let n = self.n;
        let mut m = 1; // half-size of the current butterfly group
        let mut toff = 0; // offset into the twiddle table
        while m < n {
            let step = m << 1;
            let tw = &self.twiddles[toff..toff + m];
            let mut base = 0;
            while base < n {
                for (t, &twt) in tw.iter().enumerate() {
                    let w = if conjugate { twt.conj() } else { twt };
                    let a = data[base + t];
                    let b = data[base + t + m] * w;
                    data[base + t] = a + b;
                    data[base + t + m] = a - b;
                }
                base += step;
            }
            toff += m;
            m = step;
        }
    }

    /// In-place forward transform.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        self.permute(data);
        self.butterflies(data, false);
    }

    /// In-place inverse transform, normalized by `1/n`.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        self.permute(data);
        self.butterflies(data, true);
        let inv = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// In-place inverse transform **without** the `1/n` normalization.
    ///
    /// Multi-dimensional wrappers use this to apply the overall normalization
    /// once instead of per-axis.
    pub fn inverse_unnormalized(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        self.permute(data);
        self.butterflies(data, true);
    }

    // -- the quad kernel ----------------------------------------------------

    /// Transforms four sequences through the quad buffer `quads` (`n`
    /// slots); `conjugate` selects the inverse. With `src = Some((ptr,
    /// stride))` the sequences are gathered first, slot `k` lane `l` from
    /// `ptr[l].add(rev(k) * stride)`; without, `quads` must already hold
    /// them in bit-reversed order. With `dst = Some((ptr, stride))` lane `l`
    /// of the natural-order result is scattered to `ptr[l].add(k * stride)`
    /// for each of the one to four lanes `ptr` names; without, it stays in
    /// `quads`. Dispatches to the AVX2+FMA build when the CPU has it, where
    /// the gather and scatter ride in the first and last pass.
    ///
    /// # Safety
    /// Every address `src` and `dst` yield for `j, k < n` must be valid for
    /// reads and writes of a `Complex` respectively, outside `quads`, and
    /// touched by no one else during the call. A `dst` lane may be its
    /// `src` lane (an in-place transform): every element is read before any
    /// is written.
    ///
    /// # Panics
    /// Panics if `quads.len()` differs from the plan length.
    #[inline]
    pub(crate) unsafe fn transform4(
        &self,
        quads: &mut [Quad],
        conjugate: bool,
        src: Option<([*const Complex; 4], usize)>,
        dst: Option<(&[*mut Complex], usize)>,
    ) {
        assert_eq!(quads.len(), self.n, "quad buffer length mismatch");
        #[cfg(target_arch = "x86_64")]
        if sickle_simd::fma_available() {
            // SAFETY: `fma_available` just confirmed avx2 + fma, the length
            // was asserted above, and `src`/`dst` are the caller's contract.
            unsafe { self.butterflies4_fma(quads, conjugate, src, dst) };
            return;
        }
        // SAFETY: the length was asserted above, and `src`/`dst` are the
        // caller's contract.
        unsafe { self.transform4_portable(quads, conjugate, src, dst) };
    }

    /// The portable build of [`Self::transform4`]: gather, the
    /// stage-by-stage butterflies, scatter.
    ///
    /// # Safety
    /// `quads.len() == self.n`, and `src`/`dst` are as
    /// [`Self::transform4`] requires.
    unsafe fn transform4_portable(
        &self,
        quads: &mut [Quad],
        conjugate: bool,
        src: Option<([*const Complex; 4], usize)>,
        dst: Option<(&[*mut Complex], usize)>,
    ) {
        if let Some((src, stride)) = src {
            for (q, &r) in quads.iter_mut().zip(&self.rev) {
                for (l, s) in src.iter().enumerate() {
                    // SAFETY: `r < n`, a read the caller vouches for.
                    q.set_lane(l, unsafe { *s.add(r as usize * stride) });
                }
            }
        }
        self.butterflies4_portable(quads, conjugate);
        if let Some((dst, stride)) = dst {
            for (k, q) in quads.iter().enumerate() {
                for (l, d) in dst.iter().enumerate() {
                    // SAFETY: `k < n`, a write the caller vouches for.
                    unsafe { *d.add(k * stride) = q.lane(l) };
                }
            }
        }
    }

    /// Portable quad butterflies: [`Self::butterflies`] per lane, stage by
    /// stage, with the same `Complex` products (the `t == 0` column
    /// included), hence the same bits as the single-sequence path.
    fn butterflies4_portable(&self, quads: &mut [Quad], conjugate: bool) {
        let mut m = 1;
        let mut toff = 0;
        while m < self.n {
            let tw = &self.twiddles[toff..toff + m];
            for group in quads.chunks_exact_mut(2 * m) {
                let (lo, hi) = group.split_at_mut(m);
                for ((a, b), &twt) in lo.iter_mut().zip(hi).zip(tw) {
                    let w = if conjugate { twt.conj() } else { twt };
                    for l in 0..4 {
                        let (x, y) = (a.lane(l), b.lane(l) * w);
                        a.set_lane(l, x + y);
                        b.set_lane(l, x - y);
                    }
                }
            }
            toff += m;
            m *= 2;
        }
    }

    /// AVX2+FMA quad butterflies, two stages per pass (module docs): a slot
    /// is two 256-bit vectors, its four real and its four imaginary parts.
    /// The product by the broadcast twiddle `w` rounds as an `fmaddsub`
    /// complex multiply does: `re = fma(b.re, w.re, −(b.im·w.im))`,
    /// `im = fma(b.im, w.re, b.re·w.im)`. The `t == 0` column (`w == 1`)
    /// skips the multiply.
    ///
    /// With `src`, the first pass reads its slots straight from the four
    /// sequences, slot `k` from element `rev(k)` of each (four 128-bit loads
    /// per slot, split into real and imaginary parts), instead of from
    /// `quads`; with `dst`, the last pass stores its slots straight to them.
    ///
    /// # Safety
    /// The CPU must support `avx2` and `fma`, `quads.len() == self.n`, and
    /// `src`/`dst` are as [`Self::transform4`] requires.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn butterflies4_fma(
        &self,
        quads: &mut [Quad],
        conjugate: bool,
        src: Option<([*const Complex; 4], usize)>,
        dst: Option<(&[*mut Complex], usize)>,
    ) {
        use std::arch::x86_64::*;

        use avx::V;
        let n = self.n;
        let sign = if conjugate { -1.0 } else { 1.0 };
        // SAFETY (every load and store below): `Quad` is `#[repr(C,
        // align(32))] { re: [f64; 4], im: [f64; 4] }`, so `quads` is `8 * n`
        // f64s and slot `k`'s two vectors start at the 32-byte aligned
        // offsets `8k` and `8k + 4`. Every slot index used is below `n`
        // (`base` a multiple of `4m` below `n`, `t < m`, offsets up to
        // `3m`), and `quads` is borrowed exclusively.
        let p = quads.as_mut_ptr().cast::<f64>();
        let load = |k: usize| avx::load_slot(p, k);
        let store = |k: usize, v: V| avx::store_slot(p, k, v);
        // Slot `k` as the first pass sees it: with `src`, element `rev(k)`
        // of each sequence, a read the caller vouches for (`rev(k) < n`).
        let first = |k: usize| match src {
            Some((s, stride)) => avx::load_lanes(s, self.rev[k] as usize * stride),
            None => load(k),
        };
        // Slot `k` as the last pass leaves it: to element `k` of each
        // sequence with `dst`, a write the caller vouches for.
        let last = |k: usize, v: V| match dst {
            Some((d, stride)) => avx::store_lanes(d, k * stride, v),
            None => store(k, v),
        };
        let plain = |(are, aim): V, (bre, bim): V| -> (V, V) {
            (
                (_mm256_add_pd(are, bre), _mm256_add_pd(aim, bim)),
                (_mm256_sub_pd(are, bre), _mm256_sub_pd(aim, bim)),
            )
        };
        let twiddled = |a: V, (bre, bim): V, w: &Complex| -> (V, V) {
            let (wre, wim) = (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im * sign));
            let re = _mm256_fmsub_pd(bre, wre, _mm256_mul_pd(bim, wim));
            let im = _mm256_fmadd_pd(bim, wre, _mm256_mul_pd(bre, wim));
            plain(a, (re, im))
        };
        // Stages `m` and `2m` on slots `t`, `t + m`, `t + 2m`, `t + 3m` of
        // each group of `4m`: stage `m` pairs `(t, t + m)` and
        // `(t + 2m, t + 3m)` under `w1[t]`, stage `2m` pairs `(t, t + 2m)`
        // under `w2[t]` and `(t + m, t + 3m)` under `w3[t] = w2[t + m]`.
        // Expanded once per (read, write) pair so that no pass tests which
        // pass it is.
        macro_rules! fused_pass {
            ($m:expr, $toff:expr, $get:expr, $put:expr) => {{
                let (m, toff) = ($m, $toff);
                let w1 = &self.twiddles[toff..toff + m];
                let (w2, w3) = self.twiddles[toff + m..toff + 3 * m].split_at(m);
                for base in (0..n).step_by(4 * m) {
                    let (a0, a1) = plain($get(base), $get(base + m));
                    let (a2, a3) = plain($get(base + 2 * m), $get(base + 3 * m));
                    let (a0, a2) = plain(a0, a2);
                    let (a1, a3) = twiddled(a1, a3, &w3[0]);
                    $put(base, a0);
                    $put(base + m, a1);
                    $put(base + 2 * m, a2);
                    $put(base + 3 * m, a3);
                    for (t, ((w1, w2), w3)) in w1.iter().zip(w2).zip(w3).enumerate().skip(1) {
                        let k = base + t;
                        let (a0, a1) = twiddled($get(k), $get(k + m), w1);
                        let (a2, a3) = twiddled($get(k + 2 * m), $get(k + 3 * m), w1);
                        let (a0, a2) = twiddled(a0, a2, w2);
                        let (a1, a3) = twiddled(a1, a3, w3);
                        $put(k, a0);
                        $put(k + m, a1);
                        $put(k + 2 * m, a2);
                        $put(k + 3 * m, a3);
                    }
                }
            }};
        }
        let (mut m, mut toff) = (1, 0);
        match n {
            1 => last(0, first(0)),
            _ if n.trailing_zeros() % 2 == 1 => {
                // The odd stage out: half-size 1, its only column `t == 0`;
                // the last pass too when `n == 2`.
                for k in (0..n).step_by(2) {
                    let (a, b) = plain(first(k), first(k + 1));
                    if n == 2 {
                        last(k, a);
                        last(k + 1, b);
                    } else {
                        store(k, a);
                        store(k + 1, b);
                    }
                }
                (m, toff) = (2, 1);
            }
            _ => {
                if n == 4 {
                    fused_pass!(1, 0, first, last);
                } else {
                    fused_pass!(1, 0, first, store);
                }
                (m, toff) = (4, 3);
            }
        }
        while m < n {
            if 4 * m == n {
                fused_pass!(m, toff, load, last);
            } else {
                fused_pass!(m, toff, load, store);
            }
            toff += 3 * m;
            m *= 4;
        }
    }

    /// Transforms the one to four length-`n` rows that `rows` holds back to
    /// back, in place, as the lanes of one quad (unused lanes repeat the
    /// last row). `scratch` must hold `n` quads.
    ///
    /// # Panics
    /// Panics unless `rows` holds one to four whole rows and
    /// `scratch.len() == n`.
    pub fn forward_rows(&self, rows: &mut [Complex], scratch: &mut [Quad]) {
        self.rows(rows, scratch, false);
    }

    /// [`Self::forward_rows`] for the inverse transform, **without** the
    /// `1/n` normalization.
    ///
    /// # Panics
    /// As [`Self::forward_rows`].
    pub fn inverse_rows_unnormalized(&self, rows: &mut [Complex], scratch: &mut [Quad]) {
        self.rows(rows, scratch, true);
    }

    fn rows(&self, rows: &mut [Complex], scratch: &mut [Quad], conjugate: bool) {
        let n = self.n;
        let r = rows.len() / n;
        assert!(
            (1..=4).contains(&r) && rows.len() == r * n,
            "rows must hold one to four length-{n} rows"
        );
        let p = rows.as_mut_ptr();
        // SAFETY: lane `l` reads and writes row `min(l, r - 1)`, `n`
        // elements inside `rows`, which is borrowed exclusively; the scatter
        // names each of the `r` rows once, and `scratch` is a separate
        // buffer.
        unsafe {
            let lanes: [*mut Complex; 4] = std::array::from_fn(|l| p.add(l.min(r - 1) * n));
            let src = lanes.map(|l| l.cast_const());
            self.transform4(scratch, conjugate, Some((src, 1)), Some((&lanes[..r], 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} != {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin() + 0.3, (i as f64 * 0.7).cos()))
                .collect();
            let expected = dft_naive(&input);
            let mut got = input.clone();
            FftPlan::new(n).forward(&mut got);
            assert_close(&got, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 128;
        let plan = FftPlan::new(n);
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i * 31 % 17) as f64, (i * 7 % 13) as f64))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-10);
    }

    #[test]
    fn pure_mode_has_single_peak() {
        // x[j] = exp(2*pi*i*3*j/n) transforms to n * delta[k - 3].
        let n = 32;
        let input: Vec<Complex> = (0..n)
            .map(|j| {
                Complex::from_polar_unit(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64)
            })
            .collect();
        let mut data = input;
        FftPlan::new(n).forward(&mut data);
        for (k, v) in data.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!((v.abs() - expect).abs() < 1e-9, "mode {k}: {v:?}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut data = input;
        FftPlan::new(n).forward(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn rejects_wrong_buffer_length() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    fn signal(n: usize, seed: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64 + seed;
                Complex::new((t * 0.31).sin(), (t * 0.17).cos() - 0.2)
            })
            .collect()
    }

    #[test]
    fn quad_transform_matches_four_single_transforms() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = FftPlan::new(n);
            for r in 1..=4 {
                let rows: Vec<Complex> = (0..r).flat_map(|l| signal(n, 3.7 * l as f64)).collect();
                let mut quad = rows.clone();
                let mut scratch = vec![Quad::ZERO; n];
                plan.forward_rows(&mut quad, &mut scratch);
                for (l, (got, row)) in quad.chunks(n).zip(rows.chunks(n)).enumerate() {
                    let mut want = row.to_vec();
                    plan.forward(&mut want);
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g.re - w.re).abs() < 1e-10 * n as f64
                                && (g.im - w.im).abs() < 1e-10 * n as f64,
                            "n={n} r={r} lane={l} k={k}: {g:?} != {w:?}"
                        );
                    }
                }
                plan.inverse_rows_unnormalized(&mut quad, &mut scratch);
                for (g, w) in quad.iter().zip(&rows) {
                    let g = g.scale(1.0 / n as f64);
                    assert!((g.re - w.re).abs() < 1e-10 && (g.im - w.im).abs() < 1e-10);
                }
            }
        }
    }

    /// The four rows transformed by `transform4` (`portable`: its portable
    /// build, whatever the CPU), gathered from `rows` and scattered to
    /// fresh rows.
    fn quad_rows(
        plan: &FftPlan,
        rows: &[Vec<Complex>; 4],
        conjugate: bool,
        portable: bool,
    ) -> [Vec<Complex>; 4] {
        let n = plan.len();
        let mut out: [Vec<Complex>; 4] = std::array::from_fn(|_| vec![Complex::ZERO; n]);
        let mut quads = vec![Quad::ZERO; n];
        let src = rows.each_ref().map(|r| r.as_ptr());
        let dst = out.each_mut().map(|r| r.as_mut_ptr());
        // SAFETY: each lane reads its own `n`-element row and writes its
        // own fresh `n`-element row; `quads` has `n` slots.
        unsafe {
            if portable {
                plan.transform4_portable(&mut quads, conjugate, Some((src, 1)), Some((&dst, 1)));
            } else {
                plan.transform4(&mut quads, conjugate, Some((src, 1)), Some((&dst, 1)));
            }
        }
        out
    }

    #[test]
    fn quad_portable_matches_quad_dispatch() {
        let n = 64;
        let plan = FftPlan::new(n);
        let rows: [Vec<Complex>; 4] = std::array::from_fn(|l| signal(n, 1.3 * l as f64));
        for conjugate in [false, true] {
            let portable = quad_rows(&plan, &rows, conjugate, true);
            let dispatch = quad_rows(&plan, &rows, conjugate, false);
            for (g, w) in dispatch.iter().flatten().zip(portable.iter().flatten()) {
                // The FMA build rounds one product fewer.
                assert!(
                    (g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12,
                    "{g:?} != {w:?}"
                );
            }
        }
    }

    #[test]
    fn portable_quad_is_bit_identical_to_single_path() {
        let bits = |z: Complex| (z.re.to_bits(), z.im.to_bits());
        let mut n = 1;
        while n <= 256 {
            let plan = FftPlan::new(n);
            let rows: [Vec<Complex>; 4] = std::array::from_fn(|l| signal(n, 0.7 * l as f64));
            for conjugate in [false, true] {
                let got = quad_rows(&plan, &rows, conjugate, true);
                for (l, (row, got)) in rows.iter().zip(&got).enumerate() {
                    let mut want = row.clone();
                    if conjugate {
                        plan.inverse_unnormalized(&mut want);
                    } else {
                        plan.forward(&mut want);
                    }
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(bits(*g), bits(*w), "n={n} lane={l} k={k}");
                    }
                }
            }
            n *= 2;
        }
    }

    #[test]
    fn linearity() {
        let n = 16;
        let plan = FftPlan::new(n);
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(1.0, -(i as f64))).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fs);
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&fs, &combined, 1e-9);
    }
}
