//! Real-input FFT using the standard "pack two reals into one complex"
//! length-halving trick.
//!
//! A length-`n` real signal is transformed with a single length-`n/2` complex
//! FFT plus an O(n) untangling pass, producing the `n/2 + 1` non-redundant
//! Hermitian coefficients.
//!
//! The multi-dimensional drivers transform rows four at a time
//! ([`RealFft::forward_rows_into`], [`RealFft::inverse_rows_into_scaled`]):
//! the half-length sub-FFTs run as the lanes of one quad (see the `plan`
//! module), and the untangle and repack run over the four lanes with the
//! single-row formulas' mul/add/sub sequence — under AVX2 four lanes per
//! instruction, never contracted into FMA — so each row keeps its bits.

use crate::complex::Complex;
#[cfg(target_arch = "x86_64")]
use crate::plan::avx;
use crate::plan::{FftPlan, Quad};

/// Plan for forward/inverse real FFTs of fixed even power-of-two length.
#[derive(Clone, Debug)]
pub struct RealFft {
    n: usize,
    half_plan: FftPlan,
    /// Twiddles `exp(-i*pi*k/ (n/2))` for the untangling pass, k = 0..n/4+1.
    twiddles: Vec<Complex>,
}

impl RealFft {
    /// Creates a real-FFT plan of length `n` (power of two, `n >= 2`).
    ///
    /// # Panics
    /// Panics if `n < 2` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && crate::is_power_of_two(n),
            "real FFT length {n} must be a power of two >= 2"
        );
        let half = n / 2;
        let twiddles = (0..=half / 2)
            .map(|k| Complex::from_polar_unit(-std::f64::consts::PI * k as f64 / half as f64))
            .collect();
        RealFft {
            n,
            half_plan: FftPlan::new(half),
            twiddles,
        }
    }

    /// Transform length (number of real input samples).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; present for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of complex output coefficients (`n/2 + 1`).
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward transform: `input` has `n` reals, returns `n/2 + 1` complex
    /// coefficients `X[0..=n/2]` (DC and Nyquist bins are purely real).
    ///
    /// # Panics
    /// Panics on input length mismatch.
    pub fn forward(&self, input: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.spectrum_len()];
        self.forward_into(input, &mut out);
        out
    }

    /// Zero-allocation forward transform into a caller-provided buffer of
    /// `n/2 + 1` coefficients. The length-`n/2` complex sub-FFT runs in place
    /// inside `out`, so no scratch is needed.
    ///
    /// # Panics
    /// Panics if `input.len() != n` or `out.len() != n/2 + 1`.
    pub fn forward_into(&self, input: &[f64], out: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "buffer length mismatch");
        assert_eq!(out.len(), self.spectrum_len(), "spectrum length mismatch");
        let half = self.n / 2;
        // Pack even samples into re, odd into im, directly in `out[..half]`.
        for (j, slot) in out[..half].iter_mut().enumerate() {
            *slot = Complex::new(input[2 * j], input[2 * j + 1]);
        }
        self.half_plan.forward(&mut out[..half]);

        // Untangle in place: with E[k], O[k] the FFTs of even/odd
        // subsequences,
        //   Z[k]        = E[k] + i O[k]
        //   conj(Z[h-k]) = E[k] - i O[k]
        // so E and O are recovered by symmetric combinations, and
        //   X[k] = E[k] + w^k O[k],  w = exp(-2 pi i / n).
        // Each iteration reads and writes only slots {k, half-k}, so reading
        // both before writing keeps the in-place update exact.
        let z0 = out[0];
        for k in 1..=half / 2 {
            let zk = out[k];
            let zmk = out[half - k].conj();
            let (xk, xhk) = untangle_pair(zk, zmk, self.twiddles[k]);
            out[k] = xk;
            out[half - k] = xhk;
        }
        // DC and Nyquist from the k = 0 combination directly (purely real).
        out[0] = Complex::new(z0.re + z0.im, 0.0);
        out[half] = Complex::new(z0.re - z0.im, 0.0);
    }

    /// Inverse transform from `n/2 + 1` Hermitian coefficients back to `n`
    /// real samples (normalized; `inverse(forward(x)) == x`).
    ///
    /// # Panics
    /// Panics on spectrum length mismatch.
    pub fn inverse(&self, spectrum: &[Complex]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.inverse_into(spectrum, &mut out);
        out
    }

    /// Zero-allocation inverse transform into a caller-provided buffer of `n`
    /// reals. The length-`n/2` complex sub-FFT runs inside `out` reinterpreted
    /// as complex pairs, so no scratch is needed.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != n/2 + 1` or `out.len() != n`.
    pub fn inverse_into(&self, spectrum: &[Complex], out: &mut [f64]) {
        self.inverse_into_scaled(spectrum, out, 1.0);
    }

    /// Like [`RealFft::inverse_into`] but multiplies the result by `scale`,
    /// letting multi-dimensional wrappers fold their per-axis normalization
    /// into the repack pass for free.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != n/2 + 1` or `out.len() != n`.
    pub fn inverse_into_scaled(&self, spectrum: &[Complex], out: &mut [f64], scale: f64) {
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "spectrum length mismatch"
        );
        assert_eq!(out.len(), self.n, "buffer length mismatch");
        let half = self.n / 2;
        // SAFETY: `out.len() == n == 2 * half` was asserted above, so the
        // `half` (re, im) pairs cover exactly `out`'s own `n` f64s, which
        // `out` borrows exclusively for as long as `z` lives; `Complex` is
        // `repr(C) { re: f64, im: f64 }` with the size of two f64s and the
        // alignment of one, so every pair is a valid, aligned `Complex`.
        // Viewed this way `out` is the packed buffer the sub-FFT needs, and
        // unpacking its result back to interleaved reals is a no-op.
        let z: &mut [Complex] =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<Complex>(), half) };
        let scale = scale * self.half_norm();
        self.repack_into(spectrum, scale, |k, zk| z[k] = zk);
        self.half_plan.inverse_unnormalized(z);
    }

    /// The half-length sub-FFT's `1/(n/2)` normalization, which the inverse
    /// paths fold into the repack scale instead of sweeping the buffer again.
    /// `n/2` is a power of two, so the factor commutes exactly with every
    /// rounding of the transform: same bits as scaling afterwards (short of
    /// underflow).
    #[inline]
    fn half_norm(&self) -> f64 {
        1.0 / (self.n / 2) as f64
    }

    /// The inverse pre-pass: hands `put` every packed sample `Z[k]`,
    /// `k < n/2`, of the half-length sequence whose inverse FFT interleaves
    /// the real output, each scaled by `scale`. Mirror samples `k` and
    /// `n/2 - k` come out of one [`repack_pair`].
    #[inline]
    fn repack_into(&self, spectrum: &[Complex], scale: f64, mut put: impl FnMut(usize, Complex)) {
        let half = self.n / 2;
        let tw = &self.twiddles;
        put(0, repack_pair(spectrum[0], spectrum[half], tw[0], scale).0);
        for k in 1..half / 2 {
            let (zk, zhk) = repack_pair(spectrum[k], spectrum[half - k], tw[k], scale);
            put(k, zk);
            put(half - k, zhk);
        }
        if half >= 2 {
            // The self-mirrored sample.
            let q = half / 2;
            put(q, repack_pair(spectrum[q], spectrum[q], tw[q], scale).0);
        }
    }

    /// Forward transforms of the one to four real rows that `input` holds
    /// back to back, run as the lanes of one quad through the half-length
    /// sub-FFT (see [`FftPlan`]'s module docs), into the matching
    /// half-spectrum rows of `out`. `scratch` must hold `n/2` quads.
    ///
    /// # Panics
    /// Panics unless `input` holds one to four whole rows, `out` as many
    /// spectra and `scratch.len() == n/2`.
    pub fn forward_rows_into(&self, input: &[f64], out: &mut [Complex], scratch: &mut [Quad]) {
        let (n, nc) = (self.n, self.spectrum_len());
        let r = input.len() / n;
        assert!(
            (1..=4).contains(&r) && input.len() == r * n,
            "input must hold one to four length-{n} rows"
        );
        assert_eq!(out.len(), r * nc, "spectrum length mismatch");
        assert_eq!(scratch.len(), n / 2, "scratch length mismatch");
        // Lane `l` packs row `min(l, r - 1)` as `n/2` complex samples
        // (even samples real, odd imaginary).
        let lanes: [*const Complex; 4] =
            std::array::from_fn(|l| input[l.min(r - 1) * n..].as_ptr().cast::<Complex>());
        // SAFETY: each lane's `n/2` samples are the `n` f64s of one row of
        // `input`, which is only read; `Complex` is `repr(C) { re: f64, im:
        // f64 }` with the alignment of one f64, so every pair is a valid
        // `Complex`.
        unsafe {
            self.half_plan
                .transform4(scratch, false, Some((lanes, 1)), None)
        };
        self.untangle4(scratch, out);
    }

    /// [`Self::untangle4_body`], in its AVX2 build when the CPU has it.
    ///
    /// # Panics
    /// Panics unless `z` holds `n/2` slots and `out` one to four spectra.
    #[inline]
    fn untangle4(&self, z: &[Quad], out: &mut [Complex]) {
        let nc = self.spectrum_len();
        assert_eq!(z.len(), self.n / 2, "quad buffer length mismatch");
        assert!(
            (1..=4).contains(&(out.len() / nc)) && out.len().is_multiple_of(nc),
            "out must hold one to four spectra"
        );
        #[cfg(target_arch = "x86_64")]
        if sickle_simd::fma_available() {
            // SAFETY: `fma_available` just confirmed avx2 + fma, and the
            // lengths were asserted above.
            unsafe { self.untangle4_avx2(z, out) };
            return;
        }
        self.untangle4_body(z, out);
    }

    /// [`Self::untangle4_body`] on 256-bit vectors, four lanes per
    /// instruction: [`untangle_pair`]'s operations in its order, none fused
    /// (a negation is a sign flip either way), so the same bits.
    ///
    /// # Safety
    /// The CPU must support `avx2`, and the lengths must be as
    /// [`Self::untangle4`] asserts.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn untangle4_avx2(&self, z: &[Quad], out: &mut [Complex]) {
        use std::arch::x86_64::*;
        let (half, nc) = (self.n / 2, self.spectrum_len());
        let r = out.len() / nc;
        let p = out.as_mut_ptr();
        let rows: [*mut Complex; 4] = std::array::from_fn(|l| p.wrapping_add(l * nc));
        let rows = &rows[..r];
        let q = z.as_ptr().cast::<f64>();
        let neg = |v: __m256d| _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
        let (half_v, minus_one) = (_mm256_set1_pd(0.5), _mm256_set1_pd(-1.0));
        for k in 1..=half / 2 {
            // SAFETY: `k` and `half - k` are slots of `z` (`half` of them).
            let ((zre, zim), (hre, him)) = (avx::load_slot(q, k), avx::load_slot(q, half - k));
            let w = self.twiddles[k];
            let (wre, wim) = (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im));
            // zmk = conj(Z[h - k]).
            let (mre, mim) = (hre, neg(him));
            let ere = _mm256_mul_pd(_mm256_add_pd(zre, mre), half_v);
            let eim = _mm256_mul_pd(_mm256_add_pd(zim, mim), half_v);
            let sre = _mm256_mul_pd(_mm256_sub_pd(zre, mre), half_v);
            let sim = _mm256_mul_pd(_mm256_sub_pd(zim, mim), half_v);
            // o = (i s)·(−1).
            let ore = _mm256_mul_pd(neg(sim), minus_one);
            let oim = _mm256_mul_pd(sre, minus_one);
            // x = e + w o.
            let xre = _mm256_add_pd(
                ere,
                _mm256_sub_pd(_mm256_mul_pd(wre, ore), _mm256_mul_pd(wim, oim)),
            );
            let xim = _mm256_add_pd(
                eim,
                _mm256_add_pd(_mm256_mul_pd(wre, oim), _mm256_mul_pd(wim, ore)),
            );
            // X[h - k] = conj(e) + w2 conj(o), w2 = (−w.re, w.im).
            let (w2re, ocim, ecim) = (neg(wre), neg(oim), neg(eim));
            let hre = _mm256_add_pd(
                ere,
                _mm256_sub_pd(_mm256_mul_pd(w2re, ore), _mm256_mul_pd(wim, ocim)),
            );
            let him = _mm256_add_pd(
                ecim,
                _mm256_add_pd(_mm256_mul_pd(w2re, ocim), _mm256_mul_pd(wim, ore)),
            );
            // SAFETY: each row of `out` has `nc` coefficients, `k` and
            // `half - k` among them; at `k == half / 2` the two coincide and
            // the mirror, stored second, wins as in the scalar loop.
            avx::store_lanes(rows, k, (xre, xim));
            avx::store_lanes(rows, half - k, (hre, him));
        }
        let z0 = z[0];
        for (l, row) in out.chunks_exact_mut(nc).enumerate() {
            row[0] = Complex::new(z0.re[l] + z0.im[l], 0.0);
            row[half] = Complex::new(z0.re[l] - z0.im[l], 0.0);
        }
    }

    /// The in-place untangle of [`Self::forward_into`] on every lane of a
    /// quad half-FFT result `z`, into the `out.len() / (n/2 + 1)` spectra of
    /// `out`: the same [`untangle_pair`] per lane, in the same write order.
    #[inline(always)]
    fn untangle4_body(&self, z: &[Quad], out: &mut [Complex]) {
        let (half, nc) = (self.n / 2, self.spectrum_len());
        for k in 1..=half / 2 {
            let (zk, zh, w) = (&z[k], &z[half - k], self.twiddles[k]);
            let (mut x, mut xh) = (Quad::ZERO, Quad::ZERO);
            for l in 0..4 {
                let (a, b) = untangle_pair(zk.lane(l), zh.lane(l).conj(), w);
                x.set_lane(l, a);
                xh.set_lane(l, b);
            }
            for (l, row) in out.chunks_exact_mut(nc).enumerate() {
                row[k] = x.lane(l);
                row[half - k] = xh.lane(l);
            }
        }
        let z0 = z[0];
        for (l, row) in out.chunks_exact_mut(nc).enumerate() {
            row[0] = Complex::new(z0.re[l] + z0.im[l], 0.0);
            row[half] = Complex::new(z0.re[l] - z0.im[l], 0.0);
        }
    }

    /// Inverse transforms of the one to four Hermitian spectra that `spec`
    /// holds back to back, run as the lanes of one quad, into the matching
    /// real rows of `out`, each scaled by `scale`. `scratch` must hold `n/2`
    /// quads.
    ///
    /// # Panics
    /// Panics unless `spec` holds one to four whole spectra, `out` as many
    /// rows and `scratch.len() == n/2`.
    pub fn inverse_rows_into_scaled(
        &self,
        spec: &[Complex],
        out: &mut [f64],
        scratch: &mut [Quad],
        scale: f64,
    ) {
        let (n, nc) = (self.n, self.spectrum_len());
        let r = spec.len() / nc;
        assert!(
            (1..=4).contains(&r) && spec.len() == r * nc,
            "spectrum must hold one to four length-{nc} spectra"
        );
        assert_eq!(out.len(), r * n, "buffer length mismatch");
        assert_eq!(scratch.len(), n / 2, "scratch length mismatch");
        let lanes: [&[Complex]; 4] = std::array::from_fn(|l| &spec[l.min(r - 1) * nc..][..nc]);
        self.repack4(lanes, scale * self.half_norm(), scratch);
        let p = out.as_mut_ptr();
        // SAFETY: `scratch` holds the repacked samples in bit-reversed
        // order; each of the `r` rows of `out` receives its lane as `n/2`
        // (re, im) pairs, its own `n` f64s, and `out` is borrowed
        // exclusively and apart from `scratch`.
        unsafe {
            let rows: [*mut Complex; 4] = std::array::from_fn(|l| p.add(l * n).cast());
            self.half_plan
                .transform4(scratch, true, None, Some((&rows[..r], 1)));
        }
    }

    /// [`Self::repack4_body`], in its AVX2 build when the CPU has it.
    ///
    /// # Panics
    /// Panics unless every spectrum holds `n/2 + 1` coefficients and `z`
    /// `n/2` slots.
    #[inline]
    fn repack4(&self, spec: [&[Complex]; 4], scale: f64, z: &mut [Quad]) {
        assert!(
            spec.iter().all(|s| s.len() == self.spectrum_len()),
            "spectrum length mismatch"
        );
        assert_eq!(z.len(), self.n / 2, "quad buffer length mismatch");
        #[cfg(target_arch = "x86_64")]
        if sickle_simd::fma_available() {
            // SAFETY: `fma_available` just confirmed avx2 + fma, and the
            // lengths were asserted above.
            unsafe { self.repack4_avx2(spec, scale, z) };
            return;
        }
        self.repack4_body(spec, scale, z);
    }

    /// [`Self::repack4_body`] on 256-bit vectors, four lanes per
    /// instruction: [`repack_pair`]'s operations in its order, none fused,
    /// so the same bits.
    ///
    /// # Safety
    /// The CPU must support `avx2`, and the lengths must be as
    /// [`Self::repack4`] asserts.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn repack4_avx2(&self, spec: [&[Complex]; 4], scale: f64, z: &mut [Quad]) {
        use std::arch::x86_64::*;
        let half = self.n / 2;
        let src = spec.map(|s| s.as_ptr());
        let q = z.as_mut_ptr().cast::<f64>();
        let neg = |v: __m256d| _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
        let (half_v, scale_v) = (_mm256_set1_pd(0.5), _mm256_set1_pd(scale));
        // Both packed samples of `repack_pair(X[k], X[j], w[k], scale)`.
        let pair = |k: usize, j: usize| -> (avx::V, avx::V) {
            // SAFETY: `k, j <= half`, inside every spectrum of `spec`.
            let ((xre, xim), (yre, yim)) = (avx::load_lanes(src, k), avx::load_lanes(src, j));
            // xmk = conj(X[j]).
            let (mre, mim) = (yre, neg(yim));
            let ere = _mm256_mul_pd(_mm256_add_pd(xre, mre), half_v);
            let eim = _mm256_mul_pd(_mm256_add_pd(xim, mim), half_v);
            let dre = _mm256_mul_pd(_mm256_sub_pd(xre, mre), half_v);
            let dim = _mm256_mul_pd(_mm256_sub_pd(xim, mim), half_v);
            // o = conj(w) d.
            let w = self.twiddles[k];
            let (wre, wim) = (_mm256_set1_pd(w.re), neg(_mm256_set1_pd(w.im)));
            let ore = _mm256_sub_pd(_mm256_mul_pd(wre, dre), _mm256_mul_pd(wim, dim));
            let oim = _mm256_add_pd(_mm256_mul_pd(wre, dim), _mm256_mul_pd(wim, dre));
            (
                (
                    _mm256_mul_pd(_mm256_sub_pd(ere, oim), scale_v),
                    _mm256_mul_pd(_mm256_add_pd(eim, ore), scale_v),
                ),
                (
                    _mm256_mul_pd(_mm256_add_pd(ere, oim), scale_v),
                    _mm256_mul_pd(_mm256_sub_pd(ore, eim), scale_v),
                ),
            )
        };
        let slot = |k: usize| self.half_plan.rev(k);
        // SAFETY (the stores): every `slot(k)` is below `half`, a slot of `z`.
        avx::store_slot(q, slot(0), pair(0, half).0);
        for k in 1..half / 2 {
            let (a, b) = pair(k, half - k);
            avx::store_slot(q, slot(k), a);
            avx::store_slot(q, slot(half - k), b);
        }
        if half >= 2 {
            // The self-mirrored sample.
            let h2 = half / 2;
            avx::store_slot(q, slot(h2), pair(h2, h2).0);
        }
    }

    /// [`Self::repack_into`] on four spectra at once: lane `l` of slot
    /// `rev(k)` of `z` receives sample `Z[k]` of spectrum `l`, so the
    /// sub-FFT's bit reversal is done as the samples land.
    #[inline(always)]
    fn repack4_body(&self, spec: [&[Complex]; 4], scale: f64, z: &mut [Quad]) {
        let half = self.n / 2;
        let tw = &self.twiddles;
        let slot = |k: usize| self.half_plan.rev(k);
        let mut q = Quad::ZERO;
        for (l, s) in spec.iter().enumerate() {
            q.set_lane(l, repack_pair(s[0], s[half], tw[0], scale).0);
        }
        z[slot(0)] = q;
        for k in 1..half / 2 {
            let (mut qk, mut qh) = (Quad::ZERO, Quad::ZERO);
            for (l, s) in spec.iter().enumerate() {
                let (a, b) = repack_pair(s[k], s[half - k], tw[k], scale);
                qk.set_lane(l, a);
                qh.set_lane(l, b);
            }
            z[slot(k)] = qk;
            z[slot(half - k)] = qh;
        }
        if half >= 2 {
            // The self-mirrored sample.
            let h2 = half / 2;
            for (l, s) in spec.iter().enumerate() {
                q.set_lane(l, repack_pair(s[h2], s[h2], tw[h2], scale).0);
            }
            z[slot(h2)] = q;
        }
    }
}

/// The symmetric untangle combination shared by the in-place and lane paths:
/// given `Z[k]` and `conj(Z[h-k])`, returns `(X[k], X[h-k])`.
#[inline(always)]
fn untangle_pair(zk: Complex, zmk: Complex, w: Complex) -> (Complex, Complex) {
    let e = (zk + zmk).scale(0.5);
    let o = (zk - zmk).scale(0.5).mul_i().scale(-1.0); // -i*(..)/1 => O[k]
    let x = e + w * o;
    // Mirror bin: X[h - k] = E[k].conj-symmetric partner.
    let w2 = Complex::new(-w.re, w.im); // exp(-i*pi*(half-k)/half) = -conj(w)
    (x, e.conj() + w2 * o.conj())
}

/// The packed samples `(Z[k], Z[h-k])` of the inverse pre-pass, `h = n/2`,
/// from the mirror bins `X[k]`, `X[h-k]` and `w = exp(-i*pi*k/h)`, each scaled
/// by `scale`. With `E`, `O` the spectra of the even and odd output samples,
///   E[k] = (X[k] + conj(X[h-k]))/2,  O[k] = w^-1 (X[k] - conj(X[h-k]))/2,
///   Z[k] = E[k] + i O[k],            Z[h-k] = conj(E[k]) + i conj(O[k]),
/// the second because `E` and `O` transform real sequences of period `h`.
/// Evaluating the per-sample formula at `h - k` gives the very sums and
/// products formed here (its twiddle is `-conj(w)`, its difference
/// `-conj(X[k] - conj(X[h-k]))`; the signs cancel exactly), so sharing `E`
/// and `O` changes no bit of either sample — at most the sign of a zero,
/// where a sum cancels exactly. For `k = 0` pass `X[h]` as the mirror, for
/// `k = h/2` the bin itself; only the first result is meaningful then.
#[inline(always)]
fn repack_pair(xk: Complex, xhk: Complex, w: Complex, scale: f64) -> (Complex, Complex) {
    let xmk = xhk.conj();
    let e = (xk + xmk).scale(0.5);
    let o = w.conj() * (xk - xmk).scale(0.5);
    (
        Complex::new(e.re - o.im, e.im + o.re).scale(scale),
        Complex::new(e.re + o.im, o.re - e.im).scale(scale),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;

    #[test]
    fn forward_matches_full_complex_dft() {
        for &n in &[4usize, 8, 16, 64] {
            let input: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() + 0.2 * i as f64)
                .collect();
            let as_complex: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let expected = dft_naive(&as_complex);
            let got = RealFft::new(n).forward(&input);
            for k in 0..=n / 2 {
                assert!(
                    (got[k].re - expected[k].re).abs() < 1e-8,
                    "n={n} k={k}: {:?} vs {:?}",
                    got[k],
                    expected[k]
                );
                assert!((got[k].im - expected[k].im).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 128;
        let plan = RealFft::new(n);
        let input: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let back = plan.inverse(&plan.forward(&input));
        for (a, b) in input.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn quad_real_transform_matches_single() {
        for &n in &[2usize, 4, 8, 32, 128] {
            let plan = RealFft::new(n);
            let nc = plan.spectrum_len();
            for r in 1..=4 {
                let input: Vec<f64> = (0..r * n)
                    .map(|i| (i as f64 * 0.37).sin() + 0.2 * (i / n) as f64 - 1.5)
                    .collect();
                let mut spec = vec![Complex::ZERO; r * nc];
                let mut scratch = vec![Quad::ZERO; n / 2];
                plan.forward_rows_into(&input, &mut spec, &mut scratch);
                for (l, (got, row)) in spec.chunks(nc).zip(input.chunks(n)).enumerate() {
                    for (k, (g, w)) in got.iter().zip(plan.forward(row)).enumerate() {
                        assert!(
                            (g.re - w.re).abs() < 1e-10 && (g.im - w.im).abs() < 1e-10,
                            "n={n} r={r} lane={l} k={k}"
                        );
                    }
                }
                let mut back = vec![0.0; r * n];
                plan.inverse_rows_into_scaled(&spec, &mut back, &mut scratch, 1.0);
                for (i, (b, a)) in back.iter().zip(&input).enumerate() {
                    assert!((b - a).abs() < 1e-10, "n={n} r={r} i={i} roundtrip");
                }
            }
        }
    }

    #[test]
    fn quad_untangle_and_repack_builds_agree_bit_for_bit() {
        let bits = |z: Complex| (z.re.to_bits(), z.im.to_bits());
        let mut n = 2;
        while n <= 256 {
            let plan = RealFft::new(n);
            let (half, nc) = (n / 2, plan.spectrum_len());
            let quads: Vec<Quad> = (0..half)
                .map(|k| Quad {
                    re: std::array::from_fn(|l| ((k * 4 + l) as f64 * 0.731).sin() * 3.0),
                    im: std::array::from_fn(|l| ((k * 4 + l) as f64 * 1.93).cos() - 0.4),
                })
                .collect();
            let (mut dispatch, mut portable) =
                (vec![Complex::ZERO; 4 * nc], vec![Complex::ZERO; 4 * nc]);
            plan.untangle4(&quads, &mut dispatch);
            plan.untangle4_body(&quads, &mut portable);
            for (k, (g, w)) in dispatch.iter().zip(&portable).enumerate() {
                assert_eq!(bits(*g), bits(*w), "untangle n={n} at {k}");
            }
            let spec: Vec<Vec<Complex>> = (0..4)
                .map(|l| {
                    (0..nc)
                        .map(|k| {
                            let t = (k * 4 + l) as f64;
                            Complex::new((t * 0.731).sin() * 3.0, (t * 1.93).cos() - 0.4)
                        })
                        .collect()
                })
                .collect();
            let lanes: [&[Complex]; 4] = std::array::from_fn(|l| spec[l].as_slice());
            let (mut dispatch, mut portable) = (vec![Quad::ZERO; half], vec![Quad::ZERO; half]);
            plan.repack4(lanes, 0.3, &mut dispatch);
            plan.repack4_body(lanes, 0.3, &mut portable);
            for (k, (g, w)) in dispatch.iter().zip(&portable).enumerate() {
                for l in 0..4 {
                    assert_eq!(bits(g.lane(l)), bits(w.lane(l)), "repack n={n} slot {k}");
                }
            }
            n *= 2;
        }
    }

    /// The per-sample repack the joint one replaced: `Z[k]` from `X[k]` and
    /// `X[h-k]` alone, with the twiddle looked up on whichever side of `h/2`
    /// `k` falls.
    fn repack_one(plan: &RealFft, spectrum: &[Complex], k: usize, scale: f64) -> Complex {
        let half = plan.n / 2;
        let xk = spectrum[k];
        let xmk = spectrum[half - k].conj();
        let e = (xk + xmk).scale(0.5);
        let winv = if k <= half / 2 {
            plan.twiddles[k].conj()
        } else {
            let w = plan.twiddles[half - k];
            Complex::new(-w.re, -w.im)
        };
        let o = winv * (xk - xmk).scale(0.5);
        (e + o.mul_i()).scale(scale)
    }

    #[test]
    fn joint_repack_is_bit_identical_to_per_sample_formula() {
        let bits = |z: Complex| (z.re.to_bits(), z.im.to_bits());
        let scale = 0.3; // not a power of two: the folded 1/(n/2) must still commute
        let mut n = 2;
        while n <= 256 {
            let plan = RealFft::new(n);
            let half = n / 2;
            let spec = |seed: f64| -> Vec<Complex> {
                (0..=half)
                    .map(|k| {
                        let t = k as f64 + seed;
                        Complex::new((t * 0.731).sin() * 3.0, (t * 1.93).cos() - 0.4)
                    })
                    .collect()
            };
            let (s0, s1) = (spec(0.3), spec(7.7));

            // The repack itself, sample by sample.
            let mut joint = vec![Complex::ZERO; half];
            plan.repack_into(&s0, scale, |k, z| joint[k] = z);
            for (k, z) in joint.iter().enumerate() {
                assert_eq!(
                    bits(*z),
                    bits(repack_one(&plan, &s0, k, scale)),
                    "n={n} k={k}"
                );
            }

            // Single-row inverse against repack, then the normalized sub-FFT.
            let mut want: Vec<Complex> = (0..half)
                .map(|k| repack_one(&plan, &s0, k, scale))
                .collect();
            plan.half_plan.inverse(&mut want);
            let mut got = vec![0.0; n];
            plan.inverse_into_scaled(&s0, &mut got, scale);
            for k in 0..half {
                assert_eq!(got[2 * k].to_bits(), want[k].re.to_bits(), "n={n} k={k}");
                assert_eq!(
                    got[2 * k + 1].to_bits(),
                    want[k].im.to_bits(),
                    "n={n} k={k}"
                );
            }

            // Quad inverse against the bit-reversed form of the same, run
            // through the quad butterflies and normalized afterwards, lane
            // by lane.
            let mut want4: Vec<Quad> = vec![Quad::ZERO; half];
            for k in 0..half {
                let slot = plan.half_plan.rev(k);
                want4[slot].set_lane(0, repack_one(&plan, &s0, k, scale));
                want4[slot].set_lane(1, repack_one(&plan, &s1, k, scale));
                want4[slot].set_lane(2, repack_one(&plan, &s1, k, scale));
                want4[slot].set_lane(3, repack_one(&plan, &s1, k, scale));
            }
            // SAFETY: `want4` holds the samples in bit-reversed order; no
            // sequence memory is named.
            unsafe { plan.half_plan.transform4(&mut want4, true, None, None) };
            let pair: Vec<Complex> = s0.iter().chain(&s1).copied().collect();
            let mut got2 = vec![0.0; 2 * n];
            let mut scratch = vec![Quad::ZERO; half];
            plan.inverse_rows_into_scaled(&pair, &mut got2, &mut scratch, scale);
            for k in 0..half {
                for (lane, g) in got2.chunks(n).enumerate() {
                    let w = want4[k].lane(lane).scale(1.0 / half as f64);
                    assert_eq!(
                        g[2 * k].to_bits(),
                        w.re.to_bits(),
                        "n={n} k={k} lane={lane}"
                    );
                    assert_eq!(
                        g[2 * k + 1].to_bits(),
                        w.im.to_bits(),
                        "n={n} k={k} lane={lane}"
                    );
                }
            }
            n *= 2;
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 32;
        let input: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 3.0 + 1.0).collect();
        let spec = RealFft::new(n).forward(&input);
        assert!(spec[0].im.abs() < 1e-12);
        assert!(spec[n / 2].im.abs() < 1e-12);
        let mean: f64 = input.iter().sum::<f64>();
        assert!((spec[0].re - mean).abs() < 1e-9);
    }
}
