//! One-dimensional power-of-two FFT plan.
//!
//! The plan precomputes bit-reversal permutation indices and per-stage twiddle
//! factors once, so repeated transforms of the same length (the common case in
//! a pseudo-spectral solver, which transforms thousands of pencils per step)
//! pay no setup cost and perform no allocation.

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
    /// Bit-reversed index for each position (identity-skipping pairs stored
    /// as (i, j) with i < j so the permutation is swap-based).
    swaps: Vec<(u32, u32)>,
    /// Twiddle factors for the forward transform, concatenated per stage:
    /// stage with half-size `m` contributes `m` factors `exp(-i*pi*t/m)`.
    twiddles: Vec<Complex>,
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
        let mut swaps = Vec::new();
        if bits > 0 {
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if i < j {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
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
        FftPlan { n, swaps, twiddles }
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

    #[inline]
    fn permute(&self, data: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
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

    // -- pair-interleaved transforms ------------------------------------
    //
    // Two independent length-n sequences `a` and `b` stored interleaved
    // (`data[2k] = a[k]`, `data[2k+1] = b[k]`, total length `2n`) are
    // transformed together. Each butterfly then operates on a full 256-bit
    // vector (one complex from each sequence), so the AVX2 path keeps all
    // four f64 lanes busy — a lone radix-2 complex butterfly only fills
    // half a register. The multi-dimensional drivers feed row/pencil pairs
    // through these entry points.

    #[inline]
    fn permute2(&self, data: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            let (i, j) = (i as usize, j as usize);
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
    }

    /// Scalar lane-pair butterflies (non-AVX2 fallback). Identical FP
    /// expressions to [`Self::butterflies`], applied per lane.
    fn butterflies2_portable(&self, data: &mut [Complex], conjugate: bool) {
        let n = self.n;
        let mut m = 1;
        let mut toff = 0;
        while m < n {
            let step = m << 1;
            let tw = &self.twiddles[toff..toff + m];
            let mut base = 0;
            while base < n {
                for (t, &twt) in tw.iter().enumerate() {
                    let w = if conjugate { twt.conj() } else { twt };
                    for lane in 0..2 {
                        let lo = 2 * (base + t) + lane;
                        let hi = 2 * (base + t + m) + lane;
                        let a = data[lo];
                        let b = data[hi] * w;
                        data[lo] = a + b;
                        data[hi] = a - b;
                    }
                }
                base += step;
            }
            toff += m;
            m = step;
        }
    }

    /// AVX2+FMA lane-pair butterflies: one 256-bit vector holds the pair
    /// `(a[k], b[k])` as four f64s `[a.re, a.im, b.re, b.im]`. The complex
    /// multiply by the broadcast twiddle `w` uses `fmaddsub` (subtract in
    /// even lanes, add in odd lanes), computing both sequences' butterflies
    /// per instruction. The `t == 0` column (`w == 1`) skips the multiply.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and
    /// `data.len() == 2 * self.n`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn butterflies2_fma(&self, data: &mut [Complex], conjugate: bool) {
        use std::arch::x86_64::*;
        let n = self.n;
        let sign = if conjugate { -1.0 } else { 1.0 };
        // SAFETY (every load and store below): `Complex` is
        // `#[repr(C)] { re: f64, im: f64 }`, so `data` is `4 * n` f64s and
        // the pair at pair-index `i` is the four f64s from offset `4 * i`.
        // Every index used is `base + t` or `base + t + m` with `base` a
        // multiple of `2m` below `n` and `t < m`, hence below `n`, so each
        // unaligned 256-bit access stays inside `data`; `lo != hi`, and
        // `data` is borrowed exclusively.
        let p = data.as_mut_ptr().cast::<f64>();
        let mut m = 1;
        let mut toff = 0;
        while m < n {
            let step = m << 1;
            let tw = &self.twiddles[toff..toff + m];
            let mut base = 0;
            while base < n {
                // t == 0: w == 1, plain add/sub.
                {
                    let lo = p.add(4 * base);
                    let hi = p.add(4 * (base + m));
                    let a = _mm256_loadu_pd(lo);
                    let b = _mm256_loadu_pd(hi);
                    _mm256_storeu_pd(lo, _mm256_add_pd(a, b));
                    _mm256_storeu_pd(hi, _mm256_sub_pd(a, b));
                }
                for (t, w) in tw.iter().enumerate().skip(1) {
                    let wre = _mm256_set1_pd(w.re);
                    let wim = _mm256_set1_pd(w.im * sign);
                    let lo = p.add(4 * (base + t));
                    let hi = p.add(4 * (base + t + m));
                    let a = _mm256_loadu_pd(lo);
                    let b = _mm256_loadu_pd(hi);
                    // [b.im, b.re] per 128-bit half, times w.im, combined
                    // with b*w.re: even lanes re·re − im·im, odd lanes
                    // im·re + re·im — one complex multiply per sequence.
                    let bsw = _mm256_permute_pd::<0b0101>(b);
                    let tprod = _mm256_mul_pd(bsw, wim);
                    let bw = _mm256_fmaddsub_pd(b, wre, tprod);
                    _mm256_storeu_pd(lo, _mm256_add_pd(a, bw));
                    _mm256_storeu_pd(hi, _mm256_sub_pd(a, bw));
                }
                base += step;
            }
            toff += m;
            m = step;
        }
    }

    #[inline]
    fn butterflies2(&self, data: &mut [Complex], conjugate: bool) {
        #[cfg(target_arch = "x86_64")]
        if sickle_simd::fma_available() {
            // SAFETY: `fma_available` just confirmed avx2 + fma, and both
            // callers (`forward2`, `inverse2_unnormalized`) assert
            // `data.len() == 2 * self.n` before calling in.
            unsafe { self.butterflies2_fma(data, conjugate) };
            return;
        }
        self.butterflies2_portable(data, conjugate);
    }

    /// Forward transform of two sequences stored interleaved
    /// (`data[2k]` = sequence 0, `data[2k+1]` = sequence 1).
    ///
    /// # Panics
    /// Panics if `data.len() != 2 * self.len()`.
    pub fn forward2(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), 2 * self.n, "pair buffer length mismatch");
        self.permute2(data);
        self.butterflies2(data, false);
    }

    /// Inverse transform (normalized by `1/n`) of two interleaved sequences.
    ///
    /// # Panics
    /// Panics if `data.len() != 2 * self.len()`.
    pub fn inverse2(&self, data: &mut [Complex]) {
        self.inverse2_unnormalized(data);
        let inv = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Inverse transform **without** normalization of two interleaved
    /// sequences.
    ///
    /// # Panics
    /// Panics if `data.len() != 2 * self.len()`.
    pub fn inverse2_unnormalized(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), 2 * self.n, "pair buffer length mismatch");
        self.permute2(data);
        self.butterflies2(data, true);
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

    #[test]
    fn pair_transform_matches_two_single_transforms() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = FftPlan::new(n);
            let a: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            let b: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.73).cos() - 0.2, (i as f64 * 0.11).sin()))
                .collect();
            let mut fa = a.clone();
            let mut fb = b.clone();
            plan.forward(&mut fa);
            plan.forward(&mut fb);
            let mut pair: Vec<Complex> = (0..2 * n)
                .map(|i| if i % 2 == 0 { a[i / 2] } else { b[i / 2] })
                .collect();
            plan.forward2(&mut pair);
            for k in 0..n {
                for (lane, f) in [(&fa, 0), (&fb, 1)].map(|(f, l)| (l, f)) {
                    let got = pair[2 * k + lane];
                    let want = f[k];
                    assert!(
                        (got.re - want.re).abs() < 1e-10 * n as f64
                            && (got.im - want.im).abs() < 1e-10 * n as f64,
                        "n={n} k={k} lane={lane}: {got:?} != {want:?}"
                    );
                }
            }
            plan.inverse2(&mut pair);
            for k in 0..n {
                let (ga, gb) = (pair[2 * k], pair[2 * k + 1]);
                assert!((ga.re - a[k].re).abs() < 1e-10 && (ga.im - a[k].im).abs() < 1e-10);
                assert!((gb.re - b[k].re).abs() < 1e-10 && (gb.im - b[k].im).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn pair_portable_matches_pair_dispatch() {
        let n = 64;
        let plan = FftPlan::new(n);
        let mut pair: Vec<Complex> = (0..2 * n)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        let mut portable = pair.clone();
        plan.forward2(&mut pair);
        plan.permute2(&mut portable);
        plan.butterflies2_portable(&mut portable, false);
        for (g, w) in pair.iter().zip(&portable) {
            assert!(
                (g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12,
                "{g:?} != {w:?}"
            );
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
