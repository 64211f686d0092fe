//! Real-input FFT using the standard "pack two reals into one complex"
//! length-halving trick.
//!
//! A length-`n` real signal is transformed with a single length-`n/2` complex
//! FFT plus an O(n) untangling pass, producing the `n/2 + 1` non-redundant
//! Hermitian coefficients.

use crate::complex::Complex;
use crate::plan::FftPlan;

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

    /// Untangles one sequence of a pair-interleaved half-FFT result into its
    /// Hermitian spectrum: reads `z[2k + lane]`, writes `out[0..=half]`.
    fn untangle_lane(&self, z: &[Complex], lane: usize, out: &mut [Complex]) {
        let half = self.n / 2;
        let z0 = z[lane];
        for k in 1..=half / 2 {
            let zk = z[2 * k + lane];
            let zmk = z[2 * (half - k) + lane].conj();
            let (xk, xhk) = untangle_pair(zk, zmk, self.twiddles[k]);
            out[k] = xk;
            // Same write order as the in-place untangle: at k == half/2 both
            // indices coincide and the mirror write wins.
            out[half - k] = xhk;
        }
        out[0] = Complex::new(z0.re + z0.im, 0.0);
        out[half] = Complex::new(z0.re - z0.im, 0.0);
    }

    /// Forward transform of two real rows at once through the
    /// pair-interleaved half-FFT (the SIMD-friendly path used by the
    /// multi-dimensional drivers). `scratch` must hold `n` complex values.
    ///
    /// # Panics
    /// Panics on any buffer length mismatch.
    pub fn forward2_into(
        &self,
        in0: &[f64],
        in1: &[f64],
        out0: &mut [Complex],
        out1: &mut [Complex],
        scratch: &mut [Complex],
    ) {
        let half = self.n / 2;
        assert_eq!(in0.len(), self.n, "buffer length mismatch");
        assert_eq!(in1.len(), self.n, "buffer length mismatch");
        assert_eq!(out0.len(), self.spectrum_len(), "spectrum length mismatch");
        assert_eq!(out1.len(), self.spectrum_len(), "spectrum length mismatch");
        assert_eq!(scratch.len(), self.n, "scratch length mismatch");
        for j in 0..half {
            scratch[2 * j] = Complex::new(in0[2 * j], in0[2 * j + 1]);
            scratch[2 * j + 1] = Complex::new(in1[2 * j], in1[2 * j + 1]);
        }
        self.half_plan.forward2(scratch);
        self.untangle_lane(scratch, 0, out0);
        self.untangle_lane(scratch, 1, out1);
    }

    /// Inverse transform of two Hermitian spectra at once through the
    /// pair-interleaved half-FFT, each scaled by `scale`. `scratch` must
    /// hold `n` complex values.
    ///
    /// # Panics
    /// Panics on any buffer length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn inverse2_into_scaled(
        &self,
        spec0: &[Complex],
        spec1: &[Complex],
        out0: &mut [f64],
        out1: &mut [f64],
        scratch: &mut [Complex],
        scale: f64,
    ) {
        let half = self.n / 2;
        assert_eq!(spec0.len(), self.spectrum_len(), "spectrum length mismatch");
        assert_eq!(spec1.len(), self.spectrum_len(), "spectrum length mismatch");
        assert_eq!(out0.len(), self.n, "buffer length mismatch");
        assert_eq!(out1.len(), self.n, "buffer length mismatch");
        assert_eq!(scratch.len(), self.n, "scratch length mismatch");
        let scale = scale * self.half_norm();
        self.repack_into(spec0, scale, |k, zk| scratch[2 * k] = zk);
        self.repack_into(spec1, scale, |k, zk| scratch[2 * k + 1] = zk);
        self.half_plan.inverse2_unnormalized(scratch);
        for k in 0..half {
            let (z0, z1) = (scratch[2 * k], scratch[2 * k + 1]);
            out0[2 * k] = z0.re;
            out0[2 * k + 1] = z0.im;
            out1[2 * k] = z1.re;
            out1[2 * k + 1] = z1.im;
        }
    }
}

/// The symmetric untangle combination shared by the in-place and lane paths:
/// given `Z[k]` and `conj(Z[h-k])`, returns `(X[k], X[h-k])`.
#[inline]
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
#[inline]
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
    fn pair_real_transform_matches_single() {
        for &n in &[2usize, 4, 8, 32, 128] {
            let plan = RealFft::new(n);
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.59).cos() - 1.5).collect();
            let (sa, sb) = (plan.forward(&a), plan.forward(&b));
            let mut pa = vec![Complex::ZERO; plan.spectrum_len()];
            let mut pb = vec![Complex::ZERO; plan.spectrum_len()];
            let mut scratch = vec![Complex::ZERO; n];
            plan.forward2_into(&a, &b, &mut pa, &mut pb, &mut scratch);
            for k in 0..plan.spectrum_len() {
                assert!(
                    (pa[k].re - sa[k].re).abs() < 1e-10 && (pa[k].im - sa[k].im).abs() < 1e-10,
                    "n={n} k={k} lane0"
                );
                assert!(
                    (pb[k].re - sb[k].re).abs() < 1e-10 && (pb[k].im - sb[k].im).abs() < 1e-10,
                    "n={n} k={k} lane1"
                );
            }
            let mut ra = vec![0.0; n];
            let mut rb = vec![0.0; n];
            plan.inverse2_into_scaled(&pa, &pb, &mut ra, &mut rb, &mut scratch, 1.0);
            for i in 0..n {
                assert!((ra[i] - a[i]).abs() < 1e-10, "n={n} i={i} lane0 roundtrip");
                assert!((rb[i] - b[i]).abs() < 1e-10, "n={n} i={i} lane1 roundtrip");
            }
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

            // Row-pair inverse against the interleaved form of the same.
            let mut want2 = vec![Complex::ZERO; n];
            for k in 0..half {
                want2[2 * k] = repack_one(&plan, &s0, k, scale);
                want2[2 * k + 1] = repack_one(&plan, &s1, k, scale);
            }
            plan.half_plan.inverse2(&mut want2);
            let (mut g0, mut g1) = (vec![0.0; n], vec![0.0; n]);
            let mut scratch = vec![Complex::ZERO; n];
            plan.inverse2_into_scaled(&s0, &s1, &mut g0, &mut g1, &mut scratch, scale);
            for k in 0..half {
                for (lane, g) in [&g0, &g1].into_iter().enumerate() {
                    let w = want2[2 * k + lane];
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
