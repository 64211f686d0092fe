//! # sickle-fft
//!
//! A small, dependency-light FFT library supporting power-of-two complex and
//! real transforms in one and three dimensions, with rayon-parallel 3D
//! transforms.
//!
//! Under [`sickle_simd::Kernel::Optimized`] the 3D transforms run their rows
//! and pencils four at a time through the quad kernel: the four sequences
//! share one buffer of [`Quad`] slots, the bit-reversal permutation rides in
//! the gather, and the AVX2+FMA butterflies take two radix-2 stages per pass
//! (see the `plan` module). Each lane gets exactly the operations of the
//! stage-by-stage radix-2 loop, so a sequence's bits do not depend on what
//! the other lanes hold.
//!
//! This crate exists because the paper's 3D turbulence substrates (SST and
//! GESTS) are produced by Fourier pseudo-spectral solvers; re-implementing the
//! transform from scratch keeps the reproduction self-contained.
//!
//! ## Example
//!
//! ```
//! use sickle_fft::{Complex, FftPlan};
//!
//! let plan = FftPlan::new(8);
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let orig = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! for (a, b) in data.iter().zip(orig.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

mod complex;
mod nd;
mod plan;
mod real;
mod realnd;

pub use complex::Complex;
pub use nd::Fft3d;
pub use plan::{FftPlan, Quad};
pub use real::RealFft;
pub use realnd::{MapPass, RealFft3d};

/// Returns `true` if `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Analytic flop estimate for one length-`n` complex FFT: the standard
/// `5 n log2 n` radix-2 count (per butterfly: one complex multiply = 6 flops
/// and two complex adds = 4 flops, over `n/2 · log2 n` butterflies).
pub fn fft_flops(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    5 * n as u64 * n.trailing_zeros() as u64
}

/// Analytic flop estimate for one length-`n` real-to-complex (or
/// complex-to-real) FFT: a half-length complex FFT plus the O(n) untangle
/// pass (~14 flops per conjugate bin pair).
pub fn rfft_flops(n: usize) -> u64 {
    fft_flops(n / 2) + 7 * n as u64 / 2
}

/// Analytic flop estimate for one 3D real-to-complex transform of shape
/// `(nx, ny, nz)`: `nx·ny` real rows plus the strided complex passes over
/// the `nzc = nz/2 + 1` half-spectrum.
pub fn rfft3d_flops(nx: usize, ny: usize, nz: usize) -> u64 {
    let nzc = (nz / 2 + 1) as u64;
    (nx * ny) as u64 * rfft_flops(nz)
        + nx as u64 * nzc * fft_flops(ny)
        + ny as u64 * nzc * fft_flops(nx)
}

/// Naive O(n^2) discrete Fourier transform, used as a reference in tests and
/// for tiny transforms where plan setup is not worthwhile.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += x * Complex::new(ang.cos(), ang.sin());
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1000));
    }

    #[test]
    fn naive_dft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        let y = dft_naive(&x);
        for v in y {
            assert!((v.re - 1.0).abs() < 1e-12);
            assert!(v.im.abs() < 1e-12);
        }
    }
}
