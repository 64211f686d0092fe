//! Optimized-vs-naive agreement for the FFT kernel family, across the full
//! stack the dataset generators use: 1D complex plans against the O(n²)
//! serial DFT reference, and the 3D complex and real transforms under
//! both sides of the [`sickle_simd::Kernel`] switch.
//!
//! The pair-interleaved AVX2 butterflies use FMA, so they are allowed to
//! differ from the portable path at rounding level; the contract pinned here
//! is ≤ 1e-10 against the serial reference and ≤ 1e-10 roundtrips.

use sickle_fft::{dft_naive, Complex, Fft3d, FftPlan, RealFft3d};
use sickle_simd::Kernel;

/// Deterministic quasi-random signal (no rand dev-dependency needed).
fn signal(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.7310 + seed).sin() * 3.0 + (i as f64 * 1.93).cos())
        .collect()
}

fn complex_signal(n: usize, seed: f64) -> Vec<Complex> {
    let re = signal(n, seed);
    let im = signal(n, seed + 11.0);
    re.into_iter()
        .zip(im)
        .map(|(r, i)| Complex::new(r, i))
        .collect()
}

#[test]
fn pair_butterflies_match_serial_dft_reference() {
    for &n in &[2usize, 4, 8, 64, 256] {
        let plan = FftPlan::new(n);
        let a = complex_signal(n, 0.3);
        let b = complex_signal(n, 7.7);
        let expected_a = dft_naive(&a);
        let expected_b = dft_naive(&b);
        // Interleave into the pair layout and run the vectorized pair kernel.
        let mut pair = vec![Complex::ZERO; 2 * n];
        for k in 0..n {
            pair[2 * k] = a[k];
            pair[2 * k + 1] = b[k];
        }
        plan.forward2(&mut pair);
        for k in 0..n {
            for (lane, exp) in [(0, &expected_a[k]), (1, &expected_b[k])] {
                let got = pair[2 * k + lane];
                assert!(
                    (got.re - exp.re).abs() < 1e-10 && (got.im - exp.im).abs() < 1e-10,
                    "n={n} k={k} lane={lane}: {got:?} vs {exp:?}"
                );
            }
        }
        // Roundtrip through the pair inverse.
        plan.inverse2(&mut pair);
        for k in 0..n {
            for (lane, orig) in [(0, &a[k]), (1, &b[k])] {
                let got = pair[2 * k + lane];
                assert!(
                    (got.re - orig.re).abs() < 1e-10 && (got.im - orig.im).abs() < 1e-10,
                    "roundtrip n={n} k={k} lane={lane}"
                );
            }
        }
    }
}

#[test]
fn fft3d_kernels_agree_and_roundtrip() {
    for &(nx, ny, nz) in &[(4usize, 8usize, 8usize), (8, 4, 16)] {
        let fft = Fft3d::new(nx, ny, nz);
        let orig = complex_signal(nx * ny * nz, 1.9);
        let mut naive = orig.clone();
        let mut opt = orig.clone();
        fft.forward_with(&mut naive, Kernel::Naive);
        fft.forward_with(&mut opt, Kernel::Optimized);
        for (i, (a, b)) in naive.iter().zip(&opt).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10,
                "{nx}x{ny}x{nz} spectrum[{i}]: naive {a:?} vs optimized {b:?}"
            );
        }
        fft.inverse_with(&mut opt, Kernel::Optimized);
        for (i, (a, b)) in orig.iter().zip(&opt).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10,
                "roundtrip[{i}]"
            );
        }
    }
}

#[test]
fn real_fft3d_kernels_agree_and_roundtrip() {
    for &(nx, ny, nz) in &[(8usize, 8usize, 8usize), (4, 16, 8)] {
        let rfft = RealFft3d::new(nx, ny, nz);
        let orig = signal(nx * ny * nz, 4.2);
        let nspec = nx * ny * (nz / 2 + 1);
        let mut spec_naive = vec![Complex::ZERO; nspec];
        let mut spec_opt = vec![Complex::ZERO; nspec];
        rfft.forward_with(&orig, &mut spec_naive, Kernel::Naive);
        rfft.forward_with(&orig, &mut spec_opt, Kernel::Optimized);
        for (i, (a, b)) in spec_naive.iter().zip(&spec_opt).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10,
                "{nx}x{ny}x{nz} spectrum[{i}]: naive {a:?} vs optimized {b:?}"
            );
        }
        // Cross-kernel roundtrip: optimized forward, naive inverse, and
        // vice versa, both land back on the input.
        let mut back = vec![0.0; orig.len()];
        rfft.inverse_with(&mut spec_opt, &mut back, Kernel::Naive);
        for (i, (a, b)) in orig.iter().zip(&back).enumerate() {
            assert!((a - b).abs() < 1e-10, "opt->naive roundtrip[{i}]");
        }
        rfft.inverse_with(&mut spec_naive, &mut back, Kernel::Optimized);
        for (i, (a, b)) in orig.iter().zip(&back).enumerate() {
            assert!((a - b).abs() < 1e-10, "naive->opt roundtrip[{i}]");
        }
    }
}
