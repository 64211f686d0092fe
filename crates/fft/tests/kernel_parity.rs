//! Optimized-vs-naive agreement for the FFT kernel family, across the full
//! stack the dataset generators use: 1D complex plans against the O(n²)
//! serial DFT reference, and the 3D complex and real transforms under
//! both sides of the [`sickle_simd::Kernel`] switch.
//!
//! The quad kernel's AVX2 butterflies use FMA, so they are allowed to
//! differ from the naive path at rounding level; that contract is ≤ 1e-10
//! against the serial reference and ≤ 1e-10 roundtrips.
//!
//! On top of it, the optimized kernel is pinned bit for bit to a per-lane
//! scalar reference written from the formulas the kernel keeps (module
//! `reference` below): the stage-by-stage radix-2 loop, with the twiddle
//! product rounded as `fmaddsub` rounds it and the `t == 0` multiply
//! skipped on AVX2+FMA hosts, or as a plain `Complex` multiply elsewhere,
//! and the real transforms' untangle and repack. The checks cover every
//! leftover group of one to three rows or pencils, band pencil sets whose
//! count is not a multiple of four, the lone row of an odd row count (which
//! keeps the single-row path and its bits), and n from 2 to 256.

use sickle_fft::{dft_naive, Complex, Fft3d, FftPlan, Quad, RealFft, RealFft3d};
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
fn quad_butterflies_match_serial_dft_reference() {
    for &n in &[2usize, 4, 8, 64, 256] {
        let plan = FftPlan::new(n);
        let rows: Vec<Complex> = (0..4)
            .flat_map(|l| complex_signal(n, 0.3 + 7.4 * l as f64))
            .collect();
        let mut quad = rows.clone();
        let mut scratch = vec![Quad::ZERO; n];
        plan.forward_rows(&mut quad, &mut scratch);
        for (l, (got, row)) in quad.chunks(n).zip(rows.chunks(n)).enumerate() {
            for (k, (g, e)) in got.iter().zip(dft_naive(row)).enumerate() {
                assert!(
                    (g.re - e.re).abs() < 1e-10 && (g.im - e.im).abs() < 1e-10,
                    "n={n} k={k} lane={l}: {g:?} vs {e:?}"
                );
            }
        }
        // Roundtrip through the quad inverse.
        plan.inverse_rows_unnormalized(&mut quad, &mut scratch);
        for (i, (g, o)) in quad.iter().zip(&rows).enumerate() {
            let g = g.scale(1.0 / n as f64);
            assert!(
                (g.re - o.re).abs() < 1e-10 && (g.im - o.im).abs() < 1e-10,
                "roundtrip n={n} at {i}"
            );
        }
    }
}

/// Today's formulas, one sequence at a time.
mod reference {
    use sickle_fft::Complex;

    /// The forward twiddles of every stage, concatenated: half-size `m`
    /// contributes `exp(-i*pi*t/m)`, `t < m`.
    fn twiddles(n: usize) -> Vec<Complex> {
        let mut tw = Vec::new();
        let mut m = 1;
        while m < n {
            for t in 0..m {
                tw.push(Complex::from_polar_unit(
                    -std::f64::consts::PI * t as f64 / m as f64,
                ));
            }
            m *= 2;
        }
        tw
    }

    /// In-place radix-2 FFT (unnormalized when `inverse`). `quad` selects
    /// the quad kernel's rounding: on an AVX2+FMA host `fmaddsub`'s product
    /// and the `t == 0` skip; otherwise, and for `quad == false` (the
    /// single-row path), the plain `Complex` product everywhere.
    pub fn fft(x: &mut [Complex], inverse: bool, quad: bool) {
        let n = x.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            };
            if i < j {
                x.swap(i, j);
            }
        }
        let fused = quad && sickle_simd::fma_available();
        let tw = twiddles(n);
        let (mut m, mut toff) = (1, 0);
        while m < n {
            for base in (0..n).step_by(2 * m) {
                for t in 0..m {
                    let w = if inverse {
                        tw[toff + t].conj()
                    } else {
                        tw[toff + t]
                    };
                    let (a, b) = (x[base + t], x[base + t + m]);
                    let bw = match (fused, t) {
                        (true, 0) => b,
                        (true, _) => Complex::new(
                            b.re.mul_add(w.re, -(b.im * w.im)),
                            b.im.mul_add(w.re, b.re * w.im),
                        ),
                        (false, _) => b * w,
                    };
                    x[base + t] = a + bw;
                    x[base + t + m] = a - bw;
                }
            }
            toff += m;
            m *= 2;
        }
    }

    fn real_twiddle(n: usize, k: usize) -> Complex {
        Complex::from_polar_unit(-std::f64::consts::PI * k as f64 / (n / 2) as f64)
    }

    /// Forward real FFT of one row: pack, half-length FFT, untangle.
    pub fn real_forward(row: &[f64], quad: bool) -> Vec<Complex> {
        let (n, half) = (row.len(), row.len() / 2);
        let mut z: Vec<Complex> = row.chunks(2).map(|p| Complex::new(p[0], p[1])).collect();
        fft(&mut z, false, quad);
        let mut out = vec![Complex::ZERO; half + 1];
        for k in 1..=half / 2 {
            let (zk, zmk, w) = (z[k], z[half - k].conj(), real_twiddle(n, k));
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk).scale(0.5).mul_i().scale(-1.0);
            out[k] = e + w * o;
            out[half - k] = e.conj() + Complex::new(-w.re, w.im) * o.conj();
        }
        out[0] = Complex::new(z[0].re + z[0].im, 0.0);
        out[half] = Complex::new(z[0].re - z[0].im, 0.0);
        out
    }

    /// Inverse real FFT of one spectrum, scaled by `scale`: repack (with
    /// the sub-FFT's `1/(n/2)` folded in), half-length FFT, unpack.
    pub fn real_inverse(spec: &[Complex], scale: f64, quad: bool) -> Vec<f64> {
        let half = spec.len() - 1;
        let n = 2 * half;
        let scale = scale * (1.0 / half as f64);
        let repack = |k: usize, j: usize| {
            let (xk, xmk, w) = (spec[k], spec[j].conj(), real_twiddle(n, k));
            let e = (xk + xmk).scale(0.5);
            let o = w.conj() * (xk - xmk).scale(0.5);
            (
                Complex::new(e.re - o.im, e.im + o.re).scale(scale),
                Complex::new(e.re + o.im, o.re - e.im).scale(scale),
            )
        };
        let mut z = vec![Complex::ZERO; half];
        z[0] = repack(0, half).0;
        for k in 1..half / 2 {
            (z[k], z[half - k]) = repack(k, half - k);
        }
        if half >= 2 {
            z[half / 2] = repack(half / 2, half / 2).0;
        }
        fft(&mut z, true, quad);
        z.iter().flat_map(|c| [c.re, c.im]).collect()
    }
}

fn bits(z: &[Complex]) -> Vec<(u64, u64)> {
    z.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn real_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn quad_rows_match_per_lane_reference_bit_for_bit() {
    let mut n = 1;
    while n <= 256 {
        let plan = FftPlan::new(n);
        let mut scratch = vec![Quad::ZERO; n];
        for r in 1..=4 {
            let rows: Vec<Complex> = (0..r)
                .flat_map(|l| complex_signal(n, 2.1 * l as f64))
                .collect();
            let mut quad = rows.clone();
            plan.forward_rows(&mut quad, &mut scratch);
            let mut back = quad.clone();
            plan.inverse_rows_unnormalized(&mut back, &mut scratch);
            for (l, row) in rows.chunks(n).enumerate() {
                let mut want = row.to_vec();
                reference::fft(&mut want, false, true);
                assert_eq!(
                    bits(&quad[l * n..][..n]),
                    bits(&want),
                    "forward n={n} r={r} lane={l}"
                );
                reference::fft(&mut want, true, true);
                assert_eq!(
                    bits(&back[l * n..][..n]),
                    bits(&want),
                    "inverse n={n} r={r} lane={l}"
                );
            }
        }
        n *= 2;
    }
}

#[test]
fn quad_real_rows_match_per_lane_reference_bit_for_bit() {
    let mut n = 2;
    while n <= 256 {
        let plan = RealFft::new(n);
        let nc = plan.spectrum_len();
        let mut scratch = vec![Quad::ZERO; n / 2];
        for r in 1..=4 {
            let input = signal(r * n, 0.9);
            let mut spec = vec![Complex::ZERO; r * nc];
            plan.forward_rows_into(&input, &mut spec, &mut scratch);
            let mut back = vec![0.0; r * n];
            plan.inverse_rows_into_scaled(&spec, &mut back, &mut scratch, 0.3);
            for (l, row) in input.chunks(n).enumerate() {
                let want = reference::real_forward(row, true);
                assert_eq!(
                    bits(&spec[l * nc..][..nc]),
                    bits(&want),
                    "forward n={n} r={r} lane={l}"
                );
                let want = reference::real_inverse(&want, 0.3, true);
                assert_eq!(
                    real_bits(&back[l * n..][..n]),
                    real_bits(&want),
                    "inverse n={n} r={r} lane={l}"
                );
            }
        }
        n *= 2;
    }
}

/// Transforms `total` pencils of `len` elements spaced `stride` apart,
/// pencil `j` starting at `base_of(j)`, with the reference.
fn reference_pencils(
    data: &mut [Complex],
    len: usize,
    total: usize,
    base_of: impl Fn(usize) -> usize,
    stride: usize,
    inverse: bool,
) {
    for j in 0..total {
        let b = base_of(j);
        let mut p: Vec<Complex> = (0..len).map(|k| data[b + k * stride]).collect();
        reference::fft(&mut p, inverse, true);
        for (k, v) in p.into_iter().enumerate() {
            data[b + k * stride] = v;
        }
    }
}

/// The optimized `Fft3d`, pass by pass with the reference: rows (a lone row
/// of an odd row count on the single-row path), then y- and x-pencils.
fn reference_fft3d(data: &mut [Complex], (nx, ny, nz): (usize, usize, usize), inverse: bool) {
    let rows = nx * ny;
    for (i, row) in data.chunks_mut(nz).enumerate() {
        let lone = rows % 2 == 1 && i == rows - 1;
        reference::fft(row, inverse, !lone);
    }
    let slab = ny * nz;
    reference_pencils(data, ny, nx * nz, |j| (j / nz) * slab + j % nz, nz, inverse);
    reference_pencils(data, nx, slab, |j| j, slab, inverse);
    if inverse {
        let scale = 1.0 / data.len() as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }
}

#[test]
fn fft3d_optimized_matches_per_pencil_reference_bit_for_bit() {
    // One row (the lone-row path), two rows, pencil counts of one and two
    // (leftover groups), and full quads.
    for shape in [
        (1usize, 1usize, 16usize),
        (2, 1, 8),
        (1, 8, 2),
        (1, 4, 1),
        (2, 2, 4),
        (4, 8, 16),
    ] {
        let (nx, ny, nz) = shape;
        let fft = Fft3d::new(nx, ny, nz);
        let orig = complex_signal(nx * ny * nz, 5.3);
        let mut got = orig.clone();
        let mut want = orig.clone();
        fft.forward_with(&mut got, Kernel::Optimized);
        reference_fft3d(&mut want, shape, false);
        assert_eq!(bits(&got), bits(&want), "forward {shape:?}");
        fft.inverse_with(&mut got, Kernel::Optimized);
        reference_fft3d(&mut want, shape, true);
        assert_eq!(bits(&got), bits(&want), "inverse {shape:?}");
    }
}

/// The band-limited real transforms, pass by pass with the reference.
fn reference_rfft3d(
    real: &[f64],
    (nx, ny, nz): (usize, usize, usize),
    kmax: usize,
) -> (Vec<Complex>, Vec<f64>) {
    let nzc = nz / 2 + 1;
    let zk = nzc.min(kmax + 1);
    let count = ny.min(2 * kmax + 1);
    let ky = |ord: usize| if ord <= kmax { ord } else { ord + ny - count };
    let holds = |n: usize, i: usize| i.min(n - i) <= kmax;
    let slab = ny * nzc;
    let y_pencils = |j: usize| (j / zk) * slab + j % zk;
    let x_pencils = |j: usize| ky(j / zk) * nzc + j % zk;
    let rows = nx * ny;
    let mut spec: Vec<Complex> = real
        .chunks(nz)
        .enumerate()
        .flat_map(|(i, row)| reference::real_forward(row, !(rows % 2 == 1 && i == rows - 1)))
        .collect();
    reference_pencils(&mut spec, ny, nx * zk, y_pencils, nzc, false);
    reference_pencils(&mut spec, nx, count * zk, x_pencils, slab, false);
    for (row, s) in spec.chunks_mut(nzc).enumerate() {
        let keep = if holds(nx, row / ny) && holds(ny, row % ny) {
            zk
        } else {
            0
        };
        s[keep..].fill(Complex::ZERO);
    }
    let forward = spec.clone();
    reference_pencils(&mut spec, nx, count * zk, x_pencils, slab, true);
    reference_pencils(&mut spec, ny, nx * zk, y_pencils, nzc, true);
    let scale = 1.0 / (nx * ny) as f64;
    let back = spec
        .chunks(nzc)
        .enumerate()
        .flat_map(|(i, s)| reference::real_inverse(s, scale, !(rows % 2 == 1 && i == rows - 1)))
        .collect();
    (forward, back)
}

#[test]
fn real_fft3d_band_matches_per_pencil_reference_bit_for_bit() {
    // x-pencil counts 946 (64³, zk = 22), 15, 1, 231 and 66: leftover
    // groups of 2, 3, 1, 3 and 2; the full transform as the last case.
    let cases = [
        ((64usize, 64usize, 64usize), 21usize),
        ((8, 8, 8), 2),
        ((8, 8, 8), 0),
        ((32, 32, 32), 10),
        ((4, 16, 32), 5),
        ((8, 16, 4), usize::MAX / 4),
    ];
    for (shape, kmax) in cases {
        let (nx, ny, nz) = shape;
        let plan = RealFft3d::new(nx, ny, nz);
        let real = signal(plan.len(), 1.7);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward_truncated_with(&real, &mut spec, kmax, Kernel::Optimized);
        let (want_spec, want_back) = reference_rfft3d(&real, shape, kmax);
        assert_eq!(
            bits(&spec),
            bits(&want_spec),
            "forward {shape:?} kmax={kmax}"
        );
        let mut back = vec![0.0; plan.len()];
        plan.inverse_truncated_with(&mut spec, &mut back, kmax, Kernel::Optimized);
        assert_eq!(
            real_bits(&back),
            real_bits(&want_back),
            "inverse {shape:?} kmax={kmax}"
        );
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
