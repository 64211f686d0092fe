//! Contracts of the band-limited real transforms and of the pencil index
//! rule they share with every other strided pass:
//!
//! - `forward_truncated` ≡ `forward`, then every mode with `|kx|`, `|ky|` or
//!   `kz` above `kmax` set to zero — the same bits inside the band, `+0.0`
//!   outside;
//! - `inverse_truncated` ≡ `inverse` on a spectrum that is zero outside the
//!   band, value for value as `f64 ==`;
//! - a spectrum that is not zero there is refused in debug builds;
//! - `map_truncated` ≡ `inverse_truncated` of every spectrum, the pointwise
//!   map over the whole fields, then `forward_truncated` of the outputs —
//!   bit for bit, with outputs that overwrite inputs, and on shapes whose
//!   row count is below the row pass's group of four;
//! - the complex 3D transform, which passes the keep-all rule, still equals
//!   explicit per-pencil loops bit for bit.
//!
//! Both kernels, cubic and non-cubic shapes, and pencil counts that leave an
//! odd one for the single-row path (`n = 8, kmax = 2`: 5 × 3 x-pencils;
//! `n = 32, kmax = 10`: 21 × 11; `kmax = 0`: one).

use sickle_fft::{Complex, Fft3d, FftPlan, MapPass, RealFft3d};
use sickle_simd::Kernel;

const KERNELS: [Kernel; 2] = [Kernel::Naive, Kernel::Optimized];

fn signal(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 * 0.7310 + 0.3).sin() * 3.0 + (i as f64 * 1.93).cos())
        .collect()
}

fn bits(spec: &[Complex]) -> Vec<(u64, u64)> {
    spec.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Zeroes every mode of a half-spectrum outside the `kmax` band.
fn mask(spec: &mut [Complex], (nx, ny, nz): (usize, usize, usize), kmax: usize) {
    let nzc = nz / 2 + 1;
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nzc {
                if x.min(nx - x) > kmax || y.min(ny - y) > kmax || z > kmax {
                    spec[(x * ny + y) * nzc + z] = Complex::ZERO;
                }
            }
        }
    }
}

/// The shapes and cutoffs the contracts are checked on.
fn cases() -> Vec<((usize, usize, usize), usize)> {
    let mut cases = Vec::new();
    for n in [8usize, 16, 32, 64] {
        for kmax in [0, 1, n / 3, n / 2] {
            cases.push(((n, n, n), kmax));
        }
    }
    for kmax in [0, 1, 2, 5, 8, 16] {
        cases.push(((4, 16, 32), kmax));
    }
    cases
}

#[test]
fn truncated_forward_is_forward_then_mask() {
    for (shape, kmax) in cases() {
        let (nx, ny, nz) = shape;
        let plan = RealFft3d::new(nx, ny, nz);
        let real = signal(plan.len());
        for kernel in KERNELS {
            let mut want = vec![Complex::ZERO; plan.spectrum_len()];
            plan.forward_with(&real, &mut want, kernel);
            mask(&mut want, shape, kmax);
            // Start from garbage: every coefficient must be written.
            let mut got = vec![Complex::new(f64::NAN, 7.0); plan.spectrum_len()];
            plan.forward_truncated_with(&real, &mut got, kmax, kernel);
            assert!(
                bits(&got) == bits(&want),
                "{shape:?} kmax={kmax} {kernel:?}"
            );
        }
    }
}

#[test]
fn truncated_inverse_is_inverse_on_band_limited_input() {
    for (shape, kmax) in cases() {
        let (nx, ny, nz) = shape;
        let plan = RealFft3d::new(nx, ny, nz);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward_with(&signal(plan.len()), &mut spec, Kernel::Naive);
        mask(&mut spec, shape, kmax);
        for kernel in KERNELS {
            let mut want = vec![0.0; plan.len()];
            plan.inverse_with(&mut spec.clone(), &mut want, kernel);
            let mut got = vec![f64::NAN; plan.len()];
            plan.inverse_truncated_with(&mut spec.clone(), &mut got, kmax, kernel);
            assert!(got == want, "{shape:?} kmax={kmax} {kernel:?}");
        }
    }
}

/// The pointwise map of the `map_truncated` contract: both outputs read every
/// input before overwriting the first two, and the third field, which is
/// not an output, is scribbled on.
fn pointwise([a, b, c]: [&mut [f64]; 3]) {
    for i in 0..a.len() {
        let (x, y, z) = (a[i], b[i], c[i]);
        a[i] = x * y - z;
        b[i] = x + y * z;
        c[i] = f64::NAN;
    }
}

#[test]
fn map_truncated_is_inverse_map_forward() {
    let mut shapes = cases();
    // Row counts below the row pass's group of four: one row (the lone-row
    // path alone) and two (one quad-kernel pair).
    for kmax in [0, 1, 4] {
        shapes.push(((1, 1, 8), kmax));
        shapes.push(((1, 2, 8), kmax));
    }
    for (shape, kmax) in shapes {
        let (nx, ny, nz) = shape;
        let plan = RealFft3d::new(nx, ny, nz);
        let inputs: Vec<Vec<Complex>> = (0..3)
            .map(|i| {
                let real: Vec<f64> = signal(plan.len() + i).split_off(i);
                let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
                plan.forward_with(&real, &mut spec, Kernel::Naive);
                mask(&mut spec, shape, kmax);
                spec
            })
            .collect();
        for kernel in KERNELS {
            let mut fields: Vec<Vec<f64>> = inputs
                .iter()
                .map(|spec| {
                    let mut real = vec![0.0; plan.len()];
                    plan.inverse_truncated_with(&mut spec.clone(), &mut real, kmax, kernel);
                    real
                })
                .collect();
            let [a, b, c] = &mut fields[..] else {
                unreachable!()
            };
            pointwise([a, b, c]);
            let want: Vec<Vec<Complex>> = fields[..2]
                .iter()
                .map(|real| {
                    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
                    plan.forward_truncated_with(real, &mut spec, kmax, kernel);
                    spec
                })
                .collect();

            let mut got = inputs.clone();
            let [a, b, c] = &mut got[..] else {
                unreachable!()
            };
            let mut passes = Vec::new();
            plan.map_truncated_with([a, b, c], 2, kmax, kernel, pointwise, |pass, run| {
                passes.push(pass);
                run();
            });
            let order = [MapPass::Inverse, MapPass::Rows, MapPass::Forward];
            assert_eq!(passes, order, "{shape:?} kmax={kmax} {kernel:?}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    bits(g) == bits(w),
                    "output {i}: {shape:?} kmax={kmax} {kernel:?}"
                );
            }
        }
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not zero outside")]
fn map_truncated_refuses_energy_outside_the_band() {
    let plan = RealFft3d::new(8, 8, 8);
    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
    spec[3] = Complex::new(1.0, 0.0); // kz = 3 > kmax = 2
    plan.map_truncated([&mut spec[..]], 1, 2, |_| {}, |_, run| run());
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not zero outside")]
fn truncated_inverse_refuses_energy_outside_the_band() {
    let plan = RealFft3d::new(8, 8, 8);
    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
    spec[3] = Complex::new(1.0, 0.0); // kz = 3 > kmax = 2
    let mut real = vec![0.0; plan.len()];
    plan.inverse_truncated(&mut spec, &mut real, 2);
}

/// The keep-all pencil rule of the complex transform: under the serial
/// kernel every strided pass is exactly "gather, 1D plan, scatter" over
/// every pencil of the axis.
#[test]
fn complex_3d_matches_explicit_pencil_loops() {
    let (nx, ny, nz) = (4usize, 8usize, 16usize);
    let orig: Vec<Complex> = signal(2 * nx * ny * nz)
        .chunks(2)
        .map(|c| Complex::new(c[0], c[1]))
        .collect();
    let mut want = orig.clone();
    let mut axis = |n: usize, stride: usize, starts: &mut dyn Iterator<Item = usize>| {
        let plan = FftPlan::new(n);
        for base in starts {
            let mut pencil: Vec<Complex> = (0..n).map(|k| want[base + k * stride]).collect();
            plan.forward(&mut pencil);
            for (k, v) in pencil.into_iter().enumerate() {
                want[base + k * stride] = v;
            }
        }
    };
    axis(nz, 1, &mut (0..nx * ny).map(|r| r * nz));
    axis(
        ny,
        nz,
        &mut (0..nx).flat_map(|x| (0..nz).map(move |z| x * ny * nz + z)),
    );
    axis(nx, ny * nz, &mut (0..ny * nz));
    let mut got = orig;
    Fft3d::new(nx, ny, nz).forward_with(&mut got, Kernel::Naive);
    assert!(bits(&got) == bits(&want));
}
