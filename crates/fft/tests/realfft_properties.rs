//! Property-based tests for the 3D real-to-complex FFT: roundtrip identity
//! and agreement with the full complex transform on arbitrary real fields of
//! arbitrary power-of-two shapes.

use proptest::prelude::*;
use sickle_fft::{Complex, Fft3d, RealFft3d};

/// Random power-of-two 3D shape (each side 2..=8) plus a random real field
/// of matching length.
fn arb_field3d() -> impl Strategy<Value = ((usize, usize, usize), Vec<f64>)> {
    (1u32..=3, 1u32..=3, 1u32..=3).prop_flat_map(|(lx, ly, lz)| {
        let (nx, ny, nz) = (1usize << lx, 1usize << ly, 1usize << lz);
        let len = nx * ny * nz;
        proptest::collection::vec(-100.0f64..100.0, len..=len).prop_map(move |f| ((nx, ny, nz), f))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rfft3d_roundtrip_is_identity(((nx, ny, nz), field) in arb_field3d()) {
        let plan = RealFft3d::new(nx, ny, nz);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&field, &mut spec);
        let mut back = vec![0.0; field.len()];
        plan.inverse(&mut spec, &mut back);
        for (a, b) in field.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn rfft3d_agrees_with_complex_fft3d(((nx, ny, nz), field) in arb_field3d()) {
        let rplan = RealFft3d::new(nx, ny, nz);
        let mut spec = vec![Complex::ZERO; rplan.spectrum_len()];
        rplan.forward(&field, &mut spec);

        let mut full: Vec<Complex> = field.iter().map(|&x| Complex::new(x, 0.0)).collect();
        Fft3d::new(nx, ny, nz).forward(&mut full);

        // Stored half agrees directly; the dropped half is the conjugate of
        // a stored mode at the mirrored index.
        let nzc = nz / 2 + 1;
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let want = full[(x * ny + y) * nz + z];
                    let got = if z < nzc {
                        spec[(x * ny + y) * nzc + z]
                    } else {
                        let (mx, my, mz) = ((nx - x) % nx, (ny - y) % ny, nz - z);
                        spec[(mx * ny + my) * nzc + mz].conj()
                    };
                    prop_assert!(
                        (got.re - want.re).abs() < 1e-8 * (1.0 + want.re.abs())
                            && (got.im - want.im).abs() < 1e-8 * (1.0 + want.im.abs()),
                        "({x},{y},{z}): {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}
