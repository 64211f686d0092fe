//! Property-based tests of the 1-D transforms under arbitrary power-of-two
//! signals: roundtrip identity, Parseval, agreement with the naive DFT, and
//! the real transform's Hermitian half.

use proptest::prelude::*;
use sickle_fft::{dft_naive, Complex, FftPlan, RealFft};

fn arb_signal(max_log: u32) -> impl Strategy<Value = Vec<f64>> {
    (1u32..=max_log).prop_flat_map(|log| {
        let n = 1usize << log;
        proptest::collection::vec(-100.0f64..100.0, n..=n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_roundtrip_identity(signal in arb_signal(9)) {
        let n = signal.len();
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, -x * 0.5)).collect();
        let orig = data.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-8 * (1.0 + b.re.abs()));
            prop_assert!((a.im - b.im).abs() < 1e-8 * (1.0 + b.im.abs()));
        }
    }

    #[test]
    fn fft_parseval(signal in arb_signal(8)) {
        let n = signal.len();
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        plan.forward(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn fft_matches_naive_dft(signal in arb_signal(6)) {
        let n = signal.len();
        let input: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, x * 0.3)).collect();
        let expected = dft_naive(&input);
        let mut got = input;
        FftPlan::new(n).forward(&mut got);
        for (a, b) in got.iter().zip(&expected) {
            prop_assert!((a.re - b.re).abs() < 1e-6 * (1.0 + b.re.abs()));
            prop_assert!((a.im - b.im).abs() < 1e-6 * (1.0 + b.im.abs()));
        }
    }

    #[test]
    fn rfft_matches_hermitian_half(signal in arb_signal(8)) {
        let n = signal.len();
        if n < 2 {
            return Ok(());
        }
        let spec = RealFft::new(n).forward(&signal);
        let full: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let expected = dft_naive(&full);
        for k in 0..=n / 2 {
            prop_assert!((spec[k].re - expected[k].re).abs() < 1e-6 * (1.0 + expected[k].re.abs()));
            prop_assert!((spec[k].im - expected[k].im).abs() < 1e-6 * (1.0 + expected[k].im.abs()));
        }
    }
}
