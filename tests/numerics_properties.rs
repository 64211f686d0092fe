//! Property-based tests on the numerical substrates: FFT algebra, autograd
//! gradients, k-means, GMM densities, and POD orthogonality under arbitrary
//! inputs.

use proptest::prelude::*;
use sickle::fft::{dft_naive, Complex, FftPlan, RealFft};
use sickle::nn::Tape;

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

    #[test]
    fn autograd_matches_finite_differences(
        input in proptest::collection::vec(-2.0f32..2.0, 4..=4),
        weights in proptest::collection::vec(-1.0f32..1.0, 8..=8),
    ) {
        // f(x) = mean(tanh(x W)) with x (1x4), W (4x2).
        let eval = |x: &[f32]| -> f32 {
            let mut t = Tape::new();
            let xv = t.leaf(x.to_vec(), (1, 4));
            let w = t.leaf(weights.clone(), (4, 2));
            let h = t.matmul(xv, w);
            let h = t.tanh(h);
            let l = t.mean_all(h);
            t.value(l)[0]
        };
        let grad: Vec<f32> = {
            let mut t = Tape::new();
            let xv = t.leaf(input.clone(), (1, 4));
            let w = t.leaf(weights.clone(), (4, 2));
            let h = t.matmul(xv, w);
            let h = t.tanh(h);
            let l = t.mean_all(h);
            t.backward(l);
            t.grad(xv).to_vec()
        };
        let h = 1e-2f32;
        for i in 0..4 {
            let mut plus = input.clone();
            plus[i] += h;
            let mut minus = input.clone();
            minus[i] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h);
            prop_assert!(
                (grad[i] - numeric).abs() < 5e-2 * (1.0 + numeric.abs()),
                "grad[{}] = {} vs numeric {}", i, grad[i], numeric
            );
        }
    }

    #[test]
    fn kmeans_labels_are_nearest_centroids(
        data in proptest::collection::vec(-50.0f64..50.0, 6..120),
        k in 1usize..6,
    ) {
        use sickle::core::kmeans::{KMeans, KMeansConfig};
        let n = data.len() / 2 * 2; // even length for 2D
        let data = &data[..n];
        if n < 2 {
            return Ok(());
        }
        let km = KMeans::fit(data, 2, &KMeansConfig { k, batch_size: 32, iterations: 10, seed: 0 });
        let labels = km.assign(data);
        for (i, &l) in labels.iter().enumerate() {
            let row = &data[i * 2..i * 2 + 2];
            let d_assigned: f64 = row
                .iter()
                .zip(km.centroid(l))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            for c in 0..km.k {
                let d_c: f64 = row
                    .iter()
                    .zip(km.centroid(c))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                prop_assert!(d_assigned <= d_c + 1e-9);
            }
        }
    }

    #[test]
    fn gmm_density_is_positive_and_finite(
        data in proptest::collection::vec(-10.0f64..10.0, 10..80),
        probe in -20.0f64..20.0,
    ) {
        use sickle::core::gmm::Gmm;
        let gmm = Gmm::fit(&data, 1, 3, 3, 0);
        let d = gmm.density(&[probe]);
        prop_assert!(d.is_finite() && d >= 0.0);
        prop_assert!((gmm.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
