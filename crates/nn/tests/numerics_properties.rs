//! Property-based test of reverse-mode autograd: gradients of a small
//! matmul–tanh–mean graph agree with central finite differences under
//! arbitrary inputs and weights.

use proptest::prelude::*;
use sickle_nn::Tape;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
}
