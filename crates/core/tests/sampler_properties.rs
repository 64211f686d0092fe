//! Property-based tests (proptest) on the sampling framework's core
//! invariants: every sampler's selection contract, histogram/entropy
//! algebra, budget allocation, and storage round-trips under arbitrary
//! inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_core::entropy::{
    allocate_budget, strength_weights, weighted_sample_without_replacement,
};
use sickle_core::samplers::{
    LhsSampler, MaxEntSampler, PointSampler, RandomSampler, StratifiedSampler,
};
use sickle_core::UipsSampler;
use sickle_field::stats::{kl_divergence, shannon_entropy};
use sickle_field::{FeatureMatrix, Histogram};

fn arb_features() -> impl Strategy<Value = (FeatureMatrix, usize)> {
    // 1-3 columns, 2..200 rows, values in a modest range (with repeats).
    (1usize..=3, 2usize..200).prop_flat_map(|(d, n)| {
        (
            proptest::collection::vec(-100.0f64..100.0, n * d),
            Just(d),
            0usize..d,
        )
            .prop_map(move |(data, d, ccol)| {
                let names = (0..d).map(|i| format!("f{i}")).collect();
                (FeatureMatrix::new(names, data), ccol)
            })
    })
}

fn check_contract(
    sampler: &dyn PointSampler,
    features: &FeatureMatrix,
    ccol: usize,
    budget: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let picked = sampler.select(features, ccol, budget, &mut rng);
    let n = features.len();
    assert_eq!(
        picked.len(),
        budget.min(n),
        "{} returned wrong count",
        sampler.name()
    );
    let mut seen = vec![false; n];
    for &i in &picked {
        assert!(i < n, "{}: index {i} out of range", sampler.name());
        assert!(!seen[i], "{}: duplicate index {i}", sampler.name());
        seen[i] = true;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn samplers_satisfy_selection_contract(
        (features, ccol) in arb_features(),
        budget_frac in 0.0f64..1.2,
        seed in 0u64..1000,
    ) {
        let budget = ((features.len() as f64) * budget_frac) as usize;
        check_contract(&RandomSampler, &features, ccol, budget, seed);
        check_contract(&LhsSampler, &features, ccol, budget, seed);
        check_contract(&StratifiedSampler::default(), &features, ccol, budget, seed);
        check_contract(
            &MaxEntSampler { num_clusters: 6, bins: 20, ..Default::default() },
            &features, ccol, budget, seed,
        );
        check_contract(&UipsSampler { bins_per_dim: 6, refine_iterations: 1 }, &features, ccol, budget, seed);
    }

    #[test]
    fn histogram_mass_conserved(data in proptest::collection::vec(-1e6f64..1e6, 1..500), bins in 1usize..64) {
        let h = Histogram::of(&data, bins);
        prop_assert_eq!(h.total as usize, data.len());
        let pmf = h.pmf();
        prop_assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(pmf.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn entropy_bounded_by_log_bins(data in proptest::collection::vec(-50.0f64..50.0, 2..300), bins in 2usize..64) {
        let h = Histogram::of(&data, bins);
        let e = shannon_entropy(&h.pmf());
        prop_assert!(e >= -1e-12);
        prop_assert!(e <= (bins as f64).ln() + 1e-9);
    }

    #[test]
    fn kl_nonnegative_and_zero_on_self(
        raw in proptest::collection::vec(0.001f64..1.0, 2..32),
    ) {
        let total: f64 = raw.iter().sum();
        let p: Vec<f64> = raw.iter().map(|v| v / total).collect();
        prop_assert!(kl_divergence(&p, &p).abs() < 1e-9);
        // Against uniform: nonnegative.
        let q = vec![1.0 / p.len() as f64; p.len()];
        prop_assert!(kl_divergence(&p, &q) >= -1e-12);
    }

    #[test]
    fn budget_allocation_invariants(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        caps in proptest::collection::vec(0usize..50, 1..20),
        budget in 0usize..400,
    ) {
        let k = weights.len().min(caps.len());
        let weights = &weights[..k];
        let caps = &caps[..k];
        let alloc = allocate_budget(weights, caps, budget);
        prop_assert_eq!(alloc.len(), k);
        for (a, &c) in alloc.iter().zip(caps) {
            prop_assert!(*a <= c);
        }
        let total_cap: usize = caps.iter().sum();
        prop_assert_eq!(alloc.iter().sum::<usize>(), budget.min(total_cap));
    }

    #[test]
    fn strength_weights_form_distribution(
        strengths in proptest::collection::vec(0.0f64..100.0, 1..20),
        temp in 0.0f64..3.0,
    ) {
        let w = strength_weights(&strengths, temp);
        prop_assert_eq!(w.len(), strengths.len());
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn weighted_sampling_returns_distinct_valid(
        weights in proptest::collection::vec(0.0f64..10.0, 1..30),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = weights.len() / 2 + 1;
        let picked = weighted_sample_without_replacement(&weights, count.min(weights.len()), &mut rng);
        let mut s = picked.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), picked.len());
        prop_assert!(picked.iter().all(|&i| i < weights.len()));
    }

    #[test]
    fn sample_set_storage_roundtrip(
        n in 1usize..60,
        d in 1usize..4,
        seed in 0u64..100,
    ) {
        use sickle_field::io::{decode_sample_set, encode_sample_set};
        use sickle_field::SampleSet;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let names = (0..d).map(|i| format!("v{i}")).collect();
        let data: Vec<f64> = (0..n * d).map(|_| rng.gen::<f64>() * 100.0 - 50.0).collect();
        let fm = FeatureMatrix::new(names, data);
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..100_000)).collect();
        let set = SampleSet::new(fm, indices, rng.gen(), rng.gen_range(0..100));
        let back = decode_sample_set(&encode_sample_set(&set)).unwrap();
        prop_assert_eq!(back.features, set.features);
        prop_assert_eq!(back.indices, set.indices);
    }
}
