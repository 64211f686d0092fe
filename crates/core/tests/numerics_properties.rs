//! Property-based tests of the clustering substrates under arbitrary
//! inputs: k-means labels are nearest centroids, and GMM densities are
//! finite, non-negative and normalized in weight.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kmeans_labels_are_nearest_centroids(
        data in proptest::collection::vec(-50.0f64..50.0, 6..120),
        k in 1usize..6,
    ) {
        use sickle_core::kmeans::{KMeans, KMeansConfig};
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
        use sickle_core::gmm::Gmm;
        let gmm = Gmm::fit(&data, 1, 3, 3, 0);
        let d = gmm.density(&[probe]);
        prop_assert!(d.is_finite() && d >= 0.0);
        prop_assert!((gmm.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
