//! Domain scenario: curate a stratified-turbulence dataset for storage and
//! downstream training — the paper's SST workflow, including persisting the
//! feature-rich subset as a shard store and the energy comparison between
//! sampling strategies.
//!
//! ```sh
//! cargo run --release --example stratified_pipeline
//! ```

use sickle::cfd::datasets::{sst_p1f100, SstParams};
use sickle::core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingConfig};
use sickle::field::io::encode_sample_set;
use sickle::store::{ShardStore, StoreConfig};

fn main() {
    println!("generating forced stratified turbulence (SST-P1F100 analogue)...");
    let dataset = sst_p1f100(&SstParams {
        n: 32,
        snapshots: 4,
        interval: 6,
        warmup: 12,
        ..Default::default()
    });
    let dense_bytes = dataset.nbytes();
    println!(
        "  dense dataset: {} ({} bytes of f64 fields)",
        dataset.size_string(),
        dense_bytes
    );

    let base = SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes: 8,
        cube_edge: 16,
        method: PointMethod::MaxEnt {
            num_clusters: 20,
            bins: 100,
        },
        num_samples: 410,
        cluster_var: "r".into(),
        feature_vars: vec!["u".into(), "v".into(), "w".into(), "r".into(), "ee".into()],
        seed: 1,
        temporal: sickle::core::pipeline::TemporalMethod::All,
    };

    println!("\ncomparing sampling strategies at a 10% in-cube budget:");
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "case", "points", "bytes", "time(s)"
    );
    for method in [
        PointMethod::Random,
        PointMethod::Uips { bins_per_dim: 10 },
        PointMethod::MaxEnt {
            num_clusters: 20,
            bins: 100,
        },
    ] {
        let mut cfg = base.clone();
        cfg.method = method;
        let out = run_dataset(&dataset, &cfg);
        let sparse_bytes: usize = out
            .sets
            .iter()
            .flatten()
            .map(|s| encode_sample_set(s).len())
            .sum();
        println!(
            "{:<22} {:>10} {:>12} {:>10.2}",
            cfg.case_name(),
            out.total_points(),
            sparse_bytes,
            out.stats.elapsed_secs
        );
    }

    // Persist the MaxEnt subset as a shard store and reload one shard.
    let out = run_dataset(&dataset, &base);
    let dir = std::env::temp_dir().join("sickle_stratified_example");
    let total = ShardStore::ingest(&dir, &out, StoreConfig::default())
        .expect("write shard store")
        .manifest()
        .total_bytes();
    println!(
        "\nwrote MaxEnt subset to {} ({} bytes vs {} dense = {:.1}x reduction)",
        dir.display(),
        total,
        dense_bytes,
        dense_bytes as f64 / total as f64
    );
    let store = ShardStore::open(&dir, StoreConfig::default()).expect("open shard store");
    let key = store.keys()[0];
    let set = store.get(key).expect("read shard");
    println!(
        "reloaded snapshot {} cube {}: {} points, {} features",
        key.snapshot,
        key.cube,
        set.len(),
        set.features.dim()
    );
}
