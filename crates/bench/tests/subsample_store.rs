//! The `subsample` binary's `--output-dir` is a shard store: exactly a
//! manifest and one pack, holding bit-for-bit the sets `sample_case`
//! computes, keyed the way every store consumer keys them.

use std::path::Path;
use std::process::Command;

use sickle_bench::cases::{builtin_cases, sample_case, CaseConfig, DatasetSpec};
use sickle_store::{set_key, ShardStore, StoreConfig};

/// `Hmaxent-Xmaxent-16` shrunk to 16³ × 2 snapshots with 8³ cubes, so a
/// debug build samples it in seconds.
fn reduced_case() -> CaseConfig {
    let mut case = builtin_cases()
        .into_iter()
        .find(|c| c.name == "Hmaxent-Xmaxent-16")
        .expect("built-in case");
    case.name = "reduced-Hmaxent-Xmaxent-8".into();
    case.dataset = DatasetSpec::SstP1f4 {
        n: 16,
        snapshots: 2,
        warmup: 4,
        interval: 2,
    };
    case.subsample.num_hypercubes = 4;
    case.subsample.cube_edge = 8;
    case.subsample.num_samples = 51;
    case
}

fn run_subsample(case_file: &Path, out_dir: &Path) {
    let run = Command::new(env!("CARGO_BIN_EXE_subsample"))
        .arg(case_file)
        .arg("--output-dir")
        .arg(out_dir)
        .env("SICKLE_LOG", "off")
        .env_remove("SICKLE_TRACE")
        .output()
        .expect("spawn subsample");
    assert!(
        run.status.success(),
        "subsample exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list output dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn assert_store_layout(dir: &Path) {
    let names = file_names(dir);
    assert!(
        matches!(names.as_slice(), [pack, manifest]
            if pack.ends_with(".pack") && manifest == "manifest.json"),
        "{names:?}"
    );
}

#[test]
fn output_dir_is_a_store_holding_the_sampled_sets() {
    let scratch =
        std::env::temp_dir().join(format!("sickle_subsample_store_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let case = reduced_case();
    let case_file = scratch.join("case.json");
    std::fs::write(&case_file, case.to_json()).unwrap();
    let out_dir = scratch.join("out");

    run_subsample(&case_file, &out_dir);
    assert_store_layout(&out_dir);

    let (out, _) = sample_case(&case.dataset.build(), &case);
    let mut expected: Vec<_> = out
        .sets
        .iter()
        .flat_map(|sets| {
            sets.iter()
                .enumerate()
                .map(|(position, set)| (set_key(set, position), set))
        })
        .collect();
    expected.sort_by_key(|&(key, _)| key);

    let store = ShardStore::open(&out_dir, StoreConfig::default()).expect("open store");
    let keys: Vec<_> = expected.iter().map(|&(key, _)| key).collect();
    assert_eq!(store.keys(), keys);
    for (key, want) in expected {
        let got = store.get(key).expect("read shard");
        assert_eq!(got.indices, want.indices, "{key:?}");
        let bits = |data: &[f64]| data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.features.data),
            bits(&want.features.data),
            "{key:?}"
        );
        assert_eq!(got.features.names, want.features.names, "{key:?}");
        assert_eq!(got.snapshot_index, want.snapshot_index, "{key:?}");
        assert_eq!(got.hypercube, want.hypercube, "{key:?}");
    }
    drop(store);

    // A rerun into the same directory replaces the store in place: with a
    // new seed the pack gets a new content name, and the old one is gone.
    let names_before = file_names(&out_dir);
    let mut reseeded = case.clone();
    reseeded.subsample.seed += 1;
    std::fs::write(&case_file, reseeded.to_json()).unwrap();
    run_subsample(&case_file, &out_dir);
    assert_store_layout(&out_dir);
    assert_ne!(
        file_names(&out_dir),
        names_before,
        "the rerun wrote a new pack"
    );

    std::fs::remove_dir_all(&scratch).ok();
}
