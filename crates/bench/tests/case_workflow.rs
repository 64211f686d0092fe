//! Integration test of the config-driven case workflow (the `subsample` /
//! `train_case` CLI path) — exercised in-process at tiny scale.

use sickle_bench::cases::{builtin_cases, run_case, Arch, CaseConfig, DatasetSpec, TrainSpec};
use sickle_core::pipeline::{CubeMethod, PointMethod, SamplingConfig, TemporalMethod};

fn tiny_case() -> CaseConfig {
    CaseConfig {
        name: "tiny-Hmaxent-Xmaxent".to_string(),
        dataset: DatasetSpec::SstP1f4 {
            n: 16,
            snapshots: 2,
            warmup: 12,
            interval: 6,
        },
        subsample: SamplingConfig {
            hypercubes: CubeMethod::MaxEnt,
            num_hypercubes: 4,
            cube_edge: 8,
            method: PointMethod::MaxEnt {
                num_clusters: 8,
                bins: 40,
            },
            num_samples: 51,
            cluster_var: "pv".into(),
            feature_vars: vec!["u".into(), "v".into(), "w".into(), "r".into()],
            seed: 0,
            temporal: TemporalMethod::All,
        },
        train: TrainSpec {
            arch: Arch::MlpTransformer,
            epochs: 4,
            batch: 4,
            test_frac: 0.2,
            target: Some("p".into()),
            tokens: 16,
            patch: 2,
            dim: 16,
        },
    }
}

/// `configs/SST/P1` at the repository root.
fn shipped_configs() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/SST/P1")
}

#[test]
fn case_config_json_file_roundtrip() {
    let case = tiny_case();
    let dir = std::env::temp_dir().join("sickle_case_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.json");
    std::fs::write(&path, case.to_json()).unwrap();
    let back = CaseConfig::load(&path).unwrap();
    assert_eq!(back.name, case.name);
    assert_eq!(back.subsample.case_name(), "Hmaxent-Xmaxent-8");
    std::fs::remove_file(&path).ok();
}

#[test]
fn case_executes_end_to_end() {
    let case = tiny_case();
    let dataset = case.dataset.build();
    assert_eq!(dataset.num_snapshots(), 2);
    let run = run_case(&dataset, &case);
    assert!(run.train.best_test.is_finite());
    assert!(run.train.energy.flops > 0);
    assert!(run.total_kj() > run.train.energy.total_joules() / 1e3);
}

#[test]
fn shipped_configs_parse_back() {
    // configs/SST/P1 is `gen_configs`' output: the list Fig. 8 runs.
    let dir = shipped_configs();
    let cases = builtin_cases();
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        cases.len(),
        "one file per built-in case"
    );
    for case in cases {
        let path = dir.join(format!("{}.json", case.name));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(text, case.to_json(), "{path:?} differs from the built-in");
        assert_eq!(CaseConfig::from_json(&text).unwrap().name, case.name);
    }
}

#[test]
fn deleted_temporal_kinds_are_unknown_variants() {
    let json = tiny_case().to_json();
    let all = r#""temporal": {
      "kind": "all"
    }"#;
    assert!(json.contains(all), "{json}");
    for (name, temporal) in [
        ("novelty", r#"{"kind": "novelty", "count": 2, "bins": 32}"#),
        ("stride", r#"{"kind": "stride", "count": 2}"#),
        (
            "adaptive",
            r#"{"kind": "adaptive", "threshold": 0.5, "bins": 16}"#,
        ),
    ] {
        let case = json.replace(all, &format!(r#""temporal": {temporal}"#));
        let err = CaseConfig::from_json(&case).expect_err(name);
        assert!(
            err.starts_with("unknown") && err.contains(&format!("variant `{name}`")),
            "{name}: {err}"
        );
    }
}

#[test]
fn zero_counts_are_refused_with_the_field_name() {
    let json = tiny_case().to_json();
    for (from, to, field) in [
        (
            r#""snapshots": 2"#,
            r#""snapshots": 0"#,
            "dataset.snapshots",
        ),
        (
            r#""cube_edge": 8"#,
            r#""cube_edge": 0"#,
            "subsample.cube_edge",
        ),
        (
            r#""num_hypercubes": 4"#,
            r#""num_hypercubes": 0"#,
            "subsample.num_hypercubes",
        ),
        (
            r#""num_samples": 51"#,
            r#""num_samples": 0"#,
            "subsample.num_samples",
        ),
        (r#""bins": 40"#, r#""bins": 0"#, "subsample.method.bins"),
    ] {
        assert!(json.contains(from), "{json}");
        let err = CaseConfig::from_json(&json.replace(from, to)).expect_err(field);
        assert_eq!(err, format!("{field} must be at least 1"));
    }
    assert!(CaseConfig::from_json(&json).is_ok());
    // `Xfull` keeps whole cubes, so its sample count is not a budget.
    let mut full = tiny_case();
    full.subsample.method = PointMethod::Full;
    full.subsample.num_samples = 0;
    assert!(CaseConfig::from_json(&full.to_json()).is_ok());
}

#[test]
fn point_methods_no_case_selects_are_unknown_variants() {
    let json = tiny_case().to_json();
    let maxent = r#""method": {
      "kind": "maxent",
      "num_clusters": 8,
      "bins": 40
    }"#;
    assert!(json.contains(maxent), "{json}");
    for (name, method) in [
        ("uniform", r#"{"kind": "uniform"}"#),
        ("lhs", r#"{"kind": "lhs"}"#),
        ("stratified", r#"{"kind": "stratified", "strata": 8}"#),
        // The deleted `UipsGmm` variant's tag (its `name()` was "uips-gmm").
        ("uipsgmm", r#"{"kind": "uipsgmm", "components": 8}"#),
    ] {
        let case = json.replace(maxent, &format!(r#""method": {method}"#));
        let err = CaseConfig::from_json(&case).expect_err(name);
        assert!(
            err.starts_with("unknown") && err.contains(&format!("variant `{name}`")),
            "{name}: {err}"
        );
    }
}

#[test]
fn values_the_generators_cannot_take_are_refused_with_the_field_name() {
    let json = tiny_case().to_json();
    for (from, to, message) in [
        (
            r#""n": 16"#,
            r#""n": 24"#,
            "dataset.n must be a power of two, not 24",
        ),
        (
            r#""cube_edge": 8"#,
            r#""cube_edge": 32"#,
            "subsample.cube_edge 32 exceeds the grid side 16",
        ),
        (
            r#""cluster_var": "pv""#,
            r#""cluster_var": "omega""#,
            "subsample.cluster_var \"omega\" is not a dataset variable \
             (have: u, v, w, p, r, pv)",
        ),
    ] {
        assert!(json.contains(from), "{json}");
        let err = CaseConfig::from_json(&json.replace(from, to)).expect_err(message);
        assert_eq!(err, message);
    }
    // The whole grid as one cube is still a case.
    let whole = json.replace(r#""cube_edge": 8"#, r#""cube_edge": 16"#);
    assert!(CaseConfig::from_json(&whole).is_ok());
}

#[test]
fn a_case_that_samples_one_cube_in_all_is_refused() {
    // The shipped Fig. 8 case cut down to one snapshot: with one cube kept
    // there is one sample in all, and the train/test split gives it to test.
    let json = std::fs::read_to_string(shipped_configs().join("Hmaxent-Xmaxent-16.json"))
        .unwrap()
        .replace(r#""n": 64"#, r#""n": 32"#)
        .replace(r#""snapshots": 4"#, r#""snapshots": 1"#);
    let one_cube = json.replace(r#""num_hypercubes": 8"#, r#""num_hypercubes": 1"#);
    assert_eq!(
        CaseConfig::from_json(&one_cube).unwrap_err(),
        "dataset.snapshots 1 × subsample.num_hypercubes 1 (whole cubes in the grid: 8) \
         leaves one sample; a case needs two, one to train and one to test"
    );
    // A 16³ grid holds one 16³ cube, however many the case asks for.
    let one_tile = json.replace(r#""n": 32"#, r#""n": 16"#);
    assert_eq!(
        CaseConfig::from_json(&one_tile).unwrap_err(),
        "dataset.snapshots 1 × subsample.num_hypercubes 8 (whole cubes in the grid: 1) \
         leaves one sample; a case needs two, one to train and one to test"
    );
    // Two cubes of one snapshot, or one cube of two, are enough.
    assert!(CaseConfig::from_json(&json).is_ok());
    let two_snapshots = one_tile.replace(r#""snapshots": 1"#, r#""snapshots": 2"#);
    assert!(CaseConfig::from_json(&two_snapshots).is_ok());
}

#[test]
fn cases_on_a_two_dimensional_grid_are_bounded_by_its_shorter_side() {
    let mut case = tiny_case();
    case.dataset = DatasetSpec::Of2d;
    case.subsample.cluster_var = "wz".into();
    case.subsample.cube_edge = 64;
    assert!(CaseConfig::from_json(&case.to_json()).is_ok());
    case.subsample.cube_edge = 65;
    assert_eq!(
        CaseConfig::from_json(&case.to_json()).unwrap_err(),
        "subsample.cube_edge 65 exceeds the grid side 64"
    );
}
