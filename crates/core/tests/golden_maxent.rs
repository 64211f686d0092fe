//! Golden-regression tests for the two-phase MaxEnt sampler: the phase-1
//! hypercube selection and phase-2 retained point indices on seeded
//! synthetic snapshots are pinned to committed JSON files. Any algorithmic
//! drift — a changed RNG stream, a reordered reduction, a tweaked entropy
//! estimate — shows up as a readable diff, not a silent behavior change.
//!
//! Three cases:
//! - `maxent_16cube.json`: 8³ cubes of a 16³ field, small k and bins. Its
//!   cubes have 512 rows, no more than one k-means batch.
//! - `maxent_fig8_64grid.json`: the Fig.-8 `Hmaxent-Xmaxent` parameters the
//!   benchmark's `maxent_case` runs (16³ cubes, k = 20, 100 bins, 10 % kept)
//!   on a 64³ stratified field. Its 4096-row cubes exceed the 1024-row batch,
//!   so k-means' shuffle branch is pinned.
//! - `maxent_fig8_40grid.json`: the same parameters on a 40³ grid, which
//!   16³ cubes do not tile exactly. Extreme values planted in the trailing
//!   points that no tile covers pin that phase 1 leaves them out of its
//!   value range and counts.
//!
//! To intentionally re-baseline after a deliberate algorithm change:
//!
//! ```text
//! SICKLE_UPDATE_GOLDEN=1 cargo test -p sickle-core --test golden_maxent
//! ```

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use sickle_cfd::datasets::synthetic_sst_snapshot;
use sickle_cfd::synth::{generate, SynthConfig};
use sickle_core::pipeline::{
    run_snapshot, CubeMethod, PointMethod, SamplingConfig, TemporalMethod,
};
use sickle_field::{Grid3, Snapshot};

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct GoldenCube {
    /// Phase-1 selected hypercube id, in selection order.
    cube: usize,
    /// Phase-2 retained grid-point indices for this cube, in retention order.
    indices: Vec<usize>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    description: String,
    grid: Vec<usize>,
    synth_seed: usize,
    sampling_seed: usize,
    cubes: Vec<GoldenCube>,
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// Runs one snapshot through the pipeline and records what it kept.
fn record(description: &str, snap: &Snapshot, cfg: &SamplingConfig, synth_seed: u64) -> Golden {
    let sets = run_snapshot(snap, 0, cfg);
    let g = snap.grid;
    Golden {
        description: description.to_string(),
        grid: vec![g.nx, g.ny, g.nz],
        synth_seed: synth_seed as usize,
        sampling_seed: cfg.seed as usize,
        cubes: sets
            .iter()
            .map(|s| GoldenCube {
                cube: s.hypercube.expect("phase-1 cube id"),
                indices: s.indices.clone(),
            })
            .collect(),
    }
}

fn compute_golden() -> Golden {
    let synth = SynthConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        ..SynthConfig::default()
    };
    let snap = generate(&synth, 42);
    let cfg = SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes: 4,
        cube_edge: 8,
        method: PointMethod::MaxEnt {
            num_clusters: 5,
            bins: 32,
        },
        num_samples: 40,
        cluster_var: "u".to_string(),
        feature_vars: vec!["u".to_string(), "v".to_string(), "w".to_string()],
        seed: 42,
        temporal: TemporalMethod::All,
    };
    record(
        "MaxEnt phase-1 cube selection + phase-2 retained points, \
         16^3 synthetic HIT snapshot (synth seed 42, sampling seed 42)",
        &snap,
        &cfg,
        42,
    )
}

/// The Fig.-8 `Hmaxent-Xmaxent` case as the benchmark's `maxent_case`
/// builds it: MaxEnt cubes, MaxEnt points (k = 20, 100 bins), 410 of each
/// 16³ cube's 4096 points, clustered on `pv`.
fn fig8_config(num_hypercubes: usize, seed: u64) -> SamplingConfig {
    SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes,
        cube_edge: 16,
        method: PointMethod::MaxEnt {
            num_clusters: 20,
            bins: 100,
        },
        num_samples: 410,
        cluster_var: "pv".to_string(),
        feature_vars: ["u", "v", "w", "r"].map(String::from).to_vec(),
        seed,
        temporal: TemporalMethod::All,
    }
}

/// A synthetic stratified snapshot, generated on one rayon thread: the
/// generator's parallel sums chunk by thread count, so the shared pool
/// would tie the field's last bits to the host.
fn sst_snapshot(n: usize, seed: u64) -> Snapshot {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the sequential pool always builds")
        .install(|| synthetic_sst_snapshot(n, 3.0, seed))
}

fn fig8_golden() -> Golden {
    let snap = sst_snapshot(64, 7);
    record(
        "Fig.-8 Hmaxent-Xmaxent (16^3 cubes, k = 20, 100 bins, 410 points), \
         16 of the 64 cubes of a 64^3 synthetic stratified snapshot \
         (synth seed 7, sampling seed 11)",
        &snap,
        &fig8_config(16, 11),
        7,
    )
}

/// The `n³` corner of `snap`, every variable kept (the generator only
/// makes power-of-two grids).
fn corner(snap: &Snapshot, n: usize) -> Snapshot {
    let g = snap.grid;
    let small = Grid3::new(n, n, n, g.lx, g.ly, g.lz);
    let mut out = Snapshot::new(small, snap.time);
    for (name, data) in snap.names.iter().zip(&snap.vars) {
        let mut v = Vec::with_capacity(small.len());
        for x in 0..n {
            for y in 0..n {
                v.extend_from_slice(&data[g.idx(x, y, 0)..g.idx(x, y, n)]);
            }
        }
        out.push_var(name, v);
    }
    out
}

fn ragged_golden() -> Golden {
    let mut snap = corner(&sst_snapshot(64, 5), 40);
    // Points with any coordinate >= 32 lie outside the 2 x 2 x 2 tiles.
    // Extremes planted there would widen the phase-1 range if it read them.
    let g = snap.grid;
    let slot = snap
        .names
        .iter()
        .position(|n| n == "pv")
        .expect("pv present");
    let pv = &mut snap.vars[slot];
    pv[g.idx(39, 39, 39)] = 1.0e6;
    pv[g.idx(0, 0, 35)] = -1.0e6;
    pv[g.idx(33, 2, 7)] = 5.0e5;
    record(
        "Fig.-8 Hmaxent-Xmaxent (16^3 cubes, k = 20, 100 bins, 410 points), \
         3 of the 8 cubes of a 40^3 synthetic stratified snapshot that 16^3 \
         does not tile, with pv extremes planted in untiled points \
         (synth seed 5, sampling seed 13)",
        &snap,
        &fig8_config(3, 13),
        5,
    )
}

/// A human-readable description of how `actual` drifted from `expected`.
fn diff_report(expected: &Golden, actual: &Golden) -> String {
    let mut report = String::new();
    let exp_cubes: Vec<usize> = expected.cubes.iter().map(|c| c.cube).collect();
    let act_cubes: Vec<usize> = actual.cubes.iter().map(|c| c.cube).collect();
    if exp_cubes != act_cubes {
        report.push_str(&format!(
            "phase-1 cube selection drifted:\n  expected {exp_cubes:?}\n  actual   {act_cubes:?}\n"
        ));
    }
    for (e, a) in expected.cubes.iter().zip(&actual.cubes) {
        if e.cube != a.cube || e.indices == a.indices {
            continue;
        }
        let first_diff = e
            .indices
            .iter()
            .zip(&a.indices)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| e.indices.len().min(a.indices.len()));
        report.push_str(&format!(
            "phase-2 points drifted in cube {}: {} expected vs {} actual points, \
             first difference at position {} (expected {:?}, actual {:?})\n",
            e.cube,
            e.indices.len(),
            a.indices.len(),
            first_diff,
            e.indices.get(first_diff),
            a.indices.get(first_diff),
        ));
    }
    report
}

/// Compares `actual` with the committed golden `file`, or rewrites the
/// file under `SICKLE_UPDATE_GOLDEN=1`.
fn check_golden(file: &str, actual: &Golden) {
    let path = golden_path(file);
    if std::env::var("SICKLE_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(actual).unwrap();
        std::fs::write(&path, json).unwrap();
        println!("golden regenerated at {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {} ({e}); regenerate with SICKLE_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Golden = serde_json::from_str(&text).expect("golden parses");
    if &expected != actual {
        let report = diff_report(&expected, actual);
        panic!(
            "MaxEnt sampling drifted from the committed golden {file}.\n{report}\
             If this change is intentional, re-baseline with:\n  \
             SICKLE_UPDATE_GOLDEN=1 cargo test -p sickle-core --test golden_maxent"
        );
    }
}

#[test]
fn maxent_selection_matches_committed_golden() {
    check_golden("maxent_16cube.json", &compute_golden());
}

#[test]
fn fig8_case_matches_committed_golden() {
    check_golden("maxent_fig8_64grid.json", &fig8_golden());
}

#[test]
fn ragged_tiling_matches_committed_golden() {
    check_golden("maxent_fig8_40grid.json", &ragged_golden());
}

#[test]
fn golden_run_is_reproducible_in_process() {
    // The golden only makes sense if the computation is deterministic within
    // one build; two back-to-back runs must agree exactly.
    assert_eq!(compute_golden(), compute_golden());
    assert_eq!(ragged_golden(), ragged_golden());
}
