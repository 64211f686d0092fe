//! The five workloads. Each is one function that runs one repetition —
//! untimed set-up, a timed region, then output checks — entirely through the
//! crates' public functions, and reports what it measured as a [`Rep`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use sickle_cfd::datasets::{synthetic_sst_snapshot, SstParams};
use sickle_codec::Codec;
use sickle_core::pipeline::{
    CubeMethod, PointMethod, SamplingConfig, SamplingOutput, TemporalMethod,
};
use sickle_field::{Dataset, DatasetMeta, SampleSet};
use sickle_store::{set_key, ShardKey};

use crate::check::Tally;
use crate::trace::Tracer;

mod curate;
mod datagen;
pub mod pipeline;
pub mod serve;

/// What one repetition is given.
pub struct Ctx<'a> {
    /// Drives every synthetic field, sampling, shuffle and model-init seed.
    pub seed: u64,
    /// Repetition number within the run; repetition 0 also runs the checks
    /// that are too slow to repeat every time.
    pub rep: u32,
    /// Span recorder (disabled on untraced repetitions).
    pub tracer: &'a Tracer,
    /// This process's private scratch directory.
    pub root: &'a Path,
}

impl Ctx<'_> {
    /// A fresh directory under the scratch root.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Untimed fixture time.
    pub setup_s: f64,
    /// The timed region.
    pub wall_s: f64,
    /// The workload's rate of work, in its own unit (see [`Workload`]).
    pub rate: f64,
    /// Client-observed request latencies; empty when the workload's request
    /// is the repetition itself.
    pub op_ms: Vec<f64>,
    /// Per-layer counts and timings read once at the end.
    pub layer: Vec<(&'static str, f64)>,
    /// Values that must come out bit-equal on every repetition of a run.
    pub digests: Vec<(String, u64)>,
    /// Operations attempted and output checks failed.
    pub tally: Tally,
}

/// A named workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What `work_per_s` counts on this workload, under the issue's name
    /// for it, and that name's unit.
    pub rate_name: &'static str,
    pub rate_unit: &'static str,
    /// What `op_p50_ms` times on this workload.
    pub op: &'static str,
    pub run: fn(&Ctx) -> Rep,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "datagen_sst",
        why: "field generation alone: cfd/fft/simd do all the work, nothing else runs",
        rate_name: "gen_mpoint_steps_per_s",
        rate_unit: "Mpoint-step/s",
        op: "one sst_p1f4 call",
        run: datagen::run,
    },
    Workload {
        name: "curate_sst",
        why: "MaxEnt sampling then encode+ingest: core/field/simd dominate, the write use of codec/store",
        rate_name: "curate_mpoints_per_s",
        rate_unit: "Mpoint/s",
        op: "one repetition (four passes of two sampling cases)",
        run: curate::run,
    },
    Workload {
        name: "serve_warm",
        why: "working set fits the cache: server/protocol/cache-hit/tensorize only; bypasses disk, hash, codec",
        rate_name: "batches_per_s",
        rate_unit: "1/s",
        op: "StoreClient::batch",
        run: serve::run_warm,
    },
    Workload {
        name: "serve_cold",
        why: "cache a quarter of the working set, mixed codecs: map+verify+decode+evict on every request",
        rate_name: "batches_per_s",
        rate_unit: "1/s",
        op: "StoreClient::batch",
        run: serve::run_cold,
    },
    Workload {
        name: "pipeline_sst",
        why: "dense field to trained model in natural proportion; small requests with real think time",
        rate_name: "samples_per_s",
        rate_unit: "1/s",
        op: "RemoteDataset::batch",
        run: pipeline::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Times `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// SplitMix64: derives independent seeds for a workload's streams from the
/// one benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hypercube edge used everywhere: 16³ = 4096 points.
pub const CUBE_EDGE: usize = 16;
/// 10 % of a 16³ cube.
pub const TEN_PERCENT: usize = 410;
/// SST feature columns after extraction: `u v w r` + the cluster variable.
pub const SST_VARS: [&str; 4] = ["u", "v", "w", "r"];

/// SST-P1F4 at the benchmark's size. `sst_p1f4` takes no seed (the flow is
/// a Taylor–Green vortex), so the seed perturbs the stratification by up to
/// ±5 %: a different flow at the same cost.
pub fn sst_params(seed: u64) -> SstParams {
    let unit = (mix(seed, 0) >> 11) as f64 / (1u64 << 53) as f64;
    SstParams {
        n: 64,
        n_bv: 2.0 * (0.95 + 0.1 * unit),
        snapshots: 4,
        interval: 5,
        warmup: 10,
        ..SstParams::default()
    }
}

/// Solver steps one [`sst_params`] dataset takes.
pub fn sst_steps(p: &SstParams) -> usize {
    p.warmup + p.snapshots * p.interval
}

/// The curation dataset: two synthetic stratified 128³ snapshots.
///
/// Generated with rayon confined to the calling thread. On the shared pool
/// `synth::generate` is not reproducible: its rms rescaling sums with
/// `par_iter().sum::<f64>()`, and the vendored rayon adds the chunk sums in
/// completion order, so the same seed gave fields that differ in their last
/// bits from one process to the next.
pub fn synthetic_dataset(seed: u64) -> Dataset {
    let meta = DatasetMeta::new(
        "SST-synth",
        "synthetic stratified turbulence, 128^3",
        "pv",
        &SST_VARS,
        &[],
    );
    let confined = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the sequential pool always builds");
    let mut dataset = Dataset::new(meta);
    for i in 0..2u64 {
        let mut snap = confined.install(|| synthetic_sst_snapshot(128, 3.0, mix(seed, 10 + i)));
        snap.time = i as f64;
        dataset.push(snap);
    }
    dataset
}

fn sampling(
    hypercubes: CubeMethod,
    num_hypercubes: usize,
    method: PointMethod,
    num_samples: usize,
    seed: u64,
) -> SamplingConfig {
    SamplingConfig {
        hypercubes,
        num_hypercubes,
        cube_edge: CUBE_EDGE,
        method,
        num_samples,
        cluster_var: "pv".into(),
        feature_vars: SST_VARS.iter().map(|s| s.to_string()).collect(),
        seed,
        temporal: TemporalMethod::All,
    }
}

/// Fig.-8 `Hmaxent-Xmaxent`: MaxEnt cubes, MaxEnt points (k = 20, 100
/// bins), 10 % of each cube.
pub fn maxent_case(cubes: usize, seed: u64) -> SamplingConfig {
    let method = PointMethod::MaxEnt {
        num_clusters: 20,
        bins: 100,
    };
    sampling(CubeMethod::MaxEnt, cubes, method, TEN_PERCENT, seed)
}

/// Fig.-8 `Hrandom-Xfull`: random cubes kept whole.
pub fn dense_case(cubes: usize, seed: u64) -> SamplingConfig {
    let full = CUBE_EDGE.pow(3);
    sampling(CubeMethod::Random, cubes, PointMethod::Full, full, seed)
}

/// An output's sample sets under their `(snapshot, cube)` store keys, in the
/// store's canonical key order.
pub fn canonical_sets(out: &SamplingOutput) -> Vec<((usize, usize), &SampleSet)> {
    let mut sets: Vec<_> = out
        .sets
        .iter()
        .flat_map(|snap| snap.iter().enumerate())
        .map(|(position, set)| {
            let key = set_key(set, position);
            ((key.snapshot, key.cube), set)
        })
        .collect();
    sets.sort_unstable_by_key(|(key, _)| *key);
    sets
}

/// The mixed-codec ingest policy: identity, f16, u8 and resim in turn over
/// the output's shards in key order. (By rank, not by `cube % 4`: which
/// cubes a seed selects would otherwise decide how many shards get the
/// codec that decodes ten times slower, and so what a workload costs.)
pub fn mixed_codecs(out: &SamplingOutput) -> impl Fn(ShardKey) -> Codec {
    let keys: Vec<(usize, usize)> = canonical_sets(out)
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    move |key| match keys.binary_search(&(key.snapshot, key.cube)).unwrap_or(0) % 4 {
        0 => Codec::Identity,
        1 => Codec::F16,
        2 => Codec::U8Block,
        _ => Codec::resim_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_differ_and_repeat() {
        assert_eq!(mix(8, 0), mix(8, 0));
        assert_ne!(mix(8, 0), mix(8, 1));
        assert_ne!(mix(8, 0), mix(9, 0));
        let p = sst_params(8);
        assert!((1.9..=2.1).contains(&p.n_bv), "{}", p.n_bv);
        assert_eq!(sst_steps(&p), 30);
        assert_ne!(sst_params(8).n_bv, sst_params(9).n_bv);
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
    }
}
