//! Per-layer probes: short timings of one public function each, on fixed
//! seeded fixtures of the workloads' own shapes (64³ and 128³ stratified
//! fields, 16³ × 5-feature cubes, dense 196 KB shards, the pipeline's
//! model). They run after the traced repetition of every workload, so every
//! traced run reports every layer; the workload's own counters and ledger
//! say how much of each layer that workload used.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sickle_cfd::datasets::synthetic_sst_snapshot;
use sickle_cfd::spectral::{SpectralConfig, SpectralSolver, Stratification};
use sickle_codec::{decode_shard, encode_shard, Codec};
use sickle_core::pipeline::run_dataset;
use sickle_core::samplers::{MaxEntSampler, PointSampler};
use sickle_core::{HypercubeSelector, KMeans, KMeansConfig};
use sickle_fft::{rfft3d_flops, Complex, RealFft3d};
use sickle_field::derived::potential_vorticity;
use sickle_field::io::{decode_sample_sets_view, fnv1a64};
use sickle_field::{Axis, Dataset, DatasetMeta, SampleSet, Snapshot, Tiling};
use sickle_nn::optim::Adam;
use sickle_nn::{gemm, Tape};
use sickle_store::{serve, ShardStore, StoreClient, StoreConfig};
use sickle_train::{Batch, BatchShape, Model, TokenTransformer};

use crate::check::Tally;
use crate::stats::median;
use crate::workloads::pipeline::{BATCH, LEARNING_RATE, MODEL_DEPTH, MODEL_DIM};
use crate::workloads::serve::{client_config, serve_config, TOKENS};
use crate::workloads::{dense_case, maxent_case, mix, timed, CUBE_EDGE, SST_VARS, TEN_PERCENT};

type Rows = Vec<(&'static str, f64)>;

/// Median seconds of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn extraction_vars() -> Vec<String> {
    SST_VARS
        .iter()
        .chain(&["pv"])
        .map(|s| s.to_string())
        .collect()
}

fn single_snapshot_dataset(snap: Snapshot) -> Dataset {
    let meta = DatasetMeta::new("probe", "probe fixture", "pv", &SST_VARS, &[]);
    let mut dataset = Dataset::new(meta);
    dataset.push(snap);
    dataset
}

/// One dense 16³ cube as a sample set (the shard shape the serving
/// workloads store).
fn dense_cube(snap: &Snapshot, tile: usize) -> SampleSet {
    let tiling = Tiling::cubic(snap.grid, CUBE_EDGE);
    let (features, indices) = tiling.extract(snap, tile, &extraction_vars());
    SampleSet::new(features, indices, snap.time, 0).with_hypercube(tile)
}

fn cfd(seed: u64, rows: &mut Rows, tally: &mut Tally) -> Snapshot {
    let mut solver = SpectralSolver::new(SpectralConfig {
        n: 64,
        stratification: Stratification::Boussinesq {
            n_bv: 2.0,
            gravity: Axis::Z,
        },
        ..SpectralConfig::default()
    });
    solver.init_taylor_green(1.0);
    solver.run(2);
    rows.push((
        "cfd.spectral_step_ms",
        1e3 * median_secs(8, || solver.step()),
    ));
    let div = solver.max_divergence();
    tally.check(div < 1e-8, || {
        format!("spectral solver divergence {div:e} after 10 steps")
    });

    let (snap, secs) = timed(|| synthetic_sst_snapshot(128, 3.0, mix(seed, 40)));
    rows.push(("cfd.synth_snapshot_s", secs));
    snap
}

fn fft(rows: &mut Rows) {
    let plan = RealFft3d::new(64, 64, 64);
    let mut real: Vec<f64> = (0..plan.len()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
    let secs = median_secs(20, || {
        plan.forward(&real, &mut spec);
        plan.inverse(&mut spec, &mut real);
    });
    rows.push(("fft.rfft3d_64_roundtrip_ms", 1e3 * secs));
    // Computed, not counted: the analytic 5·N·log2 N estimate, both ways.
    rows.push((
        "fft.rfft3d_64_gflops",
        2.0 * rfft3d_flops(64, 64, 64) as f64 / secs / 1e9,
    ));
}

fn simd(seed: u64, rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 41));
    let values: Vec<f64> = (0..1 << 20).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut out = vec![0u32; values.len()];
    let secs = median_secs(20, || {
        sickle_simd::bin_indices(&values, -1.0, 1.0, 100, &mut out)
    });
    rows.push((
        "simd.bin_indices_ns_per_point",
        1e9 * secs / values.len() as f64,
    ));
}

fn field(snap64: &Snapshot, shard: &[u8], rows: &mut Rows) {
    let (u, v, w, r) = (
        snap64.expect_var("u"),
        snap64.expect_var("v"),
        snap64.expect_var("w"),
        snap64.expect_var("r"),
    );
    let secs = median_secs(10, || potential_vorticity(&snap64.grid, u, v, w, r));
    rows.push(("field.derived_pv_ms", 1e3 * secs));

    let tiling = Tiling::cubic(snap64.grid, CUBE_EDGE);
    let vars = extraction_vars();
    let mut tile = 0;
    let secs = median_secs(tiling.len(), || {
        tile += 1;
        tiling.extract(snap64, tile - 1, &vars)
    });
    rows.push(("field.tile_extract_us", 1e6 * secs));

    let secs = median_secs(200, || {
        decode_sample_sets_view(shard)
            .expect("probe shard decodes")
            .len()
    });
    rows.push(("field.sklh_view_decode_us", 1e6 * secs));
    let secs = median_secs(50, || fnv1a64(shard));
    rows.push(("field.fnv1a64_mb_per_s", shard.len() as f64 / 1e6 / secs));
}

fn core(seed: u64, snap128: &Snapshot, rows: &mut Rows) {
    let tiling = Tiling::cubic(snap128.grid, CUBE_EDGE);
    let mut rng = StdRng::seed_from_u64(mix(seed, 42));
    let secs = median_secs(3, || {
        HypercubeSelector::maxent_default().select(
            &tiling,
            snap128,
            "pv",
            tiling.len() / 4,
            &mut rng,
        )
    });
    rows.push(("core.phase1_select_ms", 1e3 * secs));

    let vars = extraction_vars();
    let cluster_col = vars.len() - 1;
    let cubes: Vec<_> = (0..16)
        .map(|t| tiling.extract(snap128, 31 * t, &vars).0)
        .collect();
    let sampler = MaxEntSampler::default();
    let mut cube = cubes.iter().cycle();
    let secs = median_secs(cubes.len(), || {
        sampler.select(
            cube.next().expect("cycle"),
            cluster_col,
            TEN_PERCENT,
            &mut rng,
        )
    });
    rows.push(("core.phase2_cube_ms", 1e3 * secs));

    let values = cubes[0].column(cluster_col);
    let cfg = KMeansConfig {
        k: sampler.num_clusters,
        batch_size: sampler.batch_size,
        iterations: sampler.iterations,
        seed: mix(seed, 43),
    };
    rows.push((
        "core.kmeans_fit_ms",
        1e3 * median_secs(16, || KMeans::fit(&values, 1, &cfg)),
    ));
}

fn hpc(seed: u64, snap128: Snapshot, rows: &mut Rows) {
    let cfg = maxent_case(64, mix(seed, 44));
    let dataset = single_snapshot_dataset(snap128);
    let (mut serial, mut ranked, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        serial.push(timed(|| black_box(run_dataset(&dataset, &cfg))).1);
        let (timing, secs) = timed(|| sickle_hpc::run_with_ranks(&dataset.snapshots[0], &cfg, 2));
        ranked.push(secs);
        imbalance.push(timing.imbalance());
    }
    rows.push(("hpc.ranked2_over_serial", median(&ranked) / median(&serial)));
    rows.push(("hpc.imbalance", median(&imbalance)));
}

fn codec(cube: &SampleSet, rows: &mut Rows) {
    // (codec, encode metric, decode metric, bytes-ratio metric)
    let table = [
        (
            Codec::Identity,
            "codec.encode_mb_per_s.identity",
            "codec.decode_mb_per_s.identity",
            None,
        ),
        (
            Codec::F16,
            "codec.encode_mb_per_s.f16",
            "codec.decode_mb_per_s.f16",
            Some("codec.bytes_ratio.f16"),
        ),
        (
            Codec::U8Block,
            "codec.encode_mb_per_s.u8",
            "codec.decode_mb_per_s.u8",
            Some("codec.bytes_ratio.u8"),
        ),
        (
            Codec::resim_default(),
            "codec.encode_mb_per_s.resim",
            "codec.decode_mb_per_s.resim",
            Some("codec.bytes_ratio.resim"),
        ),
    ];
    // Throughput and ratio are over decoded bytes: one u64 index plus the
    // f64 features of every row, whatever the codec stores.
    let decoded_bytes = (cube.len() * (8 + 8 * cube.features.dim())) as f64;
    let sets = std::slice::from_ref(cube);
    for (codec, encode, decode, ratio) in table {
        let bytes = encode_shard(sets, codec);
        let secs = median_secs(10, || encode_shard(sets, codec));
        rows.push((encode, decoded_bytes / 1e6 / secs));
        let secs = median_secs(10, || decode_shard(&bytes).expect("probe shard decodes"));
        rows.push((decode, decoded_bytes / 1e6 / secs));
        if let Some(ratio) = ratio {
            rows.push((ratio, decoded_bytes / bytes.len() as f64));
        }
    }
}

fn store(seed: u64, snap64: Snapshot, root: &Path, rows: &mut Rows) {
    let dataset = single_snapshot_dataset(snap64);
    let tiles = Tiling::cubic(dataset.grid(), CUBE_EDGE).len();
    let out = run_dataset(&dataset, &dense_case(tiles, mix(seed, 45)));
    let root = root.join("probe-store");
    let (ingested, secs) = timed(|| ShardStore::ingest(&root, &out, StoreConfig::default()));
    let ingested = ingested.expect("ingest probe store");
    rows.push((
        "store.ingest_mb_per_s",
        ingested.manifest().total_bytes() as f64 / 1e6 / secs,
    ));
    let keys = ingested.keys();
    drop(ingested);

    let open = || ShardStore::open(&root, StoreConfig::default()).expect("open probe store");
    rows.push(("store.open_ms", 1e3 * median_secs(5, open)));

    // Every key once through a fresh handle: each call is a miss.
    let fresh = open();
    let mut key = keys.iter();
    let secs = median_secs(keys.len(), || {
        fresh
            .shard_handle(*key.next().expect("key"))
            .expect("map shard")
    });
    rows.push(("store.shard_handle_miss_us", 1e6 * secs));
    let resident = open();
    let mut key = keys.iter();
    let secs = median_secs(keys.len(), || {
        resident.get(*key.next().expect("key")).expect("read shard")
    });
    rows.push(("store.get_miss_us", 1e6 * secs));

    // Now everything is resident: a hit is a lock and an `Arc` clone, so it
    // is reported as a latency, a whole pass per sample.
    let pass = || {
        keys.iter()
            .map(|&k| resident.get(k).expect("hit").len())
            .sum::<usize>()
    };
    rows.push((
        "store.get_hit_ns",
        1e9 * median_secs(50, pass) / keys.len() as f64,
    ));
    let mut key = keys.iter().cycle();
    let secs = median_secs(4 * keys.len(), || {
        resident
            .tensorized(*key.next().expect("key"), TOKENS)
            .expect("tensorize")
    });
    rows.push(("store.tensorized_us", 1e6 * secs));

    let mut server = serve(Arc::new(resident), serve_config()).expect("bind probe server");
    let mut client = StoreClient::new(server.addr().to_string(), client_config(mix(seed, 46)));
    let ping = || client.tensors(1, &keys[..1]).expect("ping");
    rows.push(("store.server.ping_p50_us", 1e6 * median_secs(500, ping)));
    server.shutdown();
}

fn nn(seed: u64, rows: &mut Rows) {
    let features = SST_VARS.len() + 1;
    let mut model = TokenTransformer::mlp_transformer(
        TOKENS,
        features,
        MODEL_DIM,
        MODEL_DEPTH,
        features,
        mix(seed, 47),
    );
    let mut rng = StdRng::seed_from_u64(mix(seed, 48));
    let batch = Batch {
        inputs: (0..BATCH * TOKENS * features)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
        targets: (0..BATCH * features)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
        shape: BatchShape {
            batch: BATCH,
            tokens: TOKENS,
            features,
            outputs: features,
        },
    };
    let (mut opt, mut tape) = (Adam::new(LEARNING_RATE), Tape::new());
    let (mut forward, mut backward, mut optim) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..60 {
        tape.reset();
        let (loss, secs) = timed(|| model.loss_on_batch(&mut tape, &batch));
        forward.push(secs);
        backward.push(
            timed(|| {
                tape.backward(loss);
                tape.accumulate_grads(model.store_mut());
            })
            .1,
        );
        optim.push(
            timed(|| {
                opt.step(model.store_mut());
                model.store_mut().zero_grads();
            })
            .1,
        );
    }
    // The first ten steps grow the tape's arena; the rest are steady state.
    rows.push(("nn.forward_ms", 1e3 * median(&forward[10..])));
    rows.push(("nn.backward_ms", 1e3 * median(&backward[10..])));
    rows.push(("nn.optim_ms", 1e3 * median(&optim[10..])));

    let n = 256;
    let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut c = vec![0.0f32; n * n];
    let secs = median_secs(10, || gemm::matmul_into(&mut c, &a, &b, n, n, n, false));
    rows.push(("nn.gemm_256_gflops", 2.0 * (n * n * n) as f64 / secs / 1e9));
}

/// Runs every probe; `root` is scratch space for the probe store.
pub fn run_all(seed: u64, root: &Path) -> (Rows, Tally) {
    let (mut rows, mut tally) = (Rows::new(), Tally::default());
    let snap128 = cfd(seed, &mut rows, &mut tally);
    let snap64 = synthetic_sst_snapshot(64, 3.0, mix(seed, 49));
    let cube = dense_cube(&snap64, 21);
    let shard = encode_shard(std::slice::from_ref(&cube), Codec::Identity);
    fft(&mut rows);
    simd(seed, &mut rows);
    field(&snap64, &shard, &mut rows);
    core(seed, &snap128, &mut rows);
    hpc(seed, snap128, &mut rows);
    codec(&cube, &mut rows);
    store(seed, snap64, root, &mut rows);
    nn(seed, &mut rows);
    (rows, tally)
}
