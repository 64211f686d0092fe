//! `pipeline_sst`: the paper's whole path in natural proportion. A dense
//! SST-P1F4 field (set-up) is MaxEnt-sampled, ingested, reopened, served over
//! loopback and streamed through `RemoteDataset` into 3200 Adam steps of a
//! small MLP-Transformer. Training is most of the wall clock; the data plane
//! sees small `GetBatch` requests with real think time between them, which
//! is the only steady way to observe the server's scheduling latency.

use std::sync::Arc;
use std::time::Instant;

use sickle_bench::sampling_energy;
use sickle_cfd::datasets::sst_p1f4;
use sickle_core::pipeline::run_dataset;
use sickle_energy::{EnergyMeter, MachineModel};
use sickle_field::SampleSet;
use sickle_nn::optim::Adam;
use sickle_nn::{flops, Tape};
use sickle_store::batching::local_batch;
use sickle_store::{serve, BatchSpec, ShardStore, StoreClient, StoreConfig};
use sickle_train::{Model, RemoteDataset, TokenTransformer};

use super::serve::{client_config, serve_config, server_layer, TOKENS};
use super::{canonical_sets, maxent_case, mix, sst_params, timed, Ctx, Rep};
use crate::check::{output_digest, Digest, Tally};
use crate::stats;

/// Cubes kept per snapshot, of the 64 a 64³ grid tiles into.
const CUBES: usize = 32;
pub const EPOCHS: usize = 100;
pub const BATCH: usize = 4;
pub const MODEL_DIM: usize = 32;
pub const MODEL_DEPTH: usize = 1;
pub const LEARNING_RATE: f32 = 1e-3;
/// `final_loss` must end below this on every seed: the untrained model
/// starts near 0.5 and a run that learns nothing stays there.
const LOSS_CEILING: f64 = 0.05;

pub fn run(ctx: &Ctx) -> Rep {
    let mut tally = Tally::default();
    let (dataset, setup_s) = timed(|| sst_p1f4(&sst_params(ctx.seed)));
    let cfg = maxent_case(CUBES, mix(ctx.seed, 20));
    let root = ctx.dir("store");
    let mut op_ms = Vec::with_capacity(EPOCHS * 32);
    let mut step_ms = Vec::with_capacity(EPOCHS * 32);

    let t_wall = Instant::now();
    let rep_span = ctx.tracer.root();
    let out = {
        let _s = ctx.tracer.span("run_dataset", "core");
        run_dataset(&dataset, &cfg)
    };
    let stored_bytes = {
        let _s = ctx.tracer.span("ingest", "store");
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest shards");
        store.manifest().total_bytes()
    };
    let store = {
        let _s = ctx.tracer.span("open", "store");
        Arc::new(ShardStore::open(&root, StoreConfig::default()).expect("open store"))
    };
    let mut server = {
        let _s = ctx.tracer.span("serve", "store");
        serve(store, serve_config()).expect("bind loopback server")
    };
    let addr = server.addr().to_string();
    let mut remote = {
        let _s = ctx.tracer.span("connect", "train");
        RemoteDataset::connect(addr.clone(), TOKENS, client_config(mix(ctx.seed, 90)))
            .expect("connect to loopback server")
    };
    let mut control = StoreClient::new(addr, client_config(0));
    let before = control.stats().expect("stats before");

    let (mut model, mut opt, mut tape) = {
        let _s = ctx.tracer.span("model_init", "train");
        let features = remote.features;
        let model = TokenTransformer::mlp_transformer(
            TOKENS,
            features,
            MODEL_DIM,
            MODEL_DEPTH,
            features,
            mix(ctx.seed, 30),
        );
        (model, Adam::new(LEARNING_RATE), Tape::new())
    };
    let batches = remote.num_batches(BATCH);
    let param_bytes = (model.num_params() * 2 * std::mem::size_of::<f32>()) as u64;
    let meter = EnergyMeter::new(MachineModel::frontier_gcd());
    flops::reset();

    let t_train = Instant::now();
    let (mut fetch_s, mut nn_s, mut samples) = (0.0, 0.0, 0usize);
    let mut epoch0 = Digest::default();
    let mut final_loss = f64::NAN;
    for epoch in 0..EPOCHS {
        let mut epoch_loss = 0.0f64;
        for i in 0..batches {
            let t0 = Instant::now();
            let batch = {
                let _s = ctx.tracer.span("batch", "store");
                remote
                    .batch(mix(ctx.seed, 1000 + epoch as u64), BATCH, i)
                    .expect("fetch batch")
            };
            let t1 = Instant::now();
            if epoch == 0 {
                let _s = ctx.tracer.span("digest", "check");
                epoch0.batch(&batch.inputs, &batch.targets);
            }
            let t2 = Instant::now();
            tape.reset();
            let loss = {
                let _s = ctx.tracer.span("loss_on_batch", "nn");
                model.loss_on_batch(&mut tape, &batch)
            };
            epoch_loss += f64::from(tape.value(loss)[0]);
            {
                let _s = ctx.tracer.span("backward+accumulate_grads", "nn");
                tape.backward(loss);
                tape.accumulate_grads(model.store_mut());
            }
            {
                let _s = ctx.tracer.span("step+zero_grads", "nn");
                opt.step(model.store_mut());
                model.store_mut().zero_grads();
            }
            let t3 = Instant::now();
            // The trainer's byte accounting (`sickle_train::train`): one
            // read of the batch, one parameter read + write per step.
            meter.record_bytes(param_bytes + 4 * (batch.inputs.len() + batch.targets.len()) as u64);
            samples += batch.shape.batch;
            op_ms.push((t1 - t0).as_secs_f64() * 1e3);
            step_ms.push((t3 - t2).as_secs_f64() * 1e3);
            fetch_s += (t1 - t0).as_secs_f64();
            nn_s += (t3 - t2).as_secs_f64();
        }
        final_loss = epoch_loss / batches as f64;
    }
    let train_s = t_train.elapsed().as_secs_f64();
    drop(rep_span);
    let wall_s = t_wall.elapsed().as_secs_f64();

    let train_flops = flops::reset();
    meter.record_flops(train_flops);
    let train_energy = meter.report();
    let sampling = sampling_energy(&out.stats, &cfg);
    let after = control.stats().expect("stats after");
    server.shutdown();
    let steps = step_ms.len();
    tally.ok(steps as u64);

    // Epoch 0 as streamed must be, bit for bit, what an in-memory trainer
    // would assemble from the sampled sets in canonical key order.
    let sets: Vec<Arc<SampleSet>> = canonical_sets(&out)
        .into_iter()
        .map(|(_, set)| Arc::new(set.clone()))
        .collect();
    let spec = BatchSpec {
        seed: mix(ctx.seed, 1000),
        batch_size: BATCH,
        tokens: TOKENS,
    };
    let mut local = Digest::default();
    for i in 0..batches {
        let batch = local_batch(&sets, spec, i).expect("local batch");
        local.batch(&batch.inputs, &batch.targets);
    }
    tally.check(local == epoch0, || {
        "epoch 0 streamed over the wire differs from the in-memory batches".into()
    });
    tally.check(final_loss.is_finite() && final_loss < LOSS_CEILING, || {
        format!("final_loss {final_loss} is not below {LOSS_CEILING}")
    });

    let mut layer = vec![
        ("core.points_in", out.stats.points_in as f64),
        ("core.points_out", out.stats.points_out as f64),
        ("core.retention", out.stats.retention()),
        (
            "store.stored_bytes_per_point",
            stored_bytes as f64 / out.stats.points_out as f64,
        ),
        ("nn.flops_per_step", train_flops as f64 / steps as f64),
        ("nn.achieved_gflops", train_flops as f64 / nn_s / 1e9),
        ("train.steps", steps as f64),
        ("train.samples", samples as f64),
        ("train.step_ms", stats::median(&step_ms)),
        ("train.data_wait_frac", fetch_s / train_s),
        ("train.final_loss", final_loss),
        ("energy.sampling_joules", sampling.total_joules()),
        ("energy.train_joules", train_energy.total_joules()),
        (
            "energy.modeled_joules",
            sampling.total_joules() + train_energy.total_joules(),
        ),
        (
            "energy.modeled_secs",
            sampling.modeled_secs + train_energy.modeled_secs,
        ),
    ];
    layer.extend(server_layer(&before, &after, 0, &op_ms));
    Rep {
        setup_s,
        wall_s,
        rate: samples as f64 / train_s,
        op_ms,
        layer,
        digests: vec![
            ("sampled".into(), output_digest(&out)),
            ("final_loss".into(), final_loss.to_bits()),
        ],
        tally,
    }
}
