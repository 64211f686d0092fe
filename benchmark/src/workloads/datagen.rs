//! `datagen_sst`: one SST-P1F4 dataset, 64³ × 4 snapshots — 30 spectral
//! steps plus the derived potential vorticity. Only `cfd`, `fft`, `simd` and
//! `field::derived` run.

use sickle_cfd::datasets::{mean_kinetic_energy, sst_p1f4, SstParams};

use super::{sst_params, sst_steps, timed, Ctx, Rep};
use crate::check::{dataset_digest, Tally};

pub fn run(ctx: &Ctx) -> Rep {
    // Set-up: a small untimed dataset, so the thread pool, the FFT plans'
    // code paths and the allocator are warm before the clock starts.
    let ((), setup_s) = timed(|| {
        let warm = sst_p1f4(&SstParams {
            n: 32,
            snapshots: 2,
            interval: 5,
            warmup: 10,
            ..SstParams::default()
        });
        std::hint::black_box(&warm);
    });

    let params = sst_params(ctx.seed);
    let (dataset, wall_s) = timed(|| {
        let _rep = ctx.tracer.root();
        let _s = ctx.tracer.span("sst_p1f4", "cfd");
        sst_p1f4(std::hint::black_box(&params))
    });

    let mut tally = Tally::default();
    tally.ok(1);
    tally.check(dataset.num_snapshots() == params.snapshots, || {
        format!(
            "{} snapshots, expected {}",
            dataset.num_snapshots(),
            params.snapshots
        )
    });
    for (i, snap) in dataset.snapshots.iter().enumerate() {
        for (name, values) in snap.names.iter().zip(&snap.vars) {
            tally.check(values.iter().all(|v| v.is_finite()), || {
                format!("snapshot {i}: non-finite value in {name}")
            });
        }
        let ke = mean_kinetic_energy(snap);
        tally.check(ke.is_finite() && ke > 0.0, || {
            format!("snapshot {i}: mean kinetic energy {ke}")
        });
    }

    let mpoint_steps = (params.n.pow(3) * sst_steps(&params)) as f64 / 1e6;
    Rep {
        setup_s,
        wall_s,
        rate: mpoint_steps / wall_s,
        digests: vec![("dataset".into(), dataset_digest(&dataset))],
        tally,
        ..Rep::default()
    }
}
