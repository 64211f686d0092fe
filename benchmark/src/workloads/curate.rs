//! `curate_sst`: four curation passes over two synthetic 128³ snapshots.
//! A pass is two Fig.-8 sampling cases under their own seeds, each encoded
//! and ingested into a fresh shard store with mixed codecs. `core`/`field`/
//! `simd` carry the MaxEnt case; `codec` encode and `store` ingest carry the
//! dense one. `cfd`, `nn` and the server are idle.
//!
//! One pass is half a second against two seconds of set-up, so a repetition
//! makes four; the output checks of a pass run right after it, inside the
//! timed region, and show as the ledger's `check` row (about 1 %).

use sickle_bench::sampling_energy;
use sickle_core::pipeline::{run_dataset, SamplingConfig};
use sickle_hpc::{run_dataset_with_ranks, FaultInjector, RetryPolicy};
use sickle_store::{ShardStore, StoreConfig};

use super::{
    dense_case, maxent_case, mix, mixed_codecs, synthetic_dataset, timed, Ctx, Rep, CUBE_EDGE,
};
use crate::check::{output_digest, Tally};

/// Cubes kept per snapshot, of the 512 a 128³ grid tiles into.
const MAXENT_CUBES: usize = 128;
const DENSE_CUBES: usize = 64;
const PASSES: u64 = 4;

fn cases(seed: u64, pass: u64) -> [SamplingConfig; 2] {
    [
        maxent_case(MAXENT_CUBES, mix(seed, 20 + 2 * pass)),
        dense_case(DENSE_CUBES, mix(seed, 21 + 2 * pass)),
    ]
}

pub fn run(ctx: &Ctx) -> Rep {
    let (dataset, setup_s) = timed(|| synthetic_dataset(ctx.seed));

    let mut tally = Tally::default();
    let mut digests = Vec::new();
    let (mut points_in, mut points_out, mut phase1, mut bytes) = (0usize, 0usize, 0usize, 0usize);
    let (mut joules, mut modeled_secs) = (0.0, 0.0);
    let cube = CUBE_EDGE.pow(3) as f64;
    let ((), wall_s) = timed(|| {
        let _rep = ctx.tracer.root();
        for pass in 0..PASSES {
            for (cfg, case) in cases(ctx.seed, pass).iter().zip(["maxent", "dense"]) {
                let name = format!("pass{pass}.{case}");
                let out = {
                    let _s = ctx.tracer.span("run_dataset", "core");
                    run_dataset(&dataset, cfg)
                };
                let store = {
                    let _s = ctx.tracer.span("ingest_with", "store");
                    ShardStore::ingest_with(
                        &ctx.dir(&name),
                        &out,
                        StoreConfig::default(),
                        mixed_codecs(&out),
                    )
                };

                let _s = ctx.tracer.span("output checks", "check");
                tally.ok(1);
                points_in += out.stats.points_in;
                points_out += out.stats.points_out;
                phase1 += out.stats.phase1_points;
                let energy = sampling_energy(&out.stats, cfg);
                joules += energy.total_joules();
                modeled_secs += energy.modeled_secs;
                match store {
                    Ok(store) => {
                        bytes += store.manifest().total_bytes();
                        let shards = out.sets.iter().map(Vec::len).sum::<usize>();
                        tally.check(store.manifest().len() == shards, || {
                            format!(
                                "{name}: manifest lists {} of {shards} shards",
                                store.manifest().len()
                            )
                        });
                    }
                    Err(e) => tally.check(false, || format!("{name}: ingest failed: {e}")),
                }
                if cfg.num_samples < cube as usize {
                    // Xmaxent keeps 10 % of every cube, to within one
                    // percentage point.
                    for set in out.sets.iter().flatten() {
                        let kept = set.len() as f64 / cube;
                        tally.check((kept - 0.10).abs() <= 0.01, || {
                            format!(
                                "{name}: cube {:?} kept {:.1} %",
                                set.hypercube,
                                100.0 * kept
                            )
                        });
                    }
                }
                digests.push((name, output_digest(&out)));
            }
        }
    });

    // The serial ≡ ranked spine: the two-rank executor must produce the
    // same bits. It costs as much as a timed sampling pass, so once per run.
    if ctx.rep == 0 {
        let ranked = run_dataset_with_ranks(
            &dataset,
            &cases(ctx.seed, 0)[0],
            2,
            &FaultInjector::none(),
            &RetryPolicy::default(),
        );
        tally.check(
            ranked
                .as_ref()
                .is_ok_and(|r| output_digest(r) == digests[0].1),
            || "pass0.maxent: ranked executor output differs from run_dataset".into(),
        );
    }

    Rep {
        setup_s,
        wall_s,
        rate: phase1 as f64 / 1e6 / wall_s,
        layer: vec![
            ("core.points_in", points_in as f64),
            ("core.points_out", points_out as f64),
            ("core.retention", points_out as f64 / points_in as f64),
            (
                "store.stored_bytes_per_point",
                bytes as f64 / points_out as f64,
            ),
            ("energy.sampling_joules", joules),
            ("energy.modeled_joules", joules),
            ("energy.modeled_secs", modeled_secs),
        ],
        digests,
        tally,
        ..Rep::default()
    }
}
