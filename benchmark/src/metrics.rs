//! The metric catalogue: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test holds the
//! two together).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program that must repeat exactly between two
    /// runs of one build on one seed (checked by `--aa`).
    pub exact: bool,
}

use Better::{Higher, Lower};

/// What a user of the stack sees. Every workload reports all five.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn probe(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Single layers. A traced run reports all of them; a count of a layer the
/// workload never enters reads 0. Units that are not plain times say what
/// they are: `us_log2` is the midpoint of a log₂ histogram bucket (the
/// server's own quantiles, a factor √2 coarse), `s_model` is seconds modeled
/// from counted flops and bytes.
pub const PER_LAYER: [PerLayer; 71] = [
    probe("cfd.spectral_step_ms", "ms", Lower),
    probe("cfd.synth_snapshot_s", "s", Lower),
    probe("fft.rfft3d_64_roundtrip_ms", "ms", Lower),
    probe("fft.rfft3d_64_gflops", "Gflop/s", Higher),
    probe("simd.bin_indices_ns_per_point", "ns", Lower),
    probe("field.derived_pv_ms", "ms", Lower),
    probe("field.tile_extract_us", "us", Lower),
    probe("field.sklh_view_decode_us", "us", Lower),
    probe("field.fnv1a64_mb_per_s", "MB/s", Higher),
    probe("core.phase1_select_ms", "ms", Lower),
    probe("core.phase2_cube_ms", "ms", Lower),
    probe("core.kmeans_fit_ms", "ms", Lower),
    probe("core.points_in", "count", Lower),
    probe("core.points_out", "count", Lower),
    probe("core.retention", "ratio", Lower),
    probe("hpc.ranked2_over_serial", "ratio", Lower),
    probe("hpc.imbalance", "ratio", Lower),
    probe("codec.encode_mb_per_s.identity", "MB/s", Higher),
    probe("codec.encode_mb_per_s.f16", "MB/s", Higher),
    probe("codec.encode_mb_per_s.u8", "MB/s", Higher),
    probe("codec.encode_mb_per_s.resim", "MB/s", Higher),
    probe("codec.decode_mb_per_s.identity", "MB/s", Higher),
    probe("codec.decode_mb_per_s.f16", "MB/s", Higher),
    probe("codec.decode_mb_per_s.u8", "MB/s", Higher),
    probe("codec.decode_mb_per_s.resim", "MB/s", Higher),
    probe("codec.bytes_ratio.f16", "ratio", Higher),
    probe("codec.bytes_ratio.u8", "ratio", Higher),
    probe("codec.bytes_ratio.resim", "ratio", Higher),
    probe("store.ingest_mb_per_s", "MB/s", Higher),
    probe("store.open_ms", "ms", Lower),
    probe("store.get_miss_us", "us", Lower),
    probe("store.get_hit_ns", "ns", Lower),
    probe("store.shard_handle_miss_us", "us", Lower),
    probe("store.tensorized_us", "us", Lower),
    probe("store.cache_hit_rate", "ratio", Higher),
    probe("store.cache_evictions", "count", Lower),
    probe("store.server.requests", "count", Higher),
    probe("store.server.shed", "count", Lower),
    probe("store.server.request_p50_us", "us_log2", Lower),
    probe("store.server.queue_wait_p50_us", "us_log2", Lower),
    probe("store.server.encode_p50_us", "us_log2", Lower),
    probe("store.server.ping_p50_us", "us", Lower),
    probe("store.server.batch_tail_ms", "ms/batch", Lower),
    probe("store.server.batch_tail_pct", "%", Higher),
    probe("store.client.busy_retries", "count", Lower),
    probe("store.wire_bytes_per_batch", "B", Lower),
    exact("store.stored_bytes_per_point", "B", Lower),
    probe("nn.forward_ms", "ms", Lower),
    probe("nn.backward_ms", "ms", Lower),
    probe("nn.optim_ms", "ms", Lower),
    probe("nn.flops_per_step", "count", Lower),
    probe("nn.achieved_gflops", "Gflop/s", Higher),
    probe("nn.gemm_256_gflops", "Gflop/s", Higher),
    probe("train.data_wait_frac", "ratio", Lower),
    probe("train.step_ms", "ms/step", Lower),
    probe("train.steps", "count", Higher),
    probe("train.samples", "count", Higher),
    exact("train.final_loss", "MSE", Lower),
    probe("energy.sampling_joules", "J", Lower),
    probe("energy.train_joules", "J", Lower),
    exact("energy.modeled_joules", "J", Lower),
    probe("energy.modeled_secs", "s_model", Lower),
    probe("obs.trace_overhead_frac", "ratio", Lower),
    probe("par.speedup_vs_1thread", "ratio", Higher),
    probe("ledger.unattributed_frac", "ratio", Lower),
    probe("ledger.cfd_frac", "ratio", Lower),
    probe("ledger.core_frac", "ratio", Lower),
    probe("ledger.store_frac", "ratio", Lower),
    probe("ledger.nn_frac", "ratio", Lower),
    probe("ledger.train_frac", "ratio", Lower),
    probe("ledger.check_frac", "ratio", Lower),
];

/// Layers a span may be charged to; each has a `ledger.<layer>_frac` row.
pub const LEDGER_LAYERS: [&str; 6] = ["cfd", "core", "store", "nn", "train", "check"];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every entry of one `BENCHMARK.json` list.
    fn listed(doc: &serde_json::Value, list: &str) -> Vec<(String, String, String)> {
        let field = |entry: &serde_json::Value, key: &str| {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .expect(key)
                .to_string()
        };
        doc.get(list)
            .and_then(|v| v.as_array())
            .expect(list)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let doc = serde_json::value_from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |name: &str, unit: &str, better: Better| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
            )
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| own(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| own(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end")
            .iter()
            .map(|e| e.get("bound").and_then(|b| b.as_f64()).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn names_are_unique_and_ledger_layers_have_rows() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} listed twice");
            assert!(n.len() <= 64);
        }
        for layer in LEDGER_LAYERS {
            let row = format!("ledger.{layer}_frac");
            assert!(PER_LAYER.iter().any(|m| m.name == row), "{row}");
        }
    }
}
