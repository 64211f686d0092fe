//! Physics-statistics accuracy budgets per codec.
//!
//! Following Schröder et al., lossy compression of turbulence training data
//! is validated against *physical statistics*, not pointwise error: the
//! radially binned energy spectrum (spectral content survives) and the
//! phase-space PDF (the sampling pipeline's own currency — MaxEnt operates
//! on feature histograms). Each codec gets an explicit budget; a codec
//! change that degrades either statistic past its budget fails tier-1,
//! not just the perf bench.

use sickle_cfd::synth::{self, SynthConfig};
use sickle_codec::{decode_shard, encode_shard, Codec};
use sickle_field::points::{FeatureMatrix, SampleSet};
use sickle_field::snapshot::Snapshot;
use sickle_field::stats::{kl_divergence, Histogram};

const EDGE: usize = 32;
const BINS: usize = 100;

fn synth_snapshot() -> Snapshot {
    let cfg = SynthConfig {
        nx: EDGE,
        ny: EDGE,
        nz: EDGE,
        anisotropy: 0.35,
        ..SynthConfig::default()
    };
    synth::generate(&cfg, 42)
}

/// The whole snapshot as one raster-ordered sample set (indices 0..n), so
/// the resim codec sees a full lattice — the layout `PointMethod::Full`
/// cube shards have.
fn full_set(snap: &Snapshot) -> SampleSet {
    let n = snap.num_points();
    let vidx = snap.var_indices(&snap.names.clone());
    let mut features = FeatureMatrix::with_capacity(snap.names.clone(), n);
    let mut row = vec![0.0; vidx.len()];
    for i in 0..n {
        snap.gather_point(&vidx, i, &mut row);
        features.push_row(&row);
    }
    SampleSet::new(features, (0..n).collect(), snap.time, 0)
}

/// Relative L2 error between the energy spectra of two fields.
fn spectra_err(snap: &Snapshot, orig: &[f64], recon: &[f64]) -> f64 {
    let eo = synth::measured_spectrum(&snap.grid, orig);
    let er = synth::measured_spectrum(&snap.grid, recon);
    let num: f64 = eo
        .iter()
        .zip(&er)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>();
    let den: f64 = eo.iter().map(|a| a * a).sum::<f64>();
    (num / den).sqrt()
}

/// KL divergence between the value PDFs, binned over the original range so
/// both histograms share support.
fn pdf_kl(orig: &[f64], recon: &[f64]) -> f64 {
    let lo = orig.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = orig.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut ho = Histogram::new(lo, hi, BINS);
    let mut hr = Histogram::new(lo, hi, BINS);
    ho.extend(orig);
    hr.extend(recon);
    kl_divergence(&ho.pmf(), &hr.pmf())
}

/// Worst spectra error and worst PDF KL across all features, for one codec.
fn codec_errors(snap: &Snapshot, set: &SampleSet, codec: Codec) -> (f64, f64) {
    let bytes = encode_shard(std::slice::from_ref(set), codec);
    let back = decode_shard(&bytes).expect("decode");
    assert_eq!(back.len(), 1);
    let back = &back[0];
    let dim = set.features.dim();
    let mut worst_spec: f64 = 0.0;
    let mut worst_kl: f64 = 0.0;
    for c in 0..dim {
        let orig = set.features.column(c);
        let recon = back.features.column(c);
        worst_spec = worst_spec.max(spectra_err(snap, &orig, &recon));
        worst_kl = worst_kl.max(pdf_kl(&orig, &recon));
    }
    (worst_spec, worst_kl)
}

/// The per-codec accuracy budgets. These are the same numbers DESIGN.md
/// §14 documents; loosening one is an explicit, reviewable act.
pub fn budgets() -> Vec<(Codec, f64, f64)> {
    vec![
        // (codec, spectra relative-L2 budget, PDF KL budget)
        (Codec::F16, 1e-3, 1e-3),
        (Codec::U8Block, 2e-2, 2e-2),
        (Codec::resim_default(), 0.35, 0.10),
    ]
}

#[test]
fn every_codec_stays_within_its_accuracy_budget() {
    let snap = synth_snapshot();
    assert!(
        snap.names.len() >= 4,
        "anisotropic synth should carry u, v, w, r"
    );
    let set = full_set(&snap);
    for (codec, spec_budget, kl_budget) in budgets() {
        let (spec, kl) = codec_errors(&snap, &set, codec);
        println!(
            "{:8} spectra {spec:.3e} (budget {spec_budget:.1e})  kl {kl:.3e} (budget {kl_budget:.1e})",
            codec.name()
        );
        assert!(
            spec <= spec_budget,
            "{} spectra error {spec:.3e} exceeds budget {spec_budget:.1e}",
            codec.name()
        );
        assert!(
            kl <= kl_budget,
            "{} PDF KL {kl:.3e} exceeds budget {kl_budget:.1e}",
            codec.name()
        );
    }
}

#[test]
fn identity_is_bit_exact() {
    let snap = synth_snapshot();
    let set = full_set(&snap);
    let bytes = encode_shard(std::slice::from_ref(&set), Codec::Identity);
    let back = decode_shard(&bytes).expect("decode");
    assert_eq!(back.len(), 1);
    let a: Vec<u64> = set.features.data.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = back[0].features.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
    assert_eq!(back[0].indices, set.indices);
}

#[test]
fn resim_budget_holds_on_cube_sized_sets() {
    // The store actually holds 16^3 cubes, not whole snapshots; the budget
    // must hold at that granularity too (smaller cubes mean proportionally
    // more exact boundary rows, so this is the easier case — but it is the
    // case the serving plane exercises).
    let snap = synth_snapshot();
    let e = 16usize;
    let names = snap.names.clone();
    let vidx = snap.var_indices(&names);
    let mut features = FeatureMatrix::with_capacity(names.clone(), e * e * e);
    let mut indices = Vec::with_capacity(e * e * e);
    let mut row = vec![0.0; vidx.len()];
    for x in 0..e {
        for y in 0..e {
            for z in 0..e {
                let i = snap.grid.idx(x, y, z);
                snap.gather_point(&vidx, i, &mut row);
                features.push_row(&row);
                indices.push(i);
            }
        }
    }
    let set = SampleSet::new(features, indices, snap.time, 0);
    let bytes = encode_shard(std::slice::from_ref(&set), Codec::resim_default());
    let back = decode_shard(&bytes).expect("decode");
    let orig = set.features.column(0);
    let recon = back[0].features.column(0);
    let kl = pdf_kl(&orig, &recon);
    assert!(kl <= 0.10, "cube-granularity resim KL {kl:.3e}");
    // Pointwise sanity: reconstruction stays within the true value range
    // (maximum principle) and is not degenerate.
    let lo = orig.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = orig.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for &v in &recon {
        assert!(v >= lo - 1e-2 && v <= hi + 1e-2, "{v} outside [{lo}, {hi}]");
    }
}
