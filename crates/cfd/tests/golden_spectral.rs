//! Golden-regression test for the pseudo-spectral data generators and the
//! 3-D FFTs under them: the `f64` bits of four outputs are pinned to a
//! committed digest file.
//!
//! - `sst32`: a reduced SST-P1F4 dataset (32³, 2 snapshots), every variable
//!   of every snapshot — the truncated real transforms inside the solver
//!   plus the derived potential vorticity.
//! - `synth32`: a 32³ `synthetic_sst_snapshot`, whose inverse runs the
//!   complex `Fft3d`'s contiguous and strided passes. Its rms rescaling is
//!   a parallel sum whose rounding follows the thread count, so this case
//!   runs on a one-thread pool to pin the same bits on every host.
//! - `rfft64_band`: one 64³ `RealFft3d` `forward_truncated` /
//!   `inverse_truncated` pair at `kmax = 21` (22 z-coefficients per row, a
//!   band pencil count that is not a multiple of four).
//! - `rfft64_full`: one 64³ full `RealFft3d` forward / inverse pair.
//! - `sst100_32`: a reduced SST-P1F100 dataset (32³, 2 snapshots): the
//!   forced solver with gravity along y, which the buoyancy feedback and
//!   the forcing rescale reach and `sst32` does not.
//! - `gests32`: a reduced GESTS dataset (32³, one snapshot): the
//!   unstratified, forced solver started from a synthetic field. Like
//!   `synth32` it runs on a one-thread pool, because its initial field's
//!   bits follow the thread count.
//!
//! Each line of `golden/spectral.txt` is `case item len digest`, where
//! `digest` is XXH64 (`sickle_field::io::content_hash`) of the item's `f64`
//! bits in storage order (little-endian; a complex spectrum as its
//! `re, im` pairs). The FFT inputs use only `+`, `*` and a SplitMix64
//! stream; the solver and synthetic fields also call the host's libm.
//!
//! The test selects [`Kernel::Optimized`] itself (it is its own test
//! binary, so nothing else races on the switch). The digests are those of
//! the AVX2+FMA kernel, so they are asserted only where
//! `sickle_simd::fma_available()` holds; elsewhere the test prints that it
//! skipped and passes.
//!
//! To intentionally re-baseline after a deliberate numerics change:
//!
//! ```text
//! SICKLE_UPDATE_GOLDEN=1 cargo test --release -p sickle-cfd --test golden_spectral
//! ```

use std::path::PathBuf;

use sickle_cfd::datasets::{
    gests, sst_p1f100, sst_p1f4, synthetic_sst_snapshot, GestsParams, SstParams,
};
use sickle_fft::{Complex, RealFft3d};
use sickle_field::io::content_hash;
use sickle_field::{Dataset, Snapshot};
use sickle_simd::Kernel;

/// SplitMix64 mapped to `[-1, 1)`.
fn noise(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn digest(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    content_hash(&bytes)
}

fn line(case: &str, item: &str, values: &[f64]) -> String {
    format!("{case} {item} {} {:016x}", values.len(), digest(values))
}

fn spectrum_bits(spec: &[Complex]) -> Vec<f64> {
    spec.iter().flat_map(|z| [z.re, z.im]).collect()
}

fn snapshot_lines(case: &str, snap: &Snapshot) -> Vec<String> {
    snap.names
        .iter()
        .zip(&snap.vars)
        .map(|(name, values)| line(case, name, values))
        .collect()
}

fn dataset_lines(case: &str, dataset: &Dataset) -> Vec<String> {
    dataset
        .snapshots
        .iter()
        .enumerate()
        .flat_map(|(i, snap)| snapshot_lines(&format!("{case}/{i}"), snap))
        .collect()
}

/// The reduced SST parameters both SST cases run at.
fn sst32() -> SstParams {
    SstParams {
        n: 32,
        snapshots: 2,
        interval: 5,
        warmup: 10,
        ..SstParams::default()
    }
}

/// A forward and an inverse 64³ real transform of a SplitMix64 field, at
/// `kmax` (`usize::MAX` for the full transforms).
fn rfft_lines(case: &str, kmax: usize) -> Vec<String> {
    let n = 64;
    let plan = RealFft3d::new(n, n, n);
    let mut state = 41;
    let real: Vec<f64> = (0..plan.len()).map(|_| noise(&mut state)).collect();
    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
    let mut back = vec![0.0; plan.len()];
    if kmax == usize::MAX {
        plan.forward(&real, &mut spec);
    } else {
        plan.forward_truncated(&real, &mut spec, kmax);
    }
    let forward = line(case, "spectrum", &spectrum_bits(&spec));
    if kmax == usize::MAX {
        plan.inverse(&mut spec, &mut back);
    } else {
        plan.inverse_truncated(&mut spec, &mut back, kmax);
    }
    vec![forward, line(case, "real", &back)]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("spectral.txt")
}

#[test]
fn spectral_outputs_match_committed_golden() {
    sickle_simd::set_kernel(Kernel::Optimized);
    let update = std::env::var("SICKLE_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if !sickle_simd::fma_available() && !update {
        println!("no avx2+fma on this host: the pinned digests are the FMA kernel's; skipped");
        return;
    }
    let mut actual = dataset_lines("sst32", &sst_p1f4(&sst32()));
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds");
    let synth = serial.install(|| synthetic_sst_snapshot(32, 0.5, 7));
    actual.extend(snapshot_lines("synth32", &synth));
    actual.extend(rfft_lines("rfft64_band", 21));
    actual.extend(rfft_lines("rfft64_full", usize::MAX));
    actual.extend(dataset_lines("sst100_32", &sst_p1f100(&sst32())));
    let gests32 = serial.install(|| {
        gests(
            &GestsParams {
                n: 32,
                spinup: 10,
                ..GestsParams::default()
            },
            3,
        )
    });
    actual.extend(dataset_lines("gests32", &gests32));
    let path = golden_path();
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text = format!(
            "# case item len xxh64(f64 bits, storage order, LE)\n{}\n",
            actual.join("\n")
        );
        std::fs::write(&path, text).unwrap();
        println!("golden regenerated at {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {} ({e}); regenerate with SICKLE_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Vec<&str> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let drifted: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        expected.len() == actual.len() && drifted.is_empty(),
        "spectral outputs drifted from the committed golden ({} vs {} lines):\n{}\n\
         If this change is intentional, re-baseline with:\n  \
         SICKLE_UPDATE_GOLDEN=1 cargo test --release -p sickle-cfd --test golden_spectral",
        expected.len(),
        actual.len(),
        drifted.join("\n")
    );
}
