//! Golden-regression test for the identity, f16 and u8 read paths: the
//! decoded bits of two seeded shards under each codec are pinned to a
//! committed digest file (the resim codec has its own, `golden_resim`).
//!
//! - `dense16`: one raster-ordered 16³ cube of 5 features — the shard shape
//!   the cold-serving workload decodes on almost every request.
//! - `ragged409`: 409 scattered rows, so u8's last 256-row block is ragged
//!   (153 rows), and one column is constant over the first block (scale 0).
//!
//! Both carry special values at fixed positions: NaN, ±inf, −0.0, an f16
//! subnormal, an f16 overflow and an f16 underflow, so the widening's every
//! branch and u8's skipped non-finite inputs are covered.
//!
//! Each line of `golden/decode.txt` is `codec shard column rows digest`,
//! where `digest` is FNV-1a 64 over the column's decoded `f64` bits in row
//! order (little-endian). The inputs use only `+`, `*` and a SplitMix64
//! stream, so they do not depend on the host's libm.
//!
//! To intentionally re-baseline after a deliberate decoder change:
//!
//! ```text
//! SICKLE_UPDATE_GOLDEN=1 cargo test -p sickle-codec --test golden_decode
//! ```

use std::path::PathBuf;

use sickle_codec::{decode_shard, encode_shard, Codec};
use sickle_field::io::fnv1a64;
use sickle_field::points::{FeatureMatrix, SampleSet};

const NAMES: [&str; 5] = ["u", "v", "w", "r", "pv"];

/// Values the f16 widening and the u8 range scan treat specially.
const SPECIALS: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    1.0e-6,
    7.0e4,
    2.0e-8,
];

/// SplitMix64 mapped to `[-1, 1)`.
fn noise(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A smooth polynomial field at `(x, y, z)` plus noise, with one special
/// value every 211th row (rotating through the columns and [`SPECIALS`]).
fn row(r: usize, (x, y, z): (f64, f64, f64), state: &mut u64) -> [f64; 5] {
    let mut v = [
        0.02 * x * y - 0.3 * z + 0.001 * x * x * z,
        1.5 - 0.01 * y * z + 0.2 * x,
        0.004 * (x - 8.0) * (y - 8.0) * (z - 8.0),
        0.5 * x - 0.25 * y + 0.125 * z,
        40.0 * x * y * z - 2000.0,
    ];
    for c in &mut v {
        *c += 0.1 * noise(state);
    }
    if r.is_multiple_of(211) {
        let k = r / 211;
        v[k % 5] = SPECIALS[k % SPECIALS.len()];
    }
    v
}

fn set_of(rows: Vec<[f64; 5]>, indices: Vec<usize>) -> SampleSet {
    let data = rows.into_iter().flatten().collect();
    let names = NAMES.iter().map(|s| s.to_string()).collect();
    let mut set = SampleSet::new(FeatureMatrix::new(names, data), indices, 0.75, 3);
    set.hypercube = Some(5);
    set
}

/// One 16³ cube at offset `(16, 32, 0)` of a 64³ grid, raster order.
fn dense_cube() -> SampleSet {
    let (e, g) = (16usize, 64usize);
    let mut state = 37;
    let mut rows = Vec::new();
    let mut indices = Vec::new();
    for x in 0..e {
        for y in 0..e {
            for z in 0..e {
                let at = (x as f64, y as f64, z as f64);
                rows.push(row(rows.len(), at, &mut state));
                indices.push(((16 + x) * g + 32 + y) * g + z);
            }
        }
    }
    set_of(rows, indices)
}

/// 409 rows scattered through a 64³ grid with gaps of 1–40 points; column
/// `r` is constant over the first 256 rows.
fn ragged_set() -> SampleSet {
    let g = 64usize;
    let mut state = 41;
    let mut rows = Vec::new();
    let mut indices = Vec::new();
    let mut at = 7usize;
    for r in 0..409 {
        let (x, y, z) = (at / (g * g), (at / g) % g, at % g);
        let mut v = row(r, (x as f64, y as f64, z as f64), &mut state);
        if r < 256 {
            v[3] = 0.625;
        }
        rows.push(v);
        indices.push(at);
        at += 1 + ((noise(&mut state) + 1.0) * 20.0) as usize;
    }
    set_of(rows, indices)
}

/// `codec shard column rows digest` lines for one shard under `codec`.
fn digest_lines(codec: Codec, shard: &str, set: &SampleSet) -> Vec<String> {
    let bytes = encode_shard(std::slice::from_ref(set), codec);
    let back = decode_shard(&bytes).expect("shard decodes");
    assert_eq!(back.len(), 1);
    let decoded = &back[0];
    assert_eq!(decoded.indices, set.indices);
    let dim = decoded.features.dim();
    (0..dim)
        .map(|c| {
            let bits: Vec<u8> = (0..decoded.len())
                .flat_map(|r| decoded.features.data[r * dim + c].to_bits().to_le_bytes())
                .collect();
            format!(
                "{} {shard} {} {} {:016x}",
                codec.name(),
                decoded.features.names[c],
                decoded.len(),
                fnv1a64(&bits)
            )
        })
        .collect()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("decode.txt")
}

#[test]
fn decode_matches_committed_golden() {
    let (dense, ragged) = (dense_cube(), ragged_set());
    let mut actual = Vec::new();
    for codec in [Codec::Identity, Codec::F16, Codec::U8Block] {
        actual.extend(digest_lines(codec, "dense16", &dense));
        actual.extend(digest_lines(codec, "ragged409", &ragged));
    }
    let path = golden_path();
    if std::env::var("SICKLE_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text = format!(
            "# codec shard column rows fnv1a64(decoded f64 bits, row order, LE)\n{}\n",
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
        "decode drifted from the committed golden ({} vs {} lines):\n{}\n\
         If this change is intentional, re-baseline with:\n  \
         SICKLE_UPDATE_GOLDEN=1 cargo test -p sickle-codec --test golden_decode",
        expected.len(),
        actual.len(),
        drifted.join("\n")
    );
}
