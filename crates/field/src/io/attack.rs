//! The attack harness every binary decoder's tests run.
//!
//! A decoder of untrusted bytes has one contract (see [`super::Reader`]):
//! malformed input is an `InvalidData` error, never a panic. From one valid
//! encoding, [`prefixes_are_errors`] requires every strict prefix to be
//! refused, and [`bit_flips_return`] every single-bit flip to return;
//! [`noise_returns`] requires [`noise`] behind each known magic to return.
//! A refusal of another kind, or a panic, fails the attack naming the case.
//! Each function returns the number of cases it ran.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Longest noise tail [`noise_returns`] puts behind a magic.
pub const NOISE_LEN: usize = 48;
/// Noise tails per length.
pub const NOISE_SEEDS: u64 = 2;

/// Runs all three attacks on `valid`; returns the number of cases run.
pub fn attack<T>(
    what: &str,
    valid: &[u8],
    magics: &[impl AsRef<[u8]>],
    decode: impl Fn(&[u8]) -> io::Result<T>,
) -> usize {
    prefixes_are_errors(what, valid, &decode)
        + bit_flips_return(what, valid, &decode)
        + noise_returns(what, magics, &decode)
}

/// `valid` must decode, and every strict prefix of it must be refused.
pub fn prefixes_are_errors<T>(
    what: &str,
    valid: &[u8],
    decode: impl Fn(&[u8]) -> io::Result<T>,
) -> usize {
    let accepted = |case: &dyn Fn() -> String, bytes| run(what, case, bytes, &decode);
    assert!(
        accepted(&|| "the valid encoding".into(), valid),
        "{what}: refused the valid encoding"
    );
    for cut in 0..valid.len() {
        let case = || format!("the {cut}-byte prefix");
        assert!(
            !accepted(&case, &valid[..cut]),
            "{what}: {} was accepted",
            case()
        );
    }
    valid.len()
}

/// Every single-bit flip of `valid` must return.
pub fn bit_flips_return<T>(
    what: &str,
    valid: &[u8],
    decode: impl Fn(&[u8]) -> io::Result<T>,
) -> usize {
    let mut bytes = valid.to_vec();
    for bit in 0..8 * bytes.len() {
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        bytes[byte] ^= mask;
        run(what, &|| format!("bit flip {bit}"), &bytes, &decode);
        bytes[byte] ^= mask;
    }
    8 * valid.len()
}

/// [`noise`] of every length up to [`NOISE_LEN`] behind each magic must
/// return.
pub fn noise_returns<T>(
    what: &str,
    magics: &[impl AsRef<[u8]>],
    decode: impl Fn(&[u8]) -> io::Result<T>,
) -> usize {
    let mut cases = 0;
    for magic in magics.iter().map(AsRef::as_ref) {
        for len in 0..=NOISE_LEN {
            for seed in 0..NOISE_SEEDS {
                let case = || format!("noise {len}/{seed} behind {magic:?}");
                run(what, &case, &noise(magic, len, seed), &decode);
                cases += 1;
            }
        }
    }
    cases
}

/// `magic` followed by `len` pseudo-random bytes (SplitMix64 of `seed` and
/// `len`): the same bytes on every host and every run.
pub fn noise(magic: &[u8], len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x1_0000_0001) ^ len as u64;
    let mut out = magic.to_vec();
    out.extend((0..len).map(|_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }));
    out
}

/// Decodes one case: true when accepted. A refusal must be `InvalidData`,
/// and a panic is re-raised naming the case.
fn run<T>(
    what: &str,
    case: &dyn Fn() -> String,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> io::Result<T>,
) -> bool {
    match catch_unwind(AssertUnwindSafe(|| decode(bytes).map(drop))) {
        Ok(Ok(())) => true,
        Ok(Err(err)) => {
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{what}: {} was refused with {err}",
                case()
            );
            false
        }
        Err(_) => panic!("{what}: the decoder panicked on {}", case()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::invalid;

    /// Accepts any input of at least two bytes whose first byte is `b'K'`.
    fn toy(bytes: &[u8]) -> io::Result<u8> {
        match bytes {
            [b'K', x, ..] => Ok(*x),
            _ => Err(invalid("not toy")),
        }
    }

    #[test]
    fn a_sound_decoder_survives_every_case() {
        let cases = attack("toy", b"K1", &[&b"K"[..], b""], toy);
        assert_eq!(cases, 2 + 16 + 2 * (NOISE_LEN + 1) * NOISE_SEEDS as usize);
        assert_eq!(noise(b"K", 40, 1), noise(b"K", 40, 1));
        assert_ne!(noise(b"K", 40, 1), noise(b"K", 40, 0));
    }

    #[test]
    #[should_panic(expected = "the 2-byte prefix was accepted")]
    fn an_accepted_prefix_fails_the_attack() {
        prefixes_are_errors("toy", b"K12", toy);
    }

    #[test]
    #[should_panic(expected = "the decoder panicked on bit flip")]
    fn a_panic_fails_the_attack() {
        bit_flips_return("toy", b"K1", |b: &[u8]| toy(b).map(|x| assert_eq!(x, b'1')));
    }
}
