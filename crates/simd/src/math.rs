//! Elementwise `tanh` and `exp` over `f32` slices — the activation kernels
//! of `sickle-nn`'s tape.
//!
//! Each function is **one** branch-free scalar formula (`tanh_one`,
//! `exp_one`): range reduction, then a polynomial or rational in plain
//! `*`/`+`/`/`. Rust never contracts `a * b + c` into a fused multiply-add, and
//! every operation used is correctly rounded per IEEE 754, so the formula has
//! exactly one result per input no matter how it is compiled. The slice loop
//! around it is compiled twice — for the baseline target, and under
//! `#[target_feature(enable = "avx2,fma")]` where LLVM vectorises the same
//! loop eight lanes wide — which makes portable ≡ AVX2 bit for bit *by
//! construction* (and checked over a dense sweep in the tests below), and
//! makes results independent of the host's libm.
//!
//! [`Kernel::Naive`] keeps the libm calls as the reference the parity tests
//! compare against; the two families agree to the tolerances stated on
//! [`tanh`] and [`exp`], not bitwise.

use crate::{fma_available, kernel, Kernel};

/// Beyond this magnitude `tanh` rounds to ±1 in `f32`; clamping the argument
/// here keeps the rational's polynomials inside the range they were fitted
/// on.
const TANH_CLAMP: f32 = 7.905_311;

/// `tanh(x)`: the odd degree-13 over even degree-6 minimax rational on
/// `[-TANH_CLAMP, TANH_CLAMP]`.
///
/// The clamps are written so that a NaN fails every comparison and falls
/// through: it reaches the arithmetic and propagates. The output clamp is
/// part of the contract, not a nicety — without it rounding lets the
/// quotient reach `1.0000001` at saturation, and the tape's backward
/// `1 − y²` goes negative.
#[inline(always)]
fn tanh_one(x: f32) -> f32 {
    let x = if x > TANH_CLAMP { TANH_CLAMP } else { x };
    let x = if x < -TANH_CLAMP { -TANH_CLAMP } else { x };
    let x2 = x * x;
    let p = x2 * -2.760_768_4e-16 + 2.000_188e-13;
    let p = x2 * p + -8.604_672e-11;
    let p = x2 * p + 5.122_297_3e-8;
    let p = x2 * p + 1.485_722_35e-5;
    let p = x2 * p + 6.372_619_5e-4;
    let p = x2 * p + 4.893_524_6e-3;
    let q = x2 * 1.198_258_4e-6 + 1.185_347_1e-4;
    let q = x2 * q + 2.268_434_7e-3;
    let q = x2 * q + 4.893_525e-3;
    let y = x * p / q;
    let y = if y > 1.0 { 1.0 } else { y };
    if y < -1.0 {
        -1.0
    } else {
        y
    }
}

/// Arguments below this give `2⁻¹⁵⁰·p`, which rounds to zero.
const EXP_LO: f32 = -104.0;
/// Arguments above this give `2¹²⁸·p` with `p > 1`, which overflows to `+inf`.
const EXP_HI: f32 = 89.0;
/// `1.5 · 2²³`: adding it to `|v| < 2²²` leaves `round(v)` (ties to even) in
/// the low mantissa bits, so one add rounds and one integer subtract reads
/// the result — no float→int conversion, nothing the two builds could
/// lower differently.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split in two: the high part has nine significant bits, so
/// `n · LN2_HI` is exact for every `n` the clamps allow.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp(x) = 2ⁿ · e^r` with `n = round(x / ln 2)` and `|r| ≤ ln 2 / 2`:
/// Cody–Waite reduction (`ln 2` split so `n · LN2_HI` is exact), a degree-5
/// minimax polynomial for `(e^r − 1 − r) / r²`, and the scale applied as two
/// exact powers of two so the last multiply alone rounds — gradual underflow
/// and overflow to `+inf` come out of the arithmetic, not a branch.
#[inline(always)]
fn exp_one(x: f32) -> f32 {
    // NaN fails `>` and becomes EXP_LO, which keeps every intermediate in
    // range; it is restored by the final select.
    let v = if x > EXP_LO { x } else { EXP_LO };
    let v = if v < EXP_HI { v } else { EXP_HI };
    let t = v * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = v - n * LN2_HI - n * LN2_LO;
    let p = r * 1.987_569_1e-4 + 1.398_199_9e-3;
    let p = r * p + 8.333_452e-3;
    let p = r * p + 4.166_579_6e-2;
    let p = r * p + 1.666_666_6e-1;
    let p = r * p + 0.5;
    let p = p * (r * r) + r + 1.0;
    // n ∈ [-150, 128]; each half is a normal exponent.
    let n = t.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    let half = n >> 1;
    let s1 = f32::from_bits(((half + 127) << 23) as u32);
    let s2 = f32::from_bits(((n - half + 127) << 23) as u32);
    let y = p * s1 * s2;
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// The slice loop, compiled for the baseline target.
fn map_portable(v: &mut [f32], f: impl Fn(f32) -> f32) {
    for x in v {
        *x = f(*x);
    }
}

/// The same slice loop compiled with AVX2 enabled: `f` is inlined into it
/// and LLVM vectorises the body eight lanes wide.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_avx2(v: &mut [f32], f: impl Fn(f32) -> f32) {
    for x in v {
        *x = f(*x);
    }
}

/// The [`Kernel::Optimized`] arm: the wide build where the CPU has it, else
/// the portable one.
fn map_optimized(v: &mut [f32], f: impl Fn(f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { map_avx2(v, f) };
        return;
    }
    map_portable(v, f);
}

/// Replaces every element with its hyperbolic tangent.
///
/// Under [`Kernel::Optimized`]: within `5e-7` of the true value, exactly odd,
/// `|tanh(x)| ≤ 1` exactly, `tanh(±0) = ±0`, `tanh(±inf) = ±1`, NaN in → NaN
/// out; the same bits on every host. Under [`Kernel::Naive`]: libm.
pub fn tanh(v: &mut [f32]) {
    match kernel() {
        Kernel::Naive => map_portable(v, f32::tanh),
        Kernel::Optimized => map_optimized(v, tanh_one),
    }
}

/// Replaces every element with its exponential.
///
/// Under [`Kernel::Optimized`]: relative error `≤ 2e-7` wherever the result
/// is a normal `f32`, gradual underflow to `exp(-inf) = 0`, overflow to
/// `+inf`, NaN in → NaN out; the same bits on every host. Under
/// [`Kernel::Naive`]: libm.
pub fn exp(v: &mut [f32]) {
    match kernel() {
        Kernel::Naive => map_portable(v, f32::exp),
        Kernel::Optimized => map_optimized(v, exp_one),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a copy of `xs`.
    fn apply(f: impl Fn(&mut [f32]), xs: &[f32]) -> Vec<f32> {
        let mut v = xs.to_vec();
        f(&mut v);
        v
    }

    /// `one` over `xs` through the baseline build of the slice loop. (Generic,
    /// not a `fn` pointer: the formula must be inlined into the loop under
    /// test, as it is in the public entry points.)
    fn portable(one: impl Fn(f32) -> f32, xs: &[f32]) -> Vec<f32> {
        apply(|v| map_portable(v, &one), xs)
    }

    /// `one` over `xs` through the build `Kernel::Optimized` runs on this
    /// CPU (the AVX2 one where there is one; else the comparison is vacuous).
    fn optimized(one: impl Fn(f32) -> f32, xs: &[f32]) -> Vec<f32> {
        apply(|v| map_optimized(v, &one), xs)
    }

    fn sweep(lo: f32, hi: f32, n: usize) -> Vec<f32> {
        (0..=n)
            .map(|i| lo + (hi - lo) * (i as f32 / n as f32))
            .collect()
    }

    fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    const SPECIALS: [f32; 14] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-40,
        f32::MAX,
        f32::MIN,
        88.72,
        88.73,
        -87.4,
        -103.9,
    ];

    #[test]
    fn tanh_error_and_range_over_dense_sweep() {
        let mut xs = sweep(-10.0, 10.0, 2_000_000);
        xs.extend(sweep(-0.01, 0.01, 100_000));
        let ys = portable(tanh_one, &xs);
        let mut worst = 0.0f64;
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!(y.abs() <= 1.0, "tanh({x}) = {y} leaves [-1, 1]");
            worst = worst.max((f64::from(y) - f64::from(x).tanh()).abs());
        }
        assert!(worst <= 5e-7, "tanh max abs error {worst:e}");
        assert_same_bits(&optimized(tanh_one, &xs), &ys, "tanh sweep");
    }

    #[test]
    fn exp_error_over_dense_sweep() {
        let xs = sweep(-87.0, 88.0, 2_000_000);
        let ys = portable(exp_one, &xs);
        let mut worst = 0.0f64;
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = f64::from(x).exp();
            worst = worst.max(((f64::from(y) - want) / want).abs());
        }
        assert!(worst <= 2e-7, "exp max relative error {worst:e}");
        assert_same_bits(&optimized(exp_one, &xs), &ys, "exp sweep");
        // Beyond the normal range both builds still agree (subnormals, the
        // last finite values before overflow).
        let tails = [sweep(-105.0, -87.0, 100_000), sweep(88.0, 90.0, 100_000)].concat();
        assert_same_bits(
            &optimized(exp_one, &tails),
            &portable(exp_one, &tails),
            "exp tails",
        );
    }

    #[test]
    fn tanh_special_values() {
        let t = |x: f32| portable(tanh_one, &[x])[0];
        assert_eq!(t(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(t(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(t(f32::INFINITY), 1.0);
        assert_eq!(t(f32::NEG_INFINITY), -1.0);
        assert_eq!(t(f32::MAX), 1.0);
        assert_eq!(t(20.0), 1.0);
        assert_eq!(t(-20.0), -1.0);
        assert!(t(f32::NAN).is_nan());
        for x in sweep(0.0, 9.0, 10_000) {
            assert_eq!(t(-x), -t(x), "tanh must be odd at {x}");
        }
    }

    #[test]
    fn exp_special_values() {
        let e = |x: f32| portable(exp_one, &[x])[0];
        assert_eq!(e(0.0), 1.0);
        assert_eq!(e(-0.0), 1.0);
        assert_eq!(e(f32::NEG_INFINITY), 0.0);
        assert_eq!(e(-104.0), 0.0);
        assert_eq!(e(f32::INFINITY), f32::INFINITY);
        assert_eq!(e(88.73), f32::INFINITY, "overflow");
        assert!(e(88.72).is_finite(), "largest finite results survive");
        assert!(e(f32::NAN).is_nan());
        let tiny = e(-100.0);
        assert!(
            tiny > 0.0 && tiny < f32::MIN_POSITIVE,
            "gradual underflow: {tiny:e}"
        );
    }

    #[test]
    fn every_tail_length_and_an_unaligned_subslice() {
        // 17 covers zero to two full 8-lane vectors plus every remainder;
        // the offset-by-one window starts off any 32-byte boundary.
        let xs: Vec<f32> = (0..18).map(|i| (i as f32 - 9.0) * 0.37).collect();
        for len in 0..=17 {
            for start in [0, 1] {
                let window = &xs[start..start + len];
                let want_t: Vec<f32> = window.iter().map(|&x| tanh_one(x)).collect();
                let want_e: Vec<f32> = window.iter().map(|&x| exp_one(x)).collect();
                assert_same_bits(&optimized(tanh_one, window), &want_t, "tanh tail");
                assert_same_bits(&portable(tanh_one, window), &want_t, "tanh tail");
                assert_same_bits(&optimized(exp_one, window), &want_e, "exp tail");
                assert_same_bits(&portable(exp_one, window), &want_e, "exp tail");
            }
        }
        // A vector-width block of specials, so they pass through full lanes
        // and not only the scalar remainder.
        let mut block = SPECIALS.to_vec();
        block.extend_from_slice(&SPECIALS);
        assert_same_bits(
            &optimized(tanh_one, &block),
            &portable(tanh_one, &block),
            "tanh specials",
        );
        assert_same_bits(
            &optimized(exp_one, &block),
            &portable(exp_one, &block),
            "exp specials",
        );
    }

    #[test]
    fn dispatch_follows_the_kernel_switch_within_tolerance() {
        // Whichever family `SICKLE_KERNEL` selected, the public entry points
        // honour the documented tolerances (libm trivially so).
        let xs = sweep(-12.0, 12.0, 10_000);
        for (&x, &y) in xs.iter().zip(&apply(tanh, &xs)) {
            assert!((f64::from(y) - f64::from(x).tanh()).abs() <= 5e-7);
        }
        for (&x, &y) in xs.iter().zip(&apply(exp, &xs)) {
            let want = f64::from(x).exp();
            assert!(((f64::from(y) - want) / want).abs() <= 2e-7);
        }
    }
}
