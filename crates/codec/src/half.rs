//! Scalar f16 conversions.
//!
//! Stable Rust has no half-precision primitive, so the f16 codec carries
//! IEEE 754 binary16 values as raw `u16` bit patterns and converts through
//! `f32` here. Conversions are exact in the widening direction and
//! round-to-nearest-even when narrowing — the same semantics hardware
//! converters use, so a future intrinsic swap cannot change stored bits.

/// Narrows an `f32` to IEEE binary16 bits (round-to-nearest-even, overflow
/// to ±inf, subnormal and NaN preserved).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a quiet-NaN payload bit so NaN stays NaN.
        let nan = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan | ((man >> 13) as u16 & 0x03ff);
    }
    // Unbiased exponent, rebias for f16 (bias 15 vs 127).
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal range: 10-bit mantissa with round-to-nearest-even.
        let mant = man >> 13;
        let rest = man & 0x1fff;
        let half = 0x1000;
        let mut out = ((unbiased + 15) as u32) << 10 | mant;
        if rest > half || (rest == half && (mant & 1) == 1) {
            out += 1; // may carry into the exponent; that is correct rounding
        }
        return sign | out as u16;
    }
    if unbiased >= -24 {
        // Subnormal f16: shift the implicit-1 mantissa into range.
        let full = man | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = mant;
        if rest > half || (rest == half && (mant & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    sign // underflow to signed zero
}

/// `2⁻²⁴`, the binary16 subnormal step: subnormal `m` is `m · 2⁻²⁴`.
const F16_SUBNORMAL_STEP: f32 = 1.0 / 16_777_216.0;

/// Widens IEEE binary16 bits to `f32` (exact; a NaN comes back quiet).
///
/// Branch-free: the normal, zero/subnormal and inf/NaN results are each
/// computed and one is selected, so a slice loop over this function
/// vectorizes. A normal value only needs its exponent rebiased (15 → 127),
/// one add on the adjacent exponent and mantissa bits; inf/NaN force the
/// exponent to all ones. A subnormal `m · 2⁻²⁴` (`m < 2¹⁰`) is a normal
/// `f32`, so the integer-to-float convert and the multiply by a power of
/// two are exact.
#[inline(always)]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let man = h & 0x03ff;
    let normal = ((h & 0x7fff) << 13) + ((127 - 15) << 23);
    let small = ((man as i32) as f32 * F16_SUBNORMAL_STEP).to_bits();
    let quiet = if man != 0 { 0x0040_0000 } else { 0 };
    let bits = match h & 0x7c00 {
        0 => small,
        0x7c00 => normal | 0x7f80_0000 | quiet,
        _ => normal,
    };
    f32::from_bits(((h & 0x8000) << 16) | bits)
}

/// Values widened per pass of [`extend_f16_le`].
const WIDEN_RUN: usize = 64;

/// Widens the little-endian binary16 values `src` to `f64` and appends them
/// to `out` — the value loop of every f16 payload decoder.
///
/// Two passes per run of [`WIDEN_RUN`] values: binary16 to `f32` in 32-bit
/// lanes, then `f32` to `f64`. Each pass vectorizes at its own lane width;
/// one pass straight to `f64` would run the integer work at the `f64`
/// width, two lanes to a baseline vector instead of four.
pub fn extend_f16_le(out: &mut Vec<f64>, src: &[[u8; 2]]) {
    let mut wide = [0.0f32; WIDEN_RUN];
    out.reserve(src.len());
    for run in src.chunks(WIDEN_RUN) {
        let wide = &mut wide[..run.len()];
        for (w, &b) in wide.iter_mut().zip(run) {
            *w = f16_bits_to_f32(u16::from_le_bytes(b));
        }
        out.extend(wide.iter().map(|&w| f64::from(w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branching widening [`f16_bits_to_f32`] replaced: the reference
    /// it must match bit for bit.
    fn f16_bits_to_f32_reference(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1f) as u32;
        let man = (h & 0x03ff) as u32;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, m) => {
                // Subnormal (value = 0.m * 2^-14): normalize until the
                // implicit bit (bit 10) is set, tracking the exponent.
                let mut m = m;
                let mut e: i32 = -14;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | (((e + 127) as u32) << 23) | ((m & 0x03ff) << 13)
            }
            (0x1f, 0) => sign | 0x7f80_0000,
            (0x1f, m) => sign | 0x7f80_0000 | (m << 13) | 0x0040_0000,
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    #[test]
    fn widening_matches_reference_for_every_bit_pattern() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_bits_to_f32(h), f16_bits_to_f32_reference(h));
            assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
        }
        // The same patterns through the decoders' vectorized slice loop,
        // appended behind existing values.
        let le: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let mut wide = vec![f64::NAN; 3];
        extend_f16_le(&mut wide, le.as_chunks().0);
        assert_eq!(wide.len(), 3 + (1 << 16));
        let wide = wide.split_off(3);
        for (h, got) in (0..=u16::MAX).zip(wide) {
            let want = f64::from(f16_bits_to_f32_reference(h));
            assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
        }
    }

    #[test]
    fn f16_roundtrips_exactly_representable_values() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.25, -65504.0] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back, v, "{v}");
        }
    }

    #[test]
    fn f16_relative_error_is_bounded() {
        for i in 0..2000 {
            let v = (i as f32 - 1000.0) * 0.173 + 0.001;
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            let rel = ((back - v) / v).abs();
            assert!(rel < 1.0 / 1024.0, "{v} -> {back} rel {rel}");
        }
    }

    #[test]
    fn f16_specials() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        // Overflow saturates to inf.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e8)), f32::INFINITY);
        // Tiny values flush toward zero through the subnormal range.
        let tiny = f16_bits_to_f32(f32_to_f16_bits(1e-5));
        assert!((tiny - 1e-5).abs() / 1e-5 < 0.05, "subnormal {tiny}");
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-12)), 0.0);
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2^-11 ties between 1.0 (even mantissa) and 1 + 2^-10 (odd);
        // ties-to-even keeps 1.0. 1 + 3*2^-11 ties between 1 + 2^-10 (odd)
        // and 1 + 2^-9 (even); ties-to-even rounds up to 1 + 2^-9.
        let v = 1.0 + f32::powi(2.0, -11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), 1.0);
        let v = 1.0 + 3.0 * f32::powi(2.0, -11);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(v)),
            1.0 + f32::powi(2.0, -9)
        );
    }
}
