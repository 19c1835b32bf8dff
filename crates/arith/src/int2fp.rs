//! INT-to-FP conversion (paper Fig. 4c).
//!
//! The INT2FP unit at the bottom of each PE column normalises the aligned
//! integer accumulator and rounds **once** to FP32 (round-to-nearest, ties
//! to even). Because every upstream step is exact, this single rounding
//! makes the column output the correctly-rounded value of the exact dot
//! product.

/// Converts `mag × 2^frame` (plus an optional sticky flag for bits already
/// discarded below the frame by a bounded align unit) to `f32` with a single
/// round-to-nearest-even.
///
/// Exact zero converts to `+0.0`. Values beyond the f32 range saturate to
/// ±∞; values below the subnormal grid round to (signed) zero.
///
/// ```
/// use owlp_arith::int2fp::int_to_f32;
/// assert_eq!(int_to_f32(3, -1, false), 1.5);
/// assert_eq!(int_to_f32(-5, 2, false), -20.0);
/// assert_eq!(int_to_f32(0, 0, false).to_bits(), 0.0f32.to_bits());
/// ```
pub fn int_to_f32(mag: i128, frame: i32, sticky: bool) -> f32 {
    if mag == 0 {
        // A sticky remnant below an exact zero is smaller than half of any
        // ulp: rounds to zero.
        return 0.0;
    }
    let negative = mag < 0;
    let abs = mag.unsigned_abs();
    round_u128_to_f32(abs, frame, sticky, negative)
}

/// Round-to-nearest-even conversion of `abs × 2^frame` to f32 with an
/// explicit sign and extra sticky input.
pub(crate) fn round_u128_to_f32(abs: u128, frame: i32, extra_sticky: bool, negative: bool) -> f32 {
    debug_assert!(abs != 0);
    let msb = 127 - abs.leading_zeros() as i32;
    // Cut position (in bits above `frame`'s grid) so the kept integer has at
    // most 24 bits and the result lands on f32's (sub)normal grid.
    let cut = (msb - 23).max(-149 - frame);
    let value = if cut <= 0 {
        // Fewer than 24 significant bits available: exact, no rounding.
        // (abs < 2^24 here, so the f64 product below is exact.)
        debug_assert!(abs < 1 << 24);
        abs as f64 * pow2(frame)
    } else {
        let kept = (abs >> cut) as u64;
        let guard = abs & (1u128 << (cut - 1)) != 0;
        let below = abs & ((1u128 << (cut - 1)) - 1) != 0;
        let sticky = below || extra_sticky;
        let rounded = if guard && (sticky || kept & 1 == 1) {
            kept + 1
        } else {
            kept
        };
        rounded as f64 * pow2(frame + cut)
    };
    let signed = if negative { -value } else { value };
    // `value` is exactly on the f32 grid (or overflows), so this conversion
    // cannot introduce a second rounding.
    signed as f32
}

/// `2^e` as an `f64`, built from its exponent bits. Both callers scale by
/// at least `2^-149` (the f32 subnormal grid), so `e` never needs an f64
/// subnormal; above f64's range the product overflows f32 anyway, and
/// `+∞` saturates it the same way.
#[inline]
fn pow2(e: i32) -> f64 {
    debug_assert!(e >= -1022, "scale below f64's normal range");
    if e > 1023 {
        f64::INFINITY
    } else {
        f64::from_bits(((e + 1023) as u64) << 52)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_matches_exp2_across_the_normal_range() {
        for e in -1022..=1023 {
            assert_eq!(pow2(e).to_bits(), (e as f64).exp2().to_bits(), "2^{e}");
        }
        assert_eq!(pow2(1024), f64::INFINITY);
        assert_eq!(pow2(5000), (5000f64).exp2());
    }

    #[test]
    fn exact_small_values() {
        assert_eq!(int_to_f32(1, 0, false), 1.0);
        assert_eq!(int_to_f32(255, -7, false), 255.0 / 128.0);
        assert_eq!(int_to_f32(-1, -126, false), -(-126.0f32).exp2());
    }

    #[test]
    fn rounding_to_24_bits() {
        // 2^25 + 1 needs 26 bits → rounds to 2^25 (tie? no: guard 0).
        assert_eq!(int_to_f32((1 << 25) + 1, 0, false), (1u32 << 25) as f32);
        // 2^24 + 1: guard is the dropped 1, sticky 0, kept even → stays.
        assert_eq!(int_to_f32((1 << 24) + 1, 0, false), (1u32 << 24) as f32);
        // 2^24 + 3: kept odd low bit + guard → rounds up.
        assert_eq!(
            int_to_f32((1 << 24) + 3, 0, false),
            ((1u32 << 24) + 4) as f32
        );
    }

    #[test]
    fn sticky_breaks_ties_upward() {
        // 2^24 + 1 is a tie without sticky (stays even); with sticky set the
        // value is strictly above the tie → rounds up.
        assert_eq!(
            int_to_f32((1 << 24) + 1, 0, true),
            ((1u32 << 24) + 2) as f32
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(int_to_f32(1, 200, false), f32::INFINITY);
        assert_eq!(int_to_f32(-1, 200, false), f32::NEG_INFINITY);
    }

    #[test]
    fn underflow_hits_the_subnormal_grid() {
        // 2^-149 is the smallest f32 subnormal.
        assert_eq!(int_to_f32(1, -149, false), (-149.0f32).exp2());
        // 2^-150 is exactly half the smallest subnormal: ties-to-even → 0.
        assert_eq!(int_to_f32(1, -150, false), 0.0);
        // 3 × 2^-150 rounds to 2 × 2^-149.
        assert_eq!(int_to_f32(3, -150, false), 2.0 * (-149.0f32).exp2());
    }

    #[test]
    fn zero_is_positive_zero() {
        assert_eq!(int_to_f32(0, 0, false).to_bits(), 0.0f32.to_bits());
        assert_eq!(int_to_f32(0, 0, true).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn agrees_with_f64_rounding_on_moderate_values() {
        // For values well inside the normal range, converting via f64 in one
        // step is also correctly rounded — cross-check.
        for mag in [12345678901i128, -987654321, 1, -255, (1 << 40) + 12345] {
            for frame in [-30i32, -7, 0, 13] {
                let direct = int_to_f32(mag, frame, false);
                let via_f64 = (mag as f64 * (frame as f64).exp2()) as f32;
                assert_eq!(
                    direct.to_bits(),
                    via_f64.to_bits(),
                    "mag {mag} frame {frame}"
                );
            }
        }
    }
}
