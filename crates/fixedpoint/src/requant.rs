//! Requantization: converting an accumulator between fixed-point formats.
//!
//! Implements the three schemes of Appendix A, in decreasing cost order:
//!
//! * **affine** (eq. 13): zero-points produce cross-terms that must be
//!   handled per element;
//! * **real-scaled symmetric** (eq. 15): a normalized fixed-point
//!   multiplier `2^-n * s0` with `s0 ∈ [0.5, 1)`;
//! * **power-of-2 symmetric** (eq. 16): a bare bit-shift with
//!   round-to-nearest — the scheme TQT's constraints enable.

/// Arithmetic right shift by `shift` with round-half-to-even, the rounding
/// the paper mandates. A non-positive `shift` is a left shift (exact).
///
/// # Examples
///
/// ```
/// use tqt_fixedpoint::requant::shift_round;
/// assert_eq!(shift_round(6, 2), 2);   // 1.5 -> 2? no: 6/4 = 1.5 -> ties-to-even -> 2
/// assert_eq!(shift_round(10, 2), 2);  // 2.5 -> 2
/// assert_eq!(shift_round(-6, 2), -2); // -1.5 -> -2
/// assert_eq!(shift_round(5, 0), 5);
/// assert_eq!(shift_round(5, -1), 10);
/// ```
pub fn shift_round(v: i64, shift: i32) -> i64 {
    if shift <= 0 {
        return v << (-shift);
    }
    let half = 1i64 << (shift - 1);
    let mask = !(-1i64 << shift); // 2^shift - 1, without overflow at shift 63
    let rem = v & mask; // non-negative remainder (arithmetic semantics)
    let floor = v >> shift;
    if rem > half || (rem == half && (floor & 1) != 0) {
        floor + 1
    } else {
        floor
    }
}

/// Saturates `v` into `[lo, hi]`.
pub fn saturate(v: i64, lo: i64, hi: i64) -> i64 {
    v.clamp(lo, hi)
}

/// Power-of-2 requantization (eq. 16): shift with round-half-to-even, then
/// saturate.
pub fn requant_pow2(acc: i64, shift: i32, lo: i64, hi: i64) -> i64 {
    saturate(shift_round(acc, shift), lo, hi)
}

/// A real-valued multiplier in normalized fixed-point form
/// `m = s0 * 2^-n` with `s0 ∈ [0.5, 1)` stored as a Q15 integer
/// (eq. 15 / gemmlowp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalizedMultiplier {
    /// `round(s0 * 2^15)`, in `[2^14, 2^15]`.
    pub s0_q15: i32,
    /// Right-shift amount `n` (may be negative for multipliers ≥ 1).
    pub n: i32,
}

impl NormalizedMultiplier {
    /// Decomposes a positive real multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is positive and finite.
    pub fn from_f64(m: f64) -> Self {
        assert!(m > 0.0 && m.is_finite(), "multiplier must be positive, got {m}");
        let mut n = 0i32;
        let mut s0 = m;
        while s0 < 0.5 {
            s0 *= 2.0;
            n += 1;
        }
        while s0 >= 1.0 {
            s0 /= 2.0;
            n -= 1;
        }
        NormalizedMultiplier {
            s0_q15: (s0 * (1 << 15) as f64).round() as i32, // tqt:allow(narrowing-cast): s0 in [0.5, 1) so the product fits 16 bits
            n,
        }
    }

    /// The real value this multiplier approximates.
    pub fn value(&self) -> f64 {
        self.s0_q15 as f64 / (1 << 15) as f64 * 2f64.powi(-self.n)
    }
}

/// Real-scaled symmetric requantization (eq. 15): multiply by the Q15
/// mantissa, shift right by `15 + n` with rounding, saturate.
pub fn requant_real(acc: i64, m: NormalizedMultiplier, lo: i64, hi: i64) -> i64 {
    let wide = acc * m.s0_q15 as i64;
    saturate(shift_round(wide, 15 + m.n), lo, hi)
}

/// Affine requantization with zero-points (eq. 13):
/// `q3 = z3 + m * (q1q2_acc - q1_sum*z2 - q2_sum*z1 + k*z1*z2)` — the
/// cross-terms an affine quantizer must carry through every accumulation.
/// `acc` is the raw Σq1·q2, `q1_sum`/`q2_sum` the operand sums over the
/// reduction axis and `k` its length.
#[allow(clippy::too_many_arguments)]
pub fn requant_affine(
    acc: i64,
    q1_sum: i64,
    q2_sum: i64,
    k: i64,
    z1: i64,
    z2: i64,
    z3: i64,
    m: NormalizedMultiplier,
    lo: i64,
    hi: i64,
) -> i64 {
    let corrected = acc - q1_sum * z2 - q2_sum * z1 + k * z1 * z2;
    let wide = corrected * m.s0_q15 as i64;
    saturate(z3 + shift_round(wide, 15 + m.n), lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_round_matches_float_reference() {
        for v in -1000i64..1000 {
            for shift in 1..6 {
                let expected = (v as f64 / f64::from(1 << shift)).round_ties_even() as i64;
                assert_eq!(
                    shift_round(v, shift),
                    expected,
                    "v={v} shift={shift}"
                );
            }
        }
    }

    #[test]
    fn left_shift_is_exact() {
        assert_eq!(shift_round(-3, -4), -48);
    }

    #[test]
    fn widest_shift_rounds_half_even() {
        assert_eq!(shift_round(i64::MAX, 63), 1);
        assert_eq!(shift_round(1 << 62, 63), 0, "0.5 ties to even");
        assert_eq!(shift_round(3 << 61, 63), 1);
        assert_eq!(shift_round(i64::MIN, 63), -1);
    }

    #[test]
    fn normalized_multiplier_accuracy() {
        for &m in &[0.3717, 0.0042, 0.9999, 1.7, 12.0] {
            let nm = NormalizedMultiplier::from_f64(m);
            assert!(
                nm.s0_q15 >= 1 << 14 && nm.s0_q15 <= 1 << 15,
                "mantissa out of range for {m}"
            );
            let rel = (nm.value() - m).abs() / m;
            assert!(rel < 1e-4, "multiplier {m} approximated poorly: {}", nm.value());
        }
    }

    #[test]
    fn pow2_equals_real_when_multiplier_is_pow2() {
        // With s0 = 0.5 exactly, the real-scaled path must agree with a
        // plain shift.
        let m = NormalizedMultiplier::from_f64(0.25);
        assert_eq!(m.s0_q15, 1 << 14);
        for acc in [-10_000i64, -37, 0, 55, 9_999] {
            assert_eq!(
                requant_real(acc, m, -128, 127),
                requant_pow2(acc, 2, -128, 127),
                "acc={acc}"
            );
        }
    }

    #[test]
    fn affine_reduces_to_symmetric_with_zero_zeropoints() {
        let m = NormalizedMultiplier::from_f64(0.0123);
        for acc in [-5000i64, 0, 777] {
            assert_eq!(
                requant_affine(acc, 11, -7, 64, 0, 0, 0, m, -128, 127),
                requant_real(acc, m, -128, 127)
            );
        }
    }

    #[test]
    fn affine_cross_terms_correct() {
        // Reference computation: q3 = z3 + m * sum((q1-z1)(q2-z2)).
        let q1 = [3i64, -2, 7, 0];
        let q2 = [1i64, 5, -3, 2];
        let (z1, z2, z3) = (2i64, -1, 4);
        let m = NormalizedMultiplier::from_f64(0.11);
        let acc: i64 = q1.iter().zip(&q2).map(|(&a, &b)| a * b).sum();
        let s1: i64 = q1.iter().sum();
        let s2: i64 = q2.iter().sum();
        let direct: i64 = q1
            .iter()
            .zip(&q2)
            .map(|(&a, &b)| (a - z1) * (b - z2))
            .sum();
        let via_cross = requant_affine(acc, s1, s2, 4, z1, z2, z3, m, -128, 127);
        let expected = saturate(z3 + shift_round(direct * m.s0_q15 as i64, 15 + m.n), -128, 127);
        assert_eq!(via_cross, expected);
    }

    #[test]
    fn saturation_applies() {
        assert_eq!(requant_pow2(1 << 20, 2, -128, 127), 127);
        assert_eq!(requant_pow2(-(1 << 20), 2, -128, 127), -128);
    }
}
