//! Quantizer configuration: bit-width, signedness, clip limits and the
//! power-of-2 scale-factor mapping of the paper's Section 3.2.

/// Bit-width and signedness of a uniform symmetric quantizer.
///
/// Following the paper, a signed tensor is clipped to `[-2^(b-1), 2^(b-1)-1]`
/// and an unsigned tensor to `[0, 2^b - 1]`, and the power-of-2 scale-factor
/// maps the lowest power of two larger than the raw threshold `t` to the
/// largest magnitude supported in the quantized domain.
///
/// # Examples
///
/// ```
/// use tqt_quant::QuantSpec;
/// let s = QuantSpec::INT8;
/// assert_eq!(s.qmin(), -128.0);
/// assert_eq!(s.qmax(), 127.0);
/// // With raw threshold t = 1.0 (log2 t = 0): s = 2^0 / 2^7 = 1/128.
/// assert_eq!(s.scale_for_log2_t(0.0), 1.0 / 128.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    bits: u32,
    signed: bool,
}

impl QuantSpec {
    /// Signed 8-bit quantizer (weights and signed activations).
    pub const INT8: QuantSpec = QuantSpec {
        bits: 8,
        signed: true,
    };
    /// Unsigned 8-bit quantizer (post-ReLU activations).
    pub const UINT8: QuantSpec = QuantSpec {
        bits: 8,
        signed: false,
    };
    /// Signed 4-bit quantizer (INT4 weight mode, 4/8 W/A).
    pub const INT4: QuantSpec = QuantSpec {
        bits: 4,
        signed: true,
    };
    /// Unsigned 4-bit quantizer.
    pub const UINT4: QuantSpec = QuantSpec {
        bits: 4,
        signed: false,
    };
    /// Signed 16-bit quantizer (internal accumulator requantization,
    /// leaky-ReLU internals).
    pub const INT16: QuantSpec = QuantSpec {
        bits: 16,
        signed: true,
    };
    /// Unsigned 16-bit quantizer.
    pub const UINT16: QuantSpec = QuantSpec {
        bits: 16,
        signed: false,
    };

    /// Creates a quantizer spec.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 24` (beyond 24 bits an `f32` mantissa can
    /// no longer represent every level exactly, breaking bit-accuracy).
    pub fn new(bits: u32, signed: bool) -> Self {
        assert!(
            (2..=24).contains(&bits),
            "bit-width {bits} outside supported range 2..=24"
        );
        QuantSpec { bits, signed }
    }

    /// Bit-width `b`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether the quantized domain is signed.
    pub fn signed(&self) -> bool {
        self.signed
    }

    /// Lower clip limit `n` in the quantized domain
    /// (`-2^(b-1)` signed, `0` unsigned).
    pub fn qmin(&self) -> f32 {
        if self.signed {
            -((1u32 << (self.bits - 1)) as f32)
        } else {
            0.0
        }
    }

    /// Upper clip limit `p` in the quantized domain
    /// (`2^(b-1) - 1` signed, `2^b - 1` unsigned).
    pub fn qmax(&self) -> f32 {
        if self.signed {
            ((1u32 << (self.bits - 1)) - 1) as f32
        } else {
            ((1u64 << self.bits) - 1) as f32
        }
    }

    /// The exponent of the scale denominator: `b-1` for signed data and `b`
    /// for unsigned data, so that `s = 2^(ceil(log2 t)) / 2^denom`.
    pub fn scale_denom_log2(&self) -> i32 {
        if self.signed {
            self.bits as i32 - 1
        } else {
            self.bits as i32
        }
    }

    /// Power-of-2 scale-factor for a log-domain threshold:
    /// `s = 2^(ceil(log2 t) - denom)` (eq. 4 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `log2_t` is not finite.
    pub fn scale_for_log2_t(&self, log2_t: f32) -> f32 {
        assert!(log2_t.is_finite(), "log2 threshold must be finite");
        pow2i(log2_t.ceil() as i32 - self.scale_denom_log2())
    }

    /// The fractional length `f` such that `s = 2^-f`, for the fixed-point
    /// backend (positive `f` means fractional bits).
    pub fn fractional_length(&self, log2_t: f32) -> i32 {
        self.scale_denom_log2() - log2_t.ceil() as i32
    }

    /// Real-domain clipping limits `(x_n, x_p) = (s(n - 0.5), s(p + 0.5))`
    /// — the exact boundaries where inputs start to clip (Section 3.4).
    pub fn real_clip_limits(&self, log2_t: f32) -> (f32, f32) {
        let s = self.scale_for_log2_t(log2_t);
        (s * (self.qmin() - 0.5), s * (self.qmax() + 0.5))
    }
}

/// Exact power of two as `f32`, valid over the full exponent range used by
/// quantization scales.
pub fn pow2i(e: i32) -> f32 {
    2.0f32.powi(e)
}

/// 2²³: the smallest `f32` magnitude whose unit in the last place is 1.
const TWO_POW_23: f32 = 8_388_608.0;

/// Round-half-to-even ("banker's rounding"), the rounding mode the paper
/// mandates to avoid systematic bias (Section 3.2). Bit-identical to
/// [`f32::round_ties_even`] on every `f32` that is not a NaN, and a NaN
/// for a NaN. Every quantizer in the workspace rounds through this one
/// function.
///
/// Branch-free, so loops over it vectorize on targets without a rounding
/// instruction (baseline x86-64 has none before SSE4.1, and
/// `round_ties_even` becomes an out-of-line libm call per element). Why
/// the formula is exact, for `a = |x|`:
///
/// * `a < 2²³`: the exact sum `a + 2²³` lies in `[2²³, 2²⁴)`, where the
///   `f32` spacing is exactly 1 (and 2²⁴ is representable), so the
///   addition's own round-to-nearest-even step rounds `a` to the nearest
///   integer, ties to even (2²³ is even, so `2²³ + k` is even exactly
///   when `k` is). Subtracting 2²³ is then exact
///   (Sterbenz), and `copysign` restores the sign, so `-0.3` gives `-0.0`
///   like `round_ties_even`. The default IEEE rounding mode is the only one
///   Rust exposes, and Rust never reassociates float arithmetic, so
///   `(a + 2²³) − 2²³` is never folded to `a`.
/// * `a ≥ 2²³`, ±∞ and NaN: every such finite `f32` is already an integer,
///   so `x` is returned as is, payload and sign bits included (`NaN < c`
///   is false).
///
/// # Examples
///
/// ```
/// use tqt_quant::round_half_even;
/// assert_eq!(round_half_even(0.5), 0.0);
/// assert_eq!(round_half_even(1.5), 2.0);
/// assert_eq!(round_half_even(2.5), 2.0);
/// assert_eq!(round_half_even(-0.5), 0.0);
/// ```
#[inline]
pub fn round_half_even(x: f32) -> f32 {
    let a = x.abs();
    if a < TWO_POW_23 {
        ((a + TWO_POW_23) - TWO_POW_23).copysign(x)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_limits() {
        assert_eq!(QuantSpec::INT8.qmin(), -128.0);
        assert_eq!(QuantSpec::INT8.qmax(), 127.0);
        assert_eq!(QuantSpec::UINT8.qmin(), 0.0);
        assert_eq!(QuantSpec::UINT8.qmax(), 255.0);
        assert_eq!(QuantSpec::INT4.qmin(), -8.0);
        assert_eq!(QuantSpec::INT4.qmax(), 7.0);
        assert_eq!(QuantSpec::UINT4.qmax(), 15.0);
    }

    #[test]
    fn scale_is_power_of_two() {
        for spec in [QuantSpec::INT8, QuantSpec::UINT8, QuantSpec::INT4] {
            for log2_t in [-5.3f32, -1.0, 0.0, 0.2, 3.7] {
                let s = spec.scale_for_log2_t(log2_t);
                assert_eq!(s.log2().fract(), 0.0, "scale {s} is not a power of 2");
            }
        }
    }

    #[test]
    fn scale_matches_paper_formula() {
        // Signed b=3, t=1.0 (paper's Figure 1 example): s = 2^0 / 2^2 = 0.25
        let spec = QuantSpec::new(3, true);
        assert_eq!(spec.scale_for_log2_t(0.0), 0.25);
        // Unsigned b=3, t=1.0: s = 2^0 / 2^3 = 0.125
        let spec = QuantSpec::new(3, false);
        assert_eq!(spec.scale_for_log2_t(0.0), 0.125);
    }

    #[test]
    fn ceil_biases_scale_up() {
        // t = 1.1 => ceil(log2 t) = 1 => s doubles vs t = 1.0.
        let spec = QuantSpec::INT8;
        assert_eq!(
            spec.scale_for_log2_t(1.1f32.log2()),
            2.0 * spec.scale_for_log2_t(0.0)
        );
    }

    #[test]
    fn fractional_length_inverts_scale() {
        let spec = QuantSpec::INT8;
        for log2_t in [-3.0f32, 0.0, 2.5] {
            let f = spec.fractional_length(log2_t);
            assert_eq!(pow2i(-f), spec.scale_for_log2_t(log2_t));
        }
    }

    #[test]
    fn real_clip_limits_bracket_threshold() {
        let spec = QuantSpec::INT8;
        let (xn, xp) = spec.real_clip_limits(0.0);
        assert!(xn < 0.0 && xp > 0.0);
        // For signed data the positive limit is just below 2^ceil(log2 t).
        assert!((xp - (127.5 / 128.0)).abs() < 1e-6);
    }

    #[test]
    fn bankers_rounding() {
        assert_eq!(round_half_even(0.5), 0.0);
        assert_eq!(round_half_even(1.5), 2.0);
        assert_eq!(round_half_even(-1.5), -2.0);
        assert_eq!(round_half_even(-2.5), -2.0);
        assert_eq!(round_half_even(0.49999), 0.0);
        assert_eq!(round_half_even(3.0), 3.0);
    }

    /// The bit patterns the formula's edge cases live at: ±0, ties, the
    /// 2²²…2²⁴ neighbourhoods where the spacing crosses ½, 1 and 2,
    /// subnormals, ±∞ and NaNs with payloads.
    fn edge_patterns() -> Vec<u32> {
        let mut bits = vec![
            0x0000_0000, // +0
            0x0000_0001, // smallest subnormal
            0x0000_1234,
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x7f7f_ffff, // f32::MAX
            0x7f80_0000, // +inf
            0x7f80_0001, // signalling NaN
            0x7fc0_0000, // quiet NaN
            0x7fff_ffff, // NaN, full payload
        ];
        for v in [0.5f32, 1.5, 2.5, 3.5, 0.499_999_97, 0.500_000_06, 1.0, 2.0] {
            bits.push(v.to_bits());
        }
        for e in [22, 23, 24] {
            let centre = 2.0f32.powi(e).to_bits();
            for d in 0..=4u32 {
                bits.push(centre + d);
                bits.push(centre - d);
            }
            // Ties just below the power: k + ½ where the spacing is ½.
            bits.push((2.0f32.powi(e) - 0.5).to_bits());
            bits.push((2.0f32.powi(e) - 1.5).to_bits());
        }
        // Every pattern above with its sign bit flipped too.
        let neg: Vec<u32> = bits.iter().map(|b| b ^ 0x8000_0000).collect();
        bits.extend(neg);
        bits
    }

    /// Bitwise comparison against `f32::round_ties_even`, the oracle, with
    /// every NaN counted as equal to every other NaN.
    fn assert_matches_oracle(b: u32) {
        let x = f32::from_bits(b);
        let (got, want) = (round_half_even(x), x.round_ties_even());
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "round_half_even({x:e}) [{b:#010x}] = {got:e} [{:#010x}], oracle {want:e} [{:#010x}]",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn round_half_even_matches_oracle_at_edges() {
        for b in edge_patterns() {
            assert_matches_oracle(b);
        }
        // NaN keeps its bits exactly: the formula returns `x` unchanged.
        for b in [0x7fc0_0000u32, 0xffc0_0001, 0x7f80_0001] {
            assert_eq!(round_half_even(f32::from_bits(b)).to_bits(), b);
        }
        assert_eq!(round_half_even(-0.3).to_bits(), (-0.0f32).to_bits());
        assert_eq!(round_half_even(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn round_half_even_matches_oracle_on_strided_sweep() {
        // An odd stride visits every exponent and all low mantissa bits.
        let mut b = 0u32;
        loop {
            assert_matches_oracle(b);
            match b.checked_add(4099) {
                Some(next) => b = next,
                None => break,
            }
        }
    }

    /// All 2³² patterns: about 7 s in release mode on two threads, so it
    /// runs only when asked for
    /// (`cargo test --release -p tqt-quant -- --ignored`).
    #[test]
    #[ignore]
    fn round_half_even_matches_oracle_on_every_f32() {
        let chunks = tqt_rt::pool::par_map(256, |hi| {
            let base = (hi as u32) << 24;
            (0..1u32 << 24).all(|lo| {
                let x = f32::from_bits(base | lo);
                let (got, want) = (round_half_even(x), x.round_ties_even());
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
            })
        });
        for (hi, ok) in chunks.iter().enumerate() {
            if !ok {
                // Report the first failing pattern of the chunk.
                for lo in 0..1u32 << 24 {
                    assert_matches_oracle(((hi as u32) << 24) | lo);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit-width")]
    fn rejects_tiny_bitwidth() {
        QuantSpec::new(1, true);
    }
}
