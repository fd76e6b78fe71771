//! TensorFlow-style `FakeQuant` (the Google QAT baseline of Section 3.5)
//! with *clipped* threshold gradients, plus the per-channel symmetric
//! real-scaled scheme used in the paper's Table 1 comparison.
//!
//! Forward (eq. 11): an affine quantizer between learnable real thresholds
//! `(min, max)` with `2^b - 1` levels and a nudged zero-point so that real
//! zero is exactly representable.
//!
//! Backward: the round is treated as identity, so the op degenerates to a
//! clip and the threshold gradients are the clip gradients — gradients only
//! ever push the limits *outward* (toward min/max of the input
//! distribution), strictly favoring range over precision. This is exactly
//! the behaviour the TQT gradient corrects.

use crate::spec::round_half_even;
use crate::tqt::{backward_tensor, forward_pass, forward_tensor, Tqt};
use tqt_tensor::Tensor;

/// Parameters of a FakeQuant quantizer: real-valued clip limits and
/// bit-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FakeQuant {
    /// Lower real clip threshold.
    pub min: f32,
    /// Upper real clip threshold.
    pub max: f32,
    /// Bit-width `b`; the quantizer has `2^b - 1` steps.
    pub bits: u32,
}

/// Gradients of the FakeQuant op.
#[derive(Debug, Clone)]
pub struct FakeQuantGrads {
    /// Gradient w.r.t. the input: upstream passed inside `(min, max)`,
    /// zero outside (clip STE).
    pub dx: Tensor,
    /// Gradient w.r.t. the `min` threshold: sum of upstream gradient over
    /// elements below `min`.
    pub dmin: f32,
    /// Gradient w.r.t. the `max` threshold: sum of upstream gradient over
    /// elements above `max`.
    pub dmax: f32,
}

impl FakeQuant {
    /// Creates a FakeQuant quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max` or `bits < 2`.
    pub fn new(min: f32, max: f32, bits: u32) -> Self {
        assert!(min < max, "FakeQuant requires min < max, got [{min}, {max}]");
        assert!(bits >= 2, "FakeQuant requires at least 2 bits");
        FakeQuant { min, max, bits }
    }

    /// The quantization step `s = (max - min) / (2^b - 1)`.
    pub fn step(&self) -> f32 {
        self.params().2
    }

    fn levels(&self) -> f32 {
        ((1u64 << self.bits) - 1) as f32
    }

    /// Nudged clip limits so that zero is exactly representable, matching
    /// the TensorFlow kernel: the zero-point is rounded to an integer grid
    /// position and the limits shift accordingly.
    pub fn nudged_limits(&self) -> (f32, f32) {
        let (lo, hi, _) = self.params();
        (lo, hi)
    }

    /// Nudged limits and the step they were derived from. Both quantize and
    /// the limit accessors use this single computation so the grid is
    /// self-consistent to the last ulp (zero must round-trip exactly).
    fn params(&self) -> (f32, f32, f32) {
        let levels = self.levels();
        let s = (self.max - self.min) / levels;
        let zero_from_min = -self.min / s;
        let nudged_zero = zero_from_min.round().clamp(0.0, levels);
        let min_adj = -nudged_zero * s;
        let max_adj = (levels - nudged_zero) * s;
        (min_adj, max_adj, s)
    }

    /// Forward pass (eq. 11): clip, snap to the uniform grid, de-quantize.
    /// Runs the shared pooled forward loop (bit-identical to a serial run
    /// — the kernel is elementwise).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let (lo, hi, s) = self.params();
        forward_tensor(x, move |v| round_half_even((v.clamp(lo, hi) - lo) / s) * s + lo)
    }

    /// Backward pass with TensorFlow's clipped gradients: the round is
    /// treated as identity, so thresholds receive the plain clip gradient:
    /// an element's upstream gradient goes to `min` below the range, to
    /// `max` above it, and through to the input inside it (a NaN input
    /// fails both comparisons and passes through). Runs the shared
    /// backward loop, whose f64 block reduction is bitwise independent of
    /// the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `gy` has a different shape than `x`.
    pub fn backward(&self, x: &Tensor, gy: &Tensor) -> FakeQuantGrads {
        let (lo, hi) = self.nudged_limits();
        let (dx, [dmin, dmax]) = backward_tensor(x, gy, move |v, g| {
            if v < lo {
                (0.0, [g, 0.0])
            } else if v > hi {
                (0.0, [0.0, g])
            } else {
                (g, [0.0, 0.0])
            }
        });
        FakeQuantGrads { dx, dmin, dmax }
    }

    /// Initializes thresholds from the min/max of a tensor (the standard
    /// QAT calibration).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty. Degenerate (constant) tensors get a
    /// small symmetric range.
    pub fn from_min_max(t: &Tensor, bits: u32) -> Self {
        assert!(!t.is_empty(), "cannot calibrate FakeQuant on empty tensor");
        let mut lo = tqt_tensor::reduce::min(t).min(0.0);
        let mut hi = tqt_tensor::reduce::max(t).max(0.0);
        if lo == hi {
            lo -= 1e-3;
            hi += 1e-3;
        }
        FakeQuant::new(lo, hi, bits)
    }
}

/// Per-channel symmetric quantization with real (non-power-of-2) scales —
/// the "per-channel, symmetric, real scaling" scheme of Google's QAT that
/// Table 1 compares TQT against. Channels index dimension 0 of the weight
/// tensor (output channels).
///
/// # Panics
///
/// Panics if `w` has rank 0 or `bits < 2`.
pub fn quantize_per_channel_symmetric(w: &Tensor, bits: u32) -> Tensor {
    assert!(w.ndim() >= 1, "per-channel quantization needs rank >= 1");
    assert!(bits >= 2, "per-channel quantization needs at least 2 bits");
    let c = w.dim(0);
    let chunk = w.len() / c;
    let p = ((1u32 << (bits - 1)) - 1) as f32;
    let mut out = w.clone();
    for ci in 0..c {
        let range = ci * chunk..(ci + 1) * chunk;
        let x = &w.data()[range.clone()];
        let amax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if amax == 0.0 { // tqt:allow(float-eq): exact-zero tensor has no scale
            continue;
        }
        // Eq. 4's clip/round/de-quant at the channel's real scale.
        let rule = Tqt { s: amax / p, n: -p - 1.0, p };
        forward_pass(x, &mut out.data_mut()[range], move |v| rule.forward(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::pow2i;
    use crate::tqt::PAR_BLOCK;
    use tqt_rt::pool;
    use tqt_tensor::init;

    /// The two-pass backward the shared loop replaced, kept as its oracle:
    /// a mask pass, then a block fold of the clip gradients over the same
    /// blocks, started from `+0.0`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must take the pass-through branch
    fn two_pass_backward(fq: &FakeQuant, xd: &[f32], gyd: &[f32]) -> (Vec<f32>, f32, f32) {
        let (lo, hi) = fq.nudged_limits();
        let dx = xd
            .iter()
            .zip(gyd)
            .map(|(&v, &g)| if !(v < lo) && !(v > hi) { g } else { 0.0 })
            .collect();
        let partials = pool::par_fold_blocks(xd.len(), PAR_BLOCK, |_, range| {
            let (mut dmin, mut dmax) = (0.0f64, 0.0f64);
            for i in range {
                if xd[i] < lo {
                    dmin += f64::from(gyd[i]);
                } else if xd[i] > hi {
                    dmax += f64::from(gyd[i]);
                }
            }
            (dmin, dmax)
        });
        let (dmin, dmax) = partials
            .iter()
            .fold((0.0f64, 0.0f64), |(a, b), &(c, d)| (a + c, b + d));
        (dx, dmin as f32, dmax as f32)
    }

    #[test]
    fn shared_backward_matches_two_pass_bitwise() {
        let fq = FakeQuant::new(-1.1, 0.9, 8);
        let (lo, hi) = fq.nudged_limits();
        let s = fq.step();
        let mut rng = init::rng(16);
        let len = 3 * PAR_BLOCK + 77;
        let mut x = init::normal([len], 0.0, 1.5, &mut rng).data().to_vec();
        // Upstream gradients over 41 binades, and in every 256 elements a
        // pair of ±2⁷⁰ terms on each side of the range that cancel, so the
        // sums' bits depend on the summation order within a block.
        let mut gy: Vec<f32> = init::normal([len], 0.0, 1.0, &mut rng)
            .data()
            .iter()
            .enumerate()
            .map(|(i, &g)| g * pow2i((i % 41) as i32 - 20))
            .collect();
        for t0 in (0..len - 256).step_by(256) {
            (x[t0 + 10], x[t0 + 200]) = (-5.0, -5.0);
            (gy[t0 + 10], gy[t0 + 200]) = (pow2i(70), -pow2i(70));
            (x[t0 + 20], x[t0 + 210]) = (5.0, 5.0);
            (gy[t0 + 20], gy[t0 + 210]) = (-pow2i(70), pow2i(70));
        }
        // The same across the first two blocks, so the block fold order
        // matters too.
        (x[5], x[PAR_BLOCK + 5]) = (-5.0, -5.0);
        (gy[5], gy[PAR_BLOCK + 5]) = (pow2i(70), -pow2i(70));
        // Clip edges and their neighbours, grid ties, signed zeros,
        // infinities and a NaN (which passes its gradient through).
        let specials = [
            lo,
            hi,
            lo.next_down(),
            hi.next_up(),
            lo.next_up(),
            hi.next_down(),
            lo + 0.5 * s,
            lo + 100.5 * s,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (i, &v) in specials.iter().enumerate() {
            x[i * 97 + 1] = v;
            x[len - 1 - i] = v;
        }
        gy[3] = -0.0;
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (xt, gt) = (Tensor::from_slice(&x), Tensor::from_slice(&gy));
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let (want_dx, want_min, want_max) = two_pass_backward(&fq, &x, &gy);
            let g = fq.backward(&xt, &gt);
            assert_eq!(g.dmin.to_bits(), want_min.to_bits(), "dmin, {threads} threads");
            assert_eq!(g.dmax.to_bits(), want_max.to_bits(), "dmax, {threads} threads");
            assert_eq!(bits(g.dx.data()), bits(&want_dx), "dx, {threads} threads");
        }
        pool::set_threads(0);
    }

    #[test]
    fn zero_exactly_representable() {
        let fq = FakeQuant::new(-1.1, 0.9, 8);
        let z = fq.quantize(&Tensor::from_slice(&[0.0]));
        assert_eq!(z.data(), &[0.0]);
    }

    #[test]
    fn forward_clips_to_nudged_limits() {
        let fq = FakeQuant::new(-1.0, 1.0, 8);
        let (lo, hi) = fq.nudged_limits();
        let y = fq.quantize(&Tensor::from_slice(&[-5.0, 5.0]));
        assert!((y.data()[0] - lo).abs() < 1e-6);
        assert!((y.data()[1] - hi).abs() < 1e-6);
    }

    #[test]
    fn idempotent() {
        let mut rng = init::rng(3);
        let x = init::normal([512], 0.0, 1.0, &mut rng);
        let fq = FakeQuant::new(-0.8, 1.2, 8);
        let y = fq.quantize(&x);
        fq.quantize(&y).assert_close(&y, 1e-6);
    }

    #[test]
    fn gradients_are_clip_gradients() {
        let fq = FakeQuant::new(-1.0, 1.0, 8);
        let x = Tensor::from_slice(&[-2.0, 0.0, 2.0]);
        let gy = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let g = fq.backward(&x, &gy);
        assert_eq!(g.dx.data(), &[0.0, 1.0, 0.0]);
        assert_eq!(g.dmin, 1.0);
        assert_eq!(g.dmax, 1.0);
    }

    /// The paper's Section 3.5 claim: under an L2 quantization-error loss,
    /// FakeQuant threshold gradients never pull the limits inward — elements
    /// inside the range contribute exactly zero to the threshold gradients.
    #[test]
    fn thresholds_never_pull_inward() {
        let mut rng = init::rng(4);
        let x = init::normal([2048], 0.0, 0.2, &mut rng); // all well inside
        let fq = FakeQuant::new(-1.0, 1.0, 8);
        let q = fq.quantize(&x);
        let gy = q.zip_map(&x, |a, b| a - b);
        let g = fq.backward(&x, &gy);
        assert_eq!(g.dmin, 0.0);
        assert_eq!(g.dmax, 0.0);
    }

    #[test]
    fn per_channel_scales_independent() {
        // Channel 0 range 1.0, channel 1 range 100 — per-channel keeps
        // channel 0 precise.
        let w = Tensor::from_vec([2, 2], vec![0.5, 1.0, 50.0, 100.0]);
        let q = quantize_per_channel_symmetric(&w, 8);
        assert!((q.data()[0] - 0.5).abs() < 0.01);
        // Per-tensor real-scale quantization (one channel) loses channel 0
        // precision.
        let qt = quantize_per_channel_symmetric(&w.reshape([1, 4]), 8);
        assert!((qt.data()[0] - 0.5).abs() < 0.5);
        assert!(
            (q.data()[0] - 0.5).abs() <= (qt.data()[0] - 0.5).abs(),
            "per-channel should be at least as accurate on small-range channels"
        );
    }

    #[test]
    fn per_channel_matches_elementwise_oracle_bitwise() {
        let mut rng = init::rng(18);
        let mut w = init::normal([5, 3, 3, 3], 0.0, 1.0, &mut rng);
        // An all-zero channel has no scale and keeps its signed zeros.
        w.data_mut()[..27].fill(-0.0);
        w.data_mut()[40] = 0.0;
        let q = quantize_per_channel_symmetric(&w, 8);
        let p = 127.0f32;
        for (x, y) in w.data().chunks(27).zip(q.data().chunks(27)) {
            let amax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let s = amax / p;
            for (&v, &o) in x.iter().zip(y) {
                let want = if amax == 0.0 {
                    v
                } else {
                    round_half_even(v / s).clamp(-p - 1.0, p) * s
                };
                assert_eq!(o.to_bits(), want.to_bits(), "{v}");
            }
        }
    }

    #[test]
    fn per_channel_idempotent_and_zero_safe() {
        let w = Tensor::from_vec([2, 3], vec![0.0, 0.0, 0.0, 1.0, -2.0, 0.3]);
        let q = quantize_per_channel_symmetric(&w, 8);
        assert_eq!(&q.data()[..3], &[0.0, 0.0, 0.0]);
        quantize_per_channel_symmetric(&q, 8).assert_close(&q, 1e-6);
    }

    #[test]
    fn from_min_max_covers_data() {
        let t = Tensor::from_slice(&[-0.3, 2.0, 0.1]);
        let fq = FakeQuant::from_min_max(&t, 8);
        assert_eq!(fq.min, -0.3);
        assert_eq!(fq.max, 2.0);
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn rejects_inverted_range() {
        FakeQuant::new(1.0, -1.0, 8);
    }
}
