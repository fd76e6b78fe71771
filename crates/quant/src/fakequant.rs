//! TensorFlow-style `FakeQuant` (the Google QAT baseline of Section 3.5)
//! with *clipped* threshold gradients, plus the per-channel symmetric
//! real-scaled variant used in the paper's Table 1 comparison.
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
use crate::tqt::PAR_BLOCK;
use tqt_rt::pool;
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
    /// Pool-parallel over fixed-size blocks (bit-identical to a serial
    /// run — the kernel is elementwise).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let (lo, hi, s) = self.params();
        let mut y = Tensor::zeros(x.shape().clone());
        let xd = x.data();
        pool::par_chunks_mut(y.data_mut(), PAR_BLOCK, |ci, chunk| {
            let base = ci * PAR_BLOCK;
            let end = base + chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&xd[base..end]) {
                let c = v.clamp(lo, hi);
                *o = round_half_even((c - lo) / s) * s + lo;
            }
        });
        y
    }

    /// Backward pass with TensorFlow's clipped gradients: the round is
    /// treated as identity, so thresholds receive the plain clip gradient.
    ///
    /// # Panics
    ///
    /// Panics if `gy` has a different shape than `x`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must take the else branch, as in the serial chain
    pub fn backward(&self, x: &Tensor, gy: &Tensor) -> FakeQuantGrads {
        assert!(
            x.shape().same_as(gy.shape()),
            "upstream gradient shape {} does not match input {}",
            gy.shape(),
            x.shape()
        );
        let (lo, hi) = self.nudged_limits();
        let mut dx = Tensor::zeros(x.shape().clone());
        let xd = x.data();
        let gyd = gy.data();
        pool::par_chunks_mut(dx.data_mut(), PAR_BLOCK, |ci, chunk| {
            let base = ci * PAR_BLOCK;
            for (j, o) in chunk.iter_mut().enumerate() {
                let v = xd[base + j];
                // Negated comparisons so NaN falls through to the pass-
                // through branch, exactly like the serial if/else chain.
                if !(v < lo) && !(v > hi) {
                    *o = gyd[base + j];
                }
            }
        });
        // Deterministic tree reduction: in-index-order partials per fixed
        // block, folded serially in block order (thread-count independent).
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
        FakeQuantGrads {
            dx,
            dmin: dmin as f32,
            dmax: dmax as f32,
        }
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
        let slice = &mut out.data_mut()[ci * chunk..(ci + 1) * chunk];
        let amax = slice.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if amax == 0.0 { // tqt:allow(float-eq): exact-zero tensor has no scale
            continue;
        }
        let s = amax / p;
        for v in slice.iter_mut() {
            *v = round_half_even(*v / s).clamp(-p - 1.0, p) * s;
        }
    }
    out
}

/// Per-tensor symmetric quantization with a real max-abs scale (the
/// weight-quantization flavor used by the per-tensor asymmetric-activation
/// QAT row of Table 1).
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn quantize_per_tensor_symmetric_real(w: &Tensor, bits: u32) -> Tensor {
    assert!(bits >= 2, "needs at least 2 bits");
    let p = ((1u32 << (bits - 1)) - 1) as f32;
    let amax = w.abs_max();
    if amax == 0.0 { // tqt:allow(float-eq): exact-zero tensor has no scale
        return w.clone();
    }
    let s = amax / p;
    w.map(|v| round_half_even(v / s).clamp(-p - 1.0, p) * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_tensor::init;

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
        // Per-tensor real-scale quantization loses channel 0 precision.
        let qt = quantize_per_tensor_symmetric_real(&w, 8);
        assert!((qt.data()[0] - 0.5).abs() < 0.5);
        assert!(
            (q.data()[0] - 0.5).abs() <= (qt.data()[0] - 0.5).abs(),
            "per-channel should be at least as accurate on small-range channels"
        );
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
