//! The TQT quantizer: forward pass (eq. 4) and the paper's careful
//! straight-through-estimator backward pass (eqs. 6–8).
//!
//! This is the paper's core contribution. The forward pass applies
//! scale → round(half-to-even) → saturate → de-quant. The backward pass uses
//! the STE only on the *derivative* of round/ceil (`d round(x)/dx := 1`)
//! while keeping `round(x) != x` in the gradient expressions, which yields a
//! threshold gradient that trades off range and precision instead of only
//! growing the range.
//!
//! The module also holds the one pooled forward loop and the one backward
//! loop that FakeQuant and PACT run too; each quantizer supplies only its
//! element rule.

use crate::spec::{round_half_even, QuantSpec};
use tqt_rt::pool;
use tqt_tensor::Tensor;

/// Fixed block size for the pool-parallel quantizer loops. Constant
/// (never derived from the thread count) so the work partition — and the
/// block order of the deterministic threshold-gradient reduction — is
/// identical in serial and parallel runs.
pub(crate) const PAR_BLOCK: usize = 8192;

/// Elements per tile of the backward loop: the threshold-gradient terms
/// of one tile are staged on the stack before their in-order f64 sum.
const TILE: usize = 256;

/// The one forward loop every quantizer runs: `out[i] = q(xd[i])` over
/// fixed [`PAR_BLOCK`]s on the `tqt-rt` pool. Elementwise, so the result
/// is bitwise independent of the thread count. `out` may be dirty.
///
/// # Panics
///
/// Panics if `out.len() != xd.len()`.
pub(crate) fn forward_pass(xd: &[f32], out: &mut [f32], q: impl Fn(f32) -> f32 + Sync + Copy) {
    assert_eq!(out.len(), xd.len(), "quantize output length mismatch");
    // `move`: the block owns a copy of the rule, so the element loop
    // needs no reload of its scalars after each store.
    pool::par_chunks_mut(out, PAR_BLOCK, move |ci, chunk| {
        let xs = &xd[ci * PAR_BLOCK..][..chunk.len()];
        for (o, &v) in chunk.iter_mut().zip(xs) {
            *o = q(v);
        }
    });
}

/// The one backward loop every quantizer runs. `ste(x, g)` is the
/// quantizer's element rule: the masked input gradient written to `dx`,
/// and the element's `K` threshold-gradient terms. With `gyd` absent the
/// upstream gradient is `dx` itself, read before it is masked. Each term
/// is summed in f64 in index order within fixed [`PAR_BLOCK`]s, starting
/// from `+0.0`, and the block partials are folded in block order, again
/// from `+0.0`, so the result is bitwise independent of the thread count
/// (and of the toolchain's `Sum` start value).
pub(crate) fn backward_pass<const K: usize>(
    xd: &[f32],
    gyd: Option<&[f32]>,
    dx: &mut [f32],
    ste: impl Fn(f32, f32) -> (f32, [f32; K]) + Sync + Copy,
) -> [f32; K] {
    let mut partials = vec![0.0f64; xd.len().div_ceil(PAR_BLOCK) * K];
    pool::par_chunks_mut2(dx, PAR_BLOCK, &mut partials, K, move |ci, chunk, acc| {
        let base = ci * PAR_BLOCK;
        // Per tile, the element loop has no loop-carried dependence; only
        // the f64 sums of its terms run in series, in index order.
        let mut terms = [[0.0f32; K]; TILE];
        let mut sum = [0.0f64; K];
        for (t, tile) in chunk.chunks_mut(TILE).enumerate() {
            let at = base + t * TILE;
            let xs = &xd[at..at + tile.len()];
            let terms = &mut terms[..tile.len()];
            match gyd {
                Some(gyd) => {
                    let gs = &gyd[at..at + tile.len()];
                    for j in 0..tile.len() {
                        (tile[j], terms[j]) = ste(xs[j], gs[j]);
                    }
                }
                None => {
                    for j in 0..tile.len() {
                        (tile[j], terms[j]) = ste(xs[j], tile[j]);
                    }
                }
            }
            for term in terms.iter() {
                for k in 0..K {
                    sum[k] += term[k] as f64;
                }
            }
        }
        acc.copy_from_slice(&sum);
    });
    let mut total = [0.0f64; K];
    for block in partials.chunks_exact(K) {
        for k in 0..K {
            total[k] += block[k];
        }
    }
    total.map(|t| t as f32)
}

/// [`forward_pass`] into a new tensor shaped like `x`.
pub(crate) fn forward_tensor(x: &Tensor, q: impl Fn(f32) -> f32 + Sync + Copy) -> Tensor {
    let mut y = Tensor::zeros(x.shape().clone());
    forward_pass(x.data(), y.data_mut(), q);
    y
}

/// [`backward_pass`] over tensors: the input gradient as a new tensor
/// shaped like `x`, and the `K` threshold gradients.
///
/// # Panics
///
/// Panics if `gy` has a different shape than `x`.
pub(crate) fn backward_tensor<const K: usize>(
    x: &Tensor,
    gy: &Tensor,
    ste: impl Fn(f32, f32) -> (f32, [f32; K]) + Sync + Copy,
) -> (Tensor, [f32; K]) {
    assert!(
        x.shape().same_as(gy.shape()),
        "upstream gradient shape {} does not match input {}",
        gy.shape(),
        x.shape()
    );
    let mut dx = Tensor::zeros(x.shape().clone());
    let grads = backward_pass(x.data(), Some(gy.data()), dx.data_mut(), ste);
    (dx, grads)
}

/// TQT's element rule at one power-of-2 scale `s` and integer clip range
/// `[n, p]`: its forward formula (eq. 4) and its gradient formula
/// (eqs. 7–8), each written once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tqt {
    pub(crate) s: f32,
    pub(crate) n: f32,
    pub(crate) p: f32,
}

impl Tqt {
    fn at(log2_t: f32, spec: QuantSpec) -> Self {
        Tqt {
            s: spec.scale_for_log2_t(log2_t),
            n: spec.qmin(),
            p: spec.qmax(),
        }
    }

    /// `q(x; s) = clip(round(x / s), n, p) · s` (eq. 4).
    #[inline(always)]
    pub(crate) fn forward(self, x: f32) -> f32 {
        round_half_even(x / self.s).clamp(self.n, self.p) * self.s
    }

    /// The masked input gradient (eq. 8) and the log-threshold term
    /// (eq. 7) of one element with upstream gradient `g`. One rounding
    /// yields both. A NaN code fails both comparisons, so it passes the
    /// gradient through and contributes a NaN term.
    #[inline(always)]
    fn backward(self, x: f32, g: f32) -> (f32, [f32; 1]) {
        let r = x / self.s;
        let q = round_half_even(r);
        let (local, keep) = if q < self.n {
            (self.n, 0.0)
        } else if q > self.p {
            (self.p, 0.0)
        } else {
            (q - r, g)
        };
        (keep, [g * self.s * std::f32::consts::LN_2 * local])
    }
}

/// Fused forward pass of the TQT quantizer (eq. 4):
///
/// `q(x; s) = clip(round(x / s), n, p) * s` with `s = 2^(ceil(log2 t)) / 2^denom`.
///
/// # Examples
///
/// ```
/// use tqt_quant::{tqt::quantize, QuantSpec};
/// use tqt_tensor::Tensor;
/// let x = Tensor::from_slice(&[0.3, -2.0, 0.004]);
/// let y = quantize(&x, 0.0, QuantSpec::INT8); // t = 1.0, s = 1/128
/// assert!((y.data()[0] - 0.296875).abs() < 1e-7); // round(38.4)/128
/// assert_eq!(y.data()[1], -1.0);                  // clipped to n*s
/// ```
pub fn quantize(x: &Tensor, log2_t: f32, spec: QuantSpec) -> Tensor {
    let rule = Tqt::at(log2_t, spec);
    forward_tensor(x, move |v| rule.forward(v))
}

/// [`quantize`] over raw slices: the planned-executor entry point. `out`
/// may be dirty — every element is assigned. Same loop and rule as the
/// tensor path, so results are bit-identical.
///
/// # Panics
///
/// Panics if `out.len() != xd.len()`.
pub fn quantize_into(xd: &[f32], log2_t: f32, spec: QuantSpec, out: &mut [f32]) {
    let rule = Tqt::at(log2_t, spec);
    forward_pass(xd, out, move |v| rule.forward(v));
}

/// Gradients produced by [`quantize_backward`].
#[derive(Debug, Clone)]
pub struct TqtGrads {
    /// Gradient with respect to the input tensor (eq. 8): passes the
    /// upstream gradient inside the clip range, zero outside.
    pub dx: Tensor,
    /// Scalar gradient with respect to the log-domain threshold (eq. 7),
    /// summed over all elements of the tensor (per-tensor scaling).
    pub dlog2_t: f32,
}

/// Backward pass of the TQT quantizer (eqs. 7–8).
///
/// Given the original input `x`, the threshold, and the upstream gradient
/// `gy` (same shape as `x`), computes the input gradient and the scalar
/// log-threshold gradient:
///
/// ```text
/// ∇(log2 t) q = s·ln2 · { round(x/s) − x/s   if n ≤ round(x/s) ≤ p
///                        { n                  if round(x/s) < n
///                        { p                  if round(x/s) > p
/// ∇x q        =          { 1 inside, 0 outside
/// ```
///
/// The gradient is accumulated in `f64` — a per-tensor threshold gradient
/// sums millions of terms whose cancellation (positive inside the clip
/// range, negative outside) is exactly the paper's range–precision
/// trade-off, so accumulation error matters. The reduction is a
/// deterministic two-level tree: per-element terms are summed in index
/// order within fixed-size blocks (in parallel over the `tqt-rt` pool),
/// then the block partials are folded serially in block order — the
/// result is bitwise independent of the thread count.
///
/// # Panics
///
/// Panics if `gy` has a different shape than `x`.
pub fn quantize_backward(x: &Tensor, log2_t: f32, spec: QuantSpec, gy: &Tensor) -> TqtGrads {
    let rule = Tqt::at(log2_t, spec);
    let (dx, [dlog2_t]) = backward_tensor(x, gy, move |x, g| rule.backward(x, g));
    TqtGrads { dx, dlog2_t }
}

/// [`quantize_backward`] over raw slices: writes the STE input gradient
/// into `dx` (may be dirty — every element is assigned: the upstream
/// gradient inside the clip range, `0.0` outside) and returns the scalar
/// log-threshold gradient. Same loop and f64 block reduction as the
/// tensor path, so results are bit-identical.
///
/// # Panics
///
/// Panics if `gyd` or `dx` disagree with `xd` in length.
pub fn quantize_backward_into(
    xd: &[f32],
    log2_t: f32,
    spec: QuantSpec,
    gyd: &[f32],
    dx: &mut [f32],
) -> f32 {
    assert_eq!(gyd.len(), xd.len(), "upstream gradient length mismatch");
    assert_eq!(dx.len(), xd.len(), "dx length mismatch");
    let rule = Tqt::at(log2_t, spec);
    backward_pass(xd, Some(gyd), dx, move |x, g| rule.backward(x, g))[0]
}

/// In-place weight-STE variant of [`quantize_backward_into`]: the scalar
/// log-threshold gradient is taken from the **unmasked** `grad` while
/// `grad` is masked in place (kept inside the clip range of the original
/// weights `xd`, zeroed outside). Exactly the value sequence of
/// `quantize_backward` followed by `w.grad = g.dx`, without the
/// intermediate buffer.
///
/// # Panics
///
/// Panics if `grad.len() != xd.len()`.
pub fn quantize_backward_inplace(
    xd: &[f32],
    log2_t: f32,
    spec: QuantSpec,
    grad: &mut [f32],
) -> f32 {
    assert_eq!(grad.len(), xd.len(), "gradient length mismatch");
    let rule = Tqt::at(log2_t, spec);
    backward_pass(xd, None, grad, move |x, g| rule.backward(x, g))[0]
}

/// Per-element local gradient of the quantizer output with respect to the
/// log-threshold (eq. 7, before multiplying by the upstream gradient):
/// the backward rule's term at unit upstream gradient. Exposed for the
/// transfer-curve reproduction of Figure 1.
pub fn local_grad_log2_t(v: f32, log2_t: f32, spec: QuantSpec) -> f32 {
    Tqt::at(log2_t, spec).backward(v, 1.0).1[0]
}

/// Per-element local gradient of the quantizer output with respect to its
/// input (eq. 8): the backward rule's mask at unit upstream gradient, so
/// a NaN input passes, as in training. Exposed for Figure 1.
pub fn local_grad_input(v: f32, log2_t: f32, spec: QuantSpec) -> f32 {
    Tqt::at(log2_t, spec).backward(v, 1.0).0
}

/// An "unfused" reference implementation of the forward pass built from
/// separate scale / round / saturate / de-quant passes over intermediate
/// tensors, mirroring the native-TensorFlow composition of the paper's
/// Figure 4. Used to validate the fused kernel and to benchmark the memory
/// and time cost the fused kernel avoids.
pub fn quantize_unfused(x: &Tensor, log2_t: f32, spec: QuantSpec) -> Tensor {
    let s = spec.scale_for_log2_t(log2_t);
    let scaled = x.map(|v| v / s);
    let rounded = scaled.map(round_half_even);
    let saturated = rounded.map(|v| v.clamp(spec.qmin(), spec.qmax()));
    saturated.map(|v| v * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::pow2i;
    use tqt_tensor::init;

    const B3: QuantSpec = QuantSpec::INT8;

    #[test]
    fn forward_grid_and_clipping() {
        let spec = QuantSpec::new(3, true); // n=-4, p=3, t=1 => s=0.25
        let x = Tensor::from_slice(&[0.0, 0.3, 0.4, -0.3, 5.0, -5.0, 0.74]);
        let y = quantize(&x, 0.0, spec);
        // 0.4/0.25 = 1.6 -> 2 -> 0.5; 0.74/0.25 = 2.96 -> 3 -> 0.75;
        // +-5.0 clip to p*s = 0.75 and n*s = -1.0.
        assert_eq!(y.data(), &[0.0, 0.25, 0.5, -0.25, 0.75, -1.0, 0.75]);
    }

    #[test]
    fn unsigned_clips_negative_to_zero() {
        let spec = QuantSpec::new(3, false); // n=0, p=7, t=1 => s=0.125
        let x = Tensor::from_slice(&[-0.4, 0.3, 2.0]);
        let y = quantize(&x, 0.0, spec);
        assert_eq!(y.data(), &[0.0, 0.25, 0.875]);
    }

    #[test]
    fn idempotent() {
        let mut rng = init::rng(11);
        let x = init::normal([512], 0.0, 1.0, &mut rng);
        for spec in [QuantSpec::INT8, QuantSpec::UINT8, QuantSpec::INT4] {
            let y = quantize(&x, 0.3, spec);
            let yy = quantize(&y, 0.3, spec);
            y.assert_close(&yy, 0.0);
        }
    }

    #[test]
    fn fused_matches_unfused() {
        let mut rng = init::rng(12);
        let x = init::normal([1024], 0.0, 2.0, &mut rng);
        for log2_t in [-2.0f32, 0.0, 1.5] {
            quantize(&x, log2_t, B3).assert_close(&quantize_unfused(&x, log2_t, B3), 0.0);
        }
    }

    #[test]
    fn input_gradient_masks_clipped_elements() {
        let spec = QuantSpec::new(3, true);
        let x = Tensor::from_slice(&[0.1, 5.0, -5.0]);
        let gy = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let g = quantize_backward(&x, 0.0, spec, &gy);
        assert_eq!(g.dx.data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn threshold_gradient_signs_match_paper() {
        // All input inside clip range => per-element grads are (q - r), and
        // with the L2-loss sign convention the *loss* threshold gradient is
        // positive when precision should win. Here we check the raw local
        // gradient: outside-range elements contribute s*ln2*n (negative for
        // x below range) or s*ln2*p (positive saturation side).
        let spec = QuantSpec::new(3, true);
        let gy = Tensor::from_slice(&[1.0]);
        // Element far above range: local grad = s*ln2*p > 0.
        let g_hi = quantize_backward(&Tensor::from_slice(&[10.0]), 0.0, spec, &gy);
        assert!(g_hi.dlog2_t > 0.0);
        // Element far below range: local grad = s*ln2*n < 0.
        let g_lo = quantize_backward(&Tensor::from_slice(&[-10.0]), 0.0, spec, &gy);
        assert!(g_lo.dlog2_t < 0.0);
    }

    /// Finite-difference check of the threshold gradient (the paper's core
    /// equation 7) through a smooth loss, at a point where no element sits
    /// on a rounding boundary. We perturb log2_t *within one integer bin*
    /// (so ceil does not jump) and compare with s·ln2-chain analytics.
    #[test]
    fn threshold_gradient_finite_difference() {
        // Use log2_t in the middle of a bin so ceil(log2_t) is locally
        // constant and q(x; s) is differentiable in s almost everywhere.
        let spec = QuantSpec::INT8;
        let log2_t = 0.5; // ceil = 1 over (0, 1]
        let mut rng = init::rng(42);
        let x = init::normal([4096], 0.0, 1.0, &mut rng);
        // L = 0.5 * sum((q - x)^2); dL/dq = q - x
        let q0 = quantize(&x, log2_t, spec);
        let gy = q0.zip_map(&x, |a, b| a - b);
        let analytic = quantize_backward(&x, log2_t, spec, &gy).dlog2_t;

        // FD on the *effective* continuous relaxation: within the bin the
        // forward output is constant in log2_t (pow2 ceil), so instead test
        // the derivative identity dq/d(log2 t) = s ln2 * local (eq. 7) via
        // the underlying continuous scale s' = 2^(l - denom):
        let loss = |l: f64| -> f64 {
            let s = 2f64.powf(l - spec.scale_denom_log2() as f64);
            x.data()
                .iter()
                .map(|&v| {
                    let q = (v as f64 / s)
                        .round_ties_even()
                        .clamp(spec.qmin() as f64, spec.qmax() as f64)
                        * s;
                    0.5 * (q - v as f64) * (q - v as f64)
                })
                .sum()
        };
        // Evaluate FD at l = ceil(log2_t) = 1, where the continuous scale
        // equals the actual power-of-2 scale.
        let l0 = 1.0f64;
        let eps = 1e-4;
        let fd = (loss(l0 + eps) - loss(l0 - eps)) / (2.0 * eps);
        let rel = (fd - analytic as f64).abs() / (1.0 + fd.abs());
        assert!(
            rel < 5e-3,
            "threshold gradient mismatch: fd={fd} analytic={analytic}"
        );
    }

    /// Finite-difference check of the input path through the L2 loss.
    ///
    /// The quantizer output is piecewise constant in `x`, so the *true*
    /// derivative of `L = 0.5 (q(x) - x)^2` at non-boundary points is
    /// `(q - x)(0 - 1) = x - q` everywhere. The STE input gradient (eq. 8)
    /// intentionally replaces `dq/dx = 0` by the in-range mask; here we
    /// verify (a) the true FD derivative matches `x - q`, and (b) the STE
    /// mask is exactly the in-range indicator, which together give the
    /// paper's eq. 10 decomposition.
    #[test]
    fn input_gradient_finite_difference() {
        let spec = QuantSpec::INT4;
        let log2_t = 0.4;
        let x = Tensor::from_slice(&[0.113, -0.721, 0.377, 3.0, -3.0, 0.051]);
        let q0 = quantize(&x, log2_t, spec);
        let gy = q0.zip_map(&x, |a, b| a - b); // dL/dq for L = 0.5 (q-x)^2
        let g = quantize_backward(&x, log2_t, spec, &gy);
        let loss = |x: &Tensor| -> f64 {
            let q = quantize(x, log2_t, spec);
            q.data()
                .iter()
                .zip(x.data())
                .map(|(&a, &b)| 0.5 * ((a - b) as f64) * ((a - b) as f64))
                .sum()
        };
        let s = spec.scale_for_log2_t(log2_t);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
            // (a) True derivative is x - q at non-boundary points.
            let true_grad = x.data()[i] - q0.data()[i];
            assert!(
                (fd - true_grad).abs() < 1e-2,
                "true derivative mismatch at {i}: fd={fd} expected={true_grad}"
            );
            // (b) STE mask: passes gy exactly when round(x/s) is in range.
            let in_range = {
                let q = round_half_even(x.data()[i] / s);
                q >= spec.qmin() && q <= spec.qmax()
            };
            let expected_dx = if in_range { gy.data()[i] } else { 0.0 };
            assert_eq!(g.dx.data()[i], expected_dx, "STE mask wrong at {i}");
        }
    }

    #[test]
    fn inplace_ste_matches_backward_then_replace() {
        // The fused weight-STE path (dlog2_t from the unmasked grad, then
        // mask in place) must be bit-identical to quantize_backward
        // followed by `grad = dx`, across serial and parallel runs.
        let mut rng = init::rng(14);
        let x = init::normal([3 * PAR_BLOCK + 17], 0.0, 1.5, &mut rng);
        let gy = init::normal([3 * PAR_BLOCK + 17], 0.0, 1.0, &mut rng);
        for spec in [QuantSpec::INT8, QuantSpec::INT4] {
            for threads in [1usize, 4] {
                tqt_rt::pool::set_threads(threads);
                let reference = quantize_backward(&x, -0.7, spec, &gy);
                let mut grad = gy.data().to_vec();
                let dlog2_t = quantize_backward_inplace(x.data(), -0.7, spec, &mut grad);
                assert_eq!(dlog2_t.to_bits(), reference.dlog2_t.to_bits());
                assert_eq!(grad, reference.dx.data());
            }
        }
        tqt_rt::pool::set_threads(0);
    }

    /// The two-pass backward the one-pass loop replaced, kept as its
    /// oracle: a mask pass, then a second rounding per element for the
    /// eq. 7 reduction over the same blocks.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN takes the pass-through branch
    fn two_pass_backward(xd: &[f32], log2_t: f32, spec: QuantSpec, gyd: &[f32]) -> (Vec<f32>, f32) {
        let s = spec.scale_for_log2_t(log2_t);
        let (n, p) = (spec.qmin(), spec.qmax());
        let dx: Vec<f32> = xd
            .iter()
            .zip(gyd)
            .map(|(&x, &g)| {
                let q = (x / s).round_ties_even();
                if !(q < n) && !(q > p) {
                    g
                } else {
                    0.0
                }
            })
            .collect();
        let ln2 = std::f32::consts::LN_2;
        let partials = pool::par_fold_blocks(xd.len(), PAR_BLOCK, |_, range| {
            let mut acc = 0.0f64;
            for i in range {
                let r = xd[i] / s;
                let q = r.round_ties_even();
                let local = if q < n {
                    n
                } else if q > p {
                    p
                } else {
                    q - r
                };
                acc += (gyd[i] * s * ln2 * local) as f64;
            }
            acc
        });
        let dlog2_t: f64 = partials.iter().sum();
        (dx, dlog2_t as f32)
    }

    #[test]
    fn one_pass_backward_matches_two_pass_bitwise() {
        let mut rng = init::rng(15);
        let len = 2 * PAR_BLOCK + 333;
        let mut x = init::normal([len], 0.0, 1.5, &mut rng).data().to_vec();
        // Upstream gradients over 41 binades, and in every 256 elements a
        // pair of ±2⁷⁰ terms that cancel: while one is in the running f64
        // sum the small terms are rounded to its ulp, so the sum's bits
        // depend on the summation order within a block.
        let mut gy: Vec<f32> = init::normal([len], 0.0, 1.0, &mut rng)
            .data()
            .iter()
            .enumerate()
            .map(|(i, &g)| g * pow2i((i % 41) as i32 - 20))
            .collect();
        for t0 in (0..len - 256).step_by(256) {
            (x[t0 + 10], x[t0 + 200]) = (0.3, 0.3);
            (gy[t0 + 10], gy[t0 + 200]) = (pow2i(70), -pow2i(70));
        }
        // The same across the first two blocks: folded in order they
        // cancel before the third block's partial is added; out of order
        // that partial is rounded to their ulp.
        (x[5], x[PAR_BLOCK + 5]) = (0.3, 0.3);
        (gy[5], gy[PAR_BLOCK + 5]) = (pow2i(70), -pow2i(70));
        // Exact ties, clip edges, signed zeros, subnormals and infinities,
        // on the grid of log2_t = 0 (s = 2⁻⁷ for INT8, 2⁻³ for INT4).
        let specials = [
            0.0,
            -0.0,
            0.5 / 128.0,
            -0.5 / 128.0,
            1.5 / 128.0,
            127.5 / 128.0,
            -128.5 / 128.0,
            7.5 / 8.0,
            -8.5 / 8.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -1e-40,
        ];
        for (i, &v) in specials.iter().enumerate() {
            x[i * 97] = v;
            x[len - 1 - i] = v;
        }
        // A NaN input passes its gradient through and makes the threshold
        // gradient NaN, so it gets a tensor of its own.
        let mut x_nan = x.clone();
        x_nan[PAR_BLOCK + 5] = f32::NAN;
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for x in [&x, &x_nan] {
            for spec in [QuantSpec::INT8, QuantSpec::UINT8, QuantSpec::INT4] {
                for log2_t in [0.0f32, -0.7, 2.3] {
                    for threads in [1usize, 4] {
                        tqt_rt::pool::set_threads(threads);
                        let (want_dx, want_t) = two_pass_backward(x, log2_t, spec, &gy);
                        let mut dx = vec![f32::NAN; len];
                        let got_t = quantize_backward_into(x, log2_t, spec, &gy, &mut dx);
                        assert_eq!(got_t.to_bits(), want_t.to_bits(), "{spec:?} {log2_t}");
                        assert_eq!(bits(&dx), bits(&want_dx), "{spec:?} {log2_t}");
                        let mut grad = gy.clone();
                        let got_t = quantize_backward_inplace(x, log2_t, spec, &mut grad);
                        assert_eq!(got_t.to_bits(), want_t.to_bits(), "{spec:?} {log2_t}");
                        assert_eq!(bits(&grad), bits(&want_dx), "{spec:?} {log2_t}");
                    }
                }
            }
        }
        assert!(!two_pass_backward(&x, 0.0, QuantSpec::INT8, &gy).1.is_nan());
        tqt_rt::pool::set_threads(0);
    }

    #[test]
    fn local_grads_are_the_backward_rule_on_one_element() {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let specials = [
            0.0,
            -0.0,
            0.3,
            0.5 / 128.0,
            127.5 / 128.0,
            -128.5 / 128.0,
            7.5 / 8.0,
            -8.5 / 8.0,
            1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for spec in [QuantSpec::INT8, QuantSpec::UINT8, QuantSpec::INT4] {
            for log2_t in [0.0f32, -0.7] {
                for v in specials {
                    let g = quantize_backward(
                        &Tensor::from_slice(&[v]),
                        log2_t,
                        spec,
                        &Tensor::from_slice(&[1.0]),
                    );
                    let (dx, dt) = (local_grad_input(v, log2_t, spec), local_grad_log2_t(v, log2_t, spec));
                    assert!(same(dx, g.dx.data()[0]), "{spec:?} {log2_t} {v}: {dx}");
                    assert!(same(dt, g.dlog2_t), "{spec:?} {log2_t} {v}: {dt}");
                }
            }
        }
        // A NaN input passes its gradient through in training, so the
        // helper reports 1 for it as well.
        assert_eq!(local_grad_input(f32::NAN, 0.0, QuantSpec::INT8), 1.0);
        assert!(local_grad_log2_t(f32::NAN, 0.0, QuantSpec::INT8).is_nan());
    }

    #[test]
    fn empty_tensor_threshold_gradients_are_positive_zero() {
        // Every quantizer's block fold starts from +0.0.
        let (x, gy) = (Tensor::zeros([0]), Tensor::zeros([0]));
        let g = quantize_backward(&x, 0.0, QuantSpec::INT8, &gy);
        assert_eq!(g.dlog2_t.to_bits(), 0.0f32.to_bits());
        assert!(g.dx.is_empty());
        assert_eq!(quantize_backward_inplace(&[], 0.0, QuantSpec::INT8, &mut []).to_bits(), 0);
        let fq = crate::fakequant::FakeQuant::new(-1.0, 1.0, 8).backward(&x, &gy);
        assert_eq!((fq.dmin.to_bits(), fq.dmax.to_bits()), (0, 0));
        let pact = crate::pact::Pact::new(1.0, 8, 0.0).backward(&x, &gy);
        assert_eq!(pact.dalpha.to_bits(), 0);
    }

    #[test]
    fn symmetric_negation_away_from_ties() {
        let mut rng = init::rng(13);
        // Values chosen so x/s never lands exactly on a .5 tie or the
        // asymmetric clip edge.
        let x = init::uniform([256], 0.01, 0.9, &mut rng);
        let neg = x.map(|v| -v);
        let spec = QuantSpec::INT8;
        let qp = quantize(&x, 0.0, spec);
        let qn = quantize(&neg, 0.0, spec);
        qn.map(|v| -v).assert_close(&qp, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match input")]
    fn backward_shape_checked() {
        quantize_backward(
            &Tensor::zeros([4]),
            0.0,
            QuantSpec::INT8,
            &Tensor::zeros([5]),
        );
    }
}
