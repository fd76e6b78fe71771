//! PACT (Choi et al., 2018): clipped-ReLU activation quantization with a
//! learnable clipping parameter `α`, included as a baseline threshold-
//! gradient formulation (paper eq. 1 and Section 3.5).
//!
//! The PACT gradient w.r.t. `α` is 0 for `x < α` and 1 for `x ≥ α`, which
//! only ever trains `α` toward the max of the distribution; PACT therefore
//! requires an L2 regularizer `λ·α²` on the clip parameter, with a manually
//! tuned `λ`, to keep the range from growing without bound.

use crate::spec::round_half_even;
use crate::tqt::{backward_tensor, forward_tensor};
use tqt_tensor::Tensor;

/// PACT quantizer state: the learnable clipping parameter and bit-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pact {
    /// The clipping threshold `α` (activations are clipped to `[0, α]`).
    pub alpha: f32,
    /// Bit-width of the unsigned activation quantizer.
    pub bits: u32,
    /// Coefficient of the `λ·α²` regularizer added to the loss.
    pub lambda: f32,
}

/// Gradients of the PACT op.
#[derive(Debug, Clone)]
pub struct PactGrads {
    /// Gradient w.r.t. the input (clip STE: passes for `0 ≤ x < α`).
    pub dx: Tensor,
    /// Gradient w.r.t. `α` (eq. 1 plus the regularizer term).
    pub dalpha: f32,
}

impl Pact {
    /// Creates a PACT quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`, `bits < 2` or `lambda < 0`.
    pub fn new(alpha: f32, bits: u32, lambda: f32) -> Self {
        assert!(alpha > 0.0, "PACT requires positive alpha, got {alpha}");
        assert!(bits >= 2, "PACT requires at least 2 bits");
        assert!(lambda >= 0.0, "PACT regularizer must be non-negative");
        Pact {
            alpha,
            bits,
            lambda,
        }
    }

    /// Quantization step `α / (2^b - 1)`.
    pub fn step(&self) -> f32 {
        self.alpha / ((1u64 << self.bits) - 1) as f32
    }

    /// Forward: `y = round(clip(x, 0, α) / s) * s`, on the shared pooled
    /// forward loop.
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let (a, s) = (self.alpha, self.step());
        forward_tensor(x, move |v| round_half_even(v.clamp(0.0, a) / s) * s)
    }

    /// Backward with PACT's gradient formulation (eq. 1): `dα` collects the
    /// upstream gradient over saturated elements (`x ≥ α`), plus `2λα`
    /// from the regularizer; `dx` is the clip STE, passing the gradient
    /// strictly inside `(0, α)` and nowhere below (a NaN input included).
    /// Runs the shared backward loop, so `dα` is summed in f64 per fixed
    /// block and the blocks are folded in order.
    ///
    /// # Panics
    ///
    /// Panics if `gy` has a different shape than `x`.
    pub fn backward(&self, x: &Tensor, gy: &Tensor) -> PactGrads {
        let a = self.alpha;
        let (dx, [dalpha]) = backward_tensor(x, gy, move |v, g| {
            if v >= a {
                (0.0, [g])
            } else if v > 0.0 {
                (g, [0.0])
            } else {
                (0.0, [0.0])
            }
        });
        PactGrads {
            dx,
            dalpha: dalpha + 2.0 * self.lambda * self.alpha,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::pow2i;
    use crate::tqt::PAR_BLOCK;
    use tqt_rt::pool;
    use tqt_tensor::init;

    /// The serial whole-tensor loop the shared backward replaced, kept as
    /// its oracle.
    fn serial_backward(pact: &Pact, x: &[f32], gy: &[f32]) -> (Vec<f32>, f32) {
        let mut dx = vec![0.0f32; x.len()];
        let mut dalpha = 0.0f64;
        for (i, (&v, &g)) in x.iter().zip(gy).enumerate() {
            if v >= pact.alpha {
                dalpha += g as f64;
            } else if v > 0.0 {
                dx[i] = g;
            }
        }
        (dx, dalpha as f32 + 2.0 * pact.lambda * pact.alpha)
    }

    /// A post-ReLU-like input of `len` elements with the clip edges, grid
    /// ties, signed zeros, infinities and a NaN, and upstream gradients
    /// over 41 binades with cancelling ±2⁷⁰ pairs among the saturated
    /// elements.
    fn edge_case_input(pact: &Pact, len: usize) -> (Vec<f32>, Vec<f32>) {
        let mut rng = init::rng(17);
        let mut x = init::normal([len], 0.5, 1.5, &mut rng).data().to_vec();
        let mut gy: Vec<f32> = init::normal([len], 0.0, 1.0, &mut rng)
            .data()
            .iter()
            .enumerate()
            .map(|(i, &g)| g * pow2i((i % 41) as i32 - 20))
            .collect();
        for t0 in (0..len - 256).step_by(256) {
            (x[t0 + 10], x[t0 + 200]) = (9.0, 9.0);
            (gy[t0 + 10], gy[t0 + 200]) = (pow2i(70), -pow2i(70));
        }
        let (a, s) = (pact.alpha, pact.step());
        let specials = [
            a,
            a.next_down(),
            a.next_up(),
            0.5 * s,
            100.5 * s,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (i, &v) in specials.iter().enumerate() {
            x[i * 97 + 1] = v;
            x[len - 1 - i] = v;
        }
        gy[3] = -0.0;
        (x, gy)
    }

    #[test]
    fn shared_loops_match_serial_oracle_bitwise() {
        // Up to PAR_BLOCK elements `dα` is one block, so the blocked sum
        // runs in the serial loop's order; above it the order changes.
        let pact = Pact::new(2.0, 8, 1e-3);
        let (x, gy) = edge_case_input(&pact, PAR_BLOCK);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (xt, gt) = (Tensor::from_slice(&x), Tensor::from_slice(&gy));
        let (a, s) = (pact.alpha, pact.step());
        let want_y = xt.map(|v| round_half_even(v.clamp(0.0, a) / s) * s);
        let (want_dx, want_dalpha) = serial_backward(&pact, &x, &gy);
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            assert_eq!(bits(pact.quantize(&xt).data()), bits(want_y.data()));
            let g = pact.backward(&xt, &gt);
            assert_eq!(g.dalpha.to_bits(), want_dalpha.to_bits(), "{threads} threads");
            assert_eq!(bits(g.dx.data()), bits(&want_dx), "{threads} threads");
        }
        pool::set_threads(0);
    }

    #[test]
    fn blocked_alpha_gradient_is_thread_count_independent() {
        let pact = Pact::new(2.0, 8, 0.0);
        let (x, gy) = edge_case_input(&pact, 3 * PAR_BLOCK + 77);
        let (xt, gt) = (Tensor::from_slice(&x), Tensor::from_slice(&gy));
        pool::set_threads(1);
        let serial = pact.backward(&xt, &gt);
        pool::set_threads(4);
        let parallel = pact.backward(&xt, &gt);
        pool::set_threads(0);
        assert_eq!(serial.dalpha.to_bits(), parallel.dalpha.to_bits());
        assert_eq!(serial.dx, parallel.dx);
    }

    #[test]
    fn forward_clips_to_alpha() {
        let p = Pact::new(1.0, 8, 0.0);
        let y = p.quantize(&Tensor::from_slice(&[-1.0, 0.5, 2.0]));
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 0.5).abs() < 0.005);
        assert_eq!(y.data()[2], 1.0);
    }

    #[test]
    fn alpha_gradient_is_binary_indicator() {
        let p = Pact::new(1.0, 8, 0.0);
        let x = Tensor::from_slice(&[0.5, 1.5, 2.0]);
        let gy = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let g = p.backward(&x, &gy);
        // Only the two saturated elements contribute, each with weight 1.
        assert_eq!(g.dalpha, 2.0);
        assert_eq!(g.dx.data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn regularizer_pulls_alpha_down() {
        let p = Pact::new(2.0, 8, 0.1);
        let x = Tensor::from_slice(&[0.1]);
        let gy = Tensor::from_slice(&[0.0]);
        let g = p.backward(&x, &gy);
        assert!((g.dalpha - 2.0 * 0.1 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn idempotent() {
        let p = Pact::new(1.5, 4, 0.0);
        let x = Tensor::from_slice(&[0.3, 0.9, 1.4]);
        let y = p.quantize(&x);
        p.quantize(&y).assert_close(&y, 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive alpha")]
    fn rejects_non_positive_alpha() {
        Pact::new(0.0, 8, 0.0);
    }
}
