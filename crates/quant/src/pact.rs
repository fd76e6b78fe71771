//! PACT (Choi et al., 2018): clipped-ReLU activation quantization with a
//! learnable clipping parameter `α`, included as a baseline threshold-
//! gradient formulation (paper eq. 1 and Section 3.5).
//!
//! The PACT gradient w.r.t. `α` is 0 for `x < α` and 1 for `x ≥ α`, which
//! only ever trains `α` toward the max of the distribution; PACT therefore
//! requires an L2 regularizer `λ·α²` on the clip parameter, with a manually
//! tuned `λ`, to keep the range from growing without bound.

use crate::spec::round_half_even;
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

    /// Forward: `y = round(clip(x, 0, α) / s) * s`.
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let s = self.step();
        let a = self.alpha;
        x.map(|v| round_half_even(v.clamp(0.0, a) / s) * s)
    }

    /// Backward with PACT's gradient formulation (eq. 1): `dα` collects the
    /// upstream gradient over saturated elements, plus `2λα` from the
    /// regularizer; `dx` is the clip STE.
    ///
    /// # Panics
    ///
    /// Panics if `gy` has a different shape than `x`.
    pub fn backward(&self, x: &Tensor, gy: &Tensor) -> PactGrads {
        assert!(
            x.shape().same_as(gy.shape()),
            "upstream gradient shape {} does not match input {}",
            gy.shape(),
            x.shape()
        );
        let mut dx = Tensor::zeros(x.shape().clone());
        let mut dalpha = 0.0f64;
        let dxd = dx.data_mut();
        for (i, (&v, &g)) in x.data().iter().zip(gy.data()).enumerate() {
            if v >= self.alpha {
                dalpha += g as f64;
            } else if v > 0.0 {
                dxd[i] = g;
            }
        }
        PactGrads {
            dx,
            dalpha: dalpha as f32 + 2.0 * self.lambda * self.alpha,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
