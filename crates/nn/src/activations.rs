//! Pointwise activation layers: ReLU, ReLU6, and leaky ReLU (the DarkNet
//! activation with its dedicated quantization topology in Section 4.3).

use crate::layer::{single, Layer, Mode};
use tqt_tensor::Tensor;

/// Rectified linear unit, optionally capped (ReLU6), with an optional
/// leaky negative slope.
///
/// * `Relu::new()` — standard ReLU.
/// * `Relu::relu6()` — ReLU capped at 6 (MobileNet).
/// * `Relu::leaky(alpha)` — leaky ReLU (DarkNet uses `alpha = 0.1`).
#[derive(Debug, Clone)]
pub struct Relu {
    cap: Option<f32>,
    negative_slope: f32,
    cached_x: Option<Tensor>,
}

impl Relu {
    /// Standard ReLU: `max(x, 0)`.
    pub fn new() -> Self {
        Relu {
            cap: None,
            negative_slope: 0.0,
            cached_x: None,
        }
    }

    /// ReLU6: `min(max(x, 0), 6)`.
    pub fn relu6() -> Self {
        Relu {
            cap: Some(6.0),
            negative_slope: 0.0,
            cached_x: None,
        }
    }

    /// Leaky ReLU: `x` for `x > 0`, `alpha * x` otherwise.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= alpha < 1`.
    pub fn leaky(alpha: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha),
            "leaky slope must be in [0,1), got {alpha}"
        );
        Relu {
            cap: None,
            negative_slope: alpha,
            cached_x: None,
        }
    }

    /// ReLU capped at an arbitrary value (used by the fixed-point lowering
    /// to snap the ReLU6 cap onto the integer grid).
    ///
    /// # Panics
    ///
    /// Panics unless `cap > 0`.
    pub fn capped(cap: f32) -> Self {
        assert!(cap > 0.0, "cap must be positive, got {cap}");
        Relu {
            cap: Some(cap),
            negative_slope: 0.0,
            cached_x: None,
        }
    }

    /// Replaces the negative slope (used by the fixed-point lowering to
    /// snap leaky-ReLU's α onto a fixed-point grid).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= alpha < 1`.
    pub fn set_negative_slope(&mut self, alpha: f32) {
        assert!(
            (0.0..1.0).contains(&alpha),
            "leaky slope must be in [0,1), got {alpha}"
        );
        self.negative_slope = alpha;
    }

    /// The cap value, if any.
    pub fn cap(&self) -> Option<f32> {
        self.cap
    }

    /// The negative slope (0 for plain/capped ReLU).
    pub fn negative_slope(&self) -> f32 {
        self.negative_slope
    }

    /// Forward over a slice: `out[i] = relu(x[i])`, the one definition the
    /// layer and the planned executor share. `out` may be dirty; every
    /// element is assigned. The capped or uncapped loop is chosen once per
    /// call. A plain ReLU is the leaky loop at slope 0, so a negative `x`
    /// maps to `0 · x`: −0, or NaN for −∞.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()`.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), x.len(), "relu output length mismatch");
        let a = self.negative_slope;
        match self.cap {
            None => {
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = if v > 0.0 { v } else { a * v };
                }
            }
            Some(c) => {
                // `f32::min` returns the cap for a NaN input.
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = (if v > 0.0 { v } else { a * v }).min(c);
                }
            }
        }
    }

    /// Backward over a slice: `gx[i] = gy[i] · relu'(x[i])` at the
    /// pre-activation `x`, with sub-gradient `slope` at `x ≤ 0`, `0` at or
    /// above the cap and `1` otherwise (NaN takes `1`). The product keeps
    /// the signed zeros of `gy · 0`. `gx` may be dirty; every element is
    /// assigned.
    ///
    /// # Panics
    ///
    /// Panics if `gy` or `gx` disagree with `x` in length.
    pub fn backward_into(&self, x: &[f32], gy: &[f32], gx: &mut [f32]) {
        assert_eq!(gy.len(), x.len(), "relu upstream gradient length mismatch");
        assert_eq!(gx.len(), x.len(), "relu gradient length mismatch");
        let a = self.negative_slope;
        match self.cap {
            None => {
                for ((o, &g), &v) in gx.iter_mut().zip(gy).zip(x) {
                    *o = g * if v <= 0.0 { a } else { 1.0 };
                }
            }
            Some(c) => {
                for ((o, &g), &v) in gx.iter_mut().zip(gy).zip(x) {
                    *o = g * if v <= 0.0 {
                        a
                    } else if v >= c {
                        0.0
                    } else {
                        1.0
                    };
                }
            }
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Relu::new()
    }
}

impl Layer for Relu {
    fn op_name(&self) -> &'static str {
        if self.negative_slope > 0.0 {
            "leaky_relu"
        } else if self.cap.is_some() {
            "relu6"
        } else {
            "relu"
        }
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let x = single(inputs, "relu");
        if mode == Mode::Train {
            self.cached_x = Some(x.clone());
        }
        let mut y = Tensor::zeros(x.shape().clone());
        self.forward_into(x.data(), y.data_mut());
        y
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let x = self
            .cached_x
            .take()
            .expect("relu backward without cached forward");
        assert!(
            gy.shape().same_as(x.shape()),
            "relu upstream gradient shape {} does not match input {}",
            gy.shape(),
            x.shape()
        );
        let mut gx = Tensor::zeros(x.shape().clone());
        self.backward_into(x.data(), gy.data(), gx.data_mut());
        vec![gx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck_layer;
    use tqt_tensor::init;

    #[test]
    fn relu_forward() {
        let mut r = Relu::new();
        let y = r.forward(&[&Tensor::from_slice(&[-1.0, 0.0, 2.0])], Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu6_caps() {
        let mut r = Relu::relu6();
        let y = r.forward(&[&Tensor::from_slice(&[-1.0, 3.0, 9.0])], Mode::Eval);
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn leaky_negative_slope() {
        let mut r = Relu::leaky(0.1);
        let y = r.forward(&[&Tensor::from_slice(&[-2.0, 4.0])], Mode::Eval);
        assert_eq!(y.data(), &[-0.2, 4.0]);
    }

    #[test]
    fn gradients_mask_correctly() {
        let mut r = Relu::relu6();
        let x = Tensor::from_slice(&[-1.0, 3.0, 9.0]);
        r.forward(&[&x], Mode::Train);
        let g = r.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0])).remove(0);
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn leaky_gradcheck() {
        let mut rng = init::rng(30);
        let mut r = Relu::leaky(0.1);
        // Keep probes away from the kink at 0.
        let x = init::uniform([64], 0.2, 2.0, &mut rng)
            .zip_map(&init::uniform([64], -2.0, -0.2, &mut rng), |a, b| {
                if (a + b) > 0.0 {
                    a
                } else {
                    b
                }
            });
        gradcheck_layer(&mut r, &[x], 1e-3, 1e-2);
    }

    /// The per-element forward map the slice kernel replaced, kept as its
    /// oracle.
    fn apply_oracle(r: &Relu, v: f32) -> f32 {
        let mut y = if v > 0.0 { v } else { r.negative_slope * v };
        if let Some(c) = r.cap {
            y = y.min(c);
        }
        y
    }

    /// The per-element sub-gradient the slice kernel replaced, kept as its
    /// oracle.
    fn grad_oracle(r: &Relu, v: f32) -> f32 {
        if v <= 0.0 {
            r.negative_slope
        } else if let Some(c) = r.cap {
            if v >= c {
                0.0
            } else {
                1.0
            }
        } else {
            1.0
        }
    }

    #[test]
    fn slice_kernels_match_elementwise_oracle_bitwise() {
        let mut rng = init::rng(31);
        let mut xs = init::uniform([256], -8.0, 8.0, &mut rng).data().to_vec();
        xs.extend([
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            6.0,
            6.0f32.next_up(),
            6.0f32.next_down(),
            1e-40,
            -1e-40,
        ]);
        // Upstream gradients with both signed zeros and a NaN, so `gy · 0`
        // and `gy · 1` are checked bit for bit.
        let mut gys = init::uniform([xs.len()], -2.0, 2.0, &mut rng)
            .data()
            .to_vec();
        for (i, g) in [0.0, -0.0, f32::NAN, -0.0].into_iter().enumerate() {
            gys[i * 3] = g;
            // The cap edges; the special inputs ±0 keep nonzero gradients.
            gys[262 + i] = g;
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for r in [
            Relu::new(),
            Relu::relu6(),
            Relu::leaky(0.1),
            Relu::capped(2.5),
        ] {
            let mut y = vec![f32::NAN; xs.len()];
            r.forward_into(&xs, &mut y);
            let want: Vec<f32> = xs.iter().map(|&v| apply_oracle(&r, v)).collect();
            assert_eq!(bits(&y), bits(&want), "{} forward", r.op_name());
            let mut gx = vec![f32::NAN; xs.len()];
            r.backward_into(&xs, &gys, &mut gx);
            let want: Vec<f32> = gys
                .iter()
                .zip(&xs)
                .map(|(&g, &v)| g * grad_oracle(&r, v))
                .collect();
            assert_eq!(bits(&gx), bits(&want), "{} backward", r.op_name());
        }
    }

    #[test]
    #[should_panic(expected = "leaky slope")]
    fn rejects_bad_slope() {
        Relu::leaky(1.5);
    }
}
