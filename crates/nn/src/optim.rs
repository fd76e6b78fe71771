//! The per-`Param` Adam optimizer the paper trains weights and thresholds
//! with (weights at lr 1e-6 with one decay schedule, thresholds at lr 1e-2
//! with another, as separate instances).
//!
//! The trainer runs the pooled arena form, [`crate::PooledAdam`]. This
//! per-`Param` form is the reference it is checked against: the
//! `pooled_adam` property test and the trainer's `train_parity` reference
//! run compare the pooled update with it bit for bit.

use crate::param::Param;
use tqt_tensor::Tensor;

#[derive(Debug)]
struct AdamSlot {
    m: Tensor,
    v: Tensor,
    t: u64,
}

/// Adam (Kingma & Ba, 2014) with bias correction — the optimizer the paper
/// uses for both weights and thresholds, with β1 = 0.9, β2 = 0.999 chosen
/// per the Appendix C convergence analysis. Updates one `Param` at a time;
/// the per-`Param` reference for [`crate::PooledAdam`].
///
/// State is keyed by parameter *name*, so the same optimizer instance can
/// be fed the parameter list in any order (and subsets can be frozen out)
/// without corrupting moments.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f64,
    beta2: f64,
    eps: f64,
    slots: std::collections::HashMap<String, AdamSlot>,
}

impl Adam {
    /// Creates an Adam optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or a β is outside `[0, 1)`.
    pub fn new(lr: f32, beta1: f64, beta2: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            slots: std::collections::HashMap::new(),
        }
    }

    /// The paper's settings: β1 = 0.9, β2 = 0.999.
    pub fn paper(lr: f32) -> Self {
        Adam::new(lr, 0.9, 0.999)
    }

    /// Applies one update step to each trainable parameter using its
    /// accumulated gradient, then leaves the gradient untouched (callers
    /// zero gradients at the start of each step).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut().filter(|p| p.trainable) {
            let slot = self.slots.entry(p.name.clone()).or_insert_with(|| AdamSlot {
                m: Tensor::zeros(p.value.shape().clone()),
                v: Tensor::zeros(p.value.shape().clone()),
                t: 0,
            });
            slot.t += 1;
            let bc1 = 1.0 - self.beta1.powi(slot.t as i32);
            let bc2 = 1.0 - self.beta2.powi(slot.t as i32);
            let lr = self.lr as f64;
            for (((v, m), vv), &g) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(slot.m.data_mut())
                .zip(slot.v.data_mut())
                .zip(p.grad.data())
            {
                let g = g as f64;
                let m64 = self.beta1 * *m as f64 + (1.0 - self.beta1) * g;
                let v64 = self.beta2 * *vv as f64 + (1.0 - self.beta2) * g * g;
                *m = m64 as f32;
                *vv = v64 as f32;
                let update = lr * (m64 / bc1) / ((v64 / bc2).sqrt() + self.eps);
                *v -= update as f32;
            }
        }
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamKind;

    fn quad_param(v: f32) -> Param {
        Param::new("x", Tensor::scalar(v), ParamKind::Weight)
    }

    /// Minimize f(x) = x^2 (gradient 2x) and check convergence.
    fn minimize(opt: &mut Adam, steps: usize, x0: f32) -> f32 {
        let mut p = quad_param(x0);
        for _ in 0..steps {
            p.zero_grad();
            let g = 2.0 * p.value.item();
            p.accumulate_scalar(g);
            opt.step(&mut [&mut p]);
        }
        p.value.item()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::paper(0.1);
        assert!(minimize(&mut opt, 300, 3.0).abs() < 1e-2);
    }

    #[test]
    fn frozen_params_not_updated() {
        let mut p = quad_param(2.0);
        p.trainable = false;
        p.accumulate_scalar(10.0);
        let mut opt = Adam::paper(0.1);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.item(), 2.0);
    }

    #[test]
    fn adam_first_step_equals_lr() {
        let mut p = quad_param(0.0);
        p.accumulate_scalar(100.0);
        let mut opt = Adam::paper(0.01);
        opt.step(&mut [&mut p]);
        assert!((p.value.item() + 0.01).abs() < 1e-6);
    }

    #[test]
    fn adam_state_keyed_by_name_survives_reordering() {
        let mut a = Param::new("a", Tensor::scalar(1.0), ParamKind::Weight);
        let mut b = Param::new("b", Tensor::scalar(1.0), ParamKind::Weight);
        let mut opt = Adam::paper(0.1);
        a.accumulate_scalar(1.0);
        b.accumulate_scalar(-1.0);
        opt.step(&mut [&mut a, &mut b]);
        a.zero_grad();
        b.zero_grad();
        a.accumulate_scalar(1.0);
        b.accumulate_scalar(-1.0);
        // Reordered second step: moments must follow the names.
        opt.step(&mut [&mut b, &mut a]);
        assert!(a.value.item() < 1.0);
        assert!(b.value.item() > 1.0);
        assert!((a.value.item() - 1.0).abs() - (b.value.item() - 1.0).abs() < 1e-6);
    }
}
