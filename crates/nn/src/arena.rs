//! Contiguous parameter/gradient arena and the pooled Adam update.
//!
//! The per-`Param` optimizer path (`tqt_reference::Adam`, the test-only
//! reference) walks a HashMap of per-tensor moment slots and updates each
//! parameter in its own serial loop. At training-step frequency that
//! costs a map lookup, two tensor allocations (first step) and a
//! cache-cold walk per parameter. The arena instead lays every parameter
//! out back-to-back in one `Vec<f32>` (values and gradients as twin
//! buffers), and [`PooledAdam`] keeps its first/second moments as twin
//! buffers of the same layout — one fused pass updates values, moments
//! and gradients reads in lockstep over contiguous memory, fanned out
//! over the worker pool in fixed `ELEM_BLOCK`-sized chunks.
//!
//! **Bit-identity contract:** the per-element update is exactly the
//! scalar sequence of the reference `Adam::step` — same f64
//! intermediate math, same f32 stores — and elements are independent, so
//! the fused pass is bit-identical to the per-parameter reference at any
//! thread count. Per-segment step counters replicate the lazy per-name
//! slot behavior: a segment's `t` advances only on steps where it is
//! trainable and selected, so freezing a threshold stops its bias
//! correction exactly like dropping it from the reference's parameter list.
//! `crates/nn/tests/pooled_adam.rs` proves both properties.

use crate::param::{Param, ParamKind};
use tqt_rt::pool;

/// Fixed block size for the pooled update's parallel loops; constant so
/// the partition is thread-count independent (each element is touched by
/// exactly one closure invocation regardless — the constant only fixes
/// the scheduling grain).
const ELEM_BLOCK: usize = 4096;

/// One parameter's slice of the arena.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The parameter's unique name (state-dict key).
    pub name: String,
    /// Parameter group (weight / bias / batch-norm / threshold).
    pub kind: ParamKind,
    /// Start offset into the arena buffers.
    pub offset: usize,
    /// Element count.
    pub len: usize,
    /// Whether the pooled optimizer may update this segment (refreshed
    /// from the graph each step so threshold freezing takes effect).
    pub trainable: bool,
}

impl Segment {
    /// The segment's index range into the arena buffers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Values and gradients for a fixed parameter set, each contiguous.
#[derive(Debug)]
pub struct ParamArena {
    vals: Vec<f32>,
    grads: Vec<f32>,
    segments: Vec<Segment>,
}

impl ParamArena {
    /// Builds an arena with one segment per parameter, in the given
    /// order, copying the current values in and zeroing all gradients.
    pub fn from_params(params: &[&Param]) -> Self {
        let total: usize = params.iter().map(|p| p.value.len()).sum();
        let mut vals = Vec::with_capacity(total);
        let mut segments = Vec::with_capacity(params.len());
        for p in params {
            segments.push(Segment {
                name: p.name.clone(),
                kind: p.kind,
                offset: vals.len(),
                len: p.value.len(),
                trainable: p.trainable,
            });
            vals.extend_from_slice(p.value.data());
        }
        ParamArena {
            grads: vec![0.0; vals.len()],
            vals,
            segments,
        }
    }

    /// The segment table, in construction order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total element count across all segments.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the arena holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Segment `i`'s values.
    pub fn val(&self, i: usize) -> &[f32] {
        &self.vals[self.segments[i].range()]
    }

    /// Segment `i`'s values, mutably.
    pub fn val_mut(&mut self, i: usize) -> &mut [f32] {
        let r = self.segments[i].range();
        &mut self.vals[r]
    }

    /// Segment `i`'s gradient.
    pub fn grad(&self, i: usize) -> &[f32] {
        &self.grads[self.segments[i].range()]
    }

    /// Segment `i`'s gradient, mutably.
    pub fn grad_mut(&mut self, i: usize) -> &mut [f32] {
        let r = self.segments[i].range();
        &mut self.grads[r]
    }

    /// Segment `i`'s values and gradient, mutably, at once (they live in
    /// distinct buffers, so the borrows are disjoint).
    pub fn val_grad_mut(&mut self, i: usize) -> (&mut [f32], &mut [f32]) {
        let r = self.segments[i].range();
        (&mut self.vals[r.clone()], &mut self.grads[r])
    }

    /// Segment `i`'s values with the gradients of segments `i` and `j`,
    /// mutably, at once (a layer's two parameters, such as batch-norm's
    /// gamma and beta).
    ///
    /// # Panics
    ///
    /// Panics unless segment `i` lies before segment `j`.
    pub fn val_grads_mut(&mut self, i: usize, j: usize) -> (&[f32], &mut [f32], &mut [f32]) {
        let (ri, rj) = (self.segments[i].range(), self.segments[j].range());
        assert!(ri.end <= rj.start, "segment {i} must precede segment {j}");
        let (lo, hi) = self.grads.split_at_mut(rj.start);
        (&self.vals[ri.clone()], &mut lo[ri], &mut hi[..rj.len()])
    }

    /// Updates a segment's trainable flag (threshold freezing).
    pub fn set_trainable(&mut self, i: usize, trainable: bool) {
        self.segments[i].trainable = trainable;
    }

    /// Zeroes every gradient.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }
}

/// Adam over a [`ParamArena`]: moments stored as twin arena-layout
/// buffers, updates fused into one pooled pass per segment. See the
/// module docs for the bit-identity contract with the per-`Param`
/// reference Adam.
#[derive(Debug)]
pub struct PooledAdam {
    lr: f32,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f32>,
    v: Vec<f32>,
    t: Vec<u64>,
}

impl PooledAdam {
    /// Creates a pooled Adam for `arena`'s layout.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or a β is outside `[0, 1)`.
    pub fn new(lr: f32, beta1: f64, beta2: f64, arena: &ParamArena) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
        PooledAdam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            m: vec![0.0; arena.len()],
            v: vec![0.0; arena.len()],
            t: vec![0; arena.segments().len()],
        }
    }

    /// The paper's settings: β1 = 0.9, β2 = 0.999.
    pub fn paper(lr: f32, arena: &ParamArena) -> Self {
        PooledAdam::new(lr, 0.9, 0.999, arena)
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// One Adam step over every trainable segment whose kind is in
    /// `kinds` (the paper's weight/threshold optimizer groups). Skipped
    /// segments keep their step counters, exactly like parameters absent
    /// from a per-`Param` optimizer call.
    pub fn step(&mut self, arena: &mut ParamArena, kinds: &[ParamKind]) {
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let lr = self.lr as f64;
        for (i, seg) in arena.segments.iter().enumerate() {
            if !seg.trainable || !kinds.contains(&seg.kind) {
                continue;
            }
            self.t[i] += 1;
            let bc1 = 1.0 - beta1.powi(self.t[i] as i32);
            let bc2 = 1.0 - beta2.powi(self.t[i] as i32);
            let r = seg.range();
            pool::par_chunks_mut4(
                &mut arena.vals[r.clone()],
                &mut arena.grads[r.clone()],
                &mut self.m[r.clone()],
                &mut self.v[r],
                ELEM_BLOCK,
                |_, vals, grads, ms, vs| {
                    for (((val, &g), m), vv) in vals
                        .iter_mut()
                        .zip(grads.iter())
                        .zip(ms.iter_mut())
                        .zip(vs.iter_mut())
                    {
                        // Exactly the per-`Param` Adam's per-element sequence.
                        let g = g as f64;
                        let m64 = beta1 * *m as f64 + (1.0 - beta1) * g;
                        let v64 = beta2 * *vv as f64 + (1.0 - beta2) * g * g;
                        *m = m64 as f32;
                        *vv = v64 as f32;
                        let update = lr * (m64 / bc1) / ((v64 / bc2).sqrt() + eps);
                        *val -= update as f32;
                    }
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_tensor::Tensor;

    #[test]
    fn layout_is_contiguous_in_order() {
        let a = Param::new("a", Tensor::zeros([3]), ParamKind::Weight);
        let b = Param::new("b", Tensor::scalar(1.0), ParamKind::Threshold);
        let arena = ParamArena::from_params(&[&a, &b]);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.segments()[0].range(), 0..3);
        assert_eq!(arena.segments()[1].range(), 3..4);
        assert_eq!(arena.val(1), &[1.0]);
    }

    #[test]
    fn first_step_moves_by_lr() {
        // Same invariant as the per-`Param` adam_first_step_equals_lr test.
        let p = Param::new("x", Tensor::scalar(0.0), ParamKind::Weight);
        let mut arena = ParamArena::from_params(&[&p]);
        arena.grad_mut(0)[0] = 100.0;
        let mut opt = PooledAdam::paper(0.01, &arena);
        opt.step(&mut arena, &[ParamKind::Weight]);
        assert!((arena.val(0)[0] + 0.01).abs() < 1e-6);
    }

    #[test]
    fn kind_filter_and_freeze_skip_segments() {
        let w = Param::new("w", Tensor::scalar(0.0), ParamKind::Weight);
        let t = Param::new("t", Tensor::scalar(0.0), ParamKind::Threshold);
        let mut arena = ParamArena::from_params(&[&w, &t]);
        arena.grad_mut(0)[0] = 1.0;
        arena.grad_mut(1)[0] = 1.0;
        let mut opt = PooledAdam::paper(0.1, &arena);
        opt.step(&mut arena, &[ParamKind::Weight]);
        assert!(arena.val(0)[0] != 0.0);
        assert_eq!(arena.val(1)[0], 0.0, "threshold excluded by kind filter");
        arena.set_trainable(0, false);
        let before = arena.val(0)[0];
        opt.step(&mut arena, &[ParamKind::Weight]);
        assert_eq!(arena.val(0)[0], before, "frozen segment untouched");
        assert_eq!(opt.t[0], 1, "frozen segment's step counter stalls");
    }
}
