//! Batch normalization over channels with trainable scale/shift, moving
//! statistics, and the freeze switch the paper uses after one epoch of
//! quantized retraining (Section 5.2).

use crate::layer::Layer;
use crate::param::{Param, ParamKind};
use tqt_tensor::{ops, Tensor};

/// Per-channel batch normalization for NCHW (or `[N, C]`) tensors.
///
/// Three statistics regimes:
/// * training (default): normalize by batch statistics, update moving
///   averages;
/// * frozen ([`freeze_stats`](Self::freeze_stats)): normalize by moving
///   averages even in training mode (gamma/beta still train) — the paper's
///   "freeze batch norm moving mean and variance updates post convergence";
/// * eval: always moving averages.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    stats_frozen: bool,
}

/// Per-channel statistics of one batch-norm forward pass, kept for its
/// backward, plus the backward's per-channel sums. The planned executor
/// keeps one per batch-norm node.
#[derive(Debug)]
pub struct BnStats {
    mean: Vec<f32>,
    var: Vec<f32>,
    inv_std: Vec<f32>,
    sum_gy: Vec<f32>,
    sum_gy_xhat: Vec<f32>,
    /// Whether the forward used batch statistics (full BN backward) or
    /// moving statistics (per-channel affine backward).
    batch: bool,
}

impl BnStats {
    /// Zeroed statistics for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BnStats {
            mean: vec![0.0; channels],
            var: vec![0.0; channels],
            inv_std: vec![0.0; channels],
            sum_gy: vec![0.0; channels],
            sum_gy_xhat: vec![0.0; channels],
            batch: true,
        }
    }
}

impl BatchNorm {
    /// Creates a batch-norm layer with unit gamma, zero beta, and the given
    /// moving-average momentum (the fraction of the *old* average kept per
    /// step; typical 0.9–0.99).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `[0, 1)` or `eps <= 0`.
    pub fn new(name: &str, channels: usize, momentum: f32, eps: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0,1), got {momentum}"
        );
        assert!(eps > 0.0, "eps must be positive");
        BatchNorm {
            gamma: Param::new(format!("{name}/gamma"), Tensor::ones([channels]), ParamKind::BatchNorm),
            beta: Param::new(format!("{name}/beta"), Tensor::zeros([channels]), ParamKind::BatchNorm),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum,
            eps,
            stats_frozen: false,
        }
    }

    /// Stops moving-statistic updates; training passes normalize by the
    /// moving averages from now on.
    pub fn freeze_stats(&mut self) {
        self.stats_frozen = true;
    }

    /// Whether moving statistics are frozen.
    pub fn stats_frozen(&self) -> bool {
        self.stats_frozen
    }

    /// The per-channel folding parameters `(scale, shift)` with
    /// `scale = gamma / sqrt(var + eps)` and `shift = beta - mean * scale`,
    /// using moving statistics — what batch-norm folding multiplies into a
    /// preceding convolution's weights and bias (Section 4.1).
    pub fn fold_params(&self) -> (Tensor, Tensor) {
        let scale = self
            .gamma
            .value
            .zip_map(&self.running_var, |g, v| g / (v + self.eps).sqrt());
        let shift = self
            .beta
            .value
            .zip_map(&self.running_mean.zip_map(&scale, |m, s| m * s), |b, ms| b - ms);
        (scale, shift)
    }

    /// Overrides the moving statistics (used by tests and by graph
    /// transforms that need deterministic statistics).
    ///
    /// # Panics
    ///
    /// Panics if the tensors do not have shape `[channels]`.
    pub fn set_running_stats(&mut self, mean: Tensor, var: Tensor) {
        assert!(mean.shape().same_as(self.running_mean.shape()), "bad mean shape");
        assert!(var.shape().same_as(self.running_var.shape()), "bad var shape");
        self.running_mean = mean;
        self.running_var = var;
    }

    /// Moving mean and variance.
    pub fn running_stats(&self) -> (&Tensor, &Tensor) {
        (&self.running_mean, &self.running_var)
    }

    /// The numerical-stability epsilon (public for the planned executor).
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Applies one moving-average update
    /// `running = momentum * running + (1 - momentum) * batch` in place,
    /// from the batch statistics a [`batch_norm_into`] pass left in `st`.
    pub fn update_running_stats(&mut self, st: &BnStats) {
        assert_eq!(
            st.mean.len(),
            self.running_mean.len(),
            "bad statistics length"
        );
        let m = self.momentum;
        for (old, &new) in self.running_mean.data_mut().iter_mut().zip(&st.mean) {
            *old = m * *old + (1.0 - m) * new;
        }
        for (old, &new) in self.running_var.data_mut().iter_mut().zip(&st.var) {
            *old = m * *old + (1.0 - m) * new;
        }
    }
}

impl Layer for BatchNorm {
    fn op_name(&self) -> &'static str {
        "batch_norm"
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Batch-norm forward over a raw `[n, gamma.len(), spatial]` slice.
/// Normalizes by `running` `(mean, var)` when given, else by the batch
/// statistics of `x` (biased variance; per-channel sums taken per
/// `(image, channel)` block, then over images), recording them in `st`
/// for the backward and for [`BatchNorm::update_running_stats`]. Writes
/// `y = xhat * gamma + beta` with `xhat = (x - mean) / sqrt(var + eps)`,
/// and `xhat` itself when a buffer is given (a training forward keeps it
/// for the backward).
///
/// # Panics
///
/// Panics if a slice length does not match the shapes.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_into(
    x: &[f32],
    n: usize,
    running: Option<(&[f32], &[f32])>,
    eps: f32,
    gamma: &[f32],
    beta: &[f32],
    st: &mut BnStats,
    xhat: Option<&mut [f32]>,
    y: &mut [f32],
) {
    let c = gamma.len();
    assert_eq!(beta.len(), c, "beta length mismatch");
    assert_eq!(st.mean.len(), c, "statistics length mismatch");
    assert!(x.len().is_multiple_of(n * c), "input does not split into {n} images of {c} channels");
    assert!(
        xhat.as_ref().is_none_or(|xh| xh.len() == x.len()) && y.len() == x.len(),
        "output length mismatch"
    );
    let spatial = x.len() / (n * c);
    st.batch = running.is_none();
    match running {
        None => {
            let count = (n * spatial) as f32;
            st.mean.fill(0.0);
            ops::sum_channel_into(x, n, &mut st.mean);
            for m in &mut st.mean {
                *m /= count;
            }
            st.var.fill(0.0);
            for img in x.chunks_exact(c * spatial) {
                for ((v, &m), block) in st.var.iter_mut().zip(&st.mean).zip(img.chunks_exact(spatial)) {
                    *v += block.iter().map(|&xv| (xv - m) * (xv - m)).sum::<f32>();
                }
            }
            for v in &mut st.var {
                *v /= count;
            }
        }
        Some((mean, var)) => {
            st.mean.copy_from_slice(mean);
            st.var.copy_from_slice(var);
        }
    }
    for (is, &v) in st.inv_std.iter_mut().zip(&st.var) {
        *is = 1.0 / (v + eps).sqrt();
    }
    let mut xhat_planes = xhat.map(|xh| xh.chunks_exact_mut(spatial));
    for (p, (xb, yb)) in x
        .chunks_exact(spatial)
        .zip(y.chunks_exact_mut(spatial))
        .enumerate()
    {
        let ci = p % c;
        let (nm, is, gv, bv) = (-st.mean[ci], st.inv_std[ci], gamma[ci], beta[ci]);
        match xhat_planes.as_mut().and_then(Iterator::next) {
            Some(xhb) => {
                for ((yv, xhv), &xv) in yb.iter_mut().zip(xhb).zip(xb) {
                    let xh = (xv + nm) * is;
                    *xhv = xh;
                    *yv = xh * gv + bv;
                }
            }
            None => {
                for (yv, &xv) in yb.iter_mut().zip(xb) {
                    *yv = (xv + nm) * is * gv + bv;
                }
            }
        }
    }
}

/// Batch-norm backward over raw slices, for the forward that filled `st`.
/// Accumulates `dgamma += Σ gy·xhat` and `dbeta += Σ gy` per channel and
/// writes `dx`: `gy · gamma / sqrt(var + eps)` after a moving-statistics
/// forward, else the full batch-statistics form
/// `(gy - mean(gy) - xhat · mean(gy·xhat)) · gamma / sqrt(var + eps)`.
///
/// # Panics
///
/// Panics if a slice length does not match the shapes.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_backward_into(
    gy: &[f32],
    xhat: &[f32],
    n: usize,
    gamma: &[f32],
    st: &mut BnStats,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
    dx: &mut [f32],
) {
    let c = gamma.len();
    assert_eq!(st.mean.len(), c, "statistics length mismatch");
    assert!(dgamma.len() == c && dbeta.len() == c, "parameter-gradient length mismatch");
    assert!(gy.len().is_multiple_of(n * c), "gradient does not split into {n} images of {c} channels");
    assert!(xhat.len() == gy.len() && dx.len() == gy.len(), "gradient length mismatch");
    let spatial = gy.len() / (n * c);
    st.sum_gy_xhat.fill(0.0);
    for (gimg, ximg) in gy.chunks_exact(c * spatial).zip(xhat.chunks_exact(c * spatial)) {
        let blocks = gimg.chunks_exact(spatial).zip(ximg.chunks_exact(spatial));
        for (s, (gb, xb)) in st.sum_gy_xhat.iter_mut().zip(blocks) {
            *s += gb.iter().zip(xb).map(|(&a, &b)| a * b).sum::<f32>();
        }
    }
    st.sum_gy.fill(0.0);
    ops::sum_channel_into(gy, n, &mut st.sum_gy);
    for (o, &s) in dgamma.iter_mut().zip(&st.sum_gy_xhat) {
        *o += s;
    }
    for (o, &s) in dbeta.iter_mut().zip(&st.sum_gy) {
        *o += s;
    }
    let count = (n * spatial) as f32;
    let planes = gy.chunks_exact(spatial).zip(xhat.chunks_exact(spatial));
    for (p, ((gb, xb), db)) in planes.zip(dx.chunks_exact_mut(spatial)).enumerate() {
        let ci = p % c;
        let scale = gamma[ci] * st.inv_std[ci];
        if st.batch {
            let nmgy = -(st.sum_gy[ci] / count);
            let mgx = st.sum_gy_xhat[ci] / count;
            for ((o, &gv), &xv) in db.iter_mut().zip(gb).zip(xb) {
                *o = ((gv + nmgy) - xv * mgx) * scale;
            }
        } else {
            for (o, &gv) in db.iter_mut().zip(gb) {
                *o = gv * scale;
            }
        }
    }
}
