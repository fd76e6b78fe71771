//! Allocating per-layer forward and backward: every op allocates its
//! output and input gradients as fresh tensors and keeps what its
//! backward needs in a [`Cache`] owned by the caller, not by the layer.
//! The arithmetic is the slice kernel the planned executor calls (or the
//! allocating `tqt-tensor` wrapper around it), so these tests check the
//! kernels' values, and the executor's parity tests check everything the
//! executor adds around them.

use tqt_nn::batchnorm::{batch_norm_backward_into, batch_norm_into, BnStats};
use tqt_nn::merge::{concat_into, split_into};
use tqt_nn::pool::{
    avg_pool2d_backward_into, avg_pool2d_into, global_avg_pool_backward_into, global_avg_pool_into,
    max_pool2d_backward_into, max_pool2d_into,
};
use tqt_nn::{
    AvgPool2d, BatchNorm, Concat, Conv2d, Dense, DepthwiseConv2d, EltwiseAdd, Flatten,
    GlobalAvgPool, Layer, MaxPool2d, Relu,
};
use tqt_tensor::conv::{conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward};
use tqt_tensor::{matmul, matmul_nt, matmul_tn, ops, Tensor};

/// Whether a forward pass is a training step (batch statistics, cached
/// activations for backward) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: the forward fills the cache for backward, and batch norm
    /// uses batch statistics (unless frozen).
    Train,
    /// Inference: no caching, batch norm uses moving statistics.
    Eval,
}

/// What one layer's training-mode forward keeps for its backward.
#[derive(Debug, Default)]
pub enum Cache {
    /// Nothing: no training forward yet, or its backward consumed it.
    #[default]
    Empty,
    /// The forward input (conv, depthwise, dense, ReLU).
    Input(Tensor),
    /// Batch norm's normalized input and statistics.
    BatchNorm(Tensor, BnStats),
    /// Max pool's argmaxes (flat input indices) and input dims.
    Argmax(Vec<usize>, Vec<usize>),
    /// The input dims (average and global average pooling, flatten).
    Dims(Vec<usize>),
    /// Each input's channel count (concat).
    Channels(Vec<usize>),
    /// A training forward ran (eltwise add).
    Seen,
}

/// A layer with an allocating forward and backward.
///
/// During a `Mode::Train` forward the layer stores what it needs in
/// `cache`; `backward` consumes it, *accumulates* parameter gradients
/// into the layer's [`tqt_nn::Param`]s, and returns the gradients with
/// respect to each input in order.
pub trait RefLayer: Layer {
    /// Runs the layer on `inputs`, filling `cache` when
    /// `mode == Mode::Train`.
    ///
    /// # Panics
    ///
    /// Panics if the number or shapes of inputs are invalid for the layer.
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor;

    /// Backpropagates `gy` through the forward that filled `cache`,
    /// returning one gradient per input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward filled `cache` or `gy` has the
    /// wrong shape.
    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor>;
}

/// A layer bundled with its own [`Cache`], for driving one layer by hand.
/// Dereferences to the layer.
#[derive(Debug)]
pub struct Cached<L> {
    layer: L,
    cache: Cache,
}

impl<L: RefLayer> Cached<L> {
    /// Wraps `layer` with an empty cache.
    pub fn new(layer: L) -> Self {
        Cached {
            layer,
            cache: Cache::Empty,
        }
    }

    /// [`RefLayer::forward`] on the bundled cache.
    pub fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        self.layer.forward(inputs, mode, &mut self.cache)
    }

    /// [`RefLayer::backward`] on the bundled cache.
    pub fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        self.layer.backward(gy, &mut self.cache)
    }
}

impl<L> std::ops::Deref for Cached<L> {
    type Target = L;
    fn deref(&self) -> &L {
        &self.layer
    }
}

impl<L> std::ops::DerefMut for Cached<L> {
    fn deref_mut(&mut self) -> &mut L {
        &mut self.layer
    }
}

/// Unwraps the input slice of a single-input layer.
///
/// # Panics
///
/// Panics if `inputs` does not contain exactly one tensor.
fn single<'a>(inputs: &[&'a Tensor], op: &str) -> &'a Tensor {
    assert_eq!(
        inputs.len(),
        1,
        "{op} expects exactly 1 input, got {}",
        inputs.len()
    );
    inputs[0]
}

/// Takes the cached forward input, or panics naming `op`.
fn take_input(cache: &mut Cache, op: &str) -> Tensor {
    match std::mem::take(cache) {
        Cache::Input(x) => x,
        _ => panic!("{op} backward without cached forward"),
    }
}

/// Takes the cached input dims, or panics naming `op`.
fn take_dims(cache: &mut Cache, op: &str) -> Vec<usize> {
    match std::mem::take(cache) {
        Cache::Dims(d) => d,
        _ => panic!("{op} backward without cached forward"),
    }
}

/// Stores `x` as the cache of a training forward.
fn keep_input(cache: &mut Cache, mode: Mode, x: &Tensor) {
    if mode == Mode::Train {
        *cache = Cache::Input(x.clone());
    }
}

impl RefLayer for Relu {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "relu");
        keep_input(cache, mode, x);
        let mut y = Tensor::zeros(x.shape().clone());
        self.forward_into(x.data(), y.data_mut());
        y
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let x = take_input(cache, "relu");
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

impl RefLayer for Conv2d {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "conv2d");
        let ps = self.params();
        let mut y = conv2d(x, &ps[0].value, self.geom());
        if let Some(b) = ps.get(1) {
            ops::add_channel_inplace(&mut y, &b.value);
        }
        keep_input(cache, mode, x);
        y
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let x = take_input(cache, "conv2d");
        let geom = self.geom();
        let mut ps = self.params_mut();
        let (gx, gw) = conv2d_backward(&x, &ps[0].value, gy, geom);
        ps[0].accumulate(&gw);
        if let Some(b) = ps.get_mut(1) {
            b.accumulate(&ops::sum_over_channel(gy));
        }
        vec![gx]
    }
}

impl RefLayer for DepthwiseConv2d {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "depthwise_conv2d");
        let ps = self.params();
        let mut y = depthwise_conv2d(x, &ps[0].value, self.geom());
        if let Some(b) = ps.get(1) {
            ops::add_channel_inplace(&mut y, &b.value);
        }
        keep_input(cache, mode, x);
        y
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let x = take_input(cache, "depthwise");
        let geom = self.geom();
        let mut ps = self.params_mut();
        let (gx, gw) = depthwise_conv2d_backward(&x, &ps[0].value, gy, geom);
        ps[0].accumulate(&gw);
        if let Some(b) = ps.get_mut(1) {
            b.accumulate(&ops::sum_over_channel(gy));
        }
        vec![gx]
    }
}

impl RefLayer for Dense {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "dense");
        assert_eq!(
            x.ndim(),
            2,
            "dense input must be [n, in], got {}",
            x.shape()
        );
        let ps = self.params();
        let mut y = matmul(x, &ps[0].value);
        if let Some(b) = ps.get(1) {
            ops::add_channel_inplace(&mut y, &b.value);
        }
        keep_input(cache, mode, x);
        y
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let x = take_input(cache, "dense");
        let mut ps = self.params_mut();
        // dW = x^T @ gy ; dx = gy @ w^T ; db = sum_rows(gy)
        ps[0].accumulate(&matmul_tn(&x, gy));
        if let Some(b) = ps.get_mut(1) {
            b.accumulate(&ops::sum_over_channel(gy));
        }
        vec![matmul_nt(gy, &ps[0].value)]
    }
}

impl RefLayer for BatchNorm {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "batch_norm");
        assert!(
            x.ndim() == 2 || x.ndim() == 4,
            "batch_norm input must be [N,C] or NCHW, got {}",
            x.shape()
        );
        let use_batch_stats = mode == Mode::Train && !self.stats_frozen();
        let mut stats = BnStats::new(self.params()[0].value.len());
        let mut xhat = Tensor::zeros(x.shape().clone());
        let mut y = Tensor::zeros(x.shape().clone());
        {
            let (rm, rv) = self.running_stats();
            let running = (!use_batch_stats).then(|| (rm.data(), rv.data()));
            let ps = self.params();
            batch_norm_into(
                x.data(),
                x.dim(0),
                running,
                self.eps(),
                ps[0].value.data(),
                ps[1].value.data(),
                &mut stats,
                Some(xhat.data_mut()),
                y.data_mut(),
            );
        }
        if use_batch_stats {
            self.update_running_stats(&stats);
        }
        if mode == Mode::Train {
            *cache = Cache::BatchNorm(xhat, stats);
        }
        y
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let Cache::BatchNorm(xhat, mut stats) = std::mem::take(cache) else {
            panic!("batch_norm backward without cached forward");
        };
        let mut dx = Tensor::zeros(gy.shape().clone());
        let mut ps = self.params_mut();
        let (gamma, beta) = ps.split_at_mut(1);
        let gamma = &mut *gamma[0];
        batch_norm_backward_into(
            gy.data(),
            xhat.data(),
            gy.dim(0),
            gamma.value.data(),
            &mut stats,
            gamma.grad.data_mut(),
            beta[0].grad.data_mut(),
            dx.data_mut(),
        );
        vec![dx]
    }
}

impl RefLayer for MaxPool2d {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "max_pool");
        assert_eq!(
            x.ndim(),
            4,
            "max_pool input must be NCHW, got {}",
            x.shape()
        );
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = self.geom().out_size(h, w);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        let mut argmax = vec![0usize; out.len()];
        max_pool2d_into(
            x.data(),
            n,
            c,
            h,
            w,
            self.geom(),
            out.data_mut(),
            &mut argmax,
        );
        if mode == Mode::Train {
            *cache = Cache::Argmax(argmax, vec![n, c, h, w]);
        }
        out
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let Cache::Argmax(argmax, dims) = std::mem::take(cache) else {
            panic!("max_pool backward without cached forward");
        };
        let mut gx = Tensor::zeros(dims);
        max_pool2d_backward_into(gy.data(), &argmax, gx.data_mut());
        vec![gx]
    }
}

impl RefLayer for AvgPool2d {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "avg_pool");
        assert_eq!(
            x.ndim(),
            4,
            "avg_pool input must be NCHW, got {}",
            x.shape()
        );
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = self.geom().out_size(h, w);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        avg_pool2d_into(x.data(), n, c, h, w, self.geom(), out.data_mut());
        if mode == Mode::Train {
            *cache = Cache::Dims(vec![n, c, h, w]);
        }
        out
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let dims = take_dims(cache, "avg_pool");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mut gx = Tensor::zeros(dims);
        avg_pool2d_backward_into(gy.data(), n, c, h, w, self.geom(), gx.data_mut());
        vec![gx]
    }
}

impl RefLayer for GlobalAvgPool {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "global_avg_pool");
        assert_eq!(x.ndim(), 4, "global_avg_pool input must be NCHW");
        let (n, c) = (x.dim(0), x.dim(1));
        let mut out = Tensor::zeros([n, c]);
        global_avg_pool_into(x.data(), out.data_mut());
        if mode == Mode::Train {
            *cache = Cache::Dims(x.dims().to_vec());
        }
        out
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let mut gx = Tensor::zeros(take_dims(cache, "global_avg_pool"));
        global_avg_pool_backward_into(gy.data(), gx.data_mut());
        vec![gx]
    }
}

impl RefLayer for Flatten {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        let x = single(inputs, "flatten");
        if mode == Mode::Train {
            *cache = Cache::Dims(x.dims().to_vec());
        }
        let n = x.dim(0);
        x.reshape([n, x.len() / n])
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        vec![gy.reshape(take_dims(cache, "flatten"))]
    }
}

impl RefLayer for EltwiseAdd {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        assert_eq!(
            inputs.len(),
            2,
            "eltwise_add expects exactly 2 inputs, got {}",
            inputs.len()
        );
        if mode == Mode::Train {
            *cache = Cache::Seen;
        }
        ops::add(inputs[0], inputs[1])
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        assert!(
            matches!(std::mem::take(cache), Cache::Seen),
            "eltwise_add backward without cached forward"
        );
        vec![gy.clone(), gy.clone()]
    }
}

impl RefLayer for Concat {
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode, cache: &mut Cache) -> Tensor {
        assert!(inputs.len() >= 2, "concat needs at least 2 inputs");
        let first = inputs[0];
        assert!(
            first.ndim() == 2 || first.ndim() == 4,
            "concat supports [N,C] or NCHW tensors"
        );
        let n = first.dim(0);
        let spatial: Vec<usize> = first.dims()[2..].to_vec();
        let mut channels = Vec::with_capacity(inputs.len());
        for t in inputs {
            assert_eq!(t.dim(0), n, "concat batch mismatch");
            assert_eq!(&t.dims()[2..], &spatial[..], "concat spatial mismatch");
            channels.push(t.dim(1));
        }
        let c_out: usize = channels.iter().sum();
        let mut dims = vec![n, c_out];
        dims.extend(&spatial);
        let mut out = Tensor::zeros(dims);
        concat_into(inputs.iter().map(|t| t.data()), n, out.data_mut());
        if mode == Mode::Train {
            *cache = Cache::Channels(channels);
        }
        out
    }

    fn backward(&mut self, gy: &Tensor, cache: &mut Cache) -> Vec<Tensor> {
        let Cache::Channels(channels) = std::mem::take(cache) else {
            panic!("concat backward without cached forward");
        };
        let n = gy.dim(0);
        let spatial = &gy.dims()[2..];
        let mut grads: Vec<Tensor> = channels
            .iter()
            .map(|&c| Tensor::zeros([&[n, c][..], spatial].concat()))
            .collect();
        split_into(gy.data(), n, grads.iter_mut().map(|g| g.data_mut()));
        grads
    }
}
