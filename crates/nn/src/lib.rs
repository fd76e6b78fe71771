//! # tqt-nn
//!
//! A from-scratch neural-network layer library with hand-derived
//! backpropagation, built on [`tqt_tensor`]. This is the training substrate
//! the TQT reproduction runs on — the role TensorFlow plays for the
//! original paper.
//!
//! Provides the parameter-owning layers the paper's model zoo embeds in
//! its graphs (dense, conv2d, depthwise conv, batch-norm with freezeable
//! statistics, ReLU/ReLU6/leaky-ReLU, max/avg/global pooling,
//! eltwise-add, concat, flatten) and the slice kernels that compute them,
//! softmax cross-entropy, the parameter arena with its pooled Adam, and
//! the paper's staircase learning-rate schedules. The planned float
//! executor in `tqt-graph` runs the kernels; the allocating per-layer
//! forward/backward and the per-`Param` Adam they are checked against
//! live in the test-only `tqt-reference` crate.
//!
//! # Examples
//!
//! ```
//! use tqt_nn::{Dense, Layer, ParamArena, ParamKind, PooledAdam};
//! use tqt_tensor::init;
//!
//! let mut rng = init::rng(0);
//! let layer = Dense::new("fc", 4, 2, &mut rng);
//! let mut arena = ParamArena::from_params(&layer.params());
//! arena.grad_mut(0).fill(1.0);
//!
//! let mut opt = PooledAdam::paper(1e-3, &arena);
//! opt.step(&mut arena, &[ParamKind::Weight, ParamKind::Bias]);
//! assert!(arena.val(0).iter().zip(layer.params()[0].value.data()).all(|(a, b)| a < b));
//! ```

pub mod activations;
pub mod arena;
pub mod batchnorm;
pub mod conv;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod merge;
pub mod param;
pub mod pool;
pub mod schedule;

pub use activations::Relu;
pub use arena::{ParamArena, PooledAdam};
pub use batchnorm::BatchNorm;
pub use conv::{Conv2d, DepthwiseConv2d};
pub use dense::Dense;
pub use layer::Layer;
pub use merge::{Concat, EltwiseAdd};
pub use param::{Param, ParamKind};
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};
