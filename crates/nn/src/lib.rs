//! # tqt-nn
//!
//! A from-scratch neural-network layer library with hand-derived
//! backpropagation, built on [`tqt_tensor`]. This is the training substrate
//! the TQT reproduction runs on — the role TensorFlow plays for the
//! original paper.
//!
//! Provides the [`Layer`] trait and implementations for every operation the
//! paper's model zoo needs (dense, conv2d, depthwise conv, batch-norm with
//! freezeable statistics, ReLU/ReLU6/leaky-ReLU, max/avg/global pooling,
//! eltwise-add, concat, flatten), softmax cross-entropy, the Adam optimizer
//! with name-keyed state (plus its pooled arena form), and the paper's
//! staircase learning-rate schedules.
//!
//! # Examples
//!
//! ```
//! use tqt_nn::{Dense, Layer, Mode, optim::Adam};
//! use tqt_tensor::{init, Tensor};
//!
//! let mut rng = init::rng(0);
//! let mut layer = Dense::new("fc", 4, 2, &mut rng);
//! let x = init::normal([8, 4], 0.0, 1.0, &mut rng);
//! let y = layer.forward(&[&x], Mode::Train);
//! let grads = layer.backward(&y); // dL/dx for L = 0.5 sum y^2
//! assert_eq!(grads[0].dims(), &[8, 4]);
//!
//! let mut opt = Adam::paper(1e-3);
//! opt.step(&mut layer.params_mut());
//! ```

pub mod activations;
pub mod arena;
pub mod batchnorm;
pub mod conv;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod merge;
pub mod optim;
pub mod param;
pub mod pool;
pub mod schedule;
#[doc(hidden)]
pub mod testutil;

pub use activations::Relu;
pub use arena::{ParamArena, PooledAdam};
pub use batchnorm::BatchNorm;
pub use conv::{Conv2d, DepthwiseConv2d};
pub use dense::Dense;
pub use layer::{Layer, Mode};
pub use merge::{Concat, EltwiseAdd};
pub use param::{Param, ParamKind};
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};
