//! # tqt-reference
//!
//! The independent oracle the production float engine is checked
//! against. Only tests use it: it may appear only under
//! `[dev-dependencies]`, and `scripts/ci.sh` fails if any crate takes it
//! as a normal dependency.
//!
//! * [`Interpreter`] — the allocating graph interpreter: topological
//!   forward (with its own calibration pass) and backward, holding its
//!   own per-node outputs, layer caches and stashed weights. The parity
//!   tests compare [`tqt_graph::FloatExecutor`] with it bit for bit.
//! * [`layers`] — [`Mode`] and the per-layer allocating forward/backward
//!   ([`RefLayer`]) over the slice kernels the executor calls, with
//!   [`Cached`] for driving one layer by hand.
//! * [`Adam`] — the per-`Param` Adam, the reference for
//!   [`tqt_nn::PooledAdam`].
//! * [`gradcheck_layer`] — finite-difference gradient checks.
//!
//! # Examples
//!
//! ```
//! use tqt_nn::{Dense, Layer};
//! use tqt_reference::{Adam, Cached, Mode};
//! use tqt_tensor::init;
//!
//! let mut rng = init::rng(0);
//! let mut layer = Cached::new(Dense::new("fc", 4, 2, &mut rng));
//! let x = init::normal([8, 4], 0.0, 1.0, &mut rng);
//! let y = layer.forward(&[&x], Mode::Train);
//! let grads = layer.backward(&y); // dL/dx for L = 0.5 sum y^2
//! assert_eq!(grads[0].dims(), &[8, 4]);
//!
//! let mut opt = Adam::paper(1e-3);
//! opt.step(&mut layer.params_mut());
//! ```

pub mod gradcheck;
pub mod interp;
pub mod layers;
pub mod optim;

pub use gradcheck::gradcheck_layer;
pub use interp::Interpreter;
pub use layers::{Cache, Cached, Mode, RefLayer};
pub use optim::Adam;
