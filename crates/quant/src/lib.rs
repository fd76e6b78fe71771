//! # tqt-quant
//!
//! Quantizers and threshold machinery for the TQT (Trained Quantization
//! Thresholds, Jain et al., MLSys 2020) reproduction:
//!
//! * [`tqt`] — the paper's core contribution: a uniform symmetric
//!   power-of-2-scaled per-tensor quantizer whose *log-domain threshold* is
//!   trained by backpropagation with a carefully-applied straight-through
//!   estimator (eqs. 4–8).
//! * [`fakequant`] — TensorFlow-style FakeQuant with clipped threshold
//!   gradients (the Google QAT baseline of Section 3.5), plus the
//!   per-channel real-scaled scheme for the Table 1 comparison (per-tensor
//!   is the same scheme on a tensor reshaped to one channel).
//! * [`pact`] — the PACT clipped-ReLU baseline (eq. 1).
//! * [`calib`] — threshold calibration: MAX, n-SD, percentile and KL-J
//!   histogram calibration (Table 2).
//! * [`normed`] — normed gradients for stable SGD threshold training
//!   (Appendix B.2, eqs. 17–18).
//! * [`freeze`] — incremental threshold freezing around the critical
//!   integer level (Section 5.2).
//! * [`exact`] — exact dyadic-rational fake-quant reference (eq. 4 with
//!   no floating point), the ground truth the `tqt-verify` translation
//!   validator proves the integer engine against.
//! * [`toy`] — the toy L2 quantizer model and the training-dynamics
//!   analyses behind Figures 2, 7, 8, 9 and Table 4.
//!
//! # Examples
//!
//! ```
//! use tqt_quant::{QuantSpec, tqt::quantize, calib::{calibrate_log2_t, ThresholdInit}};
//! use tqt_tensor::{Tensor, init};
//!
//! let mut rng = init::rng(0);
//! let w = init::normal([64], 0.0, 0.1, &mut rng);
//! let log2_t = calibrate_log2_t(&w, ThresholdInit::THREE_SD, QuantSpec::INT8);
//! let wq = quantize(&w, log2_t, QuantSpec::INT8);
//! assert!(w.max_abs_diff(&wq) < 0.01);
//! ```

pub mod calib;
pub mod exact;
pub mod fakequant;
pub mod freeze;
pub mod normed;
pub mod pact;
pub mod spec;
pub mod toy;
pub mod tqt;

pub use spec::{pow2i, round_half_even, QuantSpec};
