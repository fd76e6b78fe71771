//! Property-based integration tests: random small conv nets are built,
//! optimized, quantized, calibrated and lowered — and the pipeline's
//! invariants must hold for every one of them:
//!
//! * graph optimization preserves FP32 inference semantics;
//! * the quantized graph runs and approximates FP32;
//! * the integer engine is bit-exact to the baked float graph, on every
//!   random architecture (not just the fixed model in
//!   `tests/bit_accuracy.rs`), and that parity is itself independent of
//!   whether the tensor kernels run serial or parallel.
//!
//! The random-net generator lives in `tests/common/mod.rs`, shared with
//! the static-analysis soundness suite in `tests/verify_soundness.rs`.

mod common;

use common::{build, net_gen, NetSpec};
use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_nn::Mode;
use tqt_rt::check::Config;
use tqt_rt::{check, prop_assert, prop_assert_eq};
use tqt_tensor::init;

#[test]
fn optimize_preserves_semantics() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        let mut rng = init::rng(spec.seed + 2);
        let x = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
        let before = g.forward(&x, Mode::Eval);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        let after = g.forward(&x, Mode::Eval);
        let tol = 1e-3 * (1.0 + before.abs_max());
        prop_assert!(
            before.max_abs_diff(&after) < tol,
            "optimization changed outputs by {}",
            before.max_abs_diff(&after)
        );
        Ok(())
    });
}

#[test]
fn quantized_pipeline_bit_accurate() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(spec.seed + 3);
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        let ig = lower(&mut g);
        let x = init::normal([2, 2, 8, 8], 0.0, 1.3, &mut rng);
        let yf = g.forward(&x, Mode::Eval);
        let yi = ig.run(&x).dequantize();
        prop_assert_eq!(yf, yi);
        Ok(())
    });
}

/// Float-vs-fixed parity must hold regardless of the thread-pool
/// scheduling: the serial override and the parallel path must both be
/// bit-exact against the integer engine.
#[test]
fn quantized_pipeline_bit_accurate_serial_override() {
    check!(Config::cases(6), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(spec.seed + 3);
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        let ig = lower(&mut g);
        let x = init::normal([2, 2, 8, 8], 0.0, 1.3, &mut rng);
        let y_par = g.forward(&x, Mode::Eval);
        let yi_par = ig.run(&x).dequantize();
        let prev = tqt_rt::pool::threads();
        tqt_rt::pool::set_threads(1);
        let y_ser = g.forward(&x, Mode::Eval);
        let yi_ser = ig.run(&x).dequantize();
        tqt_rt::pool::set_threads(prev);
        prop_assert_eq!(&y_par, &y_ser);
        prop_assert_eq!(&yi_par, &yi_ser);
        prop_assert_eq!(y_par, yi_par);
        Ok(())
    });
}

#[test]
fn quantized_backward_produces_finite_gradients() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(spec.seed + 4);
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        let x = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
        let y = g.forward(&x, Mode::Train);
        g.zero_grads();
        g.backward(&y);
        for p in g.params_mut() {
            prop_assert!(p.grad.all_finite(), "non-finite gradient in {}", p.name);
        }
        Ok(())
    });
}
