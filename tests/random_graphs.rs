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
use tqt_graph::{
    build_arena, quantize_graph, sync_thresholds_to_arena, transforms, FloatExecutor, FloatPlan,
    QuantizeOptions, WeightBits,
};
use tqt_rt::check::Config;
use tqt_rt::{check, prop_assert, prop_assert_eq};
use tqt_tensor::{init, Tensor};

#[test]
fn optimize_preserves_semantics() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        let mut rng = init::rng(spec.seed + 2);
        let x = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
        let before = g.infer(&x);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        let after = g.infer(&x);
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
        let yf = g.infer(&x);
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
        let y_par = g.infer(&x);
        let yi_par = ig.run(&x).dequantize();
        let prev = tqt_rt::pool::threads();
        tqt_rt::pool::set_threads(1);
        let y_ser = g.infer(&x);
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
        let mut arena = build_arena(&mut g);
        let mut ex = FloatExecutor::new(FloatPlan::new(&mut g, x.dims()), &g);
        let y = ex.forward(&mut g, &arena, &x);
        g.zero_grads();
        ex.backward(&mut g, &mut arena, &y);
        sync_thresholds_to_arena(&g, &mut arena);
        for (i, p) in g.params_mut().into_iter().enumerate() {
            let grad = Tensor::from_vec(p.value.dims().to_vec(), arena.grad(i).to_vec());
            prop_assert!(grad.all_finite(), "non-finite gradient in {}", p.name);
        }
        Ok(())
    });
}
