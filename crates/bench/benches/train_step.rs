//! End-to-end bench: one full QAT training step (forward in `Mode::Train`,
//! softmax cross-entropy, backward, Adam updates for weights and
//! thresholds) on a quantized zoo model. This is the number the kernel
//! work exists to improve — every matmul, conv, quantizer and optimizer
//! kernel is on this path.
//!
//! The `train_step/…` entry runs the path the trainer uses: the
//! liveness-planned slot-reuse executor plus the pooled Adam over the
//! contiguous parameter arena (bit-identical to the reference
//! interpreter — `crates/core/tests/train_parity.rs`). The report carries
//! the executor's steady-state slot-allocation count (must be 0: after the
//! first step, a training step performs no slot allocation at all).

use tqt::config::TrainHyper;
use tqt_data::{train_val, BatchIter, SynthConfig};
use tqt_graph::{
    build_arena, quantize_graph, sync_thresholds_from_arena, sync_thresholds_to_arena, transforms,
    FloatExecutor, FloatPlan, QuantizeOptions, WeightBits,
};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::loss::softmax_cross_entropy;
use tqt_nn::{ParamKind, PooledAdam};
use tqt_rt::bench::{black_box, Bench, Report};

fn main() {
    let mut report = Report::from_args("train_step");
    let (bench, batch, model) = if report.smoke() {
        (Bench::smoke(), 2, ModelKind::ResNet8)
    } else {
        (Bench::with_samples(20), 32, ModelKind::ResNet8)
    };

    // Build, quantize, and calibrate the model exactly as the quickstart
    // does, so the benched step is the steady-state QAT retraining step.
    let cfg = SynthConfig::default();
    let (train_set, _val_set) = train_val(&cfg, batch.max(64), 8);
    let mut g = model.build(42);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    g.calibrate(&tqt_data::calibration_batch(&train_set, 16, 7));
    let hyper = TrainHyper::retrain(1);
    let (x, labels) = BatchIter::new(&train_set, batch, 3, 0)
        .next()
        .expect("dataset provides at least one batch");
    let mut dims = INPUT_DIMS;
    dims[0] = batch;

    // The trainer's path: slot-reuse executor + pooled Adam over the
    // parameter arena.
    let mut arena = build_arena(&mut g);
    let plan = FloatPlan::new(&mut g, &dims);
    let mut ex = FloatExecutor::new(plan, &g);
    let mut weight_opt = PooledAdam::paper(hyper.weight_lr, &arena);
    let mut thresh_opt = PooledAdam::paper(hyper.threshold_lr, &arena);
    // One untimed step so the bench measures steady state (the first
    // forward builds the slot buffers).
    let warm = ex.forward(&mut g, &arena, &x);
    black_box(warm);
    let allocs_after_first = ex.slot_allocs();
    report.push(bench.run(&format!("train_step/{model:?}/batch{batch}"), || {
        let logits = ex.forward(&mut g, &arena, black_box(&x));
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        g.zero_grads();
        arena.zero_grads();
        ex.backward(&mut g, &mut arena, &dlogits);
        weight_opt.step(
            &mut arena,
            &[ParamKind::Weight, ParamKind::Bias, ParamKind::BatchNorm],
        );
        sync_thresholds_to_arena(&g, &mut arena);
        thresh_opt.step(&mut arena, &[ParamKind::Threshold]);
        sync_thresholds_from_arena(&mut g, &arena);
        black_box(&arena);
    }));
    let steady_allocs = ex.slot_allocs() - allocs_after_first;
    report.push_metric("steady_state_slot_allocs", steady_allocs as f64);
    assert_eq!(
        steady_allocs, 0,
        "planned executor allocated slot memory in steady state"
    );

    report.finish();
}
