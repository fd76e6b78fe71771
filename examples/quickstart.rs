//! Quickstart: quantize a small CNN with TQT end to end.
//!
//! Builds a ResNet analogue, trains it briefly in FP32 on the synthetic
//! dataset, folds batch norms, quantizes it to INT8 with trainable
//! thresholds, calibrates, retrains with TQT, and finally lowers it to the
//! bit-accurate integer engine.
//!
//! Run with: `cargo run --example quickstart --release`

use tqt::config::TrainHyper;
use tqt::trainer::{evaluate, train};
use tqt_data::{calibration_batch, train_val, SynthConfig};
use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};

fn main() {
    // 1. Data: a synthetic 10-class image task (ImageNet stand-in).
    let cfg = SynthConfig::default();
    let (train_set, val_set) = train_val(&cfg, 640, 256);
    let steps_per_epoch = (train_set.len() / 32) as u64;

    // 2. FP32 pre-training.
    let mut g = ModelKind::ResNet8.build(42);
    let mut hyper = TrainHyper::pretrain(steps_per_epoch);
    hyper.epochs = 4;
    let fp32 = train(&mut g, &train_set, &val_set, &hyper);
    println!("FP32      top-1 = {:.1}%", fp32.best.top1 * 100.0);

    // 3. Graph optimization: fold batch norms, convert avg-pools.
    transforms::optimize(&mut g, &INPUT_DIMS);

    // 4. Quantize with trainable thresholds (8-bit weights/activations,
    //    per-tensor, symmetric, power-of-2 scales) and calibrate in
    //    topological order on 50 unlabeled images.
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let calib = calibration_batch(&val_set, 50, 7);
    g.calibrate(&calib);
    let (static_top1, _, _) = evaluate(&mut g, &val_set, 32);
    println!("calibrated top-1 = {:.1}% (before retraining)", static_top1 * 100.0);

    // 5. TQT retraining: weights and log2-thresholds trained jointly.
    let mut hyper = TrainHyper::retrain(steps_per_epoch);
    hyper.epochs = 3;
    let tqt = train(&mut g, &train_set, &val_set, &hyper);
    println!("TQT INT8  top-1 = {:.1}%", tqt.best.top1 * 100.0);
    let devs = tqt.threshold_deviations();
    println!(
        "thresholds trained: {} ({} moved integer bins)",
        devs.len(),
        devs.iter().filter(|&&d| d != 0).count()
    );

    // 6. Lower to the integer engine and verify bit-accuracy.
    let ig = lower(&mut g);
    let x = calibration_batch(&val_set, 8, 9);
    let y_float = g.infer(&x);
    let y_int = ig.run(&x).dequantize();
    assert_eq!(y_float, y_int, "integer engine must match the float emulation");
    println!("integer engine: bit-accurate to the quantized inference graph");
}
