//! Cross-crate bit-accuracy: for representative models and both weight
//! precisions, the baked float inference graph and the integer engine
//! must produce identical outputs (Section 4.2's CPU/FPGA equivalence,
//! reproduced as f32-emulation/i64-engine equivalence).

use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_tensor::init;

fn check(model: ModelKind, bits: WeightBits, seed: u64) {
    let mut g = model.build(seed);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(bits));
    let mut rng = init::rng(seed + 1);
    let calib = init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng);
    g.calibrate(&calib);
    let ig = lower(&mut g);
    for trial in 0..3 {
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0 + trial as f32 * 0.5, &mut rng);
        let yf = g.infer(&x);
        let yi = ig.run(&x).dequantize();
        assert_eq!(
            yf, yi,
            "{model:?} {bits:?} trial {trial}: float emulation != integer engine"
        );
    }
}

#[test]
fn residual_network_bit_accurate() {
    check(ModelKind::ResNet8, WeightBits::Int8, 11);
    check(ModelKind::ResNet8, WeightBits::Int4, 12);
}

#[test]
fn depthwise_network_bit_accurate() {
    check(ModelKind::MobileNetV1, WeightBits::Int8, 13);
    check(ModelKind::MobileNetV2, WeightBits::Int8, 14);
}

#[test]
fn branchy_network_bit_accurate() {
    check(ModelKind::InceptionV1, WeightBits::Int8, 15);
}

#[test]
fn leaky_relu_network_bit_accurate() {
    check(ModelKind::DarkNet, WeightBits::Int8, 16);
    check(ModelKind::DarkNet, WeightBits::Int4, 17);
}

#[test]
fn flatten_head_network_bit_accurate() {
    check(ModelKind::VggA, WeightBits::Int8, 18);
}
