//! End-to-end bit-identity of the persistent worker pool: a full
//! quantized (TQT) forward + backward pass of the planned float executor
//! on a zoo model must produce
//! byte-identical logits and parameter gradients whether it runs on the
//! parallel path with several workers or on one thread. This is
//! the whole-graph version of the kernel-level guarantee in
//! `crates/tensor/tests/parallel_parity.rs` — it covers the quantizer,
//! batch-norm, pooling and loss kernels between the GEMMs too.

use tqt_data::{calibration_batch, train_val, SynthConfig};
use tqt_graph::{
    build_arena, quantize_graph, sync_thresholds_to_arena, transforms, FloatExecutor, FloatPlan,
    Graph, QuantizeOptions, WeightBits,
};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::loss::softmax_cross_entropy;
use tqt_rt::pool;
use tqt_tensor::Tensor;

/// One quantized forward/backward; returns logits plus every parameter
/// gradient (name-keyed so a mismatch names the offending layer).
fn fwd_bwd(g: &mut Graph, x: &Tensor, labels: &[usize]) -> (Tensor, Vec<(String, Tensor)>) {
    let mut arena = build_arena(g);
    let mut ex = FloatExecutor::new(FloatPlan::new(g, x.dims()), g);
    let logits = ex.forward(g, &arena, x);
    let (_, dlogits) = softmax_cross_entropy(&logits, labels);
    g.zero_grads();
    ex.backward(g, &mut arena, &dlogits);
    sync_thresholds_to_arena(g, &mut arena);
    let grads = g
        .params_mut()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let grad = Tensor::from_vec(p.value.dims().to_vec(), arena.grad(i).to_vec());
            (p.name.clone(), grad)
        })
        .collect();
    (logits, grads)
}

#[test]
fn quantized_forward_backward_bit_identical_serial_vs_parallel() {
    // More workers than a single-core CI host has cores: the guarantee is
    // thread-count independence, not "serial happens to win the race".
    pool::set_threads(4);

    let cfg = SynthConfig::default();
    let (train_set, _) = train_val(&cfg, 64, 8);
    let mut g = ModelKind::ResNet8.build(7);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    g.calibrate(&calibration_batch(&train_set, 16, 3));

    let x = calibration_batch(&train_set, 8, 5);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();

    let (logits_par, grads_par) = fwd_bwd(&mut g, &x, &labels);
    pool::set_threads(1);
    let (logits_ser, grads_ser) = fwd_bwd(&mut g, &x, &labels);
    pool::set_threads(0);

    // Tensor equality is exact element-wise f32 comparison: bit identity.
    assert_eq!(logits_par, logits_ser, "quantized logits differ");
    assert_eq!(grads_par.len(), grads_ser.len());
    for ((name, gp), (name2, gs)) in grads_par.iter().zip(&grads_ser) {
        assert_eq!(name, name2);
        assert_eq!(gp, gs, "gradient for {name} differs serial vs parallel");
    }
}
