//! Invariant tests for the graph passes: topological ordering after
//! insertion-heavy passes, pruning behaviour, determinism of the
//! quantization pass, and calibration idempotence.

use tqt_graph::{
    build_arena, quantize_graph, FloatExecutor, FloatPlan, Graph, Op, QuantizeOptions, WeightBits,
};
use tqt_nn::{Conv2d, Dense, EltwiseAdd, GlobalAvgPool, Relu};
use tqt_reference::{Interpreter, Mode};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::init;

fn residual_net(seed: u64) -> Graph {
    let mut rng = init::rng(seed);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "conv1",
        Op::Conv(Conv2d::new("conv1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let r1 = g.add("relu1", Op::Relu(Relu::new()), &[c1]);
    let c2 = g.add(
        "conv2",
        Op::Conv(Conv2d::new("conv2", 4, 4, Conv2dGeom::same(3), &mut rng)),
        &[r1],
    );
    let add = g.add("add", Op::Add(EltwiseAdd::new()), &[c2, r1]);
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[add]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
    g.set_output(fc);
    g
}

#[test]
fn quantize_pass_restores_topological_order() {
    let mut g = residual_net(1);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    for (id, n) in g.iter() {
        for &i in &n.inputs {
            assert!(i < id, "node {} ({}) depends on later node", id, n.name);
        }
    }
}

#[test]
fn quantize_pass_is_structurally_deterministic() {
    let build = || {
        let mut g = residual_net(2);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let names: Vec<String> = g.iter().map(|(_, n)| n.name.clone()).collect();
        let tids: Vec<String> = g.thresholds().iter().map(|t| t.param.name.clone()).collect();
        (names, tids)
    };
    assert_eq!(build(), build(), "pass must be deterministic");
}

#[test]
fn calibration_is_idempotent_for_fixed_thresholds() {
    let mut g = residual_net(3);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    let mut rng = init::rng(4);
    let x = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
    g.calibrate(&x);
    let first: Vec<f32> = g.thresholds().iter().map(|t| t.log2_t()).collect();
    // A second forward pass must not move fixed thresholds.
    g.infer(&x);
    let second: Vec<f32> = g.thresholds().iter().map(|t| t.log2_t()).collect();
    assert_eq!(first, second);
}

#[test]
fn training_forward_does_not_recalibrate() {
    let mut g = residual_net(5);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(6);
    let x = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
    g.calibrate(&x);
    let before: Vec<f32> = g.thresholds().iter().map(|t| t.log2_t()).collect();
    let mut arena = build_arena(&mut g);
    let mut ex = FloatExecutor::new(FloatPlan::new(&mut g, x.dims()), &g);
    let y = ex.forward(&mut g, &arena, &x);
    g.zero_grads();
    ex.backward(&mut g, &mut arena, &y);
    // Gradients accumulate but values change only via the optimizer.
    let after: Vec<f32> = g.thresholds().iter().map(|t| t.log2_t()).collect();
    assert_eq!(before, after);
}

#[test]
fn prune_keeps_reachable_subgraph_only() {
    let mut rng = init::rng(7);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let used = g.add("used", Op::Relu(Relu::new()), &[x]);
    let _orphan = g.add(
        "orphan",
        Op::Conv(Conv2d::new("orphan", 2, 2, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    g.set_output(used);
    g.prune_orphans();
    assert!(g.find("orphan").is_none());
    assert!(g.find("used").is_some());
    // Remaining ids must be dense and topologically ordered.
    for (id, n) in g.iter() {
        for &i in &n.inputs {
            assert!(i < id);
        }
    }
}

#[test]
fn toposort_preserves_semantics_after_shuffle_like_insertions() {
    // Build a graph, quantize (which appends quant nodes at the end and
    // re-sorts), and verify against a never-sorted reference execution.
    let mut g = residual_net(8);
    let mut rng = init::rng(9);
    let x = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
    let y_ref = Interpreter::new().forward(&mut g, &x, Mode::Eval);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    g.calibrate(&x);
    let y_q = Interpreter::new().forward(&mut g, &x, Mode::Eval);
    assert_eq!(y_ref.dims(), y_q.dims());
    // Quantized output approximates the float output (sanity that the
    // sorted graph still computes the same function).
    let rel = y_ref.max_abs_diff(&y_q) / y_ref.abs_max().max(1e-6);
    assert!(rel < 0.5, "sorted quantized graph diverged: rel err {rel}");
}

#[test]
fn weight_quantizer_survives_state_dict_roundtrip() {
    let mut g = residual_net(10);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(11);
    let x = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
    g.calibrate(&x);
    let y1 = g.infer(&x);
    let sd = g.state_dict();
    let mut g2 = residual_net(12); // different weights
    quantize_graph(&mut g2, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    g2.load_state_dict(&sd);
    let y2 = g2.infer(&x);
    y1.assert_close(&y2, 0.0);
}
