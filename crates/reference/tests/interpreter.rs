//! The reference interpreter's own checks: output shapes, an end-to-end
//! finite-difference gradient check through a float graph, weight
//! restoration after a quantized eval pass, calibrate-then-apply and
//! threshold gradients through a quant node, the uncalibrated-quantizer
//! panic, and gradient fan-in at a fan-out node.

use tqt_graph::{Graph, Op, ThresholdMode, ThresholdState, WeightQuant};
use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
use tqt_quant::calib::ThresholdInit;
use tqt_quant::QuantSpec;
use tqt_reference::{Interpreter, Mode};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::{init, Tensor};

fn small_net(rng: &mut tqt_tensor::init::Rng) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "conv1",
        Op::Conv(Conv2d::new("conv1", 1, 4, Conv2dGeom::same(3), rng)),
        &[x],
    );
    let r1 = g.add("relu1", Op::Relu(Relu::new()), &[c1]);
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[r1]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, rng)), &[gap]);
    g.set_output(fc);
    g
}

#[test]
fn forward_shapes() {
    let mut rng = init::rng(50);
    let mut g = small_net(&mut rng);
    let x = init::normal([2, 1, 8, 8], 0.0, 1.0, &mut rng);
    let y = Interpreter::new().forward(&mut g, &x, Mode::Eval);
    assert_eq!(y.dims(), &[2, 3]);
}

#[test]
fn infer_shapes_matches_forward() {
    let mut rng = init::rng(51);
    let g = small_net(&mut rng);
    let shapes = g.infer_shapes(&[1, 1, 8, 8]);
    assert_eq!(shapes[g.find("conv1").unwrap()], vec![1, 4, 8, 8]);
    assert_eq!(shapes[g.find("fc").unwrap()], vec![1, 3]);
}

/// End-to-end finite-difference check through a full float graph.
#[test]
fn graph_gradcheck() {
    let mut rng = init::rng(52);
    let mut g = small_net(&mut rng);
    let x = init::normal([2, 1, 6, 6], 0.0, 1.0, &mut rng);
    let mut interp = Interpreter::new();
    let y = interp.forward(&mut g, &x, Mode::Train);
    g.zero_grads();
    interp.backward(&mut g, &y); // L = 0.5 sum y^2
                                 // Probe a conv weight and the dense bias.
    let loss = |g: &mut Graph, x: &Tensor| -> f64 {
        let y = Interpreter::new().forward(g, x, Mode::Eval);
        y.data()
            .iter()
            .map(|&v| 0.5 * (v as f64) * (v as f64))
            .sum()
    };
    let eps = 1e-2f32;
    for pi in [0usize, 2] {
        let (name, grads) = {
            let ps = g.params_mut();
            (ps[pi].name.clone(), ps[pi].grad.data().to_vec())
        };
        for &i in &[0usize, grads.len() - 1] {
            let orig = g.params_mut()[pi].value.data()[i];
            g.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = loss(&mut g, &x);
            g.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = loss(&mut g, &x);
            g.params_mut()[pi].value.data_mut()[i] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - grads[i]).abs() < 3e-2 * (1.0 + fd.abs()),
                "param {name} grad mismatch at {i}: fd={fd} analytic={}",
                grads[i]
            );
        }
    }
}

#[test]
fn quantized_forward_restores_weights_in_eval() {
    let mut rng = init::rng(53);
    let mut g = small_net(&mut rng);
    let conv = g.find("conv1").unwrap();
    let tid = g.add_threshold(ThresholdState::new(
        "conv1/wq",
        QuantSpec::INT8,
        ThresholdInit::Max,
        ThresholdMode::Fixed,
    ));
    g.node_mut(conv).wq = Some(WeightQuant::new(tid));
    let w_before = {
        let ps = g.params_mut();
        ps[0].value.clone()
    };
    let x = init::normal([1, 1, 6, 6], 0.0, 1.0, &mut rng);
    let mut interp = Interpreter::new();
    interp.calibrate(&mut g, &x);
    interp.forward(&mut g, &x, Mode::Eval);
    let w_after = {
        let ps = g.params_mut();
        ps[0].value.clone()
    };
    assert_eq!(w_before, w_after, "weights must be restored after eval");
}

#[test]
fn quant_node_calibrates_then_applies() {
    let mut rng = init::rng(54);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let tid = g.add_threshold(ThresholdState::new(
        "act_q",
        QuantSpec::INT8,
        ThresholdInit::Max,
        ThresholdMode::Trained,
    ));
    let q = g.add("q", Op::Quant { tid }, &[x]);
    g.set_output(q);
    let data = init::normal([64], 0.0, 1.0, &mut rng);
    let mut interp = Interpreter::new();
    interp.calibrate(&mut g, &data);
    assert!(g.thresholds()[tid].calibrated);
    let y = interp.forward(&mut g, &data, Mode::Eval);
    // Max-calibrated: nothing clips, everything lands on the grid.
    let s = QuantSpec::INT8.scale_for_log2_t(g.thresholds()[tid].log2_t());
    for &v in y.data() {
        assert_eq!((v / s).fract(), 0.0);
    }
}

#[test]
fn threshold_gradient_flows_through_quant_node() {
    let mut rng = init::rng(55);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let tid = g.add_threshold(ThresholdState::new(
        "act_q",
        QuantSpec::INT8,
        ThresholdInit::Max,
        ThresholdMode::Trained,
    ));
    let q = g.add("q", Op::Quant { tid }, &[x]);
    g.set_output(q);
    let data = init::normal([64], 0.0, 1.0, &mut rng);
    let mut interp = Interpreter::new();
    interp.calibrate(&mut g, &data);
    let y = interp.forward(&mut g, &data, Mode::Train);
    g.zero_grads();
    interp.backward(&mut g, &y);
    let tgrad = g.thresholds()[tid].param.grad.item();
    assert!(tgrad != 0.0, "threshold gradient should be non-zero");
}

#[test]
#[should_panic(expected = "before calibration")]
fn uncalibrated_quantizer_panics() {
    let mut g = Graph::new();
    let x = g.add_input("input");
    let tid = g.add_threshold(ThresholdState::new(
        "q",
        QuantSpec::INT8,
        ThresholdInit::Max,
        ThresholdMode::Trained,
    ));
    let q = g.add("q", Op::Quant { tid }, &[x]);
    g.set_output(q);
    Interpreter::new().forward(&mut g, &Tensor::zeros([4]), Mode::Eval);
}

#[test]
fn fanout_accumulates_gradients() {
    // x -> relu -> add(relu_out, relu_out): gradient at relu is 2x.
    let mut g = Graph::new();
    let x = g.add_input("input");
    let r = g.add("r", Op::Relu(Relu::new()), &[x]);
    let a = g.add("a", Op::Add(tqt_nn::EltwiseAdd::new()), &[r, r]);
    g.set_output(a);
    let data = Tensor::from_slice(&[1.0, 2.0]);
    let mut interp = Interpreter::new();
    let y = interp.forward(&mut g, &data, Mode::Train);
    assert_eq!(y.data(), &[2.0, 4.0]);
    g.zero_grads();
    interp.backward(&mut g, &Tensor::from_slice(&[1.0, 1.0]));
    // No params, but the pass must not panic and must consume both
    // contributions (checked implicitly by reaching here).
}
