//! The reference interpreter: an allocating forward (with optional
//! on-the-fly threshold calibration, performed in strict topological
//! order as the paper requires) and backward over the layers' own
//! `Layer::forward`/`backward`. Production set-up, training and
//! evaluation run on [`crate::fexec::FloatExecutor`]; this interpreter is
//! the independent path the executor's parity tests compare against.

use crate::ir::{Graph, Op, ThresholdMode};
use tqt_nn::{Layer, Mode, ParamKind};
use tqt_quant::calib::calibrate_log2_t;
use tqt_quant::tqt::{quantize, quantize_backward};
use tqt_tensor::{ops, Tensor};

/// How a forward pass treats quantizer thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuantPass {
    /// Apply quantizers with their current thresholds.
    Apply,
    /// Calibrate any uncalibrated threshold from the tensor flowing through
    /// it (strictly topological: upstream quantizers are already active).
    Calibrate,
}

impl Graph {
    /// Runs a forward pass. In `Mode::Train`, layers cache activations and
    /// the graph retains per-node outputs for [`backward`](Self::backward).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input/output, if a quantizer is not yet
    /// calibrated, or on any shape mismatch inside a layer.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.run_forward(x, mode, QuantPass::Apply)
    }

    /// The reference interpreter's calibration pass, with the same rule
    /// as [`calibrate`](Self::calibrate): flows `x` through the graph,
    /// initializing every uncalibrated threshold from the distribution it
    /// observes. Quantizers calibrated earlier in topological order are
    /// already active when later ones calibrate, matching Section 4.2, and
    /// shared thresholds take the max over the proposals they receive.
    pub fn calibrate_reference(&mut self, x: &Tensor) -> Tensor {
        self.run_forward(x, Mode::Eval, QuantPass::Calibrate)
    }

    fn run_forward(&mut self, x: &Tensor, mode: Mode, pass: QuantPass) -> Tensor {
        let out_id = self.output_id();
        let in_id = self.input_id();
        let n = self.nodes.len();
        let mut acts: Vec<Option<Tensor>> = vec![None; n];
        // Thresholds calibrated during *this* pass: a second proposal for
        // the same id (scale sharing across concat / eltwise-add inputs)
        // max-merges instead of overwriting.
        let mut calibrated_this_pass = vec![false; self.thresholds.len()];
        // Destructure so nodes and thresholds can be borrowed independently.
        let Graph {
            nodes, thresholds, ..
        } = self;
        for id in 0..n {
            let node = &mut nodes[id];
            let out = match &mut node.op {
                Op::Input => {
                    assert_eq!(id, in_id, "unexpected extra input node");
                    x.clone()
                }
                Op::Identity => acts[node.inputs[0]]
                    .as_ref()
                    .expect("identity input missing") // tqt:allow(expect): topological order computes inputs before consumers
                    .clone(),
                Op::Quant { tid } => {
                    let input = acts[node.inputs[0]]
                        .as_ref()
                        .expect("quant input missing"); // tqt:allow(expect): topological order computes inputs before consumers
                    let ts = &mut thresholds[*tid];
                    if pass == QuantPass::Calibrate
                        && (!ts.calibrated || calibrated_this_pass[*tid])
                    {
                        let proposal = calibrate_log2_t(input, ts.init, ts.spec);
                        let v = if calibrated_this_pass[*tid] {
                            ts.log2_t().max(proposal)
                        } else {
                            proposal
                        };
                        ts.set_log2_t(v);
                        calibrated_this_pass[*tid] = true;
                    }
                    assert!(
                        ts.calibrated,
                        "quantizer {} used before calibration",
                        ts.param.name
                    );
                    quantize(input, ts.log2_t(), ts.spec)
                }
                op => {
                    // Compute / stateless layer path, with optional weight
                    // quantization.
                    if let Some(wq) = &mut node.wq {
                        let ts = &mut thresholds[wq.tid];
                        let w = crate::ir::op_params_mut(op)
                            .into_iter()
                            .find(|p| p.kind == ParamKind::Weight)
                            .expect("weight quantizer on op without weights"); // tqt:allow(expect): quantize_graph attaches wq only to weight-bearing ops
                        if pass == QuantPass::Calibrate && !ts.calibrated {
                            ts.set_log2_t(calibrate_log2_t(&w.value, ts.init, ts.spec));
                        }
                        assert!(
                            ts.calibrated,
                            "weight quantizer {} used before calibration",
                            ts.param.name
                        );
                        wq.saved_w = Some(w.value.clone());
                        w.value = quantize(&w.value, ts.log2_t(), ts.spec);
                    }
                    let inputs: Vec<&Tensor> = node
                        .inputs
                        .iter()
                        .map(|&i| acts[i].as_ref().expect("op input missing")) // tqt:allow(expect): topological order computes inputs before consumers
                        .collect();
                    let y = op_forward(op, &inputs, mode);
                    // In eval-style passes there is no backward to restore
                    // the weights, so restore immediately.
                    if mode == Mode::Eval {
                        if let Some(wq) = &mut node.wq {
                            let w = crate::ir::op_params_mut(&mut node.op)
                                .into_iter()
                                .find(|p| p.kind == ParamKind::Weight)
                                .expect("weight quantizer on op without weights"); // tqt:allow(expect): quantize_graph attaches wq only to weight-bearing ops
                            w.value = wq.saved_w.take().expect("saved weights missing"); // tqt:allow(expect): saved_w was stored by this same forward pass above
                        }
                    }
                    y
                }
            };
            acts[id] = Some(out);
        }
        let result = acts[out_id].clone().expect("output not computed"); // tqt:allow(expect): the loop computes every node, the output included
        if mode == Mode::Train {
            self.acts = acts.into_iter().map(|a| a.unwrap()).collect(); // tqt:allow(unwrap): the Train pass computes every activation
        } else {
            self.acts.clear();
        }
        result
    }

    /// Backpropagates the loss gradient `dout` (w.r.t. the output node)
    /// through the graph, accumulating all parameter and threshold
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call or `dout` has
    /// the wrong shape.
    pub fn backward(&mut self, dout: &Tensor) {
        let n = self.nodes.len();
        assert_eq!(
            self.acts.len(),
            n,
            "backward requires a training-mode forward pass first"
        );
        let out_id = self.output_id();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[out_id] = Some(dout.clone());
        let Graph {
            nodes,
            thresholds,
            acts,
            ..
        } = self;
        for id in (0..n).rev() {
            let Some(gy) = grads[id].take() else {
                continue;
            };
            let node = &mut nodes[id];
            let input_grads: Vec<Tensor> = match &mut node.op {
                Op::Input => Vec::new(),
                Op::Identity => vec![gy],
                Op::Quant { tid } => {
                    let x = &acts[node.inputs[0]];
                    let ts = &mut thresholds[*tid];
                    let g = quantize_backward(x, ts.log2_t(), ts.spec, &gy);
                    if ts.mode == ThresholdMode::Trained {
                        ts.param.accumulate_scalar(g.dlog2_t);
                    }
                    vec![g.dx]
                }
                op => {
                    let gs = op_backward(op, &gy);
                    // Route the weight gradient through the quantizer STE
                    // and restore full-precision weights.
                    if let Some(wq) = &mut node.wq {
                        let ts = &mut thresholds[wq.tid];
                        let w_orig = wq.saved_w.take().expect("saved weights missing"); // tqt:allow(expect): the Train forward stored saved_w for every wq
                        let w = crate::ir::op_params_mut(op)
                            .into_iter()
                            .find(|p| p.kind == ParamKind::Weight)
                            .expect("weight quantizer on op without weights"); // tqt:allow(expect): quantize_graph attaches wq only to weight-bearing ops
                        let g = quantize_backward(&w_orig, ts.log2_t(), ts.spec, &w.grad);
                        if ts.mode == ThresholdMode::Trained {
                            ts.param.accumulate_scalar(g.dlog2_t);
                        }
                        w.grad = g.dx;
                        w.value = w_orig;
                    }
                    gs
                }
            };
            let inputs = node.inputs.clone();
            assert_eq!(
                input_grads.len(),
                inputs.len(),
                "op {} returned wrong number of gradients",
                node.name
            );
            for (i, g) in inputs.into_iter().zip(input_grads) {
                match &mut grads[i] {
                    Some(acc) => ops::axpy(acc, 1.0, &g),
                    slot => *slot = Some(g),
                }
            }
        }
        self.acts.clear();
    }

    /// Float-exec runtime sanitizer: `(nan, inf)` element counts over the
    /// per-node activations retained by the most recent training-mode
    /// forward pass (both zero when no activations are retained). A
    /// healthy QAT step observes `(0, 0)`; the trainer asserts this in
    /// debug builds.
    pub fn nonfinite_counts(&self) -> (usize, usize) {
        let mut nan = 0;
        let mut inf = 0;
        for t in &self.acts {
            for &v in t.data() {
                if v.is_nan() {
                    nan += 1;
                } else if v.is_infinite() {
                    inf += 1;
                }
            }
        }
        (nan, inf)
    }
}

/// Dispatches forward to the embedded layer.
pub(crate) fn op_forward(op: &mut Op, inputs: &[&Tensor], mode: Mode) -> Tensor {
    match op {
        Op::Conv(l) => l.forward(inputs, mode),
        Op::Depthwise(l) => l.forward(inputs, mode),
        Op::Dense(l) => l.forward(inputs, mode),
        Op::BatchNorm(l) => l.forward(inputs, mode),
        Op::Relu(l) => l.forward(inputs, mode),
        Op::MaxPool(l) => l.forward(inputs, mode),
        Op::AvgPool(l) => l.forward(inputs, mode),
        Op::GlobalAvgPool(l) => l.forward(inputs, mode),
        Op::Flatten(l) => l.forward(inputs, mode),
        Op::Add(l) => l.forward(inputs, mode),
        Op::Concat(l) => l.forward(inputs, mode),
        Op::Input | Op::Identity | Op::Quant { .. } => {
            unreachable!("handled by the executor")
        }
    }
}

/// Dispatches backward to the embedded layer.
pub(crate) fn op_backward(op: &mut Op, gy: &Tensor) -> Vec<Tensor> {
    match op {
        Op::Conv(l) => l.backward(gy),
        Op::Depthwise(l) => l.backward(gy),
        Op::Dense(l) => l.backward(gy),
        Op::BatchNorm(l) => l.backward(gy),
        Op::Relu(l) => l.backward(gy),
        Op::MaxPool(l) => l.backward(gy),
        Op::AvgPool(l) => l.backward(gy),
        Op::GlobalAvgPool(l) => l.backward(gy),
        Op::Flatten(l) => l.backward(gy),
        Op::Add(l) => l.backward(gy),
        Op::Concat(l) => l.backward(gy),
        Op::Input | Op::Identity | Op::Quant { .. } => {
            unreachable!("handled by the executor")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ThresholdState, WeightQuant};
    use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
    use tqt_quant::calib::ThresholdInit;
    use tqt_quant::QuantSpec;
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

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
        let y = g.forward(&x, Mode::Eval);
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
        let y = g.forward(&x, Mode::Train);
        g.zero_grads();
        g.backward(&y); // L = 0.5 sum y^2
        // Probe a conv weight and the dense bias.
        let loss = |g: &mut Graph, x: &Tensor| -> f64 {
            let y = g.forward(x, Mode::Eval);
            y.data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
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
        g.node_mut(conv).wq = Some(WeightQuant {
            tid,
            saved_w: None,
        });
        let w_before = {
            let ps = g.params_mut();
            ps[0].value.clone()
        };
        let x = init::normal([1, 1, 6, 6], 0.0, 1.0, &mut rng);
        g.calibrate_reference(&x);
        g.forward(&x, Mode::Eval);
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
        g.calibrate_reference(&data);
        assert!(g.thresholds()[tid].calibrated);
        let y = g.forward(&data, Mode::Eval);
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
        g.calibrate_reference(&data);
        let y = g.forward(&data, Mode::Train);
        g.zero_grads();
        g.backward(&y);
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
        g.forward(&Tensor::zeros([4]), Mode::Eval);
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
        let y = g.forward(&data, Mode::Train);
        assert_eq!(y.data(), &[2.0, 4.0]);
        g.zero_grads();
        g.backward(&Tensor::from_slice(&[1.0, 1.0]));
        // No params, but the pass must not panic and must consume both
        // contributions (checked implicitly by reaching here).
    }
}
