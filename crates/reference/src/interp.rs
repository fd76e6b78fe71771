//! The reference interpreter: an allocating forward (with optional
//! on-the-fly threshold calibration, performed in strict topological
//! order as the paper requires) and backward over the per-layer
//! [`RefLayer`] forward/backward. Production set-up, training and
//! evaluation run on [`tqt_graph::FloatExecutor`]; this interpreter is
//! the independent path the executor's parity tests compare against.
//!
//! All of its state lives here, not on the graph: the per-node outputs a
//! training forward retains for backward, each layer's [`Cache`], and the
//! full-precision weights a weight quantizer stashes between forward and
//! backward.

use crate::layers::{Cache, Mode, RefLayer};
use tqt_graph::ir::op_params_mut;
use tqt_graph::{Graph, Op, ThresholdMode};
use tqt_nn::ParamKind;
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

/// The interpreter's per-run state for one graph.
#[derive(Debug, Default)]
pub struct Interpreter {
    /// Per-node outputs retained by the last training-mode forward.
    acts: Vec<Tensor>,
    /// Per-node layer caches filled by a training-mode forward.
    caches: Vec<Cache>,
    /// Per-node full-precision weights stashed by a weight quantizer.
    saved_w: Vec<Option<Tensor>>,
}

impl Interpreter {
    /// An interpreter with no retained state.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Runs a forward pass of `g`. In `Mode::Train`, layers cache what
    /// their backward needs and the interpreter retains per-node outputs
    /// for [`backward`](Self::backward) and
    /// [`activations`](Self::activations).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input/output, if a quantizer is not yet
    /// calibrated, or on any shape mismatch inside a layer.
    pub fn forward(&mut self, g: &mut Graph, x: &Tensor, mode: Mode) -> Tensor {
        self.run_forward(g, x, mode, QuantPass::Apply)
    }

    /// The reference calibration pass, with the same rule as
    /// [`Graph::calibrate`]: flows `x` through the graph, initializing
    /// every uncalibrated threshold from the distribution it observes.
    /// Quantizers calibrated earlier in topological order are already
    /// active when later ones calibrate, matching Section 4.2, and shared
    /// thresholds take the max over the proposals they receive.
    pub fn calibrate(&mut self, g: &mut Graph, x: &Tensor) -> Tensor {
        self.run_forward(g, x, Mode::Eval, QuantPass::Calibrate)
    }

    /// Per-node outputs from the most recent training-mode forward pass
    /// (empty otherwise). Index by node id.
    pub fn activations(&self) -> &[Tensor] {
        &self.acts
    }

    fn run_forward(&mut self, g: &mut Graph, x: &Tensor, mode: Mode, pass: QuantPass) -> Tensor {
        let out_id = g.output_id();
        let in_id = g.input_id();
        let n = g.len();
        let mut acts: Vec<Option<Tensor>> = vec![None; n];
        self.caches = (0..n).map(|_| Cache::Empty).collect();
        self.saved_w = vec![None; n];
        // Thresholds calibrated during *this* pass: a second proposal for
        // the same id (scale sharing across concat / eltwise-add inputs)
        // max-merges instead of overwriting.
        let mut calibrated_this_pass = vec![false; g.thresholds().len()];
        for id in 0..n {
            let wq = g.node(id).wq.as_ref().map(|wq| wq.tid);
            let inputs = g.node(id).inputs.clone();
            let out = match g.node(id).op {
                Op::Input => {
                    assert_eq!(id, in_id, "unexpected extra input node");
                    x.clone()
                }
                Op::Identity => acts[inputs[0]]
                    .as_ref()
                    .expect("identity input missing")
                    .clone(),
                Op::Quant { tid } => {
                    let input = acts[inputs[0]].as_ref().expect("quant input missing");
                    let ts = &mut g.thresholds_mut()[tid];
                    if pass == QuantPass::Calibrate && (!ts.calibrated || calibrated_this_pass[tid])
                    {
                        let proposal = calibrate_log2_t(input, ts.init, ts.spec);
                        let v = if calibrated_this_pass[tid] {
                            ts.log2_t().max(proposal)
                        } else {
                            proposal
                        };
                        ts.set_log2_t(v);
                        calibrated_this_pass[tid] = true;
                    }
                    assert!(
                        ts.calibrated,
                        "quantizer {} used before calibration",
                        ts.param.name
                    );
                    quantize(input, ts.log2_t(), ts.spec)
                }
                _ => {
                    // Compute / stateless layer path, with optional weight
                    // quantization.
                    if let Some(tid) = wq {
                        let ts = &g.thresholds()[tid];
                        let (init, spec) = (ts.init, ts.spec);
                        if pass == QuantPass::Calibrate && !ts.calibrated {
                            let v = calibrate_log2_t(&weight_of(g, id).value, init, spec);
                            g.thresholds_mut()[tid].set_log2_t(v);
                        }
                        let ts = &g.thresholds()[tid];
                        assert!(
                            ts.calibrated,
                            "weight quantizer {} used before calibration",
                            ts.param.name
                        );
                        let log2_t = ts.log2_t();
                        let w = weight_of(g, id);
                        let q = quantize(&w.value, log2_t, spec);
                        self.saved_w[id] = Some(std::mem::replace(&mut w.value, q));
                    }
                    let ins: Vec<&Tensor> = inputs
                        .iter()
                        .map(|&i| acts[i].as_ref().expect("op input missing"))
                        .collect();
                    let y =
                        layer_of(&mut g.node_mut(id).op).forward(&ins, mode, &mut self.caches[id]);
                    // In eval-style passes there is no backward to restore
                    // the weights, so restore immediately.
                    if mode == Mode::Eval {
                        if let Some(w_orig) = self.saved_w[id].take() {
                            weight_of(g, id).value = w_orig;
                        }
                    }
                    y
                }
            };
            acts[id] = Some(out);
        }
        let result = acts[out_id].clone().expect("output not computed");
        if mode == Mode::Train {
            self.acts = acts
                .into_iter()
                .map(|a| a.expect("every node computed"))
                .collect();
        } else {
            self.acts.clear();
        }
        result
    }

    /// Backpropagates the loss gradient `dout` (w.r.t. the output node)
    /// through `g`, accumulating all parameter and threshold gradients.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward of `g` preceded this call or
    /// `dout` has the wrong shape.
    pub fn backward(&mut self, g: &mut Graph, dout: &Tensor) {
        let n = g.len();
        assert_eq!(
            self.acts.len(),
            n,
            "backward requires a training-mode forward pass first"
        );
        let out_id = g.output_id();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[out_id] = Some(dout.clone());
        for id in (0..n).rev() {
            let Some(gy) = grads[id].take() else {
                continue;
            };
            let inputs = g.node(id).inputs.clone();
            let input_grads: Vec<Tensor> = match g.node(id).op {
                Op::Input => Vec::new(),
                Op::Identity => vec![gy],
                Op::Quant { tid } => {
                    let x = &self.acts[inputs[0]];
                    let ts = &mut g.thresholds_mut()[tid];
                    let q = quantize_backward(x, ts.log2_t(), ts.spec, &gy);
                    if ts.mode == ThresholdMode::Trained {
                        ts.param.accumulate_scalar(q.dlog2_t);
                    }
                    vec![q.dx]
                }
                _ => {
                    let gs = layer_of(&mut g.node_mut(id).op).backward(&gy, &mut self.caches[id]);
                    // Route the weight gradient through the quantizer STE
                    // and restore full-precision weights.
                    if let Some(tid) = g.node(id).wq.as_ref().map(|wq| wq.tid) {
                        let w_orig = self.saved_w[id].take().expect("saved weights missing");
                        let (log2_t, spec) = {
                            let ts = &g.thresholds()[tid];
                            (ts.log2_t(), ts.spec)
                        };
                        let w = weight_of(g, id);
                        let q = quantize_backward(&w_orig, log2_t, spec, &w.grad);
                        w.grad = q.dx;
                        w.value = w_orig;
                        let ts = &mut g.thresholds_mut()[tid];
                        if ts.mode == ThresholdMode::Trained {
                            ts.param.accumulate_scalar(q.dlog2_t);
                        }
                    }
                    gs
                }
            };
            assert_eq!(
                input_grads.len(),
                inputs.len(),
                "op {} returned wrong number of gradients",
                g.node(id).name
            );
            for (i, gx) in inputs.into_iter().zip(input_grads) {
                match &mut grads[i] {
                    Some(acc) => ops::axpy(acc, 1.0, &gx),
                    slot => *slot = Some(gx),
                }
            }
        }
        self.acts.clear();
    }
}

/// The weight parameter of compute node `id`.
///
/// # Panics
///
/// Panics if the node's op has no weight.
fn weight_of(g: &mut Graph, id: usize) -> &mut tqt_nn::Param {
    op_params_mut(&mut g.node_mut(id).op)
        .into_iter()
        .find(|p| p.kind == ParamKind::Weight)
        .expect("weight quantizer on op without weights")
}

/// The embedded layer of a compute or stateless op.
///
/// # Panics
///
/// Panics on `Input`, `Identity` and `Quant`, which the interpreter
/// handles itself.
fn layer_of(op: &mut Op) -> &mut dyn RefLayer {
    match op {
        Op::Conv(l) => l,
        Op::Depthwise(l) => l,
        Op::Dense(l) => l,
        Op::BatchNorm(l) => l,
        Op::Relu(l) => l,
        Op::MaxPool(l) => l,
        Op::AvgPool(l) => l,
        Op::GlobalAvgPool(l) => l,
        Op::Flatten(l) => l,
        Op::Add(l) => l,
        Op::Concat(l) => l,
        Op::Input | Op::Identity | Op::Quant { .. } => {
            unreachable!("handled by the interpreter")
        }
    }
}
