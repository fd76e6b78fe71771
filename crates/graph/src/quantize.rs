//! The automatic quantization pass (Section 4.3): attaches weight
//! quantizers to compute layers and inserts activation quantization nodes
//! with the paper's layer-topology rules:
//!
//! * compute layers quantize their output *after* a directly-following
//!   ReLU/ReLU6 (using an unsigned quantizer to exploit the spare sign
//!   bit);
//! * eltwise-add inputs share one merged scale (`q'8(x) + q'8(y)`), as do
//!   concat inputs (concat is then lossless and gets no output quantizer);
//! * the primary input is explicitly quantized; everything else assumes
//!   already-quantized inputs to avoid double quantization;
//! * leaky-ReLU outputs are quantized signed (they carry negative values);
//!   the 16-bit internal α-multiply precision of the paper's fixed-point
//!   topology is modeled in the integer lowering, not the training graph.
//!
//! Modes: `ThresholdMode::Trained` produces the TQT retrain graph,
//! `ThresholdMode::Fixed` the static / wt-only graph.

use crate::ir::{Graph, NodeId, Op, ThresholdMode, ThresholdState, WeightQuant};
use tqt_quant::calib::ThresholdInit;
use tqt_quant::QuantSpec;

/// Weight precision: the paper's INT8 (8/8 W/A) or INT4 (4/8 W/A) modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightBits {
    /// 8-bit weights.
    Int8,
    /// 4-bit weights (activations stay 8-bit).
    Int4,
    /// 16-bit weights (high-precision mode; activations stay 8-bit). Not a
    /// paper configuration, but exercised by the static verifier to prove
    /// accumulator headroom at the widest supported weight grid.
    Int16,
}

impl WeightBits {
    fn spec(self) -> QuantSpec {
        match self {
            WeightBits::Int8 => QuantSpec::INT8,
            WeightBits::Int4 => QuantSpec::INT4,
            WeightBits::Int16 => QuantSpec::INT16,
        }
    }

    /// The weight bit-width.
    pub fn bits(self) -> u32 {
        self.spec().bits()
    }

    /// Parses `4`, `8` or `16`.
    pub fn parse(s: &str) -> Option<WeightBits> {
        match s.trim() {
            "4" => Some(WeightBits::Int4),
            "8" => Some(WeightBits::Int8),
            "16" => Some(WeightBits::Int16),
            _ => None,
        }
    }

    /// Every supported weight bit-width, narrowest first.
    pub fn all() -> &'static [WeightBits] {
        &[WeightBits::Int4, WeightBits::Int8, WeightBits::Int16]
    }
}

/// Configuration of the quantization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizeOptions {
    /// Weight bit-width (activations are always 8-bit, per the paper).
    pub weight_bits: WeightBits,
    /// Whether thresholds are trainable (TQT) or fixed after calibration.
    pub mode: ThresholdMode,
    /// Weight-threshold initialization (Table 2: MAX for static/wt-only,
    /// 3SD for wt+th).
    pub weight_init: ThresholdInit,
    /// Activation-threshold initialization (Table 2: KL-J).
    pub act_init: ThresholdInit,
    /// Whether eltwise-add/concat operand scales are tied to one shared
    /// threshold (the paper's §4.3 rule; the default). When `false` each
    /// operand keeps its own grid, producing the unmerged graphs that the
    /// `rebalance` pass in `tqt-fixedpoint` repairs after lowering.
    pub merge_scales: bool,
}

impl QuantizeOptions {
    /// Static-mode INT8 options (Table 2, row "Static").
    pub fn static_int8() -> Self {
        QuantizeOptions {
            weight_bits: WeightBits::Int8,
            mode: ThresholdMode::Fixed,
            weight_init: ThresholdInit::Max,
            act_init: ThresholdInit::KlJ,
            merge_scales: true,
        }
    }

    /// Weight-only retraining options (thresholds fixed, MAX weight init).
    pub fn retrain_wt_int8() -> Self {
        QuantizeOptions {
            weight_bits: WeightBits::Int8,
            mode: ThresholdMode::Fixed,
            weight_init: ThresholdInit::Max,
            act_init: ThresholdInit::KlJ,
            merge_scales: true,
        }
    }

    /// TQT weight+threshold retraining options (Table 2, row "wt,th").
    pub fn retrain_wt_th(bits: WeightBits) -> Self {
        QuantizeOptions {
            weight_bits: bits,
            mode: ThresholdMode::Trained,
            weight_init: ThresholdInit::THREE_SD,
            act_init: ThresholdInit::KlJ,
            merge_scales: true,
        }
    }

    /// Disables scale merging at add/concat operands: each site keeps its
    /// own threshold, so the lowered graph needs the `rebalance` pass in
    /// `tqt-fixedpoint` before it is executable (the `TQT-V028` gap the
    /// grid type system refutes).
    pub fn unmerged(mut self) -> Self {
        self.merge_scales = false;
        self
    }
}

/// Union-find over quantization sites, used to merge scales across
/// eltwise-add and concat inputs.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        // Iterative with full path compression: site chains on large zoo
        // graphs can get deep, and the recursive form grows the stack
        // linearly with chain length.
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger to the smaller so group ids are stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Per-node plan computed in phase A of the pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SitePlan {
    /// Quantize this node's output.
    quantize_output: bool,
    /// Use an unsigned quantizer (post-ReLU sites).
    unsigned: bool,
}

/// Applies the quantization pass in place. The graph must already be
/// optimized (batch norms folded — the pass refuses BN nodes). Thresholds
/// are left uncalibrated; run [`Graph::calibrate`] with a calibration batch
/// afterwards.
///
/// # Panics
///
/// Panics if the graph still contains batch-norm nodes or has no output.
pub fn quantize_graph(g: &mut Graph, opts: QuantizeOptions) {
    assert!(
        !g.iter().any(|(_, n)| matches!(n.op, Op::BatchNorm(_))),
        "fold batch norms before quantizing (run transforms::optimize)"
    );
    let n = g.len();
    let out_id = g.output_id();

    // ---- Phase A: plan sites. -------------------------------------------
    let mut plan: Vec<SitePlan> = vec![
        SitePlan {
            quantize_output: false,
            unsigned: false,
        };
        n
    ];
    let mut uf = UnionFind::new(n);

    for id in 0..n {
        let node = g.node(id);
        match &node.op {
            Op::Input => {
                plan[id].quantize_output = true; // explicit input quant
            }
            Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_) | Op::GlobalAvgPool(_) => {
                // Quantize the output, delayed past a directly-following
                // (sole-consumer) ReLU.
                let consumers = g.consumers(id);
                let delay_to = if consumers.len() == 1 {
                    match &g.node(consumers[0]).op {
                        Op::Relu(r) => Some((consumers[0], r.negative_slope() == 0.0)), // tqt:allow(float-eq): 0.0 is the exact non-leaky sentinel
                        _ => None,
                    }
                } else {
                    None
                };
                match delay_to {
                    Some((relu_id, unsigned)) => {
                        plan[relu_id].quantize_output = true;
                        plan[relu_id].unsigned = unsigned;
                    }
                    None => {
                        plan[id].quantize_output = true;
                    }
                }
            }
            Op::Add(_) | Op::Concat(_) => {
                // Inputs must share one scale: union the producers' sites.
                // Producers that have no quantized site yet (e.g. maxpool
                // passing through an already-quantized tensor) are traced
                // back to the nearest quantized site.
                let sites: Vec<NodeId> = node
                    .inputs
                    .iter()
                    .map(|&i| trace_site(g, &plan, i))
                    .collect();
                if opts.merge_scales {
                    for w in sites.windows(2) {
                        uf.union(w[0], w[1]);
                    }
                }
                if matches!(node.op, Op::Add(_)) {
                    // Add produces a new distribution: quantize its output
                    // (delayed past ReLU like compute layers).
                    let consumers = g.consumers(id);
                    let delay_to = if consumers.len() == 1 {
                        match &g.node(consumers[0]).op {
                            Op::Relu(r) => Some((consumers[0], r.negative_slope() == 0.0)), // tqt:allow(float-eq): 0.0 is the exact non-leaky sentinel
                            _ => None,
                        }
                    } else {
                        None
                    };
                    match delay_to {
                        Some((relu_id, unsigned)) => {
                            plan[relu_id].quantize_output = true;
                            plan[relu_id].unsigned = unsigned;
                        }
                        None => plan[id].quantize_output = true,
                    }
                }
                // Concat is lossless with merged input scales: no output
                // quantizer.
            }
            // MaxPool, Flatten, Identity, Relu (handled via delay), Quant:
            // scale-preserving or handled elsewhere.
            _ => {}
        }
    }

    // A site that is both a standalone ReLU output and a shared group
    // member keeps its plan; signedness of a shared group is resolved
    // conservatively below (any signed member makes the group signed).

    // ---- Phase B: materialize. ------------------------------------------
    // One ThresholdState per union-find group root among quantized sites.
    let mut group_tid: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let sites: Vec<NodeId> = (0..n).filter(|&i| plan[i].quantize_output).collect();
    // Resolve group signedness.
    let mut group_unsigned: std::collections::HashMap<usize, bool> =
        std::collections::HashMap::new();
    for &s in &sites {
        let root = uf.find(s);
        let e = group_unsigned.entry(root).or_insert(true);
        *e &= plan[s].unsigned;
    }

    for &s in &sites {
        let root = uf.find(s);
        let tid = *group_tid.entry(root).or_insert_with(|| {
            let unsigned = group_unsigned[&root];
            let spec = if unsigned {
                QuantSpec::UINT8
            } else {
                QuantSpec::INT8
            };
            g.add_threshold(ThresholdState::new(
                format!("{}/act_q", g.node(root).name),
                spec,
                opts.act_init,
                opts.mode,
            ))
        });
        insert_quant_after(g, s, tid);
    }

    // Leaky ReLU internal precision: the paper computes
    // `q8(max(q'16(x), q16(α)·q'16(x)))` — the compute output entering a
    // leaky ReLU passes through a 16-bit quantizer so the α-multiply
    // operates on a bounded-precision grid. Insert an INT16 quant on every
    // compute → leaky edge (fixed MAX-calibrated threshold; its range is
    // generous enough that training it is pointless).
    let leaky_edges: Vec<(NodeId, NodeId)> = g
        .iter()
        .filter_map(|(id, n)| match &n.op {
            Op::Relu(r) if r.negative_slope() > 0.0 => {
                let p = n.inputs[0];
                if g.node(p).op.is_compute() {
                    Some((p, id))
                } else {
                    None
                }
            }
            _ => None,
        })
        .collect();
    for (producer, relu) in leaky_edges {
        let tid = g.add_threshold(ThresholdState::new(
            format!("{}/acc_q16", g.node(producer).name),
            QuantSpec::INT16,
            ThresholdInit::Max,
            ThresholdMode::Fixed,
        ));
        let name = format!("{}/q16", g.node(producer).name);
        let q = g.add(name, Op::Quant { tid }, &[producer]);
        for i in &mut g.node_mut(relu).inputs {
            if *i == producer {
                *i = q;
            }
        }
    }

    // Weight quantizers on every compute node.
    let compute_ids: Vec<NodeId> = g
        .iter()
        .filter(|(_, nd)| nd.op.is_compute())
        .map(|(id, _)| id)
        .collect();
    for id in compute_ids {
        let name = format!("{}/wt_q", g.node(id).name);
        let tid = g.add_threshold(ThresholdState::new(
            name,
            opts.weight_bits.spec(),
            opts.weight_init,
            opts.mode,
        ));
        g.node_mut(id).wq = Some(WeightQuant::new(tid));
    }

    g.toposort();
    let _ = out_id;
}

/// Walks backwards through scale-preserving ops to the node whose output
/// site carries the quantized scale feeding `id`.
fn trace_site(g: &Graph, plan: &[SitePlan], mut id: NodeId) -> NodeId {
    loop {
        if plan[id].quantize_output {
            return id;
        }
        let node = g.node(id);
        match &node.op {
            Op::MaxPool(_) | Op::Flatten(_) | Op::Identity | Op::Relu(_) => {
                id = node.inputs[0];
            }
            _ => return id,
        }
    }
}

/// Inserts a `Quant` node between `x` and all of `x`'s current consumers.
fn insert_quant_after(g: &mut Graph, x: NodeId, tid: usize) -> NodeId {
    let consumers = g.consumers(x);
    let name = format!("{}/q", g.node(x).name);
    let q = g.add(name, Op::Quant { tid }, &[x]);
    for c in consumers {
        for i in &mut g.node_mut(c).inputs {
            if *i == x {
                *i = q;
            }
        }
    }
    if g.output_id() == x {
        g.set_output(q);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_nn::{Concat, Conv2d, Dense, EltwiseAdd, GlobalAvgPool, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn build_residual_net() -> Graph {
        let mut rng = init::rng(70);
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
        let r2 = g.add("relu2", Op::Relu(Relu::new()), &[add]);
        let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[r2]);
        let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
        g.set_output(fc);
        g
    }

    #[test]
    fn pass_inserts_quant_nodes_and_weight_quantizers() {
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let n_quant = g.iter().filter(|(_, n)| matches!(n.op, Op::Quant { .. })).count();
        assert!(n_quant >= 4, "expected several quant nodes, got {n_quant}");
        let n_wq = g.iter().filter(|(_, n)| n.wq.is_some()).count();
        assert_eq!(n_wq, 3, "conv1, conv2 and fc should have weight quantizers");
        // Topological invariant restored.
        for (id, n) in g.iter() {
            for &i in &n.inputs {
                assert!(i < id, "node {} not topologically ordered", n.name);
            }
        }
    }

    #[test]
    fn relu_delay_uses_unsigned() {
        // Straight chain: conv -> relu -> gap -> fc. The post-relu scale is
        // not shared with any signed site, so it must be unsigned.
        let mut rng = init::rng(75);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r = g.add("relu", Op::Relu(Relu::new()), &[c]);
        let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[r]);
        let fc = g.add("fc", Op::Dense(Dense::new("fc", 2, 3, &mut rng)), &[gap]);
        g.set_output(fc);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let r = g.find("relu").unwrap();
        let q = g
            .consumers(r)
            .into_iter()
            .find(|&c| matches!(g.node(c).op, Op::Quant { .. }))
            .expect("relu should feed a quant node");
        if let Op::Quant { tid } = g.node(q).op {
            assert!(
                !g.thresholds()[tid].spec.signed(),
                "post-relu quant must be unsigned"
            );
        }
        // And there is no quant directly between conv and relu.
        let conv = g.find("conv").unwrap();
        assert_eq!(g.consumers(conv), vec![r], "quant must be delayed past relu");
    }

    #[test]
    fn shared_group_with_signed_member_becomes_signed() {
        // In the residual net, relu1's scale is merged (through the
        // eltwise-add) with conv2's signed output, so the shared quantizer
        // must be signed even though relu1's own output is non-negative.
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let add = g.find("add").unwrap();
        for &i in &g.node(add).inputs {
            if let Op::Quant { tid } = g.node(i).op {
                assert!(
                    g.thresholds()[tid].spec.signed(),
                    "merged add-input scale must be signed"
                );
            }
        }
    }

    #[test]
    fn add_inputs_share_scale() {
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let add = g.find("add").unwrap();
        let tids: Vec<usize> = g
            .node(add)
            .inputs
            .iter()
            .map(|&i| match g.node(i).op {
                Op::Quant { tid } => tid,
                _ => panic!("add input {} is not a quant node", g.node(i).name),
            })
            .collect();
        assert_eq!(tids[0], tids[1], "eltwise-add input scales must be merged");
    }

    #[test]
    fn unmerged_mode_keeps_separate_add_input_scales() {
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::static_int8().unmerged());
        let add = g.find("add").unwrap();
        let tids: Vec<usize> = g
            .node(add)
            .inputs
            .iter()
            .map(|&i| match g.node(i).op {
                Op::Quant { tid } => tid,
                _ => panic!("add input {} is not a quant node", g.node(i).name),
            })
            .collect();
        assert_ne!(
            tids[0], tids[1],
            "unmerged mode must leave each add operand on its own threshold"
        );
    }

    #[test]
    fn concat_inputs_share_scale_and_no_output_quant() {
        let mut rng = init::rng(71);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let a = g.add(
            "conv_a",
            Op::Conv(Conv2d::new("conv_a", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let b = g.add(
            "conv_b",
            Op::Conv(Conv2d::new("conv_b", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let cat = g.add("cat", Op::Concat(Concat::new()), &[a, b]);
        g.set_output(cat);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let cat = g.find("cat").unwrap();
        let tids: Vec<usize> = g
            .node(cat)
            .inputs
            .iter()
            .map(|&i| match g.node(i).op {
                Op::Quant { tid } => tid,
                _ => panic!("concat input is not quantized"),
            })
            .collect();
        assert_eq!(tids[0], tids[1], "concat input scales must be merged");
        // No quant after the concat itself.
        assert!(
            g.consumers(cat).is_empty(),
            "concat output should be the graph output with no extra quant"
        );
    }

    #[test]
    fn quantized_graph_runs_and_is_close_to_float() {
        let mut rng = init::rng(72);
        let mut gq = build_residual_net();
        let mut gf = build_residual_net(); // identical seeds => same weights
        let x = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
        let yf = gf.infer(&x);
        quantize_graph(&mut gq, QuantizeOptions::static_int8());
        gq.calibrate(&x);
        let yq = gq.infer(&x);
        assert_eq!(yf.dims(), yq.dims());
        let err = yf.max_abs_diff(&yq);
        let scale = yf.abs_max().max(1e-6);
        assert!(
            err / scale < 0.25,
            "INT8 output should approximate FP32: rel err {}",
            err / scale
        );
    }

    #[test]
    fn trained_mode_produces_trainable_thresholds() {
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        assert!(g
            .thresholds()
            .iter()
            .all(|t| t.param.trainable && t.mode == ThresholdMode::Trained));
        let mut g2 = build_residual_net();
        quantize_graph(&mut g2, QuantizeOptions::static_int8());
        assert!(g2
            .thresholds()
            .iter()
            .all(|t| !t.param.trainable && t.mode == ThresholdMode::Fixed));
    }

    #[test]
    fn int4_weights_int8_activations() {
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int4));
        for (_, n) in g.iter() {
            if let Some(wq) = &n.wq {
                assert_eq!(g.thresholds()[wq.tid].spec.bits(), 4);
            }
            if let Op::Quant { tid } = n.op {
                assert_eq!(g.thresholds()[tid].spec.bits(), 8);
            }
        }
    }

    #[test]
    fn end_to_end_quantized_training_step_reduces_loss() {
        use crate::fexec::{build_arena, sync_thresholds_from_arena, sync_thresholds_to_arena};
        use crate::{FloatExecutor, FloatPlan};
        use tqt_nn::loss::softmax_cross_entropy;
        use tqt_nn::{ParamKind, PooledAdam};
        let mut g = build_residual_net();
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(73);
        let x = init::normal([8, 2, 8, 8], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        g.calibrate(&x);
        let mut arena = build_arena(&mut g);
        let mut ex = FloatExecutor::new(FloatPlan::new(&mut g, x.dims()), &g);
        let mut opt = PooledAdam::paper(1e-2, &arena);
        let all = [ParamKind::Weight, ParamKind::Bias, ParamKind::BatchNorm, ParamKind::Threshold];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let logits = ex.forward(&mut g, &arena, &x);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &labels);
            first.get_or_insert(loss);
            last = loss;
            g.zero_grads();
            arena.zero_grads();
            ex.backward(&mut g, &mut arena, &dlogits);
            sync_thresholds_to_arena(&g, &mut arena);
            opt.step(&mut arena, &all);
            sync_thresholds_from_arena(&mut g, &arena);
        }
        assert!(
            last < first.unwrap() * 0.9,
            "quantized training should reduce loss: {first:?} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "fold batch norms")]
    fn refuses_unfolded_batchnorm() {
        let mut rng = init::rng(74);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let b = g.add(
            "bn",
            Op::BatchNorm(tqt_nn::BatchNorm::new("bn", 2, 0.9, 1e-5)),
            &[c],
        );
        g.set_output(b);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
    }
}
