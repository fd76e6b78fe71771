//! Graph optimizations applied before quantization (Section 4.1):
//! batch-norm folding, identity splicing, concat-of-concat collapsing, and
//! the average-pool → depthwise-convolution transform. Every transform
//! preserves the FP32 semantics of the graph (validated by tests).

use crate::ir::{Graph, NodeId, Op};
use tqt_nn::{DepthwiseConv2d, ParamKind};
use tqt_tensor::Tensor;

impl Graph {
    /// Redirects every consumer of `old` (and the graph output, if it is
    /// `old`) to `new`.
    pub fn rewire(&mut self, old: NodeId, new: NodeId) {
        for n in &mut self.nodes {
            for i in &mut n.inputs {
                if *i == old {
                    *i = new;
                }
            }
        }
        if self.output == Some(old) {
            self.output = Some(new);
        }
    }

    /// Removes nodes that have no consumers and are neither the input nor
    /// the output, remapping ids. Runs to fixpoint.
    pub fn prune_orphans(&mut self) {
        loop {
            let n = self.nodes.len();
            let mut used = vec![false; n];
            for node in &self.nodes {
                for &i in &node.inputs {
                    used[i] = true;
                }
            }
            if let Some(out) = self.output {
                used[out] = true;
            }
            if let Some(inp) = self.input {
                used[inp] = true;
            }
            if used.iter().all(|&u| u) {
                return;
            }
            // Build the id remap and compact.
            let mut remap = vec![usize::MAX; n];
            let mut kept = 0usize;
            for (i, &u) in used.iter().enumerate() {
                if u {
                    remap[i] = kept;
                    kept += 1;
                }
            }
            let old_nodes = std::mem::take(&mut self.nodes);
            for (i, mut node) in old_nodes.into_iter().enumerate() {
                if !used[i] {
                    continue;
                }
                for inp in &mut node.inputs {
                    *inp = remap[*inp];
                }
                self.nodes.push(node);
            }
            self.input = self.input.map(|i| remap[i]);
            self.output = self.output.map(|i| remap[i]);
        }
    }
}

/// Folds every `conv/depthwise/dense → batch_norm` pair into the compute
/// layer's weights and bias, then removes the batch-norm node. Uses the
/// batch norm's *moving* statistics, so the folded graph matches the
/// inference behaviour of the original exactly.
///
/// Returns the number of folds performed.
///
/// # Panics
///
/// Panics if a foldable compute layer has no bias parameter (the model zoo
/// always constructs biased layers).
pub fn fold_batch_norm(g: &mut Graph) -> usize {
    let mut folds = 0;
    loop {
        // Find the next BN whose sole producer is a compute op consumed
        // only by this BN.
        let mut target = None;
        for (id, node) in g.iter() {
            if let Op::BatchNorm(_) = node.op {
                let p = node.inputs[0];
                if g.node(p).op.is_compute() && g.consumers(p).len() == 1 {
                    target = Some((p, id));
                    break;
                }
            }
        }
        let Some((pid, bid)) = target else {
            break;
        };
        // Split borrows: pid < bid always (topological ids).
        let (scale, shift) = match &g.node(bid).op {
            Op::BatchNorm(bn) => bn.fold_params(),
            _ => unreachable!(),
        };
        fold_into_compute(g, pid, &scale, &shift);
        g.rewire(bid, pid);
        g.prune_orphans();
        folds += 1;
    }
    folds
}

/// Applies `w' = w * scale_per_out_channel`, `b' = b * scale + shift` to a
/// compute node.
fn fold_into_compute(g: &mut Graph, pid: NodeId, scale: &Tensor, shift: &Tensor) {
    let node = g.node_mut(pid);
    match &mut node.op {
        Op::Conv(_) | Op::Depthwise(_) => {
            let mut params = crate::ir::op_params_mut(&mut node.op).into_iter();
            let w = params.next().expect("compute op has weight"); // tqt:allow(expect): conv/depthwise ops always carry a weight param
            assert_eq!(w.kind, ParamKind::Weight);
            let out_ch = w.value.dim(0);
            assert_eq!(scale.len(), out_ch, "BN channel mismatch in fold");
            let per = w.value.len() / out_ch;
            for o in 0..out_ch {
                let s = scale.data()[o];
                for v in &mut w.value.data_mut()[o * per..(o + 1) * per] {
                    *v *= s;
                }
            }
            let b = params
                .next()
                .expect("batch-norm folding requires a bias parameter"); // tqt:allow(expect): documented panic; zoo layers are always biased
            assert_eq!(b.kind, ParamKind::Bias);
            for o in 0..out_ch {
                let bv = b.value.data()[o];
                b.value.data_mut()[o] = bv * scale.data()[o] + shift.data()[o];
            }
        }
        Op::Dense(_) => {
            let mut params = crate::ir::op_params_mut(&mut node.op).into_iter();
            let w = params.next().expect("dense has weight"); // tqt:allow(expect): dense ops always carry a weight param
            let (in_dim, out_dim) = (w.value.dim(0), w.value.dim(1));
            assert_eq!(scale.len(), out_dim, "BN channel mismatch in fold");
            for i in 0..in_dim {
                for o in 0..out_dim {
                    w.value.data_mut()[i * out_dim + o] *= scale.data()[o];
                }
            }
            let b = params
                .next()
                .expect("batch-norm folding requires a bias parameter"); // tqt:allow(expect): documented panic; zoo layers are always biased
            for o in 0..out_dim {
                let bv = b.value.data()[o];
                b.value.data_mut()[o] = bv * scale.data()[o] + shift.data()[o];
            }
        }
        _ => panic!("fold target is not a compute op"),
    }
}

/// Splices out every `Identity` node (rewiring consumers to its producer).
/// Returns the number of nodes spliced.
pub fn splice_identities(g: &mut Graph) -> usize {
    let mut spliced = 0;
    let ids: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| matches!(n.op, Op::Identity))
        .map(|(id, _)| id)
        .collect();
    for id in ids {
        let src = g.node(id).inputs[0];
        g.rewire(id, src);
        spliced += 1;
    }
    g.prune_orphans();
    spliced
}

/// Collapses `concat(concat(a, b), c)` into `concat(a, b, c)` when the
/// inner concat has no other consumer. Returns the number of collapses.
pub fn collapse_concat_of_concat(g: &mut Graph) -> usize {
    let mut collapsed = 0;
    loop {
        let mut target = None;
        'outer: for (id, node) in g.iter() {
            if !matches!(node.op, Op::Concat(_)) {
                continue;
            }
            for (pos, &inp) in node.inputs.iter().enumerate() {
                if matches!(g.node(inp).op, Op::Concat(_)) && g.consumers(inp).len() == 1 {
                    target = Some((id, pos, inp));
                    break 'outer;
                }
            }
        }
        let Some((outer, pos, inner)) = target else {
            break;
        };
        let inner_inputs = g.node(inner).inputs.clone();
        let node = g.node_mut(outer);
        node.inputs.splice(pos..=pos, inner_inputs);
        g.prune_orphans();
        collapsed += 1;
    }
    collapsed
}

/// Replaces every average-pool node with a depthwise convolution whose
/// weights are the reciprocal `1/F²` (Section 4.1), so that the pool can be
/// quantized like any other compute layer. Needs the input shape to size
/// the depthwise channels.
///
/// Returns the number of nodes transformed.
pub fn avgpool_to_depthwise(g: &mut Graph, input_dims: &[usize]) -> usize {
    let shapes = g.infer_shapes(input_dims);
    let targets: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| matches!(n.op, Op::AvgPool(_)))
        .map(|(id, _)| id)
        .collect();
    let count = targets.len();
    for id in targets {
        let channels = shapes[g.node(id).inputs[0]][1];
        let (geom, recip) = match &g.node(id).op {
            Op::AvgPool(p) => (p.geom(), p.reciprocal()),
            _ => unreachable!(),
        };
        let w = Tensor::full([channels, 1, geom.kh, geom.kw], recip);
        let name = format!("{}_dwconv", g.node(id).name);
        let dw = DepthwiseConv2d::from_parts(&name, w, None, geom);
        g.node_mut(id).op = Op::Depthwise(dw);
    }
    count
}

/// A named pre-quantization pass with the unified signature the transform
/// invariant checker (`tqt-verify`) drives: every pass takes the graph and
/// the model input dims (passes that do not need dims ignore them) and
/// reports how many rewrites it performed.
pub type Pass = (&'static str, fn(&mut Graph, &[usize]) -> usize);

/// The optimization pipeline as named passes, in the order [`optimize`]
/// applies them. Harnesses that want to re-verify graph invariants after
/// every individual pass (localizing a transform bug to the pass that
/// introduced it) iterate this instead of calling [`optimize`].
pub fn pipeline() -> [Pass; 4] {
    [
        ("splice_identities", |g, _| splice_identities(g)),
        ("collapse_concat_of_concat", |g, _| collapse_concat_of_concat(g)),
        ("fold_batch_norm", |g, _| fold_batch_norm(g)),
        ("avgpool_to_depthwise", avgpool_to_depthwise),
    ]
}

/// Runs the full pre-quantization optimization pipeline:
/// identity splicing, concat collapsing, batch-norm folding, and
/// avgpool → depthwise conversion.
pub fn optimize(g: &mut Graph, input_dims: &[usize]) {
    for (_, pass) in pipeline() {
        pass(g, input_dims);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_nn::{AvgPool2d, BatchNorm, Concat, Conv2d, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::{init, Tensor};

    fn conv_bn_relu() -> (Graph, Tensor) {
        let mut rng = init::rng(60);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 2, 3, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let mut bn = BatchNorm::new("bn", 3, 0.9, 1e-5);
        bn.set_running_stats(
            init::uniform([3], -0.5, 0.5, &mut rng),
            init::uniform([3], 0.5, 2.0, &mut rng),
        );
        use tqt_nn::Layer;
        bn.params_mut()[0].value = init::uniform([3], 0.5, 1.5, &mut rng);
        bn.params_mut()[1].value = init::uniform([3], -0.3, 0.3, &mut rng);
        let b = g.add("bn", Op::BatchNorm(bn), &[c]);
        let r = g.add("relu", Op::Relu(Relu::new()), &[b]);
        g.set_output(r);
        let input = init::normal([2, 2, 5, 5], 0.0, 1.0, &mut rng);
        (g, input)
    }

    #[test]
    fn bn_fold_preserves_inference() {
        let (mut g, x) = conv_bn_relu();
        let before = g.infer(&x);
        let folds = fold_batch_norm(&mut g);
        assert_eq!(folds, 1);
        assert!(g.find("bn").is_none(), "bn node should be removed");
        let after = g.infer(&x);
        before.assert_close(&after, 1e-4);
    }

    #[test]
    fn identity_splice_preserves_semantics() {
        let mut rng = init::rng(61);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let i1 = g.add("id1", Op::Identity, &[x]);
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[i1],
        );
        let i2 = g.add("id2", Op::Identity, &[c]);
        g.set_output(i2);
        let input = init::normal([1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let before = g.infer(&input);
        assert_eq!(splice_identities(&mut g), 2);
        assert_eq!(g.len(), 2);
        let after = g.infer(&input);
        before.assert_close(&after, 0.0);
    }

    #[test]
    fn concat_collapse_preserves_semantics() {
        let mut g = Graph::new();
        let x = g.add_input("input");
        let a = g.add("ra", Op::Relu(Relu::new()), &[x]);
        let b = g.add("rb", Op::Relu(Relu::leaky(0.5)), &[x]);
        let c = g.add("rc", Op::Relu(Relu::relu6()), &[x]);
        let inner = g.add("cat_inner", Op::Concat(Concat::new()), &[a, b]);
        let outer = g.add("cat_outer", Op::Concat(Concat::new()), &[inner, c]);
        g.set_output(outer);
        let mut rng = init::rng(62);
        let input = init::normal([2, 2, 3, 3], 0.0, 2.0, &mut rng);
        let before = g.infer(&input);
        assert_eq!(collapse_concat_of_concat(&mut g), 1);
        assert!(g.find("cat_inner").is_none());
        assert_eq!(g.node(g.find("cat_outer").unwrap()).inputs.len(), 3);
        let after = g.infer(&input);
        before.assert_close(&after, 0.0);
    }

    #[test]
    fn avgpool_transform_preserves_semantics() {
        let mut g = Graph::new();
        let x = g.add_input("input");
        let p = g.add(
            "pool",
            Op::AvgPool(AvgPool2d::new(Conv2dGeom::new(2, 2, 0))),
            &[x],
        );
        g.set_output(p);
        let mut rng = init::rng(63);
        let input = init::normal([2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let before = g.infer(&input);
        assert_eq!(avgpool_to_depthwise(&mut g, &[1, 3, 4, 4]), 1);
        assert!(matches!(g.node(g.find("pool").unwrap()).op, Op::Depthwise(_)));
        let after = g.infer(&input);
        before.assert_close(&after, 1e-5);
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let (mut g, x) = conv_bn_relu();
        let before = g.infer(&x);
        optimize(&mut g, &[1, 2, 5, 5]);
        let after = g.infer(&x);
        before.assert_close(&after, 1e-4);
    }

    #[test]
    fn bn_not_folded_when_producer_has_fanout() {
        // conv feeds both BN and a second consumer: folding would corrupt
        // the second path, so it must be skipped.
        let mut rng = init::rng(64);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let bn = g.add("bn", Op::BatchNorm(BatchNorm::new("bn", 2, 0.9, 1e-5)), &[c]);
        let add = g.add("add", Op::Add(tqt_nn::EltwiseAdd::new()), &[bn, c]);
        g.set_output(add);
        assert_eq!(fold_batch_norm(&mut g), 0);
        assert!(g.find("bn").is_some());
    }
}
