//! Graph intermediate representation: nodes are concrete layer ops (an enum,
//! so transforms can pattern-match), edges are tensor data flow, and
//! quantizer thresholds live in a side table so scale-sharing ops (concat,
//! eltwise-add) can reference one threshold from several quant nodes —
//! the paper's "explicitly merged / shared" `q'` scales (Section 4.3).

use tqt_nn::{
    AvgPool2d, BatchNorm, Concat, Conv2d, Dense, DepthwiseConv2d, EltwiseAdd, Flatten,
    GlobalAvgPool, MaxPool2d, Param, ParamKind, Relu,
};
use tqt_quant::calib::ThresholdInit;
use tqt_quant::QuantSpec;
use tqt_tensor::Tensor;

/// Identifier of a node within a [`Graph`].
pub type NodeId = usize;

/// Identifier of a threshold state in the graph's side table.
pub type ThresholdId = usize;

/// A concrete operation. Compute ops embed their `tqt-nn` layer; `Quant` is
/// an activation-quantization op referencing a shared threshold.
#[derive(Debug)]
pub enum Op {
    /// Graph input placeholder.
    Input,
    /// Identity passthrough (splice target for optimizations).
    Identity,
    /// Standard convolution.
    Conv(Conv2d),
    /// Depthwise convolution.
    Depthwise(DepthwiseConv2d),
    /// Fully-connected layer.
    Dense(Dense),
    /// Batch normalization.
    BatchNorm(BatchNorm),
    /// ReLU / ReLU6 / leaky ReLU.
    Relu(Relu),
    /// Max pooling.
    MaxPool(MaxPool2d),
    /// Average pooling.
    AvgPool(AvgPool2d),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPool),
    /// Flatten to `[N, features]`.
    Flatten(Flatten),
    /// Elementwise addition (2 inputs).
    Add(EltwiseAdd),
    /// Channel concatenation (≥2 inputs).
    Concat(Concat),
    /// Activation quantization using threshold `tid` from the side table.
    Quant {
        /// Which threshold state this quant op reads/trains.
        tid: ThresholdId,
    },
}

impl Op {
    /// Short operation name for diagnostics and pattern matching.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Identity => "identity",
            Op::Conv(_) => "conv2d",
            Op::Depthwise(_) => "depthwise_conv2d",
            Op::Dense(_) => "dense",
            Op::BatchNorm(_) => "batch_norm",
            Op::Relu(r) => {
                use tqt_nn::Layer;
                r.op_name()
            }
            Op::MaxPool(_) => "max_pool",
            Op::AvgPool(_) => "avg_pool",
            Op::GlobalAvgPool(_) => "global_avg_pool",
            Op::Flatten(_) => "flatten",
            Op::Add(_) => "eltwise_add",
            Op::Concat(_) => "concat",
            Op::Quant { .. } => "quant",
        }
    }

    /// Whether this is a compute op that owns a weight tensor (and can have
    /// a weight quantizer attached).
    pub fn is_compute(&self) -> bool {
        matches!(self, Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_))
    }
}

/// How a quantizer's threshold behaves during training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMode {
    /// Trained by backpropagation (TQT retrain mode).
    Trained,
    /// Fixed after calibration (static mode / wt-only retraining).
    Fixed,
}

/// A quantization threshold: the scalar `log2 t` parameter plus its
/// quantizer spec and calibration scheme.
#[derive(Debug)]
pub struct ThresholdState {
    /// The trainable `log2 t` (scalar parameter, kind
    /// [`ParamKind::Threshold`]).
    pub param: Param,
    /// Bit-width / signedness of the quantizer using this threshold.
    pub spec: QuantSpec,
    /// Calibration scheme used on the first calibration pass.
    pub init: ThresholdInit,
    /// Trained or fixed.
    pub mode: ThresholdMode,
    /// Whether calibration has produced a value yet.
    pub calibrated: bool,
}

impl ThresholdState {
    /// Creates an uncalibrated threshold.
    pub fn new(name: impl Into<String>, spec: QuantSpec, init: ThresholdInit, mode: ThresholdMode) -> Self {
        let mut param = Param::new(name, Tensor::scalar(0.0), ParamKind::Threshold);
        param.trainable = mode == ThresholdMode::Trained;
        ThresholdState {
            param,
            spec,
            init,
            mode,
            calibrated: false,
        }
    }

    /// Current `log2 t`.
    pub fn log2_t(&self) -> f32 {
        self.param.scalar()
    }

    /// Sets the threshold value and marks it calibrated.
    pub fn set_log2_t(&mut self, v: f32) {
        self.param.value = Tensor::scalar(v);
        self.calibrated = true;
    }
}

/// A weight quantizer attached to a compute node.
#[derive(Debug)]
pub struct WeightQuant {
    /// Threshold id in the graph's side table.
    pub tid: ThresholdId,
}

impl WeightQuant {
    /// Creates a weight quantizer referencing `tid`. Used by harnesses that
    /// assemble (possibly deliberately malformed) graphs by hand; the normal
    /// path is `quantize_graph`.
    pub fn new(tid: ThresholdId) -> Self {
        WeightQuant { tid }
    }
}

/// A graph node: an op plus its input edges and optional weight quantizer.
#[derive(Debug)]
pub struct Node {
    /// Unique name (doubles as the parameter-name prefix).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Producer nodes, in input order.
    pub inputs: Vec<NodeId>,
    /// Weight quantizer (compute nodes in quantized graphs only).
    pub wq: Option<WeightQuant>,
}

/// A dataflow graph of layers. Node ids are topologically ordered by
/// construction (a node's inputs always have smaller ids).
#[derive(Debug, Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) thresholds: Vec<ThresholdState>,
    pub(crate) input: Option<NodeId>,
    pub(crate) output: Option<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds the input placeholder. Exactly one input is supported.
    ///
    /// # Panics
    ///
    /// Panics if an input already exists.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        assert!(self.input.is_none(), "graph already has an input");
        let id = self.push(name.into(), Op::Input, Vec::new());
        self.input = Some(id);
        id
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if any input id is out of range (inputs must already exist,
    /// which keeps ids topologically ordered) or the name duplicates an
    /// existing node.
    pub fn add(&mut self, name: impl Into<String>, op: Op, inputs: &[NodeId]) -> NodeId {
        let name = name.into();
        for &i in inputs {
            assert!(i < self.nodes.len(), "input node {i} does not exist");
        }
        assert!(
            self.nodes.iter().all(|n| n.name != name),
            "duplicate node name {name}"
        );
        self.push(name, op, inputs.to_vec())
    }

    fn push(&mut self, name: String, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            op,
            inputs,
            wq: None,
        });
        id
    }

    /// Marks the graph output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "output node {id} does not exist");
        self.output = Some(id);
    }

    /// The input node id.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input.
    pub fn input_id(&self) -> NodeId {
        self.input.expect("graph has no input") // tqt:allow(expect): documented panic; try_input_id is the checked twin
    }

    /// The output node id.
    ///
    /// # Panics
    ///
    /// Panics if no output was set.
    pub fn output_id(&self) -> NodeId {
        self.output.expect("graph has no output") // tqt:allow(expect): documented panic; try_output_id is the checked twin
    }

    /// The input node id, or `None` for a graph without an input
    /// placeholder. Non-panicking variant for analyses that must diagnose
    /// malformed graphs rather than crash on them.
    pub fn try_input_id(&self) -> Option<NodeId> {
        self.input
    }

    /// The output node id, or `None` if no output was set.
    pub fn try_output_id(&self) -> Option<NodeId> {
        self.output
    }

    /// Number of nodes (including spliced-out identities until compaction).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Iterates nodes in topological (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate()
    }

    /// Finds a node id by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Ids of the nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Registers a threshold state, returning its id.
    pub fn add_threshold(&mut self, state: ThresholdState) -> ThresholdId {
        self.thresholds.push(state);
        self.thresholds.len() - 1
    }

    /// The threshold side table.
    pub fn thresholds(&self) -> &[ThresholdState] {
        &self.thresholds
    }

    /// Mutable threshold side table.
    pub fn thresholds_mut(&mut self) -> &mut [ThresholdState] {
        &mut self.thresholds
    }

    /// All trainable parameters: layer parameters in topological order
    /// followed by threshold parameters. Ordering is deterministic, and
    /// names are unique across the graph.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::new();
        for n in &mut self.nodes {
            out.extend(op_params_mut(&mut n.op));
        }
        for t in &mut self.thresholds {
            out.push(&mut t.param);
        }
        out
    }

    /// Zeroes every parameter gradient (layers and thresholds).
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Restores the invariant that node ids are topologically ordered
    /// (a node's inputs have smaller ids), preserving the relative order of
    /// independent nodes. Passes that insert nodes after existing ones
    /// (e.g. the quantization pass) call this before execution.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn toposort(&mut self) {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, node) in self.nodes.iter().enumerate() {
            indeg[id] = node.inputs.len();
            for &i in &node.inputs {
                consumers[i].push(id);
            }
        }
        // Stable Kahn: a min-heap over original ids keeps deterministic
        // output order.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(id)) = ready.pop() {
            order.push(id);
            for &c in &consumers[id] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(std::cmp::Reverse(c));
                }
            }
        }
        assert_eq!(order.len(), n, "graph contains a cycle");
        let mut remap = vec![0usize; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            remap[old_id] = new_id;
        }
        let mut slots: Vec<Option<Node>> =
            std::mem::take(&mut self.nodes).into_iter().map(Some).collect();
        self.nodes = order
            .iter()
            .map(|&old| {
                let mut node = slots[old].take().expect("node moved twice"); // tqt:allow(expect): the topo order is a permutation, each slot taken once
                for i in &mut node.inputs {
                    *i = remap[*i];
                }
                node
            })
            .collect();
        self.input = self.input.map(|i| remap[i]);
        self.output = self.output.map(|i| remap[i]);
    }

    /// Total number of scalar parameters in compute layers (for reporting).
    pub fn num_weights(&mut self) -> usize {
        let mut n = 0;
        for nd in &mut self.nodes {
            for p in op_params_mut(&mut nd.op) {
                if p.kind == ParamKind::Weight || p.kind == ParamKind::Bias {
                    n += p.value.len();
                }
            }
        }
        n
    }
}

/// The trainable parameters of an op (empty for stateless ops).
pub fn op_params_mut(op: &mut Op) -> Vec<&mut Param> {
    use tqt_nn::Layer;
    match op {
        Op::Conv(l) => l.params_mut(),
        Op::Depthwise(l) => l.params_mut(),
        Op::Dense(l) => l.params_mut(),
        Op::BatchNorm(l) => l.params_mut(),
        _ => Vec::new(),
    }
}

/// Immutable view of an op's trainable parameters (empty for stateless
/// ops). Static analyses use this to read weight dims without taking a
/// mutable borrow of the graph.
pub fn op_params(op: &Op) -> Vec<&Param> {
    use tqt_nn::Layer;
    match op {
        Op::Conv(l) => l.params(),
        Op::Depthwise(l) => l.params(),
        Op::Dense(l) => l.params(),
        Op::BatchNorm(l) => l.params(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_tensor::init;

    fn tiny_graph() -> Graph {
        let mut rng = init::rng(1);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv1",
            Op::Conv(Conv2d::new(
                "conv1",
                3,
                4,
                tqt_tensor::conv::Conv2dGeom::same(3),
                &mut rng,
            )),
            &[x],
        );
        let r = g.add("relu1", Op::Relu(Relu::new()), &[c]);
        g.set_output(r);
        g
    }

    #[test]
    fn topological_ids() {
        let g = tiny_graph();
        for (id, n) in g.iter() {
            for &i in &n.inputs {
                assert!(i < id, "node {id} depends on later node {i}");
            }
        }
    }

    #[test]
    fn consumers_and_find() {
        let g = tiny_graph();
        let c = g.find("conv1").unwrap();
        assert_eq!(g.consumers(c), vec![g.find("relu1").unwrap()]);
        assert!(g.find("missing").is_none());
    }

    #[test]
    fn params_include_thresholds() {
        let mut g = tiny_graph();
        let before = g.params_mut().len();
        g.add_threshold(ThresholdState::new(
            "t0",
            QuantSpec::INT8,
            ThresholdInit::Max,
            ThresholdMode::Trained,
        ));
        assert_eq!(g.params_mut().len(), before + 1);
    }

    #[test]
    fn unique_param_names() {
        let mut g = tiny_graph();
        let names: Vec<String> = g.params_mut().iter().map(|p| p.name.clone()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate parameter names");
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn rejects_duplicate_names() {
        let mut g = Graph::new();
        g.add_input("x");
        g.add("a", Op::Identity, &[0]);
        g.add("a", Op::Identity, &[0]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn rejects_forward_references() {
        let mut g = Graph::new();
        g.add_input("x");
        g.add("a", Op::Identity, &[5]);
    }
}
