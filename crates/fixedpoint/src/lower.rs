//! Lowering a quantized float graph to an integer-only graph, and baking
//! the float graph into its "hardware inference graph" form (Section 4.2):
//! quantized weights written back, biases snapped to the accumulator grid,
//! ReLU6 caps and leaky-ReLU slopes snapped to fixed-point constants.
//!
//! After `lower`, the float graph and the [`IntGraph`] compute the *same
//! rounding at the same places*, so their outputs agree bit-exactly — the
//! property the paper reports between its CPU inference graphs and the
//! FPGA ("bit-accurate to our fixed-point implementation").
//!
//! Deviations from the paper's FPGA target, by design: accumulators are
//! modeled as wide (i64) rather than 16-bit (we target DSP-style wide MACs;
//! the paper's `q'16` stages are kept only where they change semantics,
//! i.e. before leaky ReLU), and leaky-ReLU's α is quantized to Q7 rather
//! than 16 bits so the float emulation stays exact in f32 arithmetic.

use crate::qtensor::{QFormat, QTensor};
use std::collections::BTreeMap;
use tqt_graph::{shape, Graph, Op};
use tqt_nn::{ParamKind, Relu};
use tqt_quant::round_half_even;
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::Tensor;

/// Number of fractional bits used for the fixed-point leaky-ReLU slope.
pub const LEAKY_ALPHA_FRAC: i32 = 7;

/// The rounding rule a lowering decision declares for a quantization or
/// requantization site. [`lower`] only ever emits [`RoundMode::HalfEven`]
/// (the paper's mandated banker's rounding, Section 3.2); the other
/// variants exist so the translation validator can be handed — and must
/// refute (`TQT-V026`) — provenance records claiming a different rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Round half to even (banker's rounding) — the only mode the
    /// integer kernels implement.
    HalfEven,
    /// Round half away from zero (`f32::round` semantics).
    HalfAwayFromZero,
    /// Truncate toward negative infinity (a bare arithmetic shift).
    Truncate,
}

/// What [`lower`] decided for one float node: the scale/zero-point/shift
/// choices plus the *original* float constants, recorded **before** the
/// in-place baking mutates them. The translation validator
/// (`tqt_verify::translate`) re-derives every baked constant from these
/// records in exact rational arithmetic and proves the integer node
/// equal to the fake-quant reference.
#[derive(Debug, Clone)]
pub enum NodeProv {
    /// No lowering decision: the node is value-preserving (input, max
    /// pool, flatten, add, concat, global average pool).
    Opaque,
    /// A (re)quantization site: target grid, declared zero-point (always
    /// 0 — the TQT scheme is symmetric; a non-zero value must be refuted
    /// as `TQT-V027`) and declared rounding rule.
    Quant {
        /// Target bit-width.
        bits: u32,
        /// Target signedness.
        signed: bool,
        /// Target fractional length (scale `2^-frac`).
        frac: i32,
        /// Declared zero-point. The power-of-2 symmetric realization
        /// applies no correction, so anything non-zero is a lowering bug.
        zero_point: i64,
        /// Declared rounding rule.
        round: RoundMode,
    },
    /// A conv/dense core: original float weights and bias plus the grid
    /// decisions used to bake them.
    Compute {
        /// The float weights before quantization.
        orig_w: Vec<f32>,
        /// Weight fractional length (scale `2^-w_frac`).
        w_frac: i32,
        /// Weight quantizer bit-width.
        w_bits: u32,
        /// Weight quantizer signedness.
        w_signed: bool,
        /// The float bias before snapping to the accumulator grid.
        orig_bias: Option<Vec<f32>>,
        /// Accumulator fractional length (`input frac + w_frac`).
        acc_frac: i32,
    },
    /// A ReLU: the original cap (if any) and the input grid it was
    /// snapped onto.
    Relu {
        /// Original float cap (`Some(6.0)` for ReLU6), pre-snap.
        orig_cap: Option<f32>,
        /// The grid the cap was snapped onto.
        frac: i32,
    },
    /// A leaky ReLU: the original negative slope, pre-snap (the slope
    /// grid is always [`LEAKY_ALPHA_FRAC`]).
    Leaky {
        /// Original float negative slope.
        orig_alpha: f32,
    },
    /// A fused node produced by [`crate::fuse::fuse_with_chains`]: the
    /// names of the standalone members it replaced — core first, then
    /// one per epilogue step, each resolving to its own entry.
    Fused {
        /// Member names in chain order.
        members: Vec<String>,
    },
}

/// The per-node provenance map of one [`lower_with_provenance`] call:
/// float node name → the lowering decisions for it. Name-keyed (not
/// index-keyed) so it survives graph rewrites that renumber nodes
/// (fusion re-keys via [`NodeProv::Fused`] member lists).
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    map: BTreeMap<String, NodeProv>,
}

impl Provenance {
    /// An empty map.
    pub fn new() -> Self {
        Provenance::default()
    }

    /// Records (or replaces) the provenance of `name`.
    pub fn insert(&mut self, name: impl Into<String>, prov: NodeProv) {
        self.map.insert(name.into(), prov);
    }

    /// The provenance recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&NodeProv> {
        self.map.get(name)
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// An integer-only operation.
#[derive(Debug, Clone)]
pub enum IntOp {
    /// The float input placeholder.
    Input,
    /// Quantizes the float input into `format` (the explicit primary-input
    /// quantization).
    QuantF32 {
        /// Target format.
        format: QFormat,
    },
    /// Re-quantizes an integer tensor into `format` by bit-shift with
    /// round-half-to-even and saturation (eq. 16).
    Requant {
        /// Target format.
        format: QFormat,
    },
    /// Integer convolution (standard or depthwise) with i64 accumulation;
    /// output is the raw accumulator at `frac = fx + fw`.
    Conv {
        /// Quantized weights.
        w: Vec<i64>,
        /// Weight tensor dims `[co, ci, kh, kw]` (depthwise: `[c,1,kh,kw]`).
        wdims: [usize; 4],
        /// Bias on the accumulator grid, one per output channel.
        bias: Option<Vec<i64>>,
        /// Spatial geometry.
        geom: Conv2dGeom,
        /// Depthwise flag.
        depthwise: bool,
        /// Weight fractional length.
        w_frac: i32,
    },
    /// Integer dense layer; output is the raw accumulator.
    Dense {
        /// Quantized weights `[in, out]`, row-major.
        w: Vec<i64>,
        /// Input features.
        in_dim: usize,
        /// Output features.
        out_dim: usize,
        /// Bias on the accumulator grid.
        bias: Option<Vec<i64>>,
        /// Weight fractional length.
        w_frac: i32,
    },
    /// ReLU with an optional cap expressed on the input grid.
    Relu {
        /// Cap in input-grid units (`round(6 * 2^frac)` for ReLU6).
        cap_q: Option<i64>,
    },
    /// Leaky ReLU: `max(x << A, x * alpha_q)` at `frac + A` where
    /// `A = LEAKY_ALPHA_FRAC`.
    LeakyRelu {
        /// Slope in QA fixed point.
        alpha_q: i64,
    },
    /// Max pooling (format preserving).
    MaxPool {
        /// Window geometry.
        geom: Conv2dGeom,
    },
    /// Global average pool: exact sum, `frac += log2(h*w)`.
    GlobalAvgPool,
    /// Elementwise add of two same-format tensors.
    Add,
    /// Channel concat of same-format tensors.
    Concat,
    /// Flatten to `[n, features]`.
    Flatten,
    /// A conv/dense core with its epilogue chain fused into the GEMM tile
    /// store (produced by [`crate::fuse::fuse`], never by [`lower`]).
    ///
    /// Inputs are `[x]`, or `[x, residual]` when `epi` contains an
    /// [`EpiStep::AddResidual`]. Every step runs through the same
    /// per-element tail as the standalone node it replaced, so a fused
    /// graph is bit-identical — outputs *and* total saturation/overflow
    /// counts — to its unfused original (`tests/fusion_parity.rs`).
    Fused {
        /// The producing op: always a `Conv` or `Dense`.
        core: Box<IntOp>,
        /// Ordered per-element epilogue, applied to the narrowed
        /// accumulator while it is register resident.
        epi: Vec<EpiStep>,
    },
}

/// One per-element epilogue step, in graph-level terms (formats, not
/// shifts — the executor resolves shifts against the running fractional
/// length): a step of a fused node's chain, or the whole of a standalone
/// `Requant`/`Relu`/`LeakyRelu`/`Add` node (`IntOp::epi_step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpiStep {
    /// Requantize into `format` (round-half-even shift + saturation,
    /// exactly [`IntOp::Requant`]).
    Requant {
        /// Target format.
        format: QFormat,
    },
    /// Add the fused node's second input elementwise (exactly
    /// [`IntOp::Add`]; both sides must be on the same grid).
    AddResidual,
    /// ReLU with an optional cap on the current grid (exactly
    /// [`IntOp::Relu`]).
    Relu {
        /// Cap in current-grid units.
        cap_q: Option<i64>,
    },
    /// Leaky ReLU `max(x << A, x * alpha_q)` with `A =`
    /// [`LEAKY_ALPHA_FRAC`] (exactly [`IntOp::LeakyRelu`], including its
    /// wrap counting); the chain's fractional length grows by `A`.
    LeakyRelu {
        /// Slope in QA fixed point.
        alpha_q: i64,
    },
}

impl IntOp {
    /// The epilogue step a standalone elementwise node performs, or `None`
    /// for every other op. `Requant`, `Relu`, `LeakyRelu` and `Add` (whose
    /// second input is the residual) run as this one step, fused or not.
    pub(crate) fn epi_step(&self) -> Option<EpiStep> {
        match *self {
            IntOp::Requant { format } => Some(EpiStep::Requant { format }),
            IntOp::Relu { cap_q } => Some(EpiStep::Relu { cap_q }),
            IntOp::LeakyRelu { alpha_q } => Some(EpiStep::LeakyRelu { alpha_q }),
            IntOp::Add => Some(EpiStep::AddResidual),
            _ => None,
        }
    }

    /// The output format of a conv/dense core reading an `input`-format
    /// operand: the raw accumulator at `input.frac + w_frac`. `None` for
    /// every other op.
    pub fn acc_format(&self, input: QFormat) -> Option<QFormat> {
        match self {
            IntOp::Conv { w_frac, .. } | IntOp::Dense { w_frac, .. } => {
                Some(QFormat::new(input.frac + w_frac, 64, true))
            }
            _ => None,
        }
    }

    /// The output format of a global average pool summing `hw` elements
    /// per channel of an `input`-format operand: the exact sum, with the
    /// division by `hw` folded into the grid as `frac + log2(hw)`. `None`
    /// when `hw` is not a power of two (no exact fixed-point division).
    pub fn pool_format(input: QFormat, hw: usize) -> Option<QFormat> {
        hw.is_power_of_two()
            .then(|| QFormat::new(input.frac + hw.trailing_zeros() as i32, 64, true))
    }

    /// The op's output dims given its input dims `ins` (in input order),
    /// by the same per-op-kind rules the float graph uses
    /// ([`Op::output_shape`]): a fused node takes its core's rule (each
    /// residual must match it, as an add's operands do), requantization,
    /// relu and leaky relu preserve their input's shape, and the
    /// [`IntOp::Input`] placeholder produces `input_dims`.
    ///
    /// # Errors
    ///
    /// Describes the inconsistency when the inputs do not fit the op.
    pub fn output_shape(
        &self,
        ins: &[&[usize]],
        input_dims: &[usize],
    ) -> Result<Vec<usize>, String> {
        if matches!(self, IntOp::Input) {
            return Ok(input_dims.to_vec());
        }
        let Some(&x) = ins.first() else {
            return Err("op has no inputs".to_string());
        };
        match self {
            IntOp::Input => unreachable!("handled above"),
            IntOp::QuantF32 { .. }
            | IntOp::Requant { .. }
            | IntOp::Relu { .. }
            | IntOp::LeakyRelu { .. } => Ok(x.to_vec()),
            IntOp::Conv {
                wdims,
                geom,
                depthwise,
                ..
            } => shape::conv_shape(x, wdims, *geom, *depthwise),
            IntOp::Dense {
                in_dim, out_dim, ..
            } => shape::dense_shape(x, &[*in_dim, *out_dim]),
            IntOp::MaxPool { geom } => shape::pool_shape(x, *geom),
            IntOp::GlobalAvgPool => shape::global_pool_shape(x),
            IntOp::Flatten => shape::flatten_shape(x),
            IntOp::Add if ins.len() != 2 => Err(format!("add needs 2 inputs, has {}", ins.len())),
            IntOp::Add => shape::add_shape(ins),
            IntOp::Concat => shape::concat_shape(ins),
            IntOp::Fused { core, .. } => {
                let out = core.output_shape(&ins[..1], input_dims)?;
                let mut operands = vec![out.as_slice()];
                operands.extend(&ins[1..]);
                shape::add_shape(&operands)
            }
        }
    }
}

impl EpiStep {
    /// The output format of this step applied to an `input`-format value,
    /// the same for the standalone node and the fused step.
    pub fn out_format(self, input: QFormat) -> QFormat {
        match self {
            EpiStep::Requant { format } => format,
            EpiStep::AddResidual => QFormat::new(input.frac, 64, true),
            EpiStep::Relu { .. } => input,
            EpiStep::LeakyRelu { .. } => QFormat::new(input.frac + LEAKY_ALPHA_FRAC, 64, true),
        }
    }
}

/// A node of the integer graph.
#[derive(Debug, Clone)]
pub struct IntNode {
    /// Name copied from the float graph.
    pub name: String,
    /// The op.
    pub op: IntOp,
    /// Input node indices.
    pub inputs: Vec<usize>,
}

/// An integer-only inference graph, bit-exact to the baked float graph it
/// was lowered from.
#[derive(Debug, Clone)]
pub struct IntGraph {
    nodes: Vec<IntNode>,
    output: usize,
}

impl IntGraph {
    /// Assembles an integer graph from raw parts. [`lower`] is the
    /// production constructor; this one exists so tests and static-analysis
    /// harnesses can hand-build (possibly deliberately malformed) graphs.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or an edge references a
    /// non-existent or later node.
    pub fn from_parts(nodes: Vec<IntNode>, output: usize) -> Self {
        assert!(output < nodes.len(), "output node {output} does not exist");
        for (id, node) in nodes.iter().enumerate() {
            for &i in &node.inputs {
                assert!(i < id, "node {id} input {i} is not an earlier node");
            }
        }
        IntGraph { nodes, output }
    }

    /// Disassembles the graph into its node list and output index — the
    /// inverse of [`from_parts`](Self::from_parts), used by graph-level
    /// rewrites ([`crate::fuse`](fn@crate::fuse)) that rebuild the node
    /// list.
    pub fn into_parts(self) -> (Vec<IntNode>, usize) {
        (self.nodes, self.output)
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[IntNode] {
        &self.nodes
    }

    /// The output node index.
    pub fn output_id(&self) -> usize {
        self.output
    }

    /// Runs integer inference on a float input batch, returning the final
    /// quantized tensor (dequantize for comparison with the float graph).
    ///
    /// With the `sanitize` feature enabled this additionally asserts that
    /// no i64 accumulator wrapped during the run (the debug sanitizer the
    /// static interval analysis in `tqt-verify` is validated against).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or format mismatches at adds/concats —
    /// all of which indicate lowering bugs, not data errors.
    pub fn run(&self, x: &Tensor) -> QTensor {
        let (y, stats) = self.run_with_stats(x);
        #[cfg(feature = "sanitize")]
        for (node, st) in self.nodes.iter().zip(&stats.nodes) {
            assert_eq!(
                st.overflowed, 0,
                "sanitize: i64 accumulator wrapped in node {}",
                node.name
            );
        }
        let _ = stats;
        y
    }

    /// Instrumented integer inference: runs like [`run`](Self::run) and
    /// additionally records, per node, the observed output range, the
    /// number of saturated (clamped) elements at requantization sites, and
    /// the number of wrapped i64 accumulators. `tqt-verify` asserts these
    /// observations are contained in its statically proven intervals.
    ///
    /// This is a convenience wrapper that plans, allocates, and runs in
    /// one shot; for repeated inference build an
    /// [`IntExecutor`](crate::plan::IntExecutor) once and reuse it.
    pub fn run_with_stats(&self, x: &Tensor) -> (QTensor, RunStats) {
        crate::plan::IntExecutor::new(self, x.dims()).run_with_stats(x)
    }
}

/// Per-node observations from an instrumented integer inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// Smallest output value observed (`0` if the node never ran).
    pub lo: i64,
    /// Largest output value observed (`0` if the node never ran).
    pub hi: i64,
    /// Elements clamped by saturation at this node (requant sites only).
    pub saturated: u64,
    /// i64 accumulators that wrapped at this node. Always a lowering bug;
    /// [`IntGraph::run`] asserts zero under the `sanitize` feature.
    pub overflowed: u64,
}

impl NodeStats {
    pub(crate) fn new() -> Self {
        NodeStats {
            lo: 0,
            hi: 0,
            saturated: 0,
            overflowed: 0,
        }
    }

    pub(crate) fn observe(&mut self, data: &[i64]) {
        for &v in data {
            self.lo = self.lo.min(v);
            self.hi = self.hi.max(v);
        }
    }
}

/// Observations for every node of one [`IntGraph::run_with_stats`] call,
/// indexed like [`IntGraph::nodes`].
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-node observations.
    pub nodes: Vec<NodeStats>,
}

impl RunStats {
    pub(crate) fn new(n: usize) -> Self {
        RunStats {
            nodes: vec![NodeStats::new(); n],
        }
    }

    /// Total saturated elements across all nodes.
    pub fn total_saturated(&self) -> u64 {
        self.nodes.iter().map(|s| s.saturated).sum()
    }

    /// Total wrapped accumulators across all nodes.
    pub fn total_overflowed(&self) -> u64 {
        self.nodes.iter().map(|s| s.overflowed).sum()
    }
}

/// Truncates an exact i128 accumulator to the i64 the engine stores,
/// counting values outside the i64 range (truncation equals two's
/// complement wrapping, so the stored bits match what a pure-i64 engine
/// computes in release mode).
pub(crate) fn narrow(acc: i128, overflowed: &mut u64) -> i64 {
    if acc > i128::from(i64::MAX) || acc < i128::from(i64::MIN) {
        *overflowed += 1;
    }
    acc as i64
}

/// Lowers a calibrated, quantized float graph into an [`IntGraph`] and
/// **bakes the float graph in place** into its hardware inference form:
/// weights replaced by their quantized values (weight quantizers removed),
/// biases snapped onto the accumulator grid, leaky-ReLU slopes snapped to
/// Q7. After this call, `g.forward(x, Eval)` and `IntGraph::run(x)`
/// (dequantized) agree bit-exactly.
///
/// # Panics
///
/// Panics if the graph contains uncalibrated thresholds, unquantized
/// compute layers, batch norms, or average pools (run the transform and
/// quantization passes first).
pub fn lower(g: &mut Graph) -> IntGraph {
    lower_with_provenance(g).0
}

/// [`lower`], additionally returning the per-node [`Provenance`] map —
/// every scale/zero-point/shift decision plus the original float
/// constants, recorded before the in-place baking mutates them. The
/// translation validator consumes this to prove the lowering bit-exact.
pub fn lower_with_provenance(g: &mut Graph) -> (IntGraph, Provenance) {
    let n = g.len();
    // Fractional length of each float node's output grid; None = float or
    // not yet known.
    let mut fracs: Vec<Option<i32>> = vec![None; n];
    let mut nodes: Vec<IntNode> = Vec::with_capacity(n);
    let mut prov = Provenance::new();

    for id in 0..n {
        let inputs = g.node(id).inputs.clone();
        let name = g.node(id).name.clone();
        // Pre-read threshold info to avoid holding borrows.
        let op = match &g.node(id).op {
            Op::Input => IntOp::Input,
            Op::Quant { tid } => {
                let ts = &g.thresholds()[*tid];
                assert!(ts.calibrated, "threshold {} not calibrated", ts.param.name);
                let format = QFormat::from_spec(ts.spec, ts.log2_t());
                fracs[id] = Some(format.frac);
                prov.insert(
                    name.clone(),
                    NodeProv::Quant {
                        bits: format.bits,
                        signed: format.signed,
                        frac: format.frac,
                        zero_point: 0,
                        round: RoundMode::HalfEven,
                    },
                );
                if matches!(g.node(inputs[0]).op, Op::Input) {
                    IntOp::QuantF32 { format }
                } else {
                    // The producer is always on an integer grid here: the
                    // quantize pass only places requants after quantized
                    // ops (GAP output formats are resolved at run time).
                    IntOp::Requant { format }
                }
            }
            Op::BatchNorm(_) => panic!("fold batch norms before lowering"),
            Op::AvgPool(_) => panic!("convert avgpool to depthwise before lowering"),
            Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_) => {
                let fx = fracs[inputs[0]]
                    .unwrap_or_else(|| panic!("compute node {name} has unquantized input"));
                let (w_frac, wq_log2_t, w_spec) = {
                    let node = g.node(id);
                    let wq = node
                        .wq
                        .as_ref()
                        .unwrap_or_else(|| panic!("compute node {name} has no weight quantizer"));
                    let ts = &g.thresholds()[wq.tid];
                    assert!(ts.calibrated, "weight threshold {} not calibrated", ts.param.name);
                    (
                        ts.spec.fractional_length(ts.log2_t()),
                        ts.log2_t(),
                        ts.spec,
                    )
                };
                let acc_frac = fx + w_frac;
                fracs[id] = Some(acc_frac);
                // Bake: quantize weights in place, snap bias to the
                // accumulator grid, drop the weight quantizer.
                let node = g.node_mut(id);
                node.wq = None;
                let mut w_ints = Vec::new();
                let mut wdims = [0usize; 4];
                let mut bias_ints: Option<Vec<i64>> = None;
                let mut dense_dims = (0usize, 0usize);
                // Provenance: the float constants as they are *now*, before
                // the in-place bake below replaces them.
                let mut orig_w: Vec<f32> = Vec::new();
                let mut orig_bias: Option<Vec<f32>> = None;
                for p in tqt_graph::ir::op_params_mut(&mut node.op) {
                    match p.kind {
                        ParamKind::Weight => {
                            orig_w = p.value.data().to_vec();
                            p.value = tqt_quant::tqt::quantize(&p.value, wq_log2_t, w_spec);
                            let s = 2f64.powi(w_frac);
                            w_ints = p
                                .value
                                .data()
                                .iter()
                                .map(|&v| (v as f64 * s).round() as i64)
                                .collect();
                            if p.value.ndim() == 4 {
                                wdims = [
                                    p.value.dim(0),
                                    p.value.dim(1),
                                    p.value.dim(2),
                                    p.value.dim(3),
                                ];
                            } else {
                                dense_dims = (p.value.dim(0), p.value.dim(1));
                            }
                        }
                        ParamKind::Bias => {
                            orig_bias = Some(p.value.data().to_vec());
                            let s = 2f32.powi(acc_frac);
                            // Snap to the accumulator grid in both worlds.
                            let ints: Vec<i64> = p
                                .value
                                .data()
                                .iter()
                                .map(|&v| round_half_even(v * s) as i64)
                                .collect();
                            p.value = Tensor::from_vec(
                                p.value.dims().to_vec(),
                                ints.iter().map(|&v| v as f32 / s).collect(),
                            );
                            bias_ints = Some(ints);
                        }
                        _ => {}
                    }
                }
                prov.insert(
                    name.clone(),
                    NodeProv::Compute {
                        orig_w,
                        w_frac,
                        w_bits: w_spec.bits(),
                        w_signed: w_spec.signed(),
                        orig_bias,
                        acc_frac,
                    },
                );
                match &g.node(id).op {
                    Op::Conv(c) => IntOp::Conv {
                        w: w_ints,
                        wdims,
                        bias: bias_ints,
                        geom: c.geom(),
                        depthwise: false,
                        w_frac,
                    },
                    Op::Depthwise(d) => IntOp::Conv {
                        w: w_ints,
                        wdims,
                        bias: bias_ints,
                        geom: d.geom(),
                        depthwise: true,
                        w_frac,
                    },
                    Op::Dense(_) => IntOp::Dense {
                        w: w_ints,
                        in_dim: dense_dims.0,
                        out_dim: dense_dims.1,
                        bias: bias_ints,
                        w_frac,
                    },
                    _ => unreachable!(),
                }
            }
            Op::Relu(r) => {
                let fx = fracs[inputs[0]]
                    .unwrap_or_else(|| panic!("relu {name} has unquantized input"));
                if r.negative_slope() > 0.0 {
                    let orig_alpha = r.negative_slope();
                    let alpha_q =
                        round_half_even(orig_alpha * 2f32.powi(LEAKY_ALPHA_FRAC)) as i64;
                    fracs[id] = Some(fx + LEAKY_ALPHA_FRAC);
                    prov.insert(name.clone(), NodeProv::Leaky { orig_alpha });
                    // Snap the float graph's slope to the same grid.
                    let snapped = alpha_q as f32 / 2f32.powi(LEAKY_ALPHA_FRAC);
                    if let Op::Relu(r) = &mut g.node_mut(id).op {
                        r.set_negative_slope(snapped);
                    }
                    IntOp::LeakyRelu { alpha_q }
                } else {
                    fracs[id] = Some(fx);
                    let orig_cap = r.cap();
                    prov.insert(name.clone(), NodeProv::Relu { orig_cap, frac: fx });
                    let cap_q = orig_cap.map(|c| round_half_even(c * 2f32.powi(fx)) as i64);
                    // Snap the float cap onto the grid too.
                    if let (Some(cq), Op::Relu(r)) = (cap_q, &mut g.node_mut(id).op) {
                        *r = Relu::capped(cq as f32 / 2f32.powi(fx));
                    }
                    IntOp::Relu { cap_q }
                }
            }
            Op::MaxPool(p) => {
                fracs[id] = fracs[inputs[0]];
                IntOp::MaxPool { geom: p.geom() }
            }
            Op::GlobalAvgPool(_) => {
                // frac increases by log2(hw), resolved at run time; for
                // downstream compute we need it statically: derive from
                // shape inference lazily below.
                fracs[id] = None; // patched after shape inference
                IntOp::GlobalAvgPool
            }
            Op::Add(_) => {
                fracs[id] = fracs[inputs[0]];
                IntOp::Add
            }
            Op::Concat(_) => {
                fracs[id] = fracs[inputs[0]];
                IntOp::Concat
            }
            Op::Flatten(_) => {
                fracs[id] = fracs[inputs[0]];
                IntOp::Flatten
            }
            Op::Identity => {
                fracs[id] = fracs[inputs[0]];
                let frac = fracs[inputs[0]].unwrap_or(0);
                prov.insert(
                    name.clone(),
                    NodeProv::Quant {
                        bits: 32,
                        signed: true,
                        frac,
                        zero_point: 0,
                        round: RoundMode::HalfEven,
                    },
                );
                IntOp::Requant {
                    // Identity in a quantized graph is format preserving;
                    // represent as a no-op requant into the same format.
                    format: QFormat::new(frac, 32, true),
                }
            }
        };
        if prov.get(&name).is_none() {
            prov.insert(name.clone(), NodeProv::Opaque);
        }
        nodes.push(IntNode { name, op, inputs });
    }

    // Patch GlobalAvgPool fracs using shape inference (needed only when a
    // compute node consumes a GAP *without* an intervening quant node —
    // the quantize pass always inserts one, so this is a safety net).
    // The runtime computes GAP output formats exactly regardless.

    (
        IntGraph {
            nodes,
            output: g.output_id(),
        },
        prov,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions};
    use tqt_tensor::init;

    fn quantized_toy_graph(seed: u64) -> (Graph, Tensor) {
        use tqt_graph::Op as GOp;
        use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
        let mut rng = init::rng(seed);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c1 = g.add(
            "conv1",
            GOp::Conv(Conv2d::new("conv1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r1 = g.add("relu1", GOp::Relu(Relu::relu6()), &[c1]);
        let gap = g.add("gap", GOp::GlobalAvgPool(GlobalAvgPool::new()), &[r1]);
        let fc = g.add("fc", GOp::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
        g.set_output(fc);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        (g, calib)
    }

    #[test]
    fn lowered_graph_is_bit_accurate() {
        let (mut g, calib) = quantized_toy_graph(100);
        let ig = lower(&mut g);
        let y_float = g.infer(&calib);
        let y_int = ig.run(&calib).dequantize();
        assert_eq!(
            y_float, y_int,
            "integer engine must be bit-exact to the baked float graph"
        );
    }

    #[test]
    fn bit_accuracy_on_fresh_inputs() {
        let (mut g, _) = quantized_toy_graph(101);
        let ig = lower(&mut g);
        let mut rng = init::rng(102);
        for _ in 0..5 {
            let x = init::normal([2, 2, 8, 8], 0.0, 1.5, &mut rng);
            let y_float = g.infer(&x);
            let y_int = ig.run(&x).dequantize();
            assert_eq!(y_float, y_int);
        }
    }

    #[test]
    fn leaky_relu_keeps_precision() {
        let (mut g, calib) = {
            use tqt_graph::Op as GOp;
            use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
            let mut rng = init::rng(103);
            let mut g = Graph::new();
            let x = g.add_input("input");
            let c1 = g.add(
                "conv1",
                GOp::Conv(Conv2d::new("conv1", 2, 4, Conv2dGeom::same(3), &mut rng)),
                &[x],
            );
            let r1 = g.add("lrelu", GOp::Relu(Relu::leaky(0.1)), &[c1]);
            let gap = g.add("gap", GOp::GlobalAvgPool(GlobalAvgPool::new()), &[r1]);
            let fc = g.add("fc", GOp::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
            g.set_output(fc);
            transforms::optimize(&mut g, &[1, 2, 8, 8]);
            quantize_graph(&mut g, QuantizeOptions::static_int8());
            let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
            g.calibrate(&calib);
            (g, calib)
        };
        let ig = lower(&mut g);
        let y_float = g.infer(&calib);
        let y_int = ig.run(&calib).dequantize();
        assert_eq!(y_float, y_int, "leaky-relu path must stay bit-exact");
    }

    #[test]
    #[should_panic(expected = "unquantized input")]
    fn lower_requires_quantized_graph() {
        use tqt_graph::Op as GOp;
        use tqt_nn::Dense;
        let mut rng = init::rng(104);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let fc = g.add("fc", GOp::Dense(Dense::new("fc", 4, 2, &mut rng)), &[x]);
        g.set_output(fc);
        lower(&mut g);
    }
}
