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
use tqt_graph::{shape, Graph, LowerError, NodeId, Op, ThresholdId, ThresholdState};
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
    pub fn epi_step(&self) -> Option<EpiStep> {
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
                Some(accumulator(input, *w_frac))
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

/// The accumulator a conv/dense core produces from an `input`-format
/// operand and `w_frac` weights.
fn accumulator(input: QFormat, w_frac: i32) -> QFormat {
    QFormat::new(input.frac + w_frac, 64, true)
}

/// The calibrated threshold `tid` that node `id` quantizes with.
fn calibrated(g: &Graph, id: NodeId, tid: ThresholdId) -> Result<&ThresholdState, LowerError> {
    let node = &g.node(id).name;
    let ts = g.thresholds().get(tid).ok_or_else(|| LowerError::Structure {
        node: node.clone(),
        detail: format!("reads threshold {tid}, which the side table lacks"),
    })?;
    if !ts.calibrated {
        return Err(LowerError::Uncalibrated {
            node: node.clone(),
            threshold: ts.param.name.clone(),
        });
    }
    Ok(ts)
}

/// The calibrated weight threshold of compute node `id`.
fn weight_threshold(g: &Graph, id: NodeId) -> Result<&ThresholdState, LowerError> {
    let node = g.node(id);
    let wq = node.wq.as_ref().ok_or_else(|| LowerError::MissingWeightQuant {
        node: node.name.clone(),
    })?;
    calibrated(g, id, wq.tid)
}

/// The fixed-point grid of float node `id`'s output, given its inputs'
/// grids `ins` (`None`: the edge has no static grid). This is the one grid
/// rule of the float graph: [`lower_with_provenance`] folds it to place
/// every constant, and `tqt-verify`'s lint and grid typer fold it to check
/// a graph before lowering. It is stated with the integer engine's own
/// rules ([`IntOp::acc_format`], [`EpiStep::out_format`],
/// [`IntOp::pool_format`]), so a lowered node's format is its float
/// node's grid:
///
/// * a quant node takes its calibrated threshold's grid;
/// * conv and dense produce the accumulator at `fx + fw`;
/// * relu keeps its input grid; leaky relu moves it by
///   [`LEAKY_ALPHA_FRAC`] into the accumulator container;
/// * a global average pool over `pool_hw` elements moves it by
///   `log2(pool_hw)`. Without `pool_hw` (lowering runs before any input
///   size is known), or when it is not a power of two, the pool's grid is
///   resolved only at run time: it has no static grid;
/// * add widens its first input's grid to the accumulator container; max
///   pool, flatten, concat and identity keep it. Whether merge operands
///   share a grid is for the checkers (and the `rebalance` pass), not for
///   this rule.
///
/// # Errors
///
/// Refuses a batch norm (`TQT-V008`), an average pool (`TQT-V009`), a
/// conv, dense, relu or identity reading an edge with no static grid
/// (`TQT-V003`), a compute op without a weight quantizer (`TQT-V004`), an
/// uncalibrated threshold (`TQT-V006`), and a non-input node without
/// inputs or a dangling threshold id (`TQT-V001`).
pub fn float_grid(
    g: &Graph,
    id: NodeId,
    ins: &[Option<QFormat>],
    pool_hw: Option<usize>,
) -> Result<Option<QFormat>, LowerError> {
    let node = g.node(id);
    let x = ins.first().copied().flatten();
    let static_x = || {
        x.ok_or_else(|| LowerError::UnquantizedInput {
            node: node.name.clone(),
        })
    };
    match &node.op {
        Op::Input => Ok(None),
        Op::BatchNorm(_) => Err(LowerError::UnfoldedBatchNorm {
            node: node.name.clone(),
        }),
        Op::AvgPool(_) => Err(LowerError::UnconvertedAvgPool {
            node: node.name.clone(),
        }),
        _ if ins.is_empty() => Err(LowerError::Structure {
            node: node.name.clone(),
            detail: "has no inputs".to_string(),
        }),
        Op::Quant { tid } => {
            let ts = calibrated(g, id, *tid)?;
            Ok(Some(QFormat::from_spec(ts.spec, ts.log2_t())))
        }
        Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_) => {
            let x = static_x()?;
            let ts = weight_threshold(g, id)?;
            Ok(Some(accumulator(x, QFormat::from_spec(ts.spec, ts.log2_t()).frac)))
        }
        // The slope's value does not move the grid.
        Op::Relu(r) if r.negative_slope() > 0.0 => {
            Ok(Some(EpiStep::LeakyRelu { alpha_q: 0 }.out_format(static_x()?)))
        }
        Op::Relu(_) | Op::Identity => static_x().map(Some),
        Op::GlobalAvgPool(_) => Ok(x
            .zip(pool_hw)
            .and_then(|(x, hw)| IntOp::pool_format(x, hw))),
        Op::Add(_) => Ok(x.map(|x| EpiStep::AddResidual.out_format(x))),
        Op::MaxPool(_) | Op::Flatten(_) | Op::Concat(_) => Ok(x),
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
/// Q7. After this call, `g.infer(x)` and `IntGraph::run(x)` (dequantized)
/// agree bit-exactly.
///
/// Kept for the benchmark harness, which calls it by this name; new code
/// calls [`lower_with_provenance`], which refuses with a typed error.
///
/// # Panics
///
/// Panics with the [`LowerError`] [`lower_with_provenance`] returns.
pub fn lower(g: &mut Graph) -> IntGraph {
    lower_with_provenance(g).unwrap_or_else(|e| panic!("{e}")).0
}

/// [`lower`], additionally returning the per-node [`Provenance`] map —
/// every scale/zero-point/shift decision plus the original float
/// constants, recorded before the in-place baking mutates them. The
/// translation validator consumes this to prove the lowering bit-exact.
///
/// # Errors
///
/// Refuses, naming the node, a graph [`float_grid`] refuses anywhere:
/// surviving batch norms or average pools, a conv, dense, relu or identity
/// without a static input grid, a missing weight quantizer, an
/// uncalibrated threshold, or a structural defect. A refused graph is left
/// as it was.
pub fn lower_with_provenance(g: &mut Graph) -> Result<(IntGraph, Provenance), LowerError> {
    let output = g.try_output_id().ok_or(LowerError::NoOutput)?;
    // Every grid is resolved before anything is baked.
    let mut grids: Vec<Option<QFormat>> = Vec::with_capacity(g.len());
    for (id, node) in g.iter() {
        let ins = node
            .inputs
            .iter()
            .map(|&i| {
                grids.get(i).copied().ok_or_else(|| LowerError::Structure {
                    node: node.name.clone(),
                    detail: format!("reads node {i}, which is not an earlier node"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        grids.push(float_grid(g, id, &ins, None)?);
    }

    let mut nodes: Vec<IntNode> = Vec::with_capacity(g.len());
    let mut prov = Provenance::new();
    for (id, &grid) in grids.iter().enumerate() {
        let inputs = g.node(id).inputs.clone();
        let name = g.node(id).name.clone();
        let op = match (&g.node(id).op, grid) {
            (Op::Input, _) => IntOp::Input,
            (Op::Quant { .. }, Some(format)) => {
                prov.insert(name.clone(), quant_prov(format));
                if matches!(g.node(inputs[0]).op, Op::Input) {
                    IntOp::QuantF32 { format }
                } else {
                    // Every other producer is on an integer grid (a global
                    // average pool's is resolved when the graph is planned).
                    IntOp::Requant { format }
                }
            }
            (Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_), Some(acc)) => {
                let ts = weight_threshold(g, id)?;
                let (w_spec, wq_log2_t) = (ts.spec, ts.log2_t());
                let w_frac = QFormat::from_spec(w_spec, wq_log2_t).frac;
                let acc_frac = acc.frac;
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
                    _ => IntOp::Dense {
                        w: w_ints,
                        in_dim: dense_dims.0,
                        out_dim: dense_dims.1,
                        bias: bias_ints,
                        w_frac,
                    },
                }
            }
            (Op::Relu(r), Some(_)) if r.negative_slope() > 0.0 => {
                let orig_alpha = r.negative_slope();
                let alpha_q = round_half_even(orig_alpha * 2f32.powi(LEAKY_ALPHA_FRAC)) as i64;
                prov.insert(name.clone(), NodeProv::Leaky { orig_alpha });
                // Snap the float graph's slope to the same grid.
                let snapped = alpha_q as f32 / 2f32.powi(LEAKY_ALPHA_FRAC);
                if let Op::Relu(r) = &mut g.node_mut(id).op {
                    r.set_negative_slope(snapped);
                }
                IntOp::LeakyRelu { alpha_q }
            }
            // A relu's grid is its input's: the cap snaps onto it.
            (Op::Relu(r), Some(x)) => {
                let orig_cap = r.cap();
                prov.insert(name.clone(), NodeProv::Relu { orig_cap, frac: x.frac });
                let cap_q = orig_cap.map(|c| round_half_even(c * 2f32.powi(x.frac)) as i64);
                // Snap the float cap onto the grid too.
                if let (Some(cq), Op::Relu(r)) = (cap_q, &mut g.node_mut(id).op) {
                    *r = Relu::capped(cq as f32 / 2f32.powi(x.frac));
                }
                IntOp::Relu { cap_q }
            }
            // Identity keeps its input's grid: a requant into that format.
            (Op::Identity, Some(format)) => {
                prov.insert(name.clone(), quant_prov(format));
                IntOp::Requant { format }
            }
            (Op::MaxPool(p), _) => IntOp::MaxPool { geom: p.geom() },
            (Op::GlobalAvgPool(_), _) => IntOp::GlobalAvgPool,
            (Op::Add(_), _) => IntOp::Add,
            (Op::Concat(_), _) => IntOp::Concat,
            (Op::Flatten(_), _) => IntOp::Flatten,
            // `float_grid` refused batch norms and average pools above and
            // gave every other op here a grid, so this arm is never taken.
            _ => return Err(LowerError::UnquantizedInput { node: name }),
        };
        if prov.get(&name).is_none() {
            prov.insert(name.clone(), NodeProv::Opaque);
        }
        nodes.push(IntNode { name, op, inputs });
    }
    Ok((IntGraph { nodes, output }, prov))
}

/// The provenance of a round-half-even requantization into `format`.
fn quant_prov(format: QFormat) -> NodeProv {
    NodeProv::Quant {
        bits: format.bits,
        signed: format.signed,
        frac: format.frac,
        zero_point: 0,
        round: RoundMode::HalfEven,
    }
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

    #[test]
    fn lower_with_provenance_refuses_unquantized_graph() {
        use tqt_graph::Op as GOp;
        use tqt_nn::Dense;
        let mut rng = init::rng(104);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let fc = g.add("fc", GOp::Dense(Dense::new("fc", 4, 2, &mut rng)), &[x]);
        g.set_output(fc);
        let err = lower_with_provenance(&mut g).err();
        assert_eq!(err, Some(LowerError::UnquantizedInput { node: "fc".into() }));
    }
}
