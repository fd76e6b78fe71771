//! Grid type system: whole-graph quantization-format inference over both
//! IRs.
//!
//! Every edge of a quantized graph carries values on exactly one
//! *quantization grid* — `value = scale_num · 2^-shift · (int - zp)` — and
//! the paper's fixed-point mapping (§3, eq. 3–5) only composes when the
//! grids agree wherever values meet. This pass makes that invariant a
//! statically inferred *type system*: a forward dataflow assigns each edge
//! a [`Grid`] type via per-op transfer functions, takes the meet at merge
//! nodes, and checks every coercion (requant) for subsumption and
//! legality. Violations are reported with stable codes:
//!
//! * `TQT-V031` — grid-type contradiction: two incompatible required types
//!   on one edge (e.g. add/concat operands deriving different grids), with
//!   the two deriving paths as counterexample;
//! * `TQT-V032` — uninferable edge: a value-interpreting op consumes an
//!   edge whose grid cannot be derived from any quantization site (or a
//!   pooling reduction whose scale factor is not a power of two);
//! * `TQT-V033` — redundant requant lint: a coercion onto the grid its
//!   input already has (the node is a no-op);
//! * `TQT-V034` — illegal coercion: a grid-to-grid requant the integer
//!   engine cannot realize (shift outside `[-63, 63]`, a zero-point that
//!   overflows the target container, or a zero-point change — the
//!   symmetric power-of-2 engine applies no correction).
//!
//! The checker runs on the float [`Graph`] ([`infer_float_grids`], after
//! calibration) and on the lowered/fused [`IntGraph`]
//! ([`infer_int_grids`]); the `rebalance` pass in `tqt-fixedpoint`
//! consumes the same typing discipline to insert the minimal coercions at
//! unmerged merges, and this pass certifies the result is well-typed.

use crate::diag::{Code, Report};
use crate::interval::{path_to, MAX_SHIFT};
use crate::shape::infer_int_shapes;
use std::fmt;
use tqt_fixedpoint::lower::{EpiStep, IntGraph, IntNode, IntOp, LEAKY_ALPHA_FRAC};
use tqt_fixedpoint::QFormat;
use tqt_graph::{Graph, Op};

/// The quantization-grid type of one edge:
/// `value = scale_num · 2^-shift · (int - zp)`, stored in a `bits`-wide
/// (un)signed container. The TQT scheme is symmetric power-of-2, so
/// inference only ever derives `scale_num = 1, zp = 0`; the general fields
/// exist so the checker can refute hand-built (or future per-channel)
/// grids rather than silently assuming them away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Rational scale numerator (always 1 for power-of-2 grids).
    pub scale_num: i64,
    /// Binary scale exponent: scale = `scale_num * 2^-shift`.
    pub shift: i32,
    /// Zero-point (always 0 for the symmetric scheme).
    pub zp: i64,
    /// Container bit-width (`64` marks the wide accumulator type).
    pub bits: u32,
    /// Container signedness.
    pub signed: bool,
}

impl Grid {
    /// A grid with every field explicit.
    pub fn new(scale_num: i64, shift: i32, zp: i64, bits: u32, signed: bool) -> Self {
        Grid { scale_num, shift, zp, bits, signed }
    }

    /// The grid a [`QFormat`] denotes (symmetric, power-of-2).
    pub fn from_format(f: QFormat) -> Self {
        Grid::new(1, f.frac, 0, f.bits, f.signed)
    }

    /// The wide-accumulator supertype on the same scale: adds and leaky
    /// multiplies leave the value set but widen the container to i64.
    pub fn widened(self) -> Self {
        Grid { bits: 64, signed: true, ..self }
    }

    /// Whether two grids denote the same real-value mapping — the meet
    /// condition at merge nodes. Container width is *not* part of this:
    /// an i8 value and the i64 accumulator holding it are on one grid.
    pub fn scale_compatible(&self, other: &Grid) -> bool {
        self.scale_num == other.scale_num && self.shift == other.shift && self.zp == other.zp
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}*2^{} zp={} {}{}",
            self.scale_num,
            -self.shift,
            self.zp,
            if self.signed { "s" } else { "u" },
            self.bits
        )
    }
}

/// Result of one grid-inference run: the per-edge types (indexed by node
/// id; `None` = untyped float edge) plus every finding.
#[derive(Debug)]
pub struct GridReport {
    /// Inferred output grid per node (the type of the node's out-edges).
    pub grids: Vec<Option<Grid>>,
    /// `TQT-V031`–`TQT-V034` findings.
    pub report: Report,
}

impl GridReport {
    /// Whether the graph is well-typed (no findings).
    pub fn typed(&self) -> bool {
        self.report.is_clean()
    }
}

/// Whether `zp` is representable in a `bits`-wide (un)signed container.
fn zp_fits(zp: i64, bits: u32, signed: bool) -> bool {
    let f = QFormat::new(0, bits, signed);
    zp >= f.qmin() && zp <= f.qmax()
}

/// Checks one explicit coercion `from -> to` (a requant node or epilogue
/// step): redundancy (`TQT-V033`) and realizability (`TQT-V034`).
fn check_coercion(r: &mut Report, name: &str, from: Grid, to: Grid, path: &str) {
    if from == to {
        r.push(
            Code::RedundantRequant,
            name,
            format!("coercion to the identical grid {to} is a no-op; path: {path}"),
        );
        return;
    }
    let shift = from.shift - to.shift;
    if shift.abs() > MAX_SHIFT {
        r.push(
            Code::IllegalCoercion,
            name,
            format!(
                "coercion {from} -> {to} needs shift {shift}, outside the legal \
                 |shift| <= {MAX_SHIFT}; path: {path}"
            ),
        );
    }
    if !zp_fits(to.zp, to.bits, to.signed) {
        r.push(
            Code::IllegalCoercion,
            name,
            format!(
                "target zero-point {} overflows the {}-bit {} container; path: {path}",
                to.zp,
                to.bits,
                if to.signed { "signed" } else { "unsigned" }
            ),
        );
    } else if from.zp != to.zp {
        r.push(
            Code::IllegalCoercion,
            name,
            format!(
                "coercion changes the zero-point {} -> {}; the symmetric power-of-2 \
                 engine applies no correction; path: {path}"
            , from.zp, to.zp),
        );
    }
}

fn uninferable(r: &mut Report, name: &str, what: &str, path: &str) {
    r.push(Code::UninferableGrid, name, format!("{what}; path: {path}"));
}

/// Reports a `TQT-V031` at merge node `name`: operands `a` and `b` derive
/// incompatible grids, with both deriving paths as counterexample.
#[allow(clippy::too_many_arguments)]
fn contradiction(
    r: &mut Report,
    name: &str,
    a_name: &str,
    a: Grid,
    a_path: &str,
    b_name: &str,
    b: Grid,
    b_path: &str,
) {
    r.push(
        Code::GridContradiction,
        name,
        format!(
            "edge requires two incompatible grid types: operand `{a_name}` derives \
             {a} via {a_path}, but operand `{b_name}` derives {b} via {b_path}"
        ),
    );
}

/// Grid-type inference over a lowered [`IntGraph`]. `input_dims` is the
/// `[n, c, h, w]` the graph executes on (needed only to resolve pooling
/// reduction factors, via [`infer_int_shapes`]). Runs on unfused and
/// fused graphs alike.
pub fn infer_int_grids(ig: &IntGraph, input_dims: &[usize]) -> GridReport {
    let nodes = ig.nodes();
    let n = nodes.len();
    let mut r = Report::new();
    let mut grids: Vec<Option<Grid>> = Vec::with_capacity(n);
    let shapes = infer_int_shapes(ig, input_dims).shapes;

    for (id, node) in nodes.iter().enumerate() {
        let gin = node.inputs.first().and_then(|&i| grids[i]);
        let grid = match &node.op {
            IntOp::Input => None,
            IntOp::QuantF32 { format } => Some(Grid::from_format(*format)),
            IntOp::Requant { format } => {
                let to = Grid::from_format(*format);
                match gin {
                    None => uninferable(
                        &mut r,
                        &node.name,
                        "requantization consumes an edge with no inferable grid",
                        &path_to(nodes, id),
                    ),
                    Some(from) => {
                        check_coercion(&mut r, &node.name, from, to, &path_to(nodes, id))
                    }
                }
                Some(to)
            }
            IntOp::Conv { w_frac, .. } | IntOp::Dense { w_frac, .. } => {
                compute_out(&mut r, nodes, id, gin, *w_frac)
            }
            IntOp::Relu { .. } => match gin {
                None => {
                    uninferable(
                        &mut r,
                        &node.name,
                        "relu consumes an edge with no inferable grid",
                        &path_to(nodes, id),
                    );
                    None
                }
                some => some,
            },
            IntOp::LeakyRelu { .. } => match gin {
                None => {
                    uninferable(
                        &mut r,
                        &node.name,
                        "leaky relu consumes an edge with no inferable grid",
                        &path_to(nodes, id),
                    );
                    None
                }
                Some(g) => Some(Grid {
                    shift: g.shift + LEAKY_ALPHA_FRAC,
                    ..g.widened()
                }),
            },
            IntOp::MaxPool { .. } | IntOp::Flatten => gin,
            IntOp::GlobalAvgPool => gap_out(&mut r, nodes, id, gin, &shapes[node.inputs[0]]),
            IntOp::Add => {
                let ga = node.inputs.first().and_then(|&i| grids[i]);
                let gb = node.inputs.get(1).and_then(|&i| grids[i]);
                if let (Some(a), Some(b)) = (ga, gb) {
                    if !a.scale_compatible(&b) {
                        let (ia, ib) = (node.inputs[0], node.inputs[1]);
                        contradiction(
                            &mut r,
                            &node.name,
                            &nodes[ia].name,
                            a,
                            &path_to(nodes, ia),
                            &nodes[ib].name,
                            b,
                            &path_to(nodes, ib),
                        );
                    }
                } else {
                    for &i in &node.inputs {
                        if grids[i].is_none() {
                            uninferable(
                                &mut r,
                                &node.name,
                                &format!("add operand `{}` has no inferable grid", nodes[i].name),
                                &path_to(nodes, i),
                            );
                        }
                    }
                }
                ga.or(gb).map(Grid::widened)
            }
            IntOp::Concat => {
                let first = node.inputs.first().and_then(|&i| grids[i]);
                for (slot, &i) in node.inputs.iter().enumerate() {
                    match (grids[i], first) {
                        (None, _) => uninferable(
                            &mut r,
                            &node.name,
                            &format!(
                                "concat operand {slot} (`{}`) has no inferable grid",
                                nodes[i].name
                            ),
                            &path_to(nodes, i),
                        ),
                        (Some(gi), Some(g0)) if slot > 0 && !gi.scale_compatible(&g0) => {
                            let i0 = node.inputs[0];
                            contradiction(
                                &mut r,
                                &node.name,
                                &nodes[i0].name,
                                g0,
                                &path_to(nodes, i0),
                                &nodes[i].name,
                                gi,
                                &path_to(nodes, i),
                            );
                        }
                        _ => {}
                    }
                }
                first
            }
            IntOp::Fused { core, epi } => {
                let mut cur = match gin {
                    None => {
                        uninferable(
                            &mut r,
                            &node.name,
                            "fused core consumes an edge with no inferable grid",
                            &path_to(nodes, id),
                        );
                        None
                    }
                    Some(g) => match &**core {
                        IntOp::Conv { w_frac, .. } | IntOp::Dense { w_frac, .. } => Some(Grid {
                            shift: g.shift + w_frac,
                            ..g.widened()
                        }),
                        // A non-conv/dense core is a TQT-V023 (fusion
                        // legality), owned by the interval pass.
                        _ => Some(g),
                    },
                };
                let mut residual_slot = 1usize;
                for (si, step) in epi.iter().enumerate() {
                    match step {
                        EpiStep::Requant { format } => {
                            let to = Grid::from_format(*format);
                            if let Some(from) = cur {
                                check_coercion(
                                    &mut r,
                                    &node.name,
                                    from,
                                    to,
                                    &format!("epilogue step {si} of {}", path_to(nodes, id)),
                                );
                            }
                            cur = Some(to);
                        }
                        EpiStep::AddResidual => {
                            let rid = node.inputs.get(residual_slot).copied();
                            residual_slot += 1;
                            if let (Some(rid), Some(c)) = (rid, cur) {
                                match grids[rid] {
                                    None => uninferable(
                                        &mut r,
                                        &node.name,
                                        &format!(
                                            "fused residual `{}` has no inferable grid",
                                            nodes[rid].name
                                        ),
                                        &path_to(nodes, rid),
                                    ),
                                    Some(rg) if !rg.scale_compatible(&c) => contradiction(
                                        &mut r,
                                        &node.name,
                                        &node.name,
                                        c,
                                        &format!(
                                            "epilogue step {si} of {}",
                                            path_to(nodes, id)
                                        ),
                                        &nodes[rid].name,
                                        rg,
                                        &path_to(nodes, rid),
                                    ),
                                    _ => {}
                                }
                                cur = Some(c.widened());
                            }
                        }
                        EpiStep::Relu { .. } => {}
                        EpiStep::LeakyRelu { .. } => {
                            if let Some(c) = cur.as_mut() {
                                *c = Grid {
                                    shift: c.shift + LEAKY_ALPHA_FRAC,
                                    ..c.widened()
                                };
                            }
                        }
                    }
                }
                cur
            }
        };
        grids.push(grid);
    }

    GridReport { grids, report: r }
}

/// Transfer for a conv/dense core: the accumulator grid `2^-(fx + fw)` in
/// a wide signed container, or `TQT-V032` if the input edge is untyped.
fn compute_out(
    r: &mut Report,
    nodes: &[IntNode],
    id: usize,
    gin: Option<Grid>,
    w_frac: i32,
) -> Option<Grid> {
    match gin {
        None => {
            uninferable(
                r,
                &nodes[id].name,
                "compute op consumes an edge with no inferable grid",
                &path_to(nodes, id),
            );
            None
        }
        Some(g) => Some(Grid {
            shift: g.shift + w_frac,
            ..g.widened()
        }),
    }
}

/// Transfer for a global average pool over an input of shape `sin`: the
/// exact-sum formulation scales by `1/hw`, which is a grid shift only
/// when `hw` is a power of two.
fn gap_out(
    r: &mut Report,
    nodes: &[IntNode],
    id: usize,
    gin: Option<Grid>,
    sin: &[usize],
) -> Option<Grid> {
    if sin.len() != 4 {
        uninferable(
            r,
            &nodes[id].name,
            "global average pool needs a 4-D input shape to resolve its reduction factor",
            &path_to(nodes, id),
        );
        return None;
    }
    let hw = sin[2] * sin[3];
    if !hw.is_power_of_two() {
        uninferable(
            r,
            &nodes[id].name,
            &format!(
                "global average pool reduces over {hw} elements; the 1/{hw} scale \
                 is not a power of two, so the output grid is not expressible"
            ),
            &path_to(nodes, id),
        );
        return None;
    }
    match gin {
        None => {
            uninferable(
                r,
                &nodes[id].name,
                "global average pool consumes an edge with no inferable grid",
                &path_to(nodes, id),
            );
            None
        }
        Some(g) => Some(Grid {
            shift: g.shift + hw.trailing_zeros() as i32,
            ..g.widened()
        }),
    }
}

/// The producer chain of float node `id`, rendered like
/// [`path_to`] for counterexample messages.
fn float_path(g: &Graph, id: usize) -> String {
    let mut chain = Vec::new();
    let mut cur = id;
    loop {
        chain.push(g.node(cur).name.as_str());
        match g.node(cur).inputs.first() {
            Some(&p) if p < cur => cur = p,
            _ => break,
        }
    }
    chain.reverse();
    chain.join(" -> ")
}

/// Grid-type inference over a calibrated float [`Graph`] — the same
/// transfer functions as [`infer_int_grids`], applied before lowering so
/// contradictions are caught at the stage that can still fix them (by
/// re-tying thresholds or running the `rebalance` pass after lowering).
/// `input_dims` resolves pooling reduction factors via shape inference.
pub fn infer_float_grids(g: &Graph, input_dims: &[usize]) -> GridReport {
    let n = g.len();
    let mut r = Report::new();
    let shapes = crate::shape::infer_shapes(g, input_dims).shapes;
    let mut grids: Vec<Option<Grid>> = vec![None; n];

    for (id, node) in g.iter() {
        if node.inputs.iter().any(|&i| i >= id) {
            continue; // structural failure, owned by check_structure
        }
        let gin = node.inputs.first().and_then(|&i| grids[i]);
        grids[id] = match &node.op {
            Op::Input => None,
            Op::Quant { tid } => match g.thresholds().get(*tid) {
                Some(ts) if ts.calibrated => {
                    let to = Grid::new(
                        1,
                        ts.spec.fractional_length(ts.log2_t()),
                        0,
                        ts.spec.bits(),
                        ts.spec.signed(),
                    );
                    if let Some(from) = gin {
                        check_coercion(&mut r, &node.name, from, to, &float_path(g, id));
                    }
                    Some(to)
                }
                _ => {
                    // Dangling tid is a TQT-V001, uncalibrated a TQT-V006;
                    // either way the edge's grid cannot be derived.
                    uninferable(
                        &mut r,
                        &node.name,
                        "quantization site has no calibrated threshold; grid uninferable",
                        &float_path(g, id),
                    );
                    None
                }
            },
            Op::Conv(_) | Op::Depthwise(_) | Op::Dense(_) => {
                let wf = node
                    .wq
                    .as_ref()
                    .and_then(|wq| g.thresholds().get(wq.tid))
                    .filter(|ts| ts.calibrated)
                    .map(|ts| ts.spec.fractional_length(ts.log2_t()));
                match (gin, wf) {
                    (Some(gi), Some(w_frac)) => Some(Grid {
                        shift: gi.shift + w_frac,
                        ..gi.widened()
                    }),
                    (None, _) => {
                        uninferable(
                            &mut r,
                            &node.name,
                            "compute op consumes an edge with no inferable grid",
                            &float_path(g, id),
                        );
                        None
                    }
                    (_, None) => {
                        // Missing quantizer is a TQT-V004; here it just
                        // means the accumulator grid cannot be derived.
                        uninferable(
                            &mut r,
                            &node.name,
                            "compute op has no calibrated weight quantizer; accumulator \
                             grid uninferable",
                            &float_path(g, id),
                        );
                        None
                    }
                }
            }
            Op::Relu(rl) => match (gin, rl.negative_slope() > 0.0) {
                (Some(gi), true) => Some(Grid {
                    shift: gi.shift + LEAKY_ALPHA_FRAC,
                    ..gi.widened()
                }),
                (Some(gi), false) => Some(gi),
                (None, _) => {
                    uninferable(
                        &mut r,
                        &node.name,
                        "relu consumes an edge with no inferable grid",
                        &float_path(g, id),
                    );
                    None
                }
            },
            Op::GlobalAvgPool(_) => {
                let sin = node
                    .inputs
                    .first()
                    .and_then(|&i| shapes.get(i))
                    .map(|s| s.as_slice())
                    .unwrap_or(&[]);
                match (gin, sin.len() == 4 && (sin[2] * sin[3]).is_power_of_two()) {
                    (Some(gi), true) => Some(Grid {
                        shift: gi.shift + (sin[2] * sin[3]).trailing_zeros() as i32,
                        ..gi.widened()
                    }),
                    (Some(_), false) => {
                        uninferable(
                            &mut r,
                            &node.name,
                            "global average pool reduction factor is not a resolvable \
                             power of two; output grid not expressible",
                            &float_path(g, id),
                        );
                        None
                    }
                    (None, _) => {
                        uninferable(
                            &mut r,
                            &node.name,
                            "global average pool consumes an edge with no inferable grid",
                            &float_path(g, id),
                        );
                        None
                    }
                }
            }
            Op::Add(_) | Op::Concat(_) => {
                let in_grids: Vec<Option<Grid>> =
                    node.inputs.iter().map(|&i| grids[i]).collect();
                let first = in_grids.first().copied().flatten();
                for (slot, gi) in in_grids.iter().enumerate() {
                    match (gi, first) {
                        (None, _) => uninferable(
                            &mut r,
                            &node.name,
                            &format!(
                                "merge operand {slot} (`{}`) has no inferable grid",
                                g.node(node.inputs[slot]).name
                            ),
                            &float_path(g, node.inputs[slot]),
                        ),
                        (Some(gi), Some(g0)) if slot > 0 && !gi.scale_compatible(&g0) => {
                            contradiction(
                                &mut r,
                                &node.name,
                                &g.node(node.inputs[0]).name,
                                g0,
                                &float_path(g, node.inputs[0]),
                                &g.node(node.inputs[slot]).name,
                                *gi,
                                &float_path(g, node.inputs[slot]),
                            );
                        }
                        _ => {}
                    }
                }
                if matches!(node.op, Op::Add(_)) {
                    first.map(Grid::widened)
                } else {
                    first
                }
            }
            // Value-preserving data movement (and the stage-lint-owned
            // batch-norm/avg-pool survivors): the grid passes through.
            Op::Identity | Op::MaxPool(_) | Op::Flatten(_) | Op::AvgPool(_) | Op::BatchNorm(_) => {
                gin
            }
        };
    }

    GridReport { grids, report: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_fixedpoint::lower::IntNode;

    fn q(frac: i32, bits: u32) -> QFormat {
        QFormat::new(frac, bits, true)
    }

    /// input -> qin -> rq -> relu: every edge gets a grid, no findings.
    #[test]
    fn straight_chain_is_well_typed() {
        let nodes = vec![
            IntNode { name: "input".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: None }, inputs: vec![2] },
        ];
        let ig = IntGraph::from_parts(nodes, 3);
        let gr = infer_int_grids(&ig, &[1, 4]);
        assert!(gr.typed(), "{}", gr.report);
        assert_eq!(gr.grids[1], Some(Grid::new(1, 4, 0, 8, true)));
        assert_eq!(gr.grids[2], Some(Grid::new(1, 2, 0, 8, true)));
        assert_eq!(gr.grids[3], Some(Grid::new(1, 2, 0, 8, true)));
    }

    /// Merge-compatibility ignores container width, identity does not.
    #[test]
    fn grid_compatibility_semantics() {
        let a = Grid::new(1, 4, 0, 8, true);
        let wide = a.widened();
        assert!(a.scale_compatible(&wide));
        assert_ne!(a, wide, "identity (V033) must distinguish container width");
        assert!(!a.scale_compatible(&Grid::new(1, 3, 0, 8, true)));
        assert!(!a.scale_compatible(&Grid::new(1, 4, 1, 8, true)));
    }

    /// The add transfer widens the container but keeps the scale.
    #[test]
    fn add_widens_to_accumulator() {
        let nodes = vec![
            IntNode { name: "input".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 { format: q(3, 8) },
                inputs: vec![0],
            },
            IntNode {
                name: "ra".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode {
                name: "rb".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![2, 3] },
        ];
        let ig = IntGraph::from_parts(nodes, 4);
        let gr = infer_int_grids(&ig, &[1, 4]);
        assert!(gr.typed(), "{}", gr.report);
        assert_eq!(gr.grids[4], Some(Grid::new(1, 2, 0, 64, true)));
    }
}
