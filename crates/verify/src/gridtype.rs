//! Grid type system: whole-graph quantization-format inference over both
//! IRs.
//!
//! Every edge of a quantized graph carries values on exactly one
//! *quantization grid* — `value = scale_num · 2^-shift · (int - zp)` — and
//! the paper's fixed-point mapping (§3, eq. 3–5) only composes when the
//! grids agree wherever values meet. This pass makes that invariant a
//! statically inferred *type system*: a forward dataflow assigns each edge
//! a [`Grid`] type, requires merge operands to agree, and checks every
//! coercion (requant) for subsumption and legality. The per-op transfer
//! functions are not restated here: the integer graph uses the executor
//! plan's rules ([`IntOp::acc_format`], [`EpiStep::out_format`],
//! [`IntOp::pool_format`]) and the float graph folds [`float_grid`], the
//! rule the lowering folds, which is built on them. Violations are
//! reported with stable codes:
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
use tqt_fixedpoint::lower::{EpiStep, IntGraph, IntOp};
use tqt_fixedpoint::{float_grid, QFormat};
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
    fn new(formats: Vec<Option<QFormat>>, report: Report) -> Self {
        let grids = formats.into_iter().map(|f| f.map(Grid::from_format)).collect();
        GridReport { grids, report }
    }

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

/// Reports a `TQT-V031` at merge node `name`: operands `a` and `b`, each
/// `(name, format, deriving path)`, derive incompatible grids; both paths
/// are the counterexample.
fn contradiction(r: &mut Report, name: &str, a: (&str, QFormat, &str), b: (&str, QFormat, &str)) {
    let (ga, gb) = (Grid::from_format(a.1), Grid::from_format(b.1));
    r.push(
        Code::GridContradiction,
        name,
        format!(
            "edge requires two incompatible grid types: operand `{}` derives \
             {ga} via {}, but operand `{}` derives {gb} via {}",
            a.0, a.2, b.0, b.2
        ),
    );
}

/// Grid-type inference over a lowered [`IntGraph`]. `input_dims` is the
/// `[n, c, h, w]` the graph executes on (needed only to resolve pooling
/// reduction factors, via [`infer_int_shapes`]). Runs on unfused and
/// fused graphs alike, with the executor plan's format rules
/// ([`IntOp::acc_format`], [`EpiStep::out_format`], [`IntOp::pool_format`]).
pub fn infer_int_grids(ig: &IntGraph, input_dims: &[usize]) -> GridReport {
    let nodes = ig.nodes();
    let mut r = Report::new();
    let mut formats: Vec<Option<QFormat>> = Vec::with_capacity(nodes.len());
    let shapes = infer_int_shapes(ig, input_dims).shapes;

    for (id, node) in nodes.iter().enumerate() {
        let fin = node.inputs.first().and_then(|&i| formats[i]);
        let untyped_input = |r: &mut Report| {
            uninferable(
                r,
                &node.name,
                "consumes an edge with no inferable grid",
                &path_to(nodes, id),
            )
        };
        let format = match &node.op {
            IntOp::Input => None,
            IntOp::QuantF32 { format } => Some(*format),
            IntOp::MaxPool { .. } | IntOp::Flatten => fin,
            IntOp::GlobalAvgPool => {
                let sin = &shapes[node.inputs[0]];
                let hw = (sin.len() == 4).then(|| sin[2] * sin[3]);
                let out = fin.zip(hw).and_then(|(f, hw)| IntOp::pool_format(f, hw));
                if fin.is_none() {
                    untyped_input(&mut r);
                } else if out.is_none() {
                    uninferable(
                        &mut r,
                        &node.name,
                        &format!(
                            "global average pool over {sin:?} does not reduce a \
                             power-of-two number of elements, so its output grid is \
                             not expressible"
                        ),
                        &path_to(nodes, id),
                    );
                }
                out
            }
            IntOp::Concat => {
                for (slot, &i) in node.inputs.iter().enumerate() {
                    match (formats[i], fin) {
                        (None, _) => uninferable(
                            &mut r,
                            &node.name,
                            &format!(
                                "concat operand {slot} (`{}`) has no inferable grid",
                                nodes[i].name
                            ),
                            &path_to(nodes, i),
                        ),
                        (Some(fi), Some(f0)) if slot > 0 && fi.frac != f0.frac => {
                            let i0 = node.inputs[0];
                            contradiction(
                                &mut r,
                                &node.name,
                                (&nodes[i0].name, f0, &path_to(nodes, i0)),
                                (&nodes[i].name, fi, &path_to(nodes, i)),
                            );
                        }
                        _ => {}
                    }
                }
                fin
            }
            // A conv/dense core (alone or fused) followed by its epilogue:
            // the one step of a standalone requant, relu, leaky relu or add
            // (whose second input is the residual), or a fused chain.
            op => {
                let standalone = op.epi_step();
                let (core, epi, fused) = match op {
                    IntOp::Fused { core, epi } => (&**core, epi.as_slice(), true),
                    _ => (op, standalone.as_slice(), false),
                };
                let at = |si: usize| {
                    if fused {
                        format!("epilogue step {si} of {}", path_to(nodes, id))
                    } else {
                        path_to(nodes, id)
                    }
                };
                // A non-conv/dense fused core is a TQT-V023 (fusion
                // legality), owned by the interval pass.
                let mut cur = fin.map(|f| core.acc_format(f).unwrap_or(f));
                if cur.is_none() {
                    untyped_input(&mut r);
                }
                let mut residuals = node.inputs.iter().skip(1);
                for (si, step) in epi.iter().enumerate() {
                    // An arity short of the residual steps is a TQT-V023,
                    // owned by the interval pass.
                    let residual = match step {
                        EpiStep::AddResidual => residuals.next().map(|&rid| (rid, formats[rid])),
                        _ => None,
                    };
                    match (step, cur, residual) {
                        (EpiStep::Requant { format }, Some(from), _) => check_coercion(
                            &mut r,
                            &node.name,
                            Grid::from_format(from),
                            Grid::from_format(*format),
                            &at(si),
                        ),
                        (_, Some(_), Some((rid, None))) => uninferable(
                            &mut r,
                            &node.name,
                            &format!("residual `{}` has no inferable grid", nodes[rid].name),
                            &path_to(nodes, rid),
                        ),
                        (_, Some(c), Some((rid, Some(rf)))) if rf.frac != c.frac => contradiction(
                            &mut r,
                            &node.name,
                            (&nodes[node.inputs[0]].name, c, &at(si)),
                            (&nodes[rid].name, rf, &path_to(nodes, rid)),
                        ),
                        _ => {}
                    }
                    cur = match step {
                        EpiStep::Requant { format } => Some(*format),
                        _ => cur.map(|f| step.out_format(f)),
                    };
                }
                cur
            }
        };
        formats.push(format);
    }

    GridReport::new(formats, r)
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

/// Grid-type inference over a calibrated float [`Graph`], folding
/// [`float_grid`] — the rule the lowering folds, stated with the integer
/// engine's format rules — so contradictions are caught at the stage that
/// can still fix them (by re-tying thresholds or running the `rebalance`
/// pass after lowering). `input_dims` resolves pooling reduction factors
/// via shape inference; every node the rule refuses, and every non-input
/// node it leaves without a grid, is a `TQT-V032`.
pub fn infer_float_grids(g: &Graph, input_dims: &[usize]) -> GridReport {
    let mut r = Report::new();
    let shapes = crate::shape::infer_shapes(g, input_dims).shapes;
    let mut formats: Vec<Option<QFormat>> = vec![None; g.len()];

    for (id, node) in g.iter() {
        if node.inputs.iter().any(|&i| i >= id) {
            continue; // structural failure, owned by check_structure
        }
        let ins: Vec<Option<QFormat>> = node.inputs.iter().map(|&i| formats[i]).collect();
        let pool_hw = node
            .inputs
            .first()
            .and_then(|&i| shapes.get(i))
            .filter(|s| s.len() == 4)
            .map(|s| s[2] * s[3]);
        formats[id] = match float_grid(g, id, &ins, pool_hw) {
            Ok(None) if !matches!(node.op, Op::Input) => {
                uninferable(
                    &mut r,
                    &node.name,
                    "output has no inferable grid: it reads a float edge, or is a global \
                     average pool whose reduction factor is not a resolvable power of two",
                    &float_path(g, id),
                );
                None
            }
            Ok(f) => f,
            Err(e) => {
                uninferable(&mut r, &node.name, &e.to_string(), &float_path(g, id));
                None
            }
        };
        match (&node.op, ins.first().copied().flatten(), formats[id]) {
            (Op::Quant { .. }, Some(from), Some(to)) => check_coercion(
                &mut r,
                &node.name,
                Grid::from_format(from),
                Grid::from_format(to),
                &float_path(g, id),
            ),
            (Op::Add(_) | Op::Concat(_), Some(f0), _) => {
                for (&i, fi) in node.inputs.iter().zip(&ins).skip(1) {
                    match fi {
                        Some(fi) if fi.frac != f0.frac => contradiction(
                            &mut r,
                            &node.name,
                            (&g.node(node.inputs[0]).name, f0, &float_path(g, node.inputs[0])),
                            (&g.node(i).name, *fi, &float_path(g, i)),
                        ),
                        Some(_) => {}
                        None => uninferable(
                            &mut r,
                            &node.name,
                            &format!("merge operand `{}` has no inferable grid", g.node(i).name),
                            &float_path(g, i),
                        ),
                    }
                }
            }
            _ => {}
        }
    }

    GridReport::new(formats, r)
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
