//! Structural checks and symbolic shape/dtype inference over the float
//! and the lowered graph.
//!
//! Shapes come from the graphs' own per-op rules: [`Op::output_shape`],
//! the one `Graph::infer_shapes` and the float planner use, and
//! [`IntOp::output_shape`](tqt_fixedpoint::lower::IntOp::output_shape),
//! the one the integer planner uses. Both are built from the same
//! dims-level rules in `tqt_graph::shape`. Unlike the planners, which
//! panic on the first inconsistency, these passes keep going after a
//! failure so one run reports every violation.

use crate::diag::{Code, Report};
use tqt_fixedpoint::lower::IntGraph;
use tqt_graph::{Graph, Node, Op};

/// Result of shape inference: one shape per node (empty for nodes whose
/// shape could not be derived), plus every structural/shape finding.
#[derive(Debug)]
pub struct ShapeReport {
    /// Inferred output dims per node, indexed by node id. An empty vec
    /// means inference failed for that node (a diagnostic explains why).
    pub shapes: Vec<Vec<usize>>,
    /// Structural (`TQT-V001`) and shape (`TQT-V002`) findings.
    pub report: Report,
}

/// Expected input arity of an op, as `(min, max)`.
fn arity(op: &Op) -> (usize, usize) {
    match op {
        Op::Input => (0, 0),
        Op::Add(_) => (2, 2),
        Op::Concat(_) => (2, usize::MAX),
        _ => (1, 1),
    }
}

/// Checks graph structure: input/output presence, topological edge order,
/// arity, and threshold-table references. Reports `TQT-V001`.
pub fn check_structure(g: &Graph) -> Report {
    let mut r = Report::new();
    match g.try_input_id() {
        None => r.push_global(Code::Structure, "graph has no input placeholder"),
        Some(i) => {
            if !matches!(g.node(i).op, Op::Input) {
                r.push(Code::Structure, g.node(i).name.clone(), "input id is not an Input op");
            }
        }
    }
    match g.try_output_id() {
        None => r.push_global(Code::Structure, "graph has no output set"),
        Some(o) if o >= g.len() => {
            r.push_global(Code::Structure, format!("output id {o} out of range"))
        }
        _ => {}
    }
    for (id, node) in g.iter() {
        for &i in &node.inputs {
            if i >= id {
                r.push(
                    Code::Structure,
                    node.name.clone(),
                    format!("input edge {i} is not an earlier node (ids must be topological)"),
                );
            }
        }
        let (lo, hi) = arity(&node.op);
        let n = node.inputs.len();
        if n < lo || n > hi {
            r.push(
                Code::Structure,
                node.name.clone(),
                format!("op `{}` expects {lo}..={hi} inputs, has {n}", op_desc(node)),
            );
        }
        if let Op::Quant { tid } = node.op {
            if tid >= g.thresholds().len() {
                r.push(
                    Code::Structure,
                    node.name.clone(),
                    format!("quant references threshold {tid}, table has {}", g.thresholds().len()),
                );
            }
        }
        if let Some(wq) = &node.wq {
            if wq.tid >= g.thresholds().len() {
                r.push(
                    Code::Structure,
                    node.name.clone(),
                    format!(
                        "weight quantizer references threshold {}, table has {}",
                        wq.tid,
                        g.thresholds().len()
                    ),
                );
            }
            if !node.op.is_compute() {
                r.push(
                    Code::Structure,
                    node.name.clone(),
                    format!("non-compute op `{}` carries a weight quantizer", op_desc(node)),
                );
            }
        }
    }
    r
}

fn op_desc(node: &Node) -> &'static str {
    node.op.name()
}

/// Symbolic shape inference over [`Op::output_shape`]. `input_dims` is the
/// `[n, c, h, w]` the graph will execute on. Reports `TQT-V002` for every
/// inconsistency found; nodes downstream of a failure get an empty shape
/// and are skipped rather than cascading spurious findings.
pub fn infer_shapes(g: &Graph, input_dims: &[usize]) -> ShapeReport {
    fold_shapes(
        g.iter().map(|(_, node)| (node.name.as_str(), node.inputs.as_slice())),
        g.len(),
        |id, ins| g.node(id).op.output_shape(ins, input_dims),
    )
}

/// [`infer_shapes`] for a lowered (unfused or fused) [`IntGraph`], over
/// [`IntOp::output_shape`](tqt_fixedpoint::lower::IntOp::output_shape):
/// every inconsistency is a `TQT-V002` at the offending node, and
/// downstream nodes are skipped.
pub fn infer_int_shapes(ig: &IntGraph, input_dims: &[usize]) -> ShapeReport {
    let nodes = ig.nodes();
    fold_shapes(
        nodes.iter().map(|node| (node.name.as_str(), node.inputs.as_slice())),
        nodes.len(),
        |id, ins| nodes[id].op.output_shape(ins, input_dims),
    )
}

/// Folds a per-node shape `rule(id, input shapes)` over `n` nodes given as
/// `(name, inputs)` in id order, reporting each failure as `TQT-V002`.
fn fold_shapes<'a>(
    nodes: impl Iterator<Item = (&'a str, &'a [usize])>,
    n: usize,
    rule: impl Fn(usize, &[&[usize]]) -> Result<Vec<usize>, String>,
) -> ShapeReport {
    let mut r = Report::new();
    let mut shapes: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, (name, inputs)) in nodes.enumerate() {
        // Structural problems are check_structure's job; here just avoid
        // indexing out of range.
        if inputs.iter().any(|&i| i >= id) {
            continue;
        }
        let ins: Vec<&[usize]> = inputs.iter().map(|&i| shapes[i].as_slice()).collect();
        if ins.iter().any(|s| s.is_empty()) {
            continue; // upstream failure already reported
        }
        match rule(id, &ins) {
            Ok(s) => shapes[id] = s,
            Err(detail) => r.push(Code::Shape, name, detail),
        }
    }
    ShapeReport { shapes, report: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_nn::{Conv2d, Dense, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn toy() -> Graph {
        let mut rng = init::rng(7);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r = g.add("r1", Op::Relu(Relu::new()), &[c]);
        g.set_output(r);
        g
    }

    #[test]
    fn clean_graph_infers_shapes() {
        let g = toy();
        assert!(check_structure(&g).is_clean());
        let sr = infer_shapes(&g, &[2, 3, 16, 16]);
        assert!(sr.report.is_clean(), "{}", sr.report);
        assert_eq!(sr.shapes[g.output_id()], vec![2, 8, 16, 16]);
    }

    #[test]
    fn channel_mismatch_is_v002() {
        let g = toy();
        // 5 channels into a conv built for 3.
        let sr = infer_shapes(&g, &[2, 5, 16, 16]);
        assert!(sr.report.has(Code::Shape), "{}", sr.report);
        // Downstream nodes do not cascade extra findings.
        assert_eq!(sr.report.diags.len(), 1, "{}", sr.report);
    }

    #[test]
    fn missing_output_is_v001() {
        let mut rng = init::rng(3);
        let mut g = Graph::new();
        let x = g.add_input("x");
        g.add("d", Op::Dense(Dense::new("d", 4, 2, &mut rng)), &[x]);
        let r = check_structure(&g);
        assert!(r.has(Code::Structure), "{r}");
    }
}
