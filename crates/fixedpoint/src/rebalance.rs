//! Requant rebalancing over [`IntGraph`]: closes the codegen half of the
//! unmerged-scale gap (`TQT-V028` / ROADMAP item 2).
//!
//! When the quantize pass did *not* tie the thresholds feeding an
//! eltwise-add or concat, the lowered merge sums values on incommensurate
//! grids — the grid type system (`tqt_verify::gridtype`) refutes such
//! graphs with `TQT-V031`. This pass repairs them: it re-derives each
//! edge's static Q-format with the same transfer functions the executor
//! plan uses, picks one target grid per ill-typed merge, and inserts the
//! minimal set of rebalancing [`IntOp::Requant`] coercions onto the
//! operands that disagree. Well-typed graphs pass through unchanged.
//!
//! Target selection per merge (deterministic):
//!
//! * signedness: signed iff any operand is signed (an unsigned target
//!   would clamp every negative value of a signed operand);
//! * width: the widest operand container;
//! * fractional length: the *coarsest* operand grid, demoted by one more
//!   bit for full-width unsigned operands entering a signed target (their
//!   top code otherwise lands one ulp past the signed maximum). Coercions
//!   are therefore pure right-shifts — never magnifying left-shifts that
//!   would saturate wholesale.
//!
//! Operands already on the target grid get no coercion, and one coercion
//! node is shared by every merge that needs the same `(operand, target)`
//! pair. Inserted nodes are ordinary requants (round-half-even shift +
//! saturation), so the whole certification stack applies unchanged: the
//! rebalanced graph must re-prove under the interval dataflow, the plan
//! verifier, and the translation validator — and `fuse` fuses *through*
//! the inserted coercions into the register-tile epilogue (a coercion on
//! a single-consumer conv/dense chain becomes just one more
//! `EpiStep::Requant`).

use crate::lower::{EpiStep, IntGraph, IntNode, IntOp, NodeProv, Provenance, RoundMode};
use crate::qtensor::QFormat;
use crate::requant::shift_round;
use std::collections::BTreeMap;
use tqt_quant::round_half_even;

/// What rebalancing did to one ill-typed merge node: the target grid every
/// operand was brought onto and the coercion nodes inserted to get there.
#[derive(Debug, Clone)]
pub struct RebalanceRecord {
    /// Name of the repaired add/concat node.
    pub merge: String,
    /// The grid all operands now share.
    pub target: QFormat,
    /// Names of the inserted coercion requants (one per operand that was
    /// not already on the target grid; shared nodes appear in every record
    /// that uses them).
    pub coerced: Vec<String>,
}

impl Provenance {
    /// Extends the map over a rebalance rewrite: every inserted coercion
    /// gains the [`NodeProv::Quant`] entry of an ordinary symmetric
    /// round-half-even requant, so the translation validator can prove it
    /// bit-exact like any lowered quantization site.
    pub fn record_rebalance(&mut self, records: &[RebalanceRecord]) {
        for rec in records {
            for name in &rec.coerced {
                self.insert(
                    name.clone(),
                    NodeProv::Quant {
                        bits: rec.target.bits,
                        signed: rec.target.signed,
                        frac: rec.target.frac,
                        zero_point: 0,
                        round: RoundMode::HalfEven,
                    },
                );
            }
        }
    }
}

/// Static per-node output Q-formats, from the same format rules the
/// executor plan uses (`IntOp::acc_format`, `EpiStep::out_format`).
/// `None` marks formats that need shapes to resolve (global average pools)
/// or raw float edges; merges with an unresolved operand are left for the
/// grid-type checker to refute.
fn infer_formats(nodes: &[IntNode]) -> Vec<Option<QFormat>> {
    // A requant's format is its own, so it resolves even after an
    // unresolved edge; every other step needs its input's format.
    let apply = |cur: Option<QFormat>, step: EpiStep| match step {
        EpiStep::Requant { format } => Some(format),
        _ => cur.map(|f| step.out_format(f)),
    };
    let mut fmts: Vec<Option<QFormat>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let fin = node.inputs.first().and_then(|&i| fmts[i]);
        let f = match &node.op {
            IntOp::Input | IntOp::GlobalAvgPool => None,
            IntOp::QuantF32 { format } => Some(*format),
            IntOp::MaxPool { .. } | IntOp::Flatten | IntOp::Concat => fin,
            IntOp::Fused { core, epi } => {
                let acc = fin.and_then(|f| core.acc_format(f));
                epi.iter().fold(acc, |cur, &s| apply(cur, s))
            }
            op => match op.epi_step() {
                Some(s) => apply(fin, s),
                None => fin.and_then(|f| op.acc_format(f)),
            },
        };
        fmts.push(f);
    }
    fmts
}

/// The target grid for one ill-typed merge (see the module doc for the
/// selection rule).
fn select_target(ofmts: &[QFormat]) -> QFormat {
    let signed = ofmts.iter().any(|f| f.signed);
    let bits = ofmts.iter().map(|f| f.bits).max().unwrap_or(8);
    let frac = ofmts
        .iter()
        .map(|f| f.frac - i32::from(signed && !f.signed && f.bits >= bits))
        .min()
        .unwrap_or(0);
    QFormat::new(frac, bits, signed)
}

/// Inserts the minimal rebalancing requants at every add/concat whose
/// operands sit on different grids. Well-typed graphs return unchanged.
pub fn rebalance(g: IntGraph) -> IntGraph {
    rebalance_with_records(g).0
}

/// [`rebalance`], additionally returning one [`RebalanceRecord`] per
/// repaired merge so provenance maps can follow the rewrite
/// ([`Provenance::record_rebalance`]).
pub fn rebalance_with_records(g: IntGraph) -> (IntGraph, Vec<RebalanceRecord>) {
    let (nodes, output) = g.into_parts();
    let n = nodes.len();
    let fmts = infer_formats(&nodes);

    // Decide, per merge, the target grid and which operand slots need a
    // coercion. Merges with an unresolved operand format are skipped (the
    // grid-type checker owns refuting those), as are repairs that would
    // need an unrealizable shift.
    let mut plan_at: Vec<Option<(QFormat, Vec<usize>)>> = vec![None; n];
    for (id, node) in nodes.iter().enumerate() {
        if !matches!(node.op, IntOp::Add | IntOp::Concat) {
            continue;
        }
        let Some(ofmts) = node
            .inputs
            .iter()
            .map(|&i| fmts[i])
            .collect::<Option<Vec<QFormat>>>()
        else {
            continue;
        };
        if ofmts.windows(2).all(|w| w[0] == w[1]) {
            continue;
        }
        let target = select_target(&ofmts);
        if ofmts.iter().any(|f| (f.frac - target.frac).abs() > 63) {
            continue; // unrealizable coercion: leave for TQT-V034
        }
        let slots: Vec<usize> = ofmts
            .iter()
            .enumerate()
            .filter(|(_, f)| **f != target)
            .map(|(s, _)| s)
            .collect();
        plan_at[id] = Some((target, slots));
    }
    if plan_at.iter().all(Option::is_none) {
        return (IntGraph::from_parts(nodes, output), Vec::new());
    }

    // Rebuild, emitting each merge's coercions immediately before it (the
    // operand is earlier, so topological order is preserved). One coercion
    // per distinct (operand, target) pair, shared across merges.
    let mut cache: BTreeMap<(usize, i32, u32, bool), usize> = BTreeMap::new();
    let mut newid = vec![usize::MAX; n];
    let mut out_nodes: Vec<IntNode> = Vec::with_capacity(n + 4);
    let mut records: Vec<RebalanceRecord> = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let mut new_inputs: Vec<usize> = node.inputs.iter().map(|&i| newid[i]).collect();
        if let Some((target, slots)) = &plan_at[id] {
            let mut coerced = Vec::with_capacity(slots.len());
            for &slot in slots {
                let src = node.inputs[slot];
                let key = (src, target.frac, target.bits, target.signed);
                let nid = match cache.get(&key) {
                    Some(&nid) => nid,
                    None => {
                        let name = format!(
                            "{}/rebal_f{}{}{}",
                            nodes[src].name,
                            target.frac,
                            if target.signed { "s" } else { "u" },
                            target.bits
                        );
                        let nid = out_nodes.len();
                        out_nodes.push(IntNode {
                            name,
                            op: IntOp::Requant { format: *target },
                            inputs: vec![newid[src]],
                        });
                        cache.insert(key, nid);
                        nid
                    }
                };
                coerced.push(out_nodes[nid].name.clone());
                new_inputs[slot] = nid;
            }
            records.push(RebalanceRecord {
                merge: node.name.clone(),
                target: *target,
                coerced,
            });
        }
        newid[id] = out_nodes.len();
        out_nodes.push(IntNode {
            name: node.name.clone(),
            op: node.op.clone(),
            inputs: new_inputs,
        });
    }

    // Grid-dependent constants downstream of a repaired merge live on a
    // grid the lowering no longer produces: a ReLU cap sits on its input
    // grid, a conv/dense bias on the accumulator grid (`input frac +
    // w_frac`). Rescale them onto the new grid (round-half-even).
    // `rebalance_with_provenance` re-snaps exactly from the recorded
    // original float constants afterwards; this integer rescale keeps the
    // provenance-free entry points semantically sound on their own.
    let new_fmts = infer_formats(&out_nodes);
    for id in 0..n {
        let nid = newid[id];
        let Some(&old_in) = nodes[id].inputs.first() else {
            continue;
        };
        let (Some(fo), Some(fnew)) = (fmts[old_in], new_fmts[out_nodes[nid].inputs[0]]) else {
            continue;
        };
        if fo.frac == fnew.frac {
            continue;
        }
        let d = fo.frac - fnew.frac;
        match &mut out_nodes[nid].op {
            IntOp::Relu { cap_q: Some(c) } => *c = shift_round(*c, d),
            IntOp::Conv { bias: Some(b), .. } | IntOp::Dense { bias: Some(b), .. } => {
                for v in b.iter_mut() {
                    *v = shift_round(*v, d);
                }
            }
            _ => {}
        }
    }
    (IntGraph::from_parts(out_nodes, newid[output]), records)
}

/// [`rebalance_with_records`] threading a [`Provenance`] map through the
/// rewrite: inserted coercions gain [`NodeProv::Quant`] entries
/// ([`Provenance::record_rebalance`]), and every capped ReLU whose input
/// grid changed under an upstream repair is re-snapped *exactly* from its
/// recorded original float cap — with its [`NodeProv::Relu`] grid updated
/// to match — so the translation validator can prove the rebalanced graph
/// bit-exact end to end.
pub fn rebalance_with_provenance(
    g: &IntGraph,
    prov: &Provenance,
) -> (IntGraph, Provenance, Vec<RebalanceRecord>) {
    let (rg, records) = rebalance_with_records(g.clone());
    let mut rprov = prov.clone();
    rprov.record_rebalance(&records);
    if records.is_empty() {
        return (rg, rprov, records);
    }
    let (mut nodes, output) = rg.into_parts();
    let fracs: Vec<Option<i32>> = infer_formats(&nodes)
        .iter()
        .map(|f| f.map(|q| q.frac))
        .collect();
    for node in &mut nodes {
        let Some(&in_id) = node.inputs.first() else {
            continue;
        };
        let Some(fin) = fracs[in_id] else {
            continue;
        };
        let name = node.name.clone();
        match &mut node.op {
            // Every ReLU's provenance records the grid it executes on
            // (the validator checks it even for capless ones): re-key each
            // one whose input grid changed, re-snapping the cap exactly
            // from the recorded original where present.
            IntOp::Relu { cap_q } => {
                let (orig_cap, old_frac) = match rprov.get(&name) {
                    Some(NodeProv::Relu { orig_cap, frac }) => (*orig_cap, *frac),
                    _ => continue,
                };
                if old_frac == fin {
                    continue;
                }
                *cap_q = orig_cap.map(|c| round_half_even(c * 2f32.powi(fin)) as i64);
                rprov.insert(name, NodeProv::Relu { orig_cap, frac: fin });
            }
            // A conv/dense bias is baked on the accumulator grid
            // (`input frac + w_frac`): re-bake it exactly from the
            // original float bias on the new accumulator grid and re-key
            // the recorded `acc_frac`.
            IntOp::Conv { bias, w_frac, .. } | IntOp::Dense { bias, w_frac, .. } => {
                let Some(NodeProv::Compute {
                    orig_w,
                    w_frac: pwf,
                    w_bits,
                    w_signed,
                    orig_bias,
                    acc_frac,
                }) = rprov.get(&name).cloned()
                else {
                    continue;
                };
                let acc_new = fin + *w_frac;
                if acc_frac == acc_new {
                    continue;
                }
                if let Some(ob) = &orig_bias {
                    *bias = Some(
                        ob.iter()
                            .map(|&b| round_half_even(b * 2f32.powi(acc_new)) as i64)
                            .collect(),
                    );
                }
                rprov.insert(
                    name,
                    NodeProv::Compute {
                        orig_w,
                        w_frac: pwf,
                        w_bits,
                        w_signed,
                        orig_bias,
                        acc_frac: acc_new,
                    },
                );
            }
            _ => {}
        }
    }
    (IntGraph::from_parts(nodes, output), rprov, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(frac: i32, bits: u32) -> QFormat {
        QFormat::new(frac, bits, true)
    }

    /// input -> qin -> {ra: f3, rb: f2} -> add: the canonical unmerged
    /// merge the pass must repair.
    fn unmerged_add() -> IntGraph {
        let nodes = vec![
            IntNode { name: "input".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode {
                name: "ra".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![1],
            },
            IntNode {
                name: "rb".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![2, 3] },
        ];
        IntGraph::from_parts(nodes, 4)
    }

    #[test]
    fn repairs_unmerged_add_onto_coarsest_grid() {
        let (rg, records) = rebalance_with_records(unmerged_add());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].merge, "add");
        // Coarsest operand grid wins: f2, so only `ra` (f3) is coerced.
        assert_eq!(records[0].target, q(2, 8));
        assert_eq!(records[0].coerced, vec!["ra/rebal_f2s8".to_string()]);
        assert_eq!(rg.nodes().len(), 6);
        let fmts = infer_formats(rg.nodes());
        let add = rg
            .nodes()
            .iter()
            .position(|nd| nd.name == "add")
            .expect("add survives"); // tqt:allow(expect): test-only lookup
        let ins = &rg.nodes()[add].inputs;
        assert_eq!(fmts[ins[0]], fmts[ins[1]], "operand formats must now agree");
    }

    #[test]
    fn well_typed_graph_passes_through_unchanged() {
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
        let g = IntGraph::from_parts(nodes, 4);
        let (rg, records) = rebalance_with_records(g);
        assert!(records.is_empty());
        assert_eq!(rg.nodes().len(), 5);
    }

    #[test]
    fn mixed_signedness_targets_signed_with_headroom() {
        // u8 f3 + s8 f3: target must be signed, demoted one bit so the
        // unsigned operand's range fits up to one ulp of saturation.
        let nodes = vec![
            IntNode { name: "input".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode {
                name: "ra".into(),
                op: IntOp::Requant { format: QFormat::new(3, 8, false) },
                inputs: vec![1],
            },
            IntNode {
                name: "rb".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![1],
            },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![2, 3] },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let (_, records) = rebalance_with_records(g);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].target, q(2, 8));
        assert_eq!(records[0].coerced.len(), 2, "both operands move to the new grid");
    }

    #[test]
    fn shared_operand_gets_one_coercion_across_merges() {
        // `rb` (f2) feeds two adds whose other operand is f3: both adds
        // coerce rb's partner... and the shared f3 operand `ra` feeds both
        // merges, so its coercion node must be emitted exactly once.
        let nodes = vec![
            IntNode { name: "input".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode {
                name: "ra".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![1],
            },
            IntNode {
                name: "rb".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode {
                name: "rc".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![1],
            },
            IntNode { name: "add1".into(), op: IntOp::Add, inputs: vec![2, 3] },
            IntNode { name: "add2".into(), op: IntOp::Add, inputs: vec![2, 4] },
            IntNode { name: "cat".into(), op: IntOp::Concat, inputs: vec![5, 6] },
        ];
        let g = IntGraph::from_parts(nodes, 7);
        let (rg, records) = rebalance_with_records(g);
        assert_eq!(records.len(), 2);
        let rebals = rg
            .nodes()
            .iter()
            .filter(|nd| nd.name.contains("/rebal_"))
            .count();
        assert_eq!(rebals, 1, "the shared (ra, f2) coercion is emitted once");
    }
}
