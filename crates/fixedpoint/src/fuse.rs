//! Graph-level epilogue fusion over [`IntGraph`]: collapses
//! `conv → relu → requant`, `conv → leaky-relu → requant`,
//! `conv → requant → add (→ relu) → requant`,
//! and `dense → requant` chains into single [`IntOp::Fused`] nodes whose
//! epilogue runs in the GEMM tile store ([`crate::intgemm`]), so the
//! chain's intermediate tensors — including the wide raw-accumulator
//! buffer — disappear from the executor's slot plan entirely.
//!
//! The pass is purely *syntactic*: a chain is fused when every
//! intermediate value has exactly one consumer and the shape of the ops
//! matches one of the fusable epilogue steps. Semantic legality (shift
//! ranges, matching grids at the residual add, accumulator bounds
//! through the fused path) is the verifier's job — `tqt-verify` extends
//! its interval dataflow over fused nodes and refutes illegal fusions
//! with `TQT-V023`, and `checked_fuse` wraps this pass the way
//! `checked_optimize` wraps the float pipeline.
//!
//! Fusion cannot change results: a fused [`EpiStep`] and the standalone
//! node it replaces are the same step (`IntOp::epi_step`), resolved by
//! the same `TileStep::resolve` and run by the same per-element tail
//! ([`crate::intgemm`]); `tests/fusion_parity.rs` checks outputs and total
//! saturation/overflow counts bit-identical across the zoo.
//!
//! The pass composes with [`crate::rebalance`]: a rebalancing coercion
//! inserted on a single-consumer conv/dense chain is an ordinary
//! [`IntOp::Requant`], so chain discovery absorbs it like any other
//! member — the epilogue simply carries two consecutive
//! [`EpiStep::Requant`] steps (site requant, then coercion) and the
//! rebalanced intermediate never materializes a buffer.

use crate::lower::{EpiStep, IntGraph, IntNode, IntOp, NodeProv, Provenance};

/// One discovered fusable chain, in old-graph node ids.
struct Chain {
    /// The producing conv/dense node.
    core: usize,
    /// The last member; the fused node is emitted at its position so the
    /// residual operand (whose id may lie between core and add) is still
    /// topologically earlier in the rebuilt graph.
    anchor: usize,
    /// The epilogue, one step per post-core member.
    epi: Vec<EpiStep>,
    /// The residual operand of the chain's `Add`, if any.
    residual: Option<usize>,
    /// All members in chain order (`core` first, then one per epi step).
    members: Vec<usize>,
}

/// What one fusion rewrite did to a chain, in *names* (stable across the
/// node renumbering the rewrite performs): the fused node's name plus the
/// standalone members it replaced, chain order. This is how the
/// translation validator re-keys a [`Provenance`] map onto the fused
/// graph — see [`Provenance::record_fusion`].
#[derive(Debug, Clone)]
pub struct ChainRecord {
    /// Name of the emitted fused node (`"<core>..<anchor>"`).
    pub fused_name: String,
    /// Names of the replaced standalone members, core first.
    pub members: Vec<String>,
}

impl Provenance {
    /// Extends the map over a fusion rewrite: each [`ChainRecord`] gains a
    /// [`NodeProv::Fused`] entry under the fused node's name, pointing at
    /// the member entries recorded by the original lowering (which stay in
    /// the map and keep their meaning).
    pub fn record_fusion(&mut self, chains: &[ChainRecord]) {
        for ch in chains {
            self.insert(
                ch.fused_name.clone(),
                NodeProv::Fused {
                    members: ch.members.clone(),
                },
            );
        }
    }
}

/// Fuses every eligible chain of `g`, returning the rewritten graph.
/// Non-chain nodes and non-fusable chains (multi-consumer intermediates,
/// a second residual add) are kept verbatim.
pub fn fuse(g: IntGraph) -> IntGraph {
    fuse_with_chains(g).0
}

/// [`fuse`], additionally returning one [`ChainRecord`] per fused chain so
/// provenance maps can follow the rewrite.
pub fn fuse_with_chains(g: IntGraph) -> (IntGraph, Vec<ChainRecord>) {
    let (nodes, output) = g.into_parts();
    let n = nodes.len();

    let mut uses = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, node) in nodes.iter().enumerate() {
        for &i in &node.inputs {
            uses[i] += 1;
            consumers[i].push(id);
        }
    }

    // Discover chains in topological order, claiming members so no node
    // joins two chains (the residual branch of a fused add keeps — and
    // may separately fuse — its own chain up to the add).
    let mut claimed = vec![false; n];
    let mut chains: Vec<Chain> = Vec::new();
    for id in 0..n {
        if claimed[id]
            || !matches!(
                nodes[id].op,
                IntOp::Conv { .. } | IntOp::Dense { .. }
            )
        {
            continue;
        }
        let mut members = vec![id];
        let mut epi: Vec<EpiStep> = Vec::new();
        let mut residual: Option<usize> = None;
        let mut tail = id;
        loop {
            // The chain value must be consumed exactly once and not be
            // the pinned graph output.
            if uses[tail] != 1 || tail == output {
                break;
            }
            let c = consumers[tail][0];
            if claimed[c] {
                break;
            }
            let Some(step) = nodes[c].op.epi_step() else {
                break;
            };
            if step == EpiStep::AddResidual {
                let other = if nodes[c].inputs[0] == tail {
                    nodes[c].inputs[1]
                } else {
                    nodes[c].inputs[0]
                };
                if residual.is_some() || members.contains(&other) {
                    break;
                }
                residual = Some(other);
            }
            epi.push(step);
            members.push(c);
            tail = c;
        }
        if members.len() == 1 {
            continue;
        }
        for &m in &members {
            claimed[m] = true;
        }
        chains.push(Chain {
            core: id,
            anchor: tail,
            epi,
            residual,
            members,
        });
    }

    let records: Vec<ChainRecord> = chains
        .iter()
        .map(|ch| ChainRecord {
            fused_name: format!(
                "{}..{}",
                nodes[ch.core].name, nodes[ch.anchor].name
            ),
            members: ch.members.iter().map(|&m| nodes[m].name.clone()).collect(),
        })
        .collect();

    // Rebuild: intermediates vanish, each chain materializes one Fused
    // node at its anchor's position, everything else is remapped.
    let mut anchor_chain = vec![usize::MAX; n];
    for (ci, ch) in chains.iter().enumerate() {
        anchor_chain[ch.anchor] = ci;
    }
    let mut nodes: Vec<Option<IntNode>> = nodes.into_iter().map(Some).collect();
    let mut newid = vec![usize::MAX; n];
    let mut out_nodes: Vec<IntNode> = Vec::with_capacity(n);
    for id in 0..n {
        let ci = anchor_chain[id];
        if claimed[id] && ci == usize::MAX {
            continue; // chain intermediate: no buffer, no node
        }
        let node = nodes[id].take().unwrap(); // tqt:allow(unwrap): each old id is taken exactly once
        let new = if ci != usize::MAX {
            let ch = &chains[ci];
            let core = nodes[ch.core].take().unwrap(); // tqt:allow(unwrap): chain cores are never anchors
            let mut inputs = vec![newid[core.inputs[0]]];
            if let Some(r) = ch.residual {
                inputs.push(newid[r]);
            }
            IntNode {
                name: format!("{}..{}", core.name, node.name),
                op: IntOp::Fused {
                    core: Box::new(core.op),
                    epi: ch.epi.clone(),
                },
                inputs,
            }
        } else {
            IntNode {
                name: node.name,
                op: node.op,
                inputs: node.inputs.iter().map(|&i| newid[i]).collect(),
            }
        };
        debug_assert!(
            new.inputs.iter().all(|&i| i != usize::MAX),
            "fused graph references an eliminated intermediate"
        );
        newid[id] = out_nodes.len();
        out_nodes.push(new);
    }
    (IntGraph::from_parts(out_nodes, newid[output]), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtensor::QFormat;
    use tqt_tensor::conv::Conv2dGeom;

    fn q(frac: i32, bits: u32) -> QFormat {
        QFormat::new(frac, bits, true)
    }

    fn conv_op(cin: usize, cout: usize, seed: i64) -> IntOp {
        let k = 3usize;
        IntOp::Conv {
            w: (0..cout * cin * k * k)
                .map(|v| (v as i64 * 7 + seed) % 5 - 2)
                .collect(),
            wdims: [cout, cin, k, k],
            bias: Some((0..cout).map(|v| v as i64 - 1).collect()),
            geom: Conv2dGeom::same(k),
            depthwise: false,
            w_frac: 4,
        }
    }

    /// in → q → conv → relu → rq → out, the canonical non-residual chain.
    fn conv_relu_rq_graph() -> IntGraph {
        let nodes = vec![
            IntNode { name: "in".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode { name: "conv".into(), op: conv_op(2, 3, 0), inputs: vec![1] },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: None }, inputs: vec![2] },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![3],
            },
        ];
        IntGraph::from_parts(nodes, 4)
    }

    /// A residual block: two conv→rq branches into add → relu → rq.
    fn residual_graph() -> IntGraph {
        let nodes = vec![
            IntNode { name: "in".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode { name: "cmain".into(), op: conv_op(2, 2, 1), inputs: vec![1] },
            IntNode {
                name: "rqm".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![2],
            },
            IntNode { name: "cshort".into(), op: conv_op(2, 2, 2), inputs: vec![1] },
            IntNode {
                name: "rqs".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![4],
            },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![3, 5] },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: Some(90) }, inputs: vec![6] },
            IntNode {
                name: "rqo".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![7],
            },
        ];
        IntGraph::from_parts(nodes, 8)
    }

    #[test]
    fn conv_relu_requant_collapses_to_one_node() {
        let fused = fuse(conv_relu_rq_graph());
        // in, q, fused — the relu and requant are gone.
        assert_eq!(fused.nodes().len(), 3);
        let node = &fused.nodes()[2];
        match &node.op {
            IntOp::Fused { core, epi } => {
                assert!(matches!(**core, IntOp::Conv { .. }));
                assert_eq!(
                    epi,
                    &vec![
                        EpiStep::Relu { cap_q: None },
                        EpiStep::Requant { format: q(3, 8) }
                    ]
                );
            }
            other => panic!("expected fused node, got {other:?}"),
        }
        assert_eq!(fused.output_id(), 2);
    }

    #[test]
    fn residual_block_fuses_both_branches() {
        let fused = fuse(residual_graph());
        // in, q, fused(cshort..rqs), fused(cmain..rqo): the main branch
        // absorbs the add/relu/final-requant, the shortcut keeps its own
        // conv→requant fusion and becomes the residual operand.
        assert_eq!(fused.nodes().len(), 4);
        let main = fused
            .nodes()
            .iter()
            .find(|nd| nd.inputs.len() == 2)
            .expect("one fused node carries the residual input");
        match &main.op {
            IntOp::Fused { epi, .. } => assert_eq!(
                epi,
                &vec![
                    EpiStep::Requant { format: q(3, 8) },
                    EpiStep::AddResidual,
                    EpiStep::Relu { cap_q: Some(90) },
                    EpiStep::Requant { format: q(2, 8) },
                ]
            ),
            other => panic!("expected fused main branch, got {other:?}"),
        }
        // The residual operand is itself a fused conv→requant node.
        let res = &fused.nodes()[main.inputs[1]];
        match &res.op {
            IntOp::Fused { epi, .. } => {
                assert_eq!(epi, &vec![EpiStep::Requant { format: q(3, 8) }]);
            }
            other => panic!("expected fused shortcut, got {other:?}"),
        }
    }

    #[test]
    fn chain_fuses_through_rebalance_coercion() {
        // Unmerged residual block (rqm on f3, rqs on f2): rebalance inserts
        // a coercion after rqm, and the main chain must fuse straight
        // through it — two consecutive requant epilogue steps.
        let nodes = vec![
            IntNode { name: "in".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode { name: "cmain".into(), op: conv_op(2, 2, 5), inputs: vec![1] },
            IntNode {
                name: "rqm".into(),
                op: IntOp::Requant { format: q(3, 8) },
                inputs: vec![2],
            },
            IntNode { name: "cshort".into(), op: conv_op(2, 2, 6), inputs: vec![1] },
            IntNode {
                name: "rqs".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![4],
            },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![3, 5] },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: None }, inputs: vec![6] },
            IntNode {
                name: "rqo".into(),
                op: IntOp::Requant { format: q(2, 8) },
                inputs: vec![7],
            },
        ];
        let g = IntGraph::from_parts(nodes, 8);
        let (rg, records) = crate::rebalance::rebalance_with_records(g);
        assert_eq!(records.len(), 1, "the unmerged add must be repaired");
        let fused = fuse(rg);
        // in, q, fused(cshort..rqs), fused(cmain..rqo).
        assert_eq!(fused.nodes().len(), 4);
        let main = fused
            .nodes()
            .iter()
            .find(|nd| nd.inputs.len() == 2)
            .expect("main branch carries the residual input");
        match &main.op {
            IntOp::Fused { epi, .. } => assert_eq!(
                epi,
                &vec![
                    EpiStep::Requant { format: q(3, 8) },
                    EpiStep::Requant { format: q(2, 8) }, // the coercion
                    EpiStep::AddResidual,
                    EpiStep::Relu { cap_q: None },
                    EpiStep::Requant { format: q(2, 8) },
                ]
            ),
            other => panic!("expected fused main branch, got {other:?}"),
        }
    }

    #[test]
    fn multi_consumer_intermediate_blocks_fusion() {
        // conv feeds both a relu and (directly) an add: the raw
        // accumulator has two consumers, so nothing may fuse past it.
        let nodes = vec![
            IntNode { name: "in".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode { name: "conv".into(), op: conv_op(2, 2, 3), inputs: vec![1] },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: None }, inputs: vec![2] },
            IntNode { name: "add".into(), op: IntOp::Add, inputs: vec![3, 2] },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let fused = fuse(g);
        assert_eq!(fused.nodes().len(), 5, "no chain may claim the shared conv");
    }

    #[test]
    fn output_node_is_never_absorbed() {
        // conv is the graph output: its value must survive, so the
        // downstream relu (a dead node here) cannot absorb it.
        let nodes = vec![
            IntNode { name: "in".into(), op: IntOp::Input, inputs: vec![] },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q(4, 8) },
                inputs: vec![0],
            },
            IntNode { name: "conv".into(), op: conv_op(2, 2, 4), inputs: vec![1] },
            IntNode { name: "relu".into(), op: IntOp::Relu { cap_q: None }, inputs: vec![2] },
        ];
        let g = IntGraph::from_parts(nodes, 2);
        let fused = fuse(g);
        assert_eq!(fused.nodes().len(), 4);
        assert!(matches!(fused.nodes()[2].op, IntOp::Conv { .. }));
    }
}
