//! Plan verifier (`TQT-V016`–`TQT-V018`, `TQT-V035`): an independent
//! alias-freedom proof over [`IntPlan`]'s buffer-slot assignment, and an
//! independent re-derivation of every GEMM node's kernel route.
//!
//! The executor ([`tqt_fixedpoint::IntExecutor`]) reads every operand
//! from, and writes every result into, a small set of reusable slots the
//! planner assigned by liveness analysis. One off-by-one in that
//! analysis silently corrupts inference — a node would read a buffer
//! another node already overwrote — so this pass re-proves the plan from
//! scratch, **treating the planner as untrusted**. It re-derives what it
//! exists to prove without calling the planner:
//!
//! * per-node element counts come from the graph's one shape rule
//!   ([`infer_int_shapes`] over `IntOp::output_shape`; an inconsistency is
//!   `TQT-V002` and ends the check), as the float checker's come from
//!   `Graph::infer_shapes`, and are compared with the plan (`TQT-V018`).
//!   The planner folds the same rule but does not own it: the rule is
//!   tied zoo-wide to the float graph's (`tests/int_shapes.rs`), which is
//!   tied to the reference interpreter's real outputs;
//! * per-node liveness is re-derived (a value is live from its
//!   definition to its last consumer; the graph output is live forever)
//!   and the whole execution is simulated over slot occupancy: every
//!   write into a slot holding a live value is `TQT-V016`, every read
//!   that does not see its producing write is `TQT-V017`, every
//!   capacity shortfall is `TQT-V018`;
//! * the executor's workspace outside the slots — the per-image im2col
//!   checkout of i64-routed convs and the A-panel checkout of i32-routed
//!   nodes, both from the thread-local scratch arenas — is re-derived and
//!   compared with the plan's accounting (`TQT-V018`), proving scratch is
//!   sized and held apart from slot storage (the arenas are distinct
//!   allocations by construction; the sanitizer's `TQT-V022` covers their
//!   checkout discipline at runtime);
//! * every conv/dense node's route is re-derived from the graph alone:
//!   the input's bit-width from this crate's own grid inference
//!   ([`infer_int_grids`]), the i8 fit of every baked weight, and the
//!   per-channel bound `Σₖ|w|·max(|qmin|,|qmax|) < 2³¹` with the clip
//!   limits derived from bits and signedness. Any disagreement with the
//!   plan's route or bound is `TQT-V035`; an i32-routed node's i8 panel
//!   must have the packing contract's dims and length (`TQT-V018`).
//!
//! Every refutation carries the producer-chain path of the offending
//! node as a counterexample. The mutation tests
//! (`crates/verify/tests/plan_mutations.rs`) inject a liveness
//! off-by-one and a premature slot release and assert this pass refutes
//! both with the correct node.

use crate::diag::{Code, Report};
use crate::gridtype::{infer_int_grids, Grid};
use crate::interval::path_to;
use crate::shape::infer_int_shapes;
use tqt_fixedpoint::gemm_i8::{MR, NR};
use tqt_fixedpoint::intgemm::{packed_lhs_len, packed_rhs_len};
use tqt_fixedpoint::lower::{IntGraph, IntOp};
use tqt_fixedpoint::{GemmRoute, IntPlan};
use tqt_graph::fplan::{FloatPlan, ValueKind};
use tqt_graph::{Graph, Op as FOp};
use tqt_tensor::conv::{Conv2dGeom, DX_BLOCK};
use tqt_tensor::gemm::packed_a_len;

/// Independently re-derived facts about one planned graph.
#[derive(Debug)]
struct Derived {
    /// Element count per node (0 for the float-input placeholder).
    lens: Vec<usize>,
    /// Last node id that needs each node's value (`usize::MAX` for the
    /// graph output, which must survive the whole run).
    last_use: Vec<usize>,
    /// im2col scratch high-water mark in elements (i64-routed convs).
    scratch_elems: usize,
    /// i32-route scratch high-water mark in i32 elements.
    panel_scratch_elems: usize,
}

/// The i32 route's per-block checkout for a conv (i32 elements): the
/// `⌈k/2⌉·MR` A panel, the input image zero-padded on every side, and
/// one tap offset per reduction index.
fn window_ws(k: usize, ish: &[usize], geom: &Conv2dGeom) -> usize {
    let padded = ish[1] * (ish[2] + 2 * geom.pad) * (ish[3] + 2 * geom.pad);
    k.div_ceil(2) * MR + padded + k
}

/// Re-derives a plan's storage facts without calling the planner: element
/// counts from the per-node `shapes` of the graph's shape rule, liveness
/// from the edges, and the workspace checkouts from the kernel contracts.
/// `acc32[id]` marks the nodes whose re-derived route is i32: they take
/// the i32 route's checkout ([`window_ws`] for a conv, the `⌈k/2⌉·MR` A
/// panel for a dense layer) instead of an im2col buffer.
fn derive(g: &IntGraph, shapes: &[Vec<usize>], acc32: &[bool]) -> Derived {
    let nodes = g.nodes();
    let n = nodes.len();
    let mut scratch_elems = 0usize;
    let mut panel_scratch_elems = 0usize;
    for (id, node) in nodes.iter().enumerate() {
        let Some(&i0) = node.inputs.first() else {
            continue;
        };
        let (ish, osh) = (&shapes[i0], &shapes[id]);
        // A fused conv/dense core checks out the same workspace as a
        // standalone one.
        let core = match &node.op {
            IntOp::Fused { core, .. } => core,
            other => other,
        };
        match core {
            IntOp::Conv {
                geom, depthwise, ..
            } => {
                let k = ish[1] * geom.kh * geom.kw;
                if acc32[id] {
                    panel_scratch_elems = panel_scratch_elems.max(window_ws(k, ish, geom));
                } else if !depthwise {
                    // The kernel's per-image im2col checkout:
                    // (c·kh·kw) × (oh·ow) elements.
                    scratch_elems = scratch_elems.max(k * osh[2] * osh[3]);
                }
            }
            IntOp::Dense { in_dim, .. } if acc32[id] => {
                panel_scratch_elems = panel_scratch_elems.max(in_dim.div_ceil(2) * MR);
            }
            _ => {}
        }
    }
    // The float input placeholder owns no integer storage.
    let lens: Vec<usize> = nodes
        .iter()
        .zip(shapes)
        .map(|(node, s)| match node.op {
            IntOp::Input => 0,
            _ => s.iter().product(),
        })
        .collect();
    let mut last_use = vec![0usize; n];
    for (id, node) in nodes.iter().enumerate() {
        for &i in &node.inputs {
            last_use[i] = last_use[i].max(id);
        }
    }
    last_use[g.output_id()] = usize::MAX;
    Derived {
        lens,
        last_use,
        scratch_elems,
        panel_scratch_elems,
    }
}

/// The route a node's GEMM must take, re-derived without the planner:
/// `None` for nodes that run no GEMM (depthwise convs, non-compute ops),
/// `Some(Ok(bound))` for the i32 route with its per-channel bound,
/// `Some(Err(why))` for the i64 route with the reason the i32 route is
/// refused. `input` is the grid this crate's inference derived for the
/// node's input edge.
fn expected_route(op: &IntOp, input: Option<Grid>) -> Option<Result<u64, String>> {
    let core = match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    };
    // Conv filters are `[channels, k]`, dense weights `[k, channels]`.
    let (w, channels, conv) = match core {
        IntOp::Conv {
            w,
            wdims,
            depthwise: false,
            ..
        } => (w, wdims[0], true),
        IntOp::Dense { w, out_dim, .. } => (w, *out_dim, false),
        _ => return None,
    };
    let Some(grid) = input else {
        return Some(Err("the input edge has no inferred grid".into()));
    };
    if grid.bits > 8 {
        return Some(Err(format!("the input grid is {} bits wide (> 8)", grid.bits)));
    }
    if let Some((i, v)) = w.iter().enumerate().find(|(_, v)| !(-128..=127).contains(*v)) {
        return Some(Err(format!("weight {i} = {v} does not fit in i8")));
    }
    // eq. 3 clip limits: [-2^(b-1), 2^(b-1)-1] signed, [0, 2^b-1] unsigned.
    let amax: i128 = if grid.signed {
        1 << (grid.bits - 1)
    } else {
        (1 << grid.bits) - 1
    };
    let mut sums = vec![0i128; channels];
    if conv {
        let k = (w.len() / channels.max(1)).max(1);
        for (sum, filter) in sums.iter_mut().zip(w.chunks_exact(k)) {
            *sum = filter.iter().map(|&v| i128::from(v).abs()).sum();
        }
    } else {
        for row in w.chunks_exact(channels.max(1)) {
            for (sum, &v) in sums.iter_mut().zip(row) {
                *sum += i128::from(v).abs();
            }
        }
    }
    let (ch, worst) = sums
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map_or((0, 0), |(c, &s)| (c, s * amax));
    Some(if worst < 1 << 31 {
        Ok(worst as u64)
    } else {
        Err(format!("channel {ch} bounds |Σ| by {worst} >= 2^31"))
    })
}

/// The packed-panel element count the weight arena must reserve for a
/// node, re-derived from the packing contracts in
/// [`tqt_fixedpoint::intgemm`]: conv weights pack as an MR-tall LHS over
/// `cout × (cin·kh·kw)`, dense weights as an NR-wide RHS over
/// `in_dim × out_dim`. Depthwise convs and non-compute ops pack nothing.
fn expected_panel_len(op: &IntOp) -> Option<usize> {
    let core = match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    };
    match core {
        IntOp::Conv {
            wdims,
            depthwise: false,
            ..
        } => Some(packed_lhs_len(wdims[0], wdims[1] * wdims[2] * wdims[3])),
        IntOp::Dense {
            in_dim, out_dim, ..
        } => Some(packed_rhs_len(*in_dim, *out_dim)),
        _ => None,
    }
}

/// Proves (or refutes, with a counterexample node path) that `plan` is
/// alias-free for `g`: every read sees its producing write, no write
/// lands on a live value, every slot fits its tensors, and scratch
/// accounting matches. A clean [`Report`] is the proof.
pub fn check_plan(g: &IntGraph, plan: &IntPlan) -> Report {
    let mut r = Report::new();
    let nodes = g.nodes();
    let n = nodes.len();
    if plan.num_nodes() != n {
        r.push_global(
            Code::PlanStorage,
            format!("plan covers {} nodes, graph has {n}", plan.num_nodes()),
        );
        return r;
    }
    let shapes = infer_int_shapes(g, plan.input_dims());
    if !shapes.report.is_clean() {
        // The planner panics on these graphs; there are no storage facts
        // to check against.
        return shapes.report;
    }
    let grids = infer_int_grids(g, plan.input_dims()).grids;
    let routes: Vec<Option<Result<u64, String>>> = nodes
        .iter()
        .map(|node| {
            let input = node.inputs.first().and_then(|&i| grids[i]);
            expected_route(&node.op, input)
        })
        .collect();
    let acc32: Vec<bool> = routes.iter().map(|r| matches!(r, Some(Ok(_)))).collect();
    let d = derive(g, &shapes.shapes, &acc32);

    // 0. Kernel routes (V035): the plan's route and bound must be the
    // ones re-derived here, and an i32 route needs its i8 panel (V018).
    for (id, want) in routes.iter().enumerate() {
        let name = &nodes[id].name;
        let got = plan.route(id);
        let disagree = match (got, want) {
            (None, None) | (Some(GemmRoute::I64), Some(Err(_))) => None,
            (Some(GemmRoute::I32 { bound }), Some(Ok(b))) if bound == *b => None,
            (Some(GemmRoute::I32 { bound }), Some(Ok(b))) => Some(format!(
                "plan proves the i32 bound {bound}, re-derivation says {b}"
            )),
            (Some(GemmRoute::I32 { .. }), Some(Err(why))) => {
                Some(format!("plan routes onto i32 accumulation, but {why}"))
            }
            (Some(GemmRoute::I64), Some(Ok(b))) => Some(format!(
                "plan routes onto the i64 kernel, but the i32 bound {b} < 2^31 holds"
            )),
            (Some(route), None) => Some(format!("plan routes a non-GEMM node onto {route:?}")),
            (None, Some(_)) => Some("plan assigns no route to a GEMM node".into()),
        };
        if let Some(msg) = disagree {
            r.push(
                Code::NarrowRoute,
                name,
                format!("{msg} (path: {})", path_to(nodes, id)),
            );
        }
        let core = match &nodes[id].op {
            IntOp::Fused { core, .. } => core.as_ref(),
            other => other,
        };
        // The i8 panel an i32 route needs: `[k, cols]`.
        let dims = match (core, got) {
            (IntOp::Conv { wdims, .. }, Some(GemmRoute::I32 { .. })) => {
                Some((wdims[1] * wdims[2] * wdims[3], wdims[0]))
            }
            (IntOp::Dense { in_dim, out_dim, .. }, Some(GemmRoute::I32 { .. })) => {
                Some((*in_dim, *out_dim))
            }
            _ => None,
        };
        match (plan.weight_panel_i8(id), dims) {
            (Some(p), Some((k, cols))) => {
                let len = cols.div_ceil(NR) * k.div_ceil(2) * 2 * NR;
                if (p.k(), p.n(), p.data().len()) != (k, cols, len) {
                    r.push(
                        Code::PlanStorage,
                        name,
                        format!(
                            "i8 weight panel is {}x{} in {} bytes, packing re-derivation \
                             says {k}x{cols} in {len} (path: {})",
                            p.k(),
                            p.n(),
                            p.data().len(),
                            path_to(nodes, id)
                        ),
                    );
                }
            }
            (None, Some(_)) => r.push(
                Code::PlanStorage,
                name,
                format!("i32-routed node has no i8 weight panel (path: {})", path_to(nodes, id)),
            ),
            (Some(_), None) => r.push(
                Code::PlanStorage,
                name,
                "i8 weight panel assigned to a node not routed onto i32",
            ),
            (None, None) => {}
        }
    }

    // 1. Storage facts: re-derived lengths and slot capacities (V018).
    for id in 0..n {
        if plan.len_of(id) != d.lens[id] {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!(
                    "plan says {} elements, the shape rule says {} (path: {})",
                    plan.len_of(id),
                    d.lens[id],
                    path_to(nodes, id)
                ),
            );
        }
        let s = plan.slot_of(id);
        if s >= plan.num_slots() {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!("assigned slot {s} out of range ({} slots)", plan.num_slots()),
            );
        } else if plan.slot_len(s) < d.lens[id] {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!(
                    "slot {s} holds {} elements but node needs {} (path: {})",
                    plan.slot_len(s),
                    d.lens[id],
                    path_to(nodes, id)
                ),
            );
        }
    }
    if plan.scratch_elems() != d.scratch_elems {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} im2col scratch elements, kernel contracts require {}",
                plan.scratch_elems(),
                d.scratch_elems
            ),
        );
    }
    if plan.panel_scratch_elems() != d.panel_scratch_elems {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} i32-route scratch elements, kernel contracts require {}",
                plan.panel_scratch_elems(),
                d.panel_scratch_elems
            ),
        );
    }

    // 1b. Weight-arena facts (V018): every non-depthwise conv / dense
    // core (standalone or fused) must own a packed panel of the
    // re-derived packed length, inside the arena, pairwise disjoint —
    // a wrong extent would make the GEMM read another layer's weights.
    let arena = plan.weight_arena_elems();
    let mut panels: Vec<(usize, usize, usize)> = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let want = expected_panel_len(&node.op);
        match (plan.weight_panel(id), want) {
            (Some((off, len)), Some(el)) => {
                if len != el {
                    r.push(
                        Code::PlanStorage,
                        &nodes[id].name,
                        format!(
                            "packed weight panel holds {len} elements, packing \
                             re-derivation says {el} (path: {})",
                            path_to(nodes, id)
                        ),
                    );
                } else if off + len > arena {
                    r.push(
                        Code::PlanStorage,
                        &nodes[id].name,
                        format!(
                            "packed weight panel [{off}, {}) escapes the {arena}-element \
                             arena (path: {})",
                            off + len,
                            path_to(nodes, id)
                        ),
                    );
                } else {
                    panels.push((off, len, id));
                }
            }
            (None, Some(_)) => {
                r.push(
                    Code::PlanStorage,
                    &nodes[id].name,
                    format!(
                        "no packed weight panel for a packable core (path: {})",
                        path_to(nodes, id)
                    ),
                );
            }
            (Some(_), None) => {
                r.push(
                    Code::PlanStorage,
                    &nodes[id].name,
                    "packed weight panel assigned to a node with no packable weights",
                );
            }
            (None, None) => {}
        }
    }
    panels.sort_unstable();
    for pair in panels.windows(2) {
        let (off_a, len_a, a) = pair[0];
        let (off_b, _, b) = pair[1];
        if off_a + len_a > off_b {
            r.push(
                Code::PlanStorage,
                &nodes[b].name,
                format!(
                    "packed weight panel at {off_b} overlaps `{}`'s panel \
                     [{off_a}, {})",
                    nodes[a].name,
                    off_a + len_a
                ),
            );
        }
    }

    if !r.is_clean() {
        // Occupancy simulation below indexes by the storage facts just
        // refuted; stop at the stronger finding.
        return r;
    }

    // 2. Occupancy simulation over the re-derived liveness (V016/V017).
    let mut occupant: Vec<Option<usize>> = vec![None; plan.num_slots()];
    for (id, node) in nodes.iter().enumerate() {
        // Reads: each live operand must still be in its slot.
        for &i in &node.inputs {
            if d.lens[i] == 0 {
                continue;
            }
            let s = plan.slot_of(i);
            if occupant[s] != Some(i) {
                let holder = match occupant[s] {
                    Some(v) => format!("now holds `{}`", nodes[v].name),
                    None => "was never written".to_string(),
                };
                r.push(
                    Code::PlanStaleRead,
                    &nodes[id].name,
                    format!(
                        "reads operand `{}` from slot {s}, but the slot {holder} — the \
                         producing write was released or overwritten early \
                         (counterexample path: {})",
                        nodes[i].name,
                        path_to(nodes, id)
                    ),
                );
            }
        }
        // Write: the node's slot must hold no live value.
        if d.lens[id] == 0 {
            continue;
        }
        let s = plan.slot_of(id);
        if let Some(v) = occupant[s] {
            let live = d.last_use[v] >= id && v != id;
            if live {
                let stranded = if d.last_use[v] == usize::MAX {
                    "the graph output".to_string()
                } else {
                    format!("consumer `{}`", nodes[d.last_use[v].min(n - 1)].name)
                };
                r.push(
                    Code::PlanAlias,
                    &nodes[id].name,
                    format!(
                        "writes slot {s} while `{}` (produced at node {v}) is still \
                         live — {stranded} would read clobbered data \
                         (counterexample path: {})",
                        nodes[v].name,
                        path_to(nodes, id)
                    ),
                );
            }
        }
        occupant[s] = Some(id);
    }

    // 3. The graph output must have survived the whole run.
    let out = g.output_id();
    if d.lens[out] > 0 && occupant[plan.slot_of(out)] != Some(out) {
        r.push(
            Code::PlanStaleRead,
            &nodes[out].name,
            format!(
                "graph output no longer occupies slot {} after the final node",
                plan.slot_of(out)
            ),
        );
    }
    r
}

/// Proves (or refutes) that a [`FloatPlan`] — a training-step tape of
/// forward activations, xhats, gradients, and fan-in temps, or a
/// forward-only tape of activations — is alias-free for `g`, extending
/// the `TQT-V016`–`TQT-V018` proofs from inference plans to the float
/// engine. The planner is again untrusted:
///
/// * value element counts are re-derived from the shared symbolic shape
///   rule (`Graph::infer_shapes`, not the planner's stored shapes) and
///   compared per value (`TQT-V018`); the rule itself is checked against
///   the reference interpreter's per-node outputs zoo-wide by the
///   `tqt-models` tests;
/// * the plan-owned `ws`/`wpack`/`qw` arena accounting is re-derived
///   (`TQT-V018`) from the graph's weight quantizers and the kernels'
///   workspace contracts, restated here from the geometry instead of
///   calling the kernels' own sizing functions: per conv image the
///   zero-padded plane and tap table, plus on a training plan one
///   `DX_BLOCK`-pixel block of gradient columns and the weight-gradient
///   partial; depthwise `n·kelems`; `packed_a_len`;
/// * xhat values exist exactly on batch-norm nodes of a training plan and
///   nowhere in a forward-only one;
/// * the forward tape must structurally match the graph (step *i*
///   defines activation *i* and reads exactly node *i*'s inputs), and a
///   forward-only tape has nothing after it;
/// * the whole tape is simulated over slot occupancy with the same
///   clobber/stale-read refutations as the inference checker
///   (`TQT-V016`/`TQT-V017`). Unlike inference plans, a training step may
///   legally write a value and read it in the same step (fan-in temps):
///   reads of earlier-defined values are validated *before* the step's
///   writes land, reads of step-local values after.
///
/// A clean [`Report`] is the proof; the float mutation tests inject a
/// premature slot release into both kinds of plan and assert the
/// refutation names the victim value.
pub fn check_float_plan(g: &Graph, plan: &FloatPlan) -> Report {
    let mut r = Report::new();
    let n = g.len();
    let shapes = g.infer_shapes(plan.input_dims());
    let ref_lens: Vec<usize> = shapes.iter().map(|s| s.iter().product()).collect();
    let nv = plan.num_values();

    // 1. Value storage facts (V018): re-derived lengths, slot ranges and
    // capacities.
    for v in 0..nv {
        let node = plan.kind_of(v).node();
        if node >= n {
            r.push_global(
                Code::PlanStorage,
                format!("value {v} refers to node {node}, graph has {n}"),
            );
            return r;
        }
        let name = plan.value_name(g, v);
        if plan.len_of(v) != ref_lens[node] {
            r.push(
                Code::PlanStorage,
                &name,
                format!(
                    "plan says {} elements, the symbolic shape rule says {}",
                    plan.len_of(v),
                    ref_lens[node]
                ),
            );
        }
        let s = plan.slot_of(v);
        if s >= plan.num_slots() {
            r.push(
                Code::PlanStorage,
                &name,
                format!("assigned slot {s} out of range ({} slots)", plan.num_slots()),
            );
        } else if plan.slot_len(s) < plan.len_of(v) {
            r.push(
                Code::PlanStorage,
                &name,
                format!(
                    "slot {s} holds {} elements but the value needs {}",
                    plan.slot_len(s),
                    plan.len_of(v)
                ),
            );
        }
    }
    // Xhat values must exist exactly on batch-norm nodes of a training
    // plan: the backward pass reads them instead of the raw input. A
    // forward-only pass has no backward to keep them for.
    let training = plan.is_training();
    if !training {
        for v in 0..nv {
            if !matches!(plan.kind_of(v), ValueKind::Act(_)) {
                r.push(
                    Code::PlanStorage,
                    plan.value_name(g, v),
                    "forward-only plan carries a non-activation value",
                );
            }
        }
    }
    for id in 0..n {
        let needs_xhat = training && matches!(g.node(id).op, FOp::BatchNorm(_));
        if plan.xhat_of(id).is_some() != needs_xhat {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                if needs_xhat {
                    "batch-norm node has no planned xhat value"
                } else if training {
                    "non-batch-norm node carries an xhat value"
                } else {
                    "forward-only plan carries an xhat value"
                },
            );
        }
    }

    // 2. Plan-owned arena accounting (V018): mirror the kernel workspace
    // contracts instead of trusting the planner's own sums.
    let (mut ws_need, mut wpack_need, mut qw_total) = (0usize, 0usize, 0usize);
    let mut qw_segs: Vec<(usize, usize, usize)> = Vec::new();
    for id in 0..n {
        let node = g.node(id);
        let ish = &shapes[node.inputs.first().copied().unwrap_or(id)];
        let weight_elems = tqt_graph::ir::op_params(&node.op)
            .into_iter()
            .find(|p| p.kind == tqt_nn::ParamKind::Weight)
            .map(|p| p.value.len());
        match &node.op {
            FOp::Conv(l) => {
                // Per image: the zero-padded plane and one tap offset
                // per reduction row; to train, also one block of
                // gradient columns and the weight-gradient partial.
                let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                let g2 = l.geom();
                let (cout, pixels) = (shapes[id][1], shapes[id][2] * shapes[id][3]);
                let taps = c * g2.kh * g2.kw;
                let staged = c * (h + 2 * g2.pad) * (w + 2 * g2.pad) + taps;
                ws_need = ws_need.max(nb * staged);
                if training {
                    let gcols = taps * pixels.min(DX_BLOCK);
                    ws_need = ws_need.max(nb * (staged + gcols + cout * taps));
                }
                wpack_need = wpack_need.max(packed_a_len(cout, taps));
            }
            FOp::Depthwise(_) => {
                let kelems = weight_elems.unwrap_or(0);
                ws_need = ws_need.max(ish[0] * kelems);
            }
            _ => {}
        }
        match (node.wq.is_some(), plan.qw_seg(id), weight_elems) {
            (true, Some((off, len)), Some(el)) => {
                if len != el {
                    r.push(
                        Code::PlanStorage,
                        &node.name,
                        format!("quantized-weight segment holds {len} elements, weight has {el}"),
                    );
                } else {
                    qw_segs.push((off, len, id));
                }
                qw_total += el;
            }
            (true, None, Some(el)) => {
                r.push(
                    Code::PlanStorage,
                    &node.name,
                    "weight-quantized node has no quantized-weight segment",
                );
                qw_total += el;
            }
            (false, Some(_), _) => {
                r.push(
                    Code::PlanStorage,
                    &node.name,
                    "quantized-weight segment on a node without a weight quantizer",
                );
            }
            _ => {}
        }
    }
    if plan.scratch_elems() != ws_need {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} workspace elements, kernel contracts require {ws_need}",
                plan.scratch_elems()
            ),
        );
    }
    if plan.wpack_elems() != wpack_need {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} packed-filter elements, packing contracts require {wpack_need}",
                plan.wpack_elems()
            ),
        );
    }
    if plan.qw_elems() != qw_total {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} quantized-weight elements, weight quantizers require {qw_total}",
                plan.qw_elems()
            ),
        );
    }
    qw_segs.sort_unstable();
    for pair in qw_segs.windows(2) {
        let (off_a, len_a, a) = pair[0];
        let (off_b, _, b) = pair[1];
        if off_a + len_a > off_b {
            r.push(
                Code::PlanStorage,
                &g.node(b).name,
                format!(
                    "quantized-weight segment at {off_b} overlaps `{}`'s segment [{off_a}, {})",
                    g.node(a).name,
                    off_a + len_a
                ),
            );
        }
    }
    if let Some(&(off, len, ref_id)) = qw_segs.last() {
        if off + len > plan.qw_elems() {
            r.push(
                Code::PlanStorage,
                &g.node(ref_id).name,
                format!(
                    "quantized-weight segment [{off}, {}) escapes the {}-element arena",
                    off + len,
                    plan.qw_elems()
                ),
            );
        }
    }

    // 3. Forward-tape structure: step i must define activation i from
    // exactly node i's inputs (the executor dispatches by node id).
    let steps = plan.steps();
    let tail = if training {
        1 + plan.bwd_steps().len()
    } else {
        0
    };
    if steps.len() != n + tail || (!training && !plan.bwd_steps().is_empty()) {
        r.push_global(
            Code::PlanStorage,
            if training {
                format!(
                    "tape has {} steps; graph requires {n} forward + 1 seed + {} backward",
                    steps.len(),
                    plan.bwd_steps().len()
                )
            } else {
                format!(
                    "forward-only tape has {} steps and {} backward steps; \
                     graph requires {n} forward",
                    steps.len(),
                    plan.bwd_steps().len()
                )
            },
        );
    }
    for (id, st) in steps.iter().enumerate().take(n) {
        if st.writes.first() != Some(&id) {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                "forward step does not define the node's activation first",
            );
        }
        if st.reads != g.node(id).inputs {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                "forward step reads disagree with the node's inputs",
            );
        }
    }

    if !r.is_clean() {
        // The occupancy simulation indexes by the storage facts just
        // refuted; stop at the stronger finding.
        return r;
    }

    // 4. Occupancy simulation over re-derived liveness (V016/V017).
    let mut last_read = vec![0usize; nv];
    for (si, step) in steps.iter().enumerate() {
        for &rd in &step.reads {
            last_read[rd] = last_read[rd].max(si);
        }
    }
    let out_act = g.output_id();
    last_read[out_act] = usize::MAX; // pinned: logits survive the run
    let mut occupant: Vec<Option<usize>> = vec![None; plan.num_slots()];
    let mut defined_at: Vec<Option<usize>> = vec![None; nv];
    for (si, step) in steps.iter().enumerate() {
        // Reads of values defined in earlier steps must still be in
        // their slots *before* this step's writes land.
        for &rd in &step.reads {
            match defined_at[rd] {
                Some(_) => {
                    if occupant[plan.slot_of(rd)] != Some(rd) {
                        stale_read(&mut r, g, plan, rd, si, occupant[plan.slot_of(rd)]);
                    }
                }
                None => {
                    if !step.writes.contains(&rd) {
                        r.push(
                            Code::PlanStaleRead,
                            plan.value_name(g, rd),
                            format!("read at step {si} before any write defines it"),
                        );
                    }
                }
            }
        }
        for &w in &step.writes {
            if defined_at[w].is_some() {
                r.push(
                    Code::PlanStorage,
                    plan.value_name(g, w),
                    format!("defined twice (again at step {si}); the tape is not SSA"),
                );
            }
            let s = plan.slot_of(w);
            if let Some(v) = occupant[s] {
                if v != w && last_read[v] >= si {
                    r.push(
                        Code::PlanAlias,
                        plan.value_name(g, w),
                        format!(
                            "step {si} writes slot {s} while `{}` is still live \
                             (last read at step {}) — the pending consumer would \
                             read clobbered data",
                            plan.value_name(g, v),
                            if last_read[v] == usize::MAX {
                                "end-of-tape (pinned)".to_string()
                            } else {
                                last_read[v].to_string()
                            }
                        ),
                    );
                }
            }
            occupant[s] = Some(w);
            defined_at[w] = Some(si);
        }
        // Same-step write-then-read (fan-in accumulation) is legal;
        // validate those reads now that the writes landed.
        for &rd in &step.reads {
            if defined_at[rd] == Some(si) && occupant[plan.slot_of(rd)] != Some(rd) {
                stale_read(&mut r, g, plan, rd, si, occupant[plan.slot_of(rd)]);
            }
        }
    }

    // 5. The logits must have survived the whole tape.
    if occupant[plan.slot_of(out_act)] != Some(out_act) {
        r.push(
            Code::PlanStaleRead,
            &g.node(out_act).name,
            format!(
                "graph output no longer occupies slot {} after the final step",
                plan.slot_of(out_act)
            ),
        );
    }
    r
}

/// Pushes the V017 refutation for a stranded read, naming the victim
/// value so mutation tests can pin the counterexample.
fn stale_read(
    r: &mut Report,
    g: &Graph,
    plan: &FloatPlan,
    rd: usize,
    si: usize,
    holder: Option<usize>,
) {
    let holder = match holder {
        Some(v) => format!("now holds `{}`", plan.value_name(g, v)),
        None => "was never written".to_string(),
    };
    r.push(
        Code::PlanStaleRead,
        plan.value_name(g, rd),
        format!(
            "read at step {si} from slot {}, but the slot {holder} — the \
             producing write was released or overwritten early",
            plan.slot_of(rd)
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_fixedpoint::lower::IntNode;
    use tqt_fixedpoint::QFormat;

    fn q8(frac: i32) -> QFormat {
        QFormat::new(frac, 8, true)
    }

    fn diamond() -> IntGraph {
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q8(4) },
                inputs: vec![0],
            },
            IntNode {
                name: "relu".into(),
                op: IntOp::Relu { cap_q: None },
                inputs: vec![1],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant { format: q8(4) },
                inputs: vec![1],
            },
            IntNode {
                name: "add".into(),
                op: IntOp::Add,
                inputs: vec![2, 3],
            },
        ];
        IntGraph::from_parts(nodes, 4)
    }

    #[test]
    fn clean_plans_are_proven() {
        let g = diamond();
        for dims in [vec![1, 32], vec![4, 32]] {
            let plan = g.plan(&dims);
            let r = check_plan(&g, &plan);
            assert!(r.is_clean(), "{r}");
        }
    }

    #[test]
    fn chain_plan_is_proven() {
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q8(4) },
                inputs: vec![0],
            },
            IntNode {
                name: "r1".into(),
                op: IntOp::Requant { format: q8(3) },
                inputs: vec![1],
            },
            IntNode {
                name: "r2".into(),
                op: IntOp::Requant { format: q8(2) },
                inputs: vec![2],
            },
            IntNode {
                name: "flat".into(),
                op: IntOp::Flatten,
                inputs: vec![3],
            },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let plan = g.plan(&[2, 16]);
        let r = check_plan(&g, &plan);
        assert!(r.is_clean(), "{r}");
    }
}
