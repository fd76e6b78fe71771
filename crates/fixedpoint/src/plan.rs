//! Execution planning and the buffer-reusing executor for [`IntGraph`].
//!
//! [`IntGraph::run_with_stats`] used to allocate a fresh `QTensor` per
//! node per run. For repeated inference (benchmarks, the verify gate's
//! probe runs, deployment-style serving loops) that is pure overhead: the
//! graph is static, so every node's output shape, Q-format, and lifetime
//! are known before the first run. [`IntPlan`] computes exactly that —
//! shapes by the graph's one shape rule ([`IntOp::output_shape`], shared
//! with the float graph and the verifier), formats by static inference
//! (mirroring the runtime rules one-to-one), then a liveness pass that
//! assigns nodes to a small set of reusable buffer *slots*: a node's
//! buffer is recycled as soon as its last consumer has executed.
//! [`IntExecutor`] owns one allocation per slot and reuses it across
//! nodes *and* across runs.
//!
//! The op kernels here are the engine's hot path and are parallelized
//! over the `tqt-rt` pool with **fixed-size blocks**, so the work
//! partition — and therefore every i128 accumulation order and every
//! saturation/overflow count — is independent of the thread count.
//! Serial and parallel runs are bit-identical; counters are merged
//! through order-independent `tqt_rt::sync::Counter` sums.
//!
//! **One definition per elementwise step.** A standalone `Requant`,
//! `Relu`, `LeakyRelu` or `Add` node is one epilogue step
//! ([`EpiStep`]) over its input: the executor resolves it to a
//! [`TileStep`] with the same resolver a fused node's chain uses and runs
//! it through `intgemm::finish`, the per-element tail every GEMM route
//! and the depthwise loop call. The plan's format inference applies the
//! same per-step output-format rule to both, and one accumulator-format
//! rule to every conv/dense core, fused or not. Fused and unfused graphs
//! therefore compute each step with the same code.
//!
//! **GEMM routes.** The plan also decides, per conv/dense node, which
//! kernel accumulates it ([`GemmRoute`]). A node whose input format has
//! at most 8 bits, whose weights all fit in i8, and whose per-channel
//! bound `Σₖ|w|·max(|qmin|,|qmax|)` is below `2³¹` runs on the i32
//! `madd_epi16` kernel ([`gemm_i8_narrow_fused`]) over i8 weight panels
//! packed here; every partial sum in every summation order is then exact
//! in i32. Every other node — 16-bit configs, anything the bound
//! rejects — runs the exact i128 kernel ([`gemm_i64_narrow_fused`]).
//! Both share one epilogue, so the route never changes a bit of output
//! or a count. The route is not configurable: the proof decides it, and
//! `tqt-verify`'s plan checker re-derives it (`TQT-V035`).

use crate::gemm_i8::{gemm_i8_narrow_fused, narrow_scratch_len, NarrowLhs, PackedB};
use crate::intgemm::{
    finish, gemm_i64_narrow_fused, pack_lhs, pack_rhs, packed_lhs_len, packed_rhs_len, Lhs, Rhs,
    TileStep,
};
use crate::lower::{narrow, EpiStep, IntGraph, IntOp, RunStats};
use crate::qtensor::{QFormat, QTensor};
use std::sync::Arc;
use tqt_rt::pool;
use tqt_rt::sync::Counter;
use tqt_tensor::conv::{im2col_into, Conv2dGeom};
use tqt_tensor::scratch::ScratchI64;
use tqt_tensor::Tensor;

/// Fixed block size for parallel elementwise kernels. Constant (never
/// derived from the thread count) so chunk boundaries — and with them
/// every per-chunk counter — are the same in serial and parallel runs.
const ELEM_BLOCK: usize = 4096;

/// The compute op a node actually runs: the core of a [`IntOp::Fused`]
/// node, the op itself otherwise.
fn core_op(op: &IntOp) -> &IntOp {
    match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    }
}

/// Which kernel accumulates a conv/dense node (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmRoute {
    /// The `madd_epi16` kernel, accumulating in i32. `bound` is the
    /// proven maximum over output channels of `Σₖ|w|·max(|qmin|,|qmax|)`,
    /// below `2³¹`, so no partial sum can leave i32.
    I32 {
        /// The proven per-channel bound.
        bound: u64,
    },
    /// The exact i128 kernel, narrowed to i64.
    I64,
}

/// An i32-routed node's proof and its i8 weights.
#[derive(Debug, Clone)]
struct NarrowPanel {
    bound: u64,
    /// `W^T` (`[k, cout]`) for a conv, `W` (`[in, out]`) for a dense
    /// layer: the kernel's B operand, packed once.
    panel: PackedB,
}

/// The i32 route's bound for a GEMM core with `channels` output channels
/// over reduction length `k` reading an `input`-format operand: the
/// maximum over channels of `Σₖ|w|·max(|qmin|,|qmax|)`, when the input
/// has at most 8 bits, every weight fits in i8, and that maximum is below
/// `2³¹`; `None` otherwise. Conv weights are `[channels, k]`, dense
/// weights `[k, channels]`.
fn narrow_bound(w: &[i64], channels: usize, conv: bool, input: QFormat) -> Option<u64> {
    if input.bits > 8 || w.iter().any(|&v| i8::try_from(v).is_err()) {
        return None;
    }
    let amax = input.qmin().unsigned_abs().max(input.qmax().unsigned_abs());
    let mut sums = vec![0u64; channels];
    if conv {
        let k = (w.len() / channels.max(1)).max(1);
        for (sum, filter) in sums.iter_mut().zip(w.chunks_exact(k)) {
            *sum = filter.iter().map(|v| v.unsigned_abs()).sum();
        }
    } else {
        for row in w.chunks_exact(channels.max(1)) {
            for (sum, v) in sums.iter_mut().zip(row) {
                *sum += v.unsigned_abs();
            }
        }
    }
    let bound = sums.into_iter().max().unwrap_or(0) * amax;
    (bound < 1 << 31).then_some(bound)
}

/// Packs i8-range weights as the i32 kernel's B operand: a conv's
/// `[channels, k]` filter transposed to `[k, channels]`, a dense layer's
/// `[k, channels]` matrix as is. Callers have proven every weight fits.
fn pack_i8(w: &[i64], channels: usize, k: usize, conv: bool) -> PackedB {
    let narrow = |v: i64| v as i8; // exact: narrow_bound proved every weight fits in i8
    let b: Vec<i8> = if conv {
        (0..k)
            .flat_map(|kk| (0..channels).map(move |co| narrow(w[co * k + kk])))
            .collect()
    } else {
        w.iter().map(|&v| narrow(v)).collect()
    };
    PackedB::pack(&b, k, channels)
}

/// A static execution plan for one [`IntGraph`] at one input shape:
/// per-node output shapes and Q-formats, plus a liveness-based assignment
/// of nodes to reusable buffer slots.
#[derive(Debug)]
pub struct IntPlan {
    input_dims: Vec<usize>,
    shapes: Vec<Vec<usize>>,
    formats: Vec<QFormat>,
    lens: Vec<usize>,
    slot: Vec<usize>,
    slot_lens: Vec<usize>,
    scratch_elems: usize,
    /// High-water mark (i32 elements) of the i32 route's per-block
    /// scratch checkout.
    panel_scratch_elems: usize,
    /// The packed weights and kernel routes. They depend on the graph
    /// alone, not the batch, so the plans of one ladder share one copy
    /// ([`IntGraph::plan_ladder`]).
    weights: Arc<Weights>,
}

/// Plan-owned weight arena: every conv/dense weight matrix (fused or
/// not), packed once at build time into the exact panel layout the
/// blocked GEMM consumes ([`pack_lhs`] for conv, [`pack_rhs`] for dense),
/// plus the i32 route's proof and i8 panel for each node routed there.
/// Read-only after construction, so any number of executors may share
/// one plan ([`IntExecutor::with_plan`]), and any number of plans one
/// arena, without synchronization.
#[derive(Debug, Clone)]
struct Weights {
    wpack: Vec<i64>,
    /// Per-node `(offset, len)` of the node's packed panels in `wpack`.
    wpack_at: Vec<Option<(usize, usize)>>,
    /// Per node: the i32 route's proof and i8 panel, for nodes routed
    /// there. A GEMM node without one runs the i64 kernel.
    narrow: Vec<Option<NarrowPanel>>,
}

impl Weights {
    /// Packs every conv/dense weight matrix of `g` (fused or not) once,
    /// in the exact panel layout the blocked GEMM walks, so per-call
    /// packing cost is zero. Packing only permutes the operand —
    /// accumulation order is unchanged, so results are bit-identical to
    /// the row-major path. Nodes the i32 route takes (judged on the node
    /// formats `formats`) also get their i8 panel; the i64 panel stays
    /// for every GEMM node, so the arena layout is route-independent.
    fn pack(g: &IntGraph, formats: &[QFormat]) -> Self {
        let nodes = g.nodes();
        let mut wpack: Vec<i64> = Vec::new();
        let mut wpack_at: Vec<Option<(usize, usize)>> = vec![None; nodes.len()];
        let mut narrow: Vec<Option<NarrowPanel>> = (0..nodes.len()).map(|_| None).collect();
        for (id, node) in nodes.iter().enumerate() {
            let input = node.inputs.first().map(|&i| formats[i]);
            match (core_op(&node.op), input) {
                (
                    IntOp::Conv {
                        w,
                        wdims,
                        depthwise: false,
                        ..
                    },
                    Some(input),
                ) => {
                    let krows = wdims[1] * wdims[2] * wdims[3];
                    let len = packed_lhs_len(wdims[0], krows);
                    let off = wpack.len();
                    wpack.resize(off + len, 0);
                    pack_lhs(w, wdims[0], krows, &mut wpack[off..]);
                    wpack_at[id] = Some((off, len));
                    narrow[id] = narrow_bound(w, wdims[0], true, input).map(|bound| NarrowPanel {
                        bound,
                        panel: pack_i8(w, wdims[0], krows, true),
                    });
                }
                (
                    IntOp::Dense {
                        w,
                        in_dim,
                        out_dim,
                        ..
                    },
                    Some(input),
                ) => {
                    let len = packed_rhs_len(*in_dim, *out_dim);
                    let off = wpack.len();
                    wpack.resize(off + len, 0);
                    pack_rhs(w, *in_dim, *out_dim, &mut wpack[off..]);
                    wpack_at[id] = Some((off, len));
                    narrow[id] = narrow_bound(w, *out_dim, false, input).map(|bound| NarrowPanel {
                        bound,
                        panel: pack_i8(w, *out_dim, *in_dim, false),
                    });
                }
                _ => {}
            }
        }
        Weights {
            wpack,
            wpack_at,
            narrow,
        }
    }
}

impl IntPlan {
    /// Plans `g` for inputs of shape `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics where the runtime would: a node whose inputs do not fit its
    /// shape rule ([`IntOp::output_shape`]), add or concat format
    /// mismatches, non-power-of-two global average pools.
    pub fn new(g: &IntGraph, input_dims: &[usize]) -> Self {
        Self::build(g, input_dims, None)
    }

    /// [`new`](Self::new), reusing `weights` (packed for `g`) when given.
    fn build(g: &IntGraph, input_dims: &[usize], weights: Option<Arc<Weights>>) -> Self {
        let nodes = g.nodes();
        let n = nodes.len();
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut formats: Vec<QFormat> = Vec::with_capacity(n);
        for node in nodes {
            let ins: Vec<&[usize]> = node.inputs.iter().map(|&i| shapes[i].as_slice()).collect();
            let shape = node
                .op
                .output_shape(&ins, input_dims)
                .unwrap_or_else(|e| panic!("shape inference failed at node `{}`: {e}", node.name));
            if let IntOp::Fused { core, .. } = &node.op {
                assert!(
                    matches!(**core, IntOp::Conv { .. } | IntOp::Dense { .. }),
                    "fused core must be conv or dense, got {core:?}"
                );
            }
            // Conv and dense pass their input format on; the core's
            // accumulator rule and the epilogue steps are applied once,
            // below. The shape rule has checked every other node's arity.
            let mut format = match core_op(&node.op) {
                // The raw float input placeholder owns no integer buffer;
                // its consumer (QuantF32) reads the float tensor directly.
                IntOp::Input => QFormat::new(0, 8, true),
                IntOp::QuantF32 { format } => *format,
                IntOp::GlobalAvgPool => {
                    let (h, w) = (ins[0][2], ins[0][3]);
                    IntOp::pool_format(formats[node.inputs[0]], h * w).unwrap_or_else(|| {
                        panic!(
                            "global average pool needs power-of-two spatial size for exact \
                             fixed-point division, got {h}x{w}"
                        )
                    })
                }
                IntOp::Concat => {
                    let f = formats[node.inputs[0]];
                    for &i in &node.inputs {
                        assert_eq!(formats[i], f, "concat formats must match (scale merging)");
                    }
                    f
                }
                _ => formats[node.inputs[0]],
            };
            format = core_op(&node.op).acc_format(format).unwrap_or(format);
            let standalone = node.op.epi_step();
            let epi = match &node.op {
                IntOp::Fused { epi, .. } => epi.as_slice(),
                _ => standalone.as_slice(),
            };
            for step in epi {
                if *step == EpiStep::AddResidual {
                    assert_eq!(
                        formats[node.inputs[1]], format,
                        "eltwise-add formats must match (scale merging)"
                    );
                }
                format = step.out_format(format);
            }
            shapes.push(shape);
            formats.push(format);
        }
        let lens: Vec<usize> = nodes
            .iter()
            .zip(&shapes)
            .map(|(node, s)| match node.op {
                IntOp::Input => 0,
                _ => s.iter().product(),
            })
            .collect();

        let weights = weights.unwrap_or_else(|| Arc::new(Weights::pack(g, &formats)));

        // Workspace outside the slot buffers, recorded so the plan
        // verifier can prove it sized and held apart from slot storage:
        // the per-image im2col checkout of i64-routed convs (fused cores
        // included), and the per-block checkout of i32-routed nodes.
        let mut scratch_elems = 0usize;
        let mut panel_scratch_elems = 0usize;
        for (id, node) in nodes.iter().enumerate() {
            let Some(&i0) = node.inputs.first() else {
                continue;
            };
            let (ish, osh) = (&shapes[i0], &shapes[id]);
            match (core_op(&node.op), &weights.narrow[id]) {
                (IntOp::Conv { wdims, geom, .. }, Some(_)) => {
                    let k = wdims[1] * wdims[2] * wdims[3];
                    let image = Some((ish[1], ish[2], ish[3], *geom));
                    panel_scratch_elems = panel_scratch_elems.max(narrow_scratch_len(k, image));
                }
                (IntOp::Dense { in_dim, .. }, Some(_)) => {
                    let ws = narrow_scratch_len(*in_dim, None);
                    panel_scratch_elems = panel_scratch_elems.max(ws);
                }
                (
                    IntOp::Conv {
                        geom,
                        depthwise: false,
                        ..
                    },
                    None,
                ) => {
                    scratch_elems = scratch_elems.max(ish[1] * geom.kh * geom.kw * osh[2] * osh[3]);
                }
                _ => {}
            }
        }

        // Liveness-based slot assignment via the shared dtype-generic
        // planner: one single-write tape step per node (write its own
        // value, read its inputs), output pinned live. The planner claims
        // a step's write slot *before* its reads are released, so an op
        // never writes into a buffer it is reading.
        let steps: Vec<tqt_plan::TapeStep> = nodes
            .iter()
            .enumerate()
            .map(|(id, node)| tqt_plan::TapeStep::new(vec![id], node.inputs.clone()))
            .collect();
        let assignment = tqt_plan::assign_slots(&lens, &steps, &[g.output_id()]);
        let (slot, slot_lens) = (assignment.slot, assignment.slot_lens);
        IntPlan {
            input_dims: input_dims.to_vec(),
            shapes,
            formats,
            lens,
            slot,
            slot_lens,
            scratch_elems,
            panel_scratch_elems,
            weights,
        }
    }

    /// Output shape of node `id`. The float input placeholder's is the
    /// input dims, though it owns no integer storage (its
    /// [`len_of`](Self::len_of) is 0).
    pub fn shape(&self, id: usize) -> &[usize] {
        &self.shapes[id]
    }

    /// Output Q-format of node `id`.
    pub fn format(&self, id: usize) -> QFormat {
        self.formats[id]
    }

    /// Number of physical activation buffers the executor allocates.
    pub fn num_slots(&self) -> usize {
        self.slot_lens.len()
    }

    /// Total elements across the reusable slot buffers.
    pub fn total_buffer_elems(&self) -> usize {
        self.slot_lens.iter().sum()
    }

    /// Total elements a per-node allocation scheme would hold live (what
    /// the executor saves against).
    pub fn activation_elems(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Number of planned nodes.
    pub fn num_nodes(&self) -> usize {
        self.slot.len()
    }

    /// The slot node `id` writes its output into.
    pub fn slot_of(&self, id: usize) -> usize {
        self.slot[id]
    }

    /// Output element count of node `id`.
    pub fn len_of(&self, id: usize) -> usize {
        self.lens[id]
    }

    /// Allocated element capacity of slot `s`.
    pub fn slot_len(&self, s: usize) -> usize {
        self.slot_lens[s]
    }

    /// The input shape this plan was built for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// High-water mark (i64 elements) of the executor's im2col scratch
    /// checkout, taken by i64-routed convs only — workspace held in the
    /// thread-local arena, disjoint from the slot buffers by
    /// construction. The plan verifier re-derives this number
    /// independently (`TQT-V018`).
    pub fn scratch_elems(&self) -> usize {
        self.scratch_elems
    }

    /// High-water mark (i32 elements) of the i32 route's per-block scratch
    /// checkout: the A panel, plus a conv's zero-padded input image and
    /// tap table (`gemm_i8::narrow_scratch_len`). Re-derived by the plan
    /// verifier (`TQT-V018`).
    pub fn panel_scratch_elems(&self) -> usize {
        self.panel_scratch_elems
    }

    /// The kernel node `id`'s GEMM runs on, or `None` for nodes that run
    /// no GEMM (depthwise convs included). The plan verifier re-derives
    /// every route from the graph alone (`TQT-V035`).
    pub fn route(&self, id: usize) -> Option<GemmRoute> {
        self.weights.wpack_at[id]?;
        Some(match &self.weights.narrow[id] {
            Some(np) => GemmRoute::I32 { bound: np.bound },
            None => GemmRoute::I64,
        })
    }

    /// The i8 weight panel of an i32-routed node.
    pub fn weight_panel_i8(&self, id: usize) -> Option<&PackedB> {
        self.weights.narrow[id].as_ref().map(|np| &np.panel)
    }

    /// Total elements of the plan-owned packed weight arena (read-only
    /// after construction; shared by every executor on this plan).
    pub fn weight_arena_elems(&self) -> usize {
        self.weights.wpack.len()
    }

    /// `(offset, len)` of node `id`'s packed weight panels in the arena,
    /// or `None` for nodes without a packed GEMM operand. The plan
    /// verifier re-derives these extents independently (`TQT-V018`).
    pub fn weight_panel(&self, id: usize) -> Option<(usize, usize)> {
        self.weights.wpack_at[id]
    }

    /// The packed panels of node `id`, if any.
    pub fn weight_panel_data(&self, id: usize) -> Option<&[i64]> {
        let w = &self.weights;
        w.wpack_at[id].map(|(off, len)| &w.wpack[off..off + len])
    }

    /// Node `id`'s GEMM left operand: its arena panels when packed, the
    /// row-major weights otherwise.
    fn panel_lhs<'a>(&'a self, id: usize, w: &'a [i64]) -> Lhs<'a> {
        match self.weight_panel_data(id) {
            Some(panel) => Lhs::Packed(panel),
            None => Lhs::Rows(w),
        }
    }

    /// Node `id`'s GEMM right operand, packed or row-major.
    fn panel_rhs<'a>(&'a self, id: usize, w: &'a [i64]) -> Rhs<'a> {
        match self.weight_panel_data(id) {
            Some(panel) => Rhs::Packed(panel),
            None => Rhs::Rows(w),
        }
    }

    /// Test-only mutation hook: forces the first i64-routed conv whose
    /// input format is 16 bits wide onto the i32 route, with its weights
    /// truncated to i8 and a bound of 0 — the plan a planner that skipped
    /// the eligibility proof would build. Returns the node, or `None` if
    /// the graph has no such conv. The mutated plan must never be
    /// executed; it exists to prove the plan verifier refutes it
    /// (`TQT-V035`).
    #[doc(hidden)]
    pub fn inject_narrow_route(&mut self, g: &IntGraph) -> Option<usize> {
        for (id, node) in g.nodes().iter().enumerate() {
            let IntOp::Conv { w, wdims, .. } = core_op(&node.op) else {
                continue;
            };
            if self.route(id) != Some(GemmRoute::I64) || self.formats[node.inputs[0]].bits != 16 {
                continue;
            }
            let k = wdims[1] * wdims[2] * wdims[3];
            let truncated: Vec<i64> = w.iter().map(|&v| i64::from(v as i8)).collect();
            Arc::make_mut(&mut self.weights).narrow[id] = Some(NarrowPanel {
                bound: 0,
                panel: pack_i8(&truncated, wdims[0], k, true),
            });
            return Some(id);
        }
        None
    }

    /// Test-only mutation hook: shrinks one slot's capacity below a
    /// tensor assigned to it, simulating a length bookkeeping bug.
    /// Returns the node whose storage is now short (`TQT-V018`).
    #[doc(hidden)]
    pub fn inject_slot_shrink(&mut self) -> Option<usize> {
        for (id, &s) in self.slot.iter().enumerate() {
            if self.lens[id] > 1 && self.slot_lens[s] >= self.lens[id] {
                self.slot_lens[s] = self.lens[id] - 1;
                return Some(id);
            }
        }
        None
    }

    /// Test-only mutation hook: re-aliases one node onto the slot of one
    /// of its *live* inputs, simulating an off-by-one in the liveness
    /// pass (input released before the consumer's slot is picked). The
    /// slot capacity is widened so only the aliasing bug is observable.
    /// Returns `(clobbering_node, input)` or `None` if the graph has no
    /// eligible pair. The mutated plan must never be executed — it
    /// exists to prove the plan verifier refutes it (`TQT-V016`).
    #[doc(hidden)]
    pub fn inject_liveness_off_by_one(&mut self, g: &IntGraph) -> Option<(usize, usize)> {
        for (id, node) in g.nodes().iter().enumerate() {
            for &i in &node.inputs {
                if self.lens[i] > 0 && self.lens[id] > 0 && self.slot[id] != self.slot[i] {
                    self.slot[id] = self.slot[i];
                    self.slot_lens[self.slot[i]] =
                        self.slot_lens[self.slot[i]].max(self.lens[id]);
                    return Some((id, i));
                }
            }
        }
        None
    }

    /// Test-only mutation hook: releases a producer's slot one consumer
    /// too early by re-aliasing an intermediate node onto it while a
    /// later consumer still needs the value. Returns `(producer,
    /// intermediate, stranded_consumer)` or `None`. As with
    /// [`inject_liveness_off_by_one`], the mutated plan is only ever fed
    /// to the plan verifier, which must refute it (`TQT-V017`).
    #[doc(hidden)]
    pub fn inject_premature_release(&mut self, g: &IntGraph) -> Option<(usize, usize, usize)> {
        let nodes = g.nodes();
        for p in 0..nodes.len() {
            if self.lens[p] == 0 {
                continue;
            }
            let Some(last_consumer) = (0..nodes.len())
                .filter(|&c| nodes[c].inputs.contains(&p))
                .max()
            else {
                continue;
            };
            for (m, node) in nodes.iter().enumerate().take(last_consumer).skip(p + 1) {
                if self.lens[m] > 0
                    && self.slot[m] != self.slot[p]
                    && !node.inputs.contains(&p)
                {
                    self.slot[m] = self.slot[p];
                    self.slot_lens[self.slot[p]] =
                        self.slot_lens[self.slot[p]].max(self.lens[m]);
                    return Some((p, m, last_consumer));
                }
            }
        }
        None
    }

    /// Test-only mutation hook: resurrects a fused node's slot for an
    /// unrelated later node while a consumer of the fused value is still
    /// pending — the bug a fusion rewrite would introduce if it released
    /// the chain's (now eliminated) intermediate storage but wrongly
    /// treated the fused output itself as part of the dead chain.
    /// Returns `(fused_producer, resurrector, stranded_consumer)` or
    /// `None` if the graph has no fused node with a non-adjacent
    /// consumer. The mutated plan is only ever fed to the plan verifier,
    /// which must refute it (`TQT-V017`).
    #[doc(hidden)]
    pub fn inject_fused_slot_resurrection(
        &mut self,
        g: &IntGraph,
    ) -> Option<(usize, usize, usize)> {
        let nodes = g.nodes();
        for p in 0..nodes.len() {
            if self.lens[p] == 0 || !matches!(nodes[p].op, IntOp::Fused { .. }) {
                continue;
            }
            let Some(last_consumer) = (0..nodes.len())
                .filter(|&c| nodes[c].inputs.contains(&p))
                .max()
            else {
                continue;
            };
            for (m, node) in nodes.iter().enumerate().take(last_consumer).skip(p + 1) {
                if self.lens[m] > 0
                    && self.slot[m] != self.slot[p]
                    && !node.inputs.contains(&p)
                {
                    self.slot[m] = self.slot[p];
                    self.slot_lens[self.slot[p]] =
                        self.slot_lens[self.slot[p]].max(self.lens[m]);
                    return Some((p, m, last_consumer));
                }
            }
        }
        None
    }
}

/// A reusable integer-inference engine: one [`IntPlan`] plus one owned
/// buffer per plan slot, reused across nodes and across runs. Build once
/// per (graph, input shape) and call [`run`](Self::run) in a loop — no
/// per-run activation allocation happens after construction.
pub struct IntExecutor<'g> {
    graph: &'g IntGraph,
    plan: PlanRef<'g>,
    bufs: Vec<Vec<i64>>,
    /// Cumulative slot-buffer allocations (see
    /// [`slot_allocs`](Self::slot_allocs)).
    slot_allocs: u64,
}

/// An executor's plan: owned (the default), or borrowed from a shared
/// plan so several sessions reuse one packed weight arena. The plan is
/// read-only during execution either way — each executor owns its slot
/// buffers, so sharing a plan shares only immutable state.
enum PlanRef<'g> {
    Owned(Box<IntPlan>),
    Shared(&'g IntPlan),
}

impl PlanRef<'_> {
    fn get(&self) -> &IntPlan {
        match self {
            PlanRef::Owned(p) => p,
            PlanRef::Shared(p) => p,
        }
    }
}

impl IntGraph {
    /// Plans this graph for inputs of shape `input_dims`.
    pub fn plan(&self, input_dims: &[usize]) -> IntPlan {
        IntPlan::new(self, input_dims)
    }

    /// Plans this graph once per rung of `ladder`, each for `base_dims`
    /// with the batch set to the rung. The weights are packed once and
    /// shared by every plan, so a serving ladder holds one weight arena
    /// instead of one per rung.
    pub fn plan_ladder(&self, base_dims: &[usize], ladder: &[usize]) -> Vec<IntPlan> {
        let mut plans: Vec<IntPlan> = Vec::with_capacity(ladder.len());
        for &rung in ladder {
            let mut dims = base_dims.to_vec();
            dims[0] = rung;
            let shared = plans.first().map(|p| Arc::clone(&p.weights));
            plans.push(IntPlan::build(self, &dims, shared));
        }
        plans
    }

    /// Builds a reusable executor for inputs of shape `input_dims`.
    pub fn executor(&self, input_dims: &[usize]) -> IntExecutor<'_> {
        IntExecutor::new(self, input_dims)
    }
}

fn input_slice<'a>(bufs: &'a [Vec<i64>], plan: &IntPlan, i: usize) -> &'a [i64] {
    &bufs[plan.slot[i]][..plan.lens[i]]
}

/// The residual operand of an add (standalone or fused): the node's second
/// input, empty for single-input nodes.
fn residual_slice<'a>(bufs: &'a [Vec<i64>], plan: &IntPlan, inputs: &[usize]) -> &'a [i64] {
    inputs.get(1).map_or(&[], |&r| input_slice(bufs, plan, r))
}

impl<'g> IntExecutor<'g> {
    /// Creates an executor with freshly planned, zeroed slot buffers.
    pub fn new(graph: &'g IntGraph, input_dims: &[usize]) -> Self {
        let plan = IntPlan::new(graph, input_dims);
        let bufs: Vec<Vec<i64>> = plan.slot_lens.iter().map(|&l| vec![0i64; l]).collect();
        let slot_allocs = bufs.len() as u64;
        IntExecutor {
            graph,
            plan: PlanRef::Owned(Box::new(plan)),
            bufs,
            slot_allocs,
        }
    }

    /// Creates an executor borrowing an existing plan — the way several
    /// concurrent inference sessions share one packed weight arena
    /// instead of planning (and packing) per session. Each executor
    /// still owns its slot buffers; the shared plan is never written.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not built for `graph` (node count mismatch).
    pub fn with_plan(graph: &'g IntGraph, plan: &'g IntPlan) -> Self {
        assert_eq!(
            plan.num_nodes(),
            graph.nodes().len(),
            "plan was built for a different graph"
        );
        let bufs: Vec<Vec<i64>> = plan.slot_lens.iter().map(|&l| vec![0i64; l]).collect();
        let slot_allocs = bufs.len() as u64;
        IntExecutor {
            graph,
            plan: PlanRef::Shared(plan),
            bufs,
            slot_allocs,
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &IntPlan {
        self.plan.get()
    }

    /// Runs integer inference, skipping the per-node range observation
    /// pass (the cheap saturation/overflow counters still run). With the
    /// `sanitize` feature enabled, asserts no i64 accumulator wrapped.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the planned input shape.
    pub fn run(&mut self, x: &Tensor) -> QTensor {
        let stats = self.run_inner(x, false);
        self.assert_no_wrap(&stats);
        self.output()
    }

    /// Instrumented run: like [`run`](Self::run) but additionally records
    /// each node's observed output range (see
    /// [`IntGraph::run_with_stats`]).
    pub fn run_with_stats(&mut self, x: &Tensor) -> (QTensor, RunStats) {
        let stats = self.run_inner(x, true);
        (self.output(), stats)
    }

    /// The serving hot path: runs inference like [`run`](Self::run) but
    /// writes the output values into `out` (cleared and refilled)
    /// instead of materializing a fresh [`QTensor`], and returns the
    /// output format with the run's counters. With a warmed-up `out`
    /// capacity the call performs no slot allocation — the
    /// zero-allocation steady state [`slot_allocs`](Self::slot_allocs)
    /// lets serving tests assert.
    pub fn run_into(&mut self, x: &Tensor, out: &mut Vec<i64>) -> (QFormat, RunStats) {
        let stats = self.run_inner(x, false);
        self.assert_no_wrap(&stats);
        let plan = self.plan.get();
        let out_id = self.graph.output_id();
        out.clear();
        out.extend_from_slice(input_slice(&self.bufs, plan, out_id));
        (plan.formats[out_id], stats)
    }

    /// Re-zeroes the slot buffers in place, without reallocating — an
    /// explicit fresh-session state for executors reused across serving
    /// requests. Not required for correctness (every node fully writes
    /// its output range before any consumer reads it), so the serving
    /// loop skips it per request.
    pub fn reset(&mut self) {
        for b in &mut self.bufs {
            b.fill(0);
        }
    }

    /// Cumulative slot-buffer allocations over this executor's
    /// lifetime: the plan-sized allocations at construction plus any
    /// mid-run resize (which would indicate a planning bug). A reused
    /// session must hold this constant across requests — the
    /// zero hot-path-allocation guarantee the serving bench relies on.
    pub fn slot_allocs(&self) -> u64 {
        self.slot_allocs
    }

    fn assert_no_wrap(&self, stats: &RunStats) {
        #[cfg(feature = "sanitize")]
        for (node, st) in self.graph.nodes().iter().zip(&stats.nodes) {
            assert_eq!(
                st.overflowed, 0,
                "sanitize: i64 accumulator wrapped in node {}",
                node.name
            );
        }
        let _ = stats;
    }

    /// Materializes the output tensor from its slot.
    fn output(&self) -> QTensor {
        let plan = self.plan.get();
        let out_id = self.graph.output_id();
        QTensor::from_ints(
            plan.shapes[out_id].clone(),
            input_slice(&self.bufs, plan, out_id).to_vec(),
            plan.formats[out_id],
        )
    }

    fn run_inner(&mut self, x: &Tensor, observe: bool) -> RunStats {
        let plan = self.plan.get();
        assert_eq!(
            x.dims(),
            &plan.input_dims[..],
            "executor planned for different input dims"
        );
        let n = self.graph.nodes().len();
        let mut stats = RunStats::new(n);
        let mut float_consumed = false;
        for (id, node) in self.graph.nodes().iter().enumerate() {
            let slot_id = plan.slot[id];
            let len = plan.lens[id];
            let mut outbuf = std::mem::take(&mut self.bufs[slot_id]);
            if outbuf.len() < len {
                // Never taken when the plan sized the slots correctly —
                // counted so serving tests can assert an allocation-free
                // steady state.
                outbuf.resize(len, 0);
                self.slot_allocs += 1;
            }
            {
                let bufs = &self.bufs;
                let out = &mut outbuf[..len];
                let st = &mut stats.nodes[id];
                match &node.op {
                    IntOp::Input => {}
                    IntOp::QuantF32 { format } => {
                        assert!(!float_consumed, "input consumed twice");
                        float_consumed = true;
                        st.saturated += quantf32_into(x.data(), *format, out);
                    }
                    IntOp::Conv { .. } | IntOp::Dense { .. } | IntOp::Fused { .. } => {
                        let i0 = node.inputs[0];
                        let a = input_slice(bufs, plan, i0);
                        let residual = residual_slice(bufs, plan, &node.inputs);
                        let core = core_op(&node.op);
                        let acc = core.acc_format(plan.formats[i0]);
                        let steps = match (&node.op, acc) {
                            (IntOp::Fused { epi, .. }, Some(acc)) => {
                                fused_steps(epi, acc, residual)
                            }
                            _ => Vec::new(),
                        };
                        let ish = &plan.shapes[i0];
                        let (ovf, sat) = run_core(plan, id, core, a, ish, &steps, out);
                        st.overflowed += ovf;
                        st.saturated += sat;
                    }
                    IntOp::Requant { .. }
                    | IntOp::Relu { .. }
                    | IntOp::LeakyRelu { .. }
                    | IntOp::Add => {
                        let Some(step) = node.op.epi_step() else {
                            unreachable!("requant, relu, leaky relu and add are epilogue steps")
                        };
                        let i0 = node.inputs[0];
                        let residual = residual_slice(bufs, plan, &node.inputs);
                        let tile = TileStep::resolve(step, plan.formats[i0], residual);
                        let a = input_slice(bufs, plan, i0);
                        let (ovf, sat) = elementwise_into(a, tile, out);
                        st.overflowed += ovf;
                        st.saturated += sat;
                    }
                    IntOp::MaxPool { geom } => {
                        let i0 = node.inputs[0];
                        maxpool_into(input_slice(bufs, plan, i0), &plan.shapes[i0], *geom, out);
                    }
                    IntOp::GlobalAvgPool => {
                        let i0 = node.inputs[0];
                        gap_into(
                            input_slice(bufs, plan, i0),
                            &plan.shapes[i0],
                            out,
                            &mut st.overflowed,
                        );
                    }
                    IntOp::Concat => {
                        let ins: Vec<(&[i64], &[usize])> = node
                            .inputs
                            .iter()
                            .map(|&i| (input_slice(bufs, plan, i), plan.shapes[i].as_slice()))
                            .collect();
                        concat_into(&ins, out);
                    }
                    IntOp::Flatten => {
                        out.copy_from_slice(input_slice(bufs, plan, node.inputs[0]));
                    }
                }
            }
            if !matches!(node.op, IntOp::Input) {
                if observe {
                    stats.nodes[id].observe(&outbuf[..len]);
                }
                // Mirror the width check QTensor::from_ints used to apply
                // at every node (debug builds only — the hot path trusts
                // the plan's format inference, which tests validate).
                #[cfg(debug_assertions)]
                {
                    let f = plan.formats[id];
                    for &v in &outbuf[..len] {
                        debug_assert!(
                            v >= f.qmin() && v <= f.qmax(),
                            "value {v} overflows {f:?} in node {}",
                            node.name
                        );
                    }
                }
            }
            self.bufs[slot_id] = outbuf;
        }
        stats
    }
}

/// Resolves a fused node's epilogue into tile steps against the chain's
/// running format, starting from the core's accumulator format `acc`
/// (shifts are relative, formats absolute).
fn fused_steps<'a>(epi: &[EpiStep], mut f: QFormat, residual: &'a [i64]) -> Vec<TileStep<'a>> {
    epi.iter()
        .map(|&step| {
            let tile = TileStep::resolve(step, f, residual);
            f = step.out_format(f);
            tile
        })
        .collect()
}

/// Runs one conv/dense core — standalone (`epi` empty) or the core of a
/// fused node — on the route the plan chose for node `id`, reading input
/// `a` of shape `ish`. Returns `(wrapped, saturated)` counts.
fn run_core(
    plan: &IntPlan,
    id: usize,
    core: &IntOp,
    a: &[i64],
    ish: &[usize],
    epi: &[TileStep],
    out: &mut [i64],
) -> (u64, u64) {
    let narrow = plan.weight_panel_i8(id);
    let (ovf, sat) = (Counter::new(), Counter::new());
    match core {
        IntOp::Conv {
            w,
            bias,
            geom,
            depthwise: true,
            ..
        } => return depthwise_into(a, ish, w, *geom, bias.as_deref(), epi, out),
        IntOp::Conv {
            w,
            wdims,
            bias,
            geom,
            ..
        } => {
            let Some(b) = narrow else {
                let w = plan.panel_lhs(id, w);
                return conv_into(a, ish, w, *wdims, *geom, bias.as_deref(), epi, out);
            };
            let (oh, ow) = geom.out_size(ish[2], ish[3]);
            let lhs = NarrowLhs::Conv {
                x: a,
                c: ish[1],
                h: ish[2],
                w: ish[3],
                geom: *geom,
            };
            let k = wdims[1] * wdims[2] * wdims[3];
            let m = ish[0] * oh * ow;
            let bias = bias.as_deref();
            gemm_i8_narrow_fused(m, wdims[0], k, lhs, b, bias, epi, out, &ovf, &sat, true);
        }
        IntOp::Dense {
            w,
            in_dim,
            out_dim,
            bias,
            ..
        } => {
            let (m, n, k, bias) = (ish[0], *out_dim, *in_dim, bias.as_deref());
            match narrow {
                Some(b) => gemm_i8_narrow_fused(
                    m, n, k, NarrowLhs::Rows(a), b, bias, epi, out, &ovf, &sat, true,
                ),
                None => gemm_i64_narrow_fused(
                    m,
                    n,
                    k,
                    Lhs::Rows(a),
                    plan.panel_rhs(id, w),
                    None,
                    bias,
                    epi,
                    out,
                    &ovf,
                    &sat,
                    true,
                ),
            }
        }
        other => panic!("fused core must be conv or dense, got {other:?}"),
    }
    (ovf.get(), sat.get())
}

/// Quantizes a float slice into `format` by [`QFormat::quantizer`],
/// returning the number of saturated elements. Non-finite inputs count as
/// saturated: `±∞` clamps to the range edge and NaN becomes 0.
fn quantf32_into(xd: &[f32], format: QFormat, out: &mut [i64]) -> u64 {
    assert_eq!(xd.len(), out.len(), "quantize length mismatch");
    let quantize = format.quantizer();
    let sat = Counter::new();
    pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
        let base = ci * ELEM_BLOCK;
        let mut local = 0u64;
        let end = base + chunk.len();
        for (o, &v) in chunk.iter_mut().zip(&xd[base..end]) {
            let (q, saturated) = quantize(v);
            local += u64::from(saturated);
            *o = q;
        }
        sat.add(local);
    });
    sat.get()
}

/// Runs a standalone elementwise node — `Requant`, `Relu`, `LeakyRelu` or
/// `Add`, resolved to its one tile step `step` — over input `a` through
/// the same per-element tail as the fused epilogues ([`finish`]),
/// returning `(wrapped, saturated)` counts.
fn elementwise_into(a: &[i64], step: TileStep, out: &mut [i64]) -> (u64, u64) {
    // Each arm rebuilds its step inside the loop body, so the variant is a
    // constant there: `finish`'s match folds away and every loop compiles
    // to a kernel for one step.
    match step {
        TileStep::Requant { shift, qmin, qmax } => elementwise_loop(a, out, move |v, at, o, s| {
            finish(v, &[TileStep::Requant { shift, qmin, qmax }], at, o, s)
        }),
        TileStep::AddResidual(r) => elementwise_loop(a, out, move |v, at, o, s| {
            finish(v, &[TileStep::AddResidual(r)], at, o, s)
        }),
        TileStep::ReluCap(cap) => elementwise_loop(a, out, move |v, at, o, s| {
            finish(v, &[TileStep::ReluCap(cap)], at, o, s)
        }),
        TileStep::Leaky(alpha) => elementwise_loop(a, out, move |v, at, o, s| {
            finish(v, &[TileStep::Leaky(alpha)], at, o, s)
        }),
    }
}

/// `out[i] = tail(a[i], i, wrapped, saturated)` over fixed `ELEM_BLOCK`
/// chunks, so the counts do not depend on the thread count.
fn elementwise_loop<F>(a: &[i64], out: &mut [i64], tail: F) -> (u64, u64)
where
    F: Fn(i128, usize, &mut u64, &mut u64) -> i64 + Sync,
{
    assert_eq!(a.len(), out.len(), "elementwise length mismatch");
    let (ovf, sat) = (Counter::new(), Counter::new());
    pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
        let base = ci * ELEM_BLOCK;
        let (mut local_ovf, mut local_sat) = (0u64, 0u64);
        let end = base + chunk.len();
        for (j, (o, &v)) in chunk.iter_mut().zip(&a[base..end]).enumerate() {
            *o = tail(i128::from(v), base + j, &mut local_ovf, &mut local_sat);
        }
        ovf.add(local_ovf);
        sat.add(local_sat);
    });
    (ovf.get(), sat.get())
}

/// Standard convolution: per-image i64 im2col into the thread-local
/// scratch arena, then the blocked exact GEMM (parallel over output-row
/// blocks) with the fused per-element epilogue applied in the tile
/// store. Returns `(wrapped, saturated)` counts.
#[allow(clippy::too_many_arguments)]
fn conv_into(
    x: &[i64],
    ish: &[usize],
    w: Lhs,
    wdims: [usize; 4],
    geom: Conv2dGeom,
    bias: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
) -> (u64, u64) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let cout = wdims[0];
    let krows = c * geom.kh * geom.kw;
    let ncols = oh * ow;
    let (ovf, sat) = (Counter::new(), Counter::new());
    for ni in 0..nb {
        let mut cols = ScratchI64::uninit(krows * ncols);
        im2col_into(
            &x[ni * c * h * wd..(ni + 1) * c * h * wd],
            0i64,
            c,
            h,
            wd,
            geom,
            &mut cols,
        );
        // Residual steps carry the whole-batch operand; the GEMM sees one
        // image at a time, so reslice them to this image's plane.
        let epi_img: Vec<TileStep> = epi
            .iter()
            .map(|s| match *s {
                TileStep::AddResidual(r) => {
                    TileStep::AddResidual(&r[ni * cout * ncols..(ni + 1) * cout * ncols])
                }
                other => other,
            })
            .collect();
        let oimg = &mut out[ni * cout * ncols..(ni + 1) * cout * ncols];
        gemm_i64_narrow_fused(
            cout,
            ncols,
            krows,
            w,
            Rhs::Rows(&cols),
            bias,
            None,
            &epi_img,
            oimg,
            &ovf,
            &sat,
            true,
        );
    }
    (ovf.get(), sat.get())
}

/// Depthwise convolution, parallel over `(image, channel)` planes with
/// exact i128 per-pixel accumulation and the fused per-element epilogue
/// applied in place. Returns `(wrapped, saturated)` counts.
fn depthwise_into(
    x: &[i64],
    ish: &[usize],
    w: &[i64],
    geom: Conv2dGeom,
    bias: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
) -> (u64, u64) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let ncols = oh * ow;
    assert_eq!(out.len(), nb * c * ncols, "depthwise output length mismatch");
    let (ovf, sat) = (Counter::new(), Counter::new());
    pool::par_chunks_mut(out, ncols, |img, ochunk| {
        let co = img % c;
        let xim = &x[img * h * wd..(img + 1) * h * wd];
        let wk = &w[co * geom.kh * geom.kw..(co + 1) * geom.kh * geom.kw];
        let mut local = 0u64;
        let mut local_sat = 0u64;
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0i128;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                        if jj < 0 || jj >= wd as isize {
                            continue;
                        }
                        acc += i128::from(xim[ii as usize * wd + jj as usize])
                            * i128::from(wk[ki * geom.kw + kj]);
                    }
                }
                if let Some(b) = bias {
                    acc += i128::from(b[co]);
                }
                let at = img * ncols + oi * ow + oj;
                ochunk[oi * ow + oj] = finish(acc, epi, at, &mut local, &mut local_sat);
            }
        }
        ovf.add(local);
        sat.add(local_sat);
    });
    (ovf.get(), sat.get())
}

/// Max pooling, parallel over `(image, channel)` planes. Padding
/// positions are skipped (never compared), exactly like the reference.
fn maxpool_into(x: &[i64], ish: &[usize], geom: Conv2dGeom, out: &mut [i64]) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let ncols = oh * ow;
    assert_eq!(out.len(), nb * c * ncols, "maxpool output length mismatch");
    pool::par_chunks_mut(out, ncols, |img, ochunk| {
        let xim = &x[img * h * wd..(img + 1) * h * wd];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = i64::MIN;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                        if jj < 0 || jj >= wd as isize {
                            continue;
                        }
                        best = best.max(xim[ii as usize * wd + jj as usize]);
                    }
                }
                ochunk[oi * ow + oj] = best;
            }
        }
    });
}

/// Global average pool: exact channel sums (division is the `frac +=
/// log2(hw)` format change, applied by the plan).
fn gap_into(x: &[i64], ish: &[usize], out: &mut [i64], overflowed: &mut u64) {
    let hw = ish[2] * ish[3];
    assert_eq!(out.len(), ish[0] * ish[1], "gap output length mismatch");
    for (i, o) in out.iter_mut().enumerate() {
        let acc: i128 = x[i * hw..(i + 1) * hw].iter().map(|&v| i128::from(v)).sum();
        *o = narrow(acc, overflowed);
    }
}

/// Channel concat of `(data, shape)` pairs (formats pre-checked by the
/// plan).
fn concat_into(inputs: &[(&[i64], &[usize])], out: &mut [i64]) {
    let ish0 = inputs[0].1;
    let nb = ish0[0];
    let spatial_len: usize = ish0[2..].iter().product::<usize>().max(1);
    let c_out: usize = inputs.iter().map(|(_, s)| s[1]).sum();
    for ni in 0..nb {
        let mut c_off = 0;
        for (data, sh) in inputs {
            let c = sh[1];
            let src = &data[ni * c * spatial_len..(ni + 1) * c * spatial_len];
            let dst = (ni * c_out + c_off) * spatial_len;
            out[dst..dst + c * spatial_len].copy_from_slice(src);
            c_off += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::IntNode;

    fn chain(ops: Vec<IntOp>) -> IntGraph {
        let nodes = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| IntNode {
                name: format!("n{i}"),
                op,
                inputs: if i == 0 { vec![] } else { vec![i - 1] },
            })
            .collect::<Vec<_>>();
        let out = nodes.len() - 1;
        IntGraph::from_parts(nodes, out)
    }

    /// Runs `g` on the row `x = q / 16`, which the `f4` input quantizer
    /// maps back to `q` exactly. Returns the output values and the output
    /// node's `(overflowed, saturated)` counts.
    fn run_q(g: &IntGraph, q: &[i64]) -> (Vec<i64>, u64, u64) {
        let x = Tensor::from_vec(
            vec![1, q.len()],
            q.iter().map(|&v| v as f32 / 16.0).collect(),
        );
        let (y, stats) = g.executor(x.dims()).run_with_stats(&x);
        let st = stats.nodes[g.output_id()];
        (y.data().to_vec(), st.overflowed, st.saturated)
    }

    /// The standalone counterpart of
    /// `intgemm::tests::epilogue_steps_replay_standalone_kernels`: Requant,
    /// LeakyRelu and Add nodes through the executor, every output and
    /// count worked out by hand.
    #[test]
    fn standalone_elementwise_nodes_match_hand_computed() {
        let q8 = IntOp::QuantF32 {
            format: QFormat::new(4, 8, true),
        };
        let requant = |frac, bits| IntOp::Requant {
            format: QFormat::new(frac, bits, true),
        };

        // f4 -> f2 s4: v/4 half-even (1.5 -> 2, 2.5 -> 2, -1.5 -> -2,
        // 3.5 -> 4, 0.25 -> 0), 25 and -25 clamp to [-8, 7].
        let g = chain(vec![IntOp::Input, q8.clone(), requant(2, 4)]);
        let q = [6, 10, -6, 14, 100, -100, 1, 0];
        assert_eq!(run_q(&g, &q), (vec![2, 2, -2, 4, 7, -8, 0, 0], 0, 2));
        // f4 -> f6 s16: an exact left shift.
        let g = chain(vec![IntOp::Input, q8.clone(), requant(6, 16)]);
        assert_eq!(
            run_q(&g, &q),
            (vec![24, 40, -24, 56, 400, -400, 4, 0], 0, 0)
        );

        // max(v << 7, 13·v) on f4 -> f11.
        let leaky = IntOp::LeakyRelu { alpha_q: 13 };
        let g = chain(vec![IntOp::Input, q8.clone(), leaky.clone()]);
        assert_eq!(
            run_q(&g, &[6, -6, 0, -100]),
            (vec![768, -78, 0, -1300], 0, 0)
        );
        // On f60 (v << 56) the positive branch reaches 2^63 and 2^64,
        // which wrap to i64::MIN and 0.
        let g = chain(vec![IntOp::Input, q8.clone(), requant(60, 64), leaky]);
        let want = vec![i64::MIN, -13 << 56, 0, 0];
        assert_eq!(run_q(&g, &[1, -1, 0, 2]), (want, 2, 0));

        // Add of two f60 copies (v << 56): 2^62 + 2^62 = 2^63 wraps to
        // i64::MIN, -2^63 fits, and 254·2^56 wraps to -2^57.
        let (mut nodes, out) = chain(vec![
            IntOp::Input,
            q8,
            requant(60, 64),
            requant(60, 64),
            IntOp::Add,
        ])
        .into_parts();
        nodes[out].inputs = vec![2, 3];
        let g = IntGraph::from_parts(nodes, out);
        let want = vec![i64::MIN, i64::MIN, 6 << 56, -1 << 57];
        assert_eq!(run_q(&g, &[64, -64, 3, 127]), (want, 2, 0));
    }

    #[test]
    fn ladder_plans_share_one_weight_arena() {
        let g = chain(vec![
            IntOp::Input,
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, false),
            },
            IntOp::Dense {
                w: (0..8 * 5).map(|i| i % 11 - 5).collect(),
                in_dim: 8,
                out_dim: 5,
                bias: Some(vec![3; 5]),
                w_frac: 6,
            },
        ]);
        let plans = g.plan_ladder(&[1, 8], &[1, 2, 4]);
        assert_eq!(plans.len(), 3);
        for (plan, batch) in plans.iter().zip([1, 2, 4]) {
            assert!(Arc::ptr_eq(&plan.weights, &plans[0].weights));
            let fresh = g.plan(&[batch, 8]);
            assert_eq!(plan.input_dims(), fresh.input_dims());
            assert_eq!(plan.slot, fresh.slot);
            assert_eq!(plan.route(2), fresh.route(2));
            assert!(matches!(plan.route(2), Some(GemmRoute::I32 { .. })));
            assert_eq!(plan.weight_panel_data(2), fresh.weight_panel_data(2));
        }
    }

    #[test]
    fn non_finite_inputs_count_as_saturated() {
        let f = QFormat::new(4, 8, true);
        let x = [f32::NAN, 1.0, f32::INFINITY, f32::NEG_INFINITY, -0.5, -f32::NAN];
        let mut q = [7i64; 6];
        let sat = quantf32_into(&x, f, &mut q);
        assert_eq!(q, [0, 16, 127, -128, -8, 0]);
        assert_eq!(sat, 4, "both NaNs and both infinities are saturated");
    }

    #[test]
    fn chain_reuses_slots() {
        let g = chain(vec![
            IntOp::Input,
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: None },
            IntOp::Requant {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: Some(100) },
        ]);
        let plan = g.plan(&[2, 8]);
        // A straight-line chain only ever needs two live buffers (plus the
        // zero-length input placeholder slot).
        assert!(
            plan.num_slots() <= 3,
            "expected ping-pong buffering, got {} slots",
            plan.num_slots()
        );
        assert!(plan.total_buffer_elems() < plan.activation_elems());
    }

    #[test]
    fn executor_is_reusable_and_matches_one_shot_run() {
        let g = chain(vec![
            IntOp::Input,
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: Some(90) },
            IntOp::Requant {
                format: QFormat::new(2, 8, true),
            },
        ]);
        let mut rng = tqt_tensor::init::rng(7);
        let mut ex = g.executor(&[3, 16]);
        for _ in 0..3 {
            let x = tqt_tensor::init::normal([3, 16], 0.0, 4.0, &mut rng);
            let (y1, s1) = g.run_with_stats(&x);
            let (y2, s2) = ex.run_with_stats(&x);
            assert_eq!(y1, y2);
            assert_eq!(s1.nodes, s2.nodes);
            assert_eq!(ex.run(&x), y1, "uninstrumented run must agree");
        }
    }

    #[test]
    fn output_slot_is_never_an_input_slot() {
        // Diamond: q -> (relu, requant) -> add; the add must not write
        // into either operand's buffer.
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "relu".into(),
                op: IntOp::Relu { cap_q: None },
                inputs: vec![1],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![1],
            },
            IntNode {
                name: "add".into(),
                op: IntOp::Add,
                inputs: vec![2, 3],
            },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let plan = g.plan(&[1, 32]);
        for (id, node) in g.nodes().iter().enumerate() {
            for &i in &node.inputs {
                if plan.lens[i] > 0 {
                    assert_ne!(
                        plan.slot[id], plan.slot[i],
                        "node {id} writes the slot of its live input {i}"
                    );
                }
            }
        }
        let mut rng = tqt_tensor::init::rng(11);
        let x = tqt_tensor::init::normal([1, 32], 0.0, 3.0, &mut rng);
        let (y, _) = g.run_with_stats(&x);
        // add of relu(q) + q on the same grid: spot-check one element.
        let q = QTensor::quantize(&x, QFormat::new(4, 8, true));
        let expect: Vec<i64> = q.data().iter().map(|&v| v.max(0) + v).collect();
        assert_eq!(y.data(), &expect[..]);
    }
}
