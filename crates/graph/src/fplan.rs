//! Float tape planner: compiles one QAT training step — forward,
//! backward, fake-quant STE and all — or one forward-only pass
//! (calibration, evaluation, distribution capture) onto the generic
//! slot-reuse engine in [`tqt_plan`].
//!
//! The reference interpreter ([`crate::exec`]) allocates a fresh tensor
//! for every node output, every retained activation, and every gradient,
//! each step. This planner instead enumerates every intermediate **value**
//! of a pass as an SSA tape and asks [`tqt_plan::assign_slots`] for a
//! liveness-minimal buffer assignment, exactly like the integer inference
//! engine's `IntPlan`. The value model:
//!
//! * `Act(i)` — node `i`'s forward activation (value id = node id);
//! * `Xhat(i)` — a batch-norm node's normalized activation, retained as a
//!   separate value because the backward pass consumes it;
//! * `Grad(i)` — `dL/d(act i)`, one per *active* node (ancestor of the
//!   graph output — inactive branches get no gradient, mirroring the
//!   reference interpreter's `None` skip);
//! * `Temp(i)` — a step-local staging buffer for each *non-defining*
//!   gradient contribution into `Grad(i)` (fan-out): the first consumer
//!   (in descending-id backward order, then input-position order) writes
//!   its contribution straight into the gradient slot, later ones stage
//!   into a `Temp` and accumulate, reproducing the reference
//!   interpreter's move-then-axpy fan-in bit for bit.
//!
//! A training tape ([`FloatPlan::new`]) is: one step per node in
//! topological order (forward), a seed step defining `Grad(output)`, then
//! one step per active non-input node in reverse topological order
//! (backward). A forward-only tape ([`FloatPlan::forward_only`]) is the
//! forward steps alone, over `Act` values only. Either way the graph
//! output's activation is pinned so the caller can read logits after the
//! run.
//!
//! Outside the slots, the plan accounts three plan-owned arenas the
//! executor reuses across steps: `ws` (per-image conv workspace
//! high-water across all conv nodes: the staged zero-padded image and
//! its tap table, plus one block of gradient columns and the
//! weight-gradient partial on a training plan; `n·kelems`
//! weight-gradient partials for depthwise), `wpack` (packed-filter
//! panel high-water across standard convs; forward-step-local, so
//! shared), and `qw` (per-node quantized-weight segments that must
//! persist from the forward quantize to the backward STE).

use crate::ir::{op_params, Graph, Op};
use tqt_plan::{assign_slots, TapeStep};
use tqt_tensor::conv::{conv2d_bwd_ws, conv2d_fwd_ws};
use tqt_tensor::gemm::packed_a_len;

/// What one planner value holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Node `i`'s forward activation.
    Act(usize),
    /// Batch-norm node `i`'s normalized activation.
    Xhat(usize),
    /// Gradient w.r.t. node `i`'s activation.
    Grad(usize),
    /// Staging buffer for a non-defining gradient contribution into
    /// `Grad(i)`.
    Temp(usize),
}

impl ValueKind {
    /// The node this value belongs to.
    pub fn node(&self) -> usize {
        match *self {
            ValueKind::Act(i)
            | ValueKind::Xhat(i)
            | ValueKind::Grad(i)
            | ValueKind::Temp(i) => i,
        }
    }
}

/// One gradient contribution a backward step sends into an input.
#[derive(Debug, Clone)]
pub struct Contrib {
    /// Input position on the consuming node.
    pub pos: usize,
    /// The producer node whose gradient receives this contribution.
    pub target: usize,
    /// `None`: defining contribution, computed straight into the gradient
    /// slot. `Some(v)`: staged into temp value `v`, then accumulated.
    pub temp: Option<usize>,
}

/// One backward step: the consuming node and its outgoing contributions,
/// in input-position order.
#[derive(Debug, Clone)]
pub struct BwdStep {
    /// The node whose backward runs at this step.
    pub id: usize,
    /// Gradient contributions to each input, in position order.
    pub contribs: Vec<Contrib>,
}

/// A compiled training-step or forward-only plan for one
/// `(graph, input shape)` pair.
#[derive(Debug)]
pub struct FloatPlan {
    training: bool,
    input_dims: Vec<usize>,
    shapes: Vec<Vec<usize>>,
    lens: Vec<usize>,
    kinds: Vec<ValueKind>,
    xhat: Vec<Option<usize>>,
    grad: Vec<Option<usize>>,
    active: Vec<bool>,
    bwd: Vec<BwdStep>,
    steps: Vec<TapeStep>,
    slot: Vec<usize>,
    slot_lens: Vec<usize>,
    /// Arena segment indices per node, in `op_params` order.
    param_seg: Vec<Vec<usize>>,
    /// First arena segment index of the threshold block (= layer param
    /// count; threshold `tid` lives at `thr_seg_base + tid`).
    thr_seg_base: usize,
    /// Per-node quantized-weight segment `(offset, len)` in the qw arena.
    qw_seg: Vec<Option<(usize, usize)>>,
    qw_len: usize,
    ws_len: usize,
    wpack_len: usize,
}

impl FloatPlan {
    /// Compiles a training-step plan for `g` at the given input shape.
    /// `g` is not mutated.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input/output or shape inference fails.
    pub fn new(g: &mut Graph, input_dims: &[usize]) -> Self {
        Self::build(g, input_dims, true)
    }

    /// Compiles a forward-only plan for `g` at the given input shape:
    /// activations and kernel scratch only, with no xhat, gradient or
    /// temp values and no backward steps. The executor runs it in eval
    /// mode (batch norm on running statistics).
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn forward_only(g: &Graph, input_dims: &[usize]) -> Self {
        Self::build(g, input_dims, false)
    }

    fn build(g: &Graph, input_dims: &[usize], training: bool) -> Self {
        let shapes = g.infer_shapes(input_dims);
        let n = g.len();
        let out_id = g.output_id();

        // Ancestors of the output receive gradients; the rest are dead
        // branches the reference backward skips via its `None` check. A
        // forward-only plan has no gradients at all.
        let mut active = vec![false; n];
        active[out_id] = training;
        for id in (0..n).rev() {
            if active[id] {
                for &i in &g.node(id).inputs {
                    active[i] = true;
                }
            }
        }

        // Values: acts first (value id = node id), then xhats, grads and
        // temps appended as discovered.
        let mut lens: Vec<usize> = shapes.iter().map(|s| s.iter().product()).collect();
        let mut kinds: Vec<ValueKind> = (0..n).map(ValueKind::Act).collect();
        let mut xhat = vec![None; n];
        let mut grad = vec![None; n];
        for id in 0..n {
            if training && matches!(g.node(id).op, Op::BatchNorm(_)) {
                xhat[id] = Some(kinds.len());
                kinds.push(ValueKind::Xhat(id));
                lens.push(lens[id]);
            }
        }
        for id in 0..n {
            if active[id] {
                grad[id] = Some(kinds.len());
                kinds.push(ValueKind::Grad(id));
                lens.push(lens[id]);
            }
        }

        // Forward tape: one step per node in topological order.
        let mut steps = Vec::with_capacity(2 * n + 1);
        for (id, &xh) in xhat.iter().enumerate() {
            let mut writes = vec![id];
            if let Some(xh) = xh {
                writes.push(xh);
            }
            let reads: Vec<usize> = g.node(id).inputs.clone();
            steps.push(TapeStep::new(writes, reads));
        }

        // Seed: the loss gradient defines Grad(output).
        if let Some(gout) = grad[out_id] {
            steps.push(TapeStep::new(vec![gout], Vec::new()));
        }

        // Backward tape: active non-input nodes in reverse order.
        let mut bwd = Vec::new();
        let mut grad_defined = vec![false; n];
        grad_defined[out_id] = true;
        for id in (0..n).rev() {
            if !active[id] || matches!(g.node(id).op, Op::Input) {
                continue;
            }
            let node = g.node(id);
            let gid = grad[id].expect("active node has a gradient value"); // tqt:allow(expect): every active node was assigned a gradient slot
            let mut reads = vec![gid];
            match &node.op {
                // Ops whose backward consumes the forward input.
                Op::Relu(_)
                | Op::Conv(_)
                | Op::Depthwise(_)
                | Op::Dense(_)
                | Op::Quant { .. } => reads.push(node.inputs[0]),
                // Batch-norm consumes its normalized activation instead.
                Op::BatchNorm(_) => {
                    reads.push(xhat[id].expect("batch-norm has an xhat value")); // tqt:allow(expect): an xhat slot is allocated per batch-norm above
                }
                _ => {}
            }
            let mut writes = Vec::new();
            let mut contribs = Vec::with_capacity(node.inputs.len());
            for (pos, &t) in node.inputs.iter().enumerate() {
                let gt = grad[t].expect("inputs of active nodes are active"); // tqt:allow(expect): activity is closed over inputs by construction
                if !grad_defined[t] {
                    grad_defined[t] = true;
                    writes.push(gt);
                    contribs.push(Contrib {
                        pos,
                        target: t,
                        temp: None,
                    });
                } else {
                    // Fan-out: stage into a step-local temp, then
                    // read-modify-write the already-defined gradient.
                    let tmp = kinds.len();
                    kinds.push(ValueKind::Temp(t));
                    lens.push(lens[t]);
                    writes.push(tmp);
                    reads.push(gt);
                    contribs.push(Contrib {
                        pos,
                        target: t,
                        temp: Some(tmp),
                    });
                }
            }
            steps.push(TapeStep::new(writes, reads));
            bwd.push(BwdStep { id, contribs });
        }

        let assignment = assign_slots(&lens, &steps, &[out_id]);

        // Parameter arena layout mirror: `Graph::params_mut` returns
        // layer params in node-id order, then thresholds by tid.
        let mut param_seg = Vec::with_capacity(n);
        let mut next = 0usize;
        for id in 0..n {
            let count = op_params(&g.node(id).op).len();
            param_seg.push((next..next + count).collect());
            next += count;
        }
        let thr_seg_base = next;

        // Plan-owned workspace accounting.
        let (mut ws_len, mut wpack_len, mut qw_len) = (0usize, 0usize, 0usize);
        let mut qw_seg = vec![None; n];
        for id in 0..n {
            let node = g.node(id);
            let ish = &shapes[node.inputs.first().copied().unwrap_or(id)];
            match &node.op {
                Op::Conv(l) => {
                    let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                    let wd = l.weight().value.dims();
                    let (cout, krows) = (wd[0], wd[1] * wd[2] * wd[3]);
                    ws_len = ws_len.max(nb * conv2d_fwd_ws(c, h, w, l.geom()));
                    if training {
                        ws_len = ws_len.max(nb * conv2d_bwd_ws(c, h, w, cout, l.geom()));
                    }
                    wpack_len = wpack_len.max(packed_a_len(cout, krows));
                }
                Op::Depthwise(_) => {
                    let nb = ish[0];
                    let kelems = op_params(&node.op)
                        .into_iter()
                        .find(|p| p.kind == tqt_nn::ParamKind::Weight)
                        .expect("depthwise conv has a weight") // tqt:allow(expect): depthwise conv always carries a weight param
                        .value
                        .len();
                    ws_len = ws_len.max(nb * kelems);
                }
                _ => {}
            }
            if node.wq.is_some() {
                let wlen = op_params(&node.op)
                    .into_iter()
                    .find(|p| p.kind == tqt_nn::ParamKind::Weight)
                    .expect("weight quantizer on op without weights") // tqt:allow(expect): quantize_graph attaches wq only to weight-bearing ops
                    .value
                    .len();
                qw_seg[id] = Some((qw_len, wlen));
                qw_len += wlen;
            }
        }

        FloatPlan {
            training,
            input_dims: input_dims.to_vec(),
            shapes,
            lens,
            kinds,
            xhat,
            grad,
            active,
            bwd,
            steps,
            slot: assignment.slot,
            slot_lens: assignment.slot_lens,
            param_seg,
            thr_seg_base,
            qw_seg,
            qw_len,
            ws_len,
            wpack_len,
        }
    }

    /// Whether this is a training-step plan (forward, seed and backward)
    /// rather than a forward-only one.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// The input shape the plan was compiled for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Node `id`'s output shape.
    pub fn shape(&self, id: usize) -> &[usize] {
        &self.shapes[id]
    }

    /// Number of planner values (acts + xhats + grads + temps).
    pub fn num_values(&self) -> usize {
        self.lens.len()
    }

    /// Element count of value `v`.
    pub fn len_of(&self, v: usize) -> usize {
        self.lens[v]
    }

    /// The kind of value `v`.
    pub fn kind_of(&self, v: usize) -> ValueKind {
        self.kinds[v]
    }

    /// Slot assigned to value `v`.
    pub fn slot_of(&self, v: usize) -> usize {
        self.slot[v]
    }

    /// Capacity of slot `s` in elements.
    pub fn slot_len(&self, s: usize) -> usize {
        self.slot_lens[s]
    }

    /// Number of distinct buffer slots.
    pub fn num_slots(&self) -> usize {
        self.slot_lens.len()
    }

    /// Total elements across all slot buffers.
    pub fn total_buffer_elems(&self) -> usize {
        self.slot_lens.iter().sum()
    }

    /// The execution tape (forward steps, then on a training plan the
    /// gradient seed and backward steps).
    pub fn steps(&self) -> &[TapeStep] {
        &self.steps
    }

    /// The backward schedule with per-input contribution modes.
    pub fn bwd_steps(&self) -> &[BwdStep] {
        &self.bwd
    }

    /// Whether node `id` receives a gradient (is an ancestor of the
    /// output).
    pub fn is_active(&self, id: usize) -> bool {
        self.active[id]
    }

    /// Node `id`'s xhat value, if it is a batch-norm.
    pub fn xhat_of(&self, id: usize) -> Option<usize> {
        self.xhat[id]
    }

    /// Node `id`'s gradient value, if active.
    pub fn grad_of(&self, id: usize) -> Option<usize> {
        self.grad[id]
    }

    /// Arena segment indices for node `id`'s parameters, in `op_params`
    /// order.
    pub fn param_segs(&self, id: usize) -> &[usize] {
        &self.param_seg[id]
    }

    /// First arena segment index of the threshold block.
    pub fn thr_seg_base(&self) -> usize {
        self.thr_seg_base
    }

    /// Node `id`'s quantized-weight segment in the qw arena.
    pub fn qw_seg(&self, id: usize) -> Option<(usize, usize)> {
        self.qw_seg[id]
    }

    /// Total quantized-weight arena elements.
    pub fn qw_elems(&self) -> usize {
        self.qw_len
    }

    /// Shared per-image workspace high-water mark in elements.
    pub fn scratch_elems(&self) -> usize {
        self.ws_len
    }

    /// Shared packed-filter panel high-water mark in elements.
    pub fn wpack_elems(&self) -> usize {
        self.wpack_len
    }

    /// A short human name for value `v`, for diagnostics.
    pub fn value_name(&self, g: &Graph, v: usize) -> String {
        match self.kinds[v] {
            ValueKind::Act(i) => g.node(i).name.clone(),
            ValueKind::Xhat(i) => format!("{}.xhat", g.node(i).name),
            ValueKind::Grad(i) => format!("grad({})", g.node(i).name),
            ValueKind::Temp(i) => format!("grad({})#staged", g.node(i).name),
        }
    }

    /// Test-only mutation hook: shortens the plan-owned workspace by one
    /// element, as a planner that under-sized a conv's staged windows
    /// would. Returns the shortened length, or `None` if the plan has no
    /// workspace to shorten. The mutated plan must never be executed; it
    /// exists to prove the float plan verifier refutes it (`TQT-V018`).
    #[doc(hidden)]
    pub fn inject_short_workspace(&mut self) -> Option<usize> {
        self.ws_len = self.ws_len.checked_sub(1)?;
        Some(self.ws_len)
    }

    /// Test-only mutation hook: re-aliases one value onto the slot of a
    /// value that is still live at its definition, releasing the victim's
    /// slot one consumer too early. The slot capacity is widened so only
    /// the aliasing bug is observable. Returns `(victim, clobberer,
    /// stranded_step)` — the victim value, the value that steals its
    /// slot, and the tape step whose read is stranded — or `None` if no
    /// eligible pair exists. The mutated plan must never be executed; it
    /// exists to prove the float plan verifier refutes it (`TQT-V017`).
    #[doc(hidden)]
    pub fn inject_premature_release(&mut self) -> Option<(usize, usize, usize)> {
        // Definition and last-read step per value.
        let nv = self.num_values();
        let mut def = vec![usize::MAX; nv];
        let mut last_read = vec![None; nv];
        for (si, step) in self.steps.iter().enumerate() {
            for &w in &step.writes {
                def[w] = si;
            }
            for &r in &step.reads {
                last_read[r] = Some(si);
            }
        }
        for p in 0..nv {
            let Some(stranded) = last_read[p] else { continue };
            if self.lens[p] == 0 {
                continue;
            }
            for m in 0..nv {
                if self.lens[m] == 0 || self.slot[m] == self.slot[p] {
                    continue;
                }
                // m must be defined strictly between p's definition and
                // p's last read, by a step that does not itself read p
                // (so the refutation lands on the stranded later reader).
                if def[m] <= def[p] || def[m] >= stranded {
                    continue;
                }
                if self.steps[def[m]].reads.contains(&p) {
                    continue;
                }
                self.slot[m] = self.slot[p];
                self.slot_lens[self.slot[p]] =
                    self.slot_lens[self.slot[p]].max(self.lens[m]);
                return Some((p, m, stranded));
            }
        }
        None
    }
}
