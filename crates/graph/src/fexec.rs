//! Planned float executor: runs one QAT training step (forward +
//! backward) or one forward-only pass over the slot buffers of a
//! [`FloatPlan`], with zero steady-state allocations. It is the only
//! float engine the set-up, training and evaluation paths call:
//! [`Graph::calibrate`], the trainer's steps and validation, and
//! distribution capture all run here.
//!
//! **Bit-identity contract.** Every op's arithmetic is the slice kernel
//! the allocating layer wraps: conv and depthwise ([`tqt_tensor::conv`]),
//! dense ([`tqt_tensor::gemm`]), per-channel bias add and sum
//! ([`tqt_tensor::ops`]), pooling ([`tqt_nn::pool`]), batch norm
//! ([`tqt_nn::batchnorm`]), concat ([`tqt_nn::merge`]) and the quantizer
//! ([`tqt_quant::tqt`]). The `tqt-nn` unit tests and finite-difference
//! gradchecks check that arithmetic. What this executor owns, and what
//! `crates/graph/tests/planned_parity.rs` and the trainer's
//! `train_parity` test compare bit-for-bit against the reference
//! interpreter (`Graph::forward`/`backward`), is the rest: slot liveness,
//! gradient fan-in order (the reference move-then-axpy order: the first
//! contribution in descending-node order writes, later ones accumulate),
//! threshold gradients accumulated in the same descending node order,
//! arena plumbing, quantized-weight staging, and calibration order.
//!
//! Parameters are read from a [`ParamArena`] (the pooled-optimizer
//! layout); thresholds and batch-norm running statistics stay
//! authoritative on the [`Graph`] itself, because calibration and the
//! threshold freezer mutate them there mid-training.

use crate::fplan::FloatPlan;
use crate::ir::{Graph, Op, ThresholdId, ThresholdMode, ThresholdState};
use tqt_nn::batchnorm::{batch_norm_backward_into, batch_norm_into, BnStats};
use tqt_nn::merge::{concat_into, split_into};
use tqt_nn::pool::{
    avg_pool2d_backward_into, avg_pool2d_into, global_avg_pool_backward_into, global_avg_pool_into,
    max_pool2d_backward_into, max_pool2d_into,
};
use tqt_nn::ParamArena;
use tqt_quant::calib::calibrate_log2_t;
use tqt_quant::tqt::{quantize_backward_inplace, quantize_backward_into, quantize_into};
use tqt_tensor::conv::{
    conv2d_backward_into, conv2d_bwd_ws, conv2d_fwd_ws, conv2d_into, depthwise_conv2d_backward_into,
    depthwise_conv2d_into,
};
use tqt_tensor::gemm::{gemm_nn, gemm_nt, gemm_tn, pack_a_full_into, packed_a_len};
use tqt_tensor::ops::{add_channel_into, sum_channel_into};
use tqt_tensor::Tensor;

/// A quantizer hook: every quantizer of a forward pass calls it just
/// before it applies, with its threshold id, its threshold state, and
/// the full-precision data it is about to quantize (an activation
/// quantizer's input slot, a weight quantizer's arena segment).
pub type QuantHook<'a> = dyn FnMut(ThresholdId, &mut ThresholdState, &[f32]) + 'a;

/// Executes planned training steps or forward-only passes for one
/// `(graph, input shape)` pair.
/// All buffers — value slots, conv workspace, packed-filter panel,
/// quantized-weight arena, pooling argmaxes, batch-norm scratch — are
/// allocated once at construction; the steady state allocates nothing
/// (asserted via [`slot_allocs`](Self::slot_allocs)).
#[derive(Debug)]
pub struct FloatExecutor {
    plan: FloatPlan,
    slots: Vec<Vec<f32>>,
    ws: Vec<f32>,
    wpack: Vec<f32>,
    qw: Vec<f32>,
    /// Per-node max-pool argmaxes (flat input indices), empty elsewhere.
    argmax: Vec<Vec<usize>>,
    bn: Vec<Option<BnStats>>,
    slot_allocs: u64,
    forward_ran: bool,
}

impl FloatExecutor {
    /// Builds an executor for `plan`, eagerly allocating every buffer.
    pub fn new(plan: FloatPlan, g: &Graph) -> Self {
        let n = g.len();
        let slots = (0..plan.num_slots()).map(|s| vec![0.0; plan.slot_len(s)]).collect();
        let mut argmax = vec![Vec::new(); n];
        let mut bn = Vec::with_capacity(n);
        for (id, am) in argmax.iter_mut().enumerate() {
            match &g.node(id).op {
                Op::MaxPool(_) => {
                    *am = vec![0usize; plan.shape(id).iter().product()];
                    bn.push(None);
                }
                Op::BatchNorm(_) => bn.push(Some(BnStats::new(plan.shape(id)[1]))),
                _ => bn.push(None),
            }
        }
        FloatExecutor {
            slots,
            ws: vec![0.0; plan.scratch_elems()],
            wpack: vec![0.0; plan.wpack_elems()],
            qw: vec![0.0; plan.qw_elems()],
            argmax,
            bn,
            slot_allocs: 0,
            forward_ran: false,
            plan,
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &FloatPlan {
        &self.plan
    }

    /// Number of slot-buffer growths since construction. Stays `0` in
    /// steady state — every buffer is sized at build time.
    pub fn slot_allocs(&self) -> u64 {
        self.slot_allocs
    }

    /// Grows any undersized slot buffer (a no-op after a correct build;
    /// each growth bumps the [`slot_allocs`](Self::slot_allocs) counter).
    fn ensure_slots(&mut self) {
        for s in 0..self.slots.len() {
            let need = self.plan.slot_len(s);
            if self.slots[s].len() < need {
                self.slots[s].resize(need, 0.0);
                self.slot_allocs += 1;
            }
        }
    }

    /// Runs the planned forward pass: parameters from `arena`,
    /// thresholds and batch-norm running statistics from (and, on a
    /// training plan, to) `g`. A training plan runs in training mode and
    /// readies [`backward`](Self::backward); a forward-only plan runs in
    /// eval mode, with batch norm on its running statistics. Returns the
    /// output logits.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the planned input shape, a quantizer
    /// is uncalibrated, or (debug builds) a node produces a non-finite
    /// value.
    pub fn forward(&mut self, g: &mut Graph, arena: &ParamArena, x: &Tensor) -> Tensor {
        self.run_forward(g, arena, x, None)
    }

    /// [`forward`](Self::forward) with `hook` called by every quantizer,
    /// in node order, just before it applies — the one hook calibration
    /// and distribution capture share.
    pub fn forward_hooked(
        &mut self,
        g: &mut Graph,
        arena: &ParamArena,
        x: &Tensor,
        hook: &mut QuantHook<'_>,
    ) -> Tensor {
        self.run_forward(g, arena, x, Some(hook))
    }

    fn run_forward(
        &mut self,
        g: &mut Graph,
        arena: &ParamArena,
        x: &Tensor,
        mut hook: Option<&mut QuantHook<'_>>,
    ) -> Tensor {
        assert_eq!(
            x.dims(),
            self.plan.input_dims(),
            "input shape does not match the compiled plan"
        );
        self.ensure_slots();
        let FloatExecutor {
            plan,
            slots,
            ws,
            wpack,
            qw,
            argmax,
            bn,
            ..
        } = self;
        let plan: &FloatPlan = plan;
        let training = plan.is_training();
        let n = g.len();
        let Graph {
            nodes, thresholds, ..
        } = g;
        for id in 0..n {
            let node = &mut nodes[id];
            let olen = plan.len_of(id);
            let oslot = plan.slot_of(id);
            let mut obuf = std::mem::take(&mut slots[oslot]);
            let out = &mut obuf[..olen];
            match &mut node.op {
                Op::Input => out.copy_from_slice(x.data()),
                Op::Identity | Op::Flatten(_) => {
                    let i0 = node.inputs[0];
                    out.copy_from_slice(&slots[plan.slot_of(i0)][..plan.len_of(i0)]);
                }
                Op::Quant { tid } => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let ts = &mut thresholds[*tid];
                    if let Some(h) = hook.as_deref_mut() {
                        h(*tid, ts, xin);
                    }
                    assert!(
                        ts.calibrated,
                        "quantizer {} used before calibration",
                        ts.param.name
                    );
                    quantize_into(xin, ts.log2_t(), ts.spec, out);
                }
                Op::Relu(l) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    l.forward_into(xin, out);
                }
                Op::Conv(l) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let ish = plan.shape(i0);
                    let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                    let cout = plan.shape(id)[1];
                    let geom = l.geom();
                    let segs = plan.param_segs(id);
                    let wsrc = quantized_or_plain(
                        node, id, plan, thresholds, arena, qw, segs[0], &mut hook,
                    );
                    let krows = c * geom.kh * geom.kw;
                    let plen = packed_a_len(cout, krows);
                    pack_a_full_into(wsrc, cout, krows, &mut wpack[..plen]);
                    let wslen = nb * conv2d_fwd_ws(c, h, w, geom);
                    conv2d_into(xin, nb, c, h, w, &wpack[..plen], cout, geom, out, &mut ws[..wslen]);
                    if let Some(&bseg) = segs.get(1) {
                        add_channel_into(out, nb, arena.val(bseg));
                    }
                }
                Op::Depthwise(l) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let ish = plan.shape(i0);
                    let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                    let geom = l.geom();
                    let segs = plan.param_segs(id);
                    let wsrc = quantized_or_plain(
                        node, id, plan, thresholds, arena, qw, segs[0], &mut hook,
                    );
                    depthwise_conv2d_into(xin, nb, c, h, w, wsrc, geom, out);
                    if let Some(&bseg) = segs.get(1) {
                        add_channel_into(out, nb, arena.val(bseg));
                    }
                }
                Op::Dense(_) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let (nb, ind) = (plan.shape(i0)[0], plan.shape(i0)[1]);
                    let outd = plan.shape(id)[1];
                    let segs = plan.param_segs(id);
                    let wsrc = quantized_or_plain(
                        node, id, plan, thresholds, arena, qw, segs[0], &mut hook,
                    );
                    out.fill(0.0);
                    gemm_nn(nb, outd, ind, xin, wsrc, out, true);
                    if let Some(&bseg) = segs.get(1) {
                        add_channel_into(out, nb, arena.val(bseg));
                    }
                }
                Op::BatchNorm(l) => {
                    let i0 = node.inputs[0];
                    let xh_slot = plan.xhat_of(id).map(|v| plan.slot_of(v));
                    let mut xhbuf = xh_slot.map(|s| std::mem::take(&mut slots[s]));
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let st = bn[id].as_mut().expect("batch-norm scratch missing"); // tqt:allow(expect): scratch is allocated per batch-norm at plan build
                    let segs = plan.param_segs(id);
                    let (rm, rv) = l.running_stats();
                    let batch_stats = training && !l.stats_frozen();
                    let running = (!batch_stats).then(|| (rm.data(), rv.data()));
                    batch_norm_into(
                        xin,
                        plan.shape(id)[0],
                        running,
                        l.eps(),
                        arena.val(segs[0]),
                        arena.val(segs[1]),
                        st,
                        xhbuf.as_mut().map(|b| &mut b[..olen]),
                        out,
                    );
                    if batch_stats {
                        l.update_running_stats(st);
                    }
                    if let (Some(s), Some(b)) = (xh_slot, xhbuf) {
                        slots[s] = b;
                    }
                }
                Op::MaxPool(l) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let ish = plan.shape(i0);
                    let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                    max_pool2d_into(xin, nb, c, h, w, l.geom(), out, &mut argmax[id]);
                }
                Op::AvgPool(l) => {
                    let i0 = node.inputs[0];
                    let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                    let ish = plan.shape(i0);
                    let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                    avg_pool2d_into(xin, nb, c, h, w, l.geom(), out);
                }
                Op::GlobalAvgPool(_) => {
                    let i0 = node.inputs[0];
                    global_avg_pool_into(&slots[plan.slot_of(i0)][..plan.len_of(i0)], out);
                }
                Op::Add(_) => {
                    let (a, b) = (node.inputs[0], node.inputs[1]);
                    let ad = &slots[plan.slot_of(a)][..plan.len_of(a)];
                    let bd = &slots[plan.slot_of(b)][..plan.len_of(b)];
                    for ((o, &av), &bv) in out.iter_mut().zip(ad).zip(bd) {
                        *o = av + bv;
                    }
                }
                Op::Concat(_) => {
                    let parts = node
                        .inputs
                        .iter()
                        .map(|&i| &slots[plan.slot_of(i)][..plan.len_of(i)]);
                    concat_into(parts, plan.shape(id)[0], out);
                }
            }
            #[cfg(debug_assertions)]
            for &v in out.iter() {
                assert!(
                    v.is_finite(),
                    "non-finite activation produced by node {}",
                    node.name
                );
            }
            slots[oslot] = obuf;
        }
        self.forward_ran = training;
        let out_id = g.output_id();
        let plan = &self.plan;
        Tensor::from_vec(
            plan.shape(out_id).to_vec(),
            self.slots[plan.slot_of(out_id)][..plan.len_of(out_id)].to_vec(),
        )
    }

    /// Runs the planned backward pass from the loss gradient `dout`,
    /// accumulating layer-parameter gradients into `arena` (which must
    /// arrive zeroed, like `Graph::zero_grads` before the reference
    /// backward) and threshold gradients onto `g`'s side table.
    ///
    /// # Panics
    ///
    /// Panics if no planned forward preceded this call or `dout` has the
    /// wrong shape.
    pub fn backward(&mut self, g: &mut Graph, arena: &mut ParamArena, dout: &Tensor) {
        assert!(
            self.forward_ran,
            "planned backward requires a training-plan forward pass first"
        );
        self.forward_ran = false;
        let out_id = g.output_id();
        assert_eq!(
            dout.dims(),
            self.plan.shape(out_id),
            "loss gradient shape does not match the graph output"
        );
        let FloatExecutor {
            plan,
            slots,
            ws,
            qw,
            argmax,
            bn,
            ..
        } = self;
        let plan: &FloatPlan = plan;
        let Graph {
            nodes, thresholds, ..
        } = g;

        // Seed: the loss gradient defines grad(output).
        let gout = plan.grad_of(out_id).expect("output has a gradient value"); // tqt:allow(expect): gradient seeding makes the output active
        let gslot = plan.slot_of(gout);
        let mut gbuf = std::mem::take(&mut slots[gslot]);
        gbuf[..plan.len_of(gout)].copy_from_slice(dout.data());
        slots[gslot] = gbuf;

        for step in plan.bwd_steps() {
            let id = step.id;
            let node = &mut nodes[id];
            let gid = plan.grad_of(id).expect("backward step on inactive node"); // tqt:allow(expect): the plan emits backward steps only for active nodes
            // Take every destination buffer for this step's contributions
            // (defining writes and staged temps; the planner guarantees
            // their slots are disjoint from each other and from reads).
            let mut dsts: Vec<Vec<f32>> = Vec::with_capacity(step.contribs.len());
            let dst_vals: Vec<usize> = step
                .contribs
                .iter()
                .map(|cb| cb.temp.unwrap_or_else(|| {
                    plan.grad_of(cb.target).expect("contribution to inactive node") // tqt:allow(expect): the plan records contributions to active nodes only
                }))
                .collect();
            for &v in &dst_vals {
                dsts.push(std::mem::take(&mut slots[plan.slot_of(v)]));
            }
            {
                let gy = &slots[plan.slot_of(gid)][..plan.len_of(gid)];
                match &mut node.op {
                    Op::Input => unreachable!("input nodes have no backward step"),
                    Op::Identity | Op::Flatten(_) | Op::Add(_) => {
                        for (cb, dbuf) in step.contribs.iter().zip(&mut dsts) {
                            dbuf[..plan.len_of(dst_vals[cb.pos])].copy_from_slice(gy);
                        }
                    }
                    Op::Concat(_) => {
                        let parts = dsts
                            .iter_mut()
                            .zip(&dst_vals)
                            .map(|(d, &v)| &mut d[..plan.len_of(v)]);
                        split_into(gy, plan.shape(id)[0], parts);
                    }
                    Op::Quant { tid } => {
                        let i0 = node.inputs[0];
                        let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                        let ts = &mut thresholds[*tid];
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        let dlog2_t = quantize_backward_into(xin, ts.log2_t(), ts.spec, gy, dst);
                        if ts.mode == ThresholdMode::Trained {
                            ts.param.accumulate_scalar(dlog2_t);
                        }
                    }
                    Op::Relu(l) => {
                        let i0 = node.inputs[0];
                        let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        l.backward_into(xin, gy, dst);
                    }
                    Op::Conv(l) => {
                        let i0 = node.inputs[0];
                        let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                        let ish = plan.shape(i0);
                        let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                        let cout = plan.shape(id)[1];
                        let geom = l.geom();
                        let segs = plan.param_segs(id).to_vec();
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        let (wvals, wgrad) = arena.val_grad_mut(segs[0]);
                        let wdat: &[f32] = match plan.qw_seg(id) {
                            Some((o, ln)) => &qw[o..o + ln],
                            None => wvals,
                        };
                        let wslen = nb * conv2d_bwd_ws(c, h, w, cout, geom);
                        conv2d_backward_into(
                            xin,
                            wdat,
                            gy,
                            nb,
                            c,
                            h,
                            w,
                            cout,
                            geom,
                            dst,
                            wgrad,
                            &mut ws[..wslen],
                        );
                        if let Some(&bseg) = segs.get(1) {
                            sum_channel_into(gy, nb, arena.grad_mut(bseg));
                        }
                        apply_weight_ste(node, thresholds, arena, segs[0]);
                    }
                    Op::Depthwise(l) => {
                        let i0 = node.inputs[0];
                        let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                        let ish = plan.shape(i0);
                        let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                        let geom = l.geom();
                        let segs = plan.param_segs(id).to_vec();
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        let (wvals, wgrad) = arena.val_grad_mut(segs[0]);
                        let wdat: &[f32] = match plan.qw_seg(id) {
                            Some((o, ln)) => &qw[o..o + ln],
                            None => wvals,
                        };
                        let kelems = c * geom.kh * geom.kw;
                        depthwise_conv2d_backward_into(
                            xin,
                            wdat,
                            gy,
                            nb,
                            c,
                            h,
                            w,
                            geom,
                            dst,
                            wgrad,
                            &mut ws[..nb * kelems],
                        );
                        if let Some(&bseg) = segs.get(1) {
                            sum_channel_into(gy, nb, arena.grad_mut(bseg));
                        }
                        apply_weight_ste(node, thresholds, arena, segs[0]);
                    }
                    Op::Dense(_) => {
                        let i0 = node.inputs[0];
                        let xin = &slots[plan.slot_of(i0)][..plan.len_of(i0)];
                        let (nb, ind) = (plan.shape(i0)[0], plan.shape(i0)[1]);
                        let outd = plan.shape(id)[1];
                        let segs = plan.param_segs(id).to_vec();
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        {
                            // dW = x^T @ gy onto the zeroed arena gradient
                            // (matmul_tn's exact GEMM call).
                            let wgrad = arena.grad_mut(segs[0]);
                            gemm_tn(ind, outd, nb, xin, gy, wgrad, true);
                        }
                        if let Some(&bseg) = segs.get(1) {
                            sum_channel_into(gy, nb, arena.grad_mut(bseg));
                        }
                        // dx = gy @ w^T with the (possibly quantized)
                        // forward weights, like the reference op order.
                        let wvals = arena.val(segs[0]);
                        let wdat: &[f32] = match plan.qw_seg(id) {
                            Some((o, ln)) => &qw[o..o + ln],
                            None => wvals,
                        };
                        dst.fill(0.0);
                        gemm_nt(nb, ind, outd, gy, wdat, dst, true);
                        apply_weight_ste(node, thresholds, arena, segs[0]);
                    }
                    Op::BatchNorm(_) => {
                        let xh_val = plan.xhat_of(id).expect("batch-norm has an xhat value"); // tqt:allow(expect): the plan allocates an xhat slot per batch-norm
                        let xh = &slots[plan.slot_of(xh_val)][..plan.len_of(xh_val)];
                        let st = bn[id].as_mut().expect("batch-norm scratch missing"); // tqt:allow(expect): scratch is allocated per batch-norm at plan build
                        let segs = plan.param_segs(id);
                        let (gamma, dgamma, dbeta) = arena.val_grads_mut(segs[0], segs[1]);
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        let nb = plan.shape(id)[0];
                        batch_norm_backward_into(gy, xh, nb, gamma, st, dgamma, dbeta, dst);
                    }
                    Op::MaxPool(_) => {
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        max_pool2d_backward_into(gy, &argmax[id], dst);
                    }
                    Op::AvgPool(l) => {
                        let ish = plan.shape(node.inputs[0]);
                        let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        avg_pool2d_backward_into(gy, nb, c, h, w, l.geom(), dst);
                    }
                    Op::GlobalAvgPool(_) => {
                        let dst = &mut dsts[0][..plan.len_of(dst_vals[0])];
                        global_avg_pool_backward_into(gy, dst);
                    }
                }
            }
            for (&v, dbuf) in dst_vals.iter().zip(dsts) {
                slots[plan.slot_of(v)] = dbuf;
            }
            // Fan-in: accumulate staged temps onto the already-defined
            // gradients, in input-position order (the reference
            // interpreter's axpy order for fan-out nodes).
            for (cb, &v) in step.contribs.iter().zip(&dst_vals) {
                if cb.temp.is_none() {
                    continue;
                }
                let gt = plan.grad_of(cb.target).expect("contribution to inactive node"); // tqt:allow(expect): the plan records contributions to active nodes only
                let gts = plan.slot_of(gt);
                let mut acc = std::mem::take(&mut slots[gts]);
                let tmp = &slots[plan.slot_of(v)][..plan.len_of(v)];
                for (a, &b) in acc[..plan.len_of(gt)].iter_mut().zip(tmp) {
                    *a += 1.0 * b;
                }
                slots[gts] = acc;
            }
        }
    }
}

/// Quantizes node `id`'s weight segment into its qw slice (forward pass
/// of the weight fake-quantizer, after the hook saw the full-precision
/// segment) and returns the weights the compute kernel should consume;
/// plain arena weights when no quantizer is attached.
#[allow(clippy::too_many_arguments)]
fn quantized_or_plain<'a>(
    node: &crate::ir::Node,
    id: usize,
    plan: &FloatPlan,
    thresholds: &mut [ThresholdState],
    arena: &'a ParamArena,
    qw: &'a mut [f32],
    wseg: usize,
    hook: &mut Option<&mut QuantHook<'_>>,
) -> &'a [f32] {
    match (&node.wq, plan.qw_seg(id)) {
        (Some(wq), Some((o, ln))) => {
            let ts = &mut thresholds[wq.tid];
            if let Some(h) = hook.as_deref_mut() {
                h(wq.tid, ts, arena.val(wseg));
            }
            assert!(
                ts.calibrated,
                "weight quantizer {} used before calibration",
                ts.param.name
            );
            quantize_into(arena.val(wseg), ts.log2_t(), ts.spec, &mut qw[o..o + ln]);
            &qw[o..o + ln]
        }
        _ => arena.val(wseg),
    }
}

/// Routes an accumulated weight gradient through the fake-quantizer STE
/// (mask to the clip range, fold the threshold gradient) exactly like the
/// reference backward, accumulating `dlog2 t` onto the graph threshold.
fn apply_weight_ste(
    node: &crate::ir::Node,
    thresholds: &mut [ThresholdState],
    arena: &mut ParamArena,
    wseg: usize,
) {
    let Some(wq) = &node.wq else { return };
    let ts = &mut thresholds[wq.tid];
    let (wvals, wgrad) = arena.val_grad_mut(wseg);
    let dlog2_t = quantize_backward_inplace(wvals, ts.log2_t(), ts.spec, wgrad);
    if ts.mode == ThresholdMode::Trained {
        ts.param.accumulate_scalar(dlog2_t);
    }
}

/// Builds a [`ParamArena`] over `g`'s parameters in `params_mut` order
/// (layer parameters by node id, then thresholds by id) — the exact
/// layout [`FloatPlan`]'s segment indices assume.
pub fn build_arena(g: &mut Graph) -> ParamArena {
    let params = g.params_mut();
    let refs: Vec<&tqt_nn::Param> = params.iter().map(|p| &**p).collect();
    ParamArena::from_params(&refs)
}

/// Copies every arena segment's values back onto the graph parameters
/// (layer params and thresholds). Call before `state_dict` or any other
/// consumer of the graph's own parameter tensors.
pub fn flush_arena(g: &mut Graph, arena: &ParamArena) {
    for (i, p) in g.params_mut().into_iter().enumerate() {
        p.value.data_mut().copy_from_slice(arena.val(i));
    }
}

/// Pushes the graph's threshold values, gradients, and trainable flags
/// into their arena segments. The graph is authoritative for thresholds
/// (calibration and the freezer mutate it); call right before the pooled
/// threshold-optimizer step.
pub fn sync_thresholds_to_arena(g: &Graph, arena: &mut ParamArena) {
    let base = arena.segments().len() - g.thresholds().len();
    for (ti, ts) in g.thresholds().iter().enumerate() {
        let i = base + ti;
        arena.val_mut(i).copy_from_slice(ts.param.value.data());
        arena.grad_mut(i).copy_from_slice(ts.param.grad.data());
        arena.set_trainable(i, ts.param.trainable);
    }
}

/// Pulls updated threshold values from the arena back onto the graph's
/// side table (values only — the graph keeps its own gradients/flags).
pub fn sync_thresholds_from_arena(g: &mut Graph, arena: &ParamArena) {
    let base = arena.segments().len() - g.thresholds().len();
    for (ti, ts) in g.thresholds_mut().iter_mut().enumerate() {
        let v = arena.val(base + ti)[0];
        ts.param.value.data_mut()[0] = v;
    }
}

impl Graph {
    /// Runs a calibration pass on a forward-only plan: flows `x` through
    /// the graph, initializing every uncalibrated threshold from the
    /// distribution its quantizer sees (the full-precision weights for
    /// weight quantizers, activations for activation quantizers).
    /// Quantizers calibrated earlier in topological order are already
    /// active when later ones calibrate, matching Section 4.2. Shared
    /// thresholds (concat / eltwise-add scale merging) take the max over
    /// the proposals they receive in one pass. Returns the pass's output.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input/output or `x` does not fit it.
    pub fn calibrate(&mut self, x: &Tensor) -> Tensor {
        let arena = build_arena(self);
        let mut ex = FloatExecutor::new(FloatPlan::forward_only(self, x.dims()), self);
        let mut proposed = vec![false; self.thresholds().len()];
        ex.forward_hooked(self, &arena, x, &mut |tid, ts, data| {
            if ts.calibrated && !proposed[tid] {
                return;
            }
            let p = calibrate_log2_t(&Tensor::from_slice(data), ts.init, ts.spec);
            ts.set_log2_t(if proposed[tid] { ts.log2_t().max(p) } else { p });
            proposed[tid] = true;
        })
    }
}
