//! Bit-identity of the planned float executor against the allocating
//! reference interpreter: for a graph exercising every op kind — conv
//! with bias, depthwise, dense, batch-norm, relu, max/avg/global pooling,
//! flatten, identity, eltwise add with fan-out, concat, activation and
//! weight quantizers —
//!
//! * N training steps on twin graphs must produce bit-equal logits, layer
//!   and threshold gradients, parameter evolution, and batch-norm running
//!   statistics;
//! * calibration and evaluation on forward-only plans must produce
//!   bit-equal logits and every bit-equal `log2 t` (the quantized net
//!   shares thresholds across its add and concat inputs, so the
//!   max-merge is exercised), leaving batch-norm statistics untouched;
//!
//! at 1 and 4 threads, with zero steady-state slot allocations.

use tqt_graph::fexec::{build_arena, flush_arena};
use tqt_graph::fplan::FloatPlan;
use tqt_graph::{quantize_graph, transforms, FloatExecutor, Graph, Op, QuantizeOptions, WeightBits};
use tqt_nn::{
    AvgPool2d, BatchNorm, Conv2d, Dense, DepthwiseConv2d, EltwiseAdd, Flatten, GlobalAvgPool,
    MaxPool2d, Relu,
};
use tqt_reference::{Interpreter, Mode};
use tqt_rt::pool;
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::init;

const DIMS: [usize; 4] = [4, 3, 8, 8];

/// A small net touching every op the executor dispatches, including a
/// fan-out (`d1` feeds both `c2` and `add`) to exercise gradient fan-in.
fn zoo_net(seed: u64) -> Graph {
    let mut rng = init::rng(seed);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let b1 = g.add("b1", Op::BatchNorm(BatchNorm::new("b1", 8, 0.9, 1e-5)), &[c1]);
    let r1 = g.add("r1", Op::Relu(Relu::new()), &[b1]);
    let id1 = g.add("id1", Op::Identity, &[r1]);
    // Inception's shape-preserving pool branch: 3x3, stride 1, pad 1.
    let p0 = g.add(
        "p0",
        Op::MaxPool(MaxPool2d::new(Conv2dGeom::new(3, 1, 1))),
        &[id1],
    );
    let p1 = g.add("p1", Op::MaxPool(MaxPool2d::k2s2()), &[p0]);
    let d1 = g.add(
        "d1",
        Op::Depthwise(DepthwiseConv2d::new("d1", 8, Conv2dGeom::same(3), &mut rng)),
        &[p1],
    );
    let c2 = g.add(
        "c2",
        Op::Conv(Conv2d::new("c2", 8, 8, Conv2dGeom::same(3), &mut rng)),
        &[d1],
    );
    let a1 = g.add("a1", Op::Add(EltwiseAdd::new()), &[c2, d1]);
    let cc = g.add("cc", Op::Concat(tqt_nn::Concat::new()), &[a1, p1]);
    let ap = g.add(
        "ap",
        Op::AvgPool(AvgPool2d::new(Conv2dGeom::new(2, 2, 0))),
        &[cc],
    );
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[ap]);
    let fl = g.add("fl", Op::Flatten(Flatten::new()), &[gap]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 16, 5, &mut rng)), &[fl]);
    g.set_output(fc);
    g
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Quantized graphs require batch-norm folding first (as the trainer
/// does); the float configuration keeps BN nodes to exercise their
/// batch-stats and frozen-stats paths.
fn make_net(seed: u64, quantized: bool) -> Graph {
    let mut g = zoo_net(seed);
    if quantized {
        transforms::optimize(&mut g, &DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    }
    g
}

fn freeze_bns(g: &mut Graph) {
    for id in 0..g.len() {
        if let Op::BatchNorm(bn) = &mut g.node_mut(id).op {
            bn.freeze_stats();
        }
    }
}

fn run_parity(threads: usize, steps: usize, quantized: bool) {
    pool::set_threads(threads);
    // Twin graphs: identical weights, quantization topology, calibration.
    let mut gl = make_net(71, quantized);
    let mut gp = make_net(71, quantized);
    let mut rl = Interpreter::new();
    let mut rng = init::rng(72);
    if quantized {
        let x0 = init::normal(DIMS.to_vec(), 0.0, 1.0, &mut rng);
        rl.calibrate(&mut gl, &x0);
        gp.calibrate(&x0);
    }

    let mut arena = build_arena(&mut gp);
    let plan = FloatPlan::new(&mut gp, &DIMS);
    let mut ex = FloatExecutor::new(plan, &gp);
    let n_thresh = gl.thresholds().len();
    let n_layer_params = arena.segments().len() - n_thresh;

    for step in 0..steps {
        if step == steps / 2 {
            // Mid-run batch-norm freeze, like the trainer's bn_freeze_after:
            // the frozen-stats forward/backward must stay in lockstep too.
            freeze_bns(&mut gl);
            freeze_bns(&mut gp);
        }
        let x = init::normal(DIMS.to_vec(), 0.0, 1.0, &mut rng);
        let dout = init::normal(vec![DIMS[0], 5], 0.0, 0.1, &mut rng);

        let yl = rl.forward(&mut gl, &x, Mode::Train);
        gl.zero_grads();
        rl.backward(&mut gl, &dout);

        let yp = ex.forward(&mut gp, &arena, &x);
        gp.zero_grads();
        arena.zero_grads();
        ex.backward(&mut gp, &mut arena, &dout);

        assert_eq!(
            bits(yl.data()),
            bits(yp.data()),
            "step {step}: logits diverged ({threads} threads)"
        );
        // Layer-parameter gradients: reference graph params vs arena.
        for (i, lp) in gl.params_mut().iter().take(n_layer_params).enumerate() {
            assert_eq!(
                bits(lp.grad.data()),
                bits(arena.grad(i)),
                "step {step}: gradient of {} diverged ({threads} threads)",
                lp.name
            );
        }
        // Threshold gradients accumulate on the graphs themselves.
        for (tl, tp) in gl.thresholds().iter().zip(gp.thresholds()) {
            assert_eq!(
                bits(tl.param.grad.data()),
                bits(tp.param.grad.data()),
                "step {step}: threshold gradient {} diverged ({threads} threads)",
                tl.param.name
            );
        }
        // Apply the identical plain-SGD update on both paths so later
        // steps run on evolved parameters.
        for p in gl.params_mut() {
            let (v, g): (Vec<f32>, Vec<f32>) = (p.value.data().to_vec(), p.grad.data().to_vec());
            for (o, (v, g)) in p.value.data_mut().iter_mut().zip(v.iter().zip(&g)) {
                *o = v - 0.01 * g;
            }
        }
        for i in 0..n_layer_params {
            let g: Vec<f32> = arena.grad(i).to_vec();
            for (o, gv) in arena.val_mut(i).iter_mut().zip(g) {
                *o -= 0.01 * gv;
            }
        }
        for ts in gp.thresholds_mut() {
            let g = ts.param.grad.data()[0];
            let v = ts.param.value.data()[0];
            ts.param.value.data_mut()[0] = v - 0.01 * g;
        }
    }

    // Batch-norm running statistics must have evolved identically.
    for id in 0..gl.len() {
        if let (Op::BatchNorm(bl), Op::BatchNorm(bp)) = (&gl.node(id).op, &gp.node(id).op) {
            let (lm, lv) = bl.running_stats();
            let (pm, pv) = bp.running_stats();
            assert_eq!(bits(lm.data()), bits(pm.data()), "running mean diverged");
            assert_eq!(bits(lv.data()), bits(pv.data()), "running var diverged");
        }
    }
    // Full-state parity after flushing the arena back onto the graph.
    // Thresholds evolved on the graph (the authoritative side), so push
    // them into the arena first, as the trainer does before any flush.
    tqt_graph::sync_thresholds_to_arena(&gp, &mut arena);
    flush_arena(&mut gp, &arena);
    let lp = gl.params_mut();
    let mut gp2 = gp; // end the gl borrow scope cleanly
    let pp = gp2.params_mut();
    for (a, b) in lp.iter().zip(&pp) {
        assert_eq!(
            bits(a.value.data()),
            bits(b.value.data()),
            "final value of {} diverged ({threads} threads)",
            a.name
        );
    }
    assert_eq!(
        ex.slot_allocs(),
        0,
        "planned executor allocated slot memory in steady state"
    );
    pool::set_threads(0);
}

#[test]
fn planned_float_step_matches_reference_serial() {
    run_parity(1, 4, false);
}

#[test]
fn planned_float_step_matches_reference_four_threads() {
    run_parity(4, 4, false);
}

#[test]
fn planned_quantized_step_matches_reference_serial() {
    run_parity(1, 4, true);
}

#[test]
fn planned_quantized_step_matches_reference_four_threads() {
    run_parity(4, 4, true);
}

/// Calibration, then evaluation at two batch shapes, on forward-only
/// plans against the reference interpreter's own calibrate pass and
/// eval-mode forward.
fn run_forward_only_parity(threads: usize, quantized: bool) {
    pool::set_threads(threads);
    let mut gl = make_net(81, quantized);
    let mut gp = make_net(81, quantized);
    let mut rng = init::rng(82);
    // Non-trivial running statistics, so eval-mode batch norm is tested.
    for g in [&mut gl, &mut gp] {
        let mut rs = init::rng(83);
        for id in 0..g.len() {
            if let Op::BatchNorm(bn) = &mut g.node_mut(id).op {
                let c = bn.running_stats().0.len();
                let mean = init::normal(vec![c], 0.0, 0.5, &mut rs);
                let var = init::uniform(vec![c], 0.5, 2.0, &mut rs);
                bn.set_running_stats(mean, var);
            }
        }
    }
    let stats = |g: &Graph| -> Vec<Vec<u32>> {
        g.iter()
            .filter_map(|(_, n)| match &n.op {
                Op::BatchNorm(bn) => Some(bn.running_stats()),
                _ => None,
            })
            .flat_map(|(m, v)| [bits(m.data()), bits(v.data())])
            .collect()
    };
    let stats_before = stats(&gl);

    let x0 = init::normal(DIMS.to_vec(), 0.0, 1.0, &mut rng);
    let mut rl = Interpreter::new();
    let yl = rl.calibrate(&mut gl, &x0);
    let yp = gp.calibrate(&x0);
    assert_eq!(
        bits(yl.data()),
        bits(yp.data()),
        "calibration logits diverged ({threads} threads)"
    );
    for (tl, tp) in gl.thresholds().iter().zip(gp.thresholds()) {
        assert!(tp.calibrated, "{} left uncalibrated", tp.param.name);
        assert_eq!(
            tl.log2_t().to_bits(),
            tp.log2_t().to_bits(),
            "calibrated log2 t of {} diverged ({threads} threads)",
            tl.param.name
        );
    }

    let arena = build_arena(&mut gp);
    for batch in [DIMS[0], 1] {
        let dims = [batch, DIMS[1], DIMS[2], DIMS[3]];
        let mut ex = FloatExecutor::new(FloatPlan::forward_only(&gp, &dims), &gp);
        for _ in 0..3 {
            let x = init::normal(dims.to_vec(), 0.0, 1.0, &mut rng);
            let yl = rl.forward(&mut gl, &x, Mode::Eval);
            let yp = ex.forward(&mut gp, &arena, &x);
            assert_eq!(
                bits(yl.data()),
                bits(yp.data()),
                "eval logits diverged at batch {batch} ({threads} threads)"
            );
        }
        assert_eq!(
            ex.slot_allocs(),
            0,
            "forward-only executor allocated slot memory"
        );
    }
    assert_eq!(
        stats(&gl),
        stats_before,
        "reference eval moved batch-norm statistics"
    );
    assert_eq!(
        stats(&gp),
        stats_before,
        "forward-only passes moved batch-norm statistics"
    );
    pool::set_threads(0);
}

#[test]
fn forward_only_float_matches_reference_serial() {
    run_forward_only_parity(1, false);
}

#[test]
fn forward_only_float_matches_reference_four_threads() {
    run_forward_only_parity(4, false);
}

#[test]
fn forward_only_quantized_matches_reference_serial() {
    run_forward_only_parity(1, true);
}

#[test]
fn forward_only_quantized_matches_reference_four_threads() {
    run_forward_only_parity(4, true);
}

/// The plan itself must be deterministic: same graph, same plan.
#[test]
fn float_plan_is_deterministic() {
    let build = || {
        let mut g = make_net(5, true);
        let p = FloatPlan::new(&mut g, &DIMS);
        let slots: Vec<usize> = (0..p.num_values()).map(|v| p.slot_of(v)).collect();
        (p.num_slots(), p.total_buffer_elems(), slots)
    };
    assert_eq!(build(), build());
}

/// Slot reuse must actually shrink the footprint: the planned buffer
/// total must be well below the sum of all value sizes (the allocating
/// path's retained-tensor footprint).
#[test]
fn float_plan_reuses_slots() {
    let mut g = make_net(6, true);
    let p = FloatPlan::new(&mut g, &DIMS);
    let naive: usize = (0..p.num_values()).map(|v| p.len_of(v)).sum();
    assert!(
        p.total_buffer_elems() < naive * 7 / 10,
        "slot reuse saved too little: {} planned vs {} naive",
        p.total_buffer_elems(),
        naive
    );
    assert!(p.num_slots() < p.num_values());
}
