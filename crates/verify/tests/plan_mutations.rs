//! Mutation tests for the plan verifier: inject known slot-assignment
//! and kernel-route bugs through `IntPlan`'s test-only hooks and assert
//! `check_plan`
//! refutes each with the correct stable code *and* the correct
//! counterexample node. A prover that cannot refute seeded bugs proves
//! nothing — this is the teeth behind the zoo-wide "plan proven" gate.
//!
//! The mutated plans are never executed.

use tqt_fixedpoint::lower::{IntGraph, IntNode, IntOp};
use tqt_fixedpoint::{EpiStep, GemmRoute, QFormat};
use tqt_graph::fplan::FloatPlan;
use tqt_graph::{Graph, Op};
use tqt_nn::{BatchNorm, Conv2d, Dense, EltwiseAdd, Flatten, GlobalAvgPool, MaxPool2d, Relu};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::init;
use tqt_verify::{check_float_plan, check_plan, Code};

fn q8(frac: i32) -> QFormat {
    QFormat::new(frac, 8, true)
}

/// in -> q -> {relu, rq} -> add, with a skip edge (add also reads q's
/// requantized sibling): enough structure for both mutations.
fn skip_graph() -> IntGraph {
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
            inputs: vec![2],
        },
        IntNode {
            name: "add".into(),
            op: IntOp::Add,
            inputs: vec![3, 1],
        },
    ];
    IntGraph::from_parts(nodes, 4)
}

#[test]
fn unmutated_plan_is_proven() {
    let g = skip_graph();
    for batch in [1usize, 4] {
        let plan = g.plan(&[batch, 32]);
        let r = check_plan(&g, &plan);
        assert!(r.is_clean(), "batch {batch}: {r}");
    }
}

#[test]
fn liveness_off_by_one_is_refuted_as_v016() {
    let g = skip_graph();
    let mut plan = g.plan(&[2, 32]);
    let (clobberer, input) = plan
        .inject_liveness_off_by_one(&g)
        .expect("graph must offer an eligible (node, live input) pair");
    let r = check_plan(&g, &plan);
    assert!(r.has(Code::PlanAlias), "V016 expected, got:\n{r}");
    let diag = r
        .diags
        .iter()
        .find(|d| d.code == Code::PlanAlias)
        .expect("checked above");
    let clobberer_name = &g.nodes()[clobberer].name;
    let input_name = &g.nodes()[input].name;
    assert_eq!(
        diag.node.as_deref(),
        Some(clobberer_name.as_str()),
        "counterexample must name the clobbering node:\n{r}"
    );
    assert!(
        diag.detail.contains(&format!("`{input_name}`")),
        "counterexample must name the clobbered live value:\n{r}"
    );
}

#[test]
fn premature_release_is_refuted_as_v017() {
    let g = skip_graph();
    let mut plan = g.plan(&[2, 32]);
    let (producer, _intermediate, stranded) = plan
        .inject_premature_release(&g)
        .expect("graph must offer an eligible early-release triple");
    let r = check_plan(&g, &plan);
    assert!(r.has(Code::PlanStaleRead), "V017 expected, got:\n{r}");
    let diag = r
        .diags
        .iter()
        .find(|d| d.code == Code::PlanStaleRead)
        .expect("checked above");
    let stranded_name = &g.nodes()[stranded].name;
    let producer_name = &g.nodes()[producer].name;
    assert_eq!(
        diag.node.as_deref(),
        Some(stranded_name.as_str()),
        "counterexample must name the stranded consumer:\n{r}"
    );
    assert!(
        diag.detail.contains(&format!("`{producer_name}`")),
        "counterexample must name the overwritten producer:\n{r}"
    );
}

/// in -> q -> fused(dense + requant epilogue) joined with a relu branch
/// of q at a final add: fusion released the chain's intermediate slots,
/// and the fused output stays live across the relu.
fn fused_skip_graph() -> IntGraph {
    let in_dim = 8;
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
            name: "fc..rq".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![1i64; in_dim * in_dim],
                    in_dim,
                    out_dim: in_dim,
                    bias: None,
                    w_frac: 4,
                }),
                epi: vec![EpiStep::Requant { format: q8(4) }],
            },
            inputs: vec![1],
        },
        IntNode {
            name: "relu".into(),
            op: IntOp::Relu { cap_q: None },
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
fn unmutated_fused_plan_is_proven() {
    let g = fused_skip_graph();
    for batch in [1usize, 4] {
        let plan = g.plan(&[batch, 8]);
        let r = check_plan(&g, &plan);
        assert!(r.is_clean(), "batch {batch}: {r}");
    }
}

/// Fusion's whole point is that the chain's intermediate slots die with
/// the chain — this mutation "resurrects" one by parking a later node's
/// output in the fused producer's slot while that output is still live.
/// The plan checker must refute it like any other alias: the resurrector
/// clobbers a live value (V016) and the fused node's consumer reads a
/// stale slot (V017), each naming the right node.
#[test]
fn fused_slot_resurrection_is_refuted() {
    let g = fused_skip_graph();
    let mut plan = g.plan(&[2, 8]);
    let (fused_producer, resurrector, stranded) = plan
        .inject_fused_slot_resurrection(&g)
        .expect("graph must offer a fused producer with a later non-consumer");
    let r = check_plan(&g, &plan);
    let fused_name = &g.nodes()[fused_producer].name;
    let resurrector_name = &g.nodes()[resurrector].name;
    let stranded_name = &g.nodes()[stranded].name;

    assert!(r.has(Code::PlanAlias), "V016 expected, got:\n{r}");
    assert!(
        r.diags.iter().any(|d| d.code == Code::PlanAlias
            && d.node.as_deref() == Some(resurrector_name.as_str())
            && d.detail.contains(&format!("`{fused_name}`"))),
        "V016 must name resurrector `{resurrector_name}` clobbering `{fused_name}`:\n{r}"
    );
    assert!(r.has(Code::PlanStaleRead), "V017 expected, got:\n{r}");
    assert!(
        r.diags.iter().any(|d| d.code == Code::PlanStaleRead
            && d.node.as_deref() == Some(stranded_name.as_str())
            && d.detail.contains(&format!("`{fused_name}`"))),
        "V017 must name stranded consumer `{stranded_name}` reading stale `{fused_name}`:\n{r}"
    );
}

/// A float training graph with a skip connection and batch-norm: the
/// planner must carry activations, xhat, gradients and staged fan-in
/// temporaries across the forward+backward tape.
fn float_skip_graph() -> Graph {
    let mut rng = init::rng(31);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let b1 = g.add("b1", Op::BatchNorm(BatchNorm::new("b1", 8, 0.9, 1e-5)), &[c1]);
    let r1 = g.add("r1", Op::Relu(Relu::new()), &[b1]);
    let c2 = g.add(
        "c2",
        Op::Conv(Conv2d::new("c2", 8, 8, Conv2dGeom::same(3), &mut rng)),
        &[r1],
    );
    let a1 = g.add("a1", Op::Add(EltwiseAdd::new()), &[c2, r1]);
    let p1 = g.add("p1", Op::MaxPool(MaxPool2d::k2s2()), &[a1]);
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[p1]);
    let fl = g.add("fl", Op::Flatten(Flatten::new()), &[gap]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 8, 4, &mut rng)), &[fl]);
    g.set_output(fc);
    g
}

const FDIMS: [usize; 4] = [2, 3, 8, 8];

#[test]
fn unmutated_float_plan_is_proven() {
    let mut g = float_skip_graph();
    let plan = FloatPlan::new(&mut g, &FDIMS);
    let r = check_float_plan(&g, &plan);
    assert!(r.is_clean(), "{r}");
}

/// A float graph whose skip edge spans two convs: on a forward-only tape
/// the skipped activation stays live across a step that does not read
/// it, which is what a premature release needs.
fn float_residual_graph() -> Graph {
    let mut rng = init::rng(32);
    let mut g = Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let b1 = g.add(
        "b1",
        Op::BatchNorm(BatchNorm::new("b1", 8, 0.9, 1e-5)),
        &[c1],
    );
    let r1 = g.add("r1", Op::Relu(Relu::new()), &[b1]);
    let c2 = g.add(
        "c2",
        Op::Conv(Conv2d::new("c2", 8, 8, Conv2dGeom::same(3), &mut rng)),
        &[r1],
    );
    let r2 = g.add("r2", Op::Relu(Relu::new()), &[c2]);
    let a1 = g.add("a1", Op::Add(EltwiseAdd::new()), &[r2, r1]);
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[a1]);
    let fl = g.add("fl", Op::Flatten(Flatten::new()), &[gap]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 8, 4, &mut rng)), &[fl]);
    g.set_output(fc);
    g
}

#[test]
fn unmutated_forward_only_plan_is_proven() {
    let g = float_residual_graph();
    let plan = FloatPlan::forward_only(&g, &FDIMS);
    assert!(!plan.is_training());
    assert_eq!(
        plan.num_values(),
        g.len(),
        "forward-only plans hold activations only"
    );
    let r = check_float_plan(&g, &plan);
    assert!(r.is_clean(), "{r}");
}

/// Re-alias a later value into a slot whose occupant is still awaited by
/// a downstream step: the checker must refute it twice, as the alias at
/// the clobbering write (V016, naming the clobberer with the victim in
/// the counterexample) and as the stale read at the stranded step (V017,
/// naming the victim).
fn assert_premature_release_refuted(g: &Graph, mut plan: FloatPlan) {
    let (victim, clobberer, _stranded) = plan
        .inject_premature_release()
        .expect("graph must offer an eligible early-release triple");
    let victim_name = plan.value_name(g, victim);
    let clobberer_name = plan.value_name(g, clobberer);
    let r = check_float_plan(g, &plan);

    assert!(r.has(Code::PlanAlias), "V016 expected, got:\n{r}");
    assert!(
        r.diags.iter().any(|d| d.code == Code::PlanAlias
            && d.node.as_deref() == Some(clobberer_name.as_str())
            && d.detail.contains(&format!("`{victim_name}`"))),
        "V016 must name clobberer `{clobberer_name}` over live `{victim_name}`:\n{r}"
    );
    assert!(r.has(Code::PlanStaleRead), "V017 expected, got:\n{r}");
    assert!(
        r.diags
            .iter()
            .any(|d| d.code == Code::PlanStaleRead
                && d.node.as_deref() == Some(victim_name.as_str())),
        "V017 must name the stranded value `{victim_name}`:\n{r}"
    );
}

#[test]
fn float_premature_release_is_refuted() {
    let mut g = float_skip_graph();
    let plan = FloatPlan::new(&mut g, &FDIMS);
    assert_premature_release_refuted(&g, plan);
}

#[test]
fn forward_only_premature_release_is_refuted() {
    let g = float_residual_graph();
    let plan = FloatPlan::forward_only(&g, &FDIMS);
    assert_premature_release_refuted(&g, plan);
}

/// A float plan one element short of the conv workspace the checker
/// re-derives from the geometry is refuted as V018, on a training plan
/// (staged windows, gradient columns and weight-gradient partials) and
/// on a forward-only one (staged windows alone).
#[test]
fn short_float_workspace_is_refuted_as_v018() {
    let mut g = float_skip_graph();
    let training = FloatPlan::new(&mut g, &FDIMS);
    let forward = FloatPlan::forward_only(&g, &FDIMS);
    assert!(training.scratch_elems() > forward.scratch_elems());
    for mut plan in [training, forward] {
        let short = plan
            .inject_short_workspace()
            .expect("a conv graph has a workspace");
        let r = check_float_plan(&g, &plan);
        assert!(
            r.diags.iter().any(|d| d.code == Code::PlanStorage
                && d.detail.contains(&format!("plan accounts {short} workspace elements"))),
            "V018 expected for the short workspace (training: {}):\n{r}",
            plan.is_training()
        );
    }
}

#[test]
fn storage_shrink_is_refuted_as_v018() {
    let g = skip_graph();
    let mut plan = g.plan(&[2, 32]);
    let short = plan
        .inject_slot_shrink()
        .expect("graph must offer a shrinkable slot");
    let r = check_plan(&g, &plan);
    assert!(r.has(Code::PlanStorage), "V018 expected, got:\n{r}");
    let short_name = &g.nodes()[short].name;
    assert!(
        r.diags
            .iter()
            .any(|d| d.code == Code::PlanStorage && d.node.as_deref() == Some(short_name)),
        "refutation must name the under-stored node `{short_name}`:\n{r}"
    );
}

/// in -> q -> conv (3x3, pad 1, 2 -> 3 channels): the conv's route hangs
/// on the input format's width.
fn conv_graph(input: QFormat) -> IntGraph {
    let nodes = vec![
        IntNode {
            name: "in".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "q".into(),
            op: IntOp::QuantF32 { format: input },
            inputs: vec![0],
        },
        IntNode {
            name: "conv".into(),
            op: IntOp::Conv {
                w: (0..3 * 2 * 9).map(|i| (i as i64 % 7) - 3).collect(),
                wdims: [3, 2, 3, 3],
                bias: Some(vec![5, -5, 0]),
                geom: Conv2dGeom::new(3, 1, 1),
                depthwise: false,
                w_frac: 4,
            },
            inputs: vec![1],
        },
    ];
    IntGraph::from_parts(nodes, 2)
}

#[test]
fn eight_bit_conv_is_proven_onto_i32() {
    // Every channel's Σ|w| is 53 or 54 here; a signed 8-bit input
    // bounds |x| by 128.
    let g = conv_graph(QFormat::new(4, 8, true));
    let plan = g.plan(&[1, 2, 5, 5]);
    let r = check_plan(&g, &plan);
    assert!(r.is_clean(), "{r}");
    let Some(GemmRoute::I32 { bound }) = plan.route(2) else {
        panic!("8-bit conv must take the i32 route, got {:?}", plan.route(2));
    };
    let w: Vec<i64> = (0..54).map(|i| (i % 7) - 3).collect();
    let worst = w.chunks(18).map(|ch| ch.iter().map(|v| v.unsigned_abs()).sum::<u64>()).max();
    assert_eq!(Some(bound), worst.map(|s| s * 128));
    assert_eq!(plan.route(1), None, "a quantize node runs no GEMM");
}

#[test]
fn narrow_route_on_a_16_bit_input_is_refuted_as_v035() {
    let g = conv_graph(QFormat::new(4, 16, true));
    let mut plan = g.plan(&[1, 2, 5, 5]);
    assert_eq!(plan.route(2), Some(GemmRoute::I64), "16-bit inputs stay on i64");
    assert!(check_plan(&g, &plan).is_clean());
    let forced = plan
        .inject_narrow_route(&g)
        .expect("graph must offer a 16-bit-input conv");
    assert_eq!(forced, 2);
    let r = check_plan(&g, &plan);
    assert!(r.has(Code::NarrowRoute), "V035 expected, got:\n{r}");
    let diag = r
        .diags
        .iter()
        .find(|d| d.code == Code::NarrowRoute)
        .expect("checked above");
    assert_eq!(
        diag.node.as_deref(),
        Some("conv"),
        "refutation must name the mis-routed node:\n{r}"
    );
    assert!(
        diag.detail.contains("16 bits") && diag.detail.contains("in -> q -> conv"),
        "refutation must give the reason and the producer path:\n{r}"
    );
}
