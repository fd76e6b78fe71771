//! Negative tests: one hand-built malformed graph per diagnostic code.
//!
//! Every `TQT-V*` code documented in `DESIGN.md` gets a graph constructed
//! to violate exactly that invariant, and the suite asserts the verifier
//! rejects it *with that code* (never by matching message text). This
//! pins the code catalog: renumbering or silently dropping a check breaks
//! a test here by name.

use tqt_fixedpoint::lower::{IntNode, IntOp, NodeProv, Provenance, RoundMode};
use tqt_fixedpoint::{EpiStep, IntGraph, QFormat};
use tqt_graph::{
    quantize_graph, transforms, Graph, Op, QuantizeOptions, ThresholdMode, ThresholdState,
    WeightQuant,
};
use tqt_nn::{AvgPool2d, BatchNorm, Conv2d, Dense, EltwiseAdd, GlobalAvgPool, Relu};
use tqt_quant::calib::ThresholdInit;
use tqt_quant::QuantSpec;
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::init;
use tqt_verify::{
    analyze, certify, check_containment, check_structure, checked_pipeline, infer_int_grids,
    infer_int_shapes, infer_shapes,
};
use tqt_verify::{Code, Stage};

fn int8_threshold(g: &mut Graph, name: &str, log2_t: f32) -> usize {
    let tid = g.add_threshold(ThresholdState::new(
        name,
        QuantSpec::INT8,
        ThresholdInit::Max,
        ThresholdMode::Fixed,
    ));
    g.thresholds_mut()[tid].set_log2_t(log2_t);
    tid
}

/// `TQT-V001`: a graph with no output set.
#[test]
fn v001_missing_output() {
    let mut rng = init::rng(1);
    let mut g = Graph::new();
    let x = g.add_input("x");
    g.add("fc", Op::Dense(Dense::new("fc", 4, 2, &mut rng)), &[x]);
    let r = check_structure(&g);
    assert!(r.has(Code::Structure), "{r}");
}

/// `TQT-V001`: a quant node referencing a threshold the side table does
/// not have, and a weight quantizer on a non-compute op.
#[test]
fn v001_dangling_threshold_and_misplaced_wq() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let q = g.add("q", Op::Quant { tid: 99 }, &[x]);
    let rl = g.add("relu", Op::Relu(Relu::new()), &[q]);
    g.node_mut(rl).wq = Some(WeightQuant::new(98));
    g.set_output(rl);
    let r = check_structure(&g);
    let hits = r.diags.iter().filter(|d| d.code == Code::Structure).count();
    assert!(hits >= 3, "expected dangling tid x2 + misplaced wq, got:\n{r}");
}

/// `TQT-V002`: a conv built for 3 input channels fed a 5-channel tensor.
#[test]
fn v002_channel_mismatch() {
    let mut rng = init::rng(2);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    g.set_output(c);
    let sr = infer_shapes(&g, &[1, 5, 16, 16]);
    assert!(sr.report.has(Code::Shape), "{}", sr.report);
}

/// `TQT-V002`: a stride-0 conv and a stride-0 pool, refused at the node
/// instead of dividing by zero.
#[test]
fn v002_zero_stride() {
    let mut rng = init::rng(5);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c0",
        Op::Conv(Conv2d::new("c0", 3, 4, Conv2dGeom::new(3, 0, 1), &mut rng)),
        &[x],
    );
    g.set_output(c);
    let sr = infer_shapes(&g, &[1, 3, 8, 8]);
    let at_c0 = sr
        .report
        .diags
        .iter()
        .any(|d| d.code == Code::Shape && d.node.as_deref() == Some("c0"));
    assert!(at_c0, "no V002 at `c0`:\n{}", sr.report);

    let mut g = Graph::new();
    let x = g.add_input("x");
    let p = g.add(
        "p0",
        Op::AvgPool(AvgPool2d::new(Conv2dGeom::new(2, 0, 0))),
        &[x],
    );
    g.set_output(p);
    let sr = infer_shapes(&g, &[1, 3, 8, 8]);
    let at_p0 = sr
        .report
        .diags
        .iter()
        .any(|d| d.code == Code::Shape && d.node.as_deref() == Some("p0"));
    assert!(at_p0, "no V002 at `p0`:\n{}", sr.report);
}

/// `TQT-V002`: dense weight does not accept the incoming feature count.
#[test]
fn v002_dense_feature_mismatch() {
    let mut rng = init::rng(3);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[x]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 7, 2, &mut rng)), &[gap]);
    g.set_output(fc);
    // GAP of [1, 4, 8, 8] yields 4 features; the dense wants 7.
    let sr = infer_shapes(&g, &[1, 4, 8, 8]);
    assert!(sr.report.has(Code::Shape), "{}", sr.report);
}

/// A lowered chain `input -> qin -> ops...`, each node fed by the one
/// before it, with `qin` quantizing onto the `2^-4` grid.
fn int_chain(ops: Vec<(&str, IntOp)>) -> Vec<IntNode> {
    let head = [
        ("input", IntOp::Input),
        (
            "qin",
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
        ),
    ];
    head.into_iter()
        .chain(ops)
        .enumerate()
        .map(|(id, (name, op))| IntNode {
            name: name.into(),
            op,
            inputs: if id == 0 { vec![] } else { vec![id - 1] },
        })
        .collect()
}

/// Asserts the lowered graph is refuted as `TQT-V002` at `node`, by shape
/// inference and by the overflow prover that gates planning.
fn assert_int_shape_refuted(ig: &IntGraph, dims: &[usize], node: &str) {
    let at_node = |r: &tqt_verify::Report| {
        r.diags
            .iter()
            .any(|d| d.code == Code::Shape && d.node.as_deref() == Some(node))
    };
    let sr = infer_int_shapes(ig, dims);
    assert!(at_node(&sr.report), "no V002 at `{node}`:\n{}", sr.report);
    let ir = analyze(ig, dims);
    assert!(!ir.proven(), "a graph the planner cannot shape was proven");
    assert!(at_node(&ir.report), "no V002 at `{node}`:\n{}", ir.report);
}

/// `TQT-V002` on a lowered graph: a dense layer built for 8 features fed
/// 4.
#[test]
fn v002_int_dense_feature_mismatch() {
    let fc = IntOp::Dense {
        w: vec![1; 8 * 2],
        in_dim: 8,
        out_dim: 2,
        bias: None,
        w_frac: 4,
    };
    let ig = IntGraph::from_parts(int_chain(vec![("fc", fc)]), 2);
    assert_int_shape_refuted(&ig, &[1, 4], "fc");
}

/// `TQT-V002` on a lowered graph: a concat of a `[1, 2, 2, 2]` pooled
/// branch and the `[1, 2, 4, 4]` tensor it was pooled from.
#[test]
fn v002_int_concat_spatial_mismatch() {
    let pool = IntOp::MaxPool {
        geom: Conv2dGeom::new(2, 2, 0),
    };
    let mut nodes = int_chain(vec![("pool", pool), ("cat", IntOp::Concat)]);
    nodes[3].inputs = vec![2, 1];
    let ig = IntGraph::from_parts(nodes, 3);
    assert_int_shape_refuted(&ig, &[1, 2, 4, 4], "cat");
}

/// `TQT-V002` on a lowered graph: a conv whose weights expect 3 input
/// channels fed a 2-channel input.
#[test]
fn v002_int_conv_channel_mismatch() {
    let conv = IntOp::Conv {
        w: vec![1; 4 * 3 * 3 * 3],
        wdims: [4, 3, 3, 3],
        bias: None,
        geom: Conv2dGeom::same(3),
        depthwise: false,
        w_frac: 4,
    };
    let ig = IntGraph::from_parts(int_chain(vec![("conv", conv)]), 2);
    assert_int_shape_refuted(&ig, &[1, 2, 8, 8], "conv");
}

/// `TQT-V002` on a lowered graph: a stride-0 conv, and a max pool with a
/// zero-extent window.
#[test]
fn v002_int_zero_stride() {
    let conv = IntOp::Conv {
        w: vec![1; 4 * 2 * 3 * 3],
        wdims: [4, 2, 3, 3],
        bias: None,
        geom: Conv2dGeom::new(3, 0, 1),
        depthwise: false,
        w_frac: 4,
    };
    let ig = IntGraph::from_parts(int_chain(vec![("conv", conv)]), 2);
    assert_int_shape_refuted(&ig, &[1, 2, 8, 8], "conv");
    let pool = IntOp::MaxPool {
        geom: Conv2dGeom::new(0, 1, 0),
    };
    let ig = IntGraph::from_parts(int_chain(vec![("pool", pool)]), 2);
    assert_int_shape_refuted(&ig, &[1, 2, 8, 8], "pool");
}

/// `TQT-V003`: a compute op with a weight quantizer but no activation
/// quantizer on its data edge.
#[test]
fn v003_unquantized_compute_edge() {
    let mut rng = init::rng(4);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    g.set_output(c);
    let tid = int8_threshold(&mut g, "c1.w.t", 0.0);
    g.node_mut(c).wq = Some(WeightQuant::new(tid));
    let r = tqt_verify::lint::lint(&g, Stage::Quantized);
    assert!(r.has(Code::UnquantizedEdge), "{r}");
    assert!(!r.has(Code::MissingWeightQuant), "{r}");
}

/// `TQT-V004`: a compute op whose input is quantized but which has no
/// weight quantizer.
#[test]
fn v004_missing_weight_quant() {
    let mut rng = init::rng(5);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let tid = int8_threshold(&mut g, "act.t", 2.0);
    let q = g.add("q", Op::Quant { tid }, &[x]);
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[q],
    );
    g.set_output(c);
    let r = tqt_verify::lint::lint(&g, Stage::Quantized);
    assert!(r.has(Code::MissingWeightQuant), "{r}");
    assert!(!r.has(Code::UnquantizedEdge), "{r}");
}

/// `TQT-V005`: a threshold in the side table that nothing references.
#[test]
fn v005_dead_threshold() {
    let mut rng = init::rng(6);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 2, &mut rng)), &[x]);
    g.set_output(fc);
    int8_threshold(&mut g, "orphan.t", 1.0);
    let r = tqt_verify::lint::lint(&g, Stage::Built);
    assert!(r.has(Code::DeadThreshold), "{r}");
}

/// `TQT-V006`: a referenced threshold that was never calibrated, at the
/// calibrated stage.
#[test]
fn v006_uncalibrated_threshold() {
    let mut rng = init::rng(7);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    g.set_output(c);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    // No g.calibrate() call.
    let r = tqt_verify::lint::lint(&g, Stage::Calibrated);
    assert!(r.has(Code::Uncalibrated), "{r}");
    assert!(!tqt_verify::lint::lint(&g, Stage::Quantized).has(Code::Uncalibrated));
}

/// `TQT-V007`: calibration produced a non-finite `log2 t`, and separately a
/// threshold so small its fractional length leaves the shiftable range.
#[test]
fn v007_degenerate_scale() {
    let mut rng = init::rng(8);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    g.set_output(c);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    let calib = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
    g.calibrate(&calib);
    assert!(tqt_verify::lint::lint(&g, Stage::Calibrated).is_clean());

    g.thresholds_mut()[0].set_log2_t(f32::NAN);
    assert!(tqt_verify::lint::lint(&g, Stage::Calibrated).has(Code::DegenerateScale));

    g.thresholds_mut()[0].set_log2_t(-100.0); // frac ~ 107 >> 62
    assert!(tqt_verify::lint::lint(&g, Stage::Calibrated).has(Code::DegenerateScale));
}

/// `TQT-V008`: a batch norm that survives past the transform pipeline.
#[test]
fn v008_unfolded_batch_norm() {
    let mut rng = init::rng(9);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let b = g.add("bn", Op::BatchNorm(BatchNorm::new("bn", 4, 0.9, 1e-5)), &[c]);
    g.set_output(b);
    assert!(!tqt_verify::lint::lint(&g, Stage::Built).has(Code::UnfoldedBatchNorm));
    assert!(tqt_verify::lint::lint(&g, Stage::Optimized).has(Code::UnfoldedBatchNorm));
}

/// `TQT-V009`: an average pool that survives past the transform pipeline.
#[test]
fn v009_unconverted_avg_pool() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let p = g.add(
        "ap",
        Op::AvgPool(AvgPool2d::new(Conv2dGeom::new(2, 2, 0))),
        &[x],
    );
    g.set_output(p);
    assert!(!tqt_verify::lint::lint(&g, Stage::Built).has(Code::UnconvertedAvgPool));
    assert!(tqt_verify::lint::lint(&g, Stage::Optimized).has(Code::UnconvertedAvgPool));
}

/// `TQT-V010`: an eltwise add whose operands sit on different grids.
#[test]
fn v010_merge_mismatch() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let t0 = int8_threshold(&mut g, "a.t", 0.0);
    let t1 = int8_threshold(&mut g, "b.t", 3.0);
    let qa = g.add("qa", Op::Quant { tid: t0 }, &[x]);
    let qb = g.add("qb", Op::Quant { tid: t1 }, &[x]);
    let add = g.add("add", Op::Add(EltwiseAdd::new()), &[qa, qb]);
    g.set_output(add);
    let r = tqt_verify::lint::lint(&g, Stage::Quantized);
    assert!(r.has(Code::MergeMismatch), "{r}");
}

/// `TQT-V011`: 2^45-scale weights against a 32-bit input provably wrap an
/// i64 accumulator; the refutation names the producer path.
#[test]
fn v011_accumulator_overflow() {
    let in_dim = 8;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(0, 32, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc".into(),
            op: IntOp::Dense {
                w: vec![1i64 << 45; in_dim],
                in_dim,
                out_dim: 1,
                bias: None,
                w_frac: 0,
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, in_dim]);
    assert!(ir.report.has(Code::Overflow), "{}", ir.report);
    let d = ir
        .report
        .diags
        .iter()
        .find(|d| d.code == Code::Overflow)
        .unwrap();
    assert!(d.detail.contains("input -> qin -> fc"), "{}", d.detail);
}

/// `TQT-V012`: a requantization between fractional lengths 70 and 0 needs
/// an i64 shift by 70 bits, which is not a legal shift.
#[test]
fn v012_illegal_requant_shift() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(70, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "rq".into(),
            op: IntOp::Requant {
                format: QFormat::new(0, 8, true),
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, 4]);
    assert!(ir.report.has(Code::IllegalShift), "{}", ir.report);
}

/// `TQT-V013`: a global average pool over a 3x3 spatial extent cannot be
/// divided exactly in fixed point.
#[test]
fn v013_non_pow2_global_avg_pool() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "gap".into(),
            op: IntOp::GlobalAvgPool,
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, 2, 3, 3]);
    assert!(ir.report.has(Code::FormatViolation), "{}", ir.report);
}

/// `TQT-V014`: a transform pass that rewires the output is caught by the
/// invariant checker and attributed to the pass by name.
#[test]
fn v014_broken_pass_is_attributed() {
    let mut rng = init::rng(14);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[c]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
    g.set_output(fc);

    let passes: Vec<transforms::Pass> = vec![(
        "evil_rewire_output",
        |g: &mut Graph, _: &[usize]| {
            let inp = g.try_input_id().expect("graph has an input");
            g.set_output(inp);
            1
        },
    )];
    let r = checked_pipeline(&mut g, &[1, 2, 8, 8], &passes);
    assert!(r.has(Code::TransformInvariant), "{r}");
    assert!(
        r.diags.iter().any(|d| d.detail.contains("evil_rewire_output")),
        "finding should name the broken pass:\n{r}"
    );
}

/// Control for V014: the real pipeline over the same net is clean.
#[test]
fn v014_real_pipeline_is_clean() {
    let mut rng = init::rng(15);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add(
        "c1",
        Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[c]);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
    g.set_output(fc);
    let r = tqt_verify::checked_optimize(&mut g, &[1, 2, 8, 8]);
    assert!(r.is_clean(), "{r}");
}

/// `TQT-V023`: a fused epilogue whose requant step needs an 80-bit
/// shift (fractional lengths 80 -> 0) is an illegal fusion, refuted
/// with the producer path as counterexample. The same shift on a
/// standalone `Requant` node would be a `TQT-V012`; inside a fused
/// epilogue the legality condition belongs to the fusion itself.
#[test]
fn v023_illegal_epilogue_requant_shift() {
    let in_dim = 8;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(40, 32, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc..rq".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![1i64; in_dim],
                    in_dim,
                    out_dim: 1,
                    bias: None,
                    w_frac: 40,
                }),
                // Accumulator frac = 40 + 40; requanting to frac 0 needs
                // a shift of 80 > 63.
                epi: vec![EpiStep::Requant {
                    format: QFormat::new(0, 8, true),
                }],
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, in_dim]);
    assert!(ir.report.has(Code::IllegalFusion), "{}", ir.report);
    assert!(!ir.report.has(Code::IllegalShift), "fusion legality owns this:\n{}", ir.report);
    let d = ir
        .report
        .diags
        .iter()
        .find(|d| d.code == Code::IllegalFusion)
        .unwrap();
    assert!(
        d.detail.contains("input -> qin -> fc..rq"),
        "refutation must carry the counterexample path:\n{}",
        d.detail
    );
    assert!(d.detail.contains("shift 80"), "{}", d.detail);
}

/// `TQT-V023`: a fused node carrying an `AddResidual` step but only one
/// input contradicts its own epilogue's arity.
#[test]
fn v023_residual_arity_mismatch() {
    let in_dim = 4;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc..add".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![1i64; in_dim * in_dim],
                    in_dim,
                    out_dim: in_dim,
                    bias: None,
                    w_frac: 4,
                }),
                epi: vec![
                    EpiStep::Requant {
                        format: QFormat::new(4, 8, true),
                    },
                    EpiStep::AddResidual,
                ],
            },
            // One AddResidual step demands two inputs; only one given.
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, in_dim]);
    assert!(ir.report.has(Code::IllegalFusion), "{}", ir.report);
}

/// `TQT-V023`: a fused residual add against an operand whose Q-format
/// differs from the fused accumulator's — the scales were never merged,
/// so the add would sum values on different grids.
#[test]
fn v023_residual_grid_mismatch() {
    let in_dim = 4;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "skip".into(),
            // The residual branch lands on frac 2 while the fused
            // epilogue requantizes its accumulator to frac 4.
            op: IntOp::Requant {
                format: QFormat::new(2, 8, true),
            },
            inputs: vec![1],
        },
        IntNode {
            name: "fc..add".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![1i64; in_dim * in_dim],
                    in_dim,
                    out_dim: in_dim,
                    bias: None,
                    w_frac: 4,
                }),
                epi: vec![
                    EpiStep::Requant {
                        format: QFormat::new(4, 8, true),
                    },
                    EpiStep::AddResidual,
                ],
            },
            inputs: vec![1, 2],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 3);
    let ir = analyze(&ig, &[1, in_dim]);
    assert!(ir.report.has(Code::IllegalFusion), "{}", ir.report);
    let d = ir
        .report
        .diags
        .iter()
        .find(|d| d.code == Code::IllegalFusion)
        .unwrap();
    assert!(
        d.detail.contains("`skip`"),
        "refutation must name the unmerged residual:\n{}",
        d.detail
    );
}

/// Control for V023: the same fused dense with a legal shift and a
/// grid-matched residual proves clean.
#[test]
fn v023_legal_fusion_is_clean() {
    let in_dim = 4;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc..relu".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![1i64; in_dim * in_dim],
                    in_dim,
                    out_dim: in_dim,
                    bias: None,
                    w_frac: 4,
                }),
                epi: vec![
                    EpiStep::Requant {
                        format: QFormat::new(4, 8, true),
                    },
                    EpiStep::AddResidual,
                    EpiStep::Relu { cap_q: None },
                ],
            },
            inputs: vec![1, 1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let ir = analyze(&ig, &[1, in_dim]);
    assert!(!ir.report.has(Code::IllegalFusion), "{}", ir.report);
}

/// `TQT-V015`: an observation outside the proven envelope (forged here —
/// a real one would mean the static analysis is unsound).
#[test]
fn v015_observed_escapes_proven() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(0, 8, true),
            },
            inputs: vec![0],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 1);
    let proven = analyze(&ig, &[1, 4]);
    assert!(proven.proven(), "{}", proven.report);
    let mut rng = init::rng(16);
    let x = init::normal([1, 4], 0.0, 1.0, &mut rng);
    let (_, mut stats) = ig.run_with_stats(&x);
    stats.nodes[1].hi = i64::from(i32::MAX);
    let r = check_containment(&ig, &proven, &stats);
    assert!(r.has(Code::SanitizerViolation), "{r}");
}

// --- Translation-validation refutations (`TQT-V025` … `TQT-V030`) --------

/// Runs the translation validator over a hand-built lowered graph,
/// computing the interval facts it consumes the same way the verify bin
/// does.
fn certify_graph(ig: &IntGraph, prov: &Provenance, dims: &[usize]) -> tqt_verify::Report {
    let facts = analyze(ig, dims);
    certify(ig, prov, &facts, dims)
}

/// A well-formed Quant provenance record for a signed `bits`-wide site on
/// the `2^-frac` grid.
fn quant_prov(bits: u32, frac: i32) -> NodeProv {
    NodeProv::Quant {
        bits,
        signed: true,
        frac,
        zero_point: 0,
        round: RoundMode::HalfEven,
    }
}

/// `input -> qin` on a signed int8 `2^-4` grid: the minimal certifiable
/// graph; tests seed one provenance lie each and assert the refutation.
fn quant_site_graph() -> IntGraph {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
    ];
    IntGraph::from_parts(nodes, 1)
}

/// `TQT-V025`: one baked weight disagrees with the exact fake-quant of
/// the recorded original float; the refutation names the offending node
/// and path. The uncorrupted twin certifies clean.
#[test]
fn v025_corrupted_baked_weight() {
    let in_dim = 4;
    let build = |w: Vec<i64>| {
        let nodes = vec![
            IntNode {
                name: "input".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "fc".into(),
                op: IntOp::Dense {
                    w,
                    in_dim,
                    out_dim: 2,
                    bias: None,
                    w_frac: 4,
                },
                inputs: vec![1],
            },
        ];
        IntGraph::from_parts(nodes, 2)
    };
    let mut prov = Provenance::new();
    prov.insert("qin", quant_prov(8, 4));
    prov.insert(
        "fc",
        NodeProv::Compute {
            // 0.25 on the 2^-4 grid is exactly 4.
            orig_w: vec![0.25; in_dim * 2],
            w_frac: 4,
            w_bits: 8,
            w_signed: true,
            orig_bias: None,
            acc_frac: 8,
        },
    );
    let clean = certify_graph(&build(vec![4i64; in_dim * 2]), &prov, &[1, in_dim]);
    assert!(clean.is_clean(), "{clean}");

    let mut w = vec![4i64; in_dim * 2];
    w[3] = 5; // bit-flip in the baked constant
    let r = certify_graph(&build(w), &prov, &[1, in_dim]);
    assert!(r.has(Code::NotBitExact), "{r}");
    let d = r.diags.iter().find(|d| d.code == Code::NotBitExact).unwrap();
    assert_eq!(d.node.as_deref(), Some("fc"), "{r}");
    assert!(
        d.detail.contains("input -> qin -> fc"),
        "refutation must name the offending node's path:\n{}",
        d.detail
    );
}

/// `TQT-V026`: the lowering declares truncation but the kernel rounds
/// half to even; the refutation carries a concrete tie witness.
#[test]
fn v026_declared_truncate_rounding() {
    let ig = quant_site_graph();
    let mut prov = Provenance::new();
    prov.insert(
        "qin",
        NodeProv::Quant {
            bits: 8,
            signed: true,
            frac: 4,
            zero_point: 0,
            round: RoundMode::Truncate,
        },
    );
    let r = certify_graph(&ig, &prov, &[1, 4]);
    assert!(r.has(Code::RoundingMismatch), "{r}");
    let d = r.diags.iter().find(|d| d.code == Code::RoundingMismatch).unwrap();
    assert_eq!(d.node.as_deref(), Some("qin"), "{r}");
    assert!(
        d.detail.contains("input -> qin"),
        "refutation must name the offending node's path:\n{}",
        d.detail
    );
}

/// `TQT-V027`: a declared non-zero zero-point that the symmetric pow2
/// realization never applies.
#[test]
fn v027_nonzero_zero_point() {
    let ig = quant_site_graph();
    let mut prov = Provenance::new();
    prov.insert(
        "qin",
        NodeProv::Quant {
            bits: 8,
            signed: true,
            frac: 4,
            zero_point: 3,
            round: RoundMode::HalfEven,
        },
    );
    let r = certify_graph(&ig, &prov, &[1, 4]);
    assert!(r.has(Code::ZeroPointDrift), "{r}");
    let d = r.diags.iter().find(|d| d.code == Code::ZeroPointDrift).unwrap();
    assert!(d.detail.contains("input -> qin"), "{}", d.detail);
}

/// `TQT-V028`: an integer add whose operands were requantized onto
/// different grids — the scales were never merged, so the raw-coordinate
/// sum is meaningless. The refutation names both offending operands.
#[test]
fn v028_unmerged_add_operands() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "ra".into(),
            op: IntOp::Requant {
                format: QFormat::new(3, 8, true),
            },
            inputs: vec![1],
        },
        IntNode {
            name: "rb".into(),
            op: IntOp::Requant {
                format: QFormat::new(2, 8, true),
            },
            inputs: vec![1],
        },
        IntNode {
            name: "add".into(),
            op: IntOp::Add,
            inputs: vec![2, 3],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 4);
    let mut prov = Provenance::new();
    prov.insert("qin", quant_prov(8, 4));
    prov.insert("ra", quant_prov(8, 3));
    prov.insert("rb", quant_prov(8, 2));
    let r = certify_graph(&ig, &prov, &[1, 4]);
    assert!(r.has(Code::ScaleMergeViolation), "{r}");
    let d = r
        .diags
        .iter()
        .find(|d| d.code == Code::ScaleMergeViolation)
        .unwrap();
    assert!(
        d.detail.contains("`ra`") && d.detail.contains("`rb`"),
        "refutation must name both unmerged operands:\n{}",
        d.detail
    );
}

/// `TQT-V028` at quantize time: the float-graph lint flags the same gap
/// before lowering ever runs, and carries a fix-it hint.
#[test]
fn v028_float_add_lint_with_fixit() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let t0 = int8_threshold(&mut g, "a.t", 0.0);
    let t1 = int8_threshold(&mut g, "b.t", 3.0);
    let qa = g.add("qa", Op::Quant { tid: t0 }, &[x]);
    let qb = g.add("qb", Op::Quant { tid: t1 }, &[x]);
    let add = g.add("add", Op::Add(EltwiseAdd::new()), &[qa, qb]);
    g.set_output(add);
    let r = tqt_verify::lint::lint(&g, Stage::Quantized);
    assert!(r.has(Code::ScaleMergeViolation), "{r}");
    let d = r
        .diags
        .iter()
        .find(|d| d.code == Code::ScaleMergeViolation)
        .unwrap();
    assert_eq!(d.node.as_deref(), Some("add"), "{r}");
    assert!(d.detail.contains("Fix:"), "lint must carry a fix-it hint:\n{}", d.detail);
}

/// `TQT-V029`: a fused node whose chain record does not match its
/// epilogue — the fused kernel no longer replays the chain it replaced.
#[test]
fn v029_fused_chain_member_mismatch() {
    let in_dim = 4;
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc..rq".into(),
            op: IntOp::Fused {
                core: Box::new(IntOp::Dense {
                    w: vec![4i64; in_dim * 2],
                    in_dim,
                    out_dim: 2,
                    bias: None,
                    w_frac: 4,
                }),
                epi: vec![EpiStep::Requant {
                    format: QFormat::new(4, 8, true),
                }],
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let mut prov = Provenance::new();
    prov.insert("qin", quant_prov(8, 4));
    // One member recorded; core + one epilogue step demand two.
    prov.insert("fc..rq", NodeProv::Fused { members: vec!["fc".into()] });
    let r = certify_graph(&ig, &prov, &[1, in_dim]);
    assert!(r.has(Code::EpilogueMismatch), "{r}");
    let d = r.diags.iter().find(|d| d.code == Code::EpilogueMismatch).unwrap();
    assert_eq!(d.node.as_deref(), Some("fc..rq"), "{r}");
    assert!(
        d.detail.contains("input -> qin -> fc..rq"),
        "refutation must name the offending node's path:\n{}",
        d.detail
    );
}

// --- Grid type system refutations (`TQT-V031` … `TQT-V034`) --------------

/// `input -> qin(2^-4) -> {ra(2^-3), rb(2^-2)} -> add`: the minimal
/// unmerged merge; each grid-type test derives one violation from it.
fn unmerged_add_graph() -> IntGraph {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "ra".into(),
            op: IntOp::Requant {
                format: QFormat::new(3, 8, true),
            },
            inputs: vec![1],
        },
        IntNode {
            name: "rb".into(),
            op: IntOp::Requant {
                format: QFormat::new(2, 8, true),
            },
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

/// `TQT-V031`: add operands derive incompatible grid types; the
/// refutation carries *both* deriving paths as counterexample. The
/// rebalance pass must close exactly this finding.
#[test]
fn v031_grid_contradiction_at_add() {
    let ig = unmerged_add_graph();
    let gr = infer_int_grids(&ig, &[1, 4]);
    assert!(gr.report.has(Code::GridContradiction), "{}", gr.report);
    let d = gr
        .report
        .diags
        .iter()
        .find(|d| d.code == Code::GridContradiction)
        .unwrap();
    assert_eq!(d.node.as_deref(), Some("add"), "{}", gr.report);
    assert!(
        d.detail.contains("input -> qin -> ra") && d.detail.contains("input -> qin -> rb"),
        "refutation must carry both deriving paths:\n{}",
        d.detail
    );

    let repaired = tqt_fixedpoint::rebalance(ig);
    let gr2 = infer_int_grids(&repaired, &[1, 4]);
    assert!(
        !gr2.report.has(Code::GridContradiction),
        "rebalance must close the contradiction:\n{}",
        gr2.report
    );
}

/// `TQT-V032`: a value-interpreting op (relu) consumes an edge whose grid
/// cannot be derived from any quantization site.
#[test]
fn v032_uninferable_edge() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "relu".into(),
            op: IntOp::Relu { cap_q: None },
            inputs: vec![0],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 1);
    let gr = infer_int_grids(&ig, &[1, 4]);
    assert!(gr.report.has(Code::UninferableGrid), "{}", gr.report);
    let d = gr.report.diags.iter().find(|d| d.code == Code::UninferableGrid).unwrap();
    assert_eq!(d.node.as_deref(), Some("relu"), "{}", gr.report);
    assert!(
        d.detail.contains("input -> relu"),
        "refutation must name the offending edge's path:\n{}",
        d.detail
    );
}

/// `TQT-V033`: a requant onto the exact grid its input already has is a
/// no-op the plan should never carry.
#[test]
fn v033_redundant_requant() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "rq".into(),
            op: IntOp::Requant {
                format: QFormat::new(4, 8, true),
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let gr = infer_int_grids(&ig, &[1, 4]);
    assert!(gr.report.has(Code::RedundantRequant), "{}", gr.report);
    let d = gr.report.diags.iter().find(|d| d.code == Code::RedundantRequant).unwrap();
    assert_eq!(d.node.as_deref(), Some("rq"), "{}", gr.report);
    assert!(
        d.detail.contains("input -> qin -> rq"),
        "lint must name the redundant edge's path:\n{}",
        d.detail
    );
}

/// `TQT-V034`: a coercion between fractional lengths 70 and 0 needs a
/// 70-bit shift, outside the engine's `|shift| <= 63`. (The interval pass
/// reports the same graph as `TQT-V012`; the grid type system must refute
/// it standalone, without interval facts.)
#[test]
fn v034_illegal_coercion_shift() {
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(70, 8, true),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "rq".into(),
            op: IntOp::Requant {
                format: QFormat::new(0, 8, true),
            },
            inputs: vec![1],
        },
    ];
    let ig = IntGraph::from_parts(nodes, 2);
    let gr = infer_int_grids(&ig, &[1, 4]);
    assert!(gr.report.has(Code::IllegalCoercion), "{}", gr.report);
    let d = gr.report.diags.iter().find(|d| d.code == Code::IllegalCoercion).unwrap();
    assert_eq!(d.node.as_deref(), Some("rq"), "{}", gr.report);
    assert!(
        d.detail.contains("input -> qin -> rq"),
        "refutation must name the offending edge's path:\n{}",
        d.detail
    );
}

/// Control for V031–V034: the merged twin of [`unmerged_add_graph`] is
/// well-typed with no findings at all.
#[test]
fn grid_types_clean_on_merged_add() {
    let mut ig = unmerged_add_graph();
    {
        let (mut nodes, out) = ig.into_parts();
        if let IntOp::Requant { format } = &mut nodes[2].op {
            *format = QFormat::new(2, 8, true);
        }
        ig = IntGraph::from_parts(nodes, out);
    }
    let gr = infer_int_grids(&ig, &[1, 4]);
    assert!(gr.typed(), "{}", gr.report);
}

/// `TQT-V030`: the declared bit-width implies clip limits [-64, 63] (eq.
/// 3) but the emitted format saturates to the int8 range.
#[test]
fn v030_clamp_range_mismatch() {
    let ig = quant_site_graph();
    let mut prov = Provenance::new();
    prov.insert("qin", quant_prov(7, 4));
    let r = certify_graph(&ig, &prov, &[1, 4]);
    assert!(r.has(Code::ClampRangeMismatch), "{r}");
    let d = r
        .diags
        .iter()
        .find(|d| d.code == Code::ClampRangeMismatch)
        .unwrap();
    assert!(d.detail.contains("input -> qin"), "{}", d.detail);
}
