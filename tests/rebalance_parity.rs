//! Differential rebalance harness: the requant-rebalancing pass
//! (`tqt_fixedpoint::rebalance`) must turn an *unmerged* lowering — each
//! add/concat operand on its own grid, the `TQT-V028` gap — into a graph
//! that is (a) well-typed under the grid type system, (b) bit-accurate to
//! the exact dyadic reference (`tqt_quant::exact`) at every repaired
//! merge, and (c) bit-identical between serial and 4-thread execution,
//! unfused and fused through the inserted coercions.

use tqt_fixedpoint::lower::{EpiStep, IntGraph, IntNode, IntOp};
use tqt_fixedpoint::{
    fuse_with_chains, lower_with_provenance, rebalance_with_provenance, rebalance_with_records,
    QFormat,
};
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_quant::exact::{fake_quant_int, shift_round_ref};
use tqt_rt::pool;
use tqt_tensor::init;
use tqt_verify::{analyze, certify, infer_int_grids, Code};

/// Unmerged-quantized, calibrated, lowered resnet8 plus its provenance.
fn unmerged_resnet8() -> (IntGraph, tqt_fixedpoint::Provenance) {
    let mut g = ModelKind::ResNet8.build(70);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8).unmerged());
    let mut rng = init::rng(270);
    g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
    lower_with_provenance(&mut g)
}

/// The rebalanced graph must re-prove under every certifier the repo has:
/// grid types (`TQT-V031`–`TQT-V034`), the interval dataflow, and the
/// translation validator against the exact dyadic reference.
#[test]
fn rebalanced_resnet8_certifies_end_to_end() {
    let (uig, uprov) = unmerged_resnet8();
    let dims = [4usize, 3, 32, 32];
    let (rig, rprov, records) = rebalance_with_provenance(&uig, &uprov);
    assert!(!records.is_empty(), "resnet8 unmerged must need repairs");
    let grids = infer_int_grids(&rig, &dims);
    assert!(grids.report.is_clean(), "{}", grids.report);
    let proven = analyze(&rig, &dims);
    assert!(proven.report.is_clean(), "{}", proven.report);
    let cert = certify(&rig, &rprov, &proven, &dims);
    assert!(cert.is_clean(), "{cert}");
}

/// Fusion must fuse *through* the inserted coercions: at least one fused
/// chain of the rebalanced resnet8 claims a `/rebal_` requant as a
/// member, and the fused graph stays bit-identical to the unfused
/// rebalanced graph at 1 and 4 worker threads.
#[test]
fn resnet8_gains_fused_rebalanced_add_chains() {
    let (uig, _uprov) = unmerged_resnet8();
    let (rig, records) = rebalance_with_records(uig);
    assert!(!records.is_empty(), "resnet8 unmerged must need repairs");

    let (fig, chains) = fuse_with_chains(rig.clone());
    let coerced_chains: Vec<&str> = chains
        .iter()
        .filter(|c| c.members.iter().any(|m| m.contains("/rebal_")))
        .map(|c| c.fused_name.as_str())
        .collect();
    assert!(
        !coerced_chains.is_empty(),
        "no fused chain claimed a rebalance coercion; chains: {:?}",
        chains.iter().map(|c| &c.fused_name).collect::<Vec<_>>()
    );
    // The claimed coercion shows up as consecutive requant epilogue steps.
    let consecutive = fig.nodes().iter().any(|n| match &n.op {
        IntOp::Fused { epi, .. } => epi
            .windows(2)
            .any(|w| matches!(w, [EpiStep::Requant { .. }, EpiStep::Requant { .. }])),
        _ => false,
    });
    assert!(consecutive, "fused epilogue should carry the coercion requant");

    pool::set_threads(4);
    let mut rng = init::rng(1371);
    let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut outs = Vec::new();
    let prev = pool::threads();
    for serial in [false, true] {
        pool::set_threads(if serial { 1 } else { prev });
        let (y0, s0) = rig.run_with_stats(&x);
        let (y1, s1) = fig.run_with_stats(&x);
        assert_eq!(y0, y1, "fused rebalanced output differs (serial={serial})");
        assert_eq!(
            (s0.total_saturated(), s0.total_overflowed()),
            (s1.total_saturated(), s1.total_overflowed()),
            "fused rebalanced counters differ (serial={serial})"
        );
        outs.push(y0);
    }
    pool::set_threads(0);
    assert_eq!(outs[0], outs[1], "serial and 4-thread outputs differ");
}

/// Tiny deterministic generator for the random-grid sweep (no external
/// RNG crate; xorshift64* is plenty for grid fuzzing).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn format(&mut self) -> QFormat {
        let frac = self.below(8) as i32;
        let bits = if self.below(2) == 0 { 8 } else { 16 };
        QFormat::new(frac, bits, self.below(2) == 0)
    }
}

/// `input -> quant -> {requant per operand} -> merge`, the minimal shape
/// of the `TQT-V028` gap.
fn merge_graph(fin: QFormat, operands: &[QFormat], concat: bool) -> IntGraph {
    let mut nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "qin".into(),
            op: IntOp::QuantF32 { format: fin },
            inputs: vec![0],
        },
    ];
    let mut merge_inputs = Vec::new();
    for (i, &f) in operands.iter().enumerate() {
        merge_inputs.push(nodes.len());
        nodes.push(IntNode {
            name: format!("r{i}"),
            op: IntOp::Requant { format: f },
            inputs: vec![1],
        });
    }
    let out = nodes.len();
    nodes.push(IntNode {
        name: if concat { "concat" } else { "add" }.into(),
        op: if concat { IntOp::Concat } else { IntOp::Add },
        inputs: merge_inputs,
    });
    IntGraph::from_parts(nodes, out)
}

/// Evaluates a rebalanced merge graph in exact dyadic arithmetic
/// (`tqt_quant::exact`), independently of the integer kernels: fake-quant
/// by `fake_quant_int`, every requant (original or inserted coercion) by
/// `shift_round_ref` + clamp, add as plain integer addition, concat as
/// batch-1 append. Returns the output integers and their fractional
/// length.
fn dyadic_reference(g: &IntGraph, x: &[f32]) -> (Vec<i64>, i32) {
    let nodes = g.nodes();
    let mut vals: Vec<Vec<i64>> = vec![Vec::new(); nodes.len()];
    let mut fracs: Vec<i32> = vec![0; nodes.len()];
    for (id, n) in nodes.iter().enumerate() {
        match &n.op {
            IntOp::Input => {}
            IntOp::QuantF32 { format } => {
                fracs[id] = format.frac;
                vals[id] = x
                    .iter()
                    .map(|&v| {
                        let q = fake_quant_int(
                            v,
                            format.frac,
                            i128::from(format.qmin()),
                            i128::from(format.qmax()),
                        );
                        match q {
                            Some(q) => q as i64,
                            None => panic!("probe value {v} has no fake-quant"),
                        }
                    })
                    .collect();
            }
            IntOp::Requant { format } => {
                let src = n.inputs[0];
                let shift = fracs[src] - format.frac;
                fracs[id] = format.frac;
                vals[id] = vals[src]
                    .iter()
                    .map(|&v| match shift_round_ref(v, shift) {
                        Some(r) => r.clamp(format.qmin(), format.qmax()),
                        None => panic!("reference requant overflowed i64"),
                    })
                    .collect();
            }
            IntOp::Add => {
                let (a, b) = (n.inputs[0], n.inputs[1]);
                fracs[id] = fracs[a];
                let rhs = std::mem::take(&mut vals[b]);
                vals[id] = vals[a].iter().zip(&rhs).map(|(&p, &q)| p + q).collect();
            }
            IntOp::Concat => {
                fracs[id] = fracs[n.inputs[0]];
                let mut out = Vec::new();
                for &i in &n.inputs.clone() {
                    out.extend_from_slice(&vals[i]);
                }
                vals[id] = out;
            }
            other => panic!("unexpected op in synthetic merge graph: {other:?}"),
        }
    }
    (std::mem::take(&mut vals[g.output_id()]), fracs[g.output_id()])
}

/// Random-grid property sweep: for adds and concats over random operand
/// `QFormat`s (frac 0..8, 8/16 bits, mixed signedness), the rebalanced
/// graph must (a) type-check under the grid type system and (b) produce
/// integers bit-equal to the exact dyadic reference, serially and on 4
/// worker threads.
#[test]
fn rebalanced_merges_match_dyadic_reference_across_random_grids() {
    pool::set_threads(4);
    let mut rng = XorShift(0x7265_6261_6c5f_7071);
    let mut frng = init::rng(991);
    let mut repaired = 0usize;
    for trial in 0..72 {
        let concat = trial % 3 == 2;
        let n_ops = if concat { 2 + rng.below(2) as usize } else { 2 };
        let fin = QFormat::new(3 + rng.below(5) as i32, 8, true);
        let mut operands: Vec<QFormat> = (0..n_ops).map(|_| rng.format()).collect();
        if operands.iter().all(|f| *f == operands[0]) {
            operands[0] = QFormat::new((operands[0].frac + 1) % 8, 8, true);
        }
        let g = merge_graph(fin, &operands, concat);
        let (rg, records) = rebalance_with_records(g);
        repaired += usize::from(!records.is_empty());

        // Batch 1 keeps channel concat a plain append for the reference.
        let dims = vec![1usize, 2 + n_ops, 4, 4];
        // The random sweep may emit an operand requant on the input's own
        // grid, which the V033 redundancy lint rightly flags — only grid
        // *errors* fail the property.
        let rep = infer_int_grids(&rg, &dims).report;
        assert!(
            !rep.has(Code::GridContradiction)
                && !rep.has(Code::UninferableGrid)
                && !rep.has(Code::IllegalCoercion),
            "trial {trial}: rebalanced graph is not well-typed: {rep}"
        );

        let x = init::normal(dims, 0.0, 1.0, &mut frng);
        let (expect, expect_frac) = dyadic_reference(&rg, x.data());
        let prev = pool::threads();
        for serial in [false, true] {
            pool::set_threads(if serial { 1 } else { prev });
            let (y, _) = rg.run_with_stats(&x);
            assert_eq!(
                y.format.frac, expect_frac,
                "trial {trial}: output grid diverged from reference"
            );
            assert_eq!(
                y.data(),
                expect.as_slice(),
                "trial {trial} (concat={concat}, serial={serial}): integers \
                 diverged from the dyadic reference on grids {operands:?}"
            );
        }
        pool::set_threads(prev);
    }
    pool::set_threads(0);
    assert!(
        repaired > 40,
        "sweep is too tame: only {repaired}/72 trials needed repairs"
    );
}
