//! Runtime sanitizers, reported as `TQT-V015`:
//!
//! * [`check_containment`] cross-checks the integer engine's runtime
//!   counters against the static proofs: everything the instrumented
//!   interpreter *observed* must be contained in what the interval
//!   analysis *proved* (observed ⊆ proven). A violation means the static
//!   analysis is unsound — the most serious class of verifier bug — so
//!   the property test in `tests/verify_soundness.rs` hammers this check
//!   with random graphs.
//! * [`qat_smoke_step`] runs one QAT training step on the float engine
//!   and counts the NaN/Inf values it sees.

use crate::diag::{Code, Report};
use crate::interval::IntervalReport;
use tqt_fixedpoint::lower::RunStats;
use tqt_fixedpoint::IntGraph;
use tqt_graph::{build_arena, sync_thresholds_to_arena, FloatExecutor, Graph};
use tqt_nn::loss::softmax_cross_entropy;
use tqt_tensor::Tensor;

/// Checks one instrumented run against the proven envelope. Reports
/// `TQT-V015` for every containment violation:
///
/// * an observed output value outside the proven interval;
/// * saturation observed at a node proven saturation-free;
/// * any wrapped i64 accumulator at a node the overflow proof covered.
pub fn check_containment(ig: &IntGraph, proven: &IntervalReport, observed: &RunStats) -> Report {
    let mut r = Report::new();
    if proven.nodes.len() != observed.nodes.len() {
        r.push_global(
            Code::SanitizerViolation,
            format!(
                "proven facts cover {} nodes but the run observed {}",
                proven.nodes.len(),
                observed.nodes.len()
            ),
        );
        return r;
    }
    for ((node, facts), obs) in ig
        .nodes()
        .iter()
        .zip(&proven.nodes)
        .zip(&observed.nodes)
    {
        let (olo, ohi) = (i128::from(obs.lo), i128::from(obs.hi));
        if olo < facts.lo || ohi > facts.hi {
            r.push(
                Code::SanitizerViolation,
                node.name.clone(),
                format!(
                    "observed range [{}, {}] escapes proven interval [{}, {}]",
                    obs.lo, obs.hi, facts.lo, facts.hi
                ),
            );
        }
        if obs.saturated > 0 && !facts.can_saturate {
            r.push(
                Code::SanitizerViolation,
                node.name.clone(),
                format!(
                    "{} elements saturated at a node proven saturation-free",
                    obs.saturated
                ),
            );
        }
        if obs.overflowed > 0 {
            r.push(
                Code::SanitizerViolation,
                node.name.clone(),
                format!(
                    "{} i64 accumulators wrapped at runtime (overflow proof violated)",
                    obs.overflowed
                ),
            );
        }
    }
    r
}

/// `(nan, inf)` element counts of `v`, added onto `counts`.
fn count_nonfinite(v: &[f32], counts: &mut (usize, usize)) {
    for &x in v {
        if x.is_nan() {
            counts.0 += 1;
        } else if x.is_infinite() {
            counts.1 += 1;
        }
    }
}

/// One QAT training step of `g` on `ex` (a training plan, as
/// `FloatPlan::new` builds it) with the float-exec NaN/Inf sanitizer:
/// the forward with parameters from a fresh arena, softmax cross-entropy
/// against `labels`, then the backward. Reports `TQT-V015` for
/// non-finite values in
///
/// * the full-precision input of every quantizer (activations and
///   weights, as the executor's quantizer hook sees them) and the logits;
///   the step stops here if any is found;
/// * every arena value and gradient segment after the backward, with the
///   thresholds' values and gradients synced into the arena first.
///
/// A healthy step reports nothing.
///
/// # Panics
///
/// Panics if `x` or `labels` do not fit the plan, or (debug builds) if a
/// node produces a non-finite activation.
pub fn qat_smoke_step(
    g: &mut Graph,
    ex: &mut FloatExecutor,
    x: &Tensor,
    labels: &[usize],
) -> Report {
    let mut r = Report::new();
    let mut arena = build_arena(g);
    let mut quant_in = (0, 0);
    let logits = ex.forward_hooked(g, &arena, x, &mut |_, _, data| {
        count_nonfinite(data, &mut quant_in)
    });
    let mut out = (0, 0);
    count_nonfinite(logits.data(), &mut out);
    for (what, (nan, inf)) in [("quantizer inputs", quant_in), ("logits", out)] {
        if nan + inf > 0 {
            r.push_global(
                Code::SanitizerViolation,
                format!("QAT smoke step: {nan} NaN / {inf} Inf in the {what}"),
            );
        }
    }
    if !r.is_clean() {
        return r;
    }
    let (_, dlogits) = softmax_cross_entropy(&logits, labels);
    g.zero_grads();
    ex.backward(g, &mut arena, &dlogits);
    sync_thresholds_to_arena(g, &mut arena);
    let (mut vals, mut grads) = ((0, 0), (0, 0));
    for i in 0..arena.segments().len() {
        count_nonfinite(arena.val(i), &mut vals);
        count_nonfinite(arena.grad(i), &mut grads);
    }
    for (what, (nan, inf)) in [("parameter values", vals), ("gradients", grads)] {
        if nan + inf > 0 {
            r.push_global(
                Code::SanitizerViolation,
                format!("QAT smoke step: {nan} NaN / {inf} Inf in the {what} after backward"),
            );
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::analyze;
    use tqt_fixedpoint::lower::{IntNode, IntOp};
    use tqt_fixedpoint::QFormat;
    use tqt_tensor::init;

    #[test]
    fn observed_is_contained_in_proven_for_a_real_run() {
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
                    w: vec![3, -2, 5, 7],
                    in_dim: 2,
                    out_dim: 2,
                    bias: Some(vec![10, -10]),
                    w_frac: 4,
                },
                inputs: vec![1],
            },
            IntNode {
                name: "relu".into(),
                op: IntOp::Relu { cap_q: None },
                inputs: vec![2],
            },
        ];
        let ig = IntGraph::from_parts(nodes, 3);
        let proven = analyze(&ig, &[3, 2]);
        assert!(proven.proven(), "{}", proven.report);

        let mut rng = init::rng(9);
        let x = init::normal([3, 2], 0.0, 20.0, &mut rng);
        let (_, stats) = ig.run_with_stats(&x);
        let r = check_containment(&ig, &proven, &stats);
        assert!(r.is_clean(), "{r}");
        // The wide normal input does saturate the 8-bit quantizer, and the
        // analysis predicted that it could.
        assert!(proven.nodes[1].can_saturate);
    }

    #[test]
    fn escaping_observation_is_v015() {
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
        let mut rng = init::rng(2);
        let x = init::normal([1, 4], 0.0, 1.0, &mut rng);
        let (_, mut stats) = ig.run_with_stats(&x);
        // Forge an observation outside the proven envelope.
        stats.nodes[1].hi = i64::from(i32::MAX);
        let r = check_containment(&ig, &proven, &stats);
        assert!(r.has(Code::SanitizerViolation), "{r}");
    }

    /// A small quantized, calibrated net and its training-plan executor.
    fn qat_net() -> (Graph, FloatExecutor, Tensor) {
        use tqt_graph::{quantize_graph, FloatPlan, Op, QuantizeOptions, WeightBits};
        use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
        use tqt_tensor::conv::Conv2dGeom;
        let mut rng = init::rng(16);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r = g.add("r1", Op::Relu(Relu::new()), &[c]);
        let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[r]);
        let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
        g.set_output(fc);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let x = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&x);
        let ex = FloatExecutor::new(FloatPlan::new(&mut g, x.dims()), &g);
        (g, ex, x)
    }

    #[test]
    fn healthy_qat_step_is_clean() {
        let (mut g, mut ex, x) = qat_net();
        let r = qat_smoke_step(&mut g, &mut ex, &x, &[0, 1, 2, 0]);
        assert!(r.is_clean(), "{r}");
    }

    /// An infinite weight under a weight quantizer: the quantizer clamps
    /// it onto the grid, so every activation stays finite (the executor's
    /// debug-build check passes) and only the sanitizer's count of the
    /// quantizer inputs catches it.
    #[test]
    fn planted_infinite_weight_is_v015() {
        use tqt_graph::ir::op_params_mut;
        let (mut g, mut ex, x) = qat_net();
        let c1 = g.find("c1").expect("conv exists");
        op_params_mut(&mut g.node_mut(c1).op)[0].value.data_mut()[5] = f32::INFINITY;
        let r = qat_smoke_step(&mut g, &mut ex, &x, &[0, 1, 2, 0]);
        assert!(r.has(Code::SanitizerViolation), "{r}");
        assert!(
            r.diags.iter().any(|d| d.detail.contains("1 Inf in the quantizer inputs")),
            "{r}"
        );
    }
}
