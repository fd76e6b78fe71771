//! Quantization lints over the float graph: one pass reports *every*
//! violation, each under a stable code, where the lowering stops at the
//! first.
//!
//! * threshold table: dead (`TQT-V005`), uncalibrated (`TQT-V006`) and
//!   degenerate (`TQT-V007`) thresholds;
//! * structure: surviving batch norms (`TQT-V008`) and average pools
//!   (`TQT-V009`) after the transform pipeline, compute ops without a
//!   weight quantizer (`TQT-V004`) after quantization;
//! * grids: the lint folds [`float_grid`], the rule the lowering folds, so
//!   an op the lowering would refuse for its input edge is a `TQT-V003` at
//!   the same node; merge operands that take their scale from different
//!   thresholds (`TQT-V010`) or sit on different grids (`TQT-V028`) break
//!   the paper's shared-scale rule (§4.3).

use crate::diag::{Code, Diag, Report};
use crate::Stage;
use tqt_fixedpoint::{float_grid, LowerError, QFormat};
use tqt_graph::{Graph, Op, ThresholdId};

/// Largest fractional length a threshold may imply: beyond this, the
/// requantization shifts the grid difference compiles to stop being legal
/// i64 shifts (see `TQT-V012`).
pub const MAX_FRAC: i32 = 62;

/// Runs the lint set appropriate to `stage`. See [`Code`] for the catalog;
/// this pass owns `TQT-V003` … `TQT-V010` and the float-graph `TQT-V028`.
pub fn lint(g: &Graph, stage: Stage) -> Report {
    let mut r = Report::new();

    // --- Threshold-table lints -------------------------------------------
    let mut referenced = vec![false; g.thresholds().len()];
    for (_, node) in g.iter() {
        if let Op::Quant { tid } = node.op {
            if let Some(slot) = referenced.get_mut(tid) {
                *slot = true;
            }
        }
        if let Some(wq) = &node.wq {
            if let Some(slot) = referenced.get_mut(wq.tid) {
                *slot = true;
            }
        }
    }
    for (tid, ts) in g.thresholds().iter().enumerate() {
        if !referenced[tid] {
            r.push_global(
                Code::DeadThreshold,
                format!("threshold {tid} (`{}`) is referenced by no node", ts.param.name),
            );
            continue;
        }
        if stage >= Stage::Calibrated && !ts.calibrated {
            r.push_global(
                Code::Uncalibrated,
                format!("threshold {tid} (`{}`) was never calibrated", ts.param.name),
            );
        }
        if ts.calibrated {
            let l = ts.log2_t();
            let frac = QFormat::from_spec(ts.spec, l).frac;
            if !l.is_finite() {
                r.push_global(
                    Code::DegenerateScale,
                    format!("threshold {tid} (`{}`) has non-finite log2 t = {l}", ts.param.name),
                );
            } else if frac.abs() > MAX_FRAC {
                r.push_global(
                    Code::DegenerateScale,
                    format!(
                        "threshold {tid} (`{}`) implies fractional length {frac} \
                         (|frac| > {MAX_FRAC}); scale 2^{} is out of shiftable range",
                        ts.param.name, -frac
                    ),
                );
            }
        }
    }

    // --- Stage-gated structural lints ------------------------------------
    for (_, node) in g.iter() {
        match &node.op {
            Op::BatchNorm(_) if stage >= Stage::Optimized => {
                r.push(
                    Code::UnfoldedBatchNorm,
                    node.name.clone(),
                    "batch norm survives after the transform pipeline; fold before quantizing",
                );
            }
            Op::AvgPool(_) if stage >= Stage::Optimized => {
                r.push(
                    Code::UnconvertedAvgPool,
                    node.name.clone(),
                    "average pool survives after the transform pipeline; convert to depthwise",
                );
            }
            op if op.is_compute() && node.wq.is_none() && stage >= Stage::Quantized => {
                r.push(
                    Code::MissingWeightQuant,
                    node.name.clone(),
                    "compute op has no weight quantizer attached",
                );
            }
            _ => {}
        }
    }

    if stage < Stage::Quantized {
        return r;
    }

    // --- Grid lints --------------------------------------------------------
    // Each edge's grid by `float_grid` (inner `None`: no static grid), or
    // `None` where the rule refused the node or one of its producers; a
    // refusal is reported once, at its origin (V001 by `check_structure`,
    // V004/V006/V008/V009 above, V003 here). `scale` is the threshold each
    // edge's scale comes from, known before calibration.
    let mut grids: Vec<Option<Option<QFormat>>> = vec![None; g.len()];
    let mut scale: Vec<Option<ThresholdId>> = vec![None; g.len()];
    for (id, node) in g.iter() {
        if node.inputs.iter().any(|&i| i >= id) {
            continue; // structural failure, reported by check_structure
        }
        scale[id] = match (&node.op, &node.wq) {
            (Op::Quant { tid }, _) => Some(*tid),
            (op, Some(wq)) if op.is_compute() => Some(wq.tid),
            _ => node.inputs.first().and_then(|&i| scale[i]),
        };
        if matches!(node.op, Op::Add(_) | Op::Concat(_)) {
            merge_lints(&mut r, g, id, &grids, &scale);
        }
        let Some(ins) = node.inputs.iter().map(|&i| grids[i]).collect::<Option<Vec<_>>>() else {
            continue;
        };
        match float_grid(g, id, &ins, None) {
            Ok(grid) => grids[id] = Some(grid),
            Err(e @ LowerError::UnquantizedInput { .. }) => r.diags.push(Diag::from(&e)),
            Err(_) => {}
        }
    }
    r
}

/// `TQT-V010`/`TQT-V028` at merge node `id`: every operand must take its
/// scale from operand 0's threshold and sit on its grid.
fn merge_lints(
    r: &mut Report,
    g: &Graph,
    id: usize,
    grids: &[Option<Option<QFormat>>],
    scale: &[Option<ThresholdId>],
) {
    let node = g.node(id);
    let Some(&i0) = node.inputs.first() else {
        return; // arity, reported by check_structure
    };
    let frac = |i: usize| grids[i].flatten().map(|f| f.frac);
    let describe = |i: usize| match (scale[i], frac(i)) {
        (Some(t), Some(f)) => format!("threshold {t} at 2^-{f}"),
        (Some(t), None) => format!("threshold {t}"),
        (None, _) => "no threshold".to_string(),
    };
    for (slot, &i) in node.inputs.iter().enumerate().skip(1) {
        if scale[i] != scale[i0] || frac(i) != frac(i0) {
            r.push(
                Code::MergeMismatch,
                node.name.clone(),
                format!(
                    "merge input {slot} is on {} but input 0 is on {}; merge inputs must \
                     share one scale (paper §4.3)",
                    describe(i),
                    describe(i0)
                ),
            );
        }
        // Both operands on known but different grids: the lowering will
        // emit an add over incommensurate requant formats — the TQT-V028
        // scale-merge gap.
        if let (Some(f0), Some(fi)) = (frac(i0), frac(i)) {
            if f0 != fi {
                r.push(
                    Code::ScaleMergeViolation,
                    node.name.clone(),
                    format!(
                        "merge input {slot} is on grid 2^-{fi} but input 0 is \
                         on 2^-{f0}: the integer add will sum incommensurate \
                         requant formats. Fix: share one activation threshold \
                         across both producers (re-run calibration with the \
                         merge inputs tied), or run the `rebalance` pass in \
                         `tqt-fixedpoint` after lowering — it inserts the \
                         minimal coercions and re-certifies the result \
                         (`checked_rebalance_with_provenance`)"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions};
    use tqt_nn::{Conv2d, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn quantized_toy() -> Graph {
        let mut rng = init::rng(11);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r = g.add("r1", Op::Relu(Relu::new()), &[c]);
        g.set_output(r);
        transforms::optimize(&mut g, &[1, 2, 8, 8]);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let calib = init::normal([2, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        g
    }

    #[test]
    fn quantized_calibrated_graph_is_clean() {
        let g = quantized_toy();
        let r = lint(&g, Stage::Calibrated);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unquantized_compute_is_v003_v004() {
        let mut rng = init::rng(5);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        g.set_output(c);
        let r = lint(&g, Stage::Quantized);
        assert!(r.has(Code::UnquantizedEdge), "{r}");
        assert!(r.has(Code::MissingWeightQuant), "{r}");
    }

    #[test]
    fn uncalibrated_is_v006_only_at_calibrated_stage() {
        let mut rng = init::rng(6);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        g.set_output(c);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        assert!(!lint(&g, Stage::Quantized).has(Code::Uncalibrated));
        assert!(lint(&g, Stage::Calibrated).has(Code::Uncalibrated));
    }
}
