//! Transform invariant checking: re-verifies the graph after every pass of
//! the optimization pipeline and probes that each pass preserved inference
//! semantics.
//!
//! `TQT-V014` findings are attributed to the pass that introduced them, so
//! a broken rewrite is named directly instead of surfacing later as an
//! unrelated shape or lowering failure.

use crate::diag::{Code, Report};
use crate::shape::{check_structure, infer_shapes};
use tqt_fixedpoint::{IntGraph, Provenance};
use tqt_graph::{transforms, Graph};
use tqt_tensor::{init, Tensor};

/// Absolute tolerance of the semantic probe.
const PROBE_ATOL: f32 = 1e-4;
/// Relative tolerance of the semantic probe (batch-norm folding reorders
/// float arithmetic, so bit-equality is not expected).
const PROBE_RTOL: f32 = 1e-3;

fn max_deviation(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs() / (PROBE_ATOL + PROBE_RTOL * y.abs()).max(f32::MIN_POSITIVE))
        .fold(0.0f32, f32::max)
}

/// Runs the full transform pipeline like `transforms::optimize`, but
/// re-verifies structure and shapes after every pass and compares a probe
/// inference ([`Graph::infer`]) against the pre-pipeline output. Every
/// violation is reported as `TQT-V014` naming the offending pass (the
/// underlying finding is kept in the message). A pass whose graph fails
/// the structure or shape checks is not probed: running a graph the
/// checks refuted would panic inside a kernel instead of reporting.
pub fn checked_optimize(g: &mut Graph, input_dims: &[usize]) -> Report {
    checked_pipeline(g, input_dims, &transforms::pipeline())
}

/// Structure and shape findings of `g` on `input_dims`.
fn structure_and_shapes(g: &Graph, input_dims: &[usize]) -> Report {
    let mut r = check_structure(g);
    r.merge(infer_shapes(g, input_dims).report);
    r
}

/// [`checked_optimize`] over an explicit pass list. Exposed so tests can
/// feed a deliberately broken pass and assert it is caught and attributed.
/// An entry graph that fails the structure or shape checks is returned
/// with those findings (`TQT-V001`/`TQT-V002`) before any probe runs.
pub fn checked_pipeline(g: &mut Graph, input_dims: &[usize], passes: &[transforms::Pass]) -> Report {
    let mut report = structure_and_shapes(g, input_dims);
    if !report.is_clean() {
        return report;
    }
    let mut rng = init::rng(0x7177_7665);
    let probe = init::normal(input_dims.to_vec(), 0.0, 1.0, &mut rng);
    let before = g.infer(&probe);

    for &(pass_name, pass) in passes {
        pass(g, input_dims);

        let after_pass = structure_and_shapes(g, input_dims);
        let refuted = !after_pass.diags.is_empty();
        for d in after_pass.diags {
            report.push_global(
                Code::TransformInvariant,
                format!(
                    "pass `{pass_name}` left the graph invalid: {} {} ({})",
                    d.code,
                    d.node.as_deref().unwrap_or("<graph>"),
                    d.detail
                ),
            );
        }

        if refuted {
            continue;
        }
        let after = g.infer(&probe);
        if after.dims() != before.dims() {
            report.push_global(
                Code::TransformInvariant,
                format!(
                    "pass `{pass_name}` changed the output shape {:?} -> {:?}",
                    before.dims(),
                    after.dims()
                ),
            );
        } else {
            let dev = max_deviation(&after, &before);
            if dev > 1.0 {
                report.push_global(
                    Code::TransformInvariant,
                    format!(
                        "pass `{pass_name}` changed inference semantics: max probe \
                         deviation {dev:.1}x tolerance (atol {PROBE_ATOL}, rtol {PROBE_RTOL})"
                    ),
                );
            }
        }
    }
    report
}

/// Runs the graph-level epilogue fusion
/// ([`tqt_fixedpoint::fuse`](fn@tqt_fixedpoint::fuse)) over a lowered
/// graph and re-proves the result, returning the fused graph and every
/// finding:
///
/// * a probe inference must be **bit-identical** — outputs, format, and
///   total saturation/overflow counters (fusion replays the exact
///   standalone kernels, so unlike the float pipeline there is no
///   tolerance; any deviation is a `TQT-V014`);
/// * the fused graph must re-prove under the interval dataflow
///   (`TQT-V011`/`TQT-V012`, fusion legality `TQT-V023`);
/// * the fused graph's slot plan must re-verify alias-free
///   (`TQT-V016`–`TQT-V018`).
pub fn checked_fuse(ig: &IntGraph, input_dims: &[usize]) -> (IntGraph, Report) {
    let (fused, _prov, facts, mut report) =
        checked_fuse_with_provenance(ig, &Provenance::default(), input_dims);
    report.merge(facts.report);
    (fused, report)
}

/// [`checked_fuse`], additionally threading a [`Provenance`] map through
/// the rewrite (fused nodes gain `Fused` entries naming their members)
/// and returning the fused graph's
/// [`IntervalReport`](crate::interval::IntervalReport) so callers can
/// reuse the one interval analysis this pass already ran — the verify bin
/// feeds it straight into the translation validator instead of
/// re-analyzing per pass. The interval findings stay in the returned
/// `IntervalReport` (not merged into the `Report`), so callers choose
/// where to surface them exactly once.
pub fn checked_fuse_with_provenance(
    ig: &IntGraph,
    prov: &Provenance,
    input_dims: &[usize],
) -> (IntGraph, Provenance, crate::interval::IntervalReport, Report) {
    let mut report = Report::new();
    let (fused, chains) = tqt_fixedpoint::fuse_with_chains(ig.clone());
    let mut fprov = prov.clone();
    fprov.record_fusion(&chains);

    let mut rng = init::rng(0x6675_7365);
    let probe = init::normal(input_dims.to_vec(), 0.0, 1.0, &mut rng);
    let (y0, s0) = ig.run_with_stats(&probe);
    let (y1, s1) = fused.run_with_stats(&probe);
    if y0 != y1 {
        report.push_global(
            Code::TransformInvariant,
            format!(
                "fusion changed inference: unfused output {:?} in {:?}, fused {:?} in {:?}",
                y0.dims(),
                y0.format,
                y1.dims(),
                y1.format
            ),
        );
    }
    if (s0.total_saturated(), s0.total_overflowed())
        != (s1.total_saturated(), s1.total_overflowed())
    {
        report.push_global(
            Code::TransformInvariant,
            format!(
                "fusion changed runtime counters: saturated {} -> {}, overflowed {} -> {}",
                s0.total_saturated(),
                s1.total_saturated(),
                s0.total_overflowed(),
                s1.total_overflowed()
            ),
        );
    }

    let facts = crate::interval::analyze(&fused, input_dims);
    report.merge(crate::plan_check::check_plan(&fused, &fused.plan(input_dims)));
    (fused, fprov, facts, report)
}

/// Runs the requant-rebalancing pass
/// ([`tqt_fixedpoint::rebalance`](fn@tqt_fixedpoint::rebalance)) over a
/// lowered graph and re-proves the result, returning the rebalanced graph,
/// the extended provenance (inserted coercions gain `Quant` entries), the
/// graph's [`IntervalReport`](crate::interval::IntervalReport), and every
/// finding:
///
/// * the rebalanced graph must be **well-typed** under the grid type
///   system ([`crate::gridtype::infer_int_grids`]) — any surviving
///   `TQT-V031`–`TQT-V034` means the pass failed to repair (or broke) a
///   merge;
/// * it must re-prove under the interval dataflow
///   (`TQT-V011`/`TQT-V012`) and the slot-plan alias checks
///   (`TQT-V016`–`TQT-V018`).
///
/// Unlike [`checked_fuse_with_provenance`] there is no bit-identity probe:
/// the *input* graph of this pass is by definition not executable when it
/// needs repair (an unmerged add sums incommensurate grids), so there is
/// no reference run to compare against. Bit-accuracy of the rebalanced
/// graph is instead proven against the exact dyadic reference by the
/// translation validator and `tests/rebalance_parity.rs`. As with fusion,
/// interval findings stay in the returned `IntervalReport` so callers
/// surface them exactly once.
pub fn checked_rebalance_with_provenance(
    ig: &IntGraph,
    prov: &Provenance,
    input_dims: &[usize],
) -> (IntGraph, Provenance, crate::interval::IntervalReport, Report) {
    let mut report = Report::new();
    let (rg, rprov, _records) = tqt_fixedpoint::rebalance_with_provenance(ig, prov);

    report.merge(crate::gridtype::infer_int_grids(&rg, input_dims).report);
    let facts = crate::interval::analyze(&rg, input_dims);
    report.merge(crate::plan_check::check_plan(&rg, &rg.plan(input_dims)));
    (rg, rprov, facts, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{build_arena, FloatExecutor, FloatPlan, Op};
    use tqt_nn::{BatchNorm, Conv2d, Relu};
    use tqt_tensor::conv::Conv2dGeom;

    #[test]
    fn pipeline_preserves_semantics_on_conv_bn_relu() {
        let mut rng = init::rng(42);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let b = g.add("bn1", Op::BatchNorm(BatchNorm::new("bn1", 4, 0.9, 1e-5)), &[c]);
        let r = g.add("r1", Op::Relu(Relu::new()), &[b]);
        g.set_output(r);
        // Give the BN non-trivial running stats so folding actually rewrites.
        let warm = init::normal([4, 2, 8, 8], 0.5, 2.0, &mut rng);
        let arena = build_arena(&mut g);
        FloatExecutor::new(FloatPlan::new(&mut g, warm.dims()), &g).forward(&mut g, &arena, &warm);

        let report = checked_optimize(&mut g, &[1, 2, 8, 8]);
        assert!(report.is_clean(), "{report}");
        assert!(
            !g.iter().any(|(_, n)| matches!(n.op, Op::BatchNorm(_))),
            "pipeline should fold the batch norm"
        );
    }
}
