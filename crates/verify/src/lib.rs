//! # tqt-verify
//!
//! Static analysis for TQT graphs: a pass framework that *proves* the
//! properties the rest of the stack otherwise discovers at runtime (or
//! never).
//!
//! * [`diag`] — stable error codes (`TQT-V001` …) and batched reports;
//! * [`shape`] — structural checks and symbolic shape/dtype inference over
//!   the float [`Graph`] and the lowered
//!   [`IntGraph`](tqt_fixedpoint::IntGraph), from one per-op rule;
//! * [`lint`] — the quantization lint set (unquantized compute edges, dead
//!   thresholds, degenerate scales, unfolded batch norms, unmerged scales
//!   at add/concat);
//! * [`gridtype`] — the grid type system: dataflow inference assigning
//!   every edge of both IRs a `Grid { scale_num, shift, zp, bits, signed }`
//!   type, with meet at merges and checked coercions
//!   (`TQT-V031`–`TQT-V034`); the typing discipline the `rebalance`
//!   codegen pass in `tqt-fixedpoint` is certified against;
//! * [`interval`] — interval/bit-width dataflow over the lowered
//!   [`IntGraph`](tqt_fixedpoint::IntGraph): proves i64 accumulators
//!   cannot overflow (or refutes with a counterexample path) and that
//!   every requantization shift is legal;
//! * [`passes`] — transform invariant checking: re-verifies after every
//!   pass of the optimization pipeline;
//! * [`sanitize`] — cross-checks the runtime sanitizer counters against
//!   the static proofs (observed ⊆ proven), and the float engine's NaN/Inf
//!   sanitizer over one QAT step;
//! * [`plan_check`] — independent alias-freedom proof over the executor's
//!   buffer-slot plan: re-derived liveness and occupancy simulation
//!   (`TQT-V016`–`TQT-V018`);
//! * [`sched_check`] — drivers for the `tqt-rt` concurrency proofs:
//!   bounded model checking of the pool protocol (`TQT-V019`/`TQT-V020`),
//!   fold-partition determinism (`TQT-V021`), and happens-before
//!   sanitizer findings (`TQT-V022`);
//! * [`translate`] — translation validation of the fake-quant →
//!   fixed-point lowering: proves each lowered node bit-exact against the
//!   exact rational fake-quant reference (`tqt_quant::exact`) over its
//!   full input lattice, or refutes with a concrete counterexample input
//!   (`TQT-V025`–`TQT-V030`).
//!
//! The float-graph entry point is [`verify`]; lowered graphs go through
//! [`interval::analyze`]. Both return a [`Report`] instead of panicking,
//! so one run over a model zoo surfaces every finding at once.

pub mod diag;
pub mod gridtype;
pub mod interval;
pub mod lint;
pub mod passes;
pub mod plan_check;
pub mod sanitize;
pub mod sched_check;
pub mod shape;
pub mod translate;

pub use diag::{Code, Diag, Report};
pub use gridtype::{infer_float_grids, infer_int_grids, Grid, GridReport};
pub use interval::{analyze, IntervalReport};
pub use passes::{
    checked_fuse, checked_fuse_with_provenance, checked_optimize, checked_pipeline,
    checked_rebalance_with_provenance,
};
pub use translate::certify;
pub use plan_check::{check_float_plan, check_plan};
pub use sanitize::{check_containment, qat_smoke_step};
pub use sched_check::{
    check_batch_schedules, check_fold_partition, check_schedules, collect_hb_findings,
};
pub use shape::{check_structure, infer_int_shapes, infer_shapes, ShapeReport};

use tqt_graph::Graph;

/// How far along the build/optimize/quantize/calibrate pipeline a graph
/// is. Later stages enable stricter lints: an un-folded batch norm is fine
/// in a freshly built graph but a `TQT-V008` after the transform pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Freshly constructed, before the transform pipeline.
    Built,
    /// After `transforms::optimize`: no batch norms or average pools.
    Optimized,
    /// After `quantize_graph`: every compute edge quantized.
    Quantized,
    /// After calibration: every threshold has a value.
    Calibrated,
}

/// Verifies a float graph at `stage`: structure, shapes, and the full lint
/// set. Returns every finding (clean report = verified).
pub fn verify(g: &Graph, input_dims: &[usize], stage: Stage) -> Report {
    let mut r = check_structure(g);
    if !r.is_clean() {
        // Shape inference and lints index by edges the structural pass just
        // rejected; run them only on structurally sound graphs.
        return r;
    }
    r.merge(infer_shapes(g, input_dims).report);
    r.merge(lint::lint(g, stage));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions, Op};
    use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    #[test]
    fn full_pipeline_verifies_at_every_stage() {
        let mut rng = init::rng(17);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c1 = g.add(
            "conv1",
            Op::Conv(Conv2d::new("conv1", 2, 4, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r1 = g.add("relu1", Op::Relu(Relu::relu6()), &[c1]);
        let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[r1]);
        let fc = g.add("fc", Op::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
        g.set_output(fc);
        let dims = [1, 2, 8, 8];

        assert!(verify(&g, &dims, Stage::Built).is_clean());
        transforms::optimize(&mut g, &dims);
        assert!(verify(&g, &dims, Stage::Optimized).is_clean());
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let r = verify(&g, &dims, Stage::Quantized);
        assert!(r.is_clean(), "{r}");
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        let r = verify(&g, &dims, Stage::Calibrated);
        assert!(r.is_clean(), "{r}");
    }
}
