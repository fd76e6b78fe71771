//! Zoo-wide static verification gate: builds every zoo model, drives it
//! through the transform/quantize/calibrate pipeline at every supported
//! weight bit-width, and runs the full `tqt-verify` analysis suite at each
//! stage:
//!
//! 1. structure + shapes + lints on the float graph (`TQT-V001`…`V010`);
//! 2. transform invariant checking with a semantic probe (`TQT-V014`);
//! 3. one smoke QAT step with the float-exec NaN/Inf sanitizer
//!    (`TQT-V015`) on the float *training* plan — the slot assignment the
//!    trainer executes over the forward+backward tape — which is then
//!    proven alias-free and storage-sound together with the
//!    *forward-only* plan that calibration and validation execute
//!    (`TQT-V016`…`V018` again, on float values);
//! 4. lowering, then the interval/bit-width dataflow proving i64
//!    accumulators cannot overflow and shifts are legal (`V011`…`V013`);
//! 5. an instrumented integer run cross-checked against the proofs
//!    (observed ⊆ proven, `TQT-V015`);
//! 6. the executor-plan alias-freedom proof across the full serving
//!    batch ladder (`tqt_serve::LADDER`, batches 1/2/4/8) plus the probe
//!    batch (`TQT-V016`…`V018`) — every plan the serving engine can
//!    dispatch on is proven here zoo-wide;
//! 7. translation validation (`TQT-V025`…`V030`): every lowered node —
//!    unfused and fused — is proven bit-exact against the exact rational
//!    fake-quant reference using the provenance map recorded by
//!    `lower_with_provenance`. The graph is lowered **once** per
//!    (model, bit-width) and the same lowering/interval analysis is
//!    reused across the interval, plan, and translate passes (the fused
//!    interval analysis comes straight out of
//!    `checked_fuse_with_provenance`, not a second `analyze` call);
//! 8. grid-type inference (`TQT-V031`…`V034`): the whole-graph
//!    quantization-format type system runs over the calibrated float
//!    graph, the lowered graph, and the fused graph — every edge must
//!    get exactly one grid type with only checked coercions between
//!    grids;
//! 9. rebalance certification: the same model is re-quantized with
//!    per-operand thresholds (`QuantizeOptions::unmerged`, the
//!    `TQT-V028` gap), lowered, repaired by the `rebalance` pass, and
//!    the repaired graph re-certified end to end — grid types, interval,
//!    translation validation, containment, the full plan ladder, and the
//!    same suite again after fusing through the inserted coercions.
//!
//! Each model line reports how many of the lowered graph's GEMM nodes
//! (non-depthwise conv and dense) the probe-batch plan routes onto the
//! i32 `madd_epi16` kernel — all of them at 4 and 8 bits across the zoo,
//! none at 16 — and each ok line carries per-pass wall-clock timings; pass
//! `--filter <substring>` to restrict the sweep to matching model names
//! while debugging a single proof.
//!
//! Before the zoo sweep, the concurrency substrate itself is verified:
//! the pool-protocol model checker runs over its bounded configuration
//! suite (`TQT-V019`/`V020`; state-budgeted smoke here, exhaustive in
//! `cargo test -p tqt-rt --test sched_model`; pass `--sched-full` for
//! the exhaustive run in this binary), the serving admission queue's
//! batching protocol is model-checked the same way (`TQT-V024`;
//! exhaustive in `cargo test -p tqt-rt --test batch_model`), and the
//! `par_fold_blocks`
//! partition is checked thread-count-independent (`TQT-V021`). After the
//! sweep, happens-before sanitizer findings are drained (`TQT-V022`;
//! populated when built with `--features tqt-fixedpoint/sanitize`, which
//! the CI sweep does).
//!
//! Exits non-zero if any model at any bit-width produces a finding —
//! this binary is a tier-1 CI gate (`scripts/ci.sh`).

use std::time::{Duration, Instant};
use tqt_bench::{select_models, Args};
use tqt_graph::{quantize_graph, QuantizeOptions, WeightBits};
use tqt_tensor::init;
use tqt_fixedpoint::GemmRoute;
use tqt_graph::{FloatExecutor, FloatPlan};
use tqt_verify::{
    analyze, certify, check_batch_schedules, check_containment, check_float_plan,
    check_fold_partition, check_plan, check_schedules, checked_fuse_with_provenance,
    checked_optimize, checked_rebalance_with_provenance, infer_float_grids, infer_int_grids,
    collect_hb_findings, qat_smoke_step, verify, Diag, Report, Stage,
};

/// Records the wall-clock lap since `*t` under `name` and restarts it.
fn lap(timings: &mut Vec<(&'static str, Duration)>, t: &mut Instant, name: &'static str) {
    let now = Instant::now();
    timings.push((name, now.duration_since(*t)));
    *t = now;
}

fn render_timings(timings: &[(&'static str, Duration)]) -> String {
    timings
        .iter()
        .map(|(n, d)| format!("{n} {}ms", d.as_millis()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let args = Args::parse();
    let mut models = select_models(&args);
    if let Some(f) = args.get("filter") {
        models.retain(|m| m.name().contains(f));
    }
    let bits: Vec<WeightBits> = match args.get("bits") {
        None => WeightBits::all().to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                WeightBits::parse(s).unwrap_or_else(|| panic!("unsupported bit-width {s}"))
            })
            .collect(),
    };
    let batch: usize = args.get_or("batch", 4);
    let seed: u64 = args.get_or("seed", 1);

    let mut failures = 0usize;

    // Concurrency substrate first: a broken pool protocol would
    // invalidate every parallel run below.
    let sched_budget = if args.flag("sched-full") {
        None
    } else {
        Some(args.get_or("sched-budget", 20_000usize))
    };
    let (sched_report, summary) = check_schedules(sched_budget);
    let (batch_report, batch_summary) = check_batch_schedules(sched_budget);
    let mut concurrency = sched_report;
    concurrency.merge(batch_report);
    concurrency.merge(check_fold_partition());
    if concurrency.is_clean() {
        println!(
            "verify sched protocol ({} configs, {} states, {}) ... ok",
            summary.configs,
            summary.states,
            if summary.complete { "exhaustive" } else { "smoke budget" }
        );
        println!(
            "verify batch protocol ({} configs, {} states, {}) ... ok",
            batch_summary.configs,
            batch_summary.states,
            if batch_summary.complete { "exhaustive" } else { "smoke budget" }
        );
    } else {
        failures += concurrency.diags.len();
        println!("verify sched protocol ... {} finding(s)", concurrency.diags.len());
        for line in concurrency.render().lines() {
            println!("    {line}");
        }
    }
    for &model in &models {
        for &wb in &bits {
            let mut report = Report::new();
            let mut routes = None;
            let timings = check_model(model, wb, batch, seed, &mut report, &mut routes);
            let routes = routes.map_or("i32 GEMM -".to_string(), |(i32s, gemms)| {
                format!("i32 GEMM {i32s}/{gemms}")
            });
            if report.is_clean() {
                println!(
                    "verify {:<16} w{:<2} ... ok, {routes} ({})",
                    model.name(),
                    wb.bits(),
                    render_timings(&timings)
                );
            } else {
                failures += report.diags.len();
                println!(
                    "verify {:<16} w{:<2} ... {} finding(s), {routes}",
                    model.name(),
                    wb.bits(),
                    report.diags.len()
                );
                for line in report.render().lines() {
                    println!("    {line}");
                }
            }
        }
    }
    // Drain the happens-before sanitizer after the whole sweep (every
    // parallel region and scratch checkout above was instrumented when
    // the sanitize feature is on).
    let hb = collect_hb_findings();
    let hb_mode = if tqt_verify::sched_check::hb_enabled() {
        "sanitizer on"
    } else {
        "sanitizer off"
    };
    if hb.is_clean() {
        println!("verify happens-before ({hb_mode}) ... ok");
    } else {
        failures += hb.diags.len();
        println!("verify happens-before ({hb_mode}) ... {} finding(s)", hb.diags.len());
        for line in hb.render().lines() {
            println!("    {line}");
        }
    }

    if failures > 0 {
        eprintln!("verify: {failures} finding(s) across the zoo");
        std::process::exit(1);
    }
    println!("verify: zoo clean across {} model(s) x {} bit-width(s)", models.len(), bits.len());
}

/// Runs the full suite on one (model, bit-width) into `report`, and sets
/// `routes` to (i32-routed, all) GEMM nodes of the probe-batch plan once
/// the graph is lowered. Returns the per-pass timings.
fn check_model(
    model: tqt_models::ModelKind,
    wb: WeightBits,
    batch: usize,
    seed: u64,
    report: &mut Report,
    routes: &mut Option<(usize, usize)>,
) -> Vec<(&'static str, Duration)> {
    let mut timings = Vec::new();
    let mut t = Instant::now();
    let mut dims = model.input_dims().to_vec();
    dims[0] = batch;
    let mut g = model.build(seed);

    report.merge(verify(&g, &dims, Stage::Built));
    if !report.is_clean() {
        return timings; // the transform probe would run a graph the checks refuted
    }
    report.merge(checked_optimize(&mut g, &dims));
    report.merge(verify(&g, &dims, Stage::Optimized));

    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(wb));
    report.merge(verify(&g, &dims, Stage::Quantized));

    let mut rng = init::rng(seed ^ 0x5eed);
    let calib = init::normal(dims.clone(), 0.0, 1.0, &mut rng);
    g.calibrate(&calib);
    report.merge(verify(&g, &dims, Stage::Calibrated));
    lap(&mut timings, &mut t, "float");
    if !report.is_clean() {
        // The float engine below has no typed errors yet: its plan and
        // QAT step would panic on a graph the checks refuted.
        return timings;
    }

    // Smoke QAT step with the float-exec sanitizer, on the training plan
    // the trainer executes: quantizer inputs, logits, and every parameter
    // value and gradient after the backward must stay finite.
    let x = init::normal(dims.clone(), 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..batch).map(|i| i % tqt_models::NUM_CLASSES).collect();
    let mut ex = FloatExecutor::new(FloatPlan::new(&mut g, &dims), &g);
    let smoke = qat_smoke_step(&mut g, &mut ex, &x, &labels);
    let smoke_clean = smoke.is_clean();
    report.merge(smoke);
    lap(&mut timings, &mut t, "qat");
    if !smoke_clean {
        return timings;
    }

    // Float plan alias-freedom proofs (`TQT-V016`…`V018`): the training
    // plan the QAT step just ran, and the forward-only plan calibration
    // and validation execute.
    report.merge(check_float_plan(&g, ex.plan()));
    report.merge(check_float_plan(&g, &FloatPlan::forward_only(&g, &dims)));
    lap(&mut timings, &mut t, "fplan");

    // Grid-type inference over the calibrated float graph: every edge
    // must carry exactly one power-of-2 grid type (`TQT-V031`…`V034`).
    report.merge(infer_float_grids(&g, &dims).report);
    lap(&mut timings, &mut t, "gridf");

    // Lower ONCE per (model, bits) — the provenance map, interval facts
    // and plans below all reuse this single lowering. A refusal is
    // reported under the lint's code for the same defect.
    let (ig, prov) = match tqt_fixedpoint::lower_with_provenance(&mut g) {
        Ok(lowered) => lowered,
        Err(e) => {
            report.diags.push(Diag::from(&e));
            return timings;
        }
    };
    lap(&mut timings, &mut t, "lower");

    // Grid-type inference over the lowered graph.
    report.merge(infer_int_grids(&ig, &dims).report);
    lap(&mut timings, &mut t, "gridi");
    if !report.is_clean() {
        return timings;
    }

    // Prove: overflow-freedom, legal shifts, merged formats.
    let proven = analyze(&ig, &dims);
    report.merge(proven.report.clone());
    lap(&mut timings, &mut t, "interval");
    if !proven.proven() {
        return timings;
    }

    // Translation validation of the unfused lowering, reusing the facts
    // the interval pass just computed.
    report.merge(certify(&ig, &prov, &proven, &dims));
    lap(&mut timings, &mut t, "translate");

    // Instrumented run on a fresh batch: observed ⊆ proven.
    let probe = init::normal(dims.clone(), 0.0, 2.0, &mut rng);
    let (_, stats) = ig.run_with_stats(&probe);
    report.merge(check_containment(&ig, &proven, &stats));
    lap(&mut timings, &mut t, "contain");

    // Executor-plan alias-freedom proof across the full serving batch
    // ladder plus the probe batch: every rung the serving engine can
    // dispatch on is proven alias-free here.
    let mut batches = tqt_serve::LADDER.to_vec();
    if !batches.contains(&batch) {
        batches.push(batch);
        batches.sort_unstable();
    }
    for &b in &batches {
        let mut bdims = dims.clone();
        bdims[0] = b;
        let plan = ig.plan(&bdims);
        report.merge(check_plan(&ig, &plan));
        if b == batch {
            let gemm: Vec<GemmRoute> =
                (0..plan.num_nodes()).filter_map(|i| plan.route(i)).collect();
            let i32s = gemm.iter().filter(|r| matches!(r, GemmRoute::I32 { .. })).count();
            *routes = Some((i32s, gemm.len()));
        }
    }
    lap(&mut timings, &mut t, "plan");

    // Epilogue fusion: bit-identical probe + interval re-proof + plan
    // re-verification of the fused graph (`TQT-V014`/`V023`), then the
    // fused lowering is itself translation-validated against the re-keyed
    // provenance, and an instrumented fused run re-checked against the
    // SAME interval analysis the fuse pass already ran (no re-analyze).
    let (fig, fprov, fproven, fr) = checked_fuse_with_provenance(&ig, &prov, &dims);
    report.merge(fr);
    report.merge(fproven.report.clone());
    if fproven.proven() {
        report.merge(infer_int_grids(&fig, &dims).report);
        report.merge(certify(&fig, &fprov, &fproven, &dims));
        let (_, fstats) = fig.run_with_stats(&probe);
        report.merge(check_containment(&fig, &fproven, &fstats));
        for &b in &batches {
            let mut bdims = dims.clone();
            bdims[0] = b;
            report.merge(check_plan(&fig, &fig.plan(&bdims)));
        }
    }
    lap(&mut timings, &mut t, "fuse");
    if !report.is_clean() {
        return timings;
    }

    // Rebalance certification: re-quantize the SAME model with
    // per-operand thresholds (the `TQT-V028` gap — the float lints are
    // expected to flag it, so they are deliberately skipped), lower,
    // repair with the rebalance pass, and re-certify the repaired graph
    // end to end, unfused and fused through the inserted coercions.
    let mut ug = model.build(seed);
    tqt_graph::transforms::optimize(&mut ug, &dims);
    quantize_graph(&mut ug, QuantizeOptions::retrain_wt_th(wb).unmerged());
    ug.calibrate(&calib);
    let (uig, uprov) = match tqt_fixedpoint::lower_with_provenance(&mut ug) {
        Ok(lowered) => lowered,
        Err(e) => {
            report.diags.push(Diag::from(&e));
            return timings;
        }
    };
    let (rig, rprov, rproven, rr) = checked_rebalance_with_provenance(&uig, &uprov, &dims);
    report.merge(rr);
    report.merge(rproven.report.clone());
    if rproven.proven() {
        report.merge(certify(&rig, &rprov, &rproven, &dims));
        let (_, rstats) = rig.run_with_stats(&probe);
        report.merge(check_containment(&rig, &rproven, &rstats));
        for &b in &batches {
            let mut bdims = dims.clone();
            bdims[0] = b;
            report.merge(check_plan(&rig, &rig.plan(&bdims)));
        }
        let (rfig, rfprov, rfproven, rfr) = checked_fuse_with_provenance(&rig, &rprov, &dims);
        report.merge(rfr);
        report.merge(rfproven.report.clone());
        if rfproven.proven() {
            report.merge(infer_int_grids(&rfig, &dims).report);
            report.merge(certify(&rfig, &rfprov, &rfproven, &dims));
        }
    }
    lap(&mut timings, &mut t, "rebal");
    timings
}
