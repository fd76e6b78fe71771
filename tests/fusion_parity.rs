//! Differential fusion harness: the graph-level epilogue fusion
//! (`tqt_fixedpoint::fuse`) must be a pure scheduling transform. For
//! every zoo model, at batch 1 and 4 and at 1 and 4 worker threads, the
//! fused plan's outputs must be **bit-identical** to the unfused plan's,
//! and the total runtime saturation/overflow counters must match exactly
//! (the fused epilogue replays the same `shift_round`/clamp/add kernels
//! in the same order, so there is no tolerance to hide behind).
//!
//! Totals are compared rather than per-node stats because fusion changes
//! the node list: a `conv -> relu -> requant` chain becomes one fused
//! node whose stats aggregate the chain.

use tqt_fixedpoint::lower::{EpiStep, IntOp};
use tqt_fixedpoint::{fuse, lower};
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::pool;
use tqt_tensor::init;

#[test]
fn fused_plans_are_bit_identical_across_the_zoo() {
    pool::set_threads(4);
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        let seed = 70 + i as u64;
        let mut g = kind.build(seed);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(seed + 200);
        g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
        let ig = lower(&mut g);

        let fg = fuse(ig.clone());
        assert!(
            fg.nodes().len() < ig.nodes().len(),
            "{}: fusion found no chain to collapse ({} nodes before and after)",
            kind.name(),
            ig.nodes().len()
        );

        for batch in [1usize, 4] {
            let x = init::normal([batch, 3, 32, 32], 0.0, 1.0, &mut rng);
            let prev = pool::threads();
            for serial in [false, true] {
                let threads = if serial { 1 } else { prev };
                pool::set_threads(threads);
                let (y0, s0) = ig.run_with_stats(&x);
                let (y1, s1) = fg.run_with_stats(&x);
                assert_eq!(
                    y0,
                    y1,
                    "{}: fused output differs from unfused (batch {batch}, {threads} thread(s))",
                    kind.name()
                );
                assert_eq!(
                    s0.total_saturated(),
                    s1.total_saturated(),
                    "{}: fused saturation count differs (batch {batch}, {threads} thread(s))",
                    kind.name()
                );
                assert_eq!(
                    s0.total_overflowed(),
                    s1.total_overflowed(),
                    "{}: fused overflow count differs (batch {batch}, {threads} thread(s))",
                    kind.name()
                );
            }
            pool::set_threads(prev);
        }
    }
    pool::set_threads(0);
}

/// DarkNet's `conv → leaky-relu → requant` chains must fuse like the
/// relu chains do: the fused graph carries `EpiStep::LeakyRelu` steps and
/// no standalone single-consumer leaky node survives directly downstream
/// of a conv. (Bit-identity of the fused epilogue is covered zoo-wide by
/// the test above — DarkNet included.)
#[test]
fn darknet_leaky_chains_fuse() {
    let mut g = ModelKind::DarkNet.build(77);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(277);
    g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
    let ig = lower(&mut g);
    let standalone_before = ig
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, IntOp::LeakyRelu { .. }))
        .count();
    assert!(standalone_before > 0, "DarkNet lowers with leaky-relu nodes");

    let fg = fuse(ig.clone());
    let fused_leaky = fg
        .nodes()
        .iter()
        .filter(|n| match &n.op {
            IntOp::Fused { epi, .. } => epi
                .iter()
                .any(|s| matches!(s, EpiStep::LeakyRelu { .. })),
            _ => false,
        })
        .count();
    assert_eq!(
        fused_leaky, standalone_before,
        "every single-consumer conv→leaky chain must fuse"
    );
    let standalone_after = fg
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, IntOp::LeakyRelu { .. }))
        .count();
    assert_eq!(standalone_after, 0, "no leaky-relu node should survive fusion");
}
