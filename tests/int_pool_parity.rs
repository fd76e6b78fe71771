//! End-to-end bit-identity of the integer engine under the worker pool:
//! the full lowered IntGraph forward pass over every zoo model must
//! produce byte-identical quantized outputs — and identical saturation /
//! overflow statistics — whether it runs on the parallel path with
//! several workers or on one thread (`set_threads(1)`). This is the integer-engine
//! counterpart of `tests/pool_parity_quantized.rs` and the guarantee
//! that lets the tqt-verify containment and sanitizer results carry over
//! to parallel deployment runs.

use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::pool;
use tqt_tensor::init;

#[test]
fn int_forward_bit_identical_serial_vs_parallel_all_models() {
    // More workers than a single-core CI host has cores: the guarantee is
    // thread-count independence, not "serial happens to win the race".
    pool::set_threads(4);

    for (i, &kind) in ModelKind::all().iter().enumerate() {
        let seed = 70 + i as u64;
        let mut g = kind.build(seed);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(seed + 200);
        g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
        let ig = lower(&mut g);

        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        let (y_par, stats_par) = ig.run_with_stats(&x);
        let prev = pool::threads();
        pool::set_threads(1);
        let (y_ser, stats_ser) = ig.run_with_stats(&x);
        pool::set_threads(prev);

        // QTensor equality is exact element-wise i64 comparison.
        assert_eq!(y_par, y_ser, "{kind:?}: integer output differs serial vs parallel");
        let (np, ns) = (&stats_par.nodes, &stats_ser.nodes);
        assert_eq!(np.len(), ns.len());
        for (j, (sp, ss)) in np.iter().zip(ns).enumerate() {
            assert_eq!(
                (sp.lo, sp.hi, sp.saturated, sp.overflowed),
                (ss.lo, ss.hi, ss.saturated, ss.overflowed),
                "{kind:?} node {j}: stats differ serial vs parallel"
            );
        }
    }

    pool::set_threads(0);
}
