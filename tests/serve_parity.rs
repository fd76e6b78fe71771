//! Serving bit-identity harness: dynamic batching must be a pure
//! scheduling decision. For every zoo model, a batch-k dispatch on the
//! serving engine's proven rung-k plan must be **bit-identical** — output
//! values *and* total saturation/overflow counters — to k independent
//! batch-1 runs, at 1 and 4 worker threads (the batched kernels replay
//! the same per-element epilogues row by row, so there is no tolerance
//! to hide behind). On top of the executor-level identity, a full
//! serve() scope — admission queue, coalescing, shared-weight sessions —
//! must route every client exactly the logits a direct batch-1 run
//! produces, with zero executor allocations in the steady state.
//!
//! `scripts/ci.sh` runs this under the `sanitize` feature, so the sweep
//! additionally exercises accumulator-wrap asserts, the happens-before
//! sanitizer, and the admission queue's claim/complete tracker; any
//! finding is drained and fails the run.

use std::time::Duration;

use tqt_fixedpoint::{lower, IntExecutor};
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::pool;
use tqt_rt::queue::scoped_threads;
use tqt_serve::Engine;
use tqt_tensor::{init, Tensor};
use tqt_verify::collect_hb_findings;

fn engine_for(kind: ModelKind, seed: u64) -> Engine {
    let mut g = kind.build(seed);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(seed + 500);
    g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
    let ig = lower(&mut g);
    match Engine::build(ig, &INPUT_DIMS) {
        Ok(e) => e,
        Err(msg) => panic!("{}: ladder plans must prove\n{msg}", kind.name()),
    }
}

/// Copies image `i` of `batch` into a fresh single-image tensor.
fn image_of(batch: &Tensor, i: usize) -> Tensor {
    let elems: usize = INPUT_DIMS[1..].iter().product();
    Tensor::from_vec(
        INPUT_DIMS,
        batch.data()[i * elems..(i + 1) * elems].to_vec(),
    )
}

#[test]
fn batch_dispatch_is_bit_identical_to_single_requests() {
    pool::set_threads(4);
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        let seed = 90 + i as u64;
        let eng = engine_for(kind, seed);
        let mut rng = init::rng(seed + 900);
        for &rung in eng.ladder() {
            if rung == 1 {
                continue;
            }
            let x = init::normal([rung, 3, 32, 32], 0.0, 1.0, &mut rng);
            let prev = pool::threads();
            for serial in [true, false] {
                let threads = if serial { 1 } else { prev };
                pool::set_threads(threads);
                let plan_k = eng.plan_for(rung).expect("ladder rung is planned");
                let mut ex_k = IntExecutor::with_plan(eng.graph(), plan_k);
                let (yk, sk) = ex_k.run_with_stats(&x);

                let plan_1 = eng.plan_for(1).expect("rung 1 is planned");
                let mut ex_1 = IntExecutor::with_plan(eng.graph(), plan_1);
                let mut singles: Vec<i64> = Vec::new();
                let (mut sat, mut ovf) = (0u64, 0u64);
                for r in 0..rung {
                    let (y1, s1) = ex_1.run_with_stats(&image_of(&x, r));
                    assert_eq!(
                        y1.format,
                        yk.format,
                        "{}: batch {rung} changed the output format",
                        kind.name()
                    );
                    singles.extend_from_slice(y1.data());
                    sat += s1.total_saturated();
                    ovf += s1.total_overflowed();
                }
                assert_eq!(
                    yk.data(),
                    &singles[..],
                    "{}: batch-{rung} outputs differ from {rung} batch-1 runs \
                     ({threads} thread(s))",
                    kind.name()
                );
                assert_eq!(
                    sk.total_saturated(),
                    sat,
                    "{}: batch-{rung} saturation count differs ({threads} thread(s))",
                    kind.name()
                );
                assert_eq!(
                    sk.total_overflowed(),
                    ovf,
                    "{}: batch-{rung} overflow count differs ({threads} thread(s))",
                    kind.name()
                );
            }
            pool::set_threads(prev);
        }
    }
    pool::set_threads(0);
}

#[test]
fn served_replies_are_bit_identical_zoo_wide() {
    // Intra-op parallelism off: the serving threads themselves are the
    // parallelism under test here, and nested pools would only add noise.
    pool::set_threads(1);
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        let seed = 90 + i as u64;
        let eng = engine_for(kind, seed);
        let mut rng = init::rng(seed + 950);
        let images: Vec<Tensor> = (0..6)
            .map(|_| init::normal(INPUT_DIMS, 0.0, 1.0, &mut rng))
            .collect();
        let expected: Vec<Vec<i64>> = {
            let plan = eng.plan_for(1).expect("rung 1 is planned");
            let mut ex = IntExecutor::with_plan(eng.graph(), plan);
            images.iter().map(|x| ex.run(x).data().to_vec()).collect()
        };
        let ((), report) = eng.serve(2, Duration::from_millis(2), |client| {
            let (imgs, exp) = (&images, &expected);
            let (_, ()) = scoped_threads(
                3,
                |c| {
                    for (j, x) in imgs.iter().enumerate().filter(|(j, _)| j % 3 == c) {
                        let reply = client.infer(x.data());
                        assert_eq!(
                            reply.logits,
                            exp[j],
                            "{}: served logits differ from the batch-1 run",
                            kind.name()
                        );
                    }
                },
                || {},
            );
        });
        assert_eq!(report.queue.submitted, 6, "{}", kind.name());
        assert_eq!(
            report.queue.dispatched_requests, 6,
            "{}: drain must lose nothing",
            kind.name()
        );
        assert_eq!(report.overflowed, 0, "{}: proven plans cannot wrap", kind.name());
        assert_eq!(
            report.steady_state_allocs, 0,
            "{}: the serving hot path must not allocate executor slots",
            kind.name()
        );
    }
    pool::set_threads(0);
    let hb = collect_hb_findings();
    assert!(hb.is_clean(), "sanitizer findings during serving:\n{hb}");
}
