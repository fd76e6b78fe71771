//! `tqt-serve` — the dynamic-batching serving core over the integer
//! inference engine.
//!
//! Serving turns the repo's throughput story end-to-end: clients submit
//! single images, and the engine coalesces them into the largest batch
//! the backlog supports, so one executor run, one walk over each packed
//! weight panel and one hand-off serve several requests. How much that
//! buys depends on the model: the per-request work of the GEMMs themselves
//! scales with the batch, so the gain is the per-run overhead saved,
//! which `BENCH_serve.json` and the benchmark's `resnet20_b8` and
//! `mobilenet_v1_serve` workloads measure. The pieces:
//!
//! * **Batch ladder** ([`Engine::build`]) — one [`IntPlan`] per rung of
//!   [`LADDER`], each *proven at build time*: the interval analyzer
//!   (`tqt_verify::analyze`) shows every node's dims fit its op and no
//!   i64 accumulator can wrap at that batch size, and the plan checker (`tqt_verify::check_plan`) shows
//!   the slot assignment is alias-free. A request can only ever run on
//!   a plan that carries both proofs.
//! * **Shared-weight sessions** ([`Engine::serve`]) — every worker
//!   builds one [`IntExecutor::with_plan`] session per rung, all
//!   borrowing the engine's plans, and the plans of every rung share
//!   one packed-weight arena (`IntGraph::plan_ladder`): one arena per
//!   model regardless of rung or worker count. Sessions reuse their slot and
//!   output buffers across requests; the steady state performs no
//!   executor-side allocation ([`IntExecutor::slot_allocs`]).
//! * **Admission queue** (`tqt_rt::queue`) — coalescing decisions are
//!   the pure functions in `tqt_rt::sched`, exhaustively model-checked
//!   (`TQT-V024` on refutation): no request is lost or dispatched
//!   twice, deadline-expired requests always flush, shutdown drains
//!   cleanly.
//!
//! Batching is bit-exact, not approximate: a batch-k dispatch produces
//! exactly the logits (and saturation/overflow counters) of k
//! independent batch-1 runs, which `tests/serve_parity.rs` proves
//! zoo-wide — so the throughput win in `BENCH_serve.json` comes at
//! equal accuracy by construction.

use std::time::Duration;

use tqt_fixedpoint::{IntExecutor, IntGraph, IntPlan, QFormat};
use tqt_rt::queue::{scoped_threads, BatchQueue, QueueStats};
use tqt_tensor::Tensor;
use tqt_verify::{analyze, check_plan};

/// The default batch ladder: power-of-two rungs so any backlog splits
/// into at most `log2(top)` dispatches, topping out where the blocked
/// GEMM's batch amortization flattens.
pub const LADDER: [usize; 4] = [1, 2, 4, 8];

/// One served inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The request's output values (one image's logits).
    pub logits: Vec<i64>,
    /// Their fixed-point format.
    pub format: QFormat,
}

/// Aggregate observations from one [`Engine::serve`] scope.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Admission-queue counters (dispatch rungs, deadline flushes, …).
    pub queue: QueueStats,
    /// Total saturated elements across every dispatched batch.
    pub saturated: u64,
    /// Total wrapped i64 accumulators (always 0 on proven plans).
    pub overflowed: u64,
    /// Executor slot allocations beyond session construction — the
    /// serving hot path's allocation count, asserted zero in tests.
    pub steady_state_allocs: u64,
}

/// A serving engine: one integer graph plus its proven batch-ladder
/// plans. Build once, then [`serve`](Engine::serve) any number of
/// scopes over it.
pub struct Engine {
    graph: IntGraph,
    base_dims: Vec<usize>,
    ladder: Vec<usize>,
    plans: Vec<IntPlan>,
    image_elems: usize,
}

/// Per-rung executor session a worker owns: the executor borrows the
/// engine's plan (shared packed weights); the input tensor and output
/// buffer are reused across every dispatch of that rung.
struct Session<'e> {
    ex: IntExecutor<'e>,
    input: Tensor,
    out: Vec<i64>,
    baseline_allocs: u64,
}

/// Shuts the queue down when the serve body finishes — or panics — so
/// workers always drain and exit.
struct Drain<'q, T, R>(&'q BatchQueue<T, R>);

impl<T, R> Drop for Drain<'_, T, R> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

impl Engine {
    /// Builds an engine over the default [`LADDER`].
    ///
    /// # Errors
    ///
    /// Returns the rendered diagnostics if any rung's shape or overflow
    /// proof or plan-aliasing proof fails — an unproven plan never serves,
    /// and a graph whose dims do not fit its ops is never planned.
    pub fn build(graph: IntGraph, base_dims: &[usize]) -> Result<Engine, String> {
        Self::with_ladder(graph, base_dims, &LADDER)
    }

    /// Builds an engine over a custom ladder (sorted ascending, rung 1
    /// first), proving every rung's plan.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    ///
    /// # Panics
    ///
    /// Panics on a malformed ladder or `base_dims` whose batch is not 1.
    pub fn with_ladder(
        graph: IntGraph,
        base_dims: &[usize],
        ladder: &[usize],
    ) -> Result<Engine, String> {
        assert_eq!(base_dims.first(), Some(&1), "base dims must be single-image");
        assert!(
            ladder.first() == Some(&1) && ladder.windows(2).all(|w| w[0] < w[1]),
            "ladder must be sorted ascending starting at rung 1"
        );
        for &rung in ladder {
            let mut dims = base_dims.to_vec();
            dims[0] = rung;
            let iv = analyze(&graph, &dims);
            if !iv.proven() {
                return Err(format!(
                    "batch-{rung} plan refused: shape or overflow proof failed\n{}",
                    iv.report.render()
                ));
            }
        }
        // One plan per rung, all sharing one packed weight arena.
        let plans = graph.plan_ladder(base_dims, ladder);
        for (&rung, plan) in ladder.iter().zip(&plans) {
            let pr = check_plan(&graph, plan);
            if !pr.is_clean() {
                return Err(format!(
                    "batch-{rung} plan refused: plan proof failed\n{}",
                    pr.render()
                ));
            }
        }
        let image_elems = base_dims[1..].iter().product();
        Ok(Engine {
            graph,
            base_dims: base_dims.to_vec(),
            ladder: ladder.to_vec(),
            plans,
            image_elems,
        })
    }

    /// The batch ladder this engine serves on.
    pub fn ladder(&self) -> &[usize] {
        &self.ladder
    }

    /// The integer graph being served.
    pub fn graph(&self) -> &IntGraph {
        &self.graph
    }

    /// The proven plan for batch size `rung`, if it is a ladder rung —
    /// the handle sessions outside [`serve`](Self::serve) (tests, the
    /// bench baseline) share weights through.
    pub fn plan_for(&self, rung: usize) -> Option<&IntPlan> {
        let i = self.ladder.iter().position(|&r| r == rung)?;
        Some(&self.plans[i])
    }

    /// Elements of one image (`C*H*W` of the base dims).
    pub fn image_elems(&self) -> usize {
        self.image_elems
    }

    /// Runs a serving scope: spawns `workers` serving threads, calls
    /// `body` with a [`Client`] handle on the current thread, then
    /// drains the queue (even if `body` panics) and joins the workers.
    /// Requests coalesce into ladder batches; a partial batch waits at
    /// most `max_wait` before it flushes.
    pub fn serve<O>(
        &self,
        workers: usize,
        max_wait: Duration,
        body: impl FnOnce(&Client<'_>) -> O,
    ) -> (O, ServeReport) {
        assert!(workers >= 1, "serving needs at least one worker");
        let queue: BatchQueue<Vec<f32>, Reply> = BatchQueue::new(&self.ladder, max_wait);
        let (worker_stats, out) = scoped_threads(
            workers,
            |_| self.worker_loop(&queue),
            || {
                let drain = Drain(&queue);
                let out = body(&Client {
                    queue: &queue,
                    engine: self,
                });
                drop(drain);
                out
            },
        );
        let mut report = ServeReport {
            queue: queue.stats(),
            saturated: 0,
            overflowed: 0,
            steady_state_allocs: 0,
        };
        for (sat, ovf, allocs) in worker_stats {
            report.saturated += sat;
            report.overflowed += ovf;
            report.steady_state_allocs += allocs;
        }
        (out, report)
    }

    /// One worker: per-rung sessions over the shared plans, then the
    /// claim/complete loop until the queue drains.
    fn worker_loop(&self, queue: &BatchQueue<Vec<f32>, Reply>) -> (u64, u64, u64) {
        let mut sessions: Vec<Session<'_>> = self
            .ladder
            .iter()
            .zip(&self.plans)
            .map(|(&rung, plan)| {
                let mut dims = self.base_dims.clone();
                dims[0] = rung;
                let ex = IntExecutor::with_plan(&self.graph, plan);
                let baseline_allocs = ex.slot_allocs();
                Session {
                    ex,
                    input: Tensor::zeros(dims),
                    out: Vec::new(),
                    baseline_allocs,
                }
            })
            .collect();
        let mut batch: Vec<(u64, Vec<f32>)> = Vec::new();
        let (mut sat, mut ovf) = (0u64, 0u64);
        while queue.claim_into(&mut batch) {
            let k = batch.len();
            let si = match self.ladder.iter().position(|&r| r == k) {
                Some(i) => i,
                None => panic!("queue dispatched {k} requests, not a ladder rung"),
            };
            let s = &mut sessions[si];
            let data = s.input.data_mut();
            for (row, (_, img)) in batch.iter().enumerate() {
                data[row * self.image_elems..(row + 1) * self.image_elems].copy_from_slice(img);
            }
            let (format, stats) = s.ex.run_into(&s.input, &mut s.out);
            sat += stats.total_saturated();
            ovf += stats.total_overflowed();
            let per = s.out.len() / k;
            let out = &s.out;
            queue.complete(batch.drain(..).enumerate().map(|(row, (seq, _))| {
                (
                    seq,
                    Reply {
                        logits: out[row * per..(row + 1) * per].to_vec(),
                        format,
                    },
                )
            }));
        }
        let steady_allocs: u64 = sessions
            .iter()
            .map(|s| s.ex.slot_allocs() - s.baseline_allocs)
            .sum();
        (sat, ovf, steady_allocs)
    }
}

/// The request handle [`Engine::serve`] passes to its body; share it by
/// reference across client threads (`tqt_rt::queue::scoped_threads`).
pub struct Client<'a> {
    queue: &'a BatchQueue<Vec<f32>, Reply>,
    engine: &'a Engine,
}

impl Client<'_> {
    /// Submits one image (row-major `C*H*W` floats) and blocks until its
    /// logits come back.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not exactly one image's elements.
    pub fn infer(&self, image: &[f32]) -> Reply {
        assert_eq!(
            image.len(),
            self.engine.image_elems,
            "image element count mismatch"
        );
        self.queue.call(image.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_fixedpoint::lower::{IntNode, IntOp};
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
    use tqt_models::{ModelKind, INPUT_DIMS};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn engine() -> Engine {
        let mut g = ModelKind::VggA.build(42);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(242);
        g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
        let ig = tqt_fixedpoint::lower(&mut g);
        Engine::build(ig, &INPUT_DIMS).expect("zoo plans must prove")
    }

    #[test]
    fn served_replies_match_direct_batch_1_runs() {
        let eng = engine();
        let mut rng = init::rng(77);
        let images: Vec<Tensor> = (0..6)
            .map(|_| init::normal(INPUT_DIMS, 0.0, 1.0, &mut rng))
            .collect();
        // Direct single-image runs on the engine's own proven rung-1 plan.
        let expected: Vec<Vec<i64>> = {
            let plan = eng.plan_for(1).expect("rung 1 is on the ladder");
            let mut ex = IntExecutor::with_plan(eng.graph(), plan);
            images.iter().map(|x| ex.run(x).data().to_vec()).collect()
        };
        let ((), report) = eng.serve(2, Duration::from_millis(2), |client| {
            let imgs = &images;
            let exp = &expected;
            let (_, ()) = scoped_threads(
                3,
                |c| {
                    for (i, x) in imgs.iter().enumerate().filter(|(i, _)| i % 3 == c) {
                        let reply = client.infer(x.data());
                        assert_eq!(reply.logits, exp[i], "image {i} served wrong logits");
                    }
                },
                || {},
            );
        });
        assert_eq!(report.queue.submitted, 6);
        assert_eq!(report.queue.dispatched_requests, 6, "clean drain");
        assert_eq!(report.overflowed, 0, "proven plans cannot wrap");
        assert_eq!(
            report.steady_state_allocs, 0,
            "serving hot path must not allocate executor slots"
        );
    }

    /// `input -> qin -> ops...` on the `2^-4` grid, each node fed by the
    /// one before it.
    fn chain(ops: Vec<IntOp>) -> Vec<IntNode> {
        let qin = IntOp::QuantF32 {
            format: QFormat::new(4, 8, true),
        };
        [IntOp::Input, qin]
            .into_iter()
            .chain(ops)
            .enumerate()
            .map(|(id, op)| IntNode {
                name: format!("n{id}"),
                op,
                inputs: if id == 0 { vec![] } else { vec![id - 1] },
            })
            .collect()
    }

    /// Graphs whose dims do not fit their ops are refused with an error:
    /// never a panic in the planner, never an engine serving wrong sizes.
    #[test]
    fn shape_inconsistent_graphs_are_refused() {
        let dense = chain(vec![IntOp::Dense {
            w: vec![1; 8 * 2],
            in_dim: 8,
            out_dim: 2,
            bias: None,
            w_frac: 4,
        }]);
        let mut concat = chain(vec![
            IntOp::MaxPool {
                geom: Conv2dGeom::new(2, 2, 0),
            },
            IntOp::Concat,
        ]);
        concat[3].inputs = vec![2, 1];
        let conv = chain(vec![IntOp::Conv {
            w: vec![1; 4 * 3 * 3 * 3],
            wdims: [4, 3, 3, 3],
            bias: None,
            geom: Conv2dGeom::same(3),
            depthwise: false,
            w_frac: 4,
        }]);
        let zero_stride = chain(vec![IntOp::Conv {
            w: vec![1; 4 * 2 * 3 * 3],
            wdims: [4, 2, 3, 3],
            bias: None,
            geom: Conv2dGeom::new(3, 0, 1),
            depthwise: false,
            w_frac: 4,
        }]);
        let cases = [
            (dense, vec![1, 4]),
            (concat, vec![1, 2, 4, 4]),
            (conv, vec![1, 2, 8, 8]),
            (zero_stride, vec![1, 2, 8, 8]),
        ];
        for (nodes, dims) in cases {
            let out = nodes.len() - 1;
            let ig = IntGraph::from_parts(nodes, out);
            let built = std::panic::catch_unwind(|| Engine::build(ig, &dims));
            match built {
                Ok(Err(e)) => assert!(e.contains("TQT-V002"), "{e}"),
                Ok(Ok(_)) => panic!("engine built over a graph of dims {dims:?} that do not fit"),
                Err(_) => panic!("engine build panicked at dims {dims:?}"),
            }
        }
    }

    #[test]
    fn engine_exposes_only_ladder_plans() {
        let eng = engine();
        assert_eq!(eng.ladder(), &LADDER);
        for &r in &LADDER {
            assert!(eng.plan_for(r).is_some(), "rung {r} must be planned");
        }
        assert!(eng.plan_for(3).is_none());
        assert_eq!(eng.image_elems(), 3 * 32 * 32);
    }
}
