//! The four workloads: set-up, the timed closed loop with its output
//! checks, and the per-layer measurements of a traced run.
//!
//! | workload             | model        | load                                          |
//! |----------------------|--------------|-----------------------------------------------|
//! | `resnet20_b1`        | ResNet20     | 1 caller, rung-1 session, queue bypassed      |
//! | `resnet20_b8`        | ResNet20     | 1 caller, batches of 8 on the rung-8 session  |
//! | `mobilenet_v1_serve` | MobileNetV1  | `Engine::serve`, 1 worker, `nproc` ≤ 2 clients |
//! | `resnet8_qat`        | ResNet8      | planned QAT steps at batch 32                 |
//!
//! Every loop is closed: a caller sends its next request when the last
//! one returned. The model, its weights and its calibration batch are
//! fixed (they are the system under test); `--seed` generates the
//! requests' images and the training data.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tqt_data::{generate, BatchIter, SynthConfig};
use tqt_fixedpoint::{lower, IntExecutor, IntPlan};
use tqt_graph::{
    build_arena, quantize_graph, sync_thresholds_from_arena, sync_thresholds_to_arena, transforms,
    FloatExecutor, FloatPlan, Graph, QuantizeOptions, WeightBits,
};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::loss::softmax_cross_entropy;
use tqt_nn::{ParamArena, ParamKind, PooledAdam};
use tqt_rt::json::Json;
use tqt_rt::pool;
use tqt_rt::queue::scoped_threads;
use tqt_serve::{Engine, ServeReport};
use tqt_tensor::{init, Tensor};
use tqt_verify::{analyze, check_plan};

use crate::metrics::Results;
use crate::replay::{NodeTimes, Replayer};
use crate::stats::{beyond, highest_supported, mean, median, percentile, windowed_rate};
use crate::trace::{self_by_root, Tracer};

/// Run length when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;
/// Pool threads of every workload. With two, each conv GEMM waits for the
/// slower of two vCPUs; on a shared 2-vCPU host that made batch-1 latency
/// bimodal (27 ms or 55 ms) and its run-to-run median spread 20%, against
/// 3% on one thread. The serving bench in `crates/bench` also runs one
/// pool thread.
const POOL_THREADS: usize = 1;
/// Seed of the model weights and calibration batch.
const MODEL_SEED: u64 = 42;
/// Set-up repeats at least this often and this long per run; `setup_s`
/// is the median repetition.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Distinct request images per inference run.
const IMAGES: usize = 24;
/// Admission-queue flush deadline of the serving workload.
const MAX_WAIT: Duration = Duration::from_millis(1);
/// Closed-loop clients of the serving workload, capped at `nproc`.
const SERVE_CLIENTS: usize = 2;
/// QAT batch size and training-set size.
const QAT_BATCH: usize = 32;
const QAT_SAMPLES: usize = 128;
/// The per-layer replay repeats at least this often and this long.
const REPLAY_REPS: usize = 5;
const REPLAY_MIN_S: f64 = 3.0;
/// A tail percentile needs this many samples beyond it.
const MIN_BEYOND: usize = 10;
/// `throughput_per_s` is the median rate over this many consecutive
/// stretches of the timed phase (about one second each).
const RATE_WINDOWS: usize = 25;

/// Per-layer metrics only the serving workload exercises; the others
/// report them as 0.
const SERVE_ONLY: &[&str] = &[
    "serve.queue_wait_frac",
    "queue.batches",
    "queue.mean_batch",
    "queue.deadline_flush_frac",
    "queue.idle_dispatch_frac",
    "queue.max_depth",
    "serve.saturated",
    "serve.overflowed",
    "serve.steady_allocs",
];

/// Per-layer metrics only the QAT workload exercises.
const QAT_ONLY: &[&str] = &[
    "fexec.forward_frac",
    "nn.loss_frac",
    "fexec.backward_frac",
    "nn.adam_frac",
    "graph.sync_frac",
    "fexec.steady_slot_allocs",
];

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`crate::metrics::WORKLOADS`].
    pub workload: &'static str,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced run: one set-up, one replay repetition, few images.
    pub smoke: bool,
}

impl Config {
    fn setup_reps(&self) -> (usize, f64) {
        if self.smoke {
            (1, 0.0)
        } else {
            (SETUP_REPS, SETUP_MIN_S)
        }
    }

    fn images(&self) -> usize {
        if self.smoke {
            8
        } else {
            IMAGES
        }
    }
}

/// A finished run: its metrics plus the context written beside them.
pub struct Outcome {
    /// The declared metrics and the correctness verdict.
    pub results: Results,
    /// Sample counts, thread counts, queue counters and, for a traced
    /// run, the spans and the per-node table.
    pub detail: BTreeMap<String, Json>,
}

/// Which loop a workload drives.
enum Load {
    /// One caller on the engine's session at this rung.
    Session(usize),
    /// Clients through `Engine::serve`.
    Serve,
    /// Planned QAT steps.
    Qat,
}

/// Model and load of each workload.
fn spec(workload: &str) -> (ModelKind, Load) {
    match workload {
        "resnet20_b1" => (ModelKind::ResNet20, Load::Session(1)),
        "resnet20_b8" => (ModelKind::ResNet20, Load::Session(8)),
        "mobilenet_v1_serve" => (ModelKind::MobileNetV1, Load::Serve),
        "resnet8_qat" => (ModelKind::ResNet8, Load::Qat),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let (model, load) = spec(cfg.workload);
    let mut run = Run {
        cfg,
        tr: Tracer::new(cfg.trace),
        res: Results::new(cfg.trace),
        detail: BTreeMap::new(),
    };
    pool::set_threads(POOL_THREADS);
    run.note("threads", pool::threads() as f64);
    run.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    match load {
        Load::Session(rung) => run.session(model, rung),
        Load::Serve => run.serve(model),
        Load::Qat => run.qat(model),
    }
    if cfg.trace {
        run.detail.insert("spans".into(), run.tr.to_json());
        let mut selfs = BTreeMap::new();
        for (name, (count, ns)) in crate::trace::self_totals(run.tr.spans()) {
            let mut o = BTreeMap::new();
            o.insert("count".to_string(), Json::Num(count as f64));
            o.insert("self_ms".to_string(), Json::Num(ns as f64 / 1e6));
            selfs.insert(name.to_string(), Json::Obj(o));
        }
        run.detail.insert("self_time".into(), Json::Obj(selfs));
    }
    Outcome {
        results: run.res,
        detail: run.detail,
    }
}

/// Build → optimize → quantize (int8 weights and thresholds, retrained
/// mode) → calibrate.
fn prepare(kind: ModelKind) -> Graph {
    let mut g = kind.build(MODEL_SEED);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(MODEL_SEED + 500);
    g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
    g
}

/// The served engine: [`prepare`] → `lower` → `Engine::build`, which
/// proves every rung of the batch ladder. A refusal fails the run.
fn engine(kind: ModelKind, tr: &mut Tracer) -> Engine {
    let mut g = tr.span("graph.prepare", None, |_| prepare(kind));
    let ig = tr.span("fixedpoint.lower", None, |_| lower(&mut g));
    match tr.span("serve.engine_build", None, |_| {
        Engine::build(ig, &INPUT_DIMS)
    }) {
        Ok(e) => e,
        Err(msg) => panic!("{}: Engine::build refused the model\n{msg}", kind.name()),
    }
}

/// A planned QAT step over its own prepared graph (lowering bakes a
/// graph in place, so the engine's graph cannot be trained).
struct Trainer {
    g: Graph,
    arena: ParamArena,
    ex: FloatExecutor,
    weights: PooledAdam,
    thresholds: PooledAdam,
}

impl Trainer {
    fn new(kind: ModelKind, tr: &mut Tracer) -> Trainer {
        let mut g = tr.span("graph.prepare", None, |_| prepare(kind));
        let (arena, ex) = tr.span("graph.fplan_build", None, |_| {
            let arena = build_arena(&mut g);
            let plan = FloatPlan::new(&mut g, &[QAT_BATCH, 3, 32, 32]);
            (arena, FloatExecutor::new(plan, &g))
        });
        // The retraining learning rates of the paper's recipe.
        let weights = PooledAdam::paper(2e-4, &arena);
        let thresholds = PooledAdam::paper(1e-2, &arena);
        Trainer {
            g,
            arena,
            ex,
            weights,
            thresholds,
        }
    }

    /// One training step; returns the loss.
    fn step(&mut self, x: &Tensor, labels: &[usize], req: u64, tr: &mut Tracer) -> f32 {
        let req = Some(req);
        let Trainer {
            g,
            arena,
            ex,
            weights,
            thresholds,
        } = self;
        let logits = tr.span("fexec.forward", req, |_| ex.forward(g, arena, x));
        let (loss, dlogits) = tr.span("nn.loss", req, |_| softmax_cross_entropy(&logits, labels));
        tr.span("graph.sync", req, |_| {
            g.zero_grads();
            arena.zero_grads();
        });
        tr.span("fexec.backward", req, |_| ex.backward(g, arena, &dlogits));
        tr.span("nn.adam", req, |_| {
            weights.step(
                arena,
                &[ParamKind::Weight, ParamKind::Bias, ParamKind::BatchNorm],
            )
        });
        tr.span("graph.sync", req, |_| sync_thresholds_to_arena(g, arena));
        tr.span("nn.adam", req, |_| {
            thresholds.step(arena, &[ParamKind::Threshold])
        });
        tr.span("graph.sync", req, |_| sync_thresholds_from_arena(g, arena));
        loss
    }
}

/// Latencies, completion times and counts of one timed phase.
struct Samples {
    lat_ms: Vec<f64>,
    /// Ascending completion times, in seconds since the phase began.
    done_s: Vec<f64>,
    items_per_request: u64,
    failed: u64,
}

impl Samples {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.lat_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One caller's closed loop for `seconds`: `step` runs request `i` and
/// says whether its output was right.
fn closed_loop(
    seconds: f64,
    items_per_step: u64,
    tr: &mut Tracer,
    mut step: impl FnMut(u64, &mut Tracer) -> bool,
) -> Samples {
    let mut s = Samples {
        lat_ms: Vec::new(),
        done_s: Vec::new(),
        items_per_request: items_per_step,
        failed: 0,
    };
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        if !step(i, tr) {
            s.failed += 1;
        }
        s.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.done_s.push(t0.elapsed().as_secs_f64());
        i += 1;
    }
    s
}

/// `n` request images generated from `seed`.
fn images(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = init::rng(seed ^ 0x5EED_1A6E);
    (0..n)
        .map(|_| init::normal(INPUT_DIMS, 0.0, 1.0, &mut rng))
        .collect()
}

/// Rows `first..first + rung` (cyclically) of `images` as one batch.
fn batch(images: &[Tensor], first: usize, rung: usize) -> (Tensor, Vec<usize>) {
    let idx: Vec<usize> = (0..rung).map(|r| (first + r) % images.len()).collect();
    let data = idx
        .iter()
        .flat_map(|&j| images[j].data().iter().copied())
        .collect();
    (Tensor::from_vec([rung, 3, 32, 32], data), idx)
}

/// Each image's batch-1 logits, from an executor with a plan of its own.
fn expected(eng: &Engine, images: &[Tensor]) -> Vec<Vec<i64>> {
    let mut ex = IntExecutor::new(eng.graph(), &INPUT_DIMS);
    images.iter().map(|x| ex.run(x).data().to_vec()).collect()
}

/// Peak resident set size of this process (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    match kb {
        Some(kb) => kb / 1024.0,
        None => panic!("VmHWM is missing from /proc/self/status"),
    }
}

struct Run<'c> {
    cfg: &'c Config,
    tr: Tracer,
    res: Results,
    detail: BTreeMap<String, Json>,
}

impl Run<'_> {
    fn note(&mut self, key: &str, v: f64) {
        self.detail.insert(key.to_string(), Json::Num(v));
    }

    /// Runs `build` as often as [`Config::setup_reps`] asks, each time
    /// inside a `setup` span, and keeps the last result with every
    /// repetition's seconds.
    fn setup<T>(&mut self, mut build: impl FnMut(&mut Tracer) -> T) -> (T, Vec<f64>) {
        let (reps, min_s) = self.cfg.setup_reps();
        let mut kept = None;
        let mut secs: Vec<f64> = Vec::new();
        while secs.len() < reps || secs.iter().sum::<f64>() < min_s {
            // Free the previous copy first, so peak memory holds one.
            drop(kept.take());
            let t = Instant::now();
            kept = Some(self.tr.span("setup", None, &mut build));
            secs.push(t.elapsed().as_secs_f64());
        }
        // tqt:allow(expect): setup_reps() asks for at least one
        (kept.expect("at least one set-up"), secs)
    }

    /// Replays `Engine::build`'s per-rung proofs and plans through their
    /// public entry points, which the engine calls internally.
    fn replay_engine_build(&mut self, eng: &Engine) {
        for _ in 0..self.cfg.setup_reps().0 {
            self.tr.span("setup.replay", None, |tr| {
                for &rung in eng.ladder() {
                    let mut dims = INPUT_DIMS;
                    dims[0] = rung;
                    let g = eng.graph();
                    let iv = tr.span("verify.analyze", None, |_| analyze(g, &dims));
                    let plan = tr.span("fixedpoint.plan_build", None, |_| IntPlan::new(g, &dims));
                    let pr = tr.span("verify.check_plan", None, |_| check_plan(g, &plan));
                    assert!(
                        iv.proven() && pr.is_clean(),
                        "replayed rung-{rung} proofs failed"
                    );
                }
            });
        }
    }

    /// Runs the timed phase. An untraced run measures for the whole run;
    /// a traced run measures an untraced half, then a traced half, and
    /// records the tracing overhead between their medians.
    fn timed(&mut self, mut phase: impl FnMut(f64, &mut Tracer) -> Samples) -> Samples {
        let secs = self.cfg.seconds;
        let s = if self.cfg.trace {
            self.tr.set_on(false);
            let plain = phase(secs / 2.0, &mut self.tr);
            self.tr.set_on(true);
            let traced = phase(secs / 2.0, &mut self.tr);
            let p50 = |s: &Samples| percentile(&s.sorted(), 50.0);
            self.res
                .set("trace.overhead_frac", p50(&traced) / p50(&plain) - 1.0);
            self.res.attempted += plain.lat_ms.len() as u64;
            self.res.failed += plain.failed;
            traced
        } else {
            phase(secs, &mut self.tr)
        };
        self.res.attempted += s.lat_ms.len() as u64;
        self.res.failed += s.failed;
        s
    }

    /// The end-to-end metrics of an untraced run, plus the tail: the
    /// highest percentile with ten samples beyond it, reported beside the
    /// metrics but not bounded (it follows host contention, see README).
    fn report_end_to_end(&mut self, setup_secs: &[f64], s: &Samples) {
        let sorted = s.sorted();
        let n = sorted.len();
        self.res.set("setup_s", median(setup_secs));
        self.res.set("latency_p50_ms", percentile(&sorted, 50.0));
        self.res.set(
            "throughput_per_s",
            windowed_rate(&s.done_s, s.items_per_request as f64, RATE_WINDOWS),
        );
        self.res.set("peak_rss_mb", peak_rss_mb());
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        self.detail.insert("setup_reps_s".into(), nums(setup_secs));
        self.detail.insert("latency_ms".into(), nums(&s.lat_ms));
        self.note("samples", n as f64);
        let ladder = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
        if let Some(p) = highest_supported(n, &ladder, MIN_BEYOND) {
            self.note("tail_percentile", p);
            self.note("tail_ms", percentile(&sorted, p));
            self.note("beyond_tail", beyond(n, p) as f64);
        }
    }

    /// Set-up per-layer times: medians over the set-up repetitions.
    fn report_setup_layers(&mut self) {
        let setups = self_by_root(self.tr.spans(), "setup");
        let replays = self_by_root(self.tr.spans(), "setup.replay");
        let ms = |groups: &[BTreeMap<&str, u64>], name: &str| {
            let v: Vec<f64> = groups
                .iter()
                .map(|g| g.get(name).copied().unwrap_or(0) as f64 / 1e6)
                .collect();
            median(&v)
        };
        self.res
            .set("graph.prepare_ms", ms(&setups, "graph.prepare"));
        self.res
            .set("fixedpoint.lower_ms", ms(&setups, "fixedpoint.lower"));
        self.res
            .set("verify.analyze_ms", ms(&replays, "verify.analyze"));
        self.res.set(
            "fixedpoint.plan_build_ms",
            ms(&replays, "fixedpoint.plan_build"),
        );
        self.res
            .set("verify.check_plan_ms", ms(&replays, "verify.check_plan"));
        let fplan: Vec<f64> = setups
            .iter()
            .map(|g| {
                let total: u64 = g.values().sum();
                g.get("graph.fplan_build").copied().unwrap_or(0) as f64 / total as f64
            })
            .collect();
        self.res.set("graph.fplan_build_frac", median(&fplan));
    }

    /// The executor's layers, in interleaved repetitions so that a change
    /// of host speed moves every column alike. Each repetition runs
    /// `run_into` once, outside any serving scope, on the plans of the
    /// workload's `rung`, of rungs 1 and 2 and of the rungs in `also`,
    /// then replays the GEMM, im2col and i8 calls of every conv and dense
    /// node at `rung`. Returns each timed rung's median `run_into` ms.
    fn report_executor_layers(
        &mut self,
        eng: &Engine,
        images: &[Tensor],
        rung: usize,
        also: &[usize],
    ) -> Vec<(usize, f64)> {
        let mut sessions: Vec<_> = eng
            .ladder()
            .iter()
            .filter(|&&r| r == rung || r <= 2 || also.contains(&r))
            .map(|&r| {
                // tqt:allow(expect): iterating the engine's own ladder
                let plan = eng.plan_for(r).expect("ladder rung");
                let mut ex = IntExecutor::with_plan(eng.graph(), plan);
                let (x, _) = batch(images, 0, r);
                let mut out = Vec::new();
                ex.run_into(&x, &mut out);
                let allocs = ex.slot_allocs();
                (r, ex, x, out, allocs, Vec::new())
            })
            .collect();
        let at = sessions.iter().position(|s| s.0 == rung);
        // tqt:allow(expect): every workload's rung is on the ladder
        let (at, plan) = at.zip(eng.plan_for(rung)).expect("rung is on the ladder");
        let mut replayer = Replayer::new(eng.graph(), plan, self.cfg.seed);
        let (reps, min_s) = if self.cfg.smoke {
            (1, 0.0)
        } else {
            (REPLAY_REPS, REPLAY_MIN_S)
        };
        let mut per_rep: Vec<(NodeTimes, f64)> = Vec::new();
        let t0 = Instant::now();
        let tr = &mut self.tr;
        while per_rep.len() < reps || t0.elapsed().as_secs_f64() < min_s {
            for (r, ex, x, out, _, ms) in &mut sessions {
                let t = Instant::now();
                tr.span("fixedpoint.run_into", Some(*r as u64), |_| {
                    ex.run_into(x, out)
                });
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let run_ms = *sessions[at].5.last().unwrap_or(&0.0);
            per_rep.push((tr.span("replay", None, |tr| replayer.run_once(tr)), run_ms));
        }
        let steady: u64 = sessions.iter().map(|s| s.1.slot_allocs() - s.4).sum();
        let service: Vec<(usize, f64)> = sessions.iter().map(|s| (s.0, median(&s.5))).collect();
        let med = |f: fn(&NodeTimes, f64) -> f64| {
            median(
                &per_rep
                    .iter()
                    .map(|(t, run)| f(t, *run))
                    .collect::<Vec<_>>(),
            )
        };
        let gemm_ms = med(|t, _| t.i64_ns / 1e6);
        let i8_ms = med(|t, _| t.i8_ns / 1e6);
        let gmac_s = |ms: f64| replayer.macs as f64 / (ms * 1e6);
        self.res.set("fixedpoint.run_ms", service[at].1);
        self.res.set("intgemm.ms", gemm_ms);
        self.res.set("intgemm.calls", replayer.calls as f64);
        self.res.set("intgemm.macs", replayer.macs as f64);
        self.res.set("intgemm.gmac_s", gmac_s(gemm_ms));
        self.res
            .set("intgemm.batched_ms", med(|t, _| t.batched_ns / 1e6));
        self.res
            .set("tensor.im2col_ms", med(|t, _| t.im2col_ns / 1e6));
        self.res.set("gemm_i8.ms", i8_ms);
        self.res.set("gemm_i8.gmac_s", gmac_s(i8_ms));
        self.res.set(
            "fixedpoint.other_ms",
            med(|t, run| run - (t.i64_ns + t.im2col_ns) / 1e6),
        );
        self.res
            .set("plan.slot_bytes", (plan.total_buffer_elems() * 8) as f64);
        self.res.set(
            "plan.weight_arena_bytes",
            (plan.weight_arena_elems() * 8) as f64,
        );
        self.res
            .set("plan.scratch_bytes", (plan.scratch_elems() * 8) as f64);
        self.res.set("plan.steady_slot_allocs", steady as f64);
        self.res.require_zero("plan.steady_slot_allocs", steady);
        for (r, name) in [(1, "serve.service_ms.r1"), (2, "serve.service_ms.r2")] {
            let ms = service.iter().find(|s| s.0 == r).map_or(0.0, |s| s.1);
            self.res.set(name, ms);
        }
        self.note("executor_rung", rung as f64);
        self.note("replay_reps", per_rep.len() as f64);
        self.detail.insert("nodes".into(), replayer.to_json());
        service
    }

    fn zero(&mut self, names: &[&'static str]) {
        for &n in names {
            self.res.set(n, 0.0);
        }
    }

    /// `resnet20_b1` and `resnet20_b8`: one caller on the rung's session.
    fn session(&mut self, model: ModelKind, rung: usize) {
        let (eng, setup_secs) = self.setup(|tr| engine(model, tr));
        if self.cfg.trace {
            self.replay_engine_build(&eng);
        }
        let images = images(self.cfg.seed, self.cfg.images());
        let expected = expected(&eng, &images);
        let batches: Vec<(Tensor, Vec<usize>)> = (0..images.len() / rung)
            .map(|b| batch(&images, b * rung, rung))
            .collect();
        // tqt:allow(expect): the workload's rung is on the ladder
        let plan = eng.plan_for(rung).expect("rung is on the ladder");
        let mut ex = IntExecutor::with_plan(eng.graph(), plan);
        let mut out = Vec::new();
        for (x, _) in batches.iter().take(2) {
            ex.run_into(x, &mut out);
        }
        let allocs = ex.slot_allocs();
        let per = expected[0].len();
        let s = self.timed(|secs, tr| {
            closed_loop(secs, rung as u64, tr, |i, tr| {
                let (x, idx) = &batches[i as usize % batches.len()];
                tr.span("fixedpoint.run_into", Some(i), |_| ex.run_into(x, &mut out));
                idx.iter()
                    .enumerate()
                    .all(|(row, &j)| out[row * per..(row + 1) * per] == expected[j][..])
            })
        });
        self.res
            .require_zero("session steady slot allocs", ex.slot_allocs() - allocs);
        if self.cfg.trace {
            self.report_setup_layers();
            self.report_executor_layers(&eng, &images, rung, &[]);
            self.zero(SERVE_ONLY);
            self.zero(QAT_ONLY);
        } else {
            self.report_end_to_end(&setup_secs, &s);
        }
    }

    /// `mobilenet_v1_serve`: closed-loop clients through `Engine::serve`.
    fn serve(&mut self, model: ModelKind) {
        let (eng, setup_secs) = self.setup(|tr| engine(model, tr));
        if self.cfg.trace {
            self.replay_engine_build(&eng);
        }
        let images = images(self.cfg.seed, self.cfg.images());
        let expected = expected(&eng, &images);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let clients = SERVE_CLIENTS.min(nproc);
        self.note("clients", clients as f64);
        // Warm-up scope: worker sessions, pool threads, allocator.
        serve_phase(&eng, &images, &expected, 0.3, clients, &Tracer::new(false));
        let mut last: Option<ServeReport> = None;
        let s = self.timed(|secs, tr| {
            let (s, report, tracers) = serve_phase(&eng, &images, &expected, secs, clients, tr);
            for t in tracers {
                tr.absorb(t);
            }
            last = Some(report);
            s
        });
        // tqt:allow(expect): timed() runs at least one phase
        let report = last.expect("a serving phase ran");
        let q = &report.queue;
        let lost = q.submitted.abs_diff(q.dispatched_requests);
        self.res.require_zero("requests lost by the queue", lost);
        self.res.require_zero("serve.overflowed", report.overflowed);
        self.res
            .require_zero("serve.steady_allocs", report.steady_state_allocs);
        self.detail.insert(
            "rung_dispatches".into(),
            Json::Arr(
                q.rung_dispatches
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        );
        if !self.cfg.trace {
            self.report_end_to_end(&setup_secs, &s);
            return;
        }
        self.report_setup_layers();
        let dispatched: Vec<(usize, u64)> = eng
            .ladder()
            .iter()
            .copied()
            .zip(q.rung_dispatches.iter().copied())
            .filter(|&(_, d)| d > 0)
            .collect();
        let used: Vec<usize> = dispatched.iter().map(|d| d.0).collect();
        let service = self.report_executor_layers(&eng, &images, 1, &used);
        // Mean service time per request, weighting each rung by the
        // requests it carried.
        let (mut weighted, mut requests) = (0.0, 0.0);
        for (rung, dispatches) in dispatched {
            let ms = service.iter().find(|s| s.0 == rung).map_or(0.0, |s| s.1);
            weighted += dispatches as f64 * rung as f64 * ms;
            requests += dispatches as f64 * rung as f64;
        }
        let lat = mean(&s.lat_ms);
        let batches = q.dispatched_batches.max(1) as f64;
        self.res.set(
            "serve.queue_wait_frac",
            (lat - weighted / requests.max(1.0)) / lat,
        );
        self.res.set("queue.batches", q.dispatched_batches as f64);
        self.res
            .set("queue.mean_batch", q.dispatched_requests as f64 / batches);
        self.res.set(
            "queue.deadline_flush_frac",
            q.deadline_flushes as f64 / batches,
        );
        self.res.set(
            "queue.idle_dispatch_frac",
            q.idle_dispatches as f64 / batches,
        );
        self.res.set("queue.max_depth", q.max_depth as f64);
        self.res.set("serve.saturated", report.saturated as f64);
        self.res.set("serve.overflowed", report.overflowed as f64);
        self.res
            .set("serve.steady_allocs", report.steady_state_allocs as f64);
        self.zero(QAT_ONLY);
    }

    /// `resnet8_qat`: planned QAT steps on generated training data.
    fn qat(&mut self, model: ModelKind) {
        let ((eng, mut trainer), setup_secs) =
            self.setup(|tr| (engine(model, tr), Trainer::new(model, tr)));
        if self.cfg.trace {
            self.replay_engine_build(&eng);
        }
        let data = generate(
            &SynthConfig {
                seed: self.cfg.seed,
                ..SynthConfig::default()
            },
            QAT_SAMPLES,
        );
        let batches: Vec<(Tensor, Vec<usize>)> =
            BatchIter::new(&data, QAT_BATCH, self.cfg.seed, 0).collect();
        // The first step sizes the executor's slot buffers.
        let mut off = Tracer::new(false);
        trainer.step(&batches[0].0, &batches[0].1, 0, &mut off);
        let allocs = trainer.ex.slot_allocs();
        let s = self.timed(|secs, tr| {
            closed_loop(secs, QAT_BATCH as u64, tr, |i, tr| {
                let (x, labels) = &batches[i as usize % batches.len()];
                tr.span("qat.step", Some(i), |tr| trainer.step(x, labels, i, tr))
                    .is_finite()
            })
        });
        let steady = trainer.ex.slot_allocs() - allocs;
        self.res.require_zero("fexec.steady_slot_allocs", steady);
        if !self.cfg.trace {
            self.report_end_to_end(&setup_secs, &s);
            return;
        }
        self.report_setup_layers();
        // The deployment side of the trained model: its engine's rung-1
        // executor, on generated images.
        let images = images(self.cfg.seed, self.cfg.images());
        self.report_executor_layers(&eng, &images, 1, &[]);
        self.zero(SERVE_ONLY);
        let steps = self_by_root(self.tr.spans(), "qat.step");
        let total = median(
            &steps
                .iter()
                .map(|g| g.values().sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        );
        for (metric, span) in [
            ("fexec.forward_frac", "fexec.forward"),
            ("nn.loss_frac", "nn.loss"),
            ("fexec.backward_frac", "fexec.backward"),
            ("nn.adam_frac", "nn.adam"),
            ("graph.sync_frac", "graph.sync"),
        ] {
            let v: Vec<f64> = steps
                .iter()
                .map(|g| g.get(span).copied().unwrap_or(0) as f64)
                .collect();
            self.res.set(metric, median(&v) / total);
        }
        self.res.set("fexec.steady_slot_allocs", steady as f64);
    }
}

/// One closed-loop serving scope of `seconds`: `clients` threads, each
/// with one request in flight. Returns the pooled client latencies, the
/// engine's report and each client's spans.
fn serve_phase(
    eng: &Engine,
    images: &[Tensor],
    expected: &[Vec<i64>],
    seconds: f64,
    clients: usize,
    tr: &Tracer,
) -> (Samples, ServeReport, Vec<Tracer>) {
    let (per_client, report) = eng.serve(1, MAX_WAIT, |client| {
        let start = Instant::now();
        let (per_client, ()) = scoped_threads(
            clients,
            |c| {
                let mut t = tr.fork(c + 1);
                let (mut lat_ms, mut done_s) = (Vec::new(), Vec::new());
                let mut failed = 0u64;
                let mut k = 0usize;
                while start.elapsed().as_secs_f64() < seconds {
                    let req = c + k * clients;
                    let j = req % images.len();
                    let t_req = Instant::now();
                    let reply = t.span("serve.infer", Some(req as u64), |_| {
                        client.infer(images[j].data())
                    });
                    lat_ms.push(t_req.elapsed().as_secs_f64() * 1e3);
                    done_s.push(start.elapsed().as_secs_f64());
                    if reply.logits != expected[j] {
                        failed += 1;
                    }
                    k += 1;
                }
                (lat_ms, done_s, failed, t)
            },
            || {},
        );
        per_client
    });
    let mut s = Samples {
        lat_ms: Vec::new(),
        done_s: Vec::new(),
        items_per_request: 1,
        failed: 0,
    };
    let mut tracers = Vec::new();
    for (lat, done, failed, t) in per_client {
        s.lat_ms.extend(lat);
        s.done_s.extend(done);
        s.failed += failed;
        tracers.push(t);
    }
    s.done_s.sort_by(f64::total_cmp);
    (s, report, tracers)
}
