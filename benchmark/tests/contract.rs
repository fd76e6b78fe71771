//! The benchmark against its declaration in `BENCHMARK.json`, and the
//! per-layer replay against an independent count of the work.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use tqt_benchmark::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use tqt_benchmark::replay::Replayer;
use tqt_benchmark::trace::Tracer;
use tqt_benchmark::workloads::DEFAULT_SECONDS;
use tqt_fixedpoint::lower::IntOp;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::json::Json;
use tqt_serve::Engine;
use tqt_tensor::init;

fn declaration() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(j: &Json, key: &str) -> Vec<(String, Option<String>)> {
    j.get(key)
        .and_then(Json::as_arr)
        .expect("declared list")
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).expect("name");
            let unit = e.get("unit").and_then(Json::as_str).map(str::to_string);
            (name.to_string(), unit)
        })
        .collect()
}

fn table(ms: &[Metric]) -> Vec<(String, Option<String>)> {
    ms.iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect()
}

#[test]
fn declaration_matches_the_binary() {
    let j = declaration();
    assert_eq!(names(&j, "end_to_end"), table(END_TO_END));
    assert_eq!(names(&j, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        j.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let bounds: Vec<(String, f64)> = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).expect("name");
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            (name.to_string(), bound)
        })
        .collect();
    let setup = bounds.iter().find(|b| b.0 == "setup_s").expect("setup_s").1;
    assert!(
        bounds.iter().all(|b| b.1 <= setup),
        "setup_s must carry the largest bound"
    );
}

/// The metric names of the result line of one reduced run.
fn emitted(workload: &str, trace: bool) -> BTreeSet<String> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract");
    let run = Command::new(env!("CARGO_BIN_EXE_tqt-benchmark"))
        .args(["--workload", workload, "--smoke", "--seed", "5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().expect("output");
    let result = Json::parse(last).expect("last line is the JSON result");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("reduced"), Some(&Json::Bool(true)));
    let file = format!("{workload}{}", if trace { ".trace.json" } else { ".json" });
    assert!(
        out.join("reduced").join(file).exists(),
        "a reduced run writes under reduced/"
    );
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .keys()
        .cloned()
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_and_nothing_else() {
    let j = declaration();
    let declared = |key| -> BTreeSet<String> { names(&j, key).into_iter().map(|n| n.0).collect() };
    for w in WORKLOADS {
        assert_eq!(emitted(w, false), declared("end_to_end"), "{w} untraced");
        assert_eq!(emitted(w, true), declared("per_layer"), "{w} traced");
    }
}

#[test]
fn replay_counts_the_executors_gemm_work() {
    let mut g = ModelKind::ResNet20.build(3);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
    let mut rng = init::rng(4);
    g.calibrate(&init::normal([4, 3, 32, 32], 0.0, 1.0, &mut rng));
    let eng = Engine::build(tqt_fixedpoint::lower(&mut g), &INPUT_DIMS).expect("proven");
    for rung in [1usize, 8] {
        let plan = eng.plan_for(rung).expect("ladder rung");
        // Independently: conv MACs from the weight dims and the planned
        // output plane, dense MACs from the layer's features.
        let (mut convs, mut denses, mut macs) = (0u64, 0u64, 0u64);
        for (id, node) in eng.graph().nodes().iter().enumerate() {
            let out = plan.shape(id);
            match &node.op {
                IntOp::Conv {
                    wdims,
                    depthwise: false,
                    ..
                } => {
                    convs += 1;
                    let per_pixel = wdims.iter().product::<usize>();
                    macs += (out[0] * per_pixel * out[2] * out[3]) as u64;
                }
                IntOp::Dense {
                    in_dim, out_dim, ..
                } => {
                    denses += 1;
                    macs += (out[0] * in_dim * out_dim) as u64;
                }
                _ => {}
            }
        }
        assert!(convs > 0 && denses > 0);
        let mut rp = Replayer::new(eng.graph(), plan, 9);
        rp.run_once(&mut Tracer::new(false));
        assert_eq!(rp.calls, convs * rung as u64 + denses, "rung {rung} calls");
        assert_eq!(rp.macs, macs, "rung {rung} MACs");
    }
}
