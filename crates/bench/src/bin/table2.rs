//! Table 2: the threshold-initialization scheme, demonstrated concretely —
//! for one pre-trained network, the thresholds each scheme (MAX, 3SD,
//! percentile, KL-J) produces for a weight tensor and an activation
//! tensor, showing why the paper pairs MAX/3SD for weights with KL-J for
//! activations.

use tqt::experiment::ExpEnv;
use tqt_bench::{pct, Args, Sink};
use tqt_models::ModelKind;
use tqt_nn::ParamKind;
use tqt_quant::calib::{calibrate, ThresholdInit};
use tqt_quant::tqt::quantize;
use tqt_quant::QuantSpec;
use tqt_tensor::Tensor;

fn l2_err(t: &Tensor, thr: f32, spec: QuantSpec) -> f32 {
    let q = quantize(t, thr.log2(), spec);
    (q.data()
        .iter()
        .zip(t.data())
        .map(|(&a, &b)| ((a - b) as f64).powi(2))
        .sum::<f64>()
        / t.len() as f64) as f32
}

fn main() {
    let args = Args::parse();
    let scale: f32 = args.get_or("scale", 0.25);
    let mut env = ExpEnv::standard(tqt_bench::zoo_dir(), scale);
    env.pretrain_epochs = args.get_or("pretrain-epochs", 6);
    tqt_bench::guard_knob("scale", scale, 0.25);
    tqt_bench::guard_knob("pretrain-epochs", env.pretrain_epochs, 6);
    let model = ModelKind::DarkNet;
    let mut g = env.pretrained(model);

    // A representative weight tensor (first conv) and activation tensor
    // (its output on the calibration batch: a forward-only run with the
    // graph output pointed at conv1).
    let conv = g.find("conv1").expect("conv1 exists");
    g.set_output(conv);
    let act = g.infer(&env.calib);
    let w = {
        let node = g.node_mut(conv);
        tqt_graph::ir::op_params_mut(&mut node.op)
            .into_iter()
            .find(|p| p.kind == ParamKind::Weight)
            .unwrap()
            .value
            .clone()
    };

    let schemes = [
        ("MAX", ThresholdInit::Max),
        ("3SD", ThresholdInit::THREE_SD),
        ("P99.9", ThresholdInit::Percentile(99.9)),
        ("KL-J", ThresholdInit::KlJ),
    ];
    let mut sink = Sink::new("table2");
    sink.row_str(&[
        "tensor",
        "scheme",
        "raw_threshold",
        "coverage_pct",
        "mean_sq_quant_error",
    ]);
    for (label, tensor) in [("weights(conv1)", &w), ("activations(conv1)", &act)] {
        let amax = tensor.abs_max();
        for (name, scheme) in schemes {
            let thr = calibrate(tensor, scheme, QuantSpec::INT8);
            let covered = tensor
                .data()
                .iter()
                .filter(|v| v.abs() <= thr)
                .count() as f32
                / tensor.len() as f32;
            sink.row(&[
                label.to_string(),
                name.to_string(),
                format!("{thr:.4}"),
                pct(covered),
                format!("{:.3e}", l2_err(tensor, thr, QuantSpec::INT8)),
            ]);
        }
        eprintln!("table2: {label}: abs max = {amax:.4}");
    }
    eprintln!(
        "table2: the paper's scheme — Static: wt=MAX act=KL-J; Retrain wt: wt=MAX \
         act=KL-J; Retrain wt,th: wt=3SD act=KL-J"
    );
}
