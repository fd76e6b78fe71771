//! Section 4.2's bit-accuracy claim: for every zoo model, quantize,
//! calibrate, lower to the integer engine, and verify the baked float
//! inference graph and the integer graph produce *identical* outputs on
//! fresh inputs.

use tqt_bench::{select_models, Args, Sink};
use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, QuantizeOptions, WeightBits};
use tqt_graph::transforms;
use tqt_models::INPUT_DIMS;
use tqt_tensor::init;

fn main() {
    let args = Args::parse();
    let models = select_models(&args);
    let mut sink = Sink::new("bitacc");
    sink.row_str(&["model", "mode", "samples", "max_abs_diff", "bit_accurate"]);
    let mut rng = init::rng(81);
    for model in models {
        for (label, bits) in [("INT8", WeightBits::Int8), ("INT4", WeightBits::Int4)] {
            let mut g = model.build(7);
            transforms::optimize(&mut g, &INPUT_DIMS);
            quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(bits));
            let calib = init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng);
            g.calibrate(&calib);
            let ig = lower(&mut g);
            let mut max_diff = 0.0f32;
            let samples = 4;
            for _ in 0..samples {
                let x = init::normal([2, 3, 32, 32], 0.0, 1.2, &mut rng);
                let yf = g.infer(&x);
                let yi = ig.run(&x).dequantize();
                max_diff = max_diff.max(yf.max_abs_diff(&yi));
            }
            let ok = max_diff == 0.0; // tqt:allow(float-eq): bit-exactness means exactly zero deviation
            sink.row(&[
                model.name().to_string(),
                label.to_string(),
                samples.to_string(),
                format!("{max_diff:e}"),
                ok.to_string(),
            ]);
            assert!(ok, "{model} {label}: float emulation and integer engine diverged");
        }
    }
    eprintln!("bitacc: all models bit-accurate between float emulation and integer engine");
}
