//! Deployment path: from a quantized graph to integer-only execution.
//!
//! Shows what the power-of-2/symmetric/per-tensor constraints buy at
//! deployment time: every layer's requantization is a bare bit-shift
//! (eq. 16), no zero-point cross-terms (Appendix A.1) and no fixed-point
//! multipliers (Appendix A.2). Prints the lowered integer program and
//! per-op Q-formats, then verifies bit-accuracy on random inputs.
//!
//! Run with: `cargo run --example fixed_point_deploy --release`

use tqt_data::{calibration_batch, generate, SynthConfig};
use tqt_fixedpoint::lower::{IntOp, LEAKY_ALPHA_FRAC};
use tqt_fixedpoint::lower;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions};
use tqt_models::{ModelKind, INPUT_DIMS};

fn main() {
    // A DarkNet analogue exercises the leaky-ReLU fixed-point topology.
    let mut g = ModelKind::DarkNet.build(3);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    let data = generate(&SynthConfig::default(), 64);
    let calib = calibration_batch(&data, 50, 1);
    g.calibrate(&calib);

    let ig = lower::lower(&mut g);
    println!("lowered integer program ({} ops):", ig.nodes().len());
    for node in ig.nodes() {
        let desc = match &node.op {
            IntOp::Input => "float input".into(),
            IntOp::QuantF32 { format } => {
                format!("quantize f32 -> Q(frac={}, {}b)", format.frac, format.bits)
            }
            IntOp::Requant { format } => format!(
                "requant: shift-round to frac={} ({}b {})",
                format.frac,
                format.bits,
                if format.signed { "signed" } else { "unsigned" }
            ),
            IntOp::Conv { wdims, depthwise, w_frac, .. } => format!(
                "{} {}x{}x{}x{} (w_frac={w_frac}, acc=i64)",
                if *depthwise { "dwconv" } else { "conv" },
                wdims[0],
                wdims[1],
                wdims[2],
                wdims[3]
            ),
            IntOp::Dense { in_dim, out_dim, w_frac, .. } => {
                format!("dense {in_dim}->{out_dim} (w_frac={w_frac})")
            }
            IntOp::Relu { cap_q: Some(c) } => format!("relu6 (cap_q={c})"),
            IntOp::Relu { cap_q: None } => "relu".into(),
            IntOp::LeakyRelu { alpha_q } => {
                format!("leaky relu (alpha = {alpha_q}/2^{LEAKY_ALPHA_FRAC})")
            }
            IntOp::MaxPool { .. } => "maxpool".into(),
            IntOp::GlobalAvgPool => "global avg pool (exact shift)".into(),
            IntOp::Add => "eltwise add (merged scales)".into(),
            IntOp::Concat => "concat (merged scales, lossless)".into(),
            IntOp::Flatten => "flatten".into(),
            IntOp::Fused { epi, .. } => {
                format!("fused conv/dense + {}-step register epilogue", epi.len())
            }
        };
        println!("  {:<28} {desc}", node.name);
    }

    // Bit-accuracy check on fresh inputs.
    let x = calibration_batch(&data, 8, 2);
    let y_float = g.infer(&x);
    let y_int = ig.run(&x).dequantize();
    assert_eq!(y_float, y_int);
    println!(
        "\nbit-accuracy verified: max |float - int| = {} over {} logits",
        y_float.max_abs_diff(&y_int),
        y_float.len()
    );
}
