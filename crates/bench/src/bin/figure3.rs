//! Figure 3: TensorFlow FakeQuant transfer curves for signed data with
//! b = 3 and clipping thresholds n = -1.125, p = 0.875 (matching the
//! paper's example), showing that the clipped backward pass zeroes the
//! threshold gradients for all in-range inputs — thresholds can only grow.
//!
//! Columns: `x, q(x), dq_dmin, dq_dmax, dq_dx, dL_dmin, dL_dmax`.

use tqt_bench::Sink;
use tqt_quant::fakequant::FakeQuant;
use tqt_tensor::Tensor;

fn main() {
    let fq = FakeQuant::new(-1.125, 0.875, 3);
    let xs = Tensor::linspace(-2.0, 2.0, 801);
    let q = fq.quantize(&xs);
    let mut sink = Sink::new("figure3");
    sink.row_str(&["x", "q", "dq_dmin", "dq_dmax", "dq_dx", "dL_dmin", "dL_dmax"]);
    let (lo, hi) = fq.nudged_limits();
    for i in 0..xs.len() {
        let x = xs.data()[i];
        let qx = q.data()[i];
        // FakeQuant's clipped gradients at unit upstream gradient: min
        // gets 1 below lo, max gets 1 above hi; the input passes through
        // in between.
        let g = fq.backward(&Tensor::from_slice(&[x]), &Tensor::from_slice(&[1.0]));
        let (dmin, dmax, dx) = (g.dmin, g.dmax, g.dx.data()[0]);
        // Overall L2-loss gradients: zero for all in-range x — the defect
        // Section 3.5 identifies (compare Figure 1's inward pull).
        let dl_dmin = (qx - x) * dmin;
        let dl_dmax = (qx - x) * dmax;
        sink.row(&[
            format!("{x:.5}"),
            format!("{qx:.5}"),
            format!("{dmin:.1}"),
            format!("{dmax:.1}"),
            format!("{dx:.1}"),
            format!("{dl_dmin:.6}"),
            format!("{dl_dmax:.6}"),
        ]);
    }
    eprintln!("figure3: FakeQuant nudged limits = ({lo}, {hi}); in-range threshold gradients are identically zero");
}
