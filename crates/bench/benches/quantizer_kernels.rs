//! Bench for Figure 4: fused vs unfused quantization kernels, forward and
//! backward, across tensor sizes, plus the in-place weight STE the
//! trainer runs on every weight gradient. Runs on the in-repo
//! `tqt_rt::bench` harness (median/IQR over 20 samples) and writes the
//! persisted `BENCH_quant` trajectory with `--json`.

use tqt_quant::tqt::{quantize, quantize_backward, quantize_backward_inplace, quantize_unfused};
use tqt_quant::QuantSpec;
use tqt_rt::bench::{black_box, Bench, Report};
use tqt_tensor::init;

fn main() {
    let mut report = Report::from_args("quant");
    let (bench, sizes, bwd_sizes, weight_numel): (_, &[usize], &[usize], _) = if report.smoke() {
        (Bench::smoke(), &[1 << 10], &[1 << 10], 1 << 10)
    } else {
        (
            Bench::with_samples(20),
            &[1 << 12, 1 << 16, 1 << 20],
            &[1 << 16, 1 << 20],
            1 << 16,
        )
    };

    for &numel in sizes {
        let mut rng = init::rng(1);
        let x = init::normal([numel], 0.0, 1.0, &mut rng);
        report.push(bench.run_with_throughput(
            &format!("quantizer_forward/fused/{numel}"),
            numel as u64,
            || {
                black_box(quantize(black_box(&x), 0.3, QuantSpec::INT8));
            },
        ));
        report.push(bench.run_with_throughput(
            &format!("quantizer_forward/unfused/{numel}"),
            numel as u64,
            || {
                black_box(quantize_unfused(black_box(&x), 0.3, QuantSpec::INT8));
            },
        ));
    }

    for &numel in bwd_sizes {
        let mut rng = init::rng(2);
        let x = init::normal([numel], 0.0, 1.0, &mut rng);
        let gy = x.clone();
        report.push(bench.run_with_throughput(
            &format!("quantizer_backward/fused/{numel}"),
            numel as u64,
            || {
                black_box(quantize_backward(black_box(&x), 0.3, QuantSpec::INT8, &gy));
            },
        ));
    }

    // The weight STE: threshold gradient from the unmasked weight
    // gradient, then the mask applied in place. Every call reads, rounds
    // and writes every element whatever the buffer holds, so the buffer
    // is not refilled between calls.
    let mut rng = init::rng(3);
    let w = init::normal([weight_numel], 0.0, 0.1, &mut rng);
    let mut grad = init::normal([weight_numel], 0.0, 1.0, &mut rng)
        .data()
        .to_vec();
    report.push(bench.run_with_throughput(
        &format!("quantizer_backward/inplace/{weight_numel}"),
        weight_numel as u64,
        || {
            black_box(quantize_backward_inplace(
                black_box(w.data()),
                -2.0,
                QuantSpec::INT8,
                &mut grad,
            ));
        },
    ));

    report.finish();
}
