//! Convolution bench: the implicit-GEMM `conv2d` forward and backward
//! (windows gathered straight into the blocked GEMM's panels) at the
//! layer shapes the zoo models hit on 32×32 inputs, plus a depthwise
//! layer for the MobileNet path. Establishes the persisted `BENCH_conv`
//! trajectory.

use tqt_rt::bench::{black_box, Bench, Report};
use tqt_tensor::conv::{conv2d, conv2d_backward, depthwise_conv2d, Conv2dGeom};
use tqt_tensor::init;

fn main() {
    let mut report = Report::from_args("conv");
    let bench = if report.smoke() {
        Bench::smoke()
    } else {
        Bench::with_samples(20)
    };

    // (label, n, c_in, hw, c_out, k, stride)
    let shapes: &[(&str, usize, usize, usize, usize, usize, usize)] = if report.smoke() {
        &[("tiny", 1, 4, 8, 4, 3, 1)]
    } else {
        &[
            // Early layer: few channels, large spatial extent.
            ("early_3x32x32", 4, 3, 32, 32, 3, 1),
            // Mid layer: the volume where most training time goes.
            ("mid_32x16x16", 4, 32, 16, 64, 3, 1),
            // Strided downsampling layer.
            ("down_64x16x16_s2", 4, 64, 16, 128, 3, 2),
            // ResNet8's first stage at the QAT batch: the layer whose
            // workspace sets the training step's footprint.
            ("resnet8_16x32x32_b32", 32, 16, 32, 16, 3, 1),
        ]
    };

    for &(label, n, c, hw, cout, k, stride) in shapes {
        let g = Conv2dGeom::new(k, stride, k / 2);
        let mut rng = init::rng(11);
        let x = init::normal([n, c, hw, hw], 0.0, 1.0, &mut rng);
        let w = init::normal([cout, c, k, k], 0.0, 0.1, &mut rng);
        let (oh, ow) = g.out_size(hw, hw);
        // Multiply-add count of the forward product.
        let flops = 2 * (n * cout * oh * ow * c * k * k) as u64;
        report.push(bench.run_with_throughput(&format!("conv2d/fwd/{label}"), flops, || {
            black_box(conv2d(black_box(&x), black_box(&w), g));
        }));
        let gy = init::normal([n, cout, oh, ow], 0.0, 1.0, &mut rng);
        // Backward does the weight-gradient and input-gradient products.
        report.push(bench.run_with_throughput(
            &format!("conv2d/bwd/{label}"),
            2 * flops,
            || {
                black_box(conv2d_backward(
                    black_box(&x),
                    black_box(&w),
                    black_box(&gy),
                    g,
                ));
            },
        ));
    }

    // Depthwise layer (direct loops, no im2col): included so regressions
    // in the non-GEMM conv path are visible in the same trajectory.
    {
        let (n, c, hw, k) = if report.smoke() {
            (1, 4, 8, 3)
        } else {
            (4, 64, 16, 3)
        };
        let g = Conv2dGeom::same(k);
        let mut rng = init::rng(12);
        let x = init::normal([n, c, hw, hw], 0.0, 1.0, &mut rng);
        let w = init::normal([c, 1, k, k], 0.0, 0.1, &mut rng);
        let flops = 2 * (n * c * hw * hw * k * k) as u64;
        report.push(bench.run_with_throughput(
            &format!("depthwise_conv2d/fwd/{c}x{hw}x{hw}"),
            flops,
            || {
                black_box(depthwise_conv2d(black_box(&x), black_box(&w), g));
            },
        ));
    }

    report.finish();
}
