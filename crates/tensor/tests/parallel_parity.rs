//! Verifies the thread pool's bit-identity guarantee on the tensor
//! kernels that use it: on a fixed seed, the parallel path and the
//! serial path (`tqt_rt::pool::set_threads(1)`, the runtime twin of
//! `TQT_RT_THREADS=1`) must produce *bit-identical* outputs — not
//! merely close ones. This is what makes every experiment in the repo
//! reproducible regardless of core count.
//!
//! All kernels are exercised from a single `#[test]` because the thread
//! count is process-global state; splitting it across tests would race
//! with the parallel half of the comparison.

use tqt_rt::pool;
use tqt_tensor::conv::{
    conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward, Conv2dGeom,
};
use tqt_tensor::{init, matmul, matmul_nt, matmul_tn};

#[test]
fn parallel_kernels_bit_identical_to_serial() {
    // Force a multi-worker schedule even on single-core CI hosts: the
    // guarantee under test is thread-count *independence*, so exercise
    // it with more workers than the host may have.
    pool::set_threads(4);
    let mut rng = init::rng(0x5EED);
    // Large enough to cross every parallel dispatch threshold
    // (matmul: more rows than one GEMM row block; conv: any batch > 1).
    let a = init::normal([150, 96], 0.0, 1.0, &mut rng);
    let b = init::normal([96, 80], 0.0, 1.0, &mut rng);
    let bt = init::normal([80, 96], 0.0, 1.0, &mut rng);
    let at = init::normal([96, 150], 0.0, 1.0, &mut rng);

    let g = Conv2dGeom::same(3);
    let x = init::normal([8, 4, 12, 12], 0.0, 1.0, &mut rng);
    let w = init::normal([6, 4, 3, 3], 0.0, 0.5, &mut rng);
    let gy = init::normal([8, 6, 12, 12], 0.0, 1.0, &mut rng);
    let dw_w = init::normal([4, 1, 3, 3], 0.0, 0.5, &mut rng);
    let dw_gy = init::normal([8, 4, 12, 12], 0.0, 1.0, &mut rng);

    let run = || {
        let (cgx, cgw) = conv2d_backward(&x, &w, &gy, g);
        let (dgx, dgw) = depthwise_conv2d_backward(&x, &dw_w, &dw_gy, g);
        (
            matmul(&a, &b),
            matmul_nt(&a, &bt),
            matmul_tn(&at, &b),
            conv2d(&x, &w, g),
            depthwise_conv2d(&x, &dw_w, g),
            cgx,
            cgw,
            dgx,
            dgw,
        )
    };

    assert!(pool::threads() > 1, "test must start on the parallel path");
    let par = run();
    let prev = pool::threads();
    pool::set_threads(1);
    assert_eq!(pool::threads(), 1);
    let ser = run();
    pool::set_threads(prev);

    // Tensor equality is exact element-wise f32 equality — bit identity.
    assert_eq!(par.0, ser.0, "matmul differs");
    assert_eq!(par.1, ser.1, "matmul_nt differs");
    assert_eq!(par.2, ser.2, "matmul_tn differs");
    assert_eq!(par.3, ser.3, "conv2d differs");
    assert_eq!(par.4, ser.4, "depthwise_conv2d differs");
    assert_eq!(par.5, ser.5, "conv2d_backward grad_input differs");
    assert_eq!(par.6, ser.6, "conv2d_backward grad_weight differs");
    assert_eq!(par.7, ser.7, "depthwise backward grad_input differs");
    assert_eq!(par.8, ser.8, "depthwise backward grad_weight differs");

    // A different worker count must also give the same bytes.
    pool::set_threads(3);
    let three = run();
    pool::set_threads(0);
    assert_eq!(par.0, three.0, "matmul differs across thread counts");
    assert_eq!(par.5, three.5, "conv2d_backward differs across thread counts");
}

/// Determinism across repeated parallel runs (scheduling-independent):
/// running the same kernel twice on the parallel path is also exact.
#[test]
fn parallel_runs_are_self_deterministic() {
    let mut rng = init::rng(0xF00D);
    let a = init::normal([64, 96], 0.0, 1.0, &mut rng);
    let b = init::normal([96, 80], 0.0, 1.0, &mut rng);
    assert_eq!(matmul(&a, &b), matmul(&a, &b));
}
