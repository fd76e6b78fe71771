//! Property test for the pooled Adam: the fused arena update must be
//! bit-identical to the per-`Param` reference [`tqt_reference::Adam`]
//! across random shapes, multiple steps, optimizer groups, mid-run
//! freezing, and thread counts — the trainer's use of
//! [`tqt_nn::PooledAdam`] is only sound if parameter evolution does not
//! change by a single bit.

use tqt_nn::{Param, ParamArena, ParamKind, PooledAdam};
use tqt_reference::Adam;
use tqt_rt::pool;
use tqt_tensor::init;

/// Builds a mixed bag of parameters shaped like a small QAT model:
/// conv/dense weights, biases, batch-norm pairs, scalar thresholds.
/// Sizes straddle the pooled pass's 4096-element block boundary.
fn make_params(rng: &mut init::Rng) -> Vec<Param> {
    let spec: &[(&str, &[usize], ParamKind)] = &[
        ("conv1/weight", &[16, 3, 3, 3], ParamKind::Weight),
        ("conv1/bias", &[16], ParamKind::Bias),
        ("bn1/gamma", &[16], ParamKind::BatchNorm),
        ("bn1/beta", &[16], ParamKind::BatchNorm),
        ("conv2/weight", &[32, 16, 3, 3], ParamKind::Weight),
        ("fc/weight", &[10, 4099], ParamKind::Weight),
        ("fc/bias", &[10], ParamKind::Bias),
        ("conv1/act_log2_t", &[1], ParamKind::Threshold),
        ("conv1/wt_log2_t", &[1], ParamKind::Threshold),
        ("fc/act_log2_t", &[1], ParamKind::Threshold),
    ];
    spec.iter()
        .map(|&(name, dims, kind)| {
            Param::new(name, init::uniform(dims.to_vec(), -1.0, 1.0, rng), kind)
        })
        .collect()
}

/// Fills both copies of the parameter set with the same random gradients.
fn fill_grads(legacy: &mut [Param], arena: &mut ParamArena, rng: &mut init::Rng) {
    for (i, p) in legacy.iter_mut().enumerate() {
        let g = init::uniform(p.value.shape().clone(), -0.5, 0.5, rng);
        p.grad = g.clone();
        arena.grad_mut(i).copy_from_slice(g.data());
    }
}

const WEIGHT_KINDS: [ParamKind; 3] = [ParamKind::Weight, ParamKind::Bias, ParamKind::BatchNorm];

/// Runs `steps` optimizer steps on both paths and asserts bit-identical
/// values after every step. Freezes one weight and one threshold halfway
/// through to exercise the per-segment step-counter semantics.
fn run_parity(threads: usize, steps: usize, seed: u64) {
    pool::set_threads(threads);
    let mut rng = init::rng(seed);
    let mut legacy = make_params(&mut rng);
    let mut arena = ParamArena::from_params(&legacy.iter().collect::<Vec<_>>());

    let (wlr, tlr) = (1e-2, 1e-3);
    let mut wopt = Adam::paper(wlr);
    let mut topt = Adam::paper(tlr);
    let mut pooled_w = PooledAdam::paper(wlr, &arena);
    let mut pooled_t = PooledAdam::paper(tlr, &arena);

    for step in 0..steps {
        if step == steps / 2 {
            // Freeze a weight and a threshold mid-run: their moments and
            // step counters must stall identically on both paths.
            for (i, p) in legacy.iter_mut().enumerate() {
                if p.name == "conv2/weight" || p.name == "fc/act_log2_t" {
                    p.trainable = false;
                    arena.set_trainable(i, false);
                }
            }
        }
        // Mid-run learning-rate drop, as the staircase schedules do.
        if step == 2 * steps / 3 {
            wopt.set_lr(wlr * 0.1);
            pooled_w.set_lr(wlr * 0.1);
        }
        fill_grads(&mut legacy, &mut arena, &mut rng);

        // Partition into the trainer's two optimizer groups.
        let mut weights: Vec<&mut Param> = Vec::new();
        let mut thresholds: Vec<&mut Param> = Vec::new();
        for p in legacy.iter_mut() {
            if p.kind == ParamKind::Threshold {
                thresholds.push(p);
            } else {
                weights.push(p);
            }
        }
        wopt.step(&mut weights);
        topt.step(&mut thresholds);
        pooled_w.step(&mut arena, &WEIGHT_KINDS);
        pooled_t.step(&mut arena, &[ParamKind::Threshold]);

        for (i, p) in legacy.iter().enumerate() {
            let (lbits, abits): (Vec<u32>, Vec<u32>) = (
                p.value.data().iter().map(|v| v.to_bits()).collect(),
                arena.val(i).iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(
                lbits, abits,
                "step {step}, param {}: pooled Adam diverged from legacy ({threads} threads)",
                p.name
            );
        }
    }
    pool::set_threads(0);
}

#[test]
fn pooled_adam_matches_legacy_serial() {
    run_parity(1, 9, 1234);
}

#[test]
fn pooled_adam_matches_legacy_four_threads() {
    run_parity(4, 9, 1234);
}

#[test]
fn pooled_adam_thread_count_invariant() {
    // Same seed at 1 and 4 threads must land on the same bits; parity
    // with the (serial) legacy path at both counts already implies this,
    // but assert it directly against a 3-thread run for a third schedule.
    run_parity(3, 6, 99);
}
