//! Trainer-vs-reference bit-identity. Full `train()` runs — Adam for
//! both parameter groups, staircase LR decay, batch-norm statistic
//! freezing, incremental threshold freezing, validation with
//! best-checkpoint restore — on the planned executor (training steps on
//! the training plan, validation on forward-only plans, pooled Adam over
//! the parameter arena) must produce bit-equal validation histories,
//! threshold traces, and final parameters to [`reference_train`], the
//! same schedule run here over the reference interpreter
//! (`Graph::forward`/`backward`) and the per-`Param` Adam, at 1 and 4
//! threads.

use tqt::trainer::{freeze_all_batchnorms, train};
use tqt::{TrainHyper, TrainResult, ValPoint};
use tqt_data::{eval_batches, train_val, BatchIter, Dataset, SynthConfig};
use tqt_graph::state::StateDict;
use tqt_graph::{quantize_graph, transforms, Graph, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::loss::{softmax_cross_entropy, topk_accuracy};
use tqt_nn::optim::Adam;
use tqt_nn::schedule::StaircaseDecay;
use tqt_nn::{Mode, Param, ParamKind};
use tqt_quant::freeze::FreezeController;
use tqt_rt::pool;

fn tiny_data() -> (Dataset, Dataset) {
    let cfg = SynthConfig {
        classes: 10,
        image_size: 16,
        noise: 0.1,
        seed: 5,
    };
    train_val(&cfg, 320, 100)
}

/// Builds the run's graph: FP32 DarkNet (keeps batch norms), optionally
/// taken through the optimize/quantize/calibrate pipeline the real
/// retraining flow uses. The reference run calibrates through the
/// reference interpreter's own pass.
fn build_graph(quantized: bool, reference: bool, val_d: &Dataset) -> Graph {
    let mut g = ModelKind::DarkNet.build(2);
    if quantized {
        let mut dims = INPUT_DIMS;
        dims[2] = 16;
        dims[3] = 16;
        transforms::optimize(&mut g, &dims);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let calib = tqt_data::calibration_batch(val_d, 50, 3);
        if reference {
            g.calibrate_reference(&calib);
        } else {
            g.calibrate(&calib);
        }
    }
    g
}

/// `(top1, top5, mean loss)` on the reference interpreter.
fn reference_evaluate(g: &mut Graph, data: &Dataset, batch: usize) -> (f32, f32, f32) {
    let (mut top1, mut top5, mut loss, mut n) = (0.0f64, 0.0f64, 0.0f64, 0usize);
    for (x, labels) in eval_batches(data, batch) {
        let logits = g.forward(&x, Mode::Eval);
        let (l, _) = softmax_cross_entropy(&logits, &labels);
        let (t1, t5) = topk_accuracy(&logits, &labels);
        let b = labels.len() as f64;
        top1 += t1 as f64 * b;
        top5 += t5 as f64 * b;
        loss += l as f64 * b;
        n += labels.len();
    }
    (
        (top1 / n as f64) as f32,
        (top5 / n as f64) as f32,
        (loss / n as f64) as f32,
    )
}

/// `train()`'s schedule over the reference interpreter and the
/// per-`Param` Adam: the same staircase decays, batch-norm and threshold
/// freezes, validation cadence and best-checkpoint restore.
fn reference_train(
    g: &mut Graph,
    train_data: &Dataset,
    val_data: &Dataset,
    hyper: &TrainHyper,
) -> TrainResult {
    let steps_per_epoch = (train_data.len() / hyper.batch) as u64;
    let weight_sched = StaircaseDecay::new(
        hyper.weight_lr,
        hyper.weight_decay,
        hyper.weight_decay_interval,
    );
    let thresh_sched = StaircaseDecay::new(
        hyper.threshold_lr,
        hyper.threshold_decay,
        hyper.threshold_decay_interval,
    );
    let mut weight_opt = Adam::paper(hyper.weight_lr);
    let mut thresh_opt = Adam::paper(hyper.threshold_lr);
    let trainable_tids: Vec<usize> = (0..g.thresholds().len())
        .filter(|&i| g.thresholds()[i].param.trainable)
        .collect();
    let mut freezer = FreezeController::new(
        trainable_tids.len(),
        hyper.freeze_start,
        hyper.freeze_interval,
        0.9,
    );
    let log2_ts = |g: &Graph| -> Vec<f32> {
        trainable_tids
            .iter()
            .map(|&i| g.thresholds()[i].log2_t())
            .collect()
    };
    let threshold_names = trainable_tids
        .iter()
        .map(|&i| g.thresholds()[i].param.name.clone())
        .collect();
    let threshold_init = log2_ts(g);
    let mut threshold_trace = Vec::new();
    let mut history: Vec<ValPoint> = Vec::new();
    let mut best: Option<(ValPoint, StateDict)> = None;
    let mut validate = |g: &mut Graph, step: u64, history: &mut Vec<ValPoint>| {
        let (top1, top5, loss) = reference_evaluate(g, val_data, hyper.batch);
        let point = ValPoint {
            step,
            epoch: step as f32 / steps_per_epoch as f32,
            loss,
            top1,
            top5,
        };
        history.push(point);
        if best.as_ref().is_none_or(|(b, _)| top1 > b.top1) {
            best = Some((point, g.state_dict()));
        }
    };

    let mut step = 0u64;
    for epoch in 0..hyper.epochs {
        for (x, labels) in BatchIter::new(train_data, hyper.batch, hyper.seed, epoch as u64) {
            if step == hyper.bn_freeze_after {
                freeze_all_batchnorms(g);
            }
            let logits = g.forward(&x, Mode::Train);
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
            g.zero_grads();
            g.backward(&dlogits);
            if !trainable_tids.is_empty() {
                let values = log2_ts(g);
                for (ci, &tid) in trainable_tids.iter().enumerate() {
                    let t = &g.thresholds()[tid];
                    freezer.observe(ci, t.log2_t(), t.param.grad.item());
                }
                if let Some(ci) = freezer.step(step, &values) {
                    g.thresholds_mut()[trainable_tids[ci]].param.trainable = false;
                }
                if threshold_trace.len() < TrainResult::TRACE_STEPS {
                    threshold_trace.push(values);
                }
            }
            weight_opt.set_lr(weight_sched.at(step));
            thresh_opt.set_lr(thresh_sched.at(step));
            let (mut thresholds, mut weights): (Vec<&mut Param>, Vec<&mut Param>) = g
                .params_mut()
                .into_iter()
                .partition(|p| p.kind == ParamKind::Threshold);
            weight_opt.step(&mut weights);
            thresh_opt.step(&mut thresholds);
            step += 1;
            if step.is_multiple_of(hyper.val_every) {
                validate(g, step, &mut history);
            }
        }
    }
    if history.last().is_none_or(|p| p.step != step) {
        validate(g, step, &mut history);
    }
    let (best_point, best_state) = best.expect("at least one validation ran");
    g.load_state_dict(&best_state);
    TrainResult {
        best: best_point,
        history,
        threshold_names,
        threshold_init,
        threshold_final: log2_ts(g),
        threshold_trace,
        steps_run: step,
    }
}

fn run(reference: bool, quantized: bool, threads: usize) -> (TrainResult, Graph) {
    pool::set_threads(threads);
    let (train_d, val_d) = tiny_data();
    let mut g = build_graph(quantized, reference, &val_d);
    let mut h = if quantized {
        let mut h = TrainHyper::retrain(10);
        h.freeze_start = 5;
        h
    } else {
        TrainHyper::pretrain(10)
    };
    h.epochs = 2;
    h.batch = 32;
    // Exercise the mid-run batch-norm statistic freeze on the FP32 run.
    if !quantized {
        h.bn_freeze_after = 10;
    }
    let r = if reference {
        reference_train(&mut g, &train_d, &val_d, &h)
    } else {
        train(&mut g, &train_d, &val_d, &h)
    };
    pool::set_threads(0);
    (r, g)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(quantized: bool, threads: usize) {
    let (rl, mut gl) = run(true, quantized, threads);
    let (rp, mut gp) = run(false, quantized, threads);
    let tag = if quantized { "quantized" } else { "fp32" };

    assert_eq!(rl.steps_run, rp.steps_run, "{tag}/{threads}t: step counts");
    assert_eq!(
        rl.history.len(),
        rp.history.len(),
        "{tag}/{threads}t: history lengths"
    );
    for (a, b) in rl.history.iter().zip(&rp.history) {
        assert_eq!(a.step, b.step, "{tag}/{threads}t: validation step");
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{tag}/{threads}t: validation loss at step {}",
            a.step
        );
        assert_eq!(
            (a.top1.to_bits(), a.top5.to_bits()),
            (b.top1.to_bits(), b.top5.to_bits()),
            "{tag}/{threads}t: accuracy at step {}",
            a.step
        );
    }
    assert_eq!(
        bits(&rl.threshold_final),
        bits(&rp.threshold_final),
        "{tag}/{threads}t: final thresholds"
    );
    for (i, (a, b)) in rl.threshold_trace.iter().zip(&rp.threshold_trace).enumerate() {
        assert_eq!(bits(a), bits(b), "{tag}/{threads}t: threshold trace row {i}");
    }
    // Best-checkpoint parameters, restored onto the graphs by train().
    let lp = gl.params_mut();
    let pp = gp.params_mut();
    assert_eq!(lp.len(), pp.len(), "{tag}/{threads}t: parameter counts");
    for (a, b) in lp.iter().zip(&pp) {
        assert_eq!(a.name, b.name, "{tag}/{threads}t: parameter order");
        assert_eq!(
            bits(a.value.data()),
            bits(b.value.data()),
            "{tag}/{threads}t: checkpoint value of {}",
            a.name
        );
    }
}

#[test]
fn planned_training_is_bit_identical_fp32_serial() {
    assert_identical(false, 1);
}

#[test]
fn planned_training_is_bit_identical_fp32_four_threads() {
    assert_identical(false, 4);
}

#[test]
fn planned_training_is_bit_identical_quantized_serial() {
    assert_identical(true, 1);
}

#[test]
fn planned_training_is_bit_identical_quantized_four_threads() {
    assert_identical(true, 4);
}
