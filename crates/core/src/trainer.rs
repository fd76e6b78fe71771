//! The training loop: joint weight + threshold optimization with the
//! paper's scheme (Adam for both groups, staircase LR decay, batch-norm
//! statistic freezing, incremental threshold freezing, periodic validation
//! with best-checkpoint selection).

use crate::config::TrainHyper;
use tqt_data::{eval_batches, BatchIter, Dataset};
use tqt_graph::state::StateDict;
use tqt_graph::{
    build_arena, flush_arena, sync_thresholds_from_arena, sync_thresholds_to_arena, FloatExecutor,
    FloatPlan, Graph, Op,
};
use tqt_nn::loss::{softmax_cross_entropy, topk_accuracy};
use tqt_nn::schedule::StaircaseDecay;
use tqt_nn::{ParamArena, ParamKind, PooledAdam};
use tqt_quant::freeze::FreezeController;

/// Execution and optimizer state for one training run: the training
/// step compiled once onto the slot-reuse executor, every parameter in a
/// contiguous arena updated by the pooled Adam, and the forward-only
/// executors validation runs on, reading the same arena.
struct Engine {
    arena: ParamArena,
    ex: FloatExecutor,
    weight_opt: PooledAdam,
    thresh_opt: PooledAdam,
    val: Validator,
}

impl Engine {
    /// Builds the engine for a fixed batch shape (`BatchIter` yields full
    /// batches only, so `dims` holds for every training step of the run).
    fn build(g: &mut Graph, hyper: &TrainHyper, dims: &[usize]) -> Engine {
        let arena = build_arena(g);
        let plan = FloatPlan::new(g, dims);
        Engine {
            ex: FloatExecutor::new(plan, g),
            weight_opt: PooledAdam::paper(hyper.weight_lr, &arena),
            thresh_opt: PooledAdam::paper(hyper.threshold_lr, &arena),
            val: Validator::default(),
            arena,
        }
    }
}

/// Forward-only executors for evaluation, one per batch shape (the last
/// evaluation batch may be short), each built on first use.
#[derive(Default)]
struct Validator {
    exs: Vec<FloatExecutor>,
}

impl Validator {
    /// `(top1, top5, mean loss)` of `g` with layer parameters from
    /// `arena` over `data`.
    fn run(
        &mut self,
        g: &mut Graph,
        arena: &ParamArena,
        data: &Dataset,
        batch: usize,
    ) -> (f32, f32, f32) {
        let mut top1 = 0.0f64;
        let mut top5 = 0.0f64;
        let mut loss = 0.0f64;
        let mut n = 0usize;
        for (x, labels) in eval_batches(data, batch) {
            let i = match self
                .exs
                .iter()
                .position(|e| e.plan().input_dims() == x.dims())
            {
                Some(i) => i,
                None => {
                    let plan = FloatPlan::forward_only(g, x.dims());
                    self.exs.push(FloatExecutor::new(plan, g));
                    self.exs.len() - 1
                }
            };
            let logits = self.exs[i].forward(g, arena, &x);
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
}

/// A validation measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValPoint {
    /// Global training step.
    pub step: u64,
    /// Fractional epoch.
    pub epoch: f32,
    /// Validation loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Top-5 accuracy in `[0, 1]`.
    pub top5: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The best validation point (the checkpoint the graph was restored
    /// to).
    pub best: ValPoint,
    /// Every validation point in order.
    pub history: Vec<ValPoint>,
    /// Names of the trainable thresholds, aligned with the trace vectors.
    pub threshold_names: Vec<String>,
    /// `log2 t` at the start of training.
    pub threshold_init: Vec<f32>,
    /// `log2 t` at the end of training (best checkpoint).
    pub threshold_final: Vec<f32>,
    /// Per-step threshold values for the first
    /// [`TRACE_STEPS`](Self::TRACE_STEPS) steps (Figure 6's left panels).
    pub threshold_trace: Vec<Vec<f32>>,
    /// Total optimization steps run.
    pub steps_run: u64,
}

impl TrainResult {
    /// Number of leading steps for which threshold values are traced.
    pub const TRACE_STEPS: usize = 100;

    /// Threshold deviations `d = ceil(log2 t_final) - ceil(log2 t_init)`
    /// (the paper's Figures 5/6 metric).
    pub fn threshold_deviations(&self) -> Vec<i32> {
        self.threshold_init
            .iter()
            .zip(&self.threshold_final)
            .map(|(&a, &b)| b.ceil() as i32 - a.ceil() as i32)
            .collect()
    }
}

/// Evaluates a graph on a dataset: `(top1, top5, mean loss)`, on
/// forward-only plans of the planned executor.
pub fn evaluate(g: &mut Graph, data: &Dataset, batch: usize) -> (f32, f32, f32) {
    let arena = build_arena(g);
    Validator::default().run(g, &arena, data, batch)
}

/// Freezes the moving statistics of every batch norm in the graph.
pub fn freeze_all_batchnorms(g: &mut Graph) {
    for id in 0..g.len() {
        if let Op::BatchNorm(bn) = &mut g.node_mut(id).op {
            bn.freeze_stats();
        }
    }
}

/// Validation history and the best checkpoint so far.
#[derive(Default)]
struct Checkpoints {
    history: Vec<ValPoint>,
    best: Option<(ValPoint, StateDict)>,
}

impl Checkpoints {
    /// Validates at `step` on the run's own arena and records the point;
    /// a new best flushes the arena onto the graph and snapshots it.
    fn validate(
        &mut self,
        g: &mut Graph,
        eng: &mut Engine,
        data: &Dataset,
        batch: usize,
        step: u64,
        epoch: f32,
    ) {
        let (top1, top5, loss) = eng.val.run(g, &eng.arena, data, batch);
        let point = ValPoint {
            step,
            epoch,
            loss,
            top1,
            top5,
        };
        self.history.push(point);
        if self
            .best
            .as_ref()
            .map(|(b, _)| top1 > b.top1)
            .unwrap_or(true)
        {
            flush_arena(g, &eng.arena);
            self.best = Some((point, g.state_dict()));
        }
    }
}

/// Trains a graph (FP32 or quantized) with the paper's two-group scheme
/// and returns the best-checkpoint result. The graph is left loaded with
/// the best checkpoint.
///
/// # Panics
///
/// Panics if the dataset is smaller than one batch or `hyper.epochs == 0`.
pub fn train(
    g: &mut Graph,
    train_data: &Dataset,
    val_data: &Dataset,
    hyper: &TrainHyper,
) -> TrainResult {
    assert!(hyper.epochs > 0, "training requires at least one epoch");
    let steps_per_epoch = (train_data.len() / hyper.batch) as u64;
    assert!(steps_per_epoch > 0, "dataset smaller than one batch");

    let mut dims = train_data.images.dims().to_vec();
    dims[0] = hyper.batch;
    let mut eng = Engine::build(g, hyper, &dims);
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

    // Trainable-threshold bookkeeping for the freeze controller.
    let trainable_tids: Vec<usize> = g
        .thresholds()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.param.trainable)
        .map(|(i, _)| i)
        .collect();
    let mut freezer = FreezeController::new(
        trainable_tids.len(),
        hyper.freeze_start,
        hyper.freeze_interval,
        0.9,
    );
    let threshold_names: Vec<String> = trainable_tids
        .iter()
        .map(|&i| g.thresholds()[i].param.name.clone())
        .collect();
    let threshold_init: Vec<f32> = trainable_tids
        .iter()
        .map(|&i| g.thresholds()[i].log2_t())
        .collect();
    let mut threshold_trace: Vec<Vec<f32>> = Vec::new();

    let mut ck = Checkpoints::default();
    let mut step: u64 = 0;
    let mut bn_frozen = false;

    for epoch in 0..hyper.epochs {
        for (x, labels) in BatchIter::new(train_data, hyper.batch, hyper.seed, epoch as u64) {
            if !bn_frozen && step >= hyper.bn_freeze_after {
                freeze_all_batchnorms(g);
                bn_frozen = true;
            }
            let logits = eng.ex.forward(g, &eng.arena, &x);
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
            g.zero_grads();
            eng.arena.zero_grads();
            eng.ex.backward(g, &mut eng.arena, &dlogits);

            // Threshold freezing: observe values/gradients, then allow at
            // most one freeze per interval.
            if !trainable_tids.is_empty() {
                let values: Vec<f32> = trainable_tids
                    .iter()
                    .map(|&i| g.thresholds()[i].log2_t())
                    .collect();
                for (ci, &tid) in trainable_tids.iter().enumerate() {
                    let t = &g.thresholds()[tid];
                    freezer.observe(ci, t.log2_t(), t.param.grad.item());
                }
                if let Some(ci) = freezer.step(step, &values) {
                    let tid = trainable_tids[ci];
                    g.thresholds_mut()[tid].param.trainable = false;
                }
                if threshold_trace.len() < TrainResult::TRACE_STEPS {
                    threshold_trace.push(values);
                }
            }

            eng.weight_opt.set_lr(weight_sched.at(step));
            eng.thresh_opt.set_lr(thresh_sched.at(step));
            eng.weight_opt.step(
                &mut eng.arena,
                &[ParamKind::Weight, ParamKind::Bias, ParamKind::BatchNorm],
            );
            // Thresholds are authoritative on the graph (the freezer and
            // calibration mutate it): push the values/gradients/flags in,
            // step, pull the updated values back out.
            sync_thresholds_to_arena(g, &mut eng.arena);
            eng.thresh_opt.step(&mut eng.arena, &[ParamKind::Threshold]);
            sync_thresholds_from_arena(g, &eng.arena);
            step += 1;

            if step.is_multiple_of(hyper.val_every) {
                let epoch = step as f32 / steps_per_epoch as f32;
                ck.validate(g, &mut eng, val_data, hyper.batch, step, epoch);
            }
        }
    }
    // Final validation in case val_every did not divide the step count.
    if ck.history.last().map(|p| p.step != step).unwrap_or(true) {
        let epoch = step as f32 / steps_per_epoch as f32;
        ck.validate(g, &mut eng, val_data, hyper.batch, step, epoch);
    }

    let (best_point, best_state) = ck.best.expect("at least one validation ran");
    g.load_state_dict(&best_state);
    let threshold_final: Vec<f32> = trainable_tids
        .iter()
        .map(|&i| g.thresholds()[i].log2_t())
        .collect();
    TrainResult {
        best: best_point,
        history: ck.history,
        threshold_names,
        threshold_init,
        threshold_final,
        threshold_trace,
        steps_run: step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_data::{train_val, SynthConfig};
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
    use tqt_models::{ModelKind, INPUT_DIMS};

    fn tiny_data() -> (Dataset, Dataset) {
        let cfg = SynthConfig {
            classes: 10,
            image_size: 16,
            noise: 0.1,
            seed: 5,
        };
        train_val(&cfg, 320, 100)
    }

    #[test]
    fn fp32_training_learns() {
        let (train_d, val_d) = tiny_data();
        let mut g = ModelKind::DarkNet.build(1);
        let mut hyper = TrainHyper::pretrain(10);
        hyper.epochs = 4;
        hyper.batch = 32;
        let result = train(&mut g, &train_d, &val_d, &hyper);
        assert!(
            result.best.top1 > 0.4,
            "FP32 training should beat 10% chance easily, got {}",
            result.best.top1
        );
        assert!(!result.history.is_empty());
    }

    #[test]
    fn quantized_training_with_thresholds_runs() {
        let (train_d, val_d) = tiny_data();
        let mut g = ModelKind::DarkNet.build(2);
        // Quick FP32 warmup so quantization has realistic weights.
        let mut h = TrainHyper::pretrain(10);
        h.epochs = 2;
        train(&mut g, &train_d, &val_d, &h);
        let mut dims = INPUT_DIMS;
        dims[2] = 16;
        dims[3] = 16;
        transforms::optimize(&mut g, &dims);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let calib = tqt_data::calibration_batch(&val_d, 50, 3);
        g.calibrate(&calib);
        let mut h = TrainHyper::retrain(10);
        h.epochs = 2;
        h.freeze_start = 5;
        let result = train(&mut g, &train_d, &val_d, &h);
        assert!(result.best.top1 > 0.3, "quantized retraining collapsed: {}", result.best.top1);
        assert!(!result.threshold_names.is_empty());
        assert_eq!(result.threshold_init.len(), result.threshold_final.len());
        assert!(!result.threshold_trace.is_empty());
        // Freezing should have frozen at least one threshold over 2 epochs.
        let frozen = g
            .thresholds()
            .iter()
            .filter(|t| t.mode == tqt_graph::ThresholdMode::Trained && !t.param.trainable)
            .count();
        assert!(frozen > 0, "expected some thresholds frozen");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let (_, val_d) = tiny_data();
        let mut g = ModelKind::VggA.build(3);
        // VggA expects 32x32 input; rebuild data at 32.
        let cfg = SynthConfig::default();
        let (_, val32) = train_val(&cfg, 32, 64);
        let a = evaluate(&mut g, &val32, 16);
        let b = evaluate(&mut g, &val32, 16);
        assert_eq!(a, b);
        let _ = val_d;
    }

    #[test]
    fn deviations_computed_from_ceil() {
        let r = TrainResult {
            best: ValPoint {
                step: 0,
                epoch: 0.0,
                loss: 0.0,
                top1: 0.0,
                top5: 0.0,
            },
            history: vec![],
            threshold_names: vec!["a".into(), "b".into()],
            threshold_init: vec![0.2, -1.6],
            threshold_final: vec![-0.9, -1.2],
            threshold_trace: vec![],
            steps_run: 0,
        };
        // ceil(0.2)=1 -> ceil(-0.9)=0 => -1 ; ceil(-1.6)=-1 -> ceil(-1.2)=-1 => 0
        assert_eq!(r.threshold_deviations(), vec![-1, 0]);
    }
}
