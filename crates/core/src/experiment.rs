//! Experiment orchestration: the FP32 model zoo (pre-train once, cache to
//! disk — the stand-in for TF-Slim checkpoints) and the six Table 3 trials
//! per network.

use crate::config::{TrainHyper, TrialKind};
use crate::trainer::{evaluate, train, TrainResult};
use std::path::{Path, PathBuf};
use tqt_data::{calibration_batch, train_val, Dataset, SynthConfig};
use tqt_graph::state::StateDict;
use tqt_graph::{quantize_graph, transforms, Graph, QuantizeOptions, ThresholdMode};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_quant::calib::ThresholdInit;

/// Shared experiment environment: datasets, calibration batch, checkpoint
/// cache and hyperparameter scales.
#[derive(Debug)]
pub struct ExpEnv {
    /// Training split.
    pub train: Dataset,
    /// Validation split.
    pub val: Dataset,
    /// Calibration inputs (paper: 50 images from the validation set).
    pub calib: tqt_tensor::Tensor,
    /// Directory for cached FP32 checkpoints.
    pub zoo_dir: PathBuf,
    /// Steps per epoch at the configured batch size.
    pub steps_per_epoch: u64,
    /// Weight-initialization seed for model builds.
    pub model_seed: u64,
    /// Epoch budget for FP32 pre-training.
    pub pretrain_epochs: usize,
    /// Epoch budget for retraining trials (paper: 5).
    pub retrain_epochs: usize,
}

impl ExpEnv {
    /// Builds the standard benchmark environment. `scale` multiplies the
    /// dataset size (1.0 = 2560 train / 640 val images).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn standard(zoo_dir: impl Into<PathBuf>, scale: f32) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let n_train = ((2560.0 * scale) as usize).max(64);
        let n_val = ((640.0 * scale) as usize).max(64);
        let cfg = SynthConfig::default();
        let (train, val) = train_val(&cfg, n_train, n_val);
        let calib = calibration_batch(&val, 50.min(n_val), 11);
        let batch = 32;
        ExpEnv {
            calib,
            zoo_dir: zoo_dir.into(),
            steps_per_epoch: (train.len() / batch) as u64,
            train,
            val,
            model_seed: 1,
            pretrain_epochs: 10,
            retrain_epochs: 5,
        }
    }

    fn checkpoint_path(&self, model: ModelKind) -> PathBuf {
        self.zoo_dir.join(format!("{}.json", model.name()))
    }

    /// Returns the FP32 pre-trained graph for `model`, training and
    /// caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics on checkpoint I/O errors other than "not found".
    pub fn pretrained(&self, model: ModelKind) -> Graph {
        let mut g = model.build(self.model_seed);
        let path = self.checkpoint_path(model);
        if path.exists() {
            let sd = StateDict::load(&path).expect("corrupt checkpoint");
            g.load_state_dict(&sd);
            return g;
        }
        let mut hyper = TrainHyper::pretrain(self.steps_per_epoch);
        hyper.epochs = self.pretrain_epochs;
        train(&mut g, &self.train, &self.val, &hyper);
        std::fs::create_dir_all(&self.zoo_dir).expect("cannot create zoo dir");
        g.state_dict().save(&path).expect("cannot save checkpoint");
        g
    }
}

/// Result of one Table 3 trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Which trial.
    pub kind: TrialKind,
    /// Best top-1 accuracy (fraction).
    pub top1: f32,
    /// Best top-5 accuracy (fraction).
    pub top5: f32,
    /// Fractional epoch of the best checkpoint (0 for non-retrained
    /// trials).
    pub epochs: f32,
    /// Full training details when the trial retrained.
    pub train_result: Option<TrainResult>,
}

/// Runs one trial of the Table 3 grid for `model`, returning the result
/// and the final graph (quantized trials return the quantized graph, ready
/// for lowering or distribution reports).
pub fn run_trial(model: ModelKind, kind: TrialKind, env: &ExpEnv) -> (TrialResult, Graph) {
    let mut g = env.pretrained(model);
    match kind {
        TrialKind::Fp32 => {
            let (top1, top5, _) = evaluate(&mut g, &env.val, 32);
            (
                TrialResult {
                    kind,
                    top1,
                    top5,
                    epochs: 0.0,
                    train_result: None,
                },
                g,
            )
        }
        TrialKind::RetrainWtFp32 => {
            let mut hyper = TrainHyper::retrain(env.steps_per_epoch);
            hyper.epochs = env.retrain_epochs;
            let r = train(&mut g, &env.train, &env.val, &hyper);
            (
                TrialResult {
                    kind,
                    top1: r.best.top1,
                    top5: r.best.top5,
                    epochs: r.best.epoch,
                    train_result: Some(r),
                },
                g,
            )
        }
        TrialKind::StaticInt8 => {
            transforms::optimize(&mut g, &INPUT_DIMS);
            quantize_graph(&mut g, QuantizeOptions::static_int8());
            g.calibrate(&env.calib);
            let (top1, top5, _) = evaluate(&mut g, &env.val, 32);
            (
                TrialResult {
                    kind,
                    top1,
                    top5,
                    epochs: 0.0,
                    train_result: None,
                },
                g,
            )
        }
        TrialKind::RetrainWtInt8 | TrialKind::RetrainWtThInt8 | TrialKind::RetrainWtThInt4 => {
            transforms::optimize(&mut g, &INPUT_DIMS);
            let bits = kind.weight_bits().expect("quantized trial");
            let opts = if kind.trains_thresholds() {
                QuantizeOptions::retrain_wt_th(bits)
            } else {
                QuantizeOptions {
                    weight_bits: bits,
                    mode: ThresholdMode::Fixed,
                    weight_init: ThresholdInit::Max,
                    act_init: ThresholdInit::KlJ,
                    merge_scales: true,
                }
            };
            quantize_graph(&mut g, opts);
            g.calibrate(&env.calib);
            let mut hyper = TrainHyper::retrain(env.steps_per_epoch);
            hyper.epochs = env.retrain_epochs;
            let r = train(&mut g, &env.train, &env.val, &hyper);
            (
                TrialResult {
                    kind,
                    top1: r.best.top1,
                    top5: r.best.top5,
                    epochs: r.best.epoch,
                    train_result: Some(r),
                },
                g,
            )
        }
    }
}

/// Formats accuracies as the paper does (percent, one decimal).
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

/// Removes a cached checkpoint (test support).
pub fn clear_zoo_entry(dir: &Path, model: ModelKind) {
    let _ = std::fs::remove_file(dir.join(format!("{}.json", model.name())));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_env(dir: &str) -> ExpEnv {
        let mut env = ExpEnv::standard(std::env::temp_dir().join(dir), 0.125);
        env.pretrain_epochs = 2;
        env.retrain_epochs = 1;
        env
    }

    #[test]
    fn zoo_caches_checkpoints() {
        let env = small_env("tqt_zoo_test_a");
        clear_zoo_entry(&env.zoo_dir, ModelKind::DarkNet);
        let mut g1 = env.pretrained(ModelKind::DarkNet);
        assert!(env.zoo_dir.join("darknet.json").exists());
        let mut g2 = env.pretrained(ModelKind::DarkNet);
        let x = env.calib.clone();
        let y1 = g1.infer(&x);
        let y2 = g2.infer(&x);
        y1.assert_close(&y2, 0.0);
        clear_zoo_entry(&env.zoo_dir, ModelKind::DarkNet);
    }

    #[test]
    fn static_trial_runs_end_to_end() {
        let env = small_env("tqt_zoo_test_b");
        clear_zoo_entry(&env.zoo_dir, ModelKind::ResNet8);
        let (fp32, _) = run_trial(ModelKind::ResNet8, TrialKind::Fp32, &env);
        let (stat, _) = run_trial(ModelKind::ResNet8, TrialKind::StaticInt8, &env);
        assert!(fp32.top1 > 0.2, "fp32 top1 {}", fp32.top1);
        // Static INT8 should not be dramatically better than FP32.
        assert!(stat.top1 <= fp32.top1 + 0.1);
        clear_zoo_entry(&env.zoo_dir, ModelKind::ResNet8);
    }

    #[test]
    fn tqt_trial_produces_threshold_data() {
        let env = small_env("tqt_zoo_test_c");
        clear_zoo_entry(&env.zoo_dir, ModelKind::DarkNet);
        let (r, g) = run_trial(ModelKind::DarkNet, TrialKind::RetrainWtThInt8, &env);
        let tr = r.train_result.expect("retrained trial has details");
        assert!(!tr.threshold_names.is_empty());
        assert!(g.thresholds().iter().any(|t| t.calibrated));
        clear_zoo_entry(&env.zoo_dir, ModelKind::DarkNet);
    }
}
