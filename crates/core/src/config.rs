//! Experiment configuration: training hyperparameters and trial kinds.

use tqt_graph::WeightBits;

/// Hyperparameters of a training run (FP32 pre-training or quantized
/// retraining). Defaults follow the paper's Section 5.2 scheme, scaled to
/// the synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainHyper {
    /// Mini-batch size.
    pub batch: usize,
    /// Maximum epochs (the paper retrains for at most 5).
    pub epochs: usize,
    /// Initial weight learning rate.
    pub weight_lr: f32,
    /// Weight LR staircase decay factor.
    pub weight_decay: f32,
    /// Weight LR staircase interval in steps.
    pub weight_decay_interval: u64,
    /// Initial threshold learning rate (paper: 1e-2).
    pub threshold_lr: f32,
    /// Threshold LR staircase decay factor (paper: 0.5).
    pub threshold_decay: f32,
    /// Threshold LR staircase interval in steps.
    pub threshold_decay_interval: u64,
    /// Steps between validation passes (best checkpoint is kept).
    pub val_every: u64,
    /// Step at which incremental threshold freezing begins
    /// (paper: `1000 * 24/N`).
    pub freeze_start: u64,
    /// Steps between threshold freezes (paper: 50).
    pub freeze_interval: u64,
    /// Freeze batch-norm moving statistics after this many steps
    /// (paper: after 1 epoch). `u64::MAX` disables.
    pub bn_freeze_after: u64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl TrainHyper {
    /// FP32 pre-training defaults for the synthetic benchmark.
    pub fn pretrain(steps_per_epoch: u64) -> Self {
        TrainHyper {
            batch: 32,
            epochs: 12,
            weight_lr: 2e-3,
            weight_decay: 0.85,
            weight_decay_interval: steps_per_epoch.max(1),
            threshold_lr: 1e-2,
            threshold_decay: 0.5,
            threshold_decay_interval: steps_per_epoch.max(1),
            val_every: steps_per_epoch.max(1),
            freeze_start: u64::MAX,
            freeze_interval: 50,
            bn_freeze_after: u64::MAX,
            seed: 1,
        }
    }

    /// Quantized / fine-tune retraining defaults: small weight LR (the
    /// paper fine-tunes pre-trained weights at 1e-6 on ImageNet; the
    /// synthetic benchmark's loss surface needs a proportionally larger
    /// rate), threshold LR 1e-2 with 0.5 staircase decay, max 5 epochs,
    /// threshold freezing enabled.
    pub fn retrain(steps_per_epoch: u64) -> Self {
        TrainHyper {
            batch: 32,
            epochs: 5,
            weight_lr: 2e-4,
            weight_decay: 0.94,
            weight_decay_interval: (3 * steps_per_epoch).max(1),
            threshold_lr: 1e-2,
            threshold_decay: 0.5,
            threshold_decay_interval: steps_per_epoch.max(1),
            val_every: (steps_per_epoch / 2).max(1),
            freeze_start: steps_per_epoch.max(1),
            freeze_interval: 50,
            bn_freeze_after: steps_per_epoch.max(1),
            seed: 1,
        }
    }
}

/// One row group of Table 3: the six trials run per network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialKind {
    /// FP32 baseline (pre-trained weights, no retraining).
    Fp32,
    /// Static INT8 quantization (calibrate only).
    StaticInt8,
    /// FP32 weight-only retraining (the paper's fairness baseline).
    RetrainWtFp32,
    /// INT8 weight-only retraining (thresholds fixed at calibration).
    RetrainWtInt8,
    /// INT8 TQT retraining (weights + thresholds).
    RetrainWtThInt8,
    /// INT4 (4/8 W/A) TQT retraining.
    RetrainWtThInt4,
}

impl TrialKind {
    /// All trials in Table 3 row order.
    pub fn all() -> &'static [TrialKind] {
        &[
            TrialKind::Fp32,
            TrialKind::StaticInt8,
            TrialKind::RetrainWtFp32,
            TrialKind::RetrainWtInt8,
            TrialKind::RetrainWtThInt8,
            TrialKind::RetrainWtThInt4,
        ]
    }

    /// The paper's "Mode" column label.
    pub fn mode_label(&self) -> &'static str {
        match self {
            TrialKind::Fp32 => "FP32",
            TrialKind::StaticInt8 => "Static",
            TrialKind::RetrainWtFp32 | TrialKind::RetrainWtInt8 => "Retrain wt",
            TrialKind::RetrainWtThInt8 | TrialKind::RetrainWtThInt4 => "Retrain wt,th",
        }
    }

    /// The paper's "Bit-width (W/A)" column label.
    pub fn bits_label(&self) -> &'static str {
        match self {
            TrialKind::Fp32 | TrialKind::RetrainWtFp32 => "32/32",
            TrialKind::StaticInt8 | TrialKind::RetrainWtInt8 | TrialKind::RetrainWtThInt8 => "8/8",
            TrialKind::RetrainWtThInt4 => "4/8",
        }
    }

    /// Weight precision for the quantized trials.
    pub fn weight_bits(&self) -> Option<WeightBits> {
        match self {
            TrialKind::StaticInt8 | TrialKind::RetrainWtInt8 | TrialKind::RetrainWtThInt8 => {
                Some(WeightBits::Int8)
            }
            TrialKind::RetrainWtThInt4 => Some(WeightBits::Int4),
            _ => None,
        }
    }

    /// Whether this trial trains thresholds.
    pub fn trains_thresholds(&self) -> bool {
        matches!(
            self,
            TrialKind::RetrainWtThInt8 | TrialKind::RetrainWtThInt4
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(TrialKind::Fp32.bits_label(), "32/32");
        assert_eq!(TrialKind::RetrainWtThInt4.bits_label(), "4/8");
        assert_eq!(TrialKind::StaticInt8.mode_label(), "Static");
        assert_eq!(TrialKind::RetrainWtThInt8.mode_label(), "Retrain wt,th");
    }

    #[test]
    fn weight_bits_routing() {
        assert_eq!(TrialKind::Fp32.weight_bits(), None);
        assert_eq!(TrialKind::RetrainWtThInt4.weight_bits(), Some(WeightBits::Int4));
        assert!(TrialKind::RetrainWtThInt8.trains_thresholds());
        assert!(!TrialKind::RetrainWtInt8.trains_thresholds());
    }

    #[test]
    fn retrain_defaults_scale_with_epoch() {
        let h = TrainHyper::retrain(100);
        assert_eq!(h.threshold_decay_interval, 100);
        assert_eq!(h.bn_freeze_after, 100);
        assert_eq!(h.epochs, 5);
    }
}
