//! Distribution and threshold reporting for Figures 5, 6 and 10: per-layer
//! weight/activation histograms before and after TQT retraining, with the
//! initialized and trained raw thresholds.

use tqt_graph::{build_arena, FloatExecutor, FloatPlan, Graph, ThresholdMode};
use tqt_tensor::Tensor;

/// A simple symmetric histogram of a tensor for plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct DistHist {
    /// Bin edges lower bound (symmetric range `[-max, max]`).
    pub max_abs: f32,
    /// Counts over `bins` equal-width bins spanning `[-max_abs, max_abs]`.
    pub counts: Vec<u32>,
}

impl DistHist {
    /// Builds a histogram of `data` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `data` is empty.
    pub fn of(data: &[f32], bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(!data.is_empty(), "histogram of empty tensor");
        let max_abs = data
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(f32::MIN_POSITIVE);
        let mut counts = vec![0u32; bins];
        let scale = bins as f32 / (2.0 * max_abs);
        for &v in data {
            let idx = (((v + max_abs) * scale) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        DistHist { max_abs, counts }
    }

    /// Serializes as `bin_center:count` pairs for CSV output.
    pub fn to_csv_cells(&self) -> String {
        let bins = self.counts.len();
        let width = 2.0 * self.max_abs / bins as f32;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let center = -self.max_abs + (i as f32 + 0.5) * width;
                format!("{center:.5}:{c}")
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// Per-quantized-layer report entry (one panel of Figure 5 / 10).
#[derive(Debug, Clone)]
pub struct LayerDist {
    /// Threshold parameter name.
    pub name: String,
    /// Quantizer bit-width.
    pub bits: u32,
    /// Raw threshold `t = 2^(log2 t)` at the given capture point.
    pub raw_threshold: f32,
    /// Histogram of the tensor the quantizer sees.
    pub hist: DistHist,
}

/// Captures the distribution seen by every trained quantizer in a
/// quantized graph: weight quantizers report the full-precision weight
/// tensor, activation quantizers the activation produced by their input
/// node for `sample`. Runs one forward-only pass whose quantizer hook
/// builds the histograms; the graph is left unchanged.
///
/// # Panics
///
/// Panics if the graph is not quantized/calibrated.
pub fn capture_distributions(g: &mut Graph, sample: &Tensor, bins: usize) -> Vec<LayerDist> {
    let arena = build_arena(g);
    let mut ex = FloatExecutor::new(FloatPlan::forward_only(g, sample.dims()), g);
    let mut out = Vec::new();
    ex.forward_hooked(g, &arena, sample, &mut |_, ts, data| {
        if ts.mode == ThresholdMode::Trained {
            out.push(LayerDist {
                name: ts.param.name.clone(),
                bits: ts.spec.bits(),
                raw_threshold: 2f32.powf(ts.log2_t()),
                hist: DistHist::of(data, bins),
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
    use tqt_models::{ModelKind, INPUT_DIMS};
    use tqt_tensor::init;

    #[test]
    fn histogram_counts_all_values() {
        let h = DistHist::of(&[-1.0, -0.5, 0.0, 0.5, 1.0], 4);
        assert_eq!(h.counts.iter().sum::<u32>(), 5);
        assert_eq!(h.max_abs, 1.0);
    }

    #[test]
    fn csv_cells_parse_back() {
        let h = DistHist::of(&[-1.0, 1.0], 2);
        let cells = h.to_csv_cells();
        assert_eq!(cells.split(';').count(), 2);
        assert!(cells.contains(':'));
    }

    #[test]
    fn capture_covers_all_trained_quantizers() {
        let mut g = ModelKind::MobileNetV1.build(1);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(9);
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        g.calibrate(&x);
        let dists = capture_distributions(&mut g, &x, 32);
        let trained = g
            .thresholds()
            .iter()
            .filter(|t| t.mode == ThresholdMode::Trained)
            .count();
        assert_eq!(dists.len(), trained);
        for d in &dists {
            assert!(d.raw_threshold > 0.0);
            assert!(d.hist.counts.iter().sum::<u32>() > 0);
        }
    }

    /// Capturing distributions must not touch the graph: before the
    /// capture ran on the forward-only plan, a training-mode forward with
    /// no backward left every quantized weight rounded on the graph.
    #[test]
    fn capture_leaves_every_parameter_bit_equal() {
        let mut g = ModelKind::ResNet8.build(4);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(10);
        let x = init::normal([4, 3, 32, 32], 0.0, 1.0, &mut rng);
        g.calibrate(&x);
        let snapshot = |g: &mut Graph| -> Vec<(String, Vec<u32>)> {
            g.params_mut()
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        p.value.data().iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect()
        };
        let before = snapshot(&mut g);
        capture_distributions(&mut g, &x, 32);
        let after = snapshot(&mut g);
        assert_eq!(before.len(), after.len());
        for ((name, a), (_, b)) in before.iter().zip(&after) {
            assert!(a == b, "capture_distributions changed parameter {name}");
        }
    }
}
