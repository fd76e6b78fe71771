//! Finite-difference gradient checking for layers.

use crate::layers::{Cache, Mode, RefLayer};
use tqt_tensor::Tensor;

/// Loss used for gradient checks: `L = 0.5 Σ y²`, whose upstream gradient
/// is `y` itself.
fn loss_of(y: &Tensor) -> f64 {
    y.data()
        .iter()
        .map(|&v| 0.5 * (v as f64) * (v as f64))
        .sum()
}

fn forward_loss(layer: &mut dyn RefLayer, inputs: &[Tensor]) -> f64 {
    let refs: Vec<&Tensor> = inputs.iter().collect();
    loss_of(&layer.forward(&refs, Mode::Eval, &mut Cache::Empty))
}

/// Finite-difference checks a layer's input and parameter gradients under
/// the `0.5 Σ y²` loss, sampling a handful of coordinates of each tensor.
///
/// # Panics
///
/// Panics (failing the test) when any sampled analytic gradient differs
/// from the central difference by more than `tol`.
pub fn gradcheck_layer(layer: &mut dyn RefLayer, inputs: &[Tensor], eps: f32, tol: f32) {
    // Analytic pass.
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let mut cache = Cache::Empty;
    let y = layer.forward(&refs, Mode::Train, &mut cache);
    let gy = y.clone();
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let input_grads = layer.backward(&gy, &mut cache);
    assert_eq!(
        input_grads.len(),
        inputs.len(),
        "backward must return one gradient per input"
    );

    // Check input gradients.
    for (ii, x) in inputs.iter().enumerate() {
        let samples = sample_indices(x.len());
        for &i in &samples {
            let mut plus = inputs.to_vec();
            plus[ii].data_mut()[i] += eps;
            let mut minus = inputs.to_vec();
            minus[ii].data_mut()[i] -= eps;
            let fd = ((forward_loss(layer, &plus) - forward_loss(layer, &minus))
                / (2.0 * eps as f64)) as f32;
            let analytic = input_grads[ii].data()[i];
            assert!(
                (fd - analytic).abs() <= tol * (1.0 + fd.abs()),
                "input {ii} grad mismatch at {i}: fd={fd} analytic={analytic}"
            );
        }
    }

    // Check parameter gradients. We perturb through params_mut on each
    // probe, restoring afterwards.
    let n_params = layer.params().len();
    for pi in 0..n_params {
        let (len, grads): (usize, Vec<f32>) = {
            let p = layer.params()[pi];
            (p.value.len(), p.grad.data().to_vec())
        };
        for &i in &sample_indices(len) {
            let orig = layer.params_mut()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = forward_loss(layer, inputs);
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = forward_loss(layer, inputs);
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = grads[i];
            assert!(
                (fd - analytic).abs() <= tol * (1.0 + fd.abs()),
                "param {pi} grad mismatch at {i}: fd={fd} analytic={analytic}"
            );
        }
    }
}

/// Deterministic spread of up to 8 probe indices over a tensor.
fn sample_indices(len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let n = len.min(8);
    (0..n).map(|k| k * (len - 1) / n.max(1)).collect()
}
