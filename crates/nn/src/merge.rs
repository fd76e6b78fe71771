//! Multi-input merge layers: elementwise add (ResNet shortcuts) and
//! channel concatenation (Inception branches). Both have dedicated
//! quantization topologies in the paper's Section 4.3: eltwise-add merges
//! its input scales, and concat is lossless because input scales are
//! merged explicitly.

use crate::layer::{pair, Layer, Mode};
use tqt_tensor::{ops, Tensor};

/// Elementwise addition of two same-shaped tensors.
#[derive(Debug, Clone, Default)]
pub struct EltwiseAdd {
    seen_forward: bool,
}

impl EltwiseAdd {
    /// Creates an eltwise-add layer.
    pub fn new() -> Self {
        EltwiseAdd {
            seen_forward: false,
        }
    }
}

impl Layer for EltwiseAdd {
    fn op_name(&self) -> &'static str {
        "eltwise_add"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let (a, b) = pair(inputs, "eltwise_add");
        if mode == Mode::Train {
            self.seen_forward = true;
        }
        ops::add(a, b)
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        assert!(
            self.seen_forward,
            "eltwise_add backward without cached forward"
        );
        self.seen_forward = false;
        vec![gy.clone(), gy.clone()]
    }
}

/// Concatenation along the channel dimension (dim 1) of NCHW or `[N, C]`
/// tensors.
#[derive(Debug, Clone, Default)]
pub struct Concat {
    cached_channels: Option<Vec<usize>>,
}

impl Concat {
    /// Creates a concat layer.
    pub fn new() -> Self {
        Concat {
            cached_channels: None,
        }
    }
}

impl Layer for Concat {
    fn op_name(&self) -> &'static str {
        "concat"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        assert!(inputs.len() >= 2, "concat needs at least 2 inputs");
        let first = inputs[0];
        assert!(
            first.ndim() == 2 || first.ndim() == 4,
            "concat supports [N,C] or NCHW tensors"
        );
        let n = first.dim(0);
        let spatial: Vec<usize> = first.dims()[2..].to_vec();
        let mut channels = Vec::with_capacity(inputs.len());
        for t in inputs {
            assert_eq!(t.dim(0), n, "concat batch mismatch");
            assert_eq!(&t.dims()[2..], &spatial[..], "concat spatial mismatch");
            channels.push(t.dim(1));
        }
        let c_out: usize = channels.iter().sum();
        let mut dims = vec![n, c_out];
        dims.extend(&spatial);
        let mut out = Tensor::zeros(dims);
        concat_into(inputs.iter().map(|t| t.data()), n, out.data_mut());
        if mode == Mode::Train {
            self.cached_channels = Some(channels);
        }
        out
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let channels = self
            .cached_channels
            .take()
            .expect("concat backward without cached forward");
        let n = gy.dim(0);
        let spatial = &gy.dims()[2..];
        let mut grads: Vec<Tensor> = channels
            .iter()
            .map(|&c| Tensor::zeros([&[n, c][..], spatial].concat()))
            .collect();
        split_into(gy.data(), n, grads.iter_mut().map(|g| g.data_mut()));
        grads
    }
}

/// Channel concatenation over raw slices: copies each `[n, c_i, spatial]`
/// part of `parts`, in order, into its channel range of `out`
/// (`[n, Σc_i, spatial]`), image by image.
///
/// # Panics
///
/// Panics if the parts do not exactly fill `out`.
pub fn concat_into<'a>(parts: impl IntoIterator<Item = &'a [f32]>, n: usize, out: &mut [f32]) {
    let out_row = out.len() / n;
    let mut off = 0usize;
    for part in parts {
        let row = part.len() / n;
        for (src, dst) in part.chunks_exact(row).zip(out.chunks_exact_mut(out_row)) {
            dst[off..off + row].copy_from_slice(src);
        }
        off += row;
    }
    assert_eq!(off, out_row, "concat parts do not fill the output");
}

/// The adjoint of [`concat_into`]: copies each part's channel range of
/// `gy` (`[n, Σc_i, spatial]`) into the matching `[n, c_i, spatial]`
/// slice of `parts`.
///
/// # Panics
///
/// Panics if the parts do not exactly cover `gy`.
pub fn split_into<'a>(gy: &[f32], n: usize, parts: impl IntoIterator<Item = &'a mut [f32]>) {
    let gy_row = gy.len() / n;
    let mut off = 0usize;
    for part in parts {
        let row = part.len() / n;
        for (dst, src) in part.chunks_exact_mut(row).zip(gy.chunks_exact(gy_row)) {
            dst.copy_from_slice(&src[off..off + row]);
        }
        off += row;
    }
    assert_eq!(off, gy_row, "split parts do not cover the gradient");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_forward_backward() {
        let mut l = EltwiseAdd::new();
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let y = l.forward(&[&a, &b], Mode::Train);
        assert_eq!(y.data(), &[11.0, 22.0]);
        let gs = l.backward(&Tensor::from_slice(&[1.0, -1.0]));
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].data(), &[1.0, -1.0]);
        assert_eq!(gs[1].data(), &[1.0, -1.0]);
    }

    #[test]
    fn concat_4d_roundtrip() {
        let mut l = Concat::new();
        let a = Tensor::from_vec([1, 1, 1, 2], vec![1., 2.]);
        let b = Tensor::from_vec([1, 2, 1, 2], vec![3., 4., 5., 6.]);
        let y = l.forward(&[&a, &b], Mode::Train);
        assert_eq!(y.dims(), &[1, 3, 1, 2]);
        assert_eq!(y.data(), &[1., 2., 3., 4., 5., 6.]);
        let gs = l.backward(&y);
        assert_eq!(gs[0].data(), a.data());
        assert_eq!(gs[1].data(), b.data());
    }

    #[test]
    fn concat_2d() {
        let mut l = Concat::new();
        let a = Tensor::from_vec([2, 1], vec![1., 2.]);
        let b = Tensor::from_vec([2, 2], vec![3., 4., 5., 6.]);
        let y = l.forward(&[&a, &b], Mode::Eval);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.data(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn concat_batched_interleaves_correctly() {
        let mut l = Concat::new();
        let a = Tensor::from_vec([2, 1, 1, 1], vec![1., 2.]);
        let b = Tensor::from_vec([2, 1, 1, 1], vec![10., 20.]);
        let y = l.forward(&[&a, &b], Mode::Eval);
        assert_eq!(y.data(), &[1., 10., 2., 20.]);
    }

    #[test]
    #[should_panic(expected = "spatial mismatch")]
    fn concat_checks_spatial() {
        let mut l = Concat::new();
        let a = Tensor::zeros([1, 1, 2, 2]);
        let b = Tensor::zeros([1, 1, 3, 3]);
        l.forward(&[&a, &b], Mode::Eval);
    }
}
