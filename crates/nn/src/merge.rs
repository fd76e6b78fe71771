//! Multi-input merge layers: elementwise add (ResNet shortcuts) and
//! channel concatenation (Inception branches). Both have dedicated
//! quantization topologies in the paper's Section 4.3: eltwise-add merges
//! its input scales, and concat is lossless because input scales are
//! merged explicitly.

use crate::layer::Layer;

/// Elementwise addition of two same-shaped tensors.
#[derive(Debug, Clone, Default)]
pub struct EltwiseAdd;

impl EltwiseAdd {
    /// Creates an eltwise-add layer.
    pub fn new() -> Self {
        EltwiseAdd
    }
}

impl Layer for EltwiseAdd {
    fn op_name(&self) -> &'static str {
        "eltwise_add"
    }
}

/// Concatenation along the channel dimension (dim 1) of NCHW or `[N, C]`
/// tensors.
#[derive(Debug, Clone, Default)]
pub struct Concat;

impl Concat {
    /// Creates a concat layer.
    pub fn new() -> Self {
        Concat
    }
}

impl Layer for Concat {
    fn op_name(&self) -> &'static str {
        "concat"
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
