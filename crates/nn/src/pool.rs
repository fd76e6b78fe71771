//! Pooling layers: max pooling, average pooling, global average pooling,
//! and flatten.
//!
//! Average pooling is also expressible as a depthwise convolution with
//! reciprocal weights — the transform Graffitist applies before
//! quantization (Section 4.1); the direct implementation here is the
//! reference the transform is validated against.

use crate::layer::Layer;
use tqt_tensor::conv::Conv2dGeom;

/// Max pooling over spatial windows of an NCHW tensor.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geom: Conv2dGeom,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window geometry.
    pub fn new(geom: Conv2dGeom) -> Self {
        MaxPool2d { geom }
    }

    /// The standard 2x2 stride-2 pooling.
    pub fn k2s2() -> Self {
        MaxPool2d::new(Conv2dGeom::new(2, 2, 0))
    }

    /// The pooling geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }
}

impl Layer for MaxPool2d {
    fn op_name(&self) -> &'static str {
        "max_pool"
    }
}

/// Average pooling over spatial windows (count includes padding positions,
/// i.e. the divisor is the full kernel size, matching the depthwise-conv
/// reciprocal-weights equivalence the paper uses).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    geom: Conv2dGeom,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    pub fn new(geom: Conv2dGeom) -> Self {
        AvgPool2d { geom }
    }

    /// The pooling geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }

    /// The reciprocal multiplier `1 / F²` (with `F` the kernel size) that
    /// the avgpool → depthwise-conv transform uses as weights.
    pub fn reciprocal(&self) -> f32 {
        avg_reciprocal(self.geom)
    }
}

impl Layer for AvgPool2d {
    fn op_name(&self) -> &'static str {
        "avg_pool"
    }
}

/// Global average pooling: NCHW → `[N, C]` (the head of every model in the
/// zoo; the paper replaces `reduce_mean` with `avg_pool` before export,
/// which this layer matches by construction).
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Layer for GlobalAvgPool {
    fn op_name(&self) -> &'static str {
        "global_avg_pool"
    }
}

/// Max pooling over raw NCHW slices: writes each window's maximum of `x`
/// (`n×c×h×w`) to `out` (`n×c×oh×ow`) and its flat input index to
/// `argmax`. Padded positions never win; ties keep the first position in
/// window order.
///
/// # Panics
///
/// Panics if a slice length does not match the shapes.
#[allow(clippy::too_many_arguments)]
pub fn max_pool2d_into(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let (oh, ow) = g.out_size(h, w);
    assert_eq!(x.len(), n * c * h * w, "max_pool input length mismatch");
    assert_eq!(out.len(), n * c * oh * ow, "max_pool output length mismatch");
    assert_eq!(argmax.len(), out.len(), "max_pool argmax length mismatch");
    let planes = x.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    for (p, ((plane, oplane), aplane)) in planes.zip(argmax.chunks_exact_mut(oh * ow)).enumerate() {
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut besti = 0usize;
                for ki in 0..g.kh {
                    for kj in 0..g.kw {
                        if let Some(i) = window_index(g, h, w, oi, oj, ki, kj) {
                            if plane[i] > best {
                                best = plane[i];
                                besti = p * h * w + i;
                            }
                        }
                    }
                }
                oplane[oi * ow + oj] = best;
                aplane[oi * ow + oj] = besti;
            }
        }
    }
}

/// Max-pool backward: overwrites `gx` with each output gradient of `gy`
/// routed to its forward `argmax` input (window overlaps accumulate in
/// output order).
pub fn max_pool2d_backward_into(gy: &[f32], argmax: &[usize], gx: &mut [f32]) {
    assert_eq!(gy.len(), argmax.len(), "max_pool gradient length mismatch");
    gx.fill(0.0);
    for (&g, &i) in gy.iter().zip(argmax) {
        gx[i] += g;
    }
}

/// Average pooling over raw NCHW slices: each window's sum of `x`
/// (`n×c×h×w`) times `1 / (kh·kw)` into `out` (`n×c×oh×ow`). Padded
/// positions add nothing but still count in the divisor.
///
/// # Panics
///
/// Panics if a slice length does not match the shapes.
pub fn avg_pool2d_into(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    out: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    assert_eq!(x.len(), n * c * h * w, "avg_pool input length mismatch");
    assert_eq!(out.len(), n * c * oh * ow, "avg_pool output length mismatch");
    let r = avg_reciprocal(g);
    for (plane, oplane) in x.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0.0f32;
                for ki in 0..g.kh {
                    for kj in 0..g.kw {
                        if let Some(i) = window_index(g, h, w, oi, oj, ki, kj) {
                            acc += plane[i];
                        }
                    }
                }
                oplane[oi * ow + oj] = acc * r;
            }
        }
    }
}

/// Average-pool backward: overwrites `gx` (`n×c×h×w`) with the sum, over
/// the windows covering each input, of `gy · 1 / (kh·kw)`.
///
/// # Panics
///
/// Panics if a slice length does not match the shapes.
pub fn avg_pool2d_backward_into(
    gy: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    gx: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    assert_eq!(gy.len(), n * c * oh * ow, "avg_pool gradient length mismatch");
    assert_eq!(gx.len(), n * c * h * w, "avg_pool input-gradient length mismatch");
    let r = avg_reciprocal(g);
    gx.fill(0.0);
    for (gplane, xplane) in gy.chunks_exact(oh * ow).zip(gx.chunks_exact_mut(h * w)) {
        for oi in 0..oh {
            for oj in 0..ow {
                let gv = gplane[oi * ow + oj] * r;
                for ki in 0..g.kh {
                    for kj in 0..g.kw {
                        if let Some(i) = window_index(g, h, w, oi, oj, ki, kj) {
                            xplane[i] += gv;
                        }
                    }
                }
            }
        }
    }
}

/// Global average pooling over raw slices: `out[p]` is the mean of the
/// `x.len() / out.len()` elements of `(image, channel)` plane `p`.
pub fn global_avg_pool_into(x: &[f32], out: &mut [f32]) {
    let (spatial, inv) = gap_plane(x.len(), out.len());
    for (o, plane) in out.iter_mut().zip(x.chunks_exact(spatial)) {
        *o = plane.iter().sum::<f32>() * inv;
    }
}

/// Global-average-pool backward: fills each plane of `gx` with its
/// output gradient from `gy` times `1 / spatial`.
pub fn global_avg_pool_backward_into(gy: &[f32], gx: &mut [f32]) {
    let (spatial, inv) = gap_plane(gx.len(), gy.len());
    for (&g, plane) in gy.iter().zip(gx.chunks_exact_mut(spatial)) {
        plane.fill(g * inv);
    }
}

/// The plane length and its reciprocal for `planes` planes over `len`
/// elements.
fn gap_plane(len: usize, planes: usize) -> (usize, f32) {
    assert!(
        planes > 0 && len > 0 && len.is_multiple_of(planes),
        "{len} elements do not split into {planes} planes"
    );
    let spatial = len / planes;
    (spatial, 1.0 / spatial as f32)
}

/// The average-pool divisor's reciprocal `1 / (kh·kw)`.
fn avg_reciprocal(g: Conv2dGeom) -> f32 {
    1.0 / (g.kh * g.kw) as f32
}

/// The flat index of window tap `(ki, kj)` of output `(oi, oj)` within
/// one `h × w` plane, or `None` when the tap falls in the padding.
fn window_index(
    g: Conv2dGeom,
    h: usize,
    w: usize,
    oi: usize,
    oj: usize,
    ki: usize,
    kj: usize,
) -> Option<usize> {
    let ii = (oi * g.stride + ki).checked_sub(g.pad).filter(|&i| i < h)?;
    let jj = (oj * g.stride + kj).checked_sub(g.pad).filter(|&j| j < w)?;
    Some(ii * w + jj)
}

/// Flattens NCHW to `[N, C*H*W]` (2-D tensors pass through).
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn op_name(&self) -> &'static str {
        "flatten"
    }
}
