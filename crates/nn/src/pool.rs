//! Pooling layers: max pooling, average pooling, global average pooling,
//! and flatten.
//!
//! Average pooling is also expressible as a depthwise convolution with
//! reciprocal weights — the transform Graffitist applies before
//! quantization (Section 4.1); the direct implementation here is the
//! reference the transform is validated against.

use crate::layer::{single, Layer, Mode};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::Tensor;

/// Max pooling over spatial windows of an NCHW tensor.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geom: Conv2dGeom,
    /// For each output element, the flat input index of its max.
    cached_argmax: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims as len-4)
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window geometry.
    pub fn new(geom: Conv2dGeom) -> Self {
        MaxPool2d {
            geom,
            cached_argmax: None,
        }
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

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let x = single(inputs, "max_pool");
        assert_eq!(x.ndim(), 4, "max_pool input must be NCHW, got {}", x.shape());
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = self.geom.out_size(h, w);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        let mut argmax = vec![0usize; out.len()];
        max_pool2d_into(x.data(), n, c, h, w, self.geom, out.data_mut(), &mut argmax);
        if mode == Mode::Train {
            self.cached_argmax = Some((argmax, vec![n, c, h, w]));
        }
        out
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let (argmax, dims) = self
            .cached_argmax
            .take()
            .expect("max_pool backward without cached forward");
        let mut gx = Tensor::zeros(dims);
        max_pool2d_backward_into(gy.data(), &argmax, gx.data_mut());
        vec![gx]
    }
}

/// Average pooling over spatial windows (count includes padding positions,
/// i.e. the divisor is the full kernel size, matching the depthwise-conv
/// reciprocal-weights equivalence the paper uses).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    geom: Conv2dGeom,
    cached_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    pub fn new(geom: Conv2dGeom) -> Self {
        AvgPool2d {
            geom,
            cached_dims: None,
        }
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

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let x = single(inputs, "avg_pool");
        assert_eq!(x.ndim(), 4, "avg_pool input must be NCHW, got {}", x.shape());
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = self.geom.out_size(h, w);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        avg_pool2d_into(x.data(), n, c, h, w, self.geom, out.data_mut());
        if mode == Mode::Train {
            self.cached_dims = Some(vec![n, c, h, w]);
        }
        out
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .expect("avg_pool backward without cached forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mut gx = Tensor::zeros(dims);
        avg_pool2d_backward_into(gy.data(), n, c, h, w, self.geom, gx.data_mut());
        vec![gx]
    }
}

/// Global average pooling: NCHW → `[N, C]` (the head of every model in the
/// zoo; the paper replaces `reduce_mean` with `avg_pool` before export,
/// which this layer matches by construction).
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn op_name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let x = single(inputs, "global_avg_pool");
        assert_eq!(x.ndim(), 4, "global_avg_pool input must be NCHW");
        let (n, c) = (x.dim(0), x.dim(1));
        let mut out = Tensor::zeros([n, c]);
        global_avg_pool_into(x.data(), out.data_mut());
        if mode == Mode::Train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        out
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .expect("global_avg_pool backward without cached forward");
        let mut gx = Tensor::zeros(dims);
        global_avg_pool_backward_into(gy.data(), gx.data_mut());
        vec![gx]
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
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn op_name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        let x = single(inputs, "flatten");
        if mode == Mode::Train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        let n = x.dim(0);
        x.reshape([n, x.len() / n])
    }

    fn backward(&mut self, gy: &Tensor) -> Vec<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .expect("flatten backward without cached forward");
        vec![gy.reshape(dims)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck_layer;
    use tqt_tensor::init;

    #[test]
    fn max_pool_known() {
        let mut p = MaxPool2d::k2s2();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = p.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut p = MaxPool2d::k2s2();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        p.forward(&[&x], Mode::Train);
        let g = p.backward(&Tensor::from_vec([1, 1, 1, 1], vec![5.0])).remove(0);
        assert_eq!(g.data(), &[0., 0., 0., 5.0]);
    }

    #[test]
    fn avg_pool_known() {
        let mut p = AvgPool2d::new(Conv2dGeom::new(2, 2, 0));
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = p.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn padded_max_pool_known() {
        // Inception's pool branch: 3x3, stride 1, pad 1. Channel 1 is all
        // negative, so a zero-valued padding tap would win if it counted.
        let mut p = MaxPool2d::new(Conv2dGeom::new(3, 1, 1));
        let x = Tensor::from_vec(
            [1, 2, 3, 3],
            vec![
                3., 1., 2., 0., 5., 4., 8., 6., 7., //
                -1., -2., -3., -4., -5., -6., -7., -8., -9.,
            ],
        );
        let y = p.forward(&[&x], Mode::Train);
        assert_eq!(y.dims(), &[1, 2, 3, 3]);
        assert_eq!(
            y.data(),
            &[5., 5., 5., 8., 8., 7., 8., 8., 7., -1., -1., -2., -1., -1., -2., -4., -4., -5.]
        );
        // Distinct output gradients, so each input's fan-in sum is visible.
        let gy: Vec<f32> = (1..=9).chain(1..=9).map(|v| v as f32).collect();
        let g = p.backward(&Tensor::from_vec([1, 2, 3, 3], gy)).remove(0);
        assert_eq!(
            g.data(),
            &[0., 0., 0., 0., 6., 0., 24., 0., 15., 12., 9., 0., 15., 9., 0., 0., 0., 0.]
        );
    }

    #[test]
    fn padded_avg_pool_counts_padding_in_divisor() {
        let mut p = AvgPool2d::new(Conv2dGeom::new(3, 1, 1));
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = p.forward(&[&x], Mode::Train);
        // Window sums over the in-bounds taps, always divided by 9.
        let sums = [12., 21., 16., 27., 45., 33., 24., 39., 28.];
        y.assert_close(
            &Tensor::from_vec([1, 1, 3, 3], sums.map(|s| s / 9.0).to_vec()),
            1e-6,
        );
        let g = p.backward(&Tensor::ones([1, 1, 3, 3])).remove(0);
        // Each input receives 1/9 per window covering it: 4 at corners,
        // 6 on edges, 9 at the centre.
        let cover = [4., 6., 4., 6., 9., 6., 4., 6., 4.];
        g.assert_close(
            &Tensor::from_vec([1, 1, 3, 3], cover.map(|s| s / 9.0).to_vec()),
            1e-6,
        );
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = init::rng(40);
        let mut p = AvgPool2d::new(Conv2dGeom::new(2, 2, 0));
        let x = init::normal([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut p, &[x], 1e-2, 1e-2);
    }

    #[test]
    fn global_avg_pool_gradcheck() {
        let mut rng = init::rng(41);
        let mut p = GlobalAvgPool::new();
        let x = init::normal([2, 3, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut p, &[x], 1e-2, 1e-2);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec([2, 2, 1, 2], (0..8).map(|v| v as f32).collect());
        let y = f.forward(&[&x], Mode::Train);
        assert_eq!(y.dims(), &[2, 4]);
        let g = f.backward(&y).remove(0);
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn max_pool_gradcheck_distinct_values() {
        // Use strictly distinct values so the max is FD-differentiable.
        let mut p = MaxPool2d::k2s2();
        let x = Tensor::from_vec([1, 2, 4, 4], (0..32).map(|v| v as f32 * 0.37).collect());
        gradcheck_layer(&mut p, &[x], 1e-3, 1e-2);
    }
}
