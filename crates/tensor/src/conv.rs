//! 2-D convolution (implicit GEMM) and depthwise convolution, forward
//! and backward, on NCHW tensors.
//!
//! Weight layout is `[out_channels, in_channels, kh, kw]` for standard
//! convolution and `[channels, 1, kh, kw]` for depthwise convolution
//! (channel multiplier 1, as used by MobileNets).
//!
//! Standard convolution is a GEMM against each image's im2col matrix
//! `[c*kh*kw, oh*ow]`, but that matrix is never written: each image is
//! staged once, zero-padded, with a tap-offset table, and the blocked
//! [`crate::gemm`] kernel gathers windows straight into its B panels
//! (serial, since the per-image loop is already parallel). The forward
//! product and the weight gradient read the windows; the input gradient
//! is computed one [`DX_BLOCK`]-pixel block of gradient columns at a
//! time and folded back through the same windows. Workspaces are
//! caller-owned and sized by [`conv2d_fwd_ws`] and [`conv2d_bwd_ws`].

use crate::gemm::{self, Lhs, Rhs, Windows};
use crate::scratch::Scratch;
use crate::tensor::Tensor;
use tqt_rt::pool;

/// Spatial geometry of a convolution or pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied symmetrically to both spatial dimensions.
    pub pad: usize,
}

impl Conv2dGeom {
    /// A square kernel with the given size, stride and padding.
    pub fn new(k: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeom {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// "Same" geometry for odd kernel size `k` at stride 1.
    pub fn same(k: usize) -> Self {
        Conv2dGeom::new(k, 1, k / 2)
    }

    /// Output spatial size for an input of size `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit in the input.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.kh && w + 2 * self.pad >= self.kw,
            "kernel {}x{} does not fit input {}x{} with pad {}",
            self.kh,
            self.kw,
            h,
            w,
            self.pad
        );
        (
            (h + 2 * self.pad - self.kh) / self.stride + 1,
            (w + 2 * self.pad - self.kw) / self.stride + 1,
        )
    }
}

/// The output positions `o` (rows or columns) whose tap `k` lands inside
/// an input extent `len`, i.e. whose input index `o*stride + k - pad`
/// lies in `[0, len)`, as the half-open range `lo..hi` within `0..olen`.
/// Empty (`lo == hi`) when the tap only ever reads padding.
fn in_bounds(k: usize, len: usize, olen: usize, g: Conv2dGeom) -> std::ops::Range<usize> {
    // First o with o*stride >= pad - k.
    let lo = g.pad.saturating_sub(k).div_ceil(g.stride).min(olen);
    // Count of o with o*stride < len + pad - k.
    let hi = (len + g.pad)
        .saturating_sub(k)
        .div_ceil(g.stride)
        .clamp(lo, olen);
    lo..hi
}

/// Unfolds one image `[c, h, w]` (a slice of length `c*h*w`) into a column
/// matrix `[c*kh*kw, oh*ow]` stored row-major in `cols`. Out-of-bounds
/// (padding) positions are filled with `zero`.
///
/// No element is bounds-tested. Per `(ci, ki, kj)` the in-bounds output
/// rows and columns are computed once ([`in_bounds`]); rows outside are
/// filled with `zero`. Each in-bounds row's run is a contiguous copy at
/// stride 1 and a strided gather otherwise, and the padding columns of
/// the in-bounds rows are zeroed column by column.
///
/// Generic over the element type so the float trainer and the
/// fixed-point inference engine (`i64` ints) share one unfold
/// implementation.
///
/// # Panics
///
/// Panics (debug) if `cols` does not have exactly `c*kh*kw*oh*ow`
/// elements, and if the kernel does not fit the padded input.
pub fn im2col_into<T: Copy>(
    img: &[T],
    zero: T,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    cols: &mut [T],
) {
    let (oh, ow) = g.out_size(h, w);
    let ncols = oh * ow;
    debug_assert_eq!(cols.len(), c * g.kh * g.kw * ncols);
    for ci in 0..c {
        let plane = &img[ci * h * w..(ci + 1) * h * w];
        for ki in 0..g.kh {
            let ois = in_bounds(ki, h, oh, g);
            for kj in 0..g.kw {
                let js = in_bounds(kj, w, ow, g);
                let row = ((ci * g.kh + ki) * g.kw + kj) * ncols;
                let dst = &mut cols[row..row + ncols];
                if ois.is_empty() || js.is_empty() {
                    dst.fill(zero);
                    continue;
                }
                dst[..ois.start * ow].fill(zero);
                dst[ois.end * ow..].fill(zero);
                for oi in ois.clone() {
                    // Input offset of output position (oi, js.start).
                    let at = (oi * g.stride + ki - g.pad) * w + js.start * g.stride + kj - g.pad;
                    let mid = &mut dst[oi * ow + js.start..oi * ow + js.end];
                    if g.stride == 1 {
                        mid.copy_from_slice(&plane[at..at + mid.len()]);
                    } else {
                        for (d, &v) in mid.iter_mut().zip(plane[at..].iter().step_by(g.stride)) {
                            *d = v;
                        }
                    }
                }
                // Padding columns of the in-bounds rows, one strided
                // pass per column rather than two short fills per row.
                for oj in (0..js.start).chain(js.end..ow) {
                    let col = dst[ois.start * ow + oj..].iter_mut().step_by(ow);
                    for d in col.take(ois.len()) {
                        *d = zero;
                    }
                }
            }
        }
    }
}

fn check_conv_shapes(x: &Tensor, w: &Tensor, depthwise: bool) {
    assert_eq!(x.ndim(), 4, "conv input must be NCHW, got {}", x.shape());
    assert_eq!(w.ndim(), 4, "conv weight must be 4-D, got {}", w.shape());
    if depthwise {
        assert_eq!(
            w.dim(1),
            1,
            "depthwise weight must have channel-multiplier 1, got {}",
            w.shape()
        );
        assert_eq!(
            w.dim(0),
            x.dim(1),
            "depthwise weight channels {} do not match input channels {}",
            w.dim(0),
            x.dim(1)
        );
    } else {
        assert_eq!(
            w.dim(1),
            x.dim(1),
            "weight in-channels {} do not match input channels {}",
            w.dim(1),
            x.dim(1)
        );
    }
}

/// Stages one `[c, h, w]` image for window gathers, as the integer
/// route's `pad_image` does: `ws[..c·hp·wp]` receives the image
/// zero-padded to `hp = h + 2·pad`, `wp = w + 2·pad`, and the next
/// `c·kh·kw` entries the offset of every tap `(ci, ki, kj)` within one
/// padded window. `ws` is [`conv2d_fwd_ws`] long and may be dirty: every
/// element is written.
///
/// # Panics
///
/// Panics if `img` or `ws` is shorter than the shapes imply, or if the
/// kernel does not fit the padded input.
fn stage_windows<'a>(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    ws: &'a mut [f32],
) -> Windows<'a> {
    let (_, ow) = g.out_size(h, w);
    let (p, hp, wp) = (g.pad, h + 2 * g.pad, w + 2 * g.pad);
    let (plane, rest) = ws.split_at_mut(c * hp * wp);
    let taps = &mut rest[..c * g.kh * g.kw];
    for ci in 0..c {
        let dst = &mut plane[ci * hp * wp..(ci + 1) * hp * wp];
        dst[..p * wp].fill(0.0);
        dst[(p + h) * wp..].fill(0.0);
        for i in 0..h {
            let row = &mut dst[(p + i) * wp..(p + i + 1) * wp];
            row[..p].fill(0.0);
            row[p..p + w].copy_from_slice(&img[(ci * h + i) * w..(ci * h + i + 1) * w]);
            row[p + w..].fill(0.0);
        }
    }
    let window = g.kh * g.kw;
    for (t, tap) in taps.iter_mut().enumerate() {
        let (ci, ki, kj) = (t / window, t / g.kw % g.kh, t % g.kw);
        *tap = Windows::tap_bits((ci * hp + ki) * wp + kj);
    }
    Windows {
        plane,
        taps,
        ow,
        stride: g.stride,
        wp,
    }
}

/// Per-image workspace length (f32 elements) for [`conv2d_into`]: the
/// zero-padded image `[c, h+2·pad, w+2·pad]` and its `c*kh*kw` tap table.
pub fn conv2d_fwd_ws(c: usize, h: usize, w: usize, g: Conv2dGeom) -> usize {
    c * (h + 2 * g.pad) * (w + 2 * g.pad) + c * g.kh * g.kw
}

/// Output pixels per block of gradient columns in
/// [`conv2d_backward_into`]: one column block of the GEMM driver.
pub const DX_BLOCK: usize = gemm::NC;

/// Per-image workspace length (f32 elements) for
/// [`conv2d_backward_into`]: the staged image and tap table of
/// [`conv2d_fwd_ws`], one block of gradient columns
/// `[c*kh*kw, min(oh*ow, DX_BLOCK)]`, and one per-image weight-gradient
/// partial `[cout, c*kh*kw]`.
pub fn conv2d_bwd_ws(c: usize, h: usize, w: usize, cout: usize, g: Conv2dGeom) -> usize {
    let (oh, ow) = g.out_size(h, w);
    let krows = c * g.kh * g.kw;
    conv2d_fwd_ws(c, h, w, g) + krows * (oh * ow).min(DX_BLOCK) + cout * krows
}

/// The adjoint of the window gather: adds the gradient columns `cols`
/// `[c*kh*kw, pb]` of output pixels `[p0, p0 + pb)` into `plane`, an
/// image's gradient laid out zero-padded as [`stage_windows`] stages the
/// image, at the offsets of its tap table `taps`. Tap rows are added in
/// ascending `(ci, ki, kj)` order; within a row each pixel's tap lands on
/// a different element. Taps that read padding land in the padding,
/// which [`unstage`] drops.
fn fold_windows(
    cols: &[f32],
    p0: usize,
    taps: &[f32],
    h: usize,
    w: usize,
    g: Conv2dGeom,
    plane: &mut [f32],
) {
    let (_, ow) = g.out_size(h, w);
    let wp = w + 2 * g.pad;
    let pb = cols.len() / taps.len();
    for (row, &bits) in cols.chunks_exact(pb).zip(taps) {
        let tap = Windows::tap_offset(bits);
        // Runs of pixels that share an output row.
        let mut j = 0;
        while j < pb {
            let (oi, oj) = ((p0 + j) / ow, (p0 + j) % ow);
            let len = (ow - oj).min(pb - j);
            let at = (oi * wp + oj) * g.stride + tap;
            let src = &row[j..j + len];
            if g.stride == 1 {
                for (d, &v) in plane[at..at + len].iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in plane[at..].iter_mut().step_by(g.stride).zip(src) {
                    *d += v;
                }
            }
            j += len;
        }
    }
}

/// Copies the interior of a padded `[c, h+2·pad, w+2·pad]` plane into
/// the `[c, h, w]` image `img` (every element is written).
fn unstage(plane: &[f32], h: usize, w: usize, g: Conv2dGeom, img: &mut [f32]) {
    let (hp, wp, p) = (h + 2 * g.pad, w + 2 * g.pad, g.pad);
    for (i, dst) in img.chunks_exact_mut(w).enumerate() {
        let (ci, row) = (i / h, i % h);
        dst.copy_from_slice(&plane[(ci * hp + row + p) * wp + p..][..w]);
    }
}

/// Standard 2-D convolution forward over raw slices with caller-owned
/// workspace: the planned-executor entry point. `xd` is `[n, c, h, w]`,
/// `wpack` the filter matrix `[cout, c*kh*kw]` packed by
/// [`gemm::pack_a_full_into`], `out` is `[n, cout, oh, ow]` (may be
/// dirty; fully overwritten), and `ws` holds `n` per-image workspaces of
/// [`conv2d_fwd_ws`] elements each. Per image, in one parallel region:
/// stage the image, then one serial prepacked GEMM whose B panels are
/// gathered from the windows. The panels hold the im2col matrix's values
/// in its order, so the result is bit-identical to multiplying that
/// matrix.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    xd: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wpack: &[f32],
    cout: usize,
    g: Conv2dGeom,
    out: &mut [f32],
    ws: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    let ncols = oh * ow;
    let krows = c * g.kh * g.kw;
    let per = conv2d_fwd_ws(c, h, w, g);
    assert_eq!(xd.len(), n * c * h * w, "conv input length mismatch");
    assert_eq!(out.len(), n * cout * ncols, "conv output length mismatch");
    assert_eq!(ws.len(), n * per, "conv workspace length mismatch");
    pool::par_chunks_mut2(out, cout * ncols, ws, per, |ni, ochunk, wsi| {
        let win = stage_windows(&xd[ni * c * h * w..(ni + 1) * c * h * w], c, h, w, g, wsi);
        // ochunk[co, :] = W[cout, krows] @ cols[krows, ncols]; GEMM
        // accumulates, so clear the (possibly reused) output chunk first.
        // Serial GEMM — already inside the per-image parallel region.
        ochunk.fill(0.0);
        gemm::gemm(cout, ncols, krows, Lhs::Packed(wpack), Rhs::Windows(win), ochunk, false);
    });
}

/// Standard 2-D convolution backward over raw slices with caller-owned
/// workspace. `gx` (shape of `xd`) is fully overwritten; `gw`
/// `[cout, c*kh*kw]` must arrive **zeroed** — per-image partials are
/// accumulated into it in ascending image order, reproducing the
/// allocating path's serial reduction bit-for-bit. `ws` holds `n`
/// per-image workspaces of [`conv2d_bwd_ws`] elements each.
///
/// The weight gradient gathers its B panels from the staged windows,
/// read transposed. The input gradient `W^T · gy` is computed one
/// [`DX_BLOCK`]-pixel block of gradient columns at a time, each folded
/// into the staged plane (free once the weight gradient is done) through
/// the same windows. The blocks run from the last pixel to the first:
/// for one input element, a later tap `(ci, ki, kj)` reads it from an
/// earlier output pixel, so this order, with each block's tap rows in
/// ascending order, gives every element its adds in ascending tap order,
/// as a fold of the whole column matrix does. Each column's value
/// depends only on its `cout` sum, which the column blocking does not
/// touch, so the result is bit-identical to that fold.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    xd: &[f32],
    wdat: &[f32],
    gyd: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    cout: usize,
    g: Conv2dGeom,
    gx: &mut [f32],
    gw: &mut [f32],
    ws: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    let ncols = oh * ow;
    let krows = c * g.kh * g.kw;
    let staged = conv2d_fwd_ws(c, h, w, g);
    let plane_len = c * (h + 2 * g.pad) * (w + 2 * g.pad);
    let block = ncols.min(DX_BLOCK);
    let per = conv2d_bwd_ws(c, h, w, cout, g);
    assert_eq!(xd.len(), n * c * h * w, "conv input length mismatch");
    assert_eq!(wdat.len(), cout * krows, "conv weight length mismatch");
    assert_eq!(gyd.len(), n * cout * ncols, "conv upstream length mismatch");
    assert_eq!(gx.len(), n * c * h * w, "conv gx length mismatch");
    assert_eq!(gw.len(), cout * krows, "conv gw length mismatch");
    assert_eq!(ws.len(), n * per, "conv workspace length mismatch");
    pool::par_chunks_mut2(gx, c * h * w, ws, per, |ni, gxchunk, wsi| {
        let (stage, rest) = wsi.split_at_mut(staged);
        let (gcols, gwpart) = rest.split_at_mut(krows * block);
        let win = stage_windows(&xd[ni * c * h * w..(ni + 1) * c * h * w], c, h, w, g, stage);
        let gslice = &gyd[ni * cout * ncols..(ni + 1) * cout * ncols];
        // grad_w partial = gy[cout, ncols] @ cols[krows, ncols]^T; GEMM
        // accumulates, so every destination starts zeroed.
        gwpart.fill(0.0);
        let gyrows = Lhs::rows(gslice, ncols);
        gemm::gemm(cout, krows, ncols, gyrows, Rhs::WindowsT(win), gwpart, false);
        // grad_cols[:, block] = W[cout, krows]^T @ gy[cout, block], folded
        // into the plane the image was staged in, last block first.
        let (plane, taps) = stage.split_at_mut(plane_len);
        plane.fill(0.0);
        let wt = Lhs::Strided { a: wdat, rs: 1, cs: krows };
        for p0 in (0..ncols).step_by(block).rev() {
            let pb = block.min(ncols - p0);
            let gcols = &mut gcols[..krows * pb];
            gcols.fill(0.0);
            let gyblock = Rhs::Strided { b: &gslice[p0..], rs: ncols, cs: 1 };
            gemm::gemm(krows, pb, cout, wt, gyblock, gcols, false);
            fold_windows(gcols, p0, taps, h, w, g, plane);
        }
        unstage(plane, h, w, g, gxchunk);
    });
    // Serial weight-gradient reduction in deterministic image order —
    // bit-identical to the serial path regardless of thread count.
    for ni in 0..n {
        let gwpart = &ws[ni * per + per - cout * krows..(ni + 1) * per];
        for (a, &b) in gw.iter_mut().zip(gwpart) {
            *a += b;
        }
    }
}

/// Standard 2-D convolution forward pass.
///
/// Input `x: [n, c_in, h, w]`, weight `w: [c_out, c_in, kh, kw]`; returns
/// `[n, c_out, oh, ow]`.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches, or if the kernel does not
/// fit the padded input.
pub fn conv2d(x: &Tensor, w: &Tensor, g: Conv2dGeom) -> Tensor {
    check_conv_shapes(x, w, false);
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let cout = w.dim(0);
    let (oh, ow) = g.out_size(h, wd);
    let ncols = oh * ow;
    let krows = c * g.kh * g.kw;
    let mut out = vec![0.0f32; n * cout * ncols];
    // Pack the filter matrix once, outside the parallel region; every
    // image's GEMM then reads the same panels instead of re-packing W per
    // image. One workspace checkout for the whole batch (carved per image
    // by the kernel) replaces the former per-image checkouts.
    let mut wpack = Scratch::uninit(gemm::packed_a_len(cout, krows));
    gemm::pack_a_full_into(w.data(), cout, krows, &mut wpack);
    let mut ws = Scratch::uninit(n * conv2d_fwd_ws(c, h, wd, g));
    conv2d_into(x.data(), n, c, h, wd, &wpack, cout, g, &mut out, &mut ws);
    Tensor::from_vec([n, cout, oh, ow], out)
}

/// Standard 2-D convolution backward pass.
///
/// Given the upstream gradient `gy: [n, c_out, oh, ow]`, returns
/// `(grad_input, grad_weight)` with the shapes of `x` and `w`.
///
/// # Panics
///
/// Panics on shape mismatches between `x`, `w`, `gy` and `g`.
pub fn conv2d_backward(x: &Tensor, w: &Tensor, gy: &Tensor, g: Conv2dGeom) -> (Tensor, Tensor) {
    check_conv_shapes(x, w, false);
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let cout = w.dim(0);
    let (oh, ow) = g.out_size(h, wd);
    assert_eq!(
        gy.dims(),
        &[n, cout, oh, ow],
        "upstream gradient shape {} does not match conv output [{n}x{cout}x{oh}x{ow}]",
        gy.shape()
    );
    let krows = c * g.kh * g.kw;

    // One workspace checkout for the whole batch (carved per image by the
    // kernel, reduced serially in deterministic `ni` order) replaces the
    // former per-image checkouts and partial Vecs.
    let mut gx_all = vec![0.0f32; n * c * h * wd];
    let mut gw_all = vec![0.0f32; cout * krows];
    let mut ws = Scratch::uninit(n * conv2d_bwd_ws(c, h, wd, cout, g));
    conv2d_backward_into(
        x.data(),
        w.data(),
        gy.data(),
        n,
        c,
        h,
        wd,
        cout,
        g,
        &mut gx_all,
        &mut gw_all,
        &mut ws,
    );
    (
        Tensor::from_vec([n, c, h, wd], gx_all),
        Tensor::from_vec([cout, c, g.kh, g.kw], gw_all),
    )
}

/// Depthwise 2-D convolution forward pass (channel multiplier 1).
///
/// Input `x: [n, c, h, w]`, weight `w: [c, 1, kh, kw]`; returns
/// `[n, c, oh, ow]`.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
pub fn depthwise_conv2d(x: &Tensor, w: &Tensor, g: Conv2dGeom) -> Tensor {
    check_conv_shapes(x, w, true);
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (oh, ow) = g.out_size(h, wd);
    let mut out = vec![0.0f32; n * c * oh * ow];
    depthwise_conv2d_into(x.data(), n, c, h, wd, w.data(), g, &mut out);
    Tensor::from_vec([n, c, oh, ow], out)
}

/// Depthwise 2-D convolution forward over raw slices: the
/// planned-executor entry point. `out` (`[n, c, oh, ow]`) may be dirty —
/// every element is assigned.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_into(
    xd: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wdat: &[f32],
    g: Conv2dGeom,
    out: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    assert_eq!(xd.len(), n * c * h * w, "depthwise input length mismatch");
    assert_eq!(wdat.len(), c * g.kh * g.kw, "depthwise weight length mismatch");
    assert_eq!(out.len(), n * c * oh * ow, "depthwise output length mismatch");
    pool::par_chunks_mut(out, c * oh * ow, |ni, ochunk| {
        for ci in 0..c {
            let img = &xd[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            let ker = &wdat[ci * g.kh * g.kw..(ci + 1) * g.kh * g.kw];
            let orow = &mut ochunk[ci * oh * ow..(ci + 1) * oh * ow];
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0f32;
                    for ki in 0..g.kh {
                        let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for kj in 0..g.kw {
                            let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                            if jj >= 0 && jj < w as isize {
                                acc += ker[ki * g.kw + kj]
                                    * img[ii as usize * w + jj as usize];
                            }
                        }
                    }
                    orow[oi * ow + oj] = acc;
                }
            }
        }
    });
}

/// Depthwise 2-D convolution backward pass.
///
/// Returns `(grad_input, grad_weight)` with the shapes of `x` and `w`.
///
/// # Panics
///
/// Panics on shape mismatches between `x`, `w`, `gy` and `g`.
pub fn depthwise_conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    g: Conv2dGeom,
) -> (Tensor, Tensor) {
    check_conv_shapes(x, w, true);
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (oh, ow) = g.out_size(h, wd);
    assert_eq!(
        gy.dims(),
        &[n, c, oh, ow],
        "upstream gradient shape {} does not match depthwise output [{n}x{c}x{oh}x{ow}]",
        gy.shape()
    );
    let mut gx_all = vec![0.0f32; n * c * h * wd];
    let mut gw_all = vec![0.0f32; c * g.kh * g.kw];
    let mut ws = Scratch::uninit(n * c * g.kh * g.kw);
    depthwise_conv2d_backward_into(
        x.data(),
        w.data(),
        gy.data(),
        n,
        c,
        h,
        wd,
        g,
        &mut gx_all,
        &mut gw_all,
        &mut ws,
    );
    (
        Tensor::from_vec([n, c, h, wd], gx_all),
        Tensor::from_vec([c, 1, g.kh, g.kw], gw_all),
    )
}

/// Depthwise 2-D convolution backward over raw slices with caller-owned
/// workspace. `gx` (shape of `xd`) is fully overwritten; `gw`
/// (`[c, kh, kw]`) must arrive **zeroed** — per-image partials are
/// accumulated into it in ascending image order, bit-identical to the
/// allocating path's serial reduction. `ws` holds one `c*kh*kw`
/// weight-gradient partial per image.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_backward_into(
    xd: &[f32],
    wdat: &[f32],
    gyd: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    gx: &mut [f32],
    gw: &mut [f32],
    ws: &mut [f32],
) {
    let (oh, ow) = g.out_size(h, w);
    let kelems = c * g.kh * g.kw;
    assert_eq!(xd.len(), n * c * h * w, "depthwise input length mismatch");
    assert_eq!(wdat.len(), kelems, "depthwise weight length mismatch");
    assert_eq!(gyd.len(), n * c * oh * ow, "depthwise upstream length mismatch");
    assert_eq!(gx.len(), n * c * h * w, "depthwise gx length mismatch");
    assert_eq!(gw.len(), kelems, "depthwise gw length mismatch");
    assert_eq!(ws.len(), n * kelems, "depthwise workspace length mismatch");
    pool::par_chunks_mut2(gx, c * h * w, ws, kelems, |ni, gxchunk, gwpart| {
        gxchunk.fill(0.0);
        gwpart.fill(0.0);
        for ci in 0..c {
            let img = &xd[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            let ker = &wdat[ci * g.kh * g.kw..(ci + 1) * g.kh * g.kw];
            let grow = &gyd[(ni * c + ci) * oh * ow..(ni * c + ci + 1) * oh * ow];
            let gximg = &mut gxchunk[ci * h * w..(ci + 1) * h * w];
            let gwker = &mut gwpart[ci * g.kh * g.kw..(ci + 1) * g.kh * g.kw];
            for oi in 0..oh {
                for oj in 0..ow {
                    let gv = grow[oi * ow + oj];
                    if gv == 0.0 { // tqt:allow(float-eq): exact-zero skip is an optimization, not a tolerance
                        continue;
                    }
                    for ki in 0..g.kh {
                        let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for kj in 0..g.kw {
                            let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                            if jj >= 0 && jj < w as isize {
                                let xoff = ii as usize * w + jj as usize;
                                gximg[xoff] += ker[ki * g.kw + kj] * gv;
                                gwker[ki * g.kw + kj] += img[xoff] * gv;
                            }
                        }
                    }
                }
            }
        }
    });
    // Serial weight-gradient reduction in deterministic image order.
    for ni in 0..n {
        let gwpart = &ws[ni * kelems..(ni + 1) * kelems];
        for (a, &b) in gw.iter_mut().zip(gwpart) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unfolds one `f32` image (see [`im2col_into`]): the column matrix the
    /// window gathers replaced, kept as their oracle.
    fn im2col(img: &[f32], c: usize, h: usize, w: usize, g: Conv2dGeom, cols: &mut [f32]) {
        im2col_into(img, 0.0, c, h, w, g, cols);
    }

    /// Folds a column matrix back into an image, accumulating overlaps
    /// (the adjoint of [`im2col_into`]). Each image element receives its adds in
    /// `(ci, ki, kj, oi, oj)` order. Only in-bounds rows and columns
    /// ([`in_bounds`]) are visited, each row's run contiguously at stride 1.
    /// The fold the blocked window fold replaced, kept as its oracle.
    fn col2im(cols: &[f32], c: usize, h: usize, w: usize, g: Conv2dGeom, img: &mut [f32]) {
        let (oh, ow) = g.out_size(h, w);
        let ncols = oh * ow;
        img.fill(0.0);
        for ci in 0..c {
            let plane = &mut img[ci * h * w..(ci + 1) * h * w];
            for ki in 0..g.kh {
                let ois = in_bounds(ki, h, oh, g);
                for kj in 0..g.kw {
                    let js = in_bounds(kj, w, ow, g);
                    if js.is_empty() {
                        continue;
                    }
                    let row = ((ci * g.kh + ki) * g.kw + kj) * ncols;
                    for oi in ois.clone() {
                        let ii = oi * g.stride + ki - g.pad;
                        let dst = &mut plane[ii * w + js.start * g.stride + kj - g.pad..(ii + 1) * w];
                        let src = &cols[row + oi * ow + js.start..row + oi * ow + js.end];
                        if g.stride == 1 {
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(g.stride).zip(src) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn geom_out_sizes() {
        assert_eq!(Conv2dGeom::same(3).out_size(8, 8), (8, 8));
        assert_eq!(Conv2dGeom::new(3, 2, 1).out_size(8, 8), (4, 4));
        assert_eq!(Conv2dGeom::new(2, 2, 0).out_size(8, 8), (4, 4));
        assert_eq!(Conv2dGeom::new(1, 1, 0).out_size(5, 7), (5, 7));
    }

    #[test]
    fn identity_kernel_1x1() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, Conv2dGeom::new(1, 1, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_valid_conv() {
        // 3x3 input, 2x2 kernel of ones => 2x2 output of window sums.
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = Tensor::from_vec([1, 1, 2, 2], vec![1.0; 4]);
        let y = conv2d(&x, &w, Conv2dGeom::new(2, 1, 0));
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn padding_zero_extends() {
        let x = Tensor::from_vec([1, 1, 1, 1], vec![2.0]);
        let w = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv2d(&x, &w, Conv2dGeom::same(3));
        assert_eq!(y.data(), &[2.0]);
    }

    #[test]
    fn multi_channel_sums_inputs() {
        let x = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 4.0]);
        let w = Tensor::from_vec([1, 2, 1, 1], vec![1.0, 10.0]);
        let y = conv2d(&x, &w, Conv2dGeom::new(1, 1, 0));
        assert_eq!(y.data(), &[43.0]);
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let x = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 4.0]);
        let w = Tensor::from_vec([2, 1, 1, 1], vec![2.0, 10.0]);
        let y = depthwise_conv2d(&x, &w, Conv2dGeom::new(1, 1, 0));
        assert_eq!(y.data(), &[6.0, 40.0]);
    }

    /// Finite-difference gradient check for conv2d.
    #[test]
    fn conv2d_gradcheck() {
        let g = Conv2dGeom::new(3, 2, 1);
        let x = Tensor::from_vec(
            [2, 2, 5, 5],
            (0..100).map(|i| ((i * 37 % 19) as f32 - 9.0) / 10.0).collect(),
        );
        let w = Tensor::from_vec(
            [3, 2, 3, 3],
            (0..54).map(|i| ((i * 23 % 17) as f32 - 8.0) / 10.0).collect(),
        );
        let y = conv2d(&x, &w, g);
        // Loss = 0.5 * sum(y^2) => upstream gradient is y itself.
        let (gx, gw) = conv2d_backward(&x, &w, &y, g);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            conv2d(x, w, g).data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 13, 57, 99] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = ((loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - gx.data()[i]).abs() < 2e-2,
                "input grad mismatch at {i}: fd={fd} analytic={}",
                gx.data()[i]
            );
        }
        for &i in &[0usize, 11, 29, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - gw.data()[i]).abs() < 2e-2,
                "weight grad mismatch at {i}: fd={fd} analytic={}",
                gw.data()[i]
            );
        }
    }

    /// Finite-difference gradient check for depthwise conv.
    #[test]
    fn depthwise_gradcheck() {
        let g = Conv2dGeom::same(3);
        let x = Tensor::from_vec(
            [2, 3, 4, 4],
            (0..96).map(|i| ((i * 31 % 23) as f32 - 11.0) / 12.0).collect(),
        );
        let w = Tensor::from_vec(
            [3, 1, 3, 3],
            (0..27).map(|i| ((i * 29 % 13) as f32 - 6.0) / 8.0).collect(),
        );
        let y = depthwise_conv2d(&x, &w, g);
        let (gx, gw) = depthwise_conv2d_backward(&x, &w, &y, g);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            depthwise_conv2d(x, w, g)
                .data()
                .iter()
                .map(|&v| 0.5 * (v as f64) * (v as f64))
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 17, 55, 95] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = ((loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64)) as f32;
            assert!((fd - gx.data()[i]).abs() < 2e-2, "input grad mismatch at {i}");
        }
        for &i in &[0usize, 9, 20, 26] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            assert!((fd - gw.data()[i]).abs() < 2e-2, "weight grad mismatch at {i}");
        }
    }

    /// The per-element im2col the row-wise unfold replaced, kept as its
    /// oracle.
    fn im2col_oracle<T: Copy>(
        img: &[T],
        zero: T,
        c: usize,
        h: usize,
        w: usize,
        g: Conv2dGeom,
        cols: &mut [T],
    ) {
        let (oh, ow) = g.out_size(h, w);
        let ncols = oh * ow;
        for ci in 0..c {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    let row = ((ci * g.kh + ki) * g.kw + kj) * ncols;
                    for oi in 0..oh {
                        let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                        for oj in 0..ow {
                            let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                            cols[row + oi * ow + oj] =
                                if ii < 0 || ii >= h as isize || jj < 0 || jj >= w as isize {
                                    zero
                                } else {
                                    img[(ci * h + ii as usize) * w + jj as usize]
                                };
                        }
                    }
                }
            }
        }
    }

    /// The per-element col2im the row-wise fold replaced, kept as its
    /// oracle: the same `(ci, ki, kj, oi, oj)` add order.
    fn col2im_oracle(cols: &[f32], c: usize, h: usize, w: usize, g: Conv2dGeom, img: &mut [f32]) {
        let (oh, ow) = g.out_size(h, w);
        let ncols = oh * ow;
        img.fill(0.0);
        for ci in 0..c {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    let row = ((ci * g.kh + ki) * g.kw + kj) * ncols;
                    for oi in 0..oh {
                        let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                        for oj in 0..ow {
                            let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                img[(ci * h + ii as usize) * w + jj as usize] +=
                                    cols[row + oi * ow + oj];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Geometries with k 1–5, stride 1–3, pad 0–2 and h, w 1–9 that fit:
    /// all with h or w ≤ 2 and every third of the rest. They include rows
    /// whose in-bounds range is empty: pad ≥ 1 with w = 1 leaves taps that
    /// only read padding.
    fn unfold_geometries() -> Vec<(usize, usize, Conv2dGeom)> {
        let mut out = Vec::new();
        let mut pick = 0usize;
        for k in 1..=5 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for h in 1..=9 {
                        for w in 1..=9 {
                            pick += 1;
                            let sampled = pick.is_multiple_of(3) || h <= 2 || w <= 2;
                            if h + 2 * pad < k || w + 2 * pad < k || !sampled {
                                continue;
                            }
                            out.push((h, w, Conv2dGeom::new(k, stride, pad)));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn row_wise_unfold_matches_oracle_bitwise() {
        let geoms = unfold_geometries();
        assert!(geoms.len() > 500, "only {} geometries", geoms.len());
        let mut empty_rows = 0usize;
        for (t, &(h, w, g)) in geoms.iter().enumerate() {
            let c = 1 + t % 3;
            let (oh, ow) = g.out_size(h, w);
            let len = c * g.kh * g.kw * oh * ow;
            // Distinct, sign-varied values so a misplaced copy shows.
            let img: Vec<f32> = (0..c * h * w)
                .map(|i| ((i * 7919 + t) % 263) as f32 * 0.37 - 48.5)
                .collect();
            let (mut got, mut want) = (vec![f32::NAN; len], vec![0.0f32; len]);
            im2col_into(&img, -0.0, c, h, w, g, &mut got);
            im2col_oracle(&img, -0.0, c, h, w, g, &mut want);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "f32 im2col h={h} w={w} {g:?}");

            let img_i: Vec<i64> = (0..c * h * w).map(|i| i as i64 * 31 - 500).collect();
            let (mut got_i, mut want_i) = (vec![i64::MIN; len], vec![0i64; len]);
            im2col_into(&img_i, 7, c, h, w, g, &mut got_i);
            im2col_oracle(&img_i, 7, c, h, w, g, &mut want_i);
            assert_eq!(got_i, want_i, "i64 im2col h={h} w={w} {g:?}");

            let gcols: Vec<f32> = (0..len)
                .map(|i| ((i * 104_729 + 3 * t) % 1009) as f32 * 1e-3 - 0.4)
                .collect();
            let (mut got_x, mut want_x) = (vec![f32::NAN; c * h * w], vec![0.0; c * h * w]);
            col2im(&gcols, c, h, w, g, &mut got_x);
            col2im_oracle(&gcols, c, h, w, g, &mut want_x);
            assert_eq!(bits(&got_x), bits(&want_x), "col2im h={h} w={w} {g:?}");

            empty_rows += (0..g.kw)
                .filter(|&kj| in_bounds(kj, w, ow, g).is_empty())
                .count();
        }
        assert!(
            empty_rows > 0,
            "no geometry exercised an empty column range"
        );
    }

    /// The im2col + GEMM (+ col2im) path the window gathers replaced,
    /// kept as their oracle: per image, the column matrix, the prepacked
    /// forward GEMM over it, the `gemm_nt` weight-gradient partial over
    /// it, and the `gemm_tn` + [`col2im`] input gradient; partials summed
    /// in image order. Returns `(y, gx, gw)`.
    #[allow(clippy::too_many_arguments)]
    fn conv_im2col_oracle(
        xd: &[f32],
        wdat: &[f32],
        gyd: &[f32],
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        cout: usize,
        g: Conv2dGeom,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (oh, ow) = g.out_size(h, w);
        let (krows, ncols, img) = (c * g.kh * g.kw, oh * ow, c * h * w);
        let mut wpack = vec![0.0; gemm::packed_a_len(cout, krows)];
        gemm::pack_a_full_into(wdat, cout, krows, &mut wpack);
        let (mut y, mut gx) = (vec![0.0; n * cout * ncols], vec![0.0; n * img]);
        let mut gw = vec![0.0; cout * krows];
        let mut cols = vec![0.0; krows * ncols];
        for ni in 0..n {
            im2col(&xd[ni * img..(ni + 1) * img], c, h, w, g, &mut cols);
            let yi = &mut y[ni * cout * ncols..(ni + 1) * cout * ncols];
            gemm::gemm_nn_prepacked_slice(cout, ncols, krows, &wpack, &cols, yi, false);
            let gyi = &gyd[ni * cout * ncols..(ni + 1) * cout * ncols];
            let mut gwpart = vec![0.0; cout * krows];
            gemm::gemm_nt(cout, krows, ncols, gyi, &cols, &mut gwpart, false);
            let mut gcols = vec![0.0; krows * ncols];
            gemm::gemm_tn(krows, ncols, cout, wdat, gyi, &mut gcols, false);
            col2im(&gcols, c, h, w, g, &mut gx[ni * img..(ni + 1) * img]);
            for (a, &b) in gw.iter_mut().zip(&gwpart) {
                *a += b;
            }
        }
        (y, gx, gw)
    }

    /// `rhs` packed block by block as the GEMM driver packs a `[k, n]`
    /// operand, as bit patterns.
    fn packed_panels(rhs: Rhs, k: usize, n: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for jc in (0..n).step_by(gemm::NC) {
            let nc = gemm::NC.min(n - jc);
            for pc in (0..k).step_by(gemm::KC) {
                let kc = gemm::KC.min(k - pc);
                let mut panel = vec![f32::NAN; nc.div_ceil(gemm::NR) * gemm::NR * kc];
                rhs.pack(pc, jc, kc, nc, &mut panel);
                out.extend(panel.iter().map(|v| v.to_bits()));
            }
        }
        out
    }

    #[test]
    fn window_conv_matches_im2col_oracle_bitwise() {
        // (c, h, w, geom): the unfold sweep, plus layers past one KC slab
        // of taps, past one NC block of pixels (and so, read transposed,
        // past one KC slab of pixels), both at once, and past one NC
        // block of taps.
        let mut geoms: Vec<(usize, usize, usize, Conv2dGeom)> = unfold_geometries()
            .into_iter()
            .enumerate()
            .map(|(t, (h, w, g))| (1 + t % 3, h, w, g))
            .collect();
        geoms.extend([
            (30, 6, 6, Conv2dGeom::same(3)),
            (2, 24, 24, Conv2dGeom::same(3)),
            (29, 23, 23, Conv2dGeom::same(3)),
            (60, 5, 7, Conv2dGeom::new(3, 2, 1)),
        ]);
        let ncols = |&(_, h, w, g): &(usize, usize, usize, Conv2dGeom)| {
            let (oh, ow) = g.out_size(h, w);
            oh * ow
        };
        let krows = |&(c, _, _, g): &(usize, usize, usize, Conv2dGeom)| c * g.kh * g.kw;
        assert!(geoms
            .iter()
            .any(|s| krows(s) > gemm::KC && ncols(s) > gemm::NC));
        assert!(geoms.iter().any(|s| krows(s) > gemm::NC));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (t, &(c, h, w, g)) in geoms.iter().enumerate() {
            let (oh, ow) = g.out_size(h, w);
            let (kr, nc, img) = (c * g.kh * g.kw, oh * ow, c * h * w);
            // Distinct, sign-varied values so a misplaced tap shows.
            let x: Vec<f32> = (0..3 * img)
                .map(|i| ((i * 7919 + t) % 263) as f32 * 0.037 - 4.85)
                .collect();

            // The gathered panels hold the column matrix's bits exactly,
            // read straight and transposed.
            let mut cols = vec![0.0; kr * nc];
            im2col(&x[..img], c, h, w, g, &mut cols);
            let mut ws = vec![f32::NAN; conv2d_fwd_ws(c, h, w, g)];
            let win = stage_windows(&x[..img], c, h, w, g, &mut ws);
            assert_eq!(
                packed_panels(Rhs::Windows(win), kr, nc),
                packed_panels(Rhs::rows(&cols, nc), kr, nc),
                "B panels c={c} h={h} w={w} {g:?}"
            );
            let cols_t = Rhs::Strided { b: &cols, rs: 1, cs: nc };
            assert_eq!(
                packed_panels(Rhs::WindowsT(win), nc, kr),
                packed_panels(cols_t, nc, kr),
                "transposed B panels c={c} h={h} w={w} {g:?}"
            );

            for cout in [1usize, 7, 16, 17] {
                let wdat: Vec<f32> = (0..cout * kr)
                    .map(|i| ((i * 104_729 + 5 * t) % 211) as f32 * 0.01 - 1.05)
                    .collect();
                let mut wpack = vec![0.0; gemm::packed_a_len(cout, kr)];
                gemm::pack_a_full_into(&wdat, cout, kr, &mut wpack);
                for n in [1usize, 3] {
                    let xd = &x[..n * img];
                    let gy: Vec<f32> = (0..n * cout * nc)
                        .map(|i| ((i * 6151 + 3 * t) % 509) as f32 * 0.004 - 1.01)
                        .collect();
                    let (y0, gx0, gw0) = conv_im2col_oracle(xd, &wdat, &gy, n, c, h, w, cout, g);
                    for threads in [1, 4] {
                        tqt_rt::pool::set_threads(threads);
                        let at = format!("c={c} h={h} w={w} {g:?} cout={cout} n={n} threads={threads}");
                        let mut y = vec![f32::NAN; n * cout * nc];
                        let mut ws = vec![f32::NAN; n * conv2d_fwd_ws(c, h, w, g)];
                        conv2d_into(xd, n, c, h, w, &wpack, cout, g, &mut y, &mut ws);
                        assert_eq!(bits(&y), bits(&y0), "forward {at}");
                        let (mut gx, mut gw) = (vec![f32::NAN; n * img], vec![0.0; cout * kr]);
                        let mut ws = vec![f32::NAN; n * conv2d_bwd_ws(c, h, w, cout, g)];
                        conv2d_backward_into(
                            xd, &wdat, &gy, n, c, h, w, cout, g, &mut gx, &mut gw, &mut ws,
                        );
                        assert_eq!(bits(&gw), bits(&gw0), "dW {at}");
                        assert_eq!(bits(&gx), bits(&gx0), "dX {at}");
                    }
                }
            }
        }
        tqt_rt::pool::set_threads(0);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, Conv2dGeom::new(1, 2, 0));
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0., 2., 8., 10.]);
    }

    #[test]
    #[should_panic(expected = "in-channels")]
    fn channel_mismatch_panics() {
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w = Tensor::zeros([2, 2, 3, 3]);
        conv2d(&x, &w, Conv2dGeom::same(3));
    }
}
