//! Elementwise and broadcasting arithmetic on [`Tensor`]s.
//!
//! Only the broadcasting patterns the NN stack needs are supported:
//! same-shape binary ops, scalar broadcast, and per-channel broadcast over
//! NCHW activations (used by batch-norm and bias-add).

use crate::tensor::Tensor;

/// Elementwise addition of two same-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x + y)
}

/// Elementwise subtraction `a - b` of two same-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x - y)
}

/// Elementwise multiplication of two same-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x * y)
}

/// Elementwise division `a / b` of two same-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x / y)
}

/// Adds `s` to every element.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x + s)
}

/// Multiplies every element by `s`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// In-place `a += alpha * b` (axpy), the workhorse of gradient accumulation.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn axpy(a: &mut Tensor, alpha: f32, b: &Tensor) {
    assert!(
        a.shape().same_as(b.shape()),
        "axpy shape mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    for (x, &y) in a.data_mut().iter_mut().zip(b.data()) {
        *x += alpha * y;
    }
}

/// Adds a per-channel vector to an NCHW (or `[N, C]`) tensor in place:
/// `a[n,c,h,w] += bias[c]`.
///
/// # Panics
///
/// Panics if `a` is not 2-D or 4-D, or if `bias` is not 1-D with length
/// equal to the channel dimension of `a`.
pub fn add_channel_inplace(a: &mut Tensor, bias: &Tensor) {
    let c = channel_dim(a);
    assert_eq!(
        bias.dims(),
        &[c],
        "bias shape {} does not match channel dim {}",
        bias.shape(),
        c
    );
    let n = a.dim(0);
    add_channel_into(a.data_mut(), n, bias.data());
}

/// [`add_channel_inplace`] over a raw `[n, bias.len(), spatial]` slice:
/// adds `bias[c]` to every element of each `(image, channel)` block.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n * bias.len()`.
pub fn add_channel_into(data: &mut [f32], n: usize, bias: &[f32]) {
    let spatial = channel_spatial(data.len(), n, bias.len());
    for img in data.chunks_exact_mut(bias.len() * spatial) {
        for (block, &bv) in img.chunks_exact_mut(spatial).zip(bias) {
            for v in block {
                *v += bv;
            }
        }
    }
}

/// Sums an NCHW (or `[N, C]`) tensor over all axes except channels,
/// producing a 1-D `[C]` tensor. This is the adjoint of
/// [`add_channel_inplace`].
///
/// # Panics
///
/// Panics if `a` is not 2-D or 4-D.
pub fn sum_over_channel(a: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; channel_dim(a)];
    sum_channel_into(a.data(), a.dim(0), &mut out);
    Tensor::from_vec(out.len(), out)
}

/// [`sum_over_channel`] over a raw `[n, out.len(), spatial]` slice,
/// accumulating onto `out`: each `(image, channel)` block is summed on
/// its own, then added to `out[c]` in ascending image order.
///
/// # Panics
///
/// Panics if `src.len()` is not a multiple of `n * out.len()`.
pub fn sum_channel_into(src: &[f32], n: usize, out: &mut [f32]) {
    let spatial = channel_spatial(src.len(), n, out.len());
    for img in src.chunks_exact(out.len() * spatial) {
        for (o, block) in out.iter_mut().zip(img.chunks_exact(spatial)) {
            *o += block.iter().sum::<f32>();
        }
    }
}

/// The per-block length of a `[n, c, spatial]` slice of `len` elements.
fn channel_spatial(len: usize, n: usize, c: usize) -> usize {
    assert!(
        n * c > 0 && len.is_multiple_of(n * c),
        "{len} elements do not split into {n} images of {c} channels"
    );
    len / (n * c)
}

fn channel_dim(a: &Tensor) -> usize {
    match a.ndim() {
        2 | 4 => a.dim(1),
        n => panic!("channel ops require 2-D [N,C] or 4-D NCHW tensors, got rank {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!(add(&a, &b).data(), &[4.0, 7.0]);
        assert_eq!(sub(&a, &b).data(), &[-2.0, -3.0]);
        assert_eq!(mul(&a, &b).data(), &[3.0, 10.0]);
        assert_eq!(div(&b, &a).data(), &[3.0, 2.5]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(add_scalar(&a, 1.0).data(), &[2.0, -1.0]);
        assert_eq!(scale(&a, -2.0).data(), &[-2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        axpy(&mut a, 0.5, &Tensor::from_slice(&[2.0, 4.0]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn channel_add_4d() {
        // N=1, C=2, H=1, W=2
        let mut a = Tensor::from_vec([1, 2, 1, 2], vec![0., 0., 0., 0.]);
        add_channel_inplace(&mut a, &Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(a.data(), &[1., 1., 2., 2.]);
    }

    #[test]
    fn channel_add_2d() {
        let mut a = Tensor::from_vec([2, 2], vec![0., 0., 10., 10.]);
        add_channel_inplace(&mut a, &Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(a.data(), &[1., 2., 11., 12.]);
    }

    #[test]
    fn channel_sum_is_adjoint_of_add() {
        let a = Tensor::from_vec([2, 2, 1, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let s = sum_over_channel(&a);
        assert_eq!(s.data(), &[1. + 2. + 5. + 6., 3. + 4. + 7. + 8.]);
    }

    #[test]
    #[should_panic(expected = "channel ops require")]
    fn channel_ops_reject_3d() {
        sum_over_channel(&Tensor::zeros([2, 2, 2]));
    }
}
