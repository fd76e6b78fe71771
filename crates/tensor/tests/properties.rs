//! Property-based tests for the tensor substrate, on the in-repo
//! `tqt_rt::check` harness (256 cases per property by default).

use tqt_rt::check::gen;
use tqt_rt::{check, prop_assert, prop_assert_eq, Gen};
use tqt_tensor::conv::{conv2d, conv2d_backward, depthwise_conv2d, Conv2dGeom};
use tqt_tensor::{matmul, matmul_nt, matmul_tn, ops, reduce, stats, Tensor};

/// Fixed-length vector with elements in `[-10, 10)` (the proptest
/// `small_vec` strategy these tests were originally written against).
fn small_vec(len: usize) -> Gen<Vec<f32>> {
    gen::vec_f32(-10.0, 10.0, len, len + 1)
}

/// Reshape never changes the underlying data.
#[test]
fn reshape_preserves_data() {
    check!(small_vec(12), |data: &Vec<f32>| {
        let t = Tensor::from_vec([3, 4], data.clone());
        let r1 = t.reshape([2, 6]);
        let r2 = t.reshape([12]);
        prop_assert_eq!(r1.data(), &data[..]);
        prop_assert_eq!(r2.data(), &data[..]);
        Ok(())
    });
}

/// Double transpose is the identity.
#[test]
fn transpose_involution() {
    check!(small_vec(15), |data: &Vec<f32>| {
        let t = Tensor::from_vec([3, 5], data.clone());
        prop_assert_eq!(t.transpose2().transpose2(), t);
        Ok(())
    });
}

/// Elementwise add commutes; sub anti-commutes.
#[test]
fn add_commutes() {
    check!(
        gen::zip2(small_vec(8), small_vec(8)),
        |(a, b): &(Vec<f32>, Vec<f32>)| {
            let ta = Tensor::from_vec([2, 4], a.clone());
            let tb = Tensor::from_vec([2, 4], b.clone());
            prop_assert_eq!(ops::add(&ta, &tb), ops::add(&tb, &ta));
            let anti = ops::add(&ops::sub(&ta, &tb), &ops::sub(&tb, &ta));
            prop_assert!(anti.max_abs_diff(&Tensor::zeros([2, 4])) <= 1e-6);
            Ok(())
        }
    );
}

/// matmul distributes over addition: (A+B)C = AC + BC.
#[test]
fn matmul_distributes() {
    check!(
        gen::zip3(small_vec(6), small_vec(6), small_vec(8)),
        |(a, b, c): &(Vec<f32>, Vec<f32>, Vec<f32>)| {
            let ta = Tensor::from_vec([3, 2], a.clone());
            let tb = Tensor::from_vec([3, 2], b.clone());
            let tc = Tensor::from_vec([2, 4], c.clone());
            let lhs = matmul(&ops::add(&ta, &tb), &tc);
            let rhs = ops::add(&matmul(&ta, &tc), &matmul(&tb, &tc));
            prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-3);
            Ok(())
        }
    );
}

/// Transposed-variant matmuls agree with explicit transposes.
#[test]
fn matmul_variants_agree() {
    check!(
        gen::zip2(small_vec(6), small_vec(8)),
        |(a, b): &(Vec<f32>, Vec<f32>)| {
            let ta = Tensor::from_vec([3, 2], a.clone());
            let tb = Tensor::from_vec([2, 4], b.clone());
            let plain = matmul(&ta, &tb);
            prop_assert!(matmul_tn(&ta.transpose2(), &tb).max_abs_diff(&plain) <= 1e-4);
            prop_assert!(matmul_nt(&ta, &tb.transpose2()).max_abs_diff(&plain) <= 1e-4);
            Ok(())
        }
    );
}

/// Convolution is linear in its input.
#[test]
fn conv_linear_in_input() {
    check!(
        gen::zip3(small_vec(32), small_vec(32), small_vec(18)),
        |(x1, x2, w): &(Vec<f32>, Vec<f32>, Vec<f32>)| {
            let g = Conv2dGeom::same(3);
            let t1 = Tensor::from_vec([1, 2, 4, 4], x1.clone());
            let t2 = Tensor::from_vec([1, 2, 4, 4], x2.clone());
            let tw = Tensor::from_vec([1, 2, 3, 3], w.clone());
            let lhs = conv2d(&ops::add(&t1, &t2), &tw, g);
            let rhs = ops::add(&conv2d(&t1, &tw, g), &conv2d(&t2, &tw, g));
            prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-3);
            Ok(())
        }
    );
}

/// The conv backward input-gradient operator is the adjoint of the
/// forward operator: <conv(x), y> == <x, conv_backward_input(y)>.
#[test]
fn conv_backward_is_adjoint() {
    check!(
        gen::zip3(small_vec(32), small_vec(32), small_vec(18)),
        |(x, y, w): &(Vec<f32>, Vec<f32>, Vec<f32>)| {
            let g = Conv2dGeom::same(3);
            let tx = Tensor::from_vec([1, 2, 4, 4], x.clone());
            let ty = Tensor::from_vec([1, 1, 4, 4], y[..16].to_vec());
            let tw = Tensor::from_vec([1, 2, 3, 3], w.clone());
            let fwd = conv2d(&tx, &tw, g);
            let (gx, _) = conv2d_backward(&tx, &tw, &ty, g);
            let lhs: f32 = fwd.data().iter().zip(ty.data()).map(|(&a, &b)| a * b).sum();
            let rhs: f32 = tx.data().iter().zip(gx.data()).map(|(&a, &b)| a * b).sum();
            prop_assert!(
                (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
                "adjoint mismatch: {lhs} vs {rhs}"
            );
            Ok(())
        }
    );
}

/// Depthwise conv with a one-hot center kernel is the identity.
#[test]
fn depthwise_center_identity() {
    check!(small_vec(32), |x: &Vec<f32>| {
        let tx = Tensor::from_vec([1, 2, 4, 4], x.clone());
        let mut w = Tensor::zeros([2, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0);
        w.set(&[1, 0, 1, 1], 1.0);
        let y = depthwise_conv2d(&tx, &w, Conv2dGeom::same(3));
        prop_assert!(y.max_abs_diff(&tx) <= 1e-6);
        Ok(())
    });
}

/// Per-channel sum is the adjoint of per-channel broadcast-add.
#[test]
fn channel_sum_adjoint() {
    check!(
        gen::zip2(small_vec(24), small_vec(3)),
        |(x, b): &(Vec<f32>, Vec<f32>)| {
            let tx = Tensor::from_vec([2, 3, 2, 2], x.clone());
            let tb = Tensor::from_vec([3], b.clone());
            // <x + broadcast(b), 1> - <x, 1> == <b, channel_counts>
            let mut added = tx.clone();
            ops::add_channel_inplace(&mut added, &tb);
            let diff = reduce::sum(&added) - reduce::sum(&tx);
            let expected = tb.data().iter().sum::<f32>() * 8.0; // n*h*w = 2*2*2
            prop_assert!((diff - expected).abs() < 1e-3);
            Ok(())
        }
    );
}

/// Histogram total mass always equals the element count.
#[test]
fn histogram_mass() {
    check!(small_vec(50), |x: &Vec<f32>| {
        let t = Tensor::from_vec([50], x.clone());
        let h = stats::Histogram::from_tensor(&t, 16);
        prop_assert_eq!(h.total(), 50.0);
        Ok(())
    });
}

/// abs_percentile is monotone in q and bounded by abs_max.
#[test]
fn percentile_monotone() {
    check!(
        gen::zip3(small_vec(20), gen::f32_in(0.0, 100.0), gen::f32_in(0.0, 100.0)),
        |(x, q1, q2): &(Vec<f32>, f32, f32)| {
            let t = Tensor::from_vec([20], x.clone());
            let (lo, hi) = if q1 <= q2 { (*q1, *q2) } else { (*q2, *q1) };
            let p_lo = stats::abs_percentile(&t, lo);
            let p_hi = stats::abs_percentile(&t, hi);
            prop_assert!(p_lo <= p_hi + 1e-6);
            prop_assert!(p_hi <= t.abs_max() + 1e-6);
            Ok(())
        }
    );
}
