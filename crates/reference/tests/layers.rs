//! Values and finite-difference gradients of the per-layer forward and
//! backward: hand-computed outputs (padded pooling included), gradient
//! routing, and central-difference checks of every layer's input and
//! parameter gradients. The layers compute through the same slice
//! kernels the planned float executor calls.

mod activations {
    use tqt_nn::Relu;
    use tqt_reference::{gradcheck_layer, Cached, Mode};
    use tqt_tensor::{init, Tensor};

    #[test]
    fn relu_forward() {
        let mut r = Cached::new(Relu::new());
        let y = r.forward(&[&Tensor::from_slice(&[-1.0, 0.0, 2.0])], Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu6_caps() {
        let mut r = Cached::new(Relu::relu6());
        let y = r.forward(&[&Tensor::from_slice(&[-1.0, 3.0, 9.0])], Mode::Eval);
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn leaky_negative_slope() {
        let mut r = Cached::new(Relu::leaky(0.1));
        let y = r.forward(&[&Tensor::from_slice(&[-2.0, 4.0])], Mode::Eval);
        assert_eq!(y.data(), &[-0.2, 4.0]);
    }

    #[test]
    fn gradients_mask_correctly() {
        let mut r = Cached::new(Relu::relu6());
        let x = Tensor::from_slice(&[-1.0, 3.0, 9.0]);
        r.forward(&[&x], Mode::Train);
        let g = r.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0])).remove(0);
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn leaky_gradcheck() {
        let mut rng = init::rng(30);
        let mut r = Relu::leaky(0.1);
        // Keep probes away from the kink at 0.
        let x = init::uniform([64], 0.2, 2.0, &mut rng).zip_map(
            &init::uniform([64], -2.0, -0.2, &mut rng),
            |a, b| {
                if (a + b) > 0.0 {
                    a
                } else {
                    b
                }
            },
        );
        gradcheck_layer(&mut r, &[x], 1e-3, 1e-2);
    }
}

mod conv {
    use tqt_nn::{Conv2d, DepthwiseConv2d};
    use tqt_reference::{gradcheck_layer, Cached, Mode};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::{init, Tensor};

    #[test]
    fn conv_gradcheck() {
        let mut rng = init::rng(10);
        let mut l = Conv2d::new("c", 2, 3, Conv2dGeom::new(3, 2, 1), &mut rng);
        let x = init::normal([2, 2, 5, 5], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut l, &[x], 1e-2, 3e-2);
    }

    #[test]
    fn depthwise_gradcheck() {
        let mut rng = init::rng(11);
        let mut l = DepthwiseConv2d::new("dw", 3, Conv2dGeom::same(3), &mut rng);
        let x = init::normal([2, 3, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut l, &[x], 1e-2, 3e-2);
    }

    #[test]
    fn conv_bias_broadcasts() {
        let w = Tensor::zeros([2, 1, 1, 1]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        let mut l = Cached::new(Conv2d::from_parts(
            "c",
            w,
            Some(b),
            Conv2dGeom::new(1, 1, 0),
        ));
        let x = Tensor::zeros([1, 1, 2, 2]);
        let y = l.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[1., 1., 1., 1., -1., -1., -1., -1.]);
    }

    #[test]
    fn output_shape_stride2() {
        let mut rng = init::rng(12);
        let mut l = Cached::new(Conv2d::new("c", 3, 8, Conv2dGeom::new(3, 2, 1), &mut rng));
        let y = l.forward(&[&Tensor::zeros([1, 3, 32, 32])], Mode::Eval);
        assert_eq!(y.dims(), &[1, 8, 16, 16]);
    }
}

mod dense {
    use tqt_nn::{Dense, Layer};
    use tqt_reference::{gradcheck_layer, Cached, Mode};
    use tqt_tensor::{init, Tensor};

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_slice(&[10., 20.]);
        let mut d = Cached::new(Dense::from_parts("d", w, Some(b)));
        let x = Tensor::from_vec([1, 2], vec![1., 1.]);
        let y = d.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn gradcheck() {
        let mut rng = init::rng(1);
        let mut d = Dense::new("d", 5, 3, &mut rng);
        let x = init::normal([4, 5], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut d, &[x], 1e-2, 2e-2);
    }

    #[test]
    fn bias_gradient_is_row_sum() {
        let mut rng = init::rng(2);
        let mut d = Cached::new(Dense::new("d", 2, 2, &mut rng));
        let x = Tensor::from_vec([3, 2], vec![1.; 6]);
        d.forward(&[&x], Mode::Train);
        let gy = Tensor::from_vec([3, 2], vec![1., 2., 1., 2., 1., 2.]);
        d.backward(&gy);
        assert_eq!(d.params()[1].grad.data(), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_requires_forward() {
        let mut rng = init::rng(3);
        let mut d = Cached::new(Dense::new("d", 2, 2, &mut rng));
        d.backward(&Tensor::zeros([1, 2]));
    }
}

mod batchnorm {
    use tqt_nn::{BatchNorm, Layer};
    use tqt_reference::{gradcheck_layer, Cached, Mode};
    use tqt_tensor::{init, ops, Tensor};

    #[test]
    fn normalizes_batch_to_zero_mean_unit_var() {
        let mut bn = Cached::new(BatchNorm::new("bn", 2, 0.9, 1e-5));
        let mut rng = init::rng(20);
        let x = init::normal([8, 2, 4, 4], 3.0, 2.0, &mut rng);
        let y = bn.forward(&[&x], Mode::Train);
        for c in 0..2 {
            // Channel c's 8 blocks of 16 elements, in f64.
            let vals: Vec<f64> = (0..8)
                .flat_map(|n| y.data()[(n * 2 + c) * 16..(n * 2 + c + 1) * 16].iter())
                .map(|&v| v as f64)
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = Cached::new(BatchNorm::new("bn", 1, 0.9, 1e-5));
        bn.set_running_stats(Tensor::from_slice(&[2.0]), Tensor::from_slice(&[4.0]));
        let x = Tensor::from_vec([1, 1, 1, 2], vec![2.0, 4.0]);
        let y = bn.forward(&[&x], Mode::Eval);
        // (2-2)/2 = 0 ; (4-2)/2 = 1
        assert!((y.data()[0]).abs() < 1e-3);
        assert!((y.data()[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn frozen_stats_stop_updating() {
        let mut bn = Cached::new(BatchNorm::new("bn", 1, 0.5, 1e-5));
        bn.freeze_stats();
        let before = bn.running_stats().0.clone();
        let x = Tensor::from_vec([2, 1, 1, 1], vec![10.0, 20.0]);
        bn.forward(&[&x], Mode::Train);
        assert_eq!(bn.running_stats().0, &before);
    }

    #[test]
    fn running_stats_converge_to_distribution() {
        let mut bn = Cached::new(BatchNorm::new("bn", 1, 0.8, 1e-5));
        let mut rng = init::rng(21);
        for _ in 0..200 {
            let x = init::normal([16, 1, 2, 2], 5.0, 3.0, &mut rng);
            bn.forward(&[&x], Mode::Train);
        }
        let (m, v) = bn.running_stats();
        assert!((m.data()[0] - 5.0).abs() < 0.3, "mean {}", m.data()[0]);
        assert!((v.data()[0] - 9.0).abs() < 1.5, "var {}", v.data()[0]);
    }

    #[test]
    fn gradcheck_frozen_stats() {
        let mut rng = init::rng(22);
        let mut bn = BatchNorm::new("bn", 3, 0.9, 1e-5);
        bn.params_mut()[0].value = init::uniform([3], 0.5, 1.5, &mut rng);
        bn.params_mut()[1].value = init::uniform([3], -0.5, 0.5, &mut rng);
        bn.set_running_stats(
            init::uniform([3], -0.5, 0.5, &mut rng),
            init::uniform([3], 0.5, 2.0, &mut rng),
        );
        // Freeze statistics so training and eval forwards coincide (the
        // affine path); the gradcheck utility probes through Eval.
        bn.freeze_stats();
        let x = init::normal([4, 3, 2, 2], 0.0, 1.0, &mut rng);
        gradcheck_layer(&mut bn, &[x], 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_batch_stats_manual() {
        // Finite-difference the batch-statistics path directly (the
        // generic utility probes through Eval, which uses different
        // statistics).
        let mut rng = init::rng(24);
        let mut bn = Cached::new(BatchNorm::new("bn", 2, 0.9, 1e-5));
        bn.params_mut()[0].value = init::uniform([2], 0.5, 1.5, &mut rng);
        bn.params_mut()[1].value = init::uniform([2], -0.5, 0.5, &mut rng);
        let x = init::normal([3, 2, 2, 2], 0.5, 1.3, &mut rng);
        let y = bn.forward(&[&x], Mode::Train);
        let gy = y.clone(); // L = 0.5 sum y^2
        let dx = bn.backward(&gy).remove(0);
        let loss = |bn: &mut Cached<BatchNorm>, x: &Tensor| -> f64 {
            let y = bn.forward(&[x], Mode::Train);
            y.data()
                .iter()
                .map(|&v| 0.5 * (v as f64) * (v as f64))
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 11, 17, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = ((loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - dx.data()[i]).abs() < 3e-2 * (1.0 + fd.abs()),
                "batch-stats input grad mismatch at {i}: fd={fd} analytic={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn batch_backward_zero_sum_identity() {
        // With batch statistics, the per-channel input gradient must have
        // zero mean and be orthogonal to xhat (both follow from the
        // projection structure of the BN backward).
        let mut rng = init::rng(23);
        let mut bn = Cached::new(BatchNorm::new("bn", 2, 0.9, 1e-5));
        let x = init::normal([4, 2, 3, 3], 1.0, 2.0, &mut rng);
        let y = bn.forward(&[&x], Mode::Train);
        let gy = init::normal(y.shape().clone(), 0.0, 1.0, &mut rng);
        let dx = bn.backward(&gy).remove(0);
        let sums = ops::sum_over_channel(&dx);
        for c in 0..2 {
            assert!(
                sums.data()[c].abs() < 1e-3,
                "channel {c} sum {}",
                sums.data()[c]
            );
        }
    }

    #[test]
    fn fold_params_linearize_the_op() {
        let mut bn = Cached::new(BatchNorm::new("bn", 1, 0.9, 1e-5));
        bn.set_running_stats(Tensor::from_slice(&[1.5]), Tensor::from_slice(&[0.25]));
        bn.params_mut()[0].value = Tensor::from_slice(&[2.0]); // gamma
        bn.params_mut()[1].value = Tensor::from_slice(&[0.5]); // beta
        let (scale, shift) = bn.fold_params();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![0.0, 1.5, 3.0]);
        let y = bn.forward(&[&x], Mode::Eval);
        let folded = x.map(|v| v * scale.data()[0] + shift.data()[0]);
        y.assert_close(&folded, 1e-4);
    }
}

mod pool {
    use tqt_nn::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};
    use tqt_reference::{gradcheck_layer, Cached, Mode};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::{init, Tensor};

    #[test]
    fn max_pool_known() {
        let mut p = Cached::new(MaxPool2d::k2s2());
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = p.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut p = Cached::new(MaxPool2d::k2s2());
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        p.forward(&[&x], Mode::Train);
        let g = p
            .backward(&Tensor::from_vec([1, 1, 1, 1], vec![5.0]))
            .remove(0);
        assert_eq!(g.data(), &[0., 0., 0., 5.0]);
    }

    #[test]
    fn avg_pool_known() {
        let mut p = Cached::new(AvgPool2d::new(Conv2dGeom::new(2, 2, 0)));
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = p.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn padded_max_pool_known() {
        // Inception's pool branch: 3x3, stride 1, pad 1. Channel 1 is all
        // negative, so a zero-valued padding tap would win if it counted.
        let mut p = Cached::new(MaxPool2d::new(Conv2dGeom::new(3, 1, 1)));
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
        let mut p = Cached::new(AvgPool2d::new(Conv2dGeom::new(3, 1, 1)));
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
        let mut f = Cached::new(Flatten::new());
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

mod merge {
    use tqt_nn::{Concat, EltwiseAdd};
    use tqt_reference::{Cached, Mode};
    use tqt_tensor::Tensor;

    #[test]
    fn add_forward_backward() {
        let mut l = Cached::new(EltwiseAdd::new());
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
        let mut l = Cached::new(Concat::new());
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
        let mut l = Cached::new(Concat::new());
        let a = Tensor::from_vec([2, 1], vec![1., 2.]);
        let b = Tensor::from_vec([2, 2], vec![3., 4., 5., 6.]);
        let y = l.forward(&[&a, &b], Mode::Eval);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.data(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn concat_batched_interleaves_correctly() {
        let mut l = Cached::new(Concat::new());
        let a = Tensor::from_vec([2, 1, 1, 1], vec![1., 2.]);
        let b = Tensor::from_vec([2, 1, 1, 1], vec![10., 20.]);
        let y = l.forward(&[&a, &b], Mode::Eval);
        assert_eq!(y.data(), &[1., 10., 2., 20.]);
    }

    #[test]
    #[should_panic(expected = "spatial mismatch")]
    fn concat_checks_spatial() {
        let mut l = Cached::new(Concat::new());
        let a = Tensor::zeros([1, 1, 2, 2]);
        let b = Tensor::zeros([1, 1, 3, 3]);
        l.forward(&[&a, &b], Mode::Eval);
    }
}
