//! The mini model zoo: structurally faithful, 32×32-scaled counterparts of
//! the paper's evaluation networks (Table 3). Each family keeps the
//! architectural feature that drives the paper's per-family conclusions:
//!
//! | Mini model            | Stands in for            | Key structural feature |
//! |-----------------------|--------------------------|------------------------|
//! | `VggA` / `VggB`       | VGG 16 / 19              | plain conv stacks, no BN, FC head |
//! | `InceptionV1` / `V2`  | Inception v1–v4          | parallel branches merged by concat |
//! | `ResNet8/14/20`       | ResNet v1 50/101/152     | eltwise-add residuals, 1×1 shortcuts |
//! | `MobileNetV1` / `V2`  | MobileNet v1/v2 1.0 224  | depthwise separable convs (v2: inverted residuals, linear bottlenecks) |
//! | `DarkNet`             | DarkNet 19               | leaky-ReLU conv stacks |

use crate::builder::{Act, NetBuilder};
use tqt_graph::{Graph, Op};
use tqt_nn::{Concat, EltwiseAdd};
use tqt_tensor::conv::Conv2dGeom;

/// Number of classes in the synthetic benchmark.
pub const NUM_CLASSES: usize = 10;
/// Input image dimensions `[n, c, h, w]` with `n = 1`.
pub const INPUT_DIMS: [usize; 4] = [1, 3, 32, 32];

/// Identifies a zoo model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Mini VGG, shallow variant (stands in for VGG 16).
    VggA,
    /// Mini VGG, deeper variant (stands in for VGG 19).
    VggB,
    /// Mini Inception with 5×5 branches (stands in for Inception v1).
    InceptionV1,
    /// Mini Inception with factorized 3×3+3×3 branches (Inception v2+).
    InceptionV2,
    /// Mini ResNet with 1 block per stage (family: ResNet v1 50).
    ResNet8,
    /// Mini ResNet with 2 blocks per stage (family: ResNet v1 101).
    ResNet14,
    /// Mini ResNet with 3 blocks per stage (family: ResNet v1 152).
    ResNet20,
    /// Mini MobileNet v1 (depthwise separable stacks).
    MobileNetV1,
    /// Mini MobileNet v2 (inverted residuals, linear bottlenecks).
    MobileNetV2,
    /// Mini DarkNet 19 (leaky ReLU).
    DarkNet,
}

impl ModelKind {
    /// All zoo models in Table 3 order.
    pub fn all() -> &'static [ModelKind] {
        &[
            ModelKind::VggA,
            ModelKind::VggB,
            ModelKind::InceptionV1,
            ModelKind::InceptionV2,
            ModelKind::ResNet8,
            ModelKind::ResNet14,
            ModelKind::ResNet20,
            ModelKind::MobileNetV1,
            ModelKind::MobileNetV2,
            ModelKind::DarkNet,
        ]
    }

    /// Stable lowercase name (CLI argument / checkpoint filename).
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::VggA => "vgg_a",
            ModelKind::VggB => "vgg_b",
            ModelKind::InceptionV1 => "inception_v1",
            ModelKind::InceptionV2 => "inception_v2",
            ModelKind::ResNet8 => "resnet8",
            ModelKind::ResNet14 => "resnet14",
            ModelKind::ResNet20 => "resnet20",
            ModelKind::MobileNetV1 => "mobilenet_v1",
            ModelKind::MobileNetV2 => "mobilenet_v2",
            ModelKind::DarkNet => "darknet",
        }
    }

    /// The paper network this model stands in for.
    pub fn stands_in_for(&self) -> &'static str {
        match self {
            ModelKind::VggA => "VGG 16",
            ModelKind::VggB => "VGG 19",
            ModelKind::InceptionV1 => "Inception v1",
            ModelKind::InceptionV2 => "Inception v2/v3/v4",
            ModelKind::ResNet8 => "ResNet v1 50",
            ModelKind::ResNet14 => "ResNet v1 101",
            ModelKind::ResNet20 => "ResNet v1 152",
            ModelKind::MobileNetV1 => "MobileNet v1 1.0 224",
            ModelKind::MobileNetV2 => "MobileNet v2 1.0 224",
            ModelKind::DarkNet => "DarkNet 19",
        }
    }

    /// Parses a model name as produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<ModelKind> {
        ModelKind::all().iter().copied().find(|m| m.name() == s)
    }

    /// Input dims `[n, c, h, w]` the model is built for (`n = 1`); all zoo
    /// models share [`INPUT_DIMS`], but analyses should go through this
    /// accessor rather than the constant.
    pub fn input_dims(&self) -> [usize; 4] {
        INPUT_DIMS
    }

    /// Builds the model with weights initialized from `seed`.
    pub fn build(&self, seed: u64) -> Graph {
        match self {
            ModelKind::VggA => vgg(seed, &[1, 1, 1]),
            ModelKind::VggB => vgg(seed, &[2, 2, 2]),
            ModelKind::InceptionV1 => inception(seed, false),
            ModelKind::InceptionV2 => inception(seed, true),
            ModelKind::ResNet8 => resnet(seed, 1),
            ModelKind::ResNet14 => resnet(seed, 2),
            ModelKind::ResNet20 => resnet(seed, 3),
            ModelKind::MobileNetV1 => mobilenet_v1(seed),
            ModelKind::MobileNetV2 => mobilenet_v2(seed),
            ModelKind::DarkNet => darknet(seed),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Plain conv stacks (no batch norm), maxpool between stages, FC head.
fn vgg(seed: u64, reps: &[usize]) -> Graph {
    let (mut b, mut x) = NetBuilder::new(seed);
    let widths = [12usize, 24, 48];
    let mut in_ch = 3;
    for (stage, &n) in reps.iter().enumerate() {
        let out_ch = widths[stage];
        for _ in 0..n {
            x = b.conv_act(x, in_ch, out_ch, Conv2dGeom::same(3), Act::Relu);
            in_ch = out_ch;
        }
        x = b.maxpool(x);
    }
    // 32 -> 16 -> 8 -> 4 spatial; features = 48 * 4 * 4.
    b.flatten_head(x, 48 * 4 * 4, 64, NUM_CLASSES);
    b.g
}

/// Inception block: 1×1, reduced 3×3, reduced 5×5 (or double-3×3), and
/// pool-projection branches concatenated.
fn inception(seed: u64, factorized: bool) -> Graph {
    let (mut b, x) = NetBuilder::new(seed);
    let stem = b.conv_bn_act(x, 3, 16, Conv2dGeom::same(3), Act::Relu);
    let stem = b.maxpool(stem);
    let blk1 = inception_block(&mut b, stem, 16, factorized); // out 32
    let p = b.maxpool(blk1);
    let blk2 = inception_block(&mut b, p, 32, factorized); // out 32
    b.gap_head(blk2, 32, NUM_CLASSES);
    b.g
}

fn inception_block(
    b: &mut NetBuilder,
    x: tqt_graph::NodeId,
    in_ch: usize,
    factorized: bool,
) -> tqt_graph::NodeId {
    // Branch widths: 8 + 12 + 8 + 4 = 32.
    let b1 = b.conv_bn_act(x, in_ch, 8, Conv2dGeom::new(1, 1, 0), Act::Relu);
    let r3 = b.conv_bn_act(x, in_ch, 8, Conv2dGeom::new(1, 1, 0), Act::Relu);
    let b2 = b.conv_bn_act(r3, 8, 12, Conv2dGeom::same(3), Act::Relu);
    let r5 = b.conv_bn_act(x, in_ch, 4, Conv2dGeom::new(1, 1, 0), Act::Relu);
    let b3 = if factorized {
        let m = b.conv_bn_act(r5, 4, 8, Conv2dGeom::same(3), Act::Relu);
        b.conv_bn_act(m, 8, 8, Conv2dGeom::same(3), Act::Relu)
    } else {
        b.conv_bn_act(r5, 4, 8, Conv2dGeom::new(5, 1, 2), Act::Relu)
    };
    let pool = {
        let name = format!("incpool_{x}");
        b.g.add(
            name,
            Op::MaxPool(tqt_nn::MaxPool2d::new(Conv2dGeom::new(3, 1, 1))),
            &[x],
        )
    };
    let b4 = b.conv_bn_act(pool, in_ch, 4, Conv2dGeom::new(1, 1, 0), Act::Relu);
    let name = format!("concat_{x}");
    b.g.add(name, Op::Concat(Concat::new()), &[b1, b2, b3, b4])
}

/// CIFAR-style ResNet v1: conv stem, three stages of basic blocks
/// (16/32/64 channels), strided 1×1 shortcut on stage transitions.
fn resnet(seed: u64, blocks_per_stage: usize) -> Graph {
    let (mut b, x) = NetBuilder::new(seed);
    let mut x = b.conv_bn_act(x, 3, 16, Conv2dGeom::same(3), Act::Relu);
    let mut in_ch = 16;
    for (stage, &out_ch) in [16usize, 32, 64].iter().enumerate() {
        for blk in 0..blocks_per_stage {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            x = basic_block(&mut b, x, in_ch, out_ch, stride);
            in_ch = out_ch;
        }
    }
    b.gap_head(x, 64, NUM_CLASSES);
    b.g
}

fn basic_block(
    b: &mut NetBuilder,
    x: tqt_graph::NodeId,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
) -> tqt_graph::NodeId {
    let main = b.conv_bn_act(x, in_ch, out_ch, Conv2dGeom::new(3, stride, 1), Act::Relu);
    let main = b.conv_bn_act(main, out_ch, out_ch, Conv2dGeom::same(3), Act::None);
    let shortcut = if stride != 1 || in_ch != out_ch {
        b.conv_bn_act(x, in_ch, out_ch, Conv2dGeom::new(1, stride, 0), Act::None)
    } else {
        x
    };
    let name = format!("resadd_{x}");
    let add = b.g.add(name, Op::Add(EltwiseAdd::new()), &[main, shortcut]);
    b.act(add, Act::Relu)
}

/// MobileNet v1: depthwise-separable stacks with ReLU6.
fn mobilenet_v1(seed: u64) -> Graph {
    let (mut b, x) = NetBuilder::new(seed);
    let mut x = b.conv_bn_act(x, 3, 8, Conv2dGeom::new(3, 2, 1), Act::Relu6); // 16x16
    let plan: &[(usize, usize)] = &[(16, 1), (32, 2), (32, 1), (64, 2), (64, 1)];
    let mut in_ch = 8;
    for &(out_ch, stride) in plan {
        x = b.dw_bn_act(x, in_ch, Conv2dGeom::new(3, stride, 1), Act::Relu6);
        x = b.conv_bn_act(x, in_ch, out_ch, Conv2dGeom::new(1, 1, 0), Act::Relu6);
        in_ch = out_ch;
    }
    b.gap_head(x, 64, NUM_CLASSES);
    b.g
}

/// MobileNet v2: inverted residual blocks (expand → depthwise → linear
/// bottleneck) with identity shortcuts where shapes allow.
fn mobilenet_v2(seed: u64) -> Graph {
    let (mut b, x) = NetBuilder::new(seed);
    let mut x = b.conv_bn_act(x, 3, 8, Conv2dGeom::new(3, 2, 1), Act::Relu6); // 16x16
    let mut in_ch = 8;
    // (out_ch, stride, expansion)
    let plan: &[(usize, usize, usize)] = &[(16, 1, 4), (16, 1, 4), (32, 2, 4), (32, 1, 4)];
    for &(out_ch, stride, t) in plan {
        let expanded = in_ch * t;
        let e = b.conv_bn_act(x, in_ch, expanded, Conv2dGeom::new(1, 1, 0), Act::Relu6);
        let d = b.dw_bn_act(e, expanded, Conv2dGeom::new(3, stride, 1), Act::Relu6);
        let p = b.conv_bn_act(d, expanded, out_ch, Conv2dGeom::new(1, 1, 0), Act::None);
        x = if stride == 1 && in_ch == out_ch {
            let name = format!("invres_{x}");
            b.g.add(name, Op::Add(EltwiseAdd::new()), &[p, x])
        } else {
            p
        };
        in_ch = out_ch;
    }
    b.gap_head(x, 32, NUM_CLASSES);
    b.g
}

/// DarkNet 19 style: conv-BN-leaky stacks with 1×1 squeeze layers.
fn darknet(seed: u64) -> Graph {
    let (mut b, x) = NetBuilder::new(seed);
    let mut x = b.conv_bn_act(x, 3, 8, Conv2dGeom::same(3), Act::Leaky);
    x = b.maxpool(x); // 16
    x = b.conv_bn_act(x, 8, 16, Conv2dGeom::same(3), Act::Leaky);
    x = b.maxpool(x); // 8
    x = b.conv_bn_act(x, 16, 32, Conv2dGeom::same(3), Act::Leaky);
    x = b.conv_bn_act(x, 32, 16, Conv2dGeom::new(1, 1, 0), Act::Leaky);
    x = b.conv_bn_act(x, 16, 32, Conv2dGeom::same(3), Act::Leaky);
    x = b.maxpool(x); // 4
    b.gap_head(x, 32, NUM_CLASSES);
    b.g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_tensor::{init, Tensor};

    #[test]
    fn all_models_build_and_run() {
        let mut rng = init::rng(90);
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        for kind in ModelKind::all() {
            let mut g = kind.build(1);
            let y = g.infer(&x);
            assert_eq!(y.dims(), &[2, NUM_CLASSES], "{kind} wrong output shape");
            assert!(y.all_finite(), "{kind} produced non-finite logits");
        }
    }

    #[test]
    fn all_models_optimize_and_quantize() {
        use tqt_graph::{quantize_graph, transforms, QuantizeOptions};
        let mut rng = init::rng(92);
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        for kind in ModelKind::all() {
            let mut g = kind.build(3);
            let before = g.infer(&x);
            transforms::optimize(&mut g, &INPUT_DIMS);
            let folded = g.infer(&x);
            before.assert_close(&folded, 1e-3);
            // No batch norms left.
            assert!(
                !g.iter().any(|(_, n)| matches!(n.op, Op::BatchNorm(_))),
                "{kind} still has batch norms after optimize"
            );
            quantize_graph(&mut g, QuantizeOptions::static_int8());
            g.calibrate(&x);
            let yq = g.infer(&x);
            assert!(yq.all_finite(), "{kind} quantized output not finite");
        }
    }

    #[test]
    fn names_roundtrip() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::parse(kind.name()), Some(*kind));
        }
        assert_eq!(ModelKind::parse("nope"), None);
    }

    #[test]
    fn seeds_change_weights() {
        let mut a = ModelKind::ResNet8.build(1);
        let mut b = ModelKind::ResNet8.build(2);
        let x = Tensor::ones([1, 3, 32, 32]);
        assert!(
            a.infer(&x).max_abs_diff(&b.infer(&x)) > 1e-6,
            "different seeds should give different nets"
        );
    }

    #[test]
    fn mobilenet_v2_has_residual_adds() {
        let g = ModelKind::MobileNetV2.build(1);
        let adds = g.iter().filter(|(_, n)| matches!(n.op, Op::Add(_))).count();
        assert!(adds >= 2, "expected inverted-residual adds, got {adds}");
    }

    #[test]
    fn darknet_uses_leaky_relu() {
        let g = ModelKind::DarkNet.build(1);
        let leaky = g
            .iter()
            .filter(|(_, n)| matches!(&n.op, Op::Relu(r) if r.negative_slope() > 0.0))
            .count();
        assert!(leaky >= 5, "darknet should be leaky-relu heavy, got {leaky}");
    }
}
