//! Convolution layers: standard and depthwise, with optional bias.

use crate::layer::Layer;
use crate::param::{Param, ParamKind};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::{init, Tensor};

/// Standard 2-D convolution layer (`[out, in, kh, kw]` weights, NCHW data).
#[derive(Debug)]
pub struct Conv2d {
    w: Param,
    b: Option<Param>,
    geom: Conv2dGeom,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    pub fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        geom: Conv2dGeom,
        rng: &mut init::Rng,
    ) -> Self {
        let w = init::he_normal([out_ch, in_ch, geom.kh, geom.kw], rng);
        Conv2d {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: Some(Param::new(
                format!("{name}/bias"),
                Tensor::zeros([out_ch]),
                ParamKind::Bias,
            )),
            geom,
        }
    }

    /// Creates a conv layer from explicit tensors.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 4-D, its spatial dims disagree with `geom`, or
    /// the bias length does not match the output channels.
    pub fn from_parts(name: &str, w: Tensor, b: Option<Tensor>, geom: Conv2dGeom) -> Self {
        assert_eq!(w.ndim(), 4, "conv weight must be 4-D, got {}", w.shape());
        assert_eq!(
            (w.dim(2), w.dim(3)),
            (geom.kh, geom.kw),
            "weight spatial dims {}x{} disagree with geometry {}x{}",
            w.dim(2),
            w.dim(3),
            geom.kh,
            geom.kw
        );
        if let Some(b) = &b {
            assert_eq!(b.dims(), &[w.dim(0)], "bias does not match out channels");
        }
        Conv2d {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: b.map(|b| Param::new(format!("{name}/bias"), b, ParamKind::Bias)),
            geom,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }
}

impl Layer for Conv2d {
    fn op_name(&self) -> &'static str {
        "conv2d"
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.w];
        if let Some(b) = &self.b {
            p.push(b);
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.w];
        if let Some(b) = &mut self.b {
            p.push(b);
        }
        p
    }
}

/// Depthwise 2-D convolution layer (`[c, 1, kh, kw]` weights), the
/// MobileNet building block with irregular per-channel weight ranges that
/// makes per-tensor quantization hard — the paper's motivating case.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    w: Param,
    b: Option<Param>,
    geom: Conv2dGeom,
}

impl DepthwiseConv2d {
    /// Creates a depthwise conv layer with He-normal weights and zero bias.
    pub fn new(name: &str, channels: usize, geom: Conv2dGeom, rng: &mut init::Rng) -> Self {
        let w = init::he_normal([channels, 1, geom.kh, geom.kw], rng);
        DepthwiseConv2d {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: Some(Param::new(
                format!("{name}/bias"),
                Tensor::zeros([channels]),
                ParamKind::Bias,
            )),
            geom,
        }
    }

    /// Creates a depthwise layer from explicit tensors.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `[c, 1, kh, kw]` matching `geom`.
    pub fn from_parts(name: &str, w: Tensor, b: Option<Tensor>, geom: Conv2dGeom) -> Self {
        assert_eq!(w.ndim(), 4, "depthwise weight must be 4-D");
        assert_eq!(w.dim(1), 1, "depthwise channel multiplier must be 1");
        assert_eq!((w.dim(2), w.dim(3)), (geom.kh, geom.kw));
        if let Some(b) = &b {
            assert_eq!(b.dims(), &[w.dim(0)], "bias does not match channels");
        }
        DepthwiseConv2d {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: b.map(|b| Param::new(format!("{name}/bias"), b, ParamKind::Bias)),
            geom,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }
}

impl Layer for DepthwiseConv2d {
    fn op_name(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.w];
        if let Some(b) = &self.b {
            p.push(b);
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.w];
        if let Some(b) = &mut self.b {
            p.push(b);
        }
        p
    }
}
