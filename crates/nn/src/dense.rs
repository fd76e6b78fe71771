//! Fully-connected (dense / matmul) layer.

use crate::layer::Layer;
use crate::param::{Param, ParamKind};
use tqt_tensor::{init, Tensor};

/// A dense layer `y = x @ w + b` with `x: [n, in]`, `w: [in, out]`,
/// `b: [out]`.
#[derive(Debug)]
pub struct Dense {
    w: Param,
    b: Option<Param>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut init::Rng) -> Self {
        let w = init::he_normal([in_dim, out_dim], rng);
        Dense {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: Some(Param::new(
                format!("{name}/bias"),
                Tensor::zeros([out_dim]),
                ParamKind::Bias,
            )),
        }
    }

    /// Creates a dense layer from explicit weight (and optional bias)
    /// tensors.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D or `b` does not match `w`'s output dim.
    pub fn from_parts(name: &str, w: Tensor, b: Option<Tensor>) -> Self {
        assert_eq!(w.ndim(), 2, "dense weight must be 2-D, got {}", w.shape());
        if let Some(b) = &b {
            assert_eq!(
                b.dims(),
                &[w.dim(1)],
                "dense bias {} does not match weight {}",
                b.shape(),
                w.shape()
            );
        }
        Dense {
            w: Param::new(format!("{name}/weight"), w, ParamKind::Weight),
            b: b.map(|b| Param::new(format!("{name}/bias"), b, ParamKind::Bias)),
        }
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }
}

impl Layer for Dense {
    fn op_name(&self) -> &'static str {
        "dense"
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
