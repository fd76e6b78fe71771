//! The one per-op shape rule: an op's output dims, derived symbolically
//! from its input dims and its own metadata (weight dims, geometry,
//! channel counts). Nothing is executed, so the rule needs no mutable
//! borrow and runs in microseconds on zoo models.
//!
//! [`Graph::infer_shapes`] folds the rule over a graph and panics on the
//! first inconsistency; `tqt_verify::infer_shapes` folds the same rule
//! but reports every inconsistency as a diagnostic and keeps going.

use crate::ir::{op_params, Graph, Op};
use tqt_nn::ParamKind;
use tqt_tensor::conv::Conv2dGeom;

impl Op {
    /// The op's output dims given its input dims `ins` (in input order).
    /// `input_dims` is the shape an [`Op::Input`] placeholder produces.
    ///
    /// # Errors
    ///
    /// Describes the inconsistency when the inputs do not fit the op.
    pub fn output_shape(
        &self,
        ins: &[&[usize]],
        input_dims: &[usize],
    ) -> Result<Vec<usize>, String> {
        if matches!(self, Op::Input) {
            return Ok(input_dims.to_vec());
        }
        let Some(&x) = ins.first() else {
            return Err(format!("op `{}` has no inputs", self.name()));
        };
        match self {
            Op::Input => unreachable!("handled above"),
            Op::Identity | Op::Relu(_) | Op::Quant { .. } => Ok(x.to_vec()),
            Op::BatchNorm(_) => {
                let c = op_params(self).first().map_or(0, |p| p.value.len());
                if x.len() < 2 || x[1] != c {
                    Err(format!(
                        "batch norm over {c} channels applied to input shape {x:?}"
                    ))
                } else {
                    Ok(x.to_vec())
                }
            }
            Op::Conv(l) => conv_shape(x, weight_dims(self), l.geom(), false),
            Op::Depthwise(l) => conv_shape(x, weight_dims(self), l.geom(), true),
            Op::Dense(_) => {
                let wd = weight_dims(self).unwrap_or_default();
                if x.len() != 2 {
                    Err(format!(
                        "dense needs a 2-D `[n, features]` input, got {x:?}"
                    ))
                } else if wd.len() != 2 || x[1] != wd[0] {
                    Err(format!(
                        "dense weight {wd:?} does not accept {} input features",
                        x[1]
                    ))
                } else {
                    Ok(vec![x[0], wd[1]])
                }
            }
            Op::MaxPool(l) => pool_shape(x, l.geom()),
            Op::AvgPool(l) => pool_shape(x, l.geom()),
            Op::GlobalAvgPool(_) => {
                if x.len() != 4 {
                    Err(format!("global avg pool needs a 4-D input, got {x:?}"))
                } else {
                    Ok(vec![x[0], x[1]])
                }
            }
            Op::Flatten(_) => match x.split_first() {
                Some((&n, rest)) => Ok(vec![n, rest.iter().product::<usize>().max(1)]),
                None => Err("flatten needs at least a batch dim".to_string()),
            },
            Op::Add(_) => {
                if ins.len() == 2 && ins[0] != ins[1] {
                    Err(format!(
                        "eltwise add of mismatched shapes {:?} vs {:?}",
                        ins[0], ins[1]
                    ))
                } else {
                    Ok(x.to_vec())
                }
            }
            Op::Concat(_) => {
                let ok = x.len() >= 2
                    && ins
                        .iter()
                        .all(|s| s.len() == x.len() && s[0] == x[0] && s.get(2..) == x.get(2..));
                if ok {
                    let mut out = x.to_vec();
                    out[1] = ins.iter().map(|s| s[1]).sum();
                    Ok(out)
                } else {
                    Err(format!(
                        "concat inputs must agree outside the channel dim, got {:?}",
                        ins.iter().map(|s| s.to_vec()).collect::<Vec<_>>()
                    ))
                }
            }
        }
    }
}

impl Graph {
    /// Per-node output shapes for a given input shape, from
    /// [`Op::output_shape`] folded in topological order.
    ///
    /// # Panics
    ///
    /// Panics on the first node whose inputs do not fit the op.
    pub fn infer_shapes(&self, input_dims: &[usize]) -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.len());
        for (_, node) in self.iter() {
            let ins: Vec<&[usize]> = node.inputs.iter().map(|&i| shapes[i].as_slice()).collect();
            match node.op.output_shape(&ins, input_dims) {
                Ok(s) => shapes.push(s),
                Err(e) => panic!("shape inference failed at node `{}`: {e}", node.name),
            }
        }
        shapes
    }
}

/// Dims of an op's weight tensor, if it has one.
fn weight_dims(op: &Op) -> Option<Vec<usize>> {
    op_params(op)
        .into_iter()
        .find(|p| p.kind == ParamKind::Weight)
        .map(|p| p.value.dims().to_vec())
}

fn conv_shape(
    xin: &[usize],
    wdims: Option<Vec<usize>>,
    geom: Conv2dGeom,
    depthwise: bool,
) -> Result<Vec<usize>, String> {
    let wd = wdims.ok_or_else(|| "conv has no weight tensor".to_string())?;
    if xin.len() != 4 {
        return Err(format!(
            "conv needs a 4-D `[n, c, h, w]` input, got {xin:?}"
        ));
    }
    if wd.len() != 4 {
        return Err(format!(
            "conv weight must be 4-D `[co, ci, kh, kw]`, got {wd:?}"
        ));
    }
    let (n, c, h, w) = (xin[0], xin[1], xin[2], xin[3]);
    let expect_ci = if depthwise { 1 } else { c };
    let cout = if depthwise { c } else { wd[0] };
    if wd[1] != expect_ci || (depthwise && wd[0] != c) {
        return Err(format!(
            "weight {wd:?} does not match {c} input channels (depthwise: {depthwise})"
        ));
    }
    if wd[2] != geom.kh || wd[3] != geom.kw {
        return Err(format!(
            "weight kernel {}x{} disagrees with geometry {}x{}",
            wd[2], wd[3], geom.kh, geom.kw
        ));
    }
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "kernel {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![n, cout, oh, ow])
}

fn pool_shape(xin: &[usize], geom: Conv2dGeom) -> Result<Vec<usize>, String> {
    if xin.len() != 4 {
        return Err(format!(
            "pool needs a 4-D `[n, c, h, w]` input, got {xin:?}"
        ));
    }
    let (h, w) = (xin[2], xin[3]);
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "pool window {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![xin[0], xin[1], oh, ow])
}
