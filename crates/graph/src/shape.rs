//! The one per-op shape rule: an op's output dims, derived symbolically
//! from its input dims and its own metadata (weight dims, geometry,
//! channel counts). Nothing is executed, so the rule needs no mutable
//! borrow and runs in microseconds on zoo models.
//!
//! The dims-level rules below ([`conv_shape`], [`dense_shape`],
//! [`pool_shape`], ...) are public so the lowered integer graph
//! (`tqt_fixedpoint::IntOp::output_shape`) applies the same rule per op
//! kind as [`Op::output_shape`] does here. Each returns the output dims,
//! or an error describing why the inputs do not fit.
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
        let wd = || weight_dims(self).unwrap_or_default();
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
            Op::Conv(l) => conv_shape(x, &wd(), l.geom(), false),
            Op::Depthwise(l) => conv_shape(x, &wd(), l.geom(), true),
            Op::Dense(_) => dense_shape(x, &wd()),
            Op::MaxPool(l) => pool_shape(x, l.geom()),
            Op::AvgPool(l) => pool_shape(x, l.geom()),
            Op::GlobalAvgPool(_) => global_pool_shape(x),
            Op::Flatten(_) => flatten_shape(x),
            Op::Add(_) => add_shape(ins),
            Op::Concat(_) => concat_shape(ins),
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

/// A convolution with weight dims `wd` (`[co, ci, kh, kw]`; depthwise
/// `[c, 1, kh, kw]`) over an `[n, c, h, w]` input.
pub fn conv_shape(
    x: &[usize],
    wd: &[usize],
    geom: Conv2dGeom,
    depthwise: bool,
) -> Result<Vec<usize>, String> {
    if x.len() != 4 {
        return Err(format!("conv needs a 4-D `[n, c, h, w]` input, got {x:?}"));
    }
    if wd.len() != 4 {
        return Err(format!(
            "conv weight must be 4-D `[co, ci, kh, kw]`, got {wd:?}"
        ));
    }
    let (n, c, h, w) = (x[0], x[1], x[2], x[3]);
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
    degenerate_geom(geom, "kernel")?;
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "kernel {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![n, cout, oh, ow])
}

/// Refuses a zero stride, which [`Conv2dGeom::out_size`] would divide
/// by, and a zero kernel extent, whose window reads nothing.
fn degenerate_geom(geom: Conv2dGeom, what: &str) -> Result<(), String> {
    if geom.stride == 0 || geom.kh == 0 || geom.kw == 0 {
        return Err(format!(
            "{what} {}x{} with stride {} is degenerate",
            geom.kh, geom.kw, geom.stride
        ));
    }
    Ok(())
}

/// A dense layer with weight dims `wd` (`[in, out]`) over an
/// `[n, features]` input.
pub fn dense_shape(x: &[usize], wd: &[usize]) -> Result<Vec<usize>, String> {
    if x.len() != 2 {
        Err(format!("dense needs a 2-D `[n, features]` input, got {x:?}"))
    } else if wd.len() != 2 || x[1] != wd[0] {
        Err(format!(
            "dense weight {wd:?} does not accept {} input features",
            x[1]
        ))
    } else {
        Ok(vec![x[0], wd[1]])
    }
}

/// A max or average pool window over an `[n, c, h, w]` input.
pub fn pool_shape(x: &[usize], geom: Conv2dGeom) -> Result<Vec<usize>, String> {
    if x.len() != 4 {
        return Err(format!("pool needs a 4-D `[n, c, h, w]` input, got {x:?}"));
    }
    let (h, w) = (x[2], x[3]);
    degenerate_geom(geom, "pool window")?;
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "pool window {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![x[0], x[1], oh, ow])
}

/// A global average pool: `[n, c, h, w]` to `[n, c]`.
pub fn global_pool_shape(x: &[usize]) -> Result<Vec<usize>, String> {
    if x.len() != 4 {
        Err(format!("global avg pool needs a 4-D input, got {x:?}"))
    } else {
        Ok(vec![x[0], x[1]])
    }
}

/// Flatten to `[n, features]`.
pub fn flatten_shape(x: &[usize]) -> Result<Vec<usize>, String> {
    match x.split_first() {
        Some((&n, rest)) => Ok(vec![n, rest.iter().product::<usize>().max(1)]),
        None => Err("flatten needs at least a batch dim".to_string()),
    }
}

/// An elementwise add: every operand has the first operand's shape.
pub fn add_shape(ins: &[&[usize]]) -> Result<Vec<usize>, String> {
    let x = ins.first().copied().unwrap_or_default();
    match ins.iter().find(|s| **s != x) {
        Some(other) => Err(format!(
            "eltwise add of mismatched shapes {x:?} vs {other:?}"
        )),
        None => Ok(x.to_vec()),
    }
}

/// A channel concat: operands agree outside dim 1, whose sizes add up.
pub fn concat_shape(ins: &[&[usize]]) -> Result<Vec<usize>, String> {
    let x = ins.first().copied().unwrap_or_default();
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
