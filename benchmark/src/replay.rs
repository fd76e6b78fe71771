//! Per-layer replay of the integer executor from outside the program.
//!
//! The executor does not time its own kernels, so the benchmark calls the
//! kernels' public entry points itself, node by node, with the shapes and
//! packed weight panels the plan holds and synthetic activations in each
//! node's input format. Kernel cost is attributed as the executor issues
//! it today: `conv_into` makes one im2col and one i64 GEMM call per
//! image, a dense layer one GEMM call per batch. Two counterfactuals run
//! at the same shapes: one GEMM call over the whole batch (the batching
//! ceiling) and the i8 kernel with prepacked weights (the narrow-storage
//! ceiling).

use std::collections::BTreeMap;
use std::time::Instant;

use tqt_fixedpoint::intgemm::{gemm_i64_narrow_fused, Lhs, Rhs};
use tqt_fixedpoint::lower::{IntGraph, IntOp};
use tqt_fixedpoint::{gemm_i8_fused_prepacked, IntPlan, PackedB, QFormat, RequantMode};
use tqt_rt::json::Json;
use tqt_rt::sync::Counter;
use tqt_tensor::conv::{im2col_into, Conv2dGeom};
use tqt_tensor::init;

use crate::stats::median;
use crate::trace::Tracer;

/// A conv or dense node as the executor runs it.
#[derive(Clone, Copy)]
struct GemmNode<'g> {
    /// Node index in the graph.
    id: usize,
    name: &'g str,
    /// GEMM rows, columns and reduction length of one call.
    m: usize,
    n: usize,
    k: usize,
    /// GEMM calls the executor issues per run.
    calls: usize,
    /// Conv input layout, or `None` for a dense layer.
    conv: Option<ConvIn>,
    w: &'g [i64],
    bias: Option<&'g [i64]>,
    in_format: QFormat,
}

/// The input of a standard (non-depthwise) convolution.
#[derive(Debug, Clone, Copy)]
struct ConvIn {
    batch: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeom,
}

/// The conv and dense nodes of `g` that run a GEMM under `plan`, with the
/// shapes of the calls the executor makes. Depthwise convolutions run a
/// direct loop, not a GEMM, and are left out.
fn gemm_nodes<'g>(g: &'g IntGraph, plan: &IntPlan) -> Vec<GemmNode<'g>> {
    let mut out = Vec::new();
    for (id, node) in g.nodes().iter().enumerate() {
        let op = match &node.op {
            IntOp::Fused { core, .. } => core.as_ref(),
            other => other,
        };
        let Some(&input) = node.inputs.first() else {
            continue;
        };
        let ish = plan.shape(input);
        let in_format = plan.format(input);
        match op {
            IntOp::Conv {
                w,
                wdims,
                bias,
                geom,
                depthwise: false,
                ..
            } => {
                let (oh, ow) = geom.out_size(ish[2], ish[3]);
                out.push(GemmNode {
                    id,
                    name: &node.name,
                    m: wdims[0],
                    n: oh * ow,
                    k: ish[1] * geom.kh * geom.kw,
                    calls: ish[0],
                    conv: Some(ConvIn {
                        batch: ish[0],
                        c: ish[1],
                        h: ish[2],
                        w: ish[3],
                        geom: *geom,
                    }),
                    w,
                    bias: bias.as_deref(),
                    in_format,
                });
            }
            IntOp::Dense {
                w,
                in_dim,
                out_dim,
                bias,
                ..
            } => out.push(GemmNode {
                id,
                name: &node.name,
                m: ish[0],
                n: *out_dim,
                k: *in_dim,
                calls: 1,
                conv: None,
                w,
                bias: bias.as_deref(),
                in_format,
            }),
            _ => {}
        }
    }
    out
}

/// Replay times of one node in one replayed run, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeTimes {
    /// The i64 GEMM calls as the executor issues them.
    pub i64_ns: f64,
    /// One i64 GEMM call over the whole batch.
    pub batched_ns: f64,
    /// The per-image im2col calls.
    pub im2col_ns: f64,
    /// The i8 GEMM with prepacked weights, per image like the executor.
    pub i8_ns: f64,
}

/// Runs `f` in a span and returns its duration in nanoseconds.
fn timed(tr: &mut Tracer, name: &'static str, node: usize, f: impl FnOnce()) -> f64 {
    tr.span(name, Some(node as u64), |_| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    })
}

/// Synthetic activations in `format`, clipped to 16 bits so that no
/// reduction can leave the exact i128 accumulator.
fn activations(len: usize, format: QFormat, seed: u64) -> Vec<i64> {
    let lo = format.qmin().max(-(1 << 15));
    let hi = format.qmax().min((1 << 15) - 1);
    let mut rng = init::rng(seed);
    (0..len).map(|_| rng.gen_range(lo..hi + 1)).collect()
}

fn to_i8(v: i64) -> i8 {
    v.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8
}

/// A GEMM node with its replay inputs.
struct Prepared<'g> {
    node: GemmNode<'g>,
    /// The plan's packed weight panels for the i64 kernel.
    panel: &'g [i64],
    /// Synthetic input activations, the node's whole input.
    x: Vec<i64>,
    /// The weights as the i8 kernel's prepacked right operand: `W^T` for
    /// a conv (the ceiling computes `out^T = cols^T · W^T`), `W` for a
    /// dense layer.
    w8: PackedB,
}

/// Buffers reused across nodes and runs, as the executor reuses its
/// scratch arena and slots, so that no timed call touches fresh pages.
#[derive(Default)]
struct Scratch {
    cols: Vec<i64>,
    wide: Vec<i64>,
    out: Vec<i64>,
    out_wide: Vec<i64>,
    a8: Vec<i8>,
    out8: Vec<i8>,
}

/// The first `len` elements of `v`, grown if needed.
fn grown<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

impl Prepared<'_> {
    /// Replays one executor run of this node; returns its times and the
    /// i64 GEMM calls and MACs issued.
    fn replay(&self, s: &mut Scratch, tr: &mut Tracer) -> (NodeTimes, u64, u64) {
        let GemmNode {
            id, m, n, k, bias, ..
        } = self.node;
        let (ovf, sat) = (Counter::new(), Counter::new());
        let gemm = |a: Lhs, b: Rhs, cols: usize, out: &mut [i64]| {
            let (br, bc) = if self.node.conv.is_some() {
                (bias, None)
            } else {
                (None, bias)
            };
            gemm_i64_narrow_fused(m, cols, k, a, b, br, bc, &[], out, &ovf, &sat, true);
        };
        let i8_gemm = |m: usize, n: usize, a: &[i8], out: &mut [i8]| {
            let mode = RequantMode::Pow2 { shift: 8 };
            gemm_i8_fused_prepacked(m, n, k, a, &self.w8, None, mode, out, true);
        };
        let mut t = NodeTimes::default();
        let Scratch {
            cols,
            wide,
            out,
            out_wide,
            a8,
            out8,
        } = s;
        let Some(ci) = self.node.conv else {
            let out = grown(out, m * n);
            t.i64_ns = timed(tr, "intgemm.call", id, || {
                gemm(Lhs::Rows(&self.x), Rhs::Packed(self.panel), n, out)
            });
            t.batched_ns = t.i64_ns;
            let a8 = grown(a8, m * k);
            for (d, &v) in a8.iter_mut().zip(&self.x) {
                *d = to_i8(v);
            }
            let out8 = grown(out8, m * n);
            t.i8_ns = timed(tr, "gemm_i8.call", id, || i8_gemm(m, n, a8, out8));
            return (t, 1, (m * n * k) as u64);
        };
        // Per image, as `conv_into` does: unfold into one reused column
        // buffer, then one GEMM. Untimed, the columns are also gathered
        // into the whole-batch operand and the transposed i8 operand.
        let img = ci.c * ci.h * ci.w;
        let nb = ci.batch * n;
        let (cols, out, wide) = (grown(cols, k * n), grown(out, m * n), grown(wide, k * nb));
        let a8 = grown(a8, ci.batch * n * k);
        for b in 0..ci.batch {
            let src = &self.x[b * img..(b + 1) * img];
            t.im2col_ns += timed(tr, "tensor.im2col", id, || {
                im2col_into(src, 0i64, ci.c, ci.h, ci.w, ci.geom, cols)
            });
            t.i64_ns += timed(tr, "intgemm.call", id, || {
                gemm(Lhs::Packed(self.panel), Rhs::Rows(cols), n, out)
            });
            for r in 0..k {
                wide[r * nb + b * n..r * nb + (b + 1) * n]
                    .copy_from_slice(&cols[r * n..(r + 1) * n]);
            }
            for (i, d) in a8[b * n * k..(b + 1) * n * k].iter_mut().enumerate() {
                *d = to_i8(cols[(i % k) * n + i / k]);
            }
        }
        let out_wide = grown(out_wide, m * nb);
        t.batched_ns = timed(tr, "intgemm.batched", id, || {
            gemm(Lhs::Packed(self.panel), Rhs::Rows(wide), nb, out_wide)
        });
        let out8 = grown(out8, n * m);
        t.i8_ns = timed(tr, "gemm_i8.call", id, || {
            for a in a8.chunks_exact(n * k) {
                i8_gemm(n, m, a, out8);
            }
        });
        (t, ci.batch as u64, (ci.batch * m * n * k) as u64)
    }
}

/// Replays the GEMM work of every conv and dense node of one plan, one
/// whole executor run at a time, so that its repetitions can interleave
/// with other measurements taken under the same host conditions.
pub struct Replayer<'g> {
    nodes: Vec<Prepared<'g>>,
    scratch: Scratch,
    samples: Vec<Vec<NodeTimes>>,
    /// i64 GEMM calls the last replayed run issued.
    pub calls: u64,
    /// Multiply-accumulates those calls performed.
    pub macs: u64,
}

impl<'g> Replayer<'g> {
    /// Prepares every GEMM node of `plan`, with activations from `seed`.
    pub fn new(g: &'g IntGraph, plan: &'g IntPlan, seed: u64) -> Self {
        let nodes: Vec<Prepared<'g>> = gemm_nodes(g, plan)
            .into_iter()
            .map(|node| {
                let (m, n, k) = (node.m, node.n, node.k);
                let len = node.conv.map_or(m * k, |c| c.batch * c.c * c.h * c.w);
                let x = activations(len, node.in_format, seed ^ node.id as u64);
                let w8 = match node.conv {
                    Some(_) => {
                        let wt: Vec<i8> = (0..k * m)
                            .map(|i| to_i8(node.w[(i % m) * k + i / m]))
                            .collect();
                        PackedB::pack(&wt, k, m)
                    }
                    None => {
                        let w: Vec<i8> = node.w.iter().map(|&v| to_i8(v)).collect();
                        PackedB::pack(&w, k, n)
                    }
                };
                // tqt:allow(expect): the plan packs every GEMM node's weights
                let panel = plan
                    .weight_panel_data(node.id)
                    .expect("packed GEMM weights");
                Prepared { node, panel, x, w8 }
            })
            .collect();
        let samples = vec![Vec::new(); nodes.len()];
        let mut r = Replayer {
            nodes,
            scratch: Scratch::default(),
            samples,
            calls: 0,
            macs: 0,
        };
        // One untimed run sizes and touches the scratch buffers.
        r.run_once(&mut Tracer::new(false));
        r.samples.iter_mut().for_each(Vec::clear);
        r
    }

    /// Replays one executor run; returns its times summed over nodes.
    pub fn run_once(&mut self, tr: &mut Tracer) -> NodeTimes {
        let mut total = NodeTimes::default();
        (self.calls, self.macs) = (0, 0);
        for (p, samples) in self.nodes.iter().zip(&mut self.samples) {
            let (t, calls, macs) = p.replay(&mut self.scratch, tr);
            total.i64_ns += t.i64_ns;
            total.batched_ns += t.batched_ns;
            total.im2col_ns += t.im2col_ns;
            total.i8_ns += t.i8_ns;
            self.calls += calls;
            self.macs += macs;
            samples.push(t);
        }
        total
    }

    /// The per-node table: name, op, m, n, k, calls, MACs and each time
    /// column's median over the replayed runs.
    pub fn to_json(&self) -> Json {
        let col = |v: &[NodeTimes], f: fn(&NodeTimes) -> f64| {
            Json::Num(median(&v.iter().map(f).collect::<Vec<_>>()))
        };
        Json::Arr(
            self.nodes
                .iter()
                .zip(&self.samples)
                .map(|(p, v)| {
                    let GemmNode {
                        name,
                        m,
                        n,
                        k,
                        calls,
                        ..
                    } = p.node;
                    let mut o = BTreeMap::new();
                    o.insert("name".to_string(), Json::from(name));
                    let op = if p.node.conv.is_some() {
                        "conv"
                    } else {
                        "dense"
                    };
                    o.insert("op".to_string(), Json::from(op));
                    for (key, v) in [("m", m), ("n", n), ("k", k), ("calls", calls)] {
                        o.insert(key.to_string(), Json::from(v));
                    }
                    o.insert("macs".to_string(), Json::from(calls * m * n * k));
                    o.insert("i64_ns".to_string(), col(v, |t| t.i64_ns));
                    o.insert("batched_ns".to_string(), col(v, |t| t.batched_ns));
                    o.insert("im2col_ns".to_string(), col(v, |t| t.im2col_ns));
                    o.insert("i8_ns".to_string(), col(v, |t| t.i8_ns));
                    Json::Obj(o)
                })
                .collect(),
        )
    }
}
