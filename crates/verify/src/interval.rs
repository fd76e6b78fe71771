//! Interval and bit-width dataflow over the lowered [`IntGraph`]: proves
//! that no i64 accumulator can overflow for *any* input (or refutes with a
//! counterexample), and that every requantization shift is legal.
//!
//! The analysis is an abstract interpretation in `i128`: each node gets a
//! sound value interval `[lo, hi]` containing every element the node can
//! ever produce. Compute bounds are *exact per output channel* — they use
//! the actual baked weights, not worst-case magnitudes — so the proof is
//! tight enough to hold 16-bit weights against 8-bit activations while
//! still refuting genuinely unsafe graphs.
//!
//! Soundness of the overflow check for convolutions: an accumulator's
//! partial sum after any prefix of taps lies in `[Σ min(term_i), Σ
//! max(term_i)]` over the full tap set, because every remaining term's
//! minimum contribution is ≤ 0 in the lower bound and ≥ 0 in the upper
//! bound (padding is modeled by including 0 in each tap's term interval).
//! Hence if the final-sum interval (including bias, both with and without)
//! fits i64, no intermediate i64 accumulation can wrap either.

use crate::diag::{Code, Report};
use crate::shape::{infer_int_shapes, ShapeReport};
use tqt_fixedpoint::lower::{EpiStep, IntGraph, IntNode, IntOp, LEAKY_ALPHA_FRAC};
use tqt_fixedpoint::QFormat;

/// Legal magnitude for a requantization shift: `shift_round` shifts an
/// `i64` by `|shift|` bits, so anything past 63 is undefined.
pub const MAX_SHIFT: i32 = 63;

const I64_LO: i128 = i64::MIN as i128;
const I64_HI: i128 = i64::MAX as i128;

/// Proven facts about one node's output.
#[derive(Debug, Clone, Copy)]
pub struct NodeFacts {
    /// Sound lower bound on any output element.
    pub lo: i128,
    /// Sound upper bound on any output element.
    pub hi: i128,
    /// Whether a requantization at this node can clamp (pre-saturation
    /// interval escapes the target format). `false` proves the runtime
    /// saturation counter stays 0.
    pub can_saturate: bool,
    /// The Q-format the node's output is declared in, when it has one.
    pub format: Option<QFormat>,
}

/// Result of the dataflow: per-node facts plus findings.
#[derive(Debug)]
pub struct IntervalReport {
    /// Facts per node, indexed like [`IntGraph::nodes`].
    pub nodes: Vec<NodeFacts>,
    /// `TQT-V010`–`TQT-V013` findings.
    pub report: Report,
}

impl IntervalReport {
    /// Whether the overflow/shift proofs all went through.
    pub fn proven(&self) -> bool {
        self.report.is_clean()
    }
}

/// The producer chain of `id` (following first inputs back to the graph
/// input), rendered for counterexample messages.
pub(crate) fn path_to(nodes: &[IntNode], id: usize) -> String {
    let mut chain = Vec::new();
    let mut cur = id;
    loop {
        chain.push(nodes[cur].name.as_str());
        match nodes[cur].inputs.first() {
            Some(&p) => cur = p,
            None => break,
        }
    }
    chain.reverse();
    chain.join(" -> ")
}

fn term_bounds(w: i128, lo: i128, hi: i128, include_zero: bool) -> (i128, i128) {
    let a = w * lo;
    let b = w * hi;
    let (mut tlo, mut thi) = (a.min(b), a.max(b));
    if include_zero {
        tlo = tlo.min(0);
        thi = thi.max(0);
    }
    (tlo, thi)
}

/// Exact per-output-channel accumulator bounds for a convolution over an
/// input interval (shared by the standalone [`IntOp::Conv`] transfer, the
/// fused-node core, and the translation validator's fused-chain walk).
/// Bounds cover the biased final value and every unbiased partial sum
/// (see the module soundness note).
pub(crate) fn conv_core_bounds(
    w: &[i64],
    wdims: [usize; 4],
    bias: Option<&[i64]>,
    padded: bool,
    xlo: i128,
    xhi: i128,
) -> (i128, i128) {
    let [co_n, ci_n, kh, kw] = wdims;
    let taps = ci_n * kh * kw;
    let mut lo = i128::MAX;
    let mut hi = i128::MIN;
    for co in 0..co_n {
        let mut pos = 0i128;
        let mut neg = 0i128;
        for t in 0..taps {
            let (tlo, thi) = term_bounds(i128::from(w[co * taps + t]), xlo, xhi, padded);
            neg += tlo;
            pos += thi;
        }
        let b = bias.map(|b| i128::from(b[co])).unwrap_or(0);
        lo = lo.min((neg + b).min(neg));
        hi = hi.max((pos + b).max(pos));
    }
    (lo, hi)
}

/// Exact per-output-unit accumulator bounds for a dense layer (shared by
/// the standalone [`IntOp::Dense`] transfer, the fused-node core, and the
/// translation validator's fused-chain walk).
pub(crate) fn dense_core_bounds(
    w: &[i64],
    in_dim: usize,
    out_dim: usize,
    bias: Option<&[i64]>,
    xlo: i128,
    xhi: i128,
) -> (i128, i128) {
    let mut lo = i128::MAX;
    let mut hi = i128::MIN;
    for o in 0..out_dim {
        let mut pos = 0i128;
        let mut neg = 0i128;
        for i in 0..in_dim {
            let (tlo, thi) = term_bounds(i128::from(w[i * out_dim + o]), xlo, xhi, false);
            neg += tlo;
            pos += thi;
        }
        let b = bias.map(|b| i128::from(b[o])).unwrap_or(0);
        lo = lo.min((neg + b).min(neg));
        hi = hi.max((pos + b).max(pos));
    }
    (lo, hi)
}

/// Runs the interval/bit-width dataflow. `input_dims` is the `[n, c, h,
/// w]` the graph executes on. Shapes come from [`infer_int_shapes`], whose
/// `TQT-V002` findings lead the report, so a graph the planner could not
/// shape is never proven. Output formats come from the executor's own
/// rules ([`IntOp::acc_format`], [`EpiStep::out_format`],
/// [`IntOp::pool_format`]).
pub fn analyze(ig: &IntGraph, input_dims: &[usize]) -> IntervalReport {
    let nodes = ig.nodes();
    let ShapeReport { shapes, report: mut r } = infer_int_shapes(ig, input_dims);
    let mut facts: Vec<NodeFacts> = Vec::with_capacity(nodes.len());

    for (id, node) in nodes.iter().enumerate() {
        let fin = node.inputs.first().map(|&i| facts[i]);
        // A conv/dense core on an edge without a format (the float input)
        // accumulates on the `2^0` grid.
        let in_format = fin
            .and_then(|f| f.format)
            .unwrap_or(QFormat::new(0, 64, true));
        let mut fact = NodeFacts {
            lo: 0,
            hi: 0,
            can_saturate: false,
            format: None,
        };
        if shapes[id].is_empty() {
            // Shape inference failed here or upstream (a V002 above).
            facts.push(fact);
            continue;
        }
        match &node.op {
            IntOp::Input => {}
            IntOp::QuantF32 { format } => {
                // The float input is arbitrary; quantization saturates it
                // into the representable range, which may clamp.
                fact.lo = i128::from(format.qmin());
                fact.hi = i128::from(format.qmax());
                fact.can_saturate = true;
                fact.format = Some(*format);
            }
            IntOp::Requant { format } => {
                let fi = fin.expect("requant has an input");
                let in_frac = fi.format.map(|f| f.frac).unwrap_or(0);
                let shift = in_frac - format.frac;
                if shift.abs() > MAX_SHIFT {
                    r.push(
                        Code::IllegalShift,
                        node.name.clone(),
                        format!(
                            "requant shift {shift} (frac {in_frac} -> {}) exceeds \
                             the legal |shift| <= {MAX_SHIFT}",
                            format.frac
                        ),
                    );
                }
                // shift_round is monotone; round-half-even moves a value by
                // at most half an output ulp, covered by widening one.
                let (plo, phi) = if shift <= 0 {
                    let f = 1i128 << i128::from(-shift).min(126);
                    (fi.lo.saturating_mul(f), fi.hi.saturating_mul(f))
                } else {
                    let half = 1i128 << (shift - 1).min(126);
                    ((fi.lo - half) >> shift, (fi.hi + half) >> shift)
                };
                let (qlo, qhi) = (i128::from(format.qmin()), i128::from(format.qmax()));
                fact.can_saturate = plo < qlo || phi > qhi;
                fact.lo = plo.max(qlo);
                fact.hi = phi.min(qhi);
                fact.format = Some(*format);
            }
            IntOp::Conv {
                w,
                wdims,
                bias,
                geom,
                ..
            } => {
                let fi = fin.expect("conv has an input");
                // Padding can drop any tap, so each term interval includes 0.
                let (lo, hi) =
                    conv_core_bounds(w, *wdims, bias.as_deref(), geom.pad > 0, fi.lo, fi.hi);
                if lo < I64_LO || hi > I64_HI {
                    r.push(
                        Code::Overflow,
                        node.name.clone(),
                        overflow_detail(nodes, id, lo, hi, input_dims),
                    );
                }
                fact.lo = lo;
                fact.hi = hi;
                fact.format = node.op.acc_format(in_format);
            }
            IntOp::Dense {
                w,
                in_dim,
                out_dim,
                bias,
                ..
            } => {
                let fi = fin.expect("dense has an input");
                let (lo, hi) =
                    dense_core_bounds(w, *in_dim, *out_dim, bias.as_deref(), fi.lo, fi.hi);
                if lo < I64_LO || hi > I64_HI {
                    r.push(
                        Code::Overflow,
                        node.name.clone(),
                        overflow_detail(nodes, id, lo, hi, input_dims),
                    );
                }
                fact.lo = lo;
                fact.hi = hi;
                fact.format = node.op.acc_format(in_format);
            }
            IntOp::Fused { core, epi } => {
                let fi = fin.expect("fused has an input");
                // Legality: arity must match the epilogue's residual steps.
                let residuals = epi
                    .iter()
                    .filter(|s| matches!(s, EpiStep::AddResidual))
                    .count();
                if residuals + 1 != node.inputs.len() || residuals > 1 {
                    r.push(
                        Code::IllegalFusion,
                        node.name.clone(),
                        format!(
                            "{} AddResidual step(s) but {} input(s); a fused node takes \
                             exactly one data input plus one per residual step \
                             (counterexample path: {})",
                            residuals,
                            node.inputs.len(),
                            path_to(nodes, id)
                        ),
                    );
                }
                // Core: the same exact per-channel accumulator bounds as the
                // standalone conv/dense transfers (V011 on escape).
                let mut cur_format = core.acc_format(in_format).unwrap_or(in_format);
                let (mut lo, mut hi) = match &**core {
                    IntOp::Conv {
                        w,
                        wdims,
                        bias,
                        geom,
                        ..
                    } => conv_core_bounds(w, *wdims, bias.as_deref(), geom.pad > 0, fi.lo, fi.hi),
                    IntOp::Dense {
                        w,
                        in_dim,
                        out_dim,
                        bias,
                        ..
                    } => dense_core_bounds(w, *in_dim, *out_dim, bias.as_deref(), fi.lo, fi.hi),
                    other => {
                        r.push(
                            Code::IllegalFusion,
                            node.name.clone(),
                            format!(
                                "fused core must be a conv or dense producer, found {:?} \
                                 (counterexample path: {})",
                                std::mem::discriminant(other),
                                path_to(nodes, id)
                            ),
                        );
                        (fi.lo, fi.hi)
                    }
                };
                if lo < I64_LO || hi > I64_HI {
                    r.push(
                        Code::Overflow,
                        node.name.clone(),
                        overflow_detail(nodes, id, lo, hi, input_dims),
                    );
                }
                // Fold the epilogue with the same transfers the standalone
                // Requant/Add/Relu nodes get.
                let mut residual_slot = 1usize;
                for (step_idx, step) in epi.iter().enumerate() {
                    match step {
                        EpiStep::Requant { format } => {
                            let shift = cur_format.frac - format.frac;
                            if shift.abs() > MAX_SHIFT {
                                r.push(
                                    Code::IllegalFusion,
                                    node.name.clone(),
                                    format!(
                                        "epilogue step {step_idx} requantizes with shift \
                                         {shift} (frac {} -> {}), outside the legal \
                                         |shift| <= {MAX_SHIFT} (counterexample path: {})",
                                        cur_format.frac,
                                        format.frac,
                                        path_to(nodes, id)
                                    ),
                                );
                            }
                            let (plo, phi) = if shift <= 0 {
                                let f = 1i128 << i128::from(-shift).min(126);
                                (lo.saturating_mul(f), hi.saturating_mul(f))
                            } else {
                                let half = 1i128 << (shift - 1).min(126);
                                ((lo - half) >> shift, (hi + half) >> shift)
                            };
                            let (qlo, qhi) =
                                (i128::from(format.qmin()), i128::from(format.qmax()));
                            if plo < qlo || phi > qhi {
                                fact.can_saturate = true;
                            }
                            lo = plo.max(qlo);
                            hi = phi.min(qhi);
                        }
                        EpiStep::AddResidual => {
                            let Some(&rid) = node.inputs.get(residual_slot) else {
                                // Arity mismatch already reported above.
                                continue;
                            };
                            residual_slot += 1;
                            let rf = facts[rid];
                            if rf.format != Some(cur_format) {
                                r.push(
                                    Code::IllegalFusion,
                                    node.name.clone(),
                                    format!(
                                        "epilogue step {step_idx} adds residual `{}` in \
                                         format {:?}, but the fused accumulator is in \
                                         {:?} — scales must be merged before fusing \
                                         (counterexample path: {})",
                                        nodes[rid].name,
                                        rf.format,
                                        cur_format,
                                        path_to(nodes, id)
                                    ),
                                );
                            }
                            lo += rf.lo;
                            hi += rf.hi;
                            if lo < I64_LO || hi > I64_HI {
                                r.push(
                                    Code::Overflow,
                                    node.name.clone(),
                                    overflow_detail(nodes, id, lo, hi, input_dims),
                                );
                            }
                        }
                        EpiStep::Relu { cap_q } => {
                            let cap = cap_q.map(i128::from).unwrap_or(i128::MAX);
                            lo = lo.max(0).min(cap);
                            hi = hi.max(0).min(cap);
                        }
                        EpiStep::LeakyRelu { alpha_q } => {
                            // Same transfer as the standalone node: the
                            // envelope of `max(v << A, v * alpha)` over the
                            // interval endpoints (exact for monotone alpha).
                            let a = i128::from(*alpha_q);
                            let f = |v: i128| (v << LEAKY_ALPHA_FRAC).max(v * a);
                            let cands = [f(lo), f(hi)];
                            lo = *cands.iter().min().expect("nonempty");
                            hi = *cands.iter().max().expect("nonempty");
                            if lo < I64_LO || hi > I64_HI {
                                r.push(
                                    Code::Overflow,
                                    node.name.clone(),
                                    overflow_detail(nodes, id, lo, hi, input_dims),
                                );
                            }
                        }
                    }
                    cur_format = step.out_format(cur_format);
                }
                fact.lo = lo;
                fact.hi = hi;
                fact.format = Some(cur_format);
            }
            IntOp::Relu { cap_q } => {
                let fi = fin.expect("relu has an input");
                let cap = cap_q.map(i128::from).unwrap_or(i128::MAX);
                fact.lo = fi.lo.max(0).min(cap);
                fact.hi = fi.hi.max(0).min(cap);
                fact.format = fi.format;
            }
            IntOp::LeakyRelu { alpha_q } => {
                let fi = fin.expect("leaky relu has an input");
                let a = i128::from(*alpha_q);
                let f = |v: i128| (v << LEAKY_ALPHA_FRAC).max(v * a);
                // Monotone for alpha >= 0; take the envelope otherwise.
                let cands = [f(fi.lo), f(fi.hi)];
                fact.lo = *cands.iter().min().expect("nonempty");
                fact.hi = *cands.iter().max().expect("nonempty");
                if fact.lo < I64_LO || fact.hi > I64_HI {
                    r.push(
                        Code::Overflow,
                        node.name.clone(),
                        overflow_detail(nodes, id, fact.lo, fact.hi, input_dims),
                    );
                }
                let step = EpiStep::LeakyRelu { alpha_q: *alpha_q };
                fact.format = fi.format.map(|f| step.out_format(f));
            }
            IntOp::MaxPool { .. } | IntOp::Flatten => {
                fact = fin.expect("data movement has an input");
                fact.can_saturate = false;
            }
            IntOp::GlobalAvgPool => {
                let fi = fin.expect("gap has an input");
                // The shape rule has checked the input is 4-D.
                if let [_, _, h, w] = shapes[node.inputs[0]][..] {
                    if !(h * w).is_power_of_two() {
                        r.push(
                            Code::FormatViolation,
                            node.name.clone(),
                            format!(
                                "global avg pool over non-power-of-two spatial size \
                                 {h}x{w}; exact fixed-point division needs 2^k elements"
                            ),
                        );
                    } else {
                        let hw = (h * w) as i128;
                        fact.lo = fi.lo.saturating_mul(hw).min(0);
                        fact.hi = fi.hi.saturating_mul(hw).max(0);
                        if fact.lo < I64_LO || fact.hi > I64_HI {
                            r.push(
                                Code::Overflow,
                                node.name.clone(),
                                overflow_detail(nodes, id, fact.lo, fact.hi, input_dims),
                            );
                        }
                        fact.format = fi.format.and_then(|f| IntOp::pool_format(f, h * w));
                    }
                }
            }
            IntOp::Add => {
                let a = facts[node.inputs[0]];
                let b = facts[node.inputs[1]];
                if a.format != b.format {
                    r.push(
                        Code::MergeMismatch,
                        node.name.clone(),
                        format!(
                            "add operands are in different formats ({:?} vs {:?}); \
                             scales must be merged before lowering",
                            a.format, b.format
                        ),
                    );
                }
                fact.lo = a.lo + b.lo;
                fact.hi = a.hi + b.hi;
                if fact.lo < I64_LO || fact.hi > I64_HI {
                    r.push(
                        Code::Overflow,
                        node.name.clone(),
                        overflow_detail(nodes, id, fact.lo, fact.hi, input_dims),
                    );
                }
                fact.format = a.format.map(|f| EpiStep::AddResidual.out_format(f));
            }
            IntOp::Concat => {
                let ins: Vec<NodeFacts> = node.inputs.iter().map(|&i| facts[i]).collect();
                let first = ins[0];
                for (slot, fi) in ins.iter().enumerate().skip(1) {
                    if fi.format != first.format {
                        r.push(
                            Code::MergeMismatch,
                            node.name.clone(),
                            format!(
                                "concat input {slot} format {:?} differs from input 0 \
                                 format {:?}",
                                fi.format, first.format
                            ),
                        );
                    }
                }
                fact.lo = ins.iter().map(|f| f.lo).min().expect("nonempty");
                fact.hi = ins.iter().map(|f| f.hi).max().expect("nonempty");
                fact.format = first.format;
            }
        }
        facts.push(fact);
    }

    IntervalReport {
        nodes: facts,
        report: r,
    }
}

fn overflow_detail(
    nodes: &[IntNode],
    id: usize,
    lo: i128,
    hi: i128,
    input_dims: &[usize],
) -> String {
    format!(
        "proven interval [{lo}, {hi}] escapes i64 [{}, {}]; \
         counterexample: input shape {:?}, path {}",
        i64::MIN,
        i64::MAX,
        input_dims,
        path_to(nodes, id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_fixedpoint::lower::IntNode;

    /// QuantF32(32-bit) -> Dense with 16-bit-scale weights over a huge
    /// inner dim: the final accumulator provably escapes i64.
    fn overflowing_dense() -> IntGraph {
        let in_dim = 8;
        // |w| = 2^45 each; |x| <= 2^31; 8 taps -> ~2^79 >> i64.
        let w = vec![1i64 << 45; in_dim];
        let nodes = vec![
            IntNode {
                name: "input".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(0, 32, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "fc".into(),
                op: IntOp::Dense {
                    w,
                    in_dim,
                    out_dim: 1,
                    bias: None,
                    w_frac: 0,
                },
                inputs: vec![1],
            },
        ];
        IntGraph::from_parts(nodes, 2)
    }

    #[test]
    fn refutes_overflowing_dense_with_path() {
        let ig = overflowing_dense();
        let ir = analyze(&ig, &[1, 8]);
        assert!(ir.report.has(Code::Overflow), "{}", ir.report);
        let d = &ir.report.diags[0];
        assert!(d.detail.contains("input -> qin -> fc"), "{}", d.detail);
    }

    #[test]
    fn proves_small_dense_safe() {
        let nodes = vec![
            IntNode {
                name: "input".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "fc".into(),
                op: IntOp::Dense {
                    w: vec![3, -2, 5, 7],
                    in_dim: 2,
                    out_dim: 2,
                    bias: Some(vec![10, -10]),
                    w_frac: 4,
                },
                inputs: vec![1],
            },
        ];
        let ig = IntGraph::from_parts(nodes, 2);
        let ir = analyze(&ig, &[1, 2]);
        assert!(ir.proven(), "{}", ir.report);
        // Exact per-channel bound: x in [-128,127], col0 w = [3, 5]:
        // pos = 127*3 + 127*5 = 1016, neg = -128*3 + -128*5 = -1024.
        let f = ir.nodes[2];
        assert!(f.lo <= -1024 - 10 && f.hi >= 1016 + 10, "{f:?}");
    }

    #[test]
    fn flags_illegal_requant_shift() {
        let nodes = vec![
            IntNode {
                name: "input".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(70, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant {
                    format: QFormat::new(0, 8, true),
                },
                inputs: vec![1],
            },
        ];
        let ig = IntGraph::from_parts(nodes, 2);
        let ir = analyze(&ig, &[1, 4]);
        assert!(ir.report.has(Code::IllegalShift), "{}", ir.report);
    }

    #[test]
    fn flags_non_pow2_gap() {
        let nodes = vec![
            IntNode {
                name: "input".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "qin".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "gap".into(),
                op: IntOp::GlobalAvgPool,
                inputs: vec![1],
            },
        ];
        let ig = IntGraph::from_parts(nodes, 2);
        let ir = analyze(&ig, &[1, 2, 3, 3]);
        assert!(ir.report.has(Code::FormatViolation), "{}", ir.report);
    }
}
