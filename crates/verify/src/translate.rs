//! Translation validation for the fake-quant → fixed-point lowering:
//! statically proves, per lowered node, that the integer realization
//! (i64 accumulate, power-of-2 requant with round-half-to-even,
//! saturation, fused epilogues incl. leaky-ReLU) computes **exactly** the
//! rational-arithmetic fake-quant reference (eq. 4/11 with pow2 scales)
//! over the node's full input lattice — or refutes with a concrete
//! counterexample input (`TQT-V025`–`TQT-V030`).
//!
//! The reference semantics is `tqt_quant::exact`: dyadic-rational
//! arithmetic with no floating point anywhere, independently formulated
//! from the kernels it judges. The proof target is *int engine ≡ exact
//! rational fake-quant reference*; agreement with the f32 emulation of
//! the baked float graph stays an empirical property (bit-accuracy
//! harness) because the f32 program is itself only equal to the rational
//! reference by the pow2-exactness lemmas below.
//!
//! # Proof structure
//!
//! Each node class gets a closed-form equivalence argument, and the
//! certifier *checks the argument's witness points* by bounded-exhaustive
//! enumeration rather than trusting it:
//!
//! * **Quantization sites** (`QuantF32`): `v / s` with `s = 2^-f` is exact
//!   in f32 except when the result is subnormal (then both sides round to
//!   0, as the exact magnitude is `< 2^-126 < 1/2`) or overflows (then
//!   both sides clip). So realization and reference can only differ at
//!   rounding decisions, which change exactly at the tie points
//!   `(2q+1)·2^-(f+1)` — the certifier enumerates every grid point, tie
//!   point and its f32 neighbors for small bit-widths, and a stratified
//!   cover (always including the clip boundaries) beyond.
//! * **Requantization** (`Requant`, fused `Requant` steps): the kernel
//!   `shift_round` and the dyadic reference are both periodic,
//!   `f(v + k·2^(shift+1)) = f(v) + 2k`, so equality over one double
//!   period implies equality everywhere; the certifier checks a dense
//!   double-period window (plus windows at the proven interval endpoints)
//!   for small shifts and all rounding-class representatives for large
//!   ones. Non-positive shifts are exact left shifts on both sides and
//!   reduce to an overflow check against the proven interval.
//! * **Compute cores** (`Conv`/`Dense`): the i64 dot product *is* the
//!   exact rational sum on the product grid `2^-(fx+fw)` provided no
//!   accumulator wraps — which the interval analysis proves separately
//!   (`TQT-V011`); the certifier's job reduces to re-deriving every baked
//!   constant (quantized weights, grid-snapped biases) from the recorded
//!   original floats in exact arithmetic.
//! * **The i32 route** (`GemmRoute::I32`), the same lemma one width
//!   down: the i32 dot product *is* the exact sum provided every weight
//!   of output channel `c` fits in i8, every input lies in its format's
//!   `[qmin, qmax]` with at most 8 bits, and
//!   `B_c = Σₖ|w_ck|·max(|qmin|,|qmax|) < 2³¹` — which the plan checker
//!   re-derives separately (`TQT-V035`). Every partial sum, in any
//!   summation order, then lies in `[-B_c, B_c]`, so no i32 addition
//!   wraps. Widened to i64 the result equals the i64 kernel's
//!   accumulator; the bias is added after widening and the one shared
//!   epilogue runs on both routes, so the certificate for the i64
//!   realization covers the i32 one node for node.
//! * **Epilogues** (`Relu`, `LeakyRelu`, `Add`, fused chains): monotone
//!   lattice maps commute with on-grid clipping, and
//!   `max(v·2^-f, α·2^-A·v·2^-f) = 2^-(f+A)·max(v<<A, αv)` is an exact
//!   integer identity — the obligations are that the snapped constants
//!   match their exact re-derivation *on the grid of their chain
//!   position* and that merge operands share one grid (`TQT-V028`).
//!
//! The certifier consumes the [`Provenance`] map recorded by
//! [`lower_with_provenance`](tqt_fixedpoint::lower::lower_with_provenance)
//! (original float constants plus every scale/zero-point/rounding
//! decision) and the [`IntervalReport`] facts for sound input ranges.
//! NaN inputs are outside the certified domain: the fake-quant reference
//! does not define them and the float graph propagates them.

use crate::diag::{Code, Report};
use crate::interval::{path_to, IntervalReport};
use tqt_fixedpoint::lower::{
    EpiStep, IntGraph, IntNode, IntOp, NodeProv, Provenance, RoundMode, LEAKY_ALPHA_FRAC,
};
use tqt_fixedpoint::requant::shift_round;
use tqt_fixedpoint::QFormat;
use tqt_quant::exact::{fake_quant_int, round_to_grid, shift_round_ref};

/// Bit-widths up to which the quantization lattice is enumerated
/// exhaustively (every grid point, tie point, and f32 neighbor).
const EXHAUSTIVE_BITS: u32 = 12;

/// Requant shifts up to which a full double period (`2^(shift+1)` values)
/// is checked densely; larger shifts use rounding-class representatives.
const EXHAUSTIVE_SHIFT: i32 = 12;

/// Strided sample count per quant site beyond [`EXHAUSTIVE_BITS`].
const STRATIFIED_SAMPLES: i128 = 512;

/// Lower fake-quant clip limit `n` for a `bits`-wide grid (eq. 3),
/// derived independently from `QFormat::qmin` so the `TQT-V030` check is
/// not a tautology.
fn clip_lo(bits: u32, signed: bool) -> i128 {
    if !signed {
        0
    } else if bits >= 64 {
        i128::from(i64::MIN)
    } else {
        -(1i128 << (bits - 1))
    }
}

/// Upper fake-quant clip limit `p` (eq. 3), independent of
/// `QFormat::qmax`.
fn clip_hi(bits: u32, signed: bool) -> i128 {
    if bits >= 64 || (!signed && bits >= 63) {
        i128::from(i64::MAX)
    } else if signed {
        (1i128 << (bits - 1)) - 1
    } else {
        (1i128 << bits) - 1
    }
}

/// The next f32 toward `+inf` (bit-level successor; total order on the
/// non-negative/negative halves of the f32 line).
fn next_up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    // Exact ±0 test: canonicalize -0.0 so the bit-successor arithmetic
    // below starts from +0's pattern.
    let bits = if x == 0.0 { 0 } else { x.to_bits() }; // tqt:allow(float-eq): exact ±0 canonicalization
    if (bits >> 31) == 0 {
        f32::from_bits(bits + 1)
    } else if bits == 0x8000_0000 {
        f32::from_bits(1)
    } else {
        f32::from_bits(bits - 1)
    }
}

/// The next f32 toward `-inf`.
fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// The integer realization of a quantization site: the executor's own
/// element rule, [`QFormat::quantizer`].
fn quant_real(v: f32, format: QFormat) -> i64 {
    format.quantizer()(v).0
}

/// Emits the grid/tie/neighbor witness values around integer coordinate
/// `q` of the `2^-frac` grid into `out` (skipping non-finite construction
/// artifacts; ±inf are covered separately).
fn push_witnesses(q: i128, frac: i32, out: &mut Vec<f32>) {
    let s = 2f64.powi(-frac);
    let grid = (q as f64 * s) as f32;
    let tie = ((2 * q + 1) as f64 * s / 2.0) as f32;
    for v in [grid, tie] {
        if v.is_finite() {
            out.push(v);
            out.push(next_up(v));
            out.push(next_down(v));
        }
    }
}

/// One quantization/requantization site's declared decisions (shared
/// between standalone nodes and fused epilogue steps).
struct QuantSite<'a> {
    node: &'a str,
    path: String,
    format: QFormat,
    prov: &'a NodeProv,
}

/// Checks the structural obligations of a quant site: declared rounding
/// mode (`TQT-V026`, with a concrete tie witness), declared zero-point
/// (`TQT-V027`), declared clip range vs the independent eq.-3 derivation
/// (`TQT-V030`), and declared grid vs the emitted format (`TQT-V025`).
/// Returns `false` when a finding fired (callers skip enumeration then:
/// the declared reference is already known wrong).
fn check_quant_site(site: &QuantSite<'_>, r: &mut Report) -> bool {
    let NodeProv::Quant {
        bits,
        signed,
        frac,
        zero_point,
        round,
    } = site.prov
    else {
        r.push(
            Code::NotBitExact,
            site.node,
            format!(
                "quantization site has no Quant provenance record; the \
                 lowering decision cannot be validated (counterexample \
                 path: {})",
                site.path
            ),
        );
        return false;
    };
    let mut ok = true;
    if *round != RoundMode::HalfEven {
        // Tie witness on the declared grid: v = 3·2^-(frac+1) rounds to 2
        // under half-even but 1 under truncation (and 2 under
        // half-away-from-zero only by coincidence of sign).
        let tie = (3f64 * 2f64.powi(-(frac + 1))) as f32;
        let kernel = quant_real(tie, site.format);
        r.push(
            Code::RoundingMismatch,
            site.node,
            format!(
                "declared rounding mode {round:?}, but the kernel rounds \
                 half to even: tie input {tie:e} (3·2^-{}) yields {kernel} \
                 under the kernel, {} under {round:?} (counterexample \
                 path: {})",
                frac + 1,
                match round {
                    RoundMode::Truncate => 1,
                    _ => 2,
                },
                site.path
            ),
        );
        ok = false;
    }
    if *zero_point != 0 {
        r.push(
            Code::ZeroPointDrift,
            site.node,
            format!(
                "declared zero-point {zero_point}, but the symmetric \
                 power-of-2 realization applies no correction: input 0 maps \
                 to 0, not {zero_point} (counterexample path: {})",
                site.path
            ),
        );
        ok = false;
    }
    let (want_lo, want_hi) = (clip_lo(*bits, *signed), clip_hi(*bits, *signed));
    let (got_lo, got_hi) = (
        i128::from(site.format.qmin()),
        i128::from(site.format.qmax()),
    );
    if want_lo != got_lo || want_hi != got_hi {
        r.push(
            Code::ClampRangeMismatch,
            site.node,
            format!(
                "declared {bits}-bit {} grid clips to [{want_lo}, \
                 {want_hi}] (eq. 3), but the integer clamp saturates to \
                 [{got_lo}, {got_hi}]; boundary input {} is mapped \
                 differently (counterexample path: {})",
                if *signed { "signed" } else { "unsigned" },
                if want_hi != got_hi { want_hi.min(got_hi) + 1 } else { want_lo.max(got_lo) - 1 },
                site.path
            ),
        );
        ok = false;
    }
    if *frac != site.format.frac {
        r.push(
            Code::NotBitExact,
            site.node,
            format!(
                "declared grid 2^-{frac} disagrees with the emitted format \
                 2^-{}; every off-grid input is a counterexample \
                 (counterexample path: {})",
                site.format.frac, site.path
            ),
        );
        ok = false;
    }
    ok
}

/// Proves a `QuantF32` site bit-exact against the exact rational
/// reference over its full input lattice (witness enumeration of the
/// closed-form argument in the module docs).
fn certify_quantf32(site: &QuantSite<'_>, r: &mut Report) {
    if !check_quant_site(site, r) {
        return;
    }
    let format = site.format;
    let (qmin, qmax) = (i128::from(format.qmin()), i128::from(format.qmax()));
    let mut witnesses: Vec<f32> = vec![
        0.0,
        -0.0,
        f32::from_bits(1), // smallest subnormal
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        -f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    if format.bits <= EXHAUSTIVE_BITS {
        for q in (qmin - 2)..=(qmax + 2) {
            push_witnesses(q, format.frac, &mut witnesses);
        }
    } else {
        let span = (qmax - qmin).max(1);
        let stride = (span / STRATIFIED_SAMPLES).max(1);
        let mut q = qmin - 2;
        while q <= qmax + 2 {
            push_witnesses(q, format.frac, &mut witnesses);
            q += stride;
        }
        for q in [qmin - 2, qmin - 1, qmin, -1, 0, 1, qmax - 1, qmax, qmax + 1, qmax + 2] {
            push_witnesses(q, format.frac, &mut witnesses);
        }
    }
    for v in witnesses {
        let real = i128::from(quant_real(v, format));
        let Some(reference) = fake_quant_int(v, format.frac, qmin, qmax) else {
            continue; // NaN: outside the certified domain
        };
        if real != reference {
            r.push(
                Code::NotBitExact,
                site.node,
                format!(
                    "quantization of input {v:e} (bits {:#010x}) yields \
                     {real} but the exact rational reference yields \
                     {reference} on the 2^-{} grid (counterexample path: \
                     {})",
                    v.to_bits(),
                    format.frac,
                    site.path
                ),
            );
            return; // one counterexample per site
        }
    }
}

/// Proves a requantization (standalone `Requant` or fused `Requant`
/// step) bit-exact: `shift_round` against the dyadic reference over the
/// node's proven input interval, exploiting shift periodicity.
fn certify_requant(site: &QuantSite<'_>, in_frac: i32, lo: i128, hi: i128, r: &mut Report) {
    if !check_quant_site(site, r) {
        return;
    }
    let shift = in_frac - site.format.frac;
    if shift.abs() > 63 {
        return; // already refuted by the interval pass (TQT-V012/V023)
    }
    let lo64 = lo.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
    let hi64 = hi.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
    if shift <= 0 {
        // Exact left shift on both sides; only i64 wrap can diverge.
        for v in [lo64, hi64] {
            let exact = i128::from(v) << shift.unsigned_abs();
            if i64::try_from(exact).is_err() {
                r.push(
                    Code::NotBitExact,
                    site.node,
                    format!(
                        "requant left shift by {} wraps i64 on reachable \
                         input {v} (exact value {exact}); reference is the \
                         exact product (counterexample path: {})",
                        -shift, site.path
                    ),
                );
                return;
            }
        }
        return;
    }
    let mut check = |v: i64| -> bool {
        let kernel = shift_round(v, shift);
        match shift_round_ref(v, shift) {
            Some(reference) if reference == kernel => true,
            reference => {
                r.push(
                    Code::NotBitExact,
                    site.node,
                    format!(
                        "shift_round({v}, {shift}) = {kernel} but the exact \
                         rational reference is {reference:?} \
                         (counterexample path: {})",
                        site.path
                    ),
                );
                false
            }
        }
    };
    if shift <= EXHAUSTIVE_SHIFT {
        // One dense double period around 0 (periodicity extends it to all
        // of i64), plus windows at the proven interval endpoints to
        // witness the lemma where the values actually live.
        let period = 1i64 << (shift + 1);
        for v in -period..=period {
            if !check(v) {
                return;
            }
        }
        for base in [lo64, hi64] {
            for off in -64i64..=64 {
                let Some(v) = base.checked_add(off) else { continue };
                if !check(v) {
                    return;
                }
            }
        }
    } else {
        // Rounding-class representatives: every (floor parity × remainder
        // class) pair near 0 and near both interval endpoints.
        let period = 1i64 << shift;
        let half = period >> 1;
        let rems = [0i64, 1, half - 1, half, half + 1, period - 1];
        for base in [0i64, lo64 & !(2 * period - 1), hi64 & !(2 * period - 1)] {
            for parity in 0..2i64 {
                for &rem in &rems {
                    let v = base
                        .checked_add(parity * period)
                        .and_then(|b| b.checked_add(rem));
                    let Some(v) = v else { continue };
                    if !check(v) {
                        return;
                    }
                }
            }
        }
    }
}

/// Re-derives every baked compute constant (quantized weights, biases on
/// the accumulator grid) from the recorded original floats in exact
/// rational arithmetic (`TQT-V025` on any divergence), and checks the
/// declared accumulator grid.
#[allow(clippy::too_many_arguments)]
fn certify_compute(
    node: &str,
    path: &str,
    w: &[i64],
    bias: Option<&[i64]>,
    w_frac: i32,
    in_frac: i32,
    prov: &NodeProv,
    r: &mut Report,
) {
    let NodeProv::Compute {
        orig_w,
        w_frac: p_wfrac,
        w_bits,
        w_signed,
        orig_bias,
        acc_frac,
    } = prov
    else {
        r.push(
            Code::NotBitExact,
            node,
            format!(
                "compute core has no Compute provenance record; baked \
                 weights cannot be validated (counterexample path: {path})"
            ),
        );
        return;
    };
    if *p_wfrac != w_frac {
        r.push(
            Code::NotBitExact,
            node,
            format!(
                "declared weight grid 2^-{p_wfrac} disagrees with the baked \
                 node's 2^-{w_frac} (counterexample path: {path})"
            ),
        );
        return;
    }
    if *acc_frac != in_frac + w_frac {
        r.push(
            Code::NotBitExact,
            node,
            format!(
                "declared accumulator grid 2^-{acc_frac} is not the product \
                 grid 2^-({in_frac}+{w_frac}); every nonzero activation is \
                 a counterexample (counterexample path: {path})"
            ),
        );
        return;
    }
    if orig_w.len() != w.len() {
        r.push(
            Code::NotBitExact,
            node,
            format!(
                "provenance records {} original weights but the baked node \
                 holds {} (counterexample path: {path})",
                orig_w.len(),
                w.len()
            ),
        );
        return;
    }
    let (wlo, whi) = (clip_lo(*w_bits, *w_signed), clip_hi(*w_bits, *w_signed));
    let mut first: Option<(usize, i128, i64)> = None;
    let mut mismatches = 0usize;
    for (i, (&orig, &baked)) in orig_w.iter().zip(w).enumerate() {
        let expected = fake_quant_int(orig, w_frac, wlo, whi);
        if expected != Some(i128::from(baked)) {
            mismatches += 1;
            if first.is_none() {
                first = Some((i, expected.unwrap_or(0), baked));
            }
        }
    }
    if let Some((i, expected, baked)) = first {
        r.push(
            Code::NotBitExact,
            node,
            format!(
                "baked weight [{i}] is {baked} but exact fake-quant of the \
                 original {} on the {}-bit 2^-{w_frac} grid is {expected} \
                 ({mismatches} weight(s) diverge; counterexample path: \
                 {path})",
                orig_w[i], w_bits
            ),
        );
        return;
    }
    match (orig_bias, bias) {
        (None, None) => {}
        (Some(orig), Some(baked)) if orig.len() == baked.len() => {
            for (i, (&o, &b)) in orig.iter().zip(baked).enumerate() {
                let expected = round_to_grid(o, *acc_frac);
                if expected != Some(i128::from(b)) {
                    r.push(
                        Code::NotBitExact,
                        node,
                        format!(
                            "baked bias [{i}] is {b} but the exact snap of \
                             the original {o} onto the accumulator grid \
                             2^-{acc_frac} is {expected:?} (counterexample \
                             path: {path})"
                        ),
                    );
                    return;
                }
            }
        }
        _ => {
            r.push(
                Code::NotBitExact,
                node,
                format!(
                    "bias presence/length disagrees between provenance and \
                     the baked node (counterexample path: {path})"
                ),
            );
        }
    }
}

/// Checks a standalone ReLU against its provenance: the cap constant must
/// be the exact grid snap of the recorded original on the *input* grid.
fn certify_relu(
    node: &str,
    path: &str,
    cap_q: Option<i64>,
    in_frac: i32,
    prov: &NodeProv,
    fused: bool,
    r: &mut Report,
) {
    // In a fused chain a mis-derived constant is an epilogue-semantics
    // divergence (the chain no longer replays the standalone nodes);
    // standalone it is a plain bit-exactness failure.
    let code = if fused { Code::EpilogueMismatch } else { Code::NotBitExact };
    let NodeProv::Relu { orig_cap, frac } = prov else {
        r.push(
            code,
            node,
            format!(
                "relu has no Relu provenance record (counterexample path: \
                 {path})"
            ),
        );
        return;
    };
    if *frac != in_frac {
        r.push(
            code,
            node,
            format!(
                "relu cap was snapped on the 2^-{frac} grid but the node \
                 executes on 2^-{in_frac}; inputs between the two grids' \
                 cap levels are counterexamples (counterexample path: \
                 {path})"
            ),
        );
        return;
    }
    let expected = orig_cap.and_then(|c| round_to_grid(c, in_frac));
    if expected != cap_q.map(i128::from) {
        r.push(
            code,
            node,
            format!(
                "relu cap is {cap_q:?} but the exact snap of the original \
                 {orig_cap:?} onto the 2^-{in_frac} grid is {expected:?}; \
                 any input above the smaller cap is a counterexample \
                 (counterexample path: {path})"
            ),
        );
    }
}

/// Checks a leaky ReLU's slope constant against its provenance (the
/// `max(v<<A, αv)` realization is an exact integer identity once the
/// snapped slope matches).
fn certify_leaky(
    node: &str,
    path: &str,
    alpha_q: i64,
    prov: &NodeProv,
    fused: bool,
    r: &mut Report,
) {
    let code = if fused { Code::EpilogueMismatch } else { Code::NotBitExact };
    let NodeProv::Leaky { orig_alpha } = prov else {
        r.push(
            code,
            node,
            format!(
                "leaky relu has no Leaky provenance record (counterexample \
                 path: {path})"
            ),
        );
        return;
    };
    let expected = round_to_grid(*orig_alpha, LEAKY_ALPHA_FRAC);
    if expected != Some(i128::from(alpha_q)) {
        r.push(
            code,
            node,
            format!(
                "leaky slope is {alpha_q} but the exact Q{LEAKY_ALPHA_FRAC} \
                 snap of the original {orig_alpha} is {expected:?}; any \
                 negative input is a counterexample (counterexample path: \
                 {path})"
            ),
        );
    }
}

/// Flags merge operands on different grids: the integer add/concat treats
/// both operands as coordinates of one grid, so differing fractional
/// lengths make the sum meaningless (`TQT-V028`).
fn certify_merge(
    node: &str,
    path: &str,
    what: &str,
    operands: &[(usize, Option<QFormat>)],
    nodes: &[IntNode],
    r: &mut Report,
) {
    let Some((first_id, Some(first))) = operands.first().copied() else {
        return;
    };
    for &(id, f) in &operands[1..] {
        let Some(f) = f else { continue };
        if f.frac != first.frac {
            r.push(
                Code::ScaleMergeViolation,
                node,
                format!(
                    "{what} operand `{}` is on grid 2^-{} but operand `{}` \
                     is on 2^-{}; the integer {what} sums raw coordinates, \
                     so e.g. both operands reading 1 denote different reals \
                     — merge the producers onto one threshold before \
                     lowering (counterexample path: {path})",
                    nodes[first_id].name, first.frac, nodes[id].name, f.frac
                ),
            );
            return;
        }
    }
}

/// Certifies every node of a lowered graph against its provenance: proves
/// the integer realization equal to the exact rational fake-quant
/// reference, or reports `TQT-V025`–`TQT-V030` findings with concrete
/// counterexample inputs/paths. `facts` must come from
/// [`crate::interval::analyze`] over the same graph (sound input
/// intervals; its `TQT-V011` overflow proof is the precondition under
/// which i64 accumulation is exact).
pub fn certify(
    ig: &IntGraph,
    prov: &Provenance,
    facts: &IntervalReport,
    _input_dims: &[usize],
) -> Report {
    let nodes = ig.nodes();
    let mut r = Report::new();
    for (id, node) in nodes.iter().enumerate() {
        let path = path_to(nodes, id);
        let in_fact = node.inputs.first().map(|&i| facts.nodes[i]);
        let in_frac = in_fact.and_then(|f| f.format).map(|f| f.frac).unwrap_or(0);
        let np = prov.get(&node.name);
        match &node.op {
            IntOp::Input | IntOp::MaxPool { .. } | IntOp::Flatten => {}
            IntOp::GlobalAvgPool => {
                // Exact i128 sum with a pow2 spatial divisor folded into
                // the grid: exact by construction; non-pow2 sizes are
                // already refuted as TQT-V013 by the interval pass.
            }
            IntOp::QuantF32 { format } => {
                let site = QuantSite {
                    node: &node.name,
                    path: path.clone(),
                    format: *format,
                    prov: np.unwrap_or(&NodeProv::Opaque),
                };
                certify_quantf32(&site, &mut r);
            }
            IntOp::Requant { format } => {
                let (lo, hi) = in_fact.map(|f| (f.lo, f.hi)).unwrap_or((0, 0));
                let site = QuantSite {
                    node: &node.name,
                    path: path.clone(),
                    format: *format,
                    prov: np.unwrap_or(&NodeProv::Opaque),
                };
                certify_requant(&site, in_frac, lo, hi, &mut r);
            }
            IntOp::Conv { w, bias, w_frac, .. } => {
                certify_compute(
                    &node.name,
                    &path,
                    w,
                    bias.as_deref(),
                    *w_frac,
                    in_frac,
                    np.unwrap_or(&NodeProv::Opaque),
                    &mut r,
                );
            }
            IntOp::Dense { w, bias, w_frac, .. } => {
                certify_compute(
                    &node.name,
                    &path,
                    w,
                    bias.as_deref(),
                    *w_frac,
                    in_frac,
                    np.unwrap_or(&NodeProv::Opaque),
                    &mut r,
                );
            }
            IntOp::Relu { cap_q } => {
                certify_relu(
                    &node.name,
                    &path,
                    *cap_q,
                    in_frac,
                    np.unwrap_or(&NodeProv::Opaque),
                    false,
                    &mut r,
                );
            }
            IntOp::LeakyRelu { alpha_q } => {
                certify_leaky(
                    &node.name,
                    &path,
                    *alpha_q,
                    np.unwrap_or(&NodeProv::Opaque),
                    false,
                    &mut r,
                );
            }
            IntOp::Add | IntOp::Concat => {
                let what = if matches!(node.op, IntOp::Add) { "add" } else { "concat" };
                let operands: Vec<(usize, Option<QFormat>)> = node
                    .inputs
                    .iter()
                    .map(|&i| (i, facts.nodes[i].format))
                    .collect();
                certify_merge(&node.name, &path, what, &operands, nodes, &mut r);
            }
            IntOp::Fused { core, epi } => {
                certify_fused(ig, prov, facts, id, core, epi, &path, &mut r);
            }
        }
    }
    r
}

/// Certifies a fused node: structure against the chain record
/// (`TQT-V029`), each member against its own provenance with the running
/// chain grid, and residual merges (`TQT-V028`).
#[allow(clippy::too_many_arguments)]
fn certify_fused(
    ig: &IntGraph,
    prov: &Provenance,
    facts: &IntervalReport,
    id: usize,
    core: &IntOp,
    epi: &[EpiStep],
    path: &str,
    r: &mut Report,
) {
    let nodes = ig.nodes();
    let node = &nodes[id];
    let Some(NodeProv::Fused { members }) = prov.get(&node.name) else {
        r.push(
            Code::EpilogueMismatch,
            node.name.clone(),
            format!(
                "fused node has no Fused provenance record; the chain it \
                 replaced cannot be validated (counterexample path: {path})"
            ),
        );
        return;
    };
    if members.len() != epi.len() + 1 {
        r.push(
            Code::EpilogueMismatch,
            node.name.clone(),
            format!(
                "fused epilogue has {} step(s) but the chain record names \
                 {} member(s) (core + one per step expected); the fused \
                 node does not replay the chain it replaced \
                 (counterexample path: {path})",
                epi.len(),
                members.len()
            ),
        );
        return;
    }
    let in_fact = node.inputs.first().map(|&i| facts.nodes[i]);
    let in_frac = in_fact.and_then(|f| f.format).map(|f| f.frac).unwrap_or(0);
    let (in_lo, in_hi) = in_fact.map(|f| (f.lo, f.hi)).unwrap_or((0, 0));
    // Core: same obligations as a standalone conv/dense, and the same
    // exact per-channel accumulator bounds as the interval pass (sound
    // input ranges for the epilogue requant witness windows; the chain's
    // reachable set is much tighter than the raw i64 range, and the
    // left-shift wrap check must not refute unreachable inputs).
    let core_prov = prov.get(&members[0]).unwrap_or(&NodeProv::Opaque);
    let (mut cur_frac, mut lo, mut hi) = match core {
        IntOp::Conv {
            w,
            wdims,
            bias,
            geom,
            w_frac,
            ..
        } => {
            certify_compute(
                &node.name,
                path,
                w,
                bias.as_deref(),
                *w_frac,
                in_frac,
                core_prov,
                r,
            );
            let (lo, hi) = crate::interval::conv_core_bounds(
                w,
                *wdims,
                bias.as_deref(),
                geom.pad > 0,
                in_lo,
                in_hi,
            );
            (in_frac + w_frac, lo, hi)
        }
        IntOp::Dense {
            w,
            in_dim,
            out_dim,
            bias,
            w_frac,
        } => {
            certify_compute(
                &node.name,
                path,
                w,
                bias.as_deref(),
                *w_frac,
                in_frac,
                core_prov,
                r,
            );
            let (lo, hi) = crate::interval::dense_core_bounds(
                w,
                *in_dim,
                *out_dim,
                bias.as_deref(),
                in_lo,
                in_hi,
            );
            (in_frac + w_frac, lo, hi)
        }
        _ => return, // non-compute core: already TQT-V023
    };
    let mut residual_slot = 1usize;
    for (step_idx, (step, member)) in epi.iter().zip(&members[1..]).enumerate() {
        let mp = prov.get(member).unwrap_or(&NodeProv::Opaque);
        match step {
            EpiStep::Requant { format } => {
                if !matches!(mp, NodeProv::Quant { .. }) {
                    r.push(
                        Code::EpilogueMismatch,
                        node.name.clone(),
                        format!(
                            "epilogue step {step_idx} is a requant but chain \
                             member `{member}` was lowered as a different \
                             kind (counterexample path: {path})"
                        ),
                    );
                    return;
                }
                let site = QuantSite {
                    node: &node.name,
                    path: path.to_string(),
                    format: *format,
                    prov: mp,
                };
                certify_requant(&site, cur_frac, lo, hi, r);
                cur_frac = format.frac;
                lo = i128::from(format.qmin());
                hi = i128::from(format.qmax());
            }
            EpiStep::AddResidual => {
                let Some(&rid) = node.inputs.get(residual_slot) else {
                    return; // arity mismatch: already TQT-V023
                };
                residual_slot += 1;
                let rf = facts.nodes[rid].format;
                if rf.map(|f| f.frac) != Some(cur_frac) {
                    r.push(
                        Code::ScaleMergeViolation,
                        node.name.clone(),
                        format!(
                            "fused residual `{}` is on grid {:?} but the \
                             chain accumulator is on 2^-{cur_frac} at step \
                             {step_idx}; the add sums incommensurate grids \
                             (counterexample path: {path})",
                            nodes[rid].name,
                            rf.map(|f| f.frac)
                        ),
                    );
                }
                let rfac = facts.nodes[rid];
                lo += rfac.lo;
                hi += rfac.hi;
            }
            EpiStep::Relu { cap_q } => {
                certify_relu(&node.name, path, *cap_q, cur_frac, mp, true, r);
                let cap = cap_q.map(i128::from).unwrap_or(i128::MAX);
                lo = lo.max(0).min(cap);
                hi = hi.max(0).min(cap);
            }
            EpiStep::LeakyRelu { alpha_q } => {
                certify_leaky(&node.name, path, *alpha_q, mp, true, r);
                let a = i128::from(*alpha_q);
                let f = |v: i128| (v << LEAKY_ALPHA_FRAC).max(v.saturating_mul(a));
                let (nlo, nhi) = (f(lo).min(f(hi)), f(lo).max(f(hi)));
                lo = nlo;
                hi = nhi;
                cur_frac += LEAKY_ALPHA_FRAC;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_limits_match_qformat_on_common_widths() {
        // The independent derivation must agree with QFormat on every
        // width the pipeline emits — the V030 check then only fires on
        // genuinely inconsistent declarations.
        for bits in 2..=32u32 {
            for signed in [false, true] {
                let f = QFormat::new(0, bits, signed);
                assert_eq!(clip_lo(bits, signed), i128::from(f.qmin()), "{bits}/{signed}");
                assert_eq!(clip_hi(bits, signed), i128::from(f.qmax()), "{bits}/{signed}");
            }
        }
    }

    #[test]
    fn next_up_down_step_one_ulp() {
        assert_eq!(next_up(0.0), f32::from_bits(1));
        assert_eq!(next_down(0.0), -f32::from_bits(1));
        assert_eq!(next_up(1.0), f32::from_bits(1.0f32.to_bits() + 1));
        assert_eq!(next_down(1.0), f32::from_bits(1.0f32.to_bits() - 1));
        assert!(next_up(1.5) > 1.5);
        assert!(next_down(-2.0) < -2.0);
    }

    #[test]
    fn quant_real_agrees_with_exact_reference_on_dense_sweep() {
        let format = QFormat::new(5, 6, true);
        let (qmin, qmax) = (i128::from(format.qmin()), i128::from(format.qmax()));
        let mut v = -2.0f32;
        while v < 2.0 {
            assert_eq!(
                Some(i128::from(quant_real(v, format))),
                fake_quant_int(v, format.frac, qmin, qmax),
                "v={v}"
            );
            v = next_up(v + 1e-4);
        }
    }
}
