//! Blocked, pool-parallel `i64 × i64` GEMM with **exact i128
//! accumulation** — the engine's proven fallback for conv/dense nodes
//! the i32 route cannot take.
//!
//! The executor's plan ([`crate::plan`]) routes a conv/dense node onto
//! the `madd_epi16` kernel ([`crate::gemm_i8::gemm_i8_narrow_fused`])
//! whenever its input is at most 8 bits wide, its weights fit in i8 and
//! the per-channel bound `Σ|w|·max(|qmin|,|qmax|)` stays below `2³¹`.
//! Everything else — 16-bit configs, anything the bound rejects — runs
//! here. Activations are stored as `i64`, and the kernel counts, per
//! output element, whether the exact accumulator escaped the i64 range
//! (`narrow` semantics: truncation equals two's-complement wrapping, so
//! the stored bits match a pure-i64 engine while the count feeds the
//! `sanitize` feature and the tqt-verify containment check). It applies
//! register blocking to wide integers: `MRB×NCB` i128 accumulator tiles
//! held on the stack, B rows streamed once per row tile, and the
//! row-block loop fanned out over the `tqt-rt` pool.
//!
//! **Packed operands.** Either operand may be supplied pre-packed in the
//! exact panel layout the kernel walks ([`Lhs::Packed`] /
//! [`Rhs::Packed`], produced by [`pack_lhs`] / [`pack_rhs`]). The
//! executor's plan packs every conv and dense weight matrix once at
//! build time ([`crate::plan`]), so per-call packing cost is zero and
//! the kernel reads weights with unit stride. Packing only permutes the
//! operand; every product is still accumulated in ascending-`k` order,
//! so packed and row-major calls are bit-identical.
//!
//! **Fused epilogue.** [`gemm_i64_narrow_fused`] applies an ordered list
//! of [`TileStep`]s to each element while the narrowed value is still in
//! registers: requantization (with saturation counting), a residual add
//! (with wrap counting), and (capped or leaky) ReLU. That per-element tail
//! is one function, `finish`, and every integer kernel of the engine
//! calls it: this GEMM, the i32 GEMM, the depthwise loop, and the
//! executor's elementwise loop, which runs each standalone
//! `Requant`/`Relu`/`LeakyRelu`/`Add` node as a one-step epilogue over its
//! input. One resolver, `TileStep::resolve`, turns a graph-level
//! [`EpiStep`] into a tile step for fused and standalone nodes alike. Each
//! step therefore has one definition, which is what makes graph-level
//! fusion bit-exact (`tests/fusion_parity.rs`) and the two GEMM routes
//! bit-identical.
//!
//! **Determinism.** Every output element is accumulated in ascending-`k`
//! order by exactly one closure invocation, and integer addition is
//! associative, so serial and parallel runs are bit-identical — including
//! the overflow *count*, which depends only on each element's exact i128
//! value. Per-block counts are merged into one [`Counter`] (a sum of
//! non-negative integers, order-independent).

use crate::lower::{narrow, EpiStep, LEAKY_ALPHA_FRAC};
use crate::qtensor::QFormat;
use crate::requant::shift_round;
use tqt_rt::pool;
use tqt_rt::sync::Counter;

/// Accumulator-tile rows.
const MRB: usize = 4;
/// Accumulator-tile columns (the tile is `4×64` i128 = 4 KiB of stack).
const NCB: usize = 64;
/// Rows of C per parallel row block.
const ROWS_PER_BLOCK: usize = 16;

/// The left operand: row-major `[m, k]`, or pre-packed by [`pack_lhs`].
#[derive(Clone, Copy)]
pub enum Lhs<'a> {
    /// Row-major `a[i*k + kk]`.
    Rows(&'a [i64]),
    /// [`pack_lhs`] layout: `MRB`-tall k-major panels.
    Packed(&'a [i64]),
}

/// The right operand: row-major `[k, n]`, or pre-packed by [`pack_rhs`].
#[derive(Clone, Copy)]
pub enum Rhs<'a> {
    /// Row-major `b[kk*n + j]`.
    Rows(&'a [i64]),
    /// [`pack_rhs`] layout: `NCB`-wide k-major panels.
    Packed(&'a [i64]),
}

/// Element count of the [`pack_lhs`] buffer for an `[m, k]` operand.
pub const fn packed_lhs_len(m: usize, k: usize) -> usize {
    m.div_ceil(MRB) * MRB * k
}

/// Packs a row-major `[m, k]` left operand into `MRB`-tall k-major
/// panels: panel `p` covers rows `p*MRB..`, and element
/// `dst[p*MRB*k + kk*MRB + r] = a[(p*MRB + r)*k + kk]` (zero-padded
/// rows past `m`). This is exactly the order the kernel reads A, so a
/// packed call touches the operand with unit stride.
pub fn pack_lhs(a: &[i64], m: usize, k: usize, dst: &mut [i64]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(dst.len(), packed_lhs_len(m, k), "packed lhs length mismatch");
    dst.fill(0);
    for p in 0..m.div_ceil(MRB) {
        let panel = &mut dst[p * MRB * k..(p + 1) * MRB * k];
        for r in 0..MRB.min(m - p * MRB) {
            let row = &a[(p * MRB + r) * k..(p * MRB + r + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * MRB + r] = v;
            }
        }
    }
}

/// Element count of the [`pack_rhs`] buffer for a `[k, n]` operand.
pub const fn packed_rhs_len(k: usize, n: usize) -> usize {
    n.div_ceil(NCB) * NCB * k
}

/// Packs a row-major `[k, n]` right operand into `NCB`-wide k-major
/// panels: panel `q` covers columns `q*NCB..`, and element
/// `dst[q*NCB*k + kk*NCB + j] = b[kk*n + q*NCB + j]` (zero-padded
/// columns past `n`).
pub fn pack_rhs(b: &[i64], k: usize, n: usize, dst: &mut [i64]) {
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(dst.len(), packed_rhs_len(k, n), "packed rhs length mismatch");
    dst.fill(0);
    for q in 0..n.div_ceil(NCB) {
        let jc = q * NCB;
        let nc = NCB.min(n - jc);
        let panel = &mut dst[q * NCB * k..(q + 1) * NCB * k];
        for kk in 0..k {
            panel[kk * NCB..kk * NCB + nc].copy_from_slice(&b[kk * n + jc..kk * n + jc + nc]);
        }
    }
}

/// One register-resident epilogue step, applied per element after the
/// narrowed accumulator (plus biases) is formed — or, for a standalone
/// elementwise node, to each input element. Built from graph-level
/// [`EpiStep`]s by `TileStep::resolve`.
#[derive(Clone, Copy)]
pub enum TileStep<'a> {
    /// Round-half-even shift by `shift` then clamp to `[qmin, qmax]`,
    /// counting clamped elements (a `Requant` node).
    Requant { shift: i32, qmin: i64, qmax: i64 },
    /// Exact i128 add of the same-index element of a residual operand,
    /// narrowed with wrap counting (an `Add` node). The slice is indexed
    /// by the element's position in the full `[m, n]` output.
    AddResidual(&'a [i64]),
    /// `max(0)` then `min(cap)` (a `Relu` node; `i64::MAX` for an
    /// uncapped ReLU).
    ReluCap(i64),
    /// `max(v << LEAKY_ALPHA_FRAC, v * alpha_q)` narrowed with wrap
    /// counting (a `LeakyRelu` node; the element moves to the
    /// `frac + LEAKY_ALPHA_FRAC` grid).
    Leaky(i64),
}

impl<'a> TileStep<'a> {
    /// The tile step that performs `step` on a value on the `input` grid
    /// (shifts are relative, formats absolute); `residual` is the operand
    /// of an [`EpiStep::AddResidual`]. Standalone elementwise nodes and
    /// fused epilogues both resolve their steps here.
    pub(crate) fn resolve(step: EpiStep, input: QFormat, residual: &'a [i64]) -> Self {
        match step {
            EpiStep::Requant { format } => TileStep::Requant {
                shift: input.frac - format.frac,
                qmin: format.qmin(),
                qmax: format.qmax(),
            },
            EpiStep::AddResidual => TileStep::AddResidual(residual),
            EpiStep::Relu { cap_q } => TileStep::ReluCap(cap_q.unwrap_or(i64::MAX)),
            EpiStep::LeakyRelu { alpha_q } => TileStep::Leaky(alpha_q),
        }
    }
}

/// Narrows one exact accumulator (biases already added) to i64, counting
/// a wrap into `overflowed`, then applies the fused epilogue `epi` to it.
/// This is the single per-element tail of the engine — this kernel, the
/// i32 kernel ([`crate::gemm_i8::gemm_i8_narrow_fused`]), the depthwise
/// loop and the standalone elementwise nodes — so requantization,
/// residual add, relu and leaky saturate, wrap and count identically
/// whichever kernel produced the value. `at` is the element's index into
/// any [`TileStep::AddResidual`] operand.
#[inline(always)]
pub(crate) fn finish(
    wide: i128,
    epi: &[TileStep],
    at: usize,
    overflowed: &mut u64,
    saturated: &mut u64,
) -> i64 {
    let mut v = narrow(wide, overflowed);
    for step in epi {
        match *step {
            TileStep::Requant { shift, qmin, qmax } => {
                let r = shift_round(v, shift);
                let c = r.clamp(qmin, qmax);
                if c != r {
                    *saturated += 1;
                }
                v = c;
            }
            TileStep::AddResidual(res) => {
                v = narrow(i128::from(v) + i128::from(res[at]), overflowed);
            }
            TileStep::ReluCap(cap) => {
                v = v.max(0).min(cap);
            }
            TileStep::Leaky(alpha) => {
                let wide =
                    (i128::from(v) << LEAKY_ALPHA_FRAC).max(i128::from(v) * i128::from(alpha));
                v = narrow(wide, overflowed);
            }
        }
    }
    v
}

/// `out[m,n] = epi(narrow(a[m,k] · b[k,n] + bias))` with exact i128
/// accumulation per element, over row-major or packed operands. Values
/// escaping the i64 range are stored wrapped (the reference-engine
/// contract). `bias_row` adds one value per output row (conv channel
/// bias), `bias_col` one per output column (dense feature bias); pass an
/// empty `epi` for the raw accumulators. Clamped elements of `Requant`
/// steps are counted into `saturated`; wrapped narrows (the accumulator
/// itself and any `AddResidual` or `Leaky` step) into `overflowed`.
///
/// # Panics
///
/// Panics if operand lengths disagree with the dimensions (packed
/// operands must have exactly [`packed_lhs_len`] / [`packed_rhs_len`]
/// elements).
#[allow(clippy::too_many_arguments)]
pub fn gemm_i64_narrow_fused(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs,
    b: Rhs,
    bias_row: Option<&[i64]>,
    bias_col: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
    overflowed: &Counter,
    saturated: &Counter,
    parallel: bool,
) {
    match a {
        Lhs::Rows(s) => assert_eq!(s.len(), m * k, "lhs length mismatch"),
        Lhs::Packed(s) => assert_eq!(s.len(), packed_lhs_len(m, k), "packed lhs length mismatch"),
    }
    match b {
        Rhs::Rows(s) => assert_eq!(s.len(), k * n, "rhs length mismatch"),
        Rhs::Packed(s) => assert_eq!(s.len(), packed_rhs_len(k, n), "packed rhs length mismatch"),
    }
    assert_eq!(out.len(), m * n, "output length mismatch");
    if let Some(br) = bias_row {
        assert_eq!(br.len(), m, "row-bias length mismatch");
    }
    if let Some(bc) = bias_col {
        assert_eq!(bc.len(), n, "column-bias length mismatch");
    }
    for step in epi {
        if let TileStep::AddResidual(res) = step {
            assert_eq!(res.len(), m * n, "residual length mismatch");
        }
    }
    if m == 0 || n == 0 {
        return;
    }
    let run_block = |row0: usize, ochunk: &mut [i64]| {
        let rows = ochunk.len() / n;
        let mut local_ovf = 0u64;
        let mut local_sat = 0u64;
        for jc in (0..n).step_by(NCB) {
            let nc = NCB.min(n - jc);
            // Both layouts reduce to `base + kk*stride` for the nc-wide
            // B row slice of this column panel.
            let (bbuf, bbase, bstride) = match b {
                Rhs::Rows(s) => (s, jc, n),
                Rhs::Packed(s) => (s, (jc / NCB) * NCB * k, NCB),
            };
            for rb in (0..rows).step_by(MRB) {
                let mr = MRB.min(rows - rb);
                // `row0` is a multiple of ROWS_PER_BLOCK and `rb` of MRB,
                // so `row0 + rb` always lands on a packed-panel boundary.
                let (abuf, abase, astride) = match a {
                    Lhs::Rows(s) => (s, (row0 + rb) * k, k),
                    Lhs::Packed(s) => (s, (row0 + rb) / MRB * MRB * k, MRB),
                };
                let mut acc = [[0i128; NCB]; MRB];
                for kk in 0..k {
                    let brow = &bbuf[bbase + kk * bstride..bbase + kk * bstride + nc];
                    for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                        let av = match a {
                            Lhs::Rows(_) => abuf[abase + r * astride + kk],
                            Lhs::Packed(_) => abuf[abase + kk * astride + r],
                        };
                        if av == 0 {
                            continue;
                        }
                        let av = i128::from(av);
                        for (sum, &bv) in arow.iter_mut().zip(brow) {
                            *sum += av * i128::from(bv);
                        }
                    }
                }
                for (r, arow) in acc.iter().enumerate().take(mr) {
                    let gi = row0 + rb + r;
                    let orow = (rb + r) * n + jc;
                    for (j, slot) in ochunk[orow..orow + nc].iter_mut().enumerate() {
                        let mut wide = arow[j];
                        if let Some(br) = bias_row {
                            wide += i128::from(br[gi]);
                        }
                        if let Some(bc) = bias_col {
                            wide += i128::from(bc[jc + j]);
                        }
                        *slot = finish(wide, epi, gi * n + jc + j, &mut local_ovf, &mut local_sat);
                    }
                }
            }
        }
        overflowed.add(local_ovf);
        saturated.add(local_sat);
    };
    if parallel && m > ROWS_PER_BLOCK && pool::threads() > 1 {
        pool::par_chunks_mut(out, ROWS_PER_BLOCK * n, |bi, chunk| {
            run_block(bi * ROWS_PER_BLOCK, chunk)
        });
    } else {
        for (bi, chunk) in out.chunks_mut(ROWS_PER_BLOCK * n).enumerate() {
            run_block(bi * ROWS_PER_BLOCK, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(m: usize, n: usize, k: usize, a: &[i64], b: &[i64]) -> (Vec<i64>, u64) {
        let mut out = vec![0i64; m * n];
        let mut ovf = 0u64;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i128;
                for kk in 0..k {
                    acc += i128::from(a[i * k + kk]) * i128::from(b[kk * n + j]);
                }
                out[i * n + j] = narrow(acc, &mut ovf);
            }
        }
        (out, ovf)
    }

    /// Raw accumulators of row-major operands: the kernel with an empty
    /// epilogue. Returns the outputs and the wrap count.
    fn raw(
        m: usize,
        n: usize,
        k: usize,
        a: &[i64],
        b: &[i64],
        bias_row: Option<&[i64]>,
        bias_col: Option<&[i64]>,
    ) -> (Vec<i64>, u64) {
        let mut out = vec![0i64; m * n];
        let (ovf, sat) = (Counter::new(), Counter::new());
        gemm_i64_narrow_fused(
            m,
            n,
            k,
            Lhs::Rows(a),
            Rhs::Rows(b),
            bias_row,
            bias_col,
            &[],
            &mut out,
            &ovf,
            &sat,
            false,
        );
        assert_eq!(sat.get(), 0, "no epilogue steps, nothing saturates");
        (out, ovf.get())
    }

    #[test]
    fn matches_oracle_including_ragged_tiles() {
        for &(m, n, k) in &[(1, 1, 1), (5, 67, 9), (33, 130, 17), (4, 3, 0)] {
            let a: Vec<i64> = (0..m * k).map(|v| (v as i64 * 37 % 1001) - 500).collect();
            let b: Vec<i64> = (0..k * n).map(|v| (v as i64 * 53 % 997) - 498).collect();
            let (want, _) = oracle(m, n, k, &a, &b);
            let (got, ovf) = raw(m, n, k, &a, &b, None, None);
            assert_eq!(want, got, "shape ({m},{n},{k})");
            assert_eq!(ovf, 0);
        }
    }

    #[test]
    fn packed_operands_match_row_major() {
        for &(m, n, k) in &[(1, 1, 3), (5, 67, 9), (33, 130, 17), (16, 64, 8)] {
            let a: Vec<i64> = (0..m * k).map(|v| (v as i64 * 41 % 811) - 400).collect();
            let b: Vec<i64> = (0..k * n).map(|v| (v as i64 * 59 % 773) - 380).collect();
            let (want, _) = raw(m, n, k, &a, &b, None, None);
            let mut ap = vec![0i64; packed_lhs_len(m, k)];
            pack_lhs(&a, m, k, &mut ap);
            let mut bp = vec![0i64; packed_rhs_len(k, n)];
            pack_rhs(&b, k, n, &mut bp);
            for (la, lb) in [
                (Lhs::Packed(&ap[..]), Rhs::Rows(&b[..])),
                (Lhs::Rows(&a[..]), Rhs::Packed(&bp[..])),
                (Lhs::Packed(&ap[..]), Rhs::Packed(&bp[..])),
            ] {
                let mut got = vec![0i64; m * n];
                let (ovf, sat) = (Counter::new(), Counter::new());
                gemm_i64_narrow_fused(
                    m, n, k, la, lb, None, None, &[], &mut got, &ovf, &sat, false,
                );
                assert_eq!(want, got, "shape ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn counts_overflow_and_wraps() {
        // 2 * (2^62 * 2) = 2^64 wraps to 0 in i64 and must be counted.
        let a = vec![1i64 << 62, 1 << 62];
        let b = vec![2i64, 2];
        let (got, ovf) = raw(1, 1, 2, &a, &b, None, None);
        assert_eq!(got[0], 0);
        assert_eq!(ovf, 1);
    }

    #[test]
    fn biases_apply_before_narrow() {
        let a = vec![2i64, 3];
        let b = vec![10i64, 100, 1000, 10000];
        // [2,3] @ [[10,100],[1000,10000]] = [3020, 30200]
        let (got, _) = raw(1, 2, 2, &a, &b, Some(&[7]), Some(&[1, 2]));
        assert_eq!(got, vec![3020 + 7 + 1, 30200 + 7 + 2]);
    }

    #[test]
    fn epilogue_steps_replay_standalone_kernels() {
        // 2x2 @ 2x2 with a requant (shift 2, clamp to i8), a residual
        // add, and a capped relu — checked against a hand-folded oracle.
        let a = vec![3i64, -1, 2, 5];
        let b = vec![10i64, 20, 30, 40];
        let res = vec![1i64, -200, 3, 4];
        let mut got = vec![0i64; 4];
        let (ovf, sat) = (Counter::new(), Counter::new());
        let epi = [
            TileStep::Requant {
                shift: 2,
                qmin: -128,
                qmax: 127,
            },
            TileStep::AddResidual(&res),
            TileStep::ReluCap(30),
        ];
        gemm_i64_narrow_fused(
            2,
            2,
            2,
            Lhs::Rows(&a),
            Rhs::Rows(&b),
            None,
            None,
            &epi,
            &mut got,
            &ovf,
            &sat,
            false,
        );
        // raw = [[0, 20], [170, 240]]; >>2 half-even = [0, 5, 42, 60]
        // (170/4 = 42.5 rounds to even); none clamp in i8; +res =
        // [1, -195, 45, 64]; relu cap 30 = [1, 0, 30, 30].
        assert_eq!(got, vec![1, 0, 30, 30]);
        assert_eq!(sat.get(), 0);
        assert_eq!(ovf.get(), 0);
        // Same, but with a clamp-visible narrow format.
        let mut got = vec![0i64; 4];
        let (ovf, sat) = (Counter::new(), Counter::new());
        let epi = [TileStep::Requant {
            shift: 2,
            qmin: -16,
            qmax: 15,
        }];
        gemm_i64_narrow_fused(
            2,
            2,
            2,
            Lhs::Rows(&a),
            Rhs::Rows(&b),
            None,
            None,
            &epi,
            &mut got,
            &ovf,
            &sat,
            false,
        );
        assert_eq!(got, vec![0, 5, 15, 15]);
        assert_eq!(sat.get(), 2, "42 and 60 clamp to 15");
    }
}
