//! Property tests for the blocked, packed, fused i8 GEMM: against an
//! exact i64-index scalar oracle over random shapes (including the
//! ragged tile edges the blocking must handle), all three requant
//! epilogues, zero-point edge cases at ±127, and serial/parallel plus
//! scalar/AVX2 bit-identity (the parallel path runs the same packed
//! kernels, so equality with the oracle on both settings covers it).
//!
//! The serving entry point `gemm_i8_narrow_fused` is held differentially
//! to the i64 engine kernel `gemm_i64_narrow_fused`: u8 and i8
//! activations, row and conv-window operands, ragged m/n/k (odd k
//! included), every `TileStep` (a saturating requant and a wrapping
//! residual among them), sums at exactly ±(2³¹−1), both micro-kernels, at
//! 1 and 4 pool threads. Values and both counters must be equal.

use tqt_fixedpoint::gemm_i8::gemm_i8_narrow_fused_scalar;
use tqt_fixedpoint::intgemm::{gemm_i64_narrow_fused, Lhs, Rhs, TileStep};
use tqt_fixedpoint::kernels;
use tqt_fixedpoint::requant::{requant_affine, requant_pow2, requant_real, NormalizedMultiplier};
use tqt_fixedpoint::{
    gemm_i8_fused_prepacked, gemm_i8_narrow_fused, NarrowLhs, PackedB, RequantMode,
};
use tqt_rt::check::{self, Config, Gen};
use tqt_rt::pool;
use tqt_rt::sync::Counter;
use tqt_rt::{prop_assert, Rng};
use tqt_tensor::conv::{im2col_into, Conv2dGeom};

/// One generated GEMM case. Operand data is derived from `seed` so the
/// case shrinks through its shape alone.
#[derive(Debug, Clone)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
    /// 0 = pow2, 1 = real, 2 = affine.
    mode: u8,
    with_bias: bool,
    /// Zero-points; the generator pins these to the ±127 extremes in a
    /// third of cases.
    z1: i32,
    z2: i32,
    z3: i32,
}

fn gen_case() -> Gen<Case> {
    Gen::new(
        |rng: &mut Rng| {
            let zp = |rng: &mut Rng| match rng.gen_range(0u32..4) {
                0 => -127,
                1 => 127,
                2 => 0,
                _ => rng.gen_range(-100i32..101),
            };
            Case {
                // Crosses the MR=6 / NR=16 / MC=96 tile edges and odd k.
                m: rng.gen_range(1usize..140),
                n: rng.gen_range(1usize..40),
                k: rng.gen_range(1usize..70),
                seed: rng.gen_range(0u64..1 << 32),
                mode: rng.gen_range(0u32..3) as u8,
                with_bias: rng.gen_bool(),
                z1: zp(rng),
                z2: zp(rng),
                z3: rng.gen_range(-128i32..128),
            }
        },
        |c: &Case| {
            let mut cands = Vec::new();
            if c.m > 1 {
                cands.push(Case { m: c.m / 2, ..c.clone() });
            }
            if c.n > 1 {
                cands.push(Case { n: c.n / 2, ..c.clone() });
            }
            if c.k > 1 {
                cands.push(Case { k: c.k / 2, ..c.clone() });
            }
            if c.seed != 0 {
                cands.push(Case { seed: 0, ..c.clone() });
            }
            cands
        },
    )
}

fn fill_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
}

/// Exact scalar oracle mirroring the fused-kernel contract: i32 wrapping
/// accumulation, wrapping bias add, then the i64 requant from
/// `tqt_fixedpoint::requant` per element.
#[allow(clippy::too_many_arguments)]
fn oracle(c: &Case, a: &[i8], b: &[i8], bias: Option<&[i32]>, mult: NormalizedMultiplier) -> Vec<i8> {
    let (m, n, k) = (c.m, c.n, c.k);
    let asums = kernels::row_sums(a, m, k);
    let bsums = kernels::col_sums(b, k, n);
    let mut out = vec![0i8; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc = acc.wrapping_add(i32::from(a[i * k + kk]) * i32::from(b[kk * n + j]));
            }
            if let Some(bv) = bias {
                acc = acc.wrapping_add(bv[i]);
            }
            let v = i64::from(acc);
            out[i * n + j] = match c.mode {
                0 => requant_pow2(v, 7, -128, 127) as i8,
                1 => requant_real(v, mult, -128, 127) as i8,
                _ => requant_affine(
                    v,
                    i64::from(asums[i]),
                    i64::from(bsums[j]),
                    k as i64,
                    i64::from(c.z1),
                    i64::from(c.z2),
                    i64::from(c.z3),
                    mult,
                    -128,
                    127,
                ) as i8,
            };
        }
    }
    out
}

#[test]
fn fused_gemm_matches_i64_oracle_all_modes() {
    check::run(
        "fused_gemm_matches_i64_oracle",
        Config::cases(120),
        gen_case(),
        |c: &Case| {
            let mut rng = Rng::new(c.seed ^ 0x9e37_79b9);
            let a = fill_i8(c.m * c.k, &mut rng);
            let b = fill_i8(c.k * c.n, &mut rng);
            let bias: Option<Vec<i32>> = c
                .with_bias
                .then(|| (0..c.m).map(|_| rng.gen_range(-5000i32..5000)).collect());
            let mult = NormalizedMultiplier::from_f64(0.003 + (c.seed % 97) as f64 * 1e-4);
            let asums = kernels::row_sums(&a, c.m, c.k);
            let bsums = kernels::col_sums(&b, c.k, c.n);
            let mode = match c.mode {
                0 => RequantMode::Pow2 { shift: 7 },
                1 => RequantMode::Real { m: mult },
                _ => RequantMode::Affine {
                    a_sums: &asums,
                    b_sums: &bsums,
                    z1: c.z1,
                    z2: c.z2,
                    z3: c.z3,
                    m: mult,
                },
            };
            let expected = oracle(c, &a, &b, bias.as_deref(), mult);
            let bpack = PackedB::pack(&b, c.k, c.n);
            for parallel in [false, true] {
                let mut got = vec![0i8; c.m * c.n];
                gemm_i8_fused_prepacked(
                    c.m,
                    c.n,
                    c.k,
                    &a,
                    &bpack,
                    bias.as_deref(),
                    mode,
                    &mut got,
                    parallel,
                );
                prop_assert!(
                    got == expected,
                    "fused (parallel={parallel}) disagrees with oracle on {c:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn raw_accumulator_gemm_matches_naive() {
    check::run(
        "raw_acc_gemm_matches_naive",
        Config::cases(80),
        gen_case(),
        |c: &Case| {
            let mut rng = Rng::new(c.seed ^ 0x51_7cc1);
            let a = fill_i8(c.m * c.k, &mut rng);
            let b = fill_i8(c.k * c.n, &mut rng);
            let expected: Vec<i64> = kernels::matmul_i8_acc32(&a, &b, c.m, c.k, c.n)
                .into_iter()
                .map(i64::from)
                .collect();
            // The serving kernel with an empty epilogue leaves the raw
            // accumulators, widened to i64.
            let wide: Vec<i64> = a.iter().map(|&v| i64::from(v)).collect();
            let bpack = PackedB::pack(&b, c.k, c.n);
            for parallel in [false, true] {
                let got = outcome(c.m * c.n, |out, ovf, sat| {
                    let (lhs, b) = (NarrowLhs::Rows(&wide), &bpack);
                    gemm_i8_narrow_fused(c.m, c.n, c.k, lhs, b, None, &[], out, ovf, sat, parallel)
                });
                prop_assert!(
                    got == (expected.clone(), 0, 0),
                    "blocked acc (parallel={parallel}) disagrees with naive on {c:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn saturating_extremes_round_trip() {
    // All-(-128) operands maximize |acc|; shift 0 forces saturation at
    // both clamp edges through every mode.
    let (m, n, k) = (17, 9, 33);
    let a = vec![-128i8; m * k];
    let mut b = vec![-128i8; k * n];
    for (i, v) in b.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 127;
        }
    }
    let asums = kernels::row_sums(&a, m, k);
    let bsums = kernels::col_sums(&b, k, n);
    let mult = NormalizedMultiplier::from_f64(0.9999);
    let modes = [
        RequantMode::Pow2 { shift: 0 },
        RequantMode::Real { m: mult },
        RequantMode::Affine {
            a_sums: &asums,
            b_sums: &bsums,
            z1: -127,
            z2: 127,
            z3: 0,
            m: mult,
        },
    ];
    let bpack = PackedB::pack(&b, k, n);
    for mode in modes {
        let mut fused = vec![0i8; m * n];
        gemm_i8_fused_prepacked(m, n, k, &a, &bpack, None, mode, &mut fused, false);
        let acc = kernels::matmul_i8_acc32(&a, &b, m, k, n);
        let expected = match mode {
            RequantMode::Pow2 { shift } => kernels::requant_buffer_pow2(&acc, shift),
            RequantMode::Real { m } => kernels::requant_buffer_real(&acc, m),
            RequantMode::Affine {
                z1, z2, z3, m: mm, ..
            } => kernels::requant_buffer_affine(&acc, &asums, &bsums, k, z1, z2, z3, mm),
        };
        assert_eq!(fused, expected);
    }
}

/// Output values plus the (overflowed, saturated) counters of one run.
type Outcome = (Vec<i64>, u64, u64);

/// Runs `f` with fresh counters over a zeroed `len`-element output.
fn outcome(len: usize, f: impl FnOnce(&mut [i64], &Counter, &Counter)) -> Outcome {
    let mut out = vec![0i64; len];
    let (ovf, sat) = (Counter::new(), Counter::new());
    f(&mut out, &ovf, &sat);
    (out, ovf.get(), sat.get())
}

/// Activation range `[lo, hi]` of an unsigned or signed 8-bit format.
fn act_range(unsigned: bool) -> (i64, i64) {
    if unsigned {
        (0, 255)
    } else {
        (-128, 127)
    }
}

/// The epilogue under test: `kind` picks one of every `TileStep` shape
/// the fused graphs produce. The requant clamps to the activation range
/// at a small shift, so it saturates; the residual holds values near
/// `i64::MAX`, so adding a positive element wraps.
fn epilogue<'a>(kind: u8, shift: i32, unsigned: bool, res: &'a [i64]) -> Vec<TileStep<'a>> {
    let (qmin, qmax) = act_range(unsigned);
    let requant = TileStep::Requant { shift, qmin, qmax };
    match kind {
        0 => vec![],
        1 => vec![requant],
        2 => vec![requant, TileStep::AddResidual(res), TileStep::ReluCap(1 << 40)],
        3 => vec![TileStep::Leaky(13)],
        _ => vec![TileStep::AddResidual(res), requant, TileStep::ReluCap(i64::MAX)],
    }
}

/// A residual operand: mostly small values, every fifth one close enough
/// to `i64::MAX` that a positive addend wraps it.
fn residual(len: usize, rng: &mut Rng) -> Vec<i64> {
    (0..len)
        .map(|i| {
            if i % 5 == 0 {
                i64::MAX - rng.gen_range(0i64..64)
            } else {
                rng.gen_range(-300i64..300)
            }
        })
        .collect()
}

/// One generated differential case over a row-major (dense) operand or
/// conv windows; operand data derives from `seed`.
#[derive(Debug, Clone)]
struct NarrowCase {
    /// Rows of a dense case; images of a conv case.
    m: usize,
    /// Output columns (output channels).
    n: usize,
    /// Reduction length of a dense case; input channels of a conv case.
    k: usize,
    /// Conv window `(kh, kw, stride, pad, h, w)`, or `None` for a dense
    /// case.
    conv: Option<(usize, usize, usize, usize, usize, usize)>,
    unsigned: bool,
    with_bias: bool,
    epi: u8,
    shift: i32,
    seed: u64,
}

fn gen_narrow_case() -> Gen<NarrowCase> {
    Gen::new(
        |rng: &mut Rng| {
            let conv = rng.gen_bool().then(|| {
                (
                    rng.gen_range(1usize..4),
                    rng.gen_range(1usize..4),
                    rng.gen_range(1usize..3),
                    rng.gen_range(0usize..2),
                    rng.gen_range(3usize..11),
                    rng.gen_range(3usize..11),
                )
            });
            NarrowCase {
                // Dense rows cross the MR=6 / MC=96 edges (so 4 threads
                // split blocks); conv cases take 1–3 images.
                m: if conv.is_some() {
                    rng.gen_range(1usize..4)
                } else {
                    rng.gen_range(1usize..200)
                },
                n: rng.gen_range(1usize..40),
                k: if conv.is_some() {
                    rng.gen_range(1usize..6)
                } else {
                    rng.gen_range(1usize..70)
                },
                conv,
                unsigned: rng.gen_bool(),
                with_bias: rng.gen_bool(),
                epi: rng.gen_range(0u32..5) as u8,
                shift: rng.gen_range(0i32..8),
                seed: rng.gen_range(0u64..1 << 32),
            }
        },
        |c: &NarrowCase| {
            let mut cands = Vec::new();
            for (m, n, k) in [(c.m / 2, c.n, c.k), (c.m, c.n / 2, c.k), (c.m, c.n, c.k / 2)] {
                if m >= 1 && n >= 1 && k >= 1 && (m, n, k) != (c.m, c.n, c.k) {
                    cands.push(NarrowCase { m, n, k, ..c.clone() });
                }
            }
            if c.epi != 0 {
                cands.push(NarrowCase { epi: 0, ..c.clone() });
            }
            cands
        },
    )
}

/// The i64 engine's result for a conv case, computed the way the
/// executor's i64 route does: per image, im2col then
/// `gemm_i64_narrow_fused` with the filter as the left operand.
#[allow(clippy::too_many_arguments)]
fn conv_i64(
    x: &[i64],
    (nb, c, h, w): (usize, usize, usize, usize),
    geom: Conv2dGeom,
    wts: &[i64],
    cout: usize,
    bias: Option<&[i64]>,
    epi: &[TileStep],
) -> Outcome {
    let (oh, ow) = geom.out_size(h, w);
    let (k, ncols) = (c * geom.kh * geom.kw, oh * ow);
    outcome(nb * cout * ncols, |out, ovf, sat| {
        let mut cols = vec![0i64; k * ncols];
        for img in 0..nb {
            im2col_into(&x[img * c * h * w..(img + 1) * c * h * w], 0, c, h, w, geom, &mut cols);
            let plane = img * cout * ncols..(img + 1) * cout * ncols;
            let epi_img: Vec<TileStep> = epi
                .iter()
                .map(|s| match *s {
                    TileStep::AddResidual(r) => TileStep::AddResidual(&r[plane.clone()]),
                    other => other,
                })
                .collect();
            gemm_i64_narrow_fused(
                cout,
                ncols,
                k,
                Lhs::Rows(wts),
                Rhs::Rows(&cols),
                bias,
                None,
                &epi_img,
                &mut out[plane],
                ovf,
                sat,
                true,
            );
        }
    })
}

/// Runs the i32 entry point on both micro-kernels at the current thread
/// count.
#[allow(clippy::too_many_arguments)]
fn narrow_both(
    m: usize,
    n: usize,
    k: usize,
    a: NarrowLhs,
    b: &PackedB,
    bias: Option<&[i64]>,
    epi: &[TileStep],
) -> [Outcome; 2] {
    [
        outcome(m * n, |out, ovf, sat| {
            gemm_i8_narrow_fused(m, n, k, a, b, bias, epi, out, ovf, sat, true)
        }),
        outcome(m * n, |out, ovf, sat| {
            gemm_i8_narrow_fused_scalar(m, n, k, a, b, bias, epi, out, ovf, sat, true)
        }),
    ]
}

#[test]
fn narrow_gemm_matches_i64_kernel() {
    check::run(
        "narrow_gemm_matches_i64_kernel",
        Config::cases(160),
        gen_narrow_case(),
        |c: &NarrowCase| {
            let mut rng = Rng::new(c.seed ^ 0x6a09_e667);
            let (lo, hi) = act_range(c.unsigned);
            let n = c.n;
            // Dense: x [m, k] · W [k, n]. Conv: x [m images, k channels, h,
            // w] against a [n, k, kh, kw] filter.
            let (xlen, wlen, rows, red) = match c.conv {
                None => (c.m * c.k, c.k * n, c.m, c.k),
                Some((kh, kw, stride, pad, h, w)) => {
                    let geom = Conv2dGeom { kh, kw, stride, pad };
                    let (oh, ow) = geom.out_size(h, w);
                    (c.m * c.k * h * w, n * c.k * kh * kw, c.m * oh * ow, c.k * kh * kw)
                }
            };
            let x: Vec<i64> = (0..xlen).map(|_| rng.gen_range(lo..hi + 1)).collect();
            let wts: Vec<i64> = (0..wlen).map(|_| rng.gen_range(-128i64..128)).collect();
            let bias: Option<Vec<i64>> = c
                .with_bias
                .then(|| (0..n).map(|_| rng.gen_range(-40_000i64..40_000)).collect());
            let res = residual(rows * n, &mut rng);
            let epi = epilogue(c.epi, c.shift, c.unsigned, &res);
            let (want, b, lhs) = match c.conv {
                None => {
                    let want = outcome(rows * n, |out, ovf, sat| {
                        gemm_i64_narrow_fused(
                            rows,
                            n,
                            red,
                            Lhs::Rows(&x),
                            Rhs::Rows(&wts),
                            None,
                            bias.as_deref(),
                            &epi,
                            out,
                            ovf,
                            sat,
                            true,
                        )
                    });
                    let w8: Vec<i8> = wts.iter().map(|&v| v as i8).collect();
                    (want, PackedB::pack(&w8, red, n), NarrowLhs::Rows(&x))
                }
                Some((kh, kw, stride, pad, h, w)) => {
                    let geom = Conv2dGeom { kh, kw, stride, pad };
                    let dims = (c.m, c.k, h, w);
                    let want = conv_i64(&x, dims, geom, &wts, n, bias.as_deref(), &epi);
                    // W^T: [k, cout], the kernel's B operand.
                    let wt: Vec<i8> =
                        (0..red * n).map(|i| wts[(i % n) * red + i / n] as i8).collect();
                    let lhs = NarrowLhs::Conv { x: &x, c: c.k, h, w, geom };
                    (want, PackedB::pack(&wt, red, n), lhs)
                }
            };
            for threads in [1, 4] {
                pool::set_threads(threads);
                let got = narrow_both(rows, n, red, lhs, &b, bias.as_deref(), &epi);
                pool::set_threads(0);
                for (kernel, got) in ["detected", "scalar"].iter().zip(got) {
                    prop_assert!(
                        got == want,
                        "{kernel} micro-kernel at {threads} threads disagrees with the i64 \
                         kernel on {c:?}: (ovf, sat) {:?} vs {:?}",
                        (got.1, got.2),
                        (want.1, want.2)
                    );
                }
            }
            Ok(())
        },
    );
}

/// Activations and weights whose dot product is exactly `target`, with
/// every activation at most `amax` and every weight in i8: as many
/// `amax·wbig` terms as fit, then the remainder as `amax·q + r·1`.
fn dot_reaching(target: i64, amax: i64) -> (Vec<i64>, Vec<i64>) {
    let wbig: i64 = if target > 0 { 127 } else { -128 };
    let (mut a, mut w) = (Vec::new(), Vec::new());
    let big = amax * wbig;
    for _ in 0..target / big {
        a.push(amax);
        w.push(wbig);
    }
    let rest = target % big;
    let unit = wbig.signum();
    for (av, wv) in [(amax, rest / amax), (rest % amax * unit, unit)] {
        a.push(av);
        w.push(wv);
    }
    assert_eq!(a.iter().zip(&w).map(|(x, y)| x * y).sum::<i64>(), target);
    (a, w)
}

#[test]
fn narrow_gemm_is_exact_at_the_i32_edge() {
    let edge = i64::from(i32::MAX);
    for unsigned in [true, false] {
        let amax = act_range(unsigned).1;
        for target in [edge, -edge] {
            let (a, w) = dot_reaching(target, amax);
            let k = a.len();
            // Two rows (the dot and its reversal) against two columns (the
            // edge weights and all zeros); a tail row of zeros rides along.
            let mut x = a.clone();
            x.extend(a.iter().rev());
            x.extend(std::iter::repeat_n(0, k));
            let mut wts = vec![0i64; 2 * k];
            let wrev: Vec<i64> = w.iter().rev().copied().collect();
            for kk in 0..k {
                wts[kk * 2] = w[kk];
                // Column 1 pairs row 1's reversed activations with the
                // reversed weights: the same sum, accumulated backwards.
                wts[kk * 2 + 1] = wrev[kk];
            }
            let want = outcome(3 * 2, |out, ovf, sat| {
                gemm_i64_narrow_fused(
                    3,
                    2,
                    k,
                    Lhs::Rows(&x),
                    Rhs::Rows(&wts),
                    None,
                    None,
                    &[],
                    out,
                    ovf,
                    sat,
                    true,
                )
            });
            assert_eq!(want.0[0], target, "row 0 · column 0 is the edge sum");
            assert_eq!(want.0[3], target, "row 1 · column 1 is the edge sum");
            let w8: Vec<i8> = wts.iter().map(|&v| v as i8).collect();
            let b = PackedB::pack(&w8, k, 2);
            for threads in [1, 4] {
                pool::set_threads(threads);
                let got = narrow_both(3, 2, k, NarrowLhs::Rows(&x), &b, None, &[]);
                pool::set_threads(0);
                for got in got {
                    assert_eq!(got, want, "unsigned={unsigned} target={target} threads={threads}");
                }
            }
        }
    }
}
