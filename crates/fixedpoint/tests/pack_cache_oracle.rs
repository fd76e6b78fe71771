//! Property tests for the pre-packed weight-panel paths: a weight operand
//! packed **once** (into a [`PackedB`], a
//! [`tqt_tensor::gemm::pack_a_full_into`] buffer, or an `IntPlan`-owned
//! arena panel) and reused across calls must give
//! the same bits as the unpacked reference — the `kernels` oracle for the
//! i8 panels, the row-major operand for the i64 and float panels — on
//! both the serial and parallel dispatch, and a plan shared between
//! concurrently running executor sessions must never expose a torn or
//! half-initialized panel.
//!
//! The panels are written during construction and read-only afterwards,
//! so bit-identity here is a memoization proof: same bytes in, same
//! traversal order, same bytes out.

use tqt_fixedpoint::intgemm::{
    gemm_i64_narrow_fused, pack_lhs, pack_rhs, packed_lhs_len, packed_rhs_len, Lhs, Rhs, TileStep,
};
use tqt_fixedpoint::{
    gemm_i8_fused_prepacked, gemm_i8_narrow_fused, IntExecutor, NarrowLhs, PackedB, RequantMode,
};
use tqt_fixedpoint::requant::NormalizedMultiplier;
use tqt_fixedpoint::kernels;
use tqt_rt::check::{self, Config, Gen};
use tqt_rt::sync::Counter;
use tqt_rt::{pool, prop_assert, Rng};

/// One generated GEMM case; operand data derives from `seed` so a case
/// shrinks through its shape alone.
#[derive(Debug, Clone)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
    /// 0 = pow2, 1 = real, 2 = affine (i8 path); selects the epilogue
    /// shape on the i64 path.
    mode: u8,
}

fn gen_case() -> Gen<Case> {
    Gen::new(
        |rng: &mut Rng| Case {
            // Crosses the i8 MR=6/NR=16/MC=96 and i64 MRB=4/NCB=64 tile
            // edges, including degenerate single-row/column shapes.
            m: rng.gen_range(1usize..140),
            n: rng.gen_range(1usize..80),
            k: rng.gen_range(1usize..70),
            seed: rng.gen_range(0u64..1 << 32),
            mode: rng.gen_range(0u32..3) as u8,
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

fn fill_i64(len: usize, rng: &mut Rng) -> Vec<i64> {
    (0..len).map(|_| rng.gen_range(-1000i64..1001)).collect()
}

#[test]
fn prepacked_i8_panels_match_oracle() {
    check::run(
        "prepacked_i8_panels_match_oracle",
        Config::cases(100),
        gen_case(),
        |c: &Case| {
            let mut rng = Rng::new(c.seed ^ 0x7061_636b);
            let a = fill_i8(c.m * c.k, &mut rng);
            let b = fill_i8(c.k * c.n, &mut rng);
            let bias: Vec<i32> = (0..c.m).map(|_| rng.gen_range(-5000i32..5000)).collect();
            let mult = NormalizedMultiplier::from_f64(0.003 + (c.seed % 97) as f64 * 1e-4);
            let asums = kernels::row_sums(&a, c.m, c.k);
            let bsums = kernels::col_sums(&b, c.k, c.n);
            let mode = match c.mode {
                0 => RequantMode::Pow2 { shift: 6 },
                1 => RequantMode::Real { m: mult },
                _ => RequantMode::Affine {
                    a_sums: &asums,
                    b_sums: &bsums,
                    z1: -12,
                    z2: 7,
                    z3: 3,
                    m: mult,
                },
            };
            // The naive oracle: matmul, row bias, then a separate requant
            // pass over the whole buffer.
            let acc = kernels::matmul_i8_acc32(&a, &b, c.m, c.k, c.n);
            let biased: Vec<i32> = acc
                .iter()
                .enumerate()
                .map(|(i, &v)| v.wrapping_add(bias[i / c.n]))
                .collect();
            let want = match mode {
                RequantMode::Pow2 { shift } => kernels::requant_buffer_pow2(&biased, shift),
                RequantMode::Real { m } => kernels::requant_buffer_real(&biased, m),
                RequantMode::Affine { z1, z2, z3, m, .. } => {
                    kernels::requant_buffer_affine(&biased, &asums, &bsums, c.k, z1, z2, z3, m)
                }
            };
            let want_acc: Vec<i64> = acc.iter().map(|&v| i64::from(v)).collect();
            let wide: Vec<i64> = a.iter().map(|&v| i64::from(v)).collect();
            // One panel, reused by every call below.
            let bpack = PackedB::pack(&b, c.k, c.n);
            for parallel in [false, true] {
                let mut pre = vec![0i8; c.m * c.n];
                gemm_i8_fused_prepacked(
                    c.m, c.n, c.k, &a, &bpack, Some(&bias), mode, &mut pre, parallel,
                );
                prop_assert!(
                    pre == want,
                    "fused prepacked (parallel={parallel}) diverged on {c:?}"
                );
                let mut acc_pre = vec![0i64; c.m * c.n];
                let (ovf, sat) = (Counter::new(), Counter::new());
                gemm_i8_narrow_fused(
                    c.m,
                    c.n,
                    c.k,
                    NarrowLhs::Rows(&wide),
                    &bpack,
                    None,
                    &[],
                    &mut acc_pre,
                    &ovf,
                    &sat,
                    parallel,
                );
                prop_assert!(
                    acc_pre == want_acc && ovf.get() == 0 && sat.get() == 0,
                    "raw prepacked (parallel={parallel}) diverged on {c:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn prepacked_i64_panels_match_row_major() {
    check::run(
        "prepacked_i64_panels_match_row_major",
        Config::cases(100),
        gen_case(),
        |c: &Case| {
            let mut rng = Rng::new(c.seed ^ 0x6c68_7372);
            let a = fill_i64(c.m * c.k, &mut rng);
            let b = fill_i64(c.k * c.n, &mut rng);
            let bias: Vec<i64> = fill_i64(c.m, &mut rng);
            let residual: Vec<i64> = fill_i64(c.m * c.n, &mut rng);
            // Epilogue shape varies with the mode so every TileStep is
            // exercised against packed operands.
            let epi: Vec<TileStep> = match c.mode {
                0 => vec![TileStep::Requant { shift: 4, qmin: -127, qmax: 127 }],
                1 => vec![
                    TileStep::AddResidual(&residual),
                    TileStep::ReluCap(i64::MAX),
                    TileStep::Requant { shift: 6, qmin: -127, qmax: 127 },
                ],
                _ => vec![
                    TileStep::ReluCap(900),
                    TileStep::Requant { shift: 2, qmin: -32768, qmax: 32767 },
                ],
            };
            let mut apack = vec![0i64; packed_lhs_len(c.m, c.k)];
            pack_lhs(&a, c.m, c.k, &mut apack);
            let mut bpack = vec![0i64; packed_rhs_len(c.k, c.n)];
            pack_rhs(&b, c.k, c.n, &mut bpack);

            let run = |lhs: Lhs, rhs: Rhs, parallel: bool| {
                let (ovf, sat) = (Counter::new(), Counter::new());
                let mut out = vec![0i64; c.m * c.n];
                gemm_i64_narrow_fused(
                    c.m, c.n, c.k, lhs, rhs, Some(&bias), None, &epi, &mut out, &ovf, &sat,
                    parallel,
                );
                (out, ovf.get(), sat.get())
            };
            for parallel in [false, true] {
                let reference = run(Lhs::Rows(&a), Rhs::Rows(&b), parallel);
                for (label, got) in [
                    ("packed-lhs", run(Lhs::Packed(&apack), Rhs::Rows(&b), parallel)),
                    ("packed-rhs", run(Lhs::Rows(&a), Rhs::Packed(&bpack), parallel)),
                    ("packed-both", run(Lhs::Packed(&apack), Rhs::Packed(&bpack), parallel)),
                ] {
                    prop_assert!(
                        got == reference,
                        "{label} (parallel={parallel}) diverged on {c:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn prepacked_float_panels_match_pack_per_call() {
    check::run(
        "prepacked_float_panels_match_pack_per_call",
        Config::cases(60),
        gen_case(),
        |c: &Case| {
            let mut rng = Rng::new(c.seed ^ 0x666c_6f61);
            let a: Vec<f32> = (0..c.m * c.k).map(|_| rng.gen_range(-1000i64..1001) as f32 / 64.0).collect();
            let b: Vec<f32> = (0..c.k * c.n).map(|_| rng.gen_range(-1000i64..1001) as f32 / 64.0).collect();
            let mut apack = vec![0.0f32; tqt_tensor::gemm::packed_a_len(c.m, c.k)];
            tqt_tensor::gemm::pack_a_full_into(&a, c.m, c.k, &mut apack);
            for parallel in [false, true] {
                let mut per_call = vec![0.0f32; c.m * c.n];
                tqt_tensor::gemm::gemm_nn(c.m, c.n, c.k, &a, &b, &mut per_call, parallel);
                let mut pre = vec![0.0f32; c.m * c.n];
                tqt_tensor::gemm::gemm_nn_prepacked_slice(c.m, c.n, c.k, &apack, &b, &mut pre, parallel);
                // Bit-exact, not approximate: the packed path must replay
                // the identical summation order.
                prop_assert!(
                    pre.iter().zip(&per_call).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "float prepacked (parallel={parallel}) diverged on {c:?}"
                );
            }
            Ok(())
        },
    );
}

/// Builds a small quantized conv+dense graph and lowers it — both panel
/// kinds (conv LHS, dense RHS) land in the plan arena.
fn lowered_toy_graph(seed: u64) -> tqt_fixedpoint::IntGraph {
    use tqt_graph::{quantize_graph, transforms, Op as GOp, QuantizeOptions};
    use tqt_nn::{Conv2d, Dense, GlobalAvgPool, Relu};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;
    let mut rng = init::rng(seed);
    let mut g = tqt_graph::Graph::new();
    let x = g.add_input("input");
    let c1 = g.add(
        "conv1",
        GOp::Conv(Conv2d::new("conv1", 2, 4, Conv2dGeom::same(3), &mut rng)),
        &[x],
    );
    let r1 = g.add("relu1", GOp::Relu(Relu::relu6()), &[c1]);
    let gap = g.add("gap", GOp::GlobalAvgPool(GlobalAvgPool::new()), &[r1]);
    let fc = g.add("fc", GOp::Dense(Dense::new("fc", 4, 3, &mut rng)), &[gap]);
    g.set_output(fc);
    transforms::optimize(&mut g, &[1, 2, 8, 8]);
    quantize_graph(&mut g, QuantizeOptions::static_int8());
    let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
    g.calibrate(&calib);
    tqt_fixedpoint::lower(&mut g)
}

#[test]
fn shared_plan_sessions_never_observe_torn_panels() {
    use tqt_tensor::init;
    let ig = lowered_toy_graph(2024);
    let dims = [2usize, 2, 8, 8];
    let plan = ig.plan(&dims);
    assert!(plan.weight_arena_elems() > 0, "toy graph must pack panels");

    let mut rng = init::rng(9000);
    let inputs: Vec<_> = (0..8).map(|_| init::normal(dims, 0.0, 1.5, &mut rng)).collect();
    let expected: Vec<_> = inputs.iter().map(|x| ig.run(x)).collect();

    // Eight concurrent sessions borrow the one plan (and its packed
    // arena) while running parallel kernels themselves; every session
    // must reproduce the solo runs bit-for-bit. Fanned out through the
    // worker pool — nested regions are part of its execution model.
    pool::set_threads(4);
    for _round in 0..4 {
        let outs = pool::par_map(inputs.len(), |i| {
            let mut session = IntExecutor::with_plan(&ig, &plan);
            session.run(&inputs[i])
        });
        for (i, (got, want)) in outs.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "shared-plan session {i} observed a torn panel");
        }
    }
    pool::set_threads(0);
}
