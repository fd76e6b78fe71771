//! Cache-blocked `i8 × i8 → i32` GEMM with a **fused requantization
//! epilogue** — the deployment-path integer kernel (gemmlowp/QNNPACK
//! lineage, Appendix A cost model).
//!
//! Structure mirrors the f32 kernel in `tqt-tensor::gemm` (packed
//! operands, `MR×NR` register micro-tile, row-block parallelism over the
//! `tqt-rt` pool) with two integer-specific twists:
//!
//! * **k-pair packing.** Operands are packed in pairs along `k`: the A
//!   panel stores each row's `(a[2p], a[2p+1])` sign-extended to `i16`
//!   inside one `i32`, the B panel interleaves the two matching rows
//!   byte-wise. The AVX2 micro-kernel then runs one
//!   `_mm256_madd_epi16` per 8 columns per k-pair — an exact
//!   `i16×i16 + i16×i16 → i32` multiply-accumulate (products are at most
//!   `2·127²`, far from the `madd` saturation edge, so unlike the
//!   `maddubs` u8-path it can never saturate). The portable scalar
//!   fallback consumes the same packed layout.
//! * **No KC slabs; the epilogue is fused.** The whole `k` depth is
//!   packed at once, so the `MR×NR` i32 accumulator tile is complete the
//!   moment the micro-kernel returns and bias add, zero-point
//!   corrections, and requantization are applied to the register-resident
//!   tile before it is stored as `i8` — the intermediate `[m, n]` i32
//!   buffer of the naive pipeline (`kernels::matmul_i8_acc32` followed by
//!   `kernels::requant_buffer_*`) never exists. Panels are at most a few
//!   KiB per 256-deep k at these tile sizes, so the L1 residency that KC
//!   slabbing buys the f32 kernel is retained.
//!
//! **Determinism.** Integer addition (including two's-complement
//! wrapping) is associative and commutative, so the accumulated tile is
//! independent of summation order — and of the thread count: parallelism
//! only splits the row-block loop and every output element belongs to
//! exactly one row block. Serial and parallel runs, and the AVX2 and
//! scalar kernels, are bit-identical (the property tests in
//! `crates/fixedpoint/tests/gemm_i8_oracle.rs` check all of this against
//! an i64 scalar oracle).
//!
//! **Serving entry point.** [`gemm_i8_narrow_fused`] runs the same
//! micro-kernel for the engine's conv/dense nodes. Activations live in
//! i64 plan slots and may be unsigned 8-bit (post-ReLU, `[0, 255]`), which
//! does not fit in i8, so they take the **A** side — the i16-pair panel —
//! packed straight from the slot (a conv stages each image once,
//! zero-padded, and gathers its windows into the panel: no im2col
//! buffer), while the i8 weights take the **B** side, packed once at plan
//! time. The finished i32 tile is widened to i64, the
//! bias added, and the result runs through the same per-element epilogue
//! as `intgemm::gemm_i64_narrow_fused`, so both routes agree bit for bit,
//! counters included.
//!
//! Contract: raw accumulators are exact in i32 when every partial sum
//! is, which holds whenever `Σₖ |a|·|b| < 2³¹` per output element. For
//! i8 operands that is `k·128² < 2³¹` (`k ≤ 131 071`); for u8 activations
//! against i8 weights, `k·255·128 < 2³¹` (`k ≤ 65 793`). The serving plan
//! proves the tighter per-channel bound `Σₖ|w|·max(|qmin|,|qmax|) < 2³¹`
//! before routing a node here. Beyond the contract both micro-kernels
//! wrap identically. Each `madd` pair sum is exact regardless (at most
//! `2·255·128`). Workspace comes from the typed thread-local scratch
//! arenas.

use crate::intgemm::{finish, TileStep};
use crate::requant::{requant_affine, requant_pow2, requant_real, NormalizedMultiplier};
use tqt_rt::pool;
use tqt_rt::sync::Counter;
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::scratch::ScratchI32;

/// Register-tile rows (A micro-panel height), as in the f32 kernel.
pub const MR: usize = 6;
/// Register-tile columns: two 8-lane i32 AVX2 vectors per accumulator
/// row; the 6×16 tile holds 12 ymm accumulators plus the two
/// sign-extended B vectors and one A broadcast.
pub const NR: usize = 16;
/// Rows of C per parallel row block.
const MC: usize = 96;

/// How the fused epilogue converts a finished i32 accumulator tile to
/// `i8` output — the three Appendix A requantization schemes.
#[derive(Debug, Clone, Copy)]
pub enum RequantMode<'a> {
    /// Power-of-2 shift with round-half-to-even (eq. 16).
    Pow2 {
        /// Right-shift amount.
        shift: i32,
    },
    /// Normalized fixed-point multiplier (eq. 15).
    Real {
        /// The Q15 multiplier.
        m: NormalizedMultiplier,
    },
    /// Affine with zero-points (eq. 13): the per-row/per-column
    /// cross-term correction is applied inside the epilogue.
    Affine {
        /// Row sums `Σ_k a[i,k]` (length `m`).
        a_sums: &'a [i32],
        /// Column sums `Σ_k b[k,j]` (length `n`).
        b_sums: &'a [i32],
        /// LHS zero-point.
        z1: i32,
        /// RHS zero-point.
        z2: i32,
        /// Output zero-point.
        z3: i32,
        /// The Q15 multiplier.
        m: NormalizedMultiplier,
    },
}

/// A `[k, n]` RHS packed **once** into the NR-wide k-pair panel layout
/// the micro-kernel consumes (see [`pack_b`]). Build it when the weight
/// matrix is known (e.g. at plan time) and pass it to
/// [`gemm_i8_fused_prepacked`] or [`gemm_i8_narrow_fused`]: no call packs
/// B. Read-only after construction — one `PackedB` can be shared across
/// threads and sessions.
#[derive(Debug, Clone)]
pub struct PackedB {
    data: Vec<i8>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs a row-major `b: [k, n]` into panel layout.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[i8], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs length mismatch");
        let kpairs = k.div_ceil(2);
        let npanels = n.div_ceil(NR);
        let mut data = vec![0i8; npanels * kpairs * 2 * NR];
        pack_b(b, k, n, kpairs, &mut data);
        PackedB { data, k, n }
    }

    /// The packed operand's `k` (reduction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed operand's `n` (column) dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The raw panel bytes, `n.div_ceil(NR) * k.div_ceil(2) * 2 * NR`
    /// of them.
    pub fn data(&self) -> &[i8] {
        &self.data
    }
}

/// Blocked, pool-parallel `out[m,n] = requant(a[m,k] · b[k,n] + bias)`
/// over a pre-packed RHS, writing `i8` directly: bias add (per output
/// row, on the accumulator grid), zero-point corrections, and
/// requantization are fused into the accumulator-tile epilogue. With
/// [`RequantMode::Affine`], `bias` is added to the raw `Σ q1·q2` *before*
/// the cross-term correction.
///
/// Overwrites `out` (no `C +=` semantics — a fused requantizing GEMM has
/// no meaningful accumulate-into form).
///
/// # Panics
///
/// Panics if `b` was packed for different `(k, n)` dims or slice
/// lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_fused_prepacked(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &PackedB,
    bias: Option<&[i32]>,
    mode: RequantMode,
    out: &mut [i8],
    parallel: bool,
) {
    assert_eq!((b.k, b.n), (k, n), "packed rhs dims mismatch");
    if m == 0 || n == 0 {
        return;
    }
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), m, "bias length mismatch (one per output row)");
    }
    if let RequantMode::Affine { a_sums, b_sums, .. } = mode {
        assert_eq!(a_sums.len(), m, "row-sum length mismatch");
        assert_eq!(b_sums.len(), n, "column-sum length mismatch");
    }
    let kpairs = k.div_ceil(2);
    let npanels = n.div_ceil(NR);
    let bpack = &b.data;
    assert_eq!(bpack.len(), npanels * kpairs * 2 * NR, "packed rhs length mismatch");
    let avx = has_avx2();
    let run_block = |row0: usize, ochunk: &mut [i8]| {
        let rows = ochunk.len() / n;
        let mut apack = ScratchI32::uninit(kpairs * MR);
        for p in 0..rows.div_ceil(MR) {
            let r0 = row0 + p * MR;
            let mr = MR.min(rows - p * MR);
            pack_a(a, k, kpairs, r0, mr, &mut apack);
            for q in 0..npanels {
                let nr = NR.min(n - q * NR);
                let mut acc = [0i32; MR * NR];
                microkernel(kpairs, &apack, &bpack[q * kpairs * 2 * NR..], &mut acc, avx);
                for r in 0..mr {
                    let gi = r0 + r;
                    let orow = (p * MR + r) * n + q * NR;
                    for j in 0..nr {
                        let gj = q * NR + j;
                        let mut v = acc[r * NR + j];
                        if let Some(bv) = bias {
                            v = v.wrapping_add(bv[gi]);
                        }
                        let v = i64::from(v);
                        ochunk[orow + j] = match mode {
                            RequantMode::Pow2 { shift } => {
                                requant_pow2(v, shift, -128, 127) as i8
                            }
                            RequantMode::Real { m } => requant_real(v, m, -128, 127) as i8,
                            RequantMode::Affine {
                                a_sums,
                                b_sums,
                                z1,
                                z2,
                                z3,
                                m,
                            } => requant_affine(
                                v,
                                i64::from(a_sums[gi]),
                                i64::from(b_sums[gj]),
                                k as i64,
                                i64::from(z1),
                                i64::from(z2),
                                i64::from(z3),
                                m,
                                -128,
                                127,
                            ) as i8,
                        };
                    }
                }
            }
        }
    };
    if parallel && m > MC && pool::threads() > 1 {
        pool::par_chunks_mut(out, MC * n, |bi, chunk| run_block(bi * MC, chunk));
    } else {
        for (bi, chunk) in out.chunks_mut(MC * n).enumerate() {
            run_block(bi * MC, chunk);
        }
    }
}

/// The left operand of [`gemm_i8_narrow_fused`]: activations held in
/// i64 slots, every value within i16 (the plan only routes formats of at
/// most 8 bits here, signed or unsigned).
#[derive(Debug, Clone, Copy)]
pub enum NarrowLhs<'a> {
    /// Row-major `[m, k]`; the output is row-major `[m, n]`.
    Rows(&'a [i64]),
    /// A batch of NCHW images `[nb, c, h, w]`, unfolded on the fly: GEMM
    /// row `img·oh·ow + pixel`, reduction index `(ci, ki, kj)` in filter
    /// order. The output is NCHW `[nb, n, oh, ow]` — the tile is stored
    /// transposed, one output channel per GEMM column.
    Conv {
        /// The images.
        x: &'a [i64],
        /// Input channels.
        c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Window geometry.
        geom: Conv2dGeom,
    },
}

/// `out = epilogue(narrow(a · b + bias))` on the i32 `madd_epi16`
/// kernel: `a` is `[m, k]` (or conv windows, see [`NarrowLhs`]), `b` is
/// `[k, n]` i8 weights packed once, `bias` has one entry per column (per
/// output channel). Each finished i32 accumulator is widened to i64
/// before the bias is added, then narrowed and run through `epi` by the
/// same per-element tail as `intgemm::gemm_i64_narrow_fused`, counting
/// wraps into `overflowed` and clamps into `saturated`. `AddResidual`
/// operands are indexed by output position.
///
/// Bit-identical to the i64 kernel whenever every i32 partial sum is
/// exact (see the module contract); the caller proves that.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_narrow_fused(
    m: usize,
    n: usize,
    k: usize,
    a: NarrowLhs,
    b: &PackedB,
    bias: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
    overflowed: &Counter,
    saturated: &Counter,
    parallel: bool,
) {
    let avx = has_avx2();
    narrow_inner(m, n, k, a, b, bias, epi, out, overflowed, saturated, parallel, avx);
}

/// [`gemm_i8_narrow_fused`] pinned to the portable scalar micro-kernel,
/// so tests can hold both micro-kernels to the same results on an AVX2
/// host.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_narrow_fused_scalar(
    m: usize,
    n: usize,
    k: usize,
    a: NarrowLhs,
    b: &PackedB,
    bias: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
    overflowed: &Counter,
    saturated: &Counter,
    parallel: bool,
) {
    narrow_inner(m, n, k, a, b, bias, epi, out, overflowed, saturated, parallel, false);
}

/// i32 elements of one [`gemm_i8_narrow_fused`] block's scratch
/// checkout for reduction length `k`: the MR-tall A panel, plus for a
/// conv over `[c, h, w]` images the zero-padded image and its tap table
/// (see [`pad_image`]).
pub(crate) fn narrow_scratch_len(
    k: usize,
    conv: Option<(usize, usize, usize, Conv2dGeom)>,
) -> usize {
    let image = conv.map_or(0, |(c, h, w, g)| c * (h + 2 * g.pad) * (w + 2 * g.pad) + k);
    k.div_ceil(2) * MR + image
}

/// Shared body of the narrow entry points. Row operands split into
/// `MC`-row blocks of the row-major output; conv operands split per
/// image, whose NCHW output plane is contiguous.
#[allow(clippy::too_many_arguments)]
fn narrow_inner(
    m: usize,
    n: usize,
    k: usize,
    a: NarrowLhs,
    b: &PackedB,
    bias: Option<&[i64]>,
    epi: &[TileStep],
    out: &mut [i64],
    overflowed: &Counter,
    saturated: &Counter,
    parallel: bool,
    avx: bool,
) {
    assert_eq!((b.k, b.n), (k, n), "packed rhs dims mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), n, "bias length mismatch (one per output column)");
    }
    for step in epi {
        if let TileStep::AddResidual(res) = step {
            assert_eq!(res.len(), m * n, "residual length mismatch");
        }
    }
    // Rows per parallel block: a conv block is one image, whose output
    // plane is stored transposed (NCHW); a row block is MC rows.
    let (block_rows, conv) = match a {
        NarrowLhs::Rows(s) => {
            assert_eq!(s.len(), m * k, "lhs length mismatch");
            (MC, None)
        }
        NarrowLhs::Conv { x, c, h, w, geom } => {
            assert_eq!(k, c * geom.kh * geom.kw, "conv reduction length mismatch");
            let (oh, ow) = geom.out_size(h, w);
            let img = c * h * w;
            assert!(img > 0 && x.len() % img == 0, "conv input length mismatch");
            assert_eq!(m, x.len() / img * oh * ow, "conv row count mismatch");
            (oh * ow, Some((x, c, h, w, geom)))
        }
    };
    if m == 0 || n == 0 {
        return;
    }
    let kpairs = k.div_ceil(2);
    let npanels = n.div_ceil(NR);
    let run_block = |bi: usize, ochunk: &mut [i64]| {
        let row0 = bi * block_rows;
        let rows = ochunk.len() / n;
        let base = row0 * n;
        let (mut ovf, mut sat) = (0u64, 0u64);
        let shape = conv.map(|(_, c, h, w, geom)| (c, h, w, geom));
        let mut ws = ScratchI32::uninit(narrow_scratch_len(k, shape));
        let (apack, image) = ws.split_at_mut(kpairs * MR);
        if let Some((x, c, h, w, geom)) = conv {
            pad_image(&x[bi * c * h * w..(bi + 1) * c * h * w], c, h, w, geom, image);
        }
        for p in 0..rows.div_ceil(MR) {
            let r0 = p * MR;
            let mr = MR.min(rows - r0);
            match (a, conv) {
                (_, Some((_, c, h, w, geom))) => {
                    pack_a_window(image, c, h, w, geom, k, r0, mr, apack)
                }
                (NarrowLhs::Rows(s), None) => pack_a_rows(s, k, row0 + r0, mr, apack),
                (NarrowLhs::Conv { .. }, None) => unreachable!("conv operands carry a shape"),
            }
            for q in 0..npanels {
                let nr = NR.min(n - q * NR);
                let mut acc = [0i32; MR * NR];
                microkernel(kpairs, apack, &b.data[q * kpairs * 2 * NR..], &mut acc, avx);
                for r in 0..mr {
                    for j in 0..nr {
                        let gj = q * NR + j;
                        let at = if conv.is_some() {
                            gj * rows + r0 + r
                        } else {
                            (r0 + r) * n + gj
                        };
                        let wide = i128::from(acc[r * NR + j])
                            + bias.map_or(0, |bv| i128::from(bv[gj]));
                        ochunk[at] = finish(wide, epi, base + at, &mut ovf, &mut sat);
                    }
                }
            }
        }
        overflowed.add(ovf);
        saturated.add(sat);
    };
    let chunk = block_rows * n;
    if parallel && m > block_rows && pool::threads() > 1 {
        pool::par_chunks_mut(out, chunk, run_block);
    } else {
        for (bi, ochunk) in out.chunks_mut(chunk).enumerate() {
            run_block(bi, ochunk);
        }
    }
}

/// An activation as the low half of a k-pair word: its i16 bits,
/// zero-extended. Exact because the plan only routes formats of at most
/// 8 bits here.
#[inline(always)]
fn low_half(v: i64) -> i32 {
    i32::from(v as i16 as u16) // tqt:allow(narrowing-cast): activation formats are at most 8 bits, so v fits in i16
}

/// Two low halves as one packed k-pair word (the [`pack_pair`] layout).
#[inline(always)]
fn pair_word(lo: i32, hi: i32) -> i32 {
    lo | hi.wrapping_shl(16)
}

/// [`pack_a`] over i64 rows: packs rows `[r0, r0+mr)` of the row-major
/// `[·, k]` operand `s` into one MR-tall k-pair panel. Rows past `mr`
/// and the odd-`k` tail are zero.
fn pack_a_rows(s: &[i64], k: usize, r0: usize, mr: usize, dst: &mut [i32]) {
    for r in 0..MR {
        let row = if r < mr { &s[(r0 + r) * k..(r0 + r + 1) * k] } else { &[][..] };
        for p in 0..k.div_ceil(2) {
            let lo = row.get(2 * p).map_or(0, |&v| low_half(v));
            let hi = row.get(2 * p + 1).map_or(0, |&v| low_half(v));
            dst[p * MR + r] = pair_word(lo, hi);
        }
    }
}

/// Stages one `[c, h, w]` image for window gathers: `ws[..c·hp·wp]`
/// receives the image zero-padded to `hp = h + 2·pad`, `wp = w + 2·pad`,
/// each value as its [`low_half`], and the next `c·kh·kw` entries the
/// offset of every reduction tap `(ci, ki, kj)` within one padded
/// window. Output pixel `(oi, oj)`'s tap `t` is then
/// `ws[oi·stride·wp + oj·stride + tap[t]]`, with no bounds branches.
fn pad_image(x: &[i64], c: usize, h: usize, w: usize, geom: Conv2dGeom, ws: &mut [i32]) {
    let (hp, wp, pad) = (h + 2 * geom.pad, w + 2 * geom.pad, geom.pad);
    let (padded, taps) = ws.split_at_mut(c * hp * wp);
    padded.fill(0);
    for (i, src) in x.chunks_exact(w).enumerate() {
        let (ci, row) = (i / h, i % h);
        let dst = &mut padded[(ci * hp + row + pad) * wp + pad..][..w];
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = low_half(v);
        }
    }
    let window = geom.kh * geom.kw;
    for (t, tap) in taps[..c * window].iter_mut().enumerate() {
        let (ci, ki, kj) = (t / window, t / geom.kw % geom.kh, t % geom.kw);
        // Offsets index a slice of at most i32::MAX elements in practice;
        // saturating keeps an absurd one an out-of-bounds panic, not a wrap.
        *tap = i32::try_from((ci * hp + ki) * wp + kj).unwrap_or(i32::MAX);
    }
}

/// [`pack_a`] over conv windows: packs output pixels `[p0, p0+mr)` of one
/// image, staged by [`pad_image`] in `image`, into one MR-tall k-pair
/// panel. Rows past `mr` and the odd-`k` tail are zero.
#[allow(clippy::too_many_arguments)]
fn pack_a_window(
    image: &[i32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeom,
    k: usize,
    p0: usize,
    mr: usize,
    dst: &mut [i32],
) {
    let wp = w + 2 * geom.pad;
    let (padded, taps) = image.split_at(c * (h + 2 * geom.pad) * wp);
    let (_, ow) = geom.out_size(h, w);
    let mut off = [0usize; MR];
    for (r, o) in off.iter_mut().enumerate().take(mr) {
        let pix = p0 + r;
        *o = pix / ow * geom.stride * wp + pix % ow * geom.stride;
    }
    let mut pairs = taps[..k].chunks_exact(2);
    for (col, t) in dst.chunks_exact_mut(MR).zip(pairs.by_ref()) {
        let (t0, t1) = (t[0] as usize, t[1] as usize);
        for (r, slot) in col.iter_mut().enumerate() {
            *slot = if r < mr {
                pair_word(padded[off[r] + t0], padded[off[r] + t1])
            } else {
                0
            };
        }
    }
    if let [t0] = *pairs.remainder() {
        let col = &mut dst[k / 2 * MR..(k / 2 + 1) * MR];
        for (r, slot) in col.iter_mut().enumerate() {
            *slot = if r < mr { padded[off[r] + t0 as usize] } else { 0 };
        }
    }
}

/// True when the AVX2 integer micro-kernel can run on this CPU. The
/// detection macro caches its answer (one relaxed atomic load per call).
#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Packs rows `[r0, r0+mr)` of `a: [·, k]` into one MR-tall k-pair-major
/// panel: element `p*MR + r` holds `(a[r0+r, 2p], a[r0+r, 2p+1])`
/// sign-extended to i16 and packed little-endian into an i32 (the exact
/// operand shape `_mm256_madd_epi16` wants broadcast). Rows past `mr`
/// and the odd-`k` tail are zero.
fn pack_a(a: &[i8], k: usize, kpairs: usize, r0: usize, mr: usize, dst: &mut [i32]) {
    for p in 0..kpairs {
        let col = &mut dst[p * MR..(p + 1) * MR];
        for (r, slot) in col.iter_mut().enumerate() {
            *slot = if r < mr {
                let row = &a[(r0 + r) * k..(r0 + r + 1) * k];
                let a0 = row.get(2 * p).copied().unwrap_or(0);
                let a1 = row.get(2 * p + 1).copied().unwrap_or(0);
                pack_pair(a0, a1)
            } else {
                0
            };
        }
    }
}

/// Two i8s, sign-extended to i16, packed little-endian into one i32.
#[inline(always)]
fn pack_pair(a0: i8, a1: i8) -> i32 {
    let lo = u32::from(a0 as i16 as u16);
    let hi = u32::from(a1 as i16 as u16);
    (lo | (hi << 16)) as i32 // tqt:allow(narrowing-cast): bit-for-bit reinterpretation, both halves already masked to 16 bits
}

/// Packs all of `b: [k, n]` into NR-wide k-pair-major panels: panel `q`,
/// pair `p` stores the 32 bytes
/// `[b(2p, j), b(2p+1, j)]` for `j` in `[q·NR, q·NR+NR)` — the
/// interleave that lines up with the packed-A i16 pairs after
/// `_mm256_cvtepi8_epi16`. Columns past `n` and the odd-`k` tail are
/// zero.
fn pack_b(b: &[i8], k: usize, n: usize, kpairs: usize, dst: &mut [i8]) {
    let npanels = n.div_ceil(NR);
    for q in 0..npanels {
        let panel = &mut dst[q * kpairs * 2 * NR..(q + 1) * kpairs * 2 * NR];
        let cols = NR.min(n - q * NR);
        for p in 0..kpairs {
            let row = &mut panel[p * 2 * NR..(p + 1) * 2 * NR];
            let (k0, k1) = (2 * p, 2 * p + 1);
            for j in 0..NR {
                let (b0, b1) = if j < cols {
                    let jj = q * NR + j;
                    (
                        b[k0 * n + jj],
                        if k1 < k { b[k1 * n + jj] } else { 0 },
                    )
                } else {
                    (0, 0)
                };
                row[2 * j] = b0;
                row[2 * j + 1] = b1;
            }
        }
    }
}

/// The register-tiled inner kernel over packed panels:
/// `acc[r, j] = Σ_p a0(p,r)·b(2p,j) + a1(p,r)·b(2p+1,j)`. Dispatches to
/// the AVX2 `madd_epi16` kernel when available, else to a portable
/// scalar loop over the same packed layout. Both paths accumulate each
/// element in the same ascending-`k` order with wrapping i32 adds, so
/// they are bit-identical (exact for `k ≤ 133 000`).
#[inline(always)]
fn microkernel(kpairs: usize, apanel: &[i32], bpanel: &[i8], acc: &mut [i32; MR * NR], avx: bool) {
    debug_assert!(apanel.len() >= kpairs * MR && bpanel.len() >= kpairs * 2 * NR);
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` is only true when has_avx2() confirmed the
        // feature; panel lengths are checked above.
        unsafe { microkernel_avx2(kpairs, apanel.as_ptr(), bpanel.as_ptr(), acc) }; // tqt:allow(unsafe): AVX2 dispatch guarded by runtime feature detection; panel bounds debug-asserted above
        return;
    }
    let _ = avx;
    for p in 0..kpairs {
        for r in 0..MR {
            let packed = apanel[p * MR + r];
            if packed == 0 {
                continue;
            }
            let a0 = i32::from(packed as i16);
            let a1 = i32::from((packed >> 16) as i16);
            let brow = &bpanel[p * 2 * NR..(p + 1) * 2 * NR];
            let arow = &mut acc[r * NR..(r + 1) * NR];
            for (j, sum) in arow.iter_mut().enumerate() {
                let prod = a0 * i32::from(brow[2 * j]) + a1 * i32::from(brow[2 * j + 1]);
                *sum = sum.wrapping_add(prod);
            }
        }
    }
}

/// AVX2 6×16 integer micro-kernel: 12 ymm i32 accumulators live across
/// the whole k loop; per k-pair, one 32-byte B load, two sign-extends,
/// and six broadcast + `madd_epi16` + `add_epi32` chains.
///
/// # Safety
///
/// Caller must guarantee the CPU supports `avx2` and that
/// `apanel`/`bpanel` point at `kpairs*MR` i32s / `kpairs*2*NR` i8s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(
    kpairs: usize,
    apanel: *const i32,
    bpanel: *const i8,
    acc: &mut [i32; MR * NR],
) {
    use std::arch::x86_64::*;
    let mut c: [[__m256i; 2]; MR] = [[_mm256_setzero_si256(); 2]; MR];
    for p in 0..kpairs {
        // 32 interleaved bytes: (k0,k1) pairs for 16 columns.
        let bv = _mm256_loadu_si256(bpanel.add(p * 2 * NR).cast());
        // Sign-extend to i16: columns 0..8 and 8..16, still pair-interleaved —
        // exactly the operand layout madd_epi16 pairs up.
        let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bv));
        for (r, cr) in c.iter_mut().enumerate() {
            // Broadcast the packed (a0, a1) i16 pair to all lanes;
            // madd computes a0*b(k0,j) + a1*b(k1,j) exactly in i32.
            let av = _mm256_set1_epi32(*apanel.add(p * MR + r));
            cr[0] = _mm256_add_epi32(cr[0], _mm256_madd_epi16(av, b_lo));
            cr[1] = _mm256_add_epi32(cr[1], _mm256_madd_epi16(av, b_hi));
        }
    }
    for (r, cr) in c.iter().enumerate() {
        _mm256_storeu_si256(acc.as_mut_ptr().add(r * NR).cast(), cr[0]);
        _mm256_storeu_si256(acc.as_mut_ptr().add(r * NR + 8).cast(), cr[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    /// Raw accumulators of the serving kernel: `a · b` with an empty
    /// epilogue, over `b` packed once.
    fn raw_acc(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i64> {
        let packed = PackedB::pack(b, k, n);
        assert_eq!((packed.k(), packed.n()), (k, n));
        let a: Vec<i64> = a.iter().map(|&v| i64::from(v)).collect();
        let mut out = vec![0i64; m * n];
        let (ovf, sat) = (Counter::new(), Counter::new());
        let lhs = NarrowLhs::Rows(&a);
        let b = &packed;
        gemm_i8_narrow_fused(m, n, k, lhs, b, None, &[], &mut out, &ovf, &sat, false);
        assert_eq!((ovf.get(), sat.get()), (0, 0));
        out
    }

    #[test]
    fn blocked_acc_matches_naive_small() {
        for &(m, k, n) in &[(7, 13, 19), (5, 9, 23), (12, 32, 16), (1, 7, 1)] {
            let a: Vec<i8> = (0..m * k).map(|v| ((v * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|v| ((v * 53 + 5) % 255) as i8).collect();
            let naive: Vec<i64> = kernels::matmul_i8_acc32(&a, &b, m, k, n)
                .into_iter()
                .map(i64::from)
                .collect();
            assert_eq!(naive, raw_acc(m, n, k, &a, &b), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn pack_pair_roundtrips_sign() {
        for &(a0, a1) in &[(-128i8, 127i8), (0, -1), (-1, 0), (5, -7)] {
            let packed = pack_pair(a0, a1);
            assert_eq!(packed as i16, i16::from(a0));
            assert_eq!((packed >> 16) as i16, i16::from(a1));
        }
    }

    #[test]
    fn fused_pow2_matches_two_pass() {
        let (m, k, n) = (9, 31, 17);
        let a: Vec<i8> = (0..m * k).map(|v| ((v * 41 + 3) % 251) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|v| ((v * 59 + 7) % 253) as i8).collect();
        let bias: Vec<i32> = (0..m).map(|v| (v as i32 - 4) * 9).collect();
        let mut acc = kernels::matmul_i8_acc32(&a, &b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                acc[i * n + j] += bias[i];
            }
        }
        let expected = kernels::requant_buffer_pow2(&acc, 5);
        let mut got = vec![0i8; m * n];
        gemm_i8_fused_prepacked(
            m,
            n,
            k,
            &a,
            &PackedB::pack(&b, k, n),
            Some(&bias),
            RequantMode::Pow2 { shift: 5 },
            &mut got,
            false,
        );
        assert_eq!(expected, got);
    }

    #[test]
    fn odd_k_and_single_row_edge() {
        assert_eq!(raw_acc(1, 1, 1, &[-128], &[-128]), vec![16384]);
    }
}
