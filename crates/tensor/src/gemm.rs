//! Cache-blocked single-precision GEMM: the one driver loop and
//! micro-kernel behind `matmul`/`matmul_tn`/`matmul_nt` and the
//! convolution products.
//!
//! Structure is the classic three-level blocking (GotoBLAS/BLIS):
//!
//! * the **k** dimension is split into [`KC`]-deep slabs;
//! * per slab, B columns are packed into [`NR`]-wide panels (`bpack`,
//!   streamed from L1/L2 by every row block);
//! * per row block of [`MC`] rows, A is packed into [`MR`]-tall panels
//!   (`apack`) and an `MR×NR` register-tiled micro-kernel accumulates
//!   `C += A·B` with all `MR*NR` partial sums held in registers.
//!
//! Packing gives the micro-kernel unit-stride, zero-padded operands, so
//! the same code path (and the same floating-point result) serves every
//! shape, including edge tiles smaller than one register tile and inputs
//! accessed through transposed strides (`tn`/`nt` — no transpose is ever
//! materialized). Only the packers know where an operand lives: A is
//! strided or packed once ahead of the call; B is strided or a
//! convolution's windows, gathered from a staged image straight into the
//! panels and read as the im2col matrix or its transpose. A panel's
//! values do not depend on the source, so neither does the product.
//!
//! **Determinism.** Each output element `c[i,j]` is accumulated in a
//! fixed order: KC-slabs in ascending `k`, and within a slab a single
//! ascending-`k` chain in the micro-kernel. Parallelism only ever splits
//! the `MC` row-block loop, and every element belongs to exactly one row
//! block, so the summation order — and therefore the f32 result — is
//! independent of the thread count. The block constants are compile-time
//! fixed and are part of that contract: changing [`KC`] changes rounding
//! (within the documented `~1e-6` relative band of any other order).
//!
//! The packing panels come from the thread-local [`Scratch`] arena and
//! are reused across calls, layers, and training steps.

use crate::scratch::Scratch;
use tqt_rt::pool;

/// Register-tile rows (A micro-panel height).
pub const MR: usize = 6;
/// Register-tile columns (B micro-panel width): two 8-lane AVX2 vectors
/// per accumulator row. The 6×16 tile holds `6×2 = 12` ymm accumulators
/// plus two B vectors and one A broadcast — 15 of the 16 ymm registers.
pub const NR: usize = 16;
/// Rows of A per cache block: 10 MR-panels; one `apack` is 60 KiB (L2).
const MC: usize = 60;
/// Depth of one k-slab. Fixed: part of the summation-order contract.
pub(crate) const KC: usize = 256;
/// Columns of B per cache block (`bpack` is at most `KC*NC` = 512 KiB).
pub(crate) const NC: usize = 512;

/// `c += a @ b` for row-major `a: [m, k]`, `b: [k, n]`, `c: [m, n]`.
///
/// # Panics
///
/// Panics (via debug assertions / slice indexing) if the buffers are
/// shorter than the shapes imply.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], parallel: bool) {
    gemm(m, n, k, Lhs::rows(a, k), Rhs::rows(b, n), c, parallel);
}

/// `c += a^T @ b` for `a: [k, m]`, `b: [k, n]`, `c: [m, n]`, reading `a`
/// through transposed strides (no materialized transpose).
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], parallel: bool) {
    let at = Lhs::Strided { a, rs: 1, cs: m };
    gemm(m, n, k, at, Rhs::rows(b, n), c, parallel);
}

/// `c += a @ b^T` for `a: [m, k]`, `b: [n, k]`, `c: [m, n]`, reading `b`
/// through transposed strides (no materialized transpose).
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], parallel: bool) {
    let bt = Rhs::Strided { b, rs: 1, cs: k };
    gemm(m, n, k, Lhs::rows(a, k), bt, c, parallel);
}

/// Packed-LHS buffer length for a row-major `[m, k]` operand:
/// `m.div_ceil(MR) * MR * k` elements (rows rounded up to whole MR
/// panels, every k column present).
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs a full row-major LHS `a: [m, k]` **once** into `dst`, in the
/// exact slab/panel layout a prepacked LHS is read in: for each
/// [`KC`]-deep k-slab in ascending `k`, every [`MR`]-tall k-major row
/// panel of the whole matrix (zero-padded like [`pack_a`]). Slab `pc`
/// starts at `m.div_ceil(MR) * MR * pc`, so any [`MC`]-aligned row
/// block's panels form a contiguous sub-slice. Executors keep the packed
/// weights in a plan-owned arena and re-pack in place each training step.
///
/// # Panics
///
/// Panics if `a.len() != m * k` or `dst.len() != packed_a_len(m, k)`.
pub fn pack_a_full_into(a: &[f32], m: usize, k: usize, dst: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(dst.len(), packed_a_len(m, k), "packed dst length mismatch");
    let mpanels = m.div_ceil(MR);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let base = mpanels * MR * pc;
        pack_a(a, k, 1, 0, pc, m, kc, &mut dst[base..base + mpanels * MR * kc]);
    }
}

/// [`gemm_nn`] (`c += a @ b`) over an LHS packed by
/// [`pack_a_full_into`]: identical blocking, summation order, and
/// therefore bit-identical f32 results — the A packing just happened
/// once, ahead of the call, instead of per call.
///
/// # Panics
///
/// Panics if `apack.len() != packed_a_len(m, k)`.
pub fn gemm_nn_prepacked_slice(
    m: usize,
    n: usize,
    k: usize,
    apack_full: &[f32],
    b: &[f32],
    c: &mut [f32],
    parallel: bool,
) {
    gemm(m, n, k, Lhs::Packed(apack_full), Rhs::rows(b, n), c, parallel);
}

/// Reference kernel: the naive row-axpy loop the blocked kernel replaced.
/// Kept on purpose as (a) the oracle for the GEMM property tests and
/// (b) the baseline the `gemm_kernels` bench measures speedups against.
pub fn gemm_nn_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 { // tqt:allow(float-eq): exact-zero skip is an optimization, not a tolerance
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// The left operand of [`gemm`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// `A[i, kk] = a[i*rs + kk*cs]`, packed per row block.
    Strided {
        /// Backing storage.
        a: &'a [f32],
        /// Row stride.
        rs: usize,
        /// Column stride.
        cs: usize,
    },
    /// The whole operand packed once by [`pack_a_full_into`]. The hot
    /// use is convolution, where one weight matrix multiplies every
    /// image's windows. The packed buffer is read-only during the call,
    /// so it is safe to share across pool blocks.
    Packed(&'a [f32]),
}

impl<'a> Lhs<'a> {
    /// A row-major `[m, k]` operand.
    pub(crate) fn rows(a: &'a [f32], k: usize) -> Self {
        Lhs::Strided { a, rs: k, cs: 1 }
    }
}

/// The right operand of [`gemm`]: where its B panels are gathered from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// `B[kk, j] = b[kk*rs + j*cs]`.
    Strided {
        /// Backing storage.
        b: &'a [f32],
        /// Row stride.
        rs: usize,
        /// Column stride.
        cs: usize,
    },
    /// One image's im2col matrix `[taps, oh*ow]`, read in place from the
    /// staged image: `B[t, p]` is tap `t` of output pixel `p`'s window.
    Windows(Windows<'a>),
    /// Its transpose `[oh*ow, taps]`: `B[p, t]`, the operand of the
    /// weight gradient `gy · cols^T`.
    WindowsT(Windows<'a>),
}

impl<'a> Rhs<'a> {
    /// A row-major `[k, n]` operand.
    pub(crate) fn rows(b: &'a [f32], n: usize) -> Self {
        Rhs::Strided { b, rs: n, cs: 1 }
    }

    /// Packs `kc×nc` of B from `(k0, j0)` into NR-wide, k-major panels,
    /// zero-padding the ragged last panel. Every source yields the same
    /// panel values for the same logical B, so the product does not
    /// depend on where B lives.
    pub(crate) fn pack(&self, k0: usize, j0: usize, kc: usize, nc: usize, dst: &mut [f32]) {
        match *self {
            Rhs::Strided { b, rs, cs } => pack_b(b, rs, cs, k0, j0, kc, nc, dst),
            Rhs::Windows(win) => win.pack(k0, j0, kc, nc, dst),
            Rhs::WindowsT(win) => win.pack_t(k0, j0, kc, nc, dst),
        }
    }
}

/// A convolution's im2col matrix, never materialized: one image staged
/// zero-padded to `[c, hp, wp]` plus the offset of every reduction tap
/// `(ci, ki, kj)` within one window, in im2col's row order. Tap `t` of
/// output pixel `p = oi*ow + oj` is
/// `plane[(oi*wp + oj)*stride + taps[t]]`, so a gathered panel holds
/// exactly the values an im2col matrix would. Built by
/// [`crate::conv::stage_windows`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Windows<'a> {
    /// The zero-padded image, `[c, hp, wp]`.
    pub(crate) plane: &'a [f32],
    /// Tap offsets as `u32` bit patterns ([`Windows::tap_bits`]), so the
    /// table shares the f32 workspace with the plane.
    pub(crate) taps: &'a [f32],
    /// Output width.
    pub(crate) ow: usize,
    /// Convolution stride.
    pub(crate) stride: usize,
    /// Padded input width.
    pub(crate) wp: usize,
}

impl Windows<'_> {
    /// The f32 whose bits store tap offset `off`: a bit pattern that is
    /// never computed with, so it round-trips exactly. Saturating keeps
    /// an absurd offset an out-of-bounds panic, not a wrap.
    pub(crate) fn tap_bits(off: usize) -> f32 {
        f32::from_bits(u32::try_from(off).unwrap_or(u32::MAX))
    }

    /// The tap offset stored by [`Windows::tap_bits`].
    #[inline(always)]
    pub(crate) fn tap_offset(bits: f32) -> usize {
        bits.to_bits() as usize
    }

    /// Offset of tap `t` within one window.
    #[inline(always)]
    fn tap(&self, t: usize) -> usize {
        Self::tap_offset(self.taps[t])
    }

    /// Offset of output pixel `p`'s window origin within the plane.
    #[inline(always)]
    fn origin(&self, p: usize) -> usize {
        (p / self.ow * self.wp + p % self.ow) * self.stride
    }

    /// [`pack_b`] over `B[t, p]`: each panel's NR pixels split into runs
    /// that share an output row, so every tap row is a few contiguous
    /// copies at stride 1.
    fn pack(&self, k0: usize, j0: usize, kc: usize, nc: usize, dst: &mut [f32]) {
        for q in 0..nc.div_ceil(NR) {
            let panel = &mut dst[q * NR * kc..(q + 1) * NR * kc];
            let cols = NR.min(nc - q * NR);
            // (first panel column, window origin, length) per run.
            let mut runs = [(0usize, 0usize, 0usize); NR];
            let (mut nruns, mut s) = (0, 0);
            while s < cols {
                let p = j0 + q * NR + s;
                let len = (self.ow - p % self.ow).min(cols - s);
                runs[nruns] = (s, self.origin(p), len);
                nruns += 1;
                s += len;
            }
            let (rows, _) = panel.as_chunks_mut::<NR>();
            if let [(0, at, NR)] = runs[..nruns] {
                if self.stride == 1 {
                    // The common large-layer panel: one output row's run,
                    // a fixed-size copy per tap.
                    for (kk, row) in rows.iter_mut().enumerate() {
                        let t = at + self.tap(k0 + kk);
                        row.copy_from_slice(&self.plane[t..t + NR]);
                    }
                    continue;
                }
            }
            for (kk, row) in rows.iter_mut().enumerate() {
                let t = self.tap(k0 + kk);
                for &(s, at, len) in &runs[..nruns] {
                    let dst = &mut row[s..s + len];
                    let src = &self.plane[at + t..];
                    if self.stride == 1 {
                        dst.copy_from_slice(&src[..len]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(self.stride)) {
                            *d = v;
                        }
                    }
                }
                row[cols..].fill(0.0);
            }
        }
    }

    /// [`pack_b`] over `B[p, t]`: each panel's NR tap offsets are read
    /// once, then every pixel row gathers them from its window.
    fn pack_t(&self, k0: usize, j0: usize, kc: usize, nc: usize, dst: &mut [f32]) {
        for q in 0..nc.div_ceil(NR) {
            let panel = &mut dst[q * NR * kc..(q + 1) * NR * kc];
            let cols = NR.min(nc - q * NR);
            let mut taps = [0usize; NR];
            for (s, t) in taps.iter_mut().enumerate().take(cols) {
                *t = self.tap(j0 + q * NR + s);
            }
            // Walk the pixels' window origins without a division per row.
            let (mut oj, mut at) = (k0 % self.ow, self.origin(k0));
            let row_step = self.stride * (self.wp - (self.ow - 1));
            for row in panel.chunks_exact_mut(NR) {
                let window = &self.plane[at..];
                for (d, &t) in row.iter_mut().zip(&taps[..cols]) {
                    *d = window[t];
                }
                row[cols..].fill(0.0);
                oj += 1;
                if oj == self.ow {
                    oj = 0;
                    at += row_step;
                } else {
                    at += self.stride;
                }
            }
        }
    }
}

/// Blocked `c += A·B`, `c` row-major `[m, n]` contiguous: the one driver
/// loop behind every entry point. `parallel` fans the `MC` row-block
/// loop out over the worker pool (set it `false` when the caller is
/// already inside a parallel region with one GEMM per worker, as the
/// conv kernels are).
///
/// # Panics
///
/// Panics if a packed LHS is not [`packed_a_len`]`(m, k)` long, and
/// (via debug assertions / slice indexing) if the other buffers are
/// shorter than the shapes imply.
pub(crate) fn gemm(m: usize, n: usize, k: usize, a: Lhs, b: Rhs, c: &mut [f32], parallel: bool) {
    if let Lhs::Packed(full) = a {
        assert_eq!(full.len(), packed_a_len(m, k), "packed lhs length mismatch");
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(c.len() >= m * n, "C buffer too small");
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let npanels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let mut bpack = Scratch::uninit(npanels * NR * kc);
            b.pack(pc, jc, kc, nc, &mut bpack);
            let block = |ic0: usize, cblock: &mut [f32]| {
                let mc = MC.min(m - ic0);
                let alen = mc.div_ceil(MR) * MR * kc;
                match a {
                    // MC is a multiple of MR, so a row block's panels
                    // start on a panel boundary and are contiguous
                    // within the slab.
                    Lhs::Packed(full) => {
                        let apack = &full[m.div_ceil(MR) * MR * pc + ic0 * kc..][..alen];
                        mul_block(apack, &bpack, mc, kc, n, jc, nc, cblock);
                    }
                    Lhs::Strided { a, rs, cs } => {
                        let mut apack = Scratch::uninit(alen);
                        pack_a(a, rs, cs, ic0, pc, mc, kc, &mut apack);
                        mul_block(&apack, &bpack, mc, kc, n, jc, nc, cblock);
                    }
                }
            };
            // One chunk per MC rows of C; identical block boundaries on
            // both paths, so this is purely a scheduling choice.
            if parallel && m > MC && pool::threads() > 1 {
                pool::par_chunks_mut(c, MC * n, |bi, cblock| block(bi * MC, cblock));
            } else {
                for (bi, cblock) in c.chunks_mut(MC * n).enumerate() {
                    block(bi * MC, cblock);
                }
            }
        }
    }
}

/// Multiplies one packed `mc×kc` A block by the packed `kc×nc` B panel
/// set, accumulating into `cblock` (the `mc` full-width rows of C that
/// the block owns; only columns `[jc, jc+nc)` are touched).
#[allow(clippy::too_many_arguments)]
fn mul_block(
    apack: &[f32],
    bpack: &[f32],
    mc: usize,
    kc: usize,
    n: usize,
    jc: usize,
    nc: usize,
    cblock: &mut [f32],
) {
    let mpanels = mc.div_ceil(MR);
    let npanels = nc.div_ceil(NR);
    let avx = has_avx2_fma();
    for q in 0..npanels {
        let bpanel = &bpack[q * NR * kc..(q + 1) * NR * kc];
        let nr = NR.min(nc - q * NR);
        for p in 0..mpanels {
            let apanel = &apack[p * MR * kc..(p + 1) * MR * kc];
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(kc, apanel, bpanel, &mut acc, avx);
            let mr = MR.min(mc - p * MR);
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                let row0 = (p * MR + r) * n + jc + q * NR;
                for (cv, &av) in cblock[row0..row0 + nr].iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
        }
    }
}

/// True when the AVX2+FMA micro-kernel can run on this CPU. The
/// detection macro caches its answer, so this is a relaxed atomic load
/// per call — negligible next to a `kc`-deep micro-tile.
#[inline]
fn has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The register-tiled inner kernel: `acc[r][s] = sum_kk ap[kk,r] *
/// bp[kk,s]` over one packed A panel (`kc×MR`, k-major) and one packed B
/// panel (`kc×NR`, k-major). Dispatches to the AVX2+FMA kernel when the
/// CPU has it, else to a portable scalar loop. Both accumulate in the
/// same fixed ascending-`k` order; results are deterministic per machine
/// (the FMA path rounds once per multiply-add, so cross-ISA results
/// differ within the usual f32 tolerance).
#[inline(always)]
fn microkernel(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR], avx: bool) {
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` is only true when has_avx2_fma() confirmed the
        // features; panel lengths are checked above.
        unsafe { microkernel_avx2(kc, apanel.as_ptr(), bpanel.as_ptr(), acc) }; // tqt:allow(unsafe): AVX2+FMA dispatch guarded by runtime feature detection; panel bounds debug-asserted above
        return;
    }
    let _ = avx;
    for kk in 0..kc {
        let av: &[f32; MR] = apanel[kk * MR..].first_chunk().unwrap(); // tqt:allow(unwrap): panel length is a multiple of MR
        let bv: &[f32; NR] = bpanel[kk * NR..].first_chunk().unwrap(); // tqt:allow(unwrap): panel length is a multiple of NR
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a = av[r];
            for (s, sum) in acc_row.iter_mut().enumerate() {
                *sum += a * bv[s];
            }
        }
    }
}

/// AVX2+FMA 6×16 micro-kernel: 12 ymm accumulators live across the whole
/// `kc` loop, two B loads and six broadcast-FMAs per `kk` step.
///
/// # Safety
///
/// Caller must guarantee the CPU supports `avx2` and `fma`, and that
/// `apanel`/`bpanel` point at `kc*MR` / `kc*NR` readable f32s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(
    kc: usize,
    apanel: *const f32,
    bpanel: *const f32,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bpanel.add(kk * NR));
        let b1 = _mm256_loadu_ps(bpanel.add(kk * NR + 8));
        for (r, cr) in c.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*apanel.add(kk * MR + r));
            cr[0] = _mm256_fmadd_ps(a, b0, cr[0]);
            cr[1] = _mm256_fmadd_ps(a, b1, cr[1]);
        }
    }
    for (r, cr) in c.iter().enumerate() {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), cr[0]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), cr[1]);
    }
}

/// Packs `mc×kc` of A (strided) into MR-tall, k-major panels, zero-
/// padding the ragged last panel so the micro-kernel is branch-free.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    i0: usize,
    k0: usize,
    mc: usize,
    kc: usize,
    dst: &mut [f32],
) {
    for p in 0..mc.div_ceil(MR) {
        let panel = &mut dst[p * MR * kc..(p + 1) * MR * kc];
        let rows = MR.min(mc - p * MR);
        for kk in 0..kc {
            let col = &mut panel[kk * MR..(kk + 1) * MR];
            for (r, slot) in col.iter_mut().take(rows).enumerate() {
                *slot = a[(i0 + p * MR + r) * a_rs + (k0 + kk) * a_cs];
            }
            col[rows..].fill(0.0);
        }
    }
}

/// Packs `kc×nc` of B (strided) into NR-wide, k-major panels, zero-
/// padding the ragged last panel.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    k0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    dst: &mut [f32],
) {
    for q in 0..nc.div_ceil(NR) {
        let panel = &mut dst[q * NR * kc..(q + 1) * NR * kc];
        let cols = NR.min(nc - q * NR);
        for kk in 0..kc {
            let row = &mut panel[kk * NR..(kk + 1) * NR];
            let src0 = (k0 + kk) * b_rs + (j0 + q * NR) * b_cs;
            if b_cs == 1 {
                row[..cols].copy_from_slice(&b[src0..src0 + cols]);
            } else {
                for (s, slot) in row.iter_mut().take(cols).enumerate() {
                    *slot = b[src0 + s * b_cs];
                }
            }
            row[cols..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strided oracle covering all three layout variants.
    #[allow(clippy::too_many_arguments)]
    fn oracle(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_rs: usize,
        a_cs: usize,
        b: &[f32],
        b_rs: usize,
        b_cs: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] +=
                        a[i * a_rs + kk * a_cs] as f64 * b[kk * b_rs + j * b_cs] as f64;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = tqt_rt::Rng::new(seed);
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn edge_tile_grid_matches_oracle() {
        // Shapes straddling every tile boundary: below MR/NR, exact
        // multiples, one past, and (for k) across the KC slab boundary.
        let dims = [1usize, 2, 3, MR, MR + 1, NR - 1, NR, NR + 1, 17];
        let ks = [1usize, 2, 7, KC - 1, KC, KC + 1];
        for &m in &dims {
            for &n in &dims {
                for &k in &ks {
                    let a = fill(m * k, 1 + (m * 31 + n * 7 + k) as u64);
                    let b = fill(k * n, 2 + (m + n * 13 + k * 3) as u64);
                    let mut c = vec![0.0f32; m * n];
                    gemm_nn(m, n, k, &a, &b, &mut c, false);
                    let want = oracle(m, n, k, &a, k, 1, &b, n, 1);
                    for (idx, (&got, &exp)) in c.iter().zip(&want).enumerate() {
                        assert!(
                            (got - exp).abs() <= 1e-4 * exp.abs().max(1.0),
                            "[{m}x{n}x{k}] c[{idx}] = {got}, oracle {exp}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tn_and_nt_match_strided_oracle() {
        let (m, n, k) = (13, 21, 37);
        let at = fill(k * m, 11); // stored [k, m]
        let bt = fill(n * k, 12); // stored [n, k]
        let b = fill(k * n, 13);
        let a = fill(m * k, 14);

        let mut c = vec![0.0f32; m * n];
        gemm_tn(m, n, k, &at, &b, &mut c, false);
        let want = oracle(m, n, k, &at, 1, m, &b, n, 1);
        for (got, exp) in c.iter().zip(&want) {
            assert!((got - exp).abs() <= 1e-4 * exp.abs().max(1.0));
        }

        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c, false);
        let want = oracle(m, n, k, &a, k, 1, &bt, 1, k);
        for (got, exp) in c.iter().zip(&want) {
            assert!((got - exp).abs() <= 1e-4 * exp.abs().max(1.0));
        }
    }

    #[test]
    fn prepacked_is_bit_identical_to_pack_per_call() {
        // Shapes straddling MR/MC/KC boundaries, serial and parallel.
        let shapes = [
            (1usize, 1usize, 1usize),
            (MR + 1, NR + 1, 7),
            (MC, 33, KC),
            (2 * MC + 5, 97, KC + 3),
        ];
        tqt_rt::pool::set_threads(4);
        for &(m, n, k) in &shapes {
            let a = fill(m * k, 101 + m as u64);
            let b = fill(k * n, 202 + n as u64);
            let mut packed = vec![f32::NAN; packed_a_len(m, k)];
            pack_a_full_into(&a, m, k, &mut packed);
            assert_eq!(packed.len(), m.div_ceil(MR) * MR * k);
            for parallel in [false, true] {
                let mut c_ref = vec![0.5f32; m * n];
                gemm_nn(m, n, k, &a, &b, &mut c_ref, parallel);
                let mut c_pp = vec![0.5f32; m * n];
                gemm_nn_prepacked_slice(m, n, k, &packed, &b, &mut c_pp, parallel);
                assert_eq!(c_ref, c_pp, "[{m}x{n}x{k}] parallel={parallel}");
            }
        }
        tqt_rt::pool::set_threads(0);
    }

    #[test]
    fn accumulates_into_c() {
        // gemm semantics are C += A·B: a pre-loaded C survives.
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![10.0f32; 4];
        gemm_nn(2, 2, 2, &a, &b, &mut c, false);
        assert_eq!(c, vec![12.0; 4]);
    }

    #[test]
    fn parallel_split_is_bit_identical() {
        tqt_rt::pool::set_threads(4);
        let (m, n, k) = (3 * MC + 5, 97, KC + 3);
        let a = fill(m * k, 77);
        let b = fill(k * n, 78);
        let mut cp = vec![0.0f32; m * n];
        gemm_nn(m, n, k, &a, &b, &mut cp, true);
        let mut cs = vec![0.0f32; m * n];
        gemm_nn(m, n, k, &a, &b, &mut cs, false);
        tqt_rt::pool::set_threads(0);
        assert_eq!(cp, cs, "thread split changed the f32 result");
    }
}
