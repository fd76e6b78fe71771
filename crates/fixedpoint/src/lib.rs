//! # tqt-fixedpoint
//!
//! Integer-only fixed-point inference for TQT-quantized graphs:
//!
//! * [`qtensor`] — integer tensors with power-of-2 Q-format metadata;
//! * [`requant`] — the three requantization schemes of Appendix A
//!   (power-of-2 shift, normalized fixed-point multiplier, affine with
//!   zero-point cross-terms);
//! * [`kernels`] — naive narrow `i8` kernels (the oracle/baseline);
//! * [`gemm_i8`] — the blocked, packed, SIMD-dispatched `i8` GEMM whose
//!   epilogue fuses bias, zero-point corrections, and requantization,
//!   and whose i32-accumulating entry point serves every conv/dense node
//!   the plan proves narrow;
//! * [`intgemm`] — the blocked exact-i128 `i64` GEMM, the engine's
//!   proven fallback for everything else (16-bit configs, bound
//!   rejections), and the per-element epilogue tail that every kernel
//!   and every standalone elementwise node runs through;
//! * [`mod@plan`] — static execution plans and the buffer-reusing
//!   [`IntExecutor`] for repeated integer inference;
//! * [`mod@lower`] with the [`lower()`](lower::lower) entry point — lowering a quantized float graph to an [`IntGraph`]
//!   that is bit-exact to the baked float inference graph (the paper's
//!   Section 4.2 property);
//! * [`mod@fuse`] — graph-level conv→relu→add epilogue fusion over the
//!   [`IntGraph`], bit-identical by construction and proven so by
//!   `tests/fusion_parity.rs`;
//! * [`mod@rebalance`] — certified requant rebalancing: inserts the
//!   minimal coercions that bring unmerged Add/Concat operands onto one
//!   power-of-2 grid, closing the `TQT-V028` gap (`fuse` then fuses
//!   through the inserted coercions).

pub mod fuse;
pub mod gemm_i8;
pub mod intgemm;
pub mod kernels;
pub mod lower;
pub mod plan;
pub mod qtensor;
pub mod rebalance;
pub mod requant;

pub use fuse::{fuse, fuse_with_chains, ChainRecord};
pub use rebalance::{
    rebalance, rebalance_with_provenance, rebalance_with_records, RebalanceRecord,
};
pub use gemm_i8::{gemm_i8_fused_prepacked, gemm_i8_narrow_fused, NarrowLhs, PackedB, RequantMode};
pub use lower::{
    lower, lower_with_provenance, EpiStep, IntGraph, NodeProv, NodeStats, Provenance, RoundMode,
    RunStats,
};
pub use plan::{GemmRoute, IntExecutor, IntPlan};
pub use qtensor::{QFormat, QTensor};
