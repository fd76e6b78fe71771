//! # tqt-graph
//!
//! A Graffitist-style graph framework (the paper's Section 4): a layer
//! dataflow IR with pattern-matching transforms and automatic quantization
//! passes.
//!
//! * [`ir`] — the graph, node, and threshold-side-table representation.
//!   Quantizer thresholds live in a side table so several quant ops can
//!   share one scale (the paper's merged `q'` scales for concat,
//!   eltwise-add and bias).
//! * [`shape`] — the one per-op shape rule and [`Graph::infer_shapes`].
//! * [`transforms`] — batch-norm folding, identity splicing,
//!   concat-of-concat collapsing, avgpool → depthwise conversion.
//! * [`quantize`] — the automatic quantization pass implementing the
//!   layer-precision topologies of Section 4.3 in static or retrain mode.
//! * [`state`] — weight checkpointing (save/load state dicts).
//! * [`error`] — [`LowerError`], the typed refusal of a graph the integer
//!   lowering cannot take, one `tqt-verify` code per variant.
//! * [`fplan`] / [`fexec`] — the one float engine: a liveness-planned
//!   slot assignment over the forward+backward training tape or a
//!   forward-only tape, and the allocation-free executor that runs it for
//!   calibration ([`Graph::calibrate`]), inference ([`Graph::infer`]),
//!   training and evaluation. Its parity tests check it bit for bit
//!   against the allocating interpreter in the test-only
//!   `tqt-reference` crate.

pub mod error;
pub mod fexec;
pub mod fplan;
pub mod ir;
pub mod quantize;
pub mod shape;
pub mod state;
pub mod transforms;

pub use error::LowerError;
pub use fexec::{
    build_arena, flush_arena, sync_thresholds_from_arena, sync_thresholds_to_arena, FloatExecutor,
    QuantHook,
};
pub use fplan::{FloatPlan, ValueKind};
pub use ir::{Graph, Node, NodeId, Op, ThresholdId, ThresholdMode, ThresholdState, WeightQuant};
pub use quantize::{quantize_graph, QuantizeOptions, WeightBits};
