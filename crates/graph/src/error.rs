//! Typed refusals of a float graph: each names the offending node and
//! corresponds to one `tqt-verify` diagnostic code, so a pass that refuses
//! a graph and the lint that flags it agree on where and why.

use std::fmt;

/// Why a float graph cannot be lowered to the integer engine. Each variant
/// carries the name of the node at fault and stands for one `tqt-verify`
/// code (given in its doc); `tqt-verify` maps it to that code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// `TQT-V001`: the graph has no output set.
    NoOutput,
    /// `TQT-V001`: a node with no inputs where it needs one, an edge to a
    /// node that is not earlier, or a threshold id the side table lacks.
    Structure {
        /// The offending node.
        node: String,
        /// What is wrong with it.
        detail: String,
    },
    /// `TQT-V003`: an op that needs a static fixed-point grid (conv,
    /// dense, relu, identity) reads an edge without one: a float edge, or
    /// a global average pool whose grid is resolved only at run time.
    UnquantizedInput {
        /// The op reading the edge.
        node: String,
    },
    /// `TQT-V004`: a compute op has no weight quantizer.
    MissingWeightQuant {
        /// The compute op.
        node: String,
    },
    /// `TQT-V006`: a quantizer's threshold was never calibrated.
    Uncalibrated {
        /// The quant node or compute op reading the threshold.
        node: String,
        /// The threshold's parameter name.
        threshold: String,
    },
    /// `TQT-V008`: a batch norm survives; fold it first.
    UnfoldedBatchNorm {
        /// The batch norm.
        node: String,
    },
    /// `TQT-V009`: an average pool survives; convert it to depthwise first.
    UnconvertedAvgPool {
        /// The average pool.
        node: String,
    },
}

impl LowerError {
    /// The node at fault (`None` for a graph without an output).
    pub fn node(&self) -> Option<&str> {
        match self {
            LowerError::NoOutput => None,
            LowerError::Structure { node, .. }
            | LowerError::UnquantizedInput { node }
            | LowerError::MissingWeightQuant { node }
            | LowerError::Uncalibrated { node, .. }
            | LowerError::UnfoldedBatchNorm { node }
            | LowerError::UnconvertedAvgPool { node } => Some(node),
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NoOutput => write!(f, "the graph has no output set"),
            LowerError::Structure { node, detail } => write!(f, "node `{node}` {detail}"),
            LowerError::UnquantizedInput { node } => write!(
                f,
                "node `{node}` has unquantized input: it reads an edge with no static \
                 fixed-point grid; insert an activation quantizer"
            ),
            LowerError::MissingWeightQuant { node } => {
                write!(f, "compute node `{node}` has no weight quantizer")
            }
            LowerError::Uncalibrated { node, threshold } => {
                write!(
                    f,
                    "node `{node}` reads threshold `{threshold}`, which was never calibrated"
                )
            }
            LowerError::UnfoldedBatchNorm { node } => {
                write!(
                    f,
                    "batch norm `{node}` survives; fold batch norms before lowering"
                )
            }
            LowerError::UnconvertedAvgPool { node } => write!(
                f,
                "average pool `{node}` survives; convert average pools to depthwise before lowering"
            ),
        }
    }
}

impl std::error::Error for LowerError {}
