//! The [`Layer`] trait: the parameter-owning building blocks a graph
//! embeds in its ops. Their arithmetic is the slice kernels next to each
//! layer, which the planned float executor calls directly.

use crate::param::Param;

/// A neural-network operation: its name and its trainable parameters.
pub trait Layer: std::fmt::Debug + Send {
    /// Human-readable operation name (e.g. `"conv2d"`).
    fn op_name(&self) -> &'static str;

    /// This layer's trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to this layer's trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}
