//! The repository's end-to-end benchmark: four workloads over the served
//! int8 engine, dynamic batching, serving and the QAT step, each run in
//! its own process, plus a traced mode that measures every layer from
//! outside by timing calls into its public functions.
//!
//! See `README.md` beside this package for the metric tables and how to
//! run it.

pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
