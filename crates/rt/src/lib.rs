//! `tqt-rt` — the zero-dependency runtime substrate of the TQT
//! reproduction.
//!
//! The workspace's north star is a from-scratch, offline-reproducible
//! system: every substrate the experiments depend on is owned by the repo,
//! the same self-contained-toolbox philosophy as TensorQuant and AIMET.
//! This crate replaces the external crates the seed pulled from crates.io:
//!
//! * [`rng`] — a deterministic SplitMix64-seeded Xoshiro256++ PRNG with
//!   `gen_range`/`shuffle`/`fill` APIs (replaces `rand`);
//! * [`pool`] — a scoped fork-join thread pool built on
//!   [`std::thread::scope`] with a `serial` feature flag for deterministic
//!   debugging (replaces `rayon`);
//! * [`json`] — a minimal JSON value type with serialize/parse (replaces
//!   `serde_json`);
//! * [`check`](mod@check) — a shrinking property-test mini-harness with
//!   persisted regression seeds (replaces `proptest`);
//! * [`bench`](mod@bench) — a median/IQR wall-clock bench harness
//!   (replaces `criterion`);
//! * [`sched`] — the pool's claim/complete protocol as shared pure
//!   functions plus a bounded explicit-state model checker that
//!   exhaustively enumerates schedules of the pool protocol (a
//!   zero-dependency `loom` stand-in);
//! * [`hb`] — a runtime happens-before sanitizer (feature `sanitize`):
//!   mutable block-range disjointness on parallel regions and
//!   cross-region scratch-checkout escape detection;
//! * [`sync`] — the only shared-state primitives the rest of the
//!   workspace may use ([`sync::Counter`], [`sync::Flag`]): raw atomics
//!   stay in this crate, where they are model-checked;
//! * [`queue`] — the dynamic-batching admission queue of the serving
//!   core (`tqt-serve`), whose coalescing decisions are the
//!   model-checked pure functions in [`sched`], plus the scoped-thread
//!   helper serving workers and bench load generators run on.
//!
//! Everything here is plain `std`; the crate must never grow an external
//! dependency.

pub mod bench;
pub mod check;
pub mod hb;
pub mod json;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod sync;

pub use check::{Config as CheckConfig, Gen};
pub use json::Json;
pub use rng::Rng;
