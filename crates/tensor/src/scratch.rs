//! Thread-local, grow-only scratch arenas for kernel workspace buffers.
//!
//! GEMM packing panels, the integer route's column matrices and the
//! allocating conv wrappers' workspaces would otherwise be
//! `vec![0.0; ...]` per call — at training-loop frequencies that is
//! thousands of multi-hundred-KB allocations (and page faults) per
//! second. (The planned float executor sizes its conv workspace once,
//! in the plan; see `tqt_graph::fplan`.) Each arena keeps a per-thread free stack of `Vec<T>`
//! buffers: `uninit`/`zeroed` pop one (LIFO, so a steady loop re-pairs
//! each call site with the buffer it used last time), grow it if
//! needed, and the guard's `Drop` pushes it back. Capacity is never
//! given back — across layers and training steps the arena converges to
//! the high-water mark of each nesting level and allocation disappears
//! from the hot path.
//!
//! Buffers are per *OS thread* (`thread_local!`). The `tqt_rt` worker
//! pool is persistent, so worker arenas are reused across parallel
//! regions exactly like the main thread's. Nested takes are fine; the
//! only rule is the usual RAII one: a guard frees its buffer when
//! dropped, not before — and, inside a parallel block, *within that
//! block*. Under the `sanitize` feature every guard stamps the pool
//! block context it was checked out in and the happens-before sanitizer
//! (`tqt_rt::hb`, `TQT-V022`) flags any guard returned in a different
//! block (escaped into a nested region or outlived its own).
//!
//! One arena exists per element type — [`Scratch`] (`f32`) for the
//! float path, [`ScratchI8`]/[`ScratchI32`]/[`ScratchI64`] for the
//! fixed-point kernels. The free stacks are independent, so integer
//! inference never evicts the float trainer's buffers (or vice versa).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

macro_rules! scratch_arena {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $zero:expr, $free:ident) => {
        thread_local! {
            /// Free stack of retired buffers, most recently dropped on
            /// top.
            static $free: RefCell<Vec<Vec<$ty>>> =
                const { RefCell::new(Vec::new()) };
        }

        $(#[$doc])*
        pub struct $name {
            buf: Vec<$ty>,
            len: usize,
            /// Pool block context at checkout (happens-before sanitizer).
            stamp: tqt_rt::hb::CheckoutStamp,
        }

        impl $name {
            /// Takes a buffer of `len` elements with **unspecified
            /// contents** (whatever a previous user left behind). Use
            /// when the kernel fully overwrites the buffer — the unfold,
            /// the window staging and GEMM packing do.
            pub fn uninit(len: usize) -> $name {
                let mut buf: Vec<$ty> = $free
                    .with(|f| f.borrow_mut().pop())
                    .unwrap_or_default();
                if buf.len() < len {
                    // Grow-only: reserves the high-water mark,
                    // zero-fills just the newly exposed tail (these
                    // types have no invalid bit patterns, but
                    // uninitialized memory is still off the table).
                    buf.resize(len, $zero);
                }
                $name { buf, len, stamp: tqt_rt::hb::stamp() }
            }

            /// Takes a buffer of `len` elements cleared to zero. Use
            /// for accumulation workspaces.
            pub fn zeroed(len: usize) -> $name {
                let mut s = $name::uninit(len);
                s.fill($zero);
                s
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                tqt_rt::hb::check_checkin(self.stamp, stringify!($name));
                let buf = std::mem::take(&mut self.buf);
                // try_with: during thread teardown the TLS slot may
                // already be destroyed; then the buffer just
                // deallocates normally.
                let _ = $free.try_with(|f| f.borrow_mut().push(buf));
            }
        }

        impl Deref for $name {
            type Target = [$ty];
            fn deref(&self) -> &[$ty] {
                &self.buf[..self.len]
            }
        }

        impl DerefMut for $name {
            fn deref_mut(&mut self) -> &mut [$ty] {
                &mut self.buf[..self.len]
            }
        }
    };
}

scratch_arena!(
    /// RAII guard over a borrowed `f32` scratch buffer; derefs to
    /// `[f32]` of the requested length. Used by the float GEMM packing
    /// and the allocating conv wrappers.
    Scratch,
    f32,
    0.0,
    FREE_F32
);

scratch_arena!(
    /// RAII guard over a borrowed `i8` scratch buffer (integer GEMM
    /// packing panels).
    ScratchI8,
    i8,
    0,
    FREE_I8
);

scratch_arena!(
    /// RAII guard over a borrowed `i32` scratch buffer (packed i16-pair
    /// LHS panels, row/column sums).
    ScratchI32,
    i32,
    0,
    FREE_I32
);

scratch_arena!(
    /// RAII guard over a borrowed `i64` scratch buffer (integer im2col
    /// columns for the bit-accurate `IntGraph` engine).
    ScratchI64,
    i64,
    0,
    FREE_I64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_even_after_dirty_reuse() {
        {
            let mut a = Scratch::uninit(128);
            a.fill(7.0);
        }
        let b = Scratch::zeroed(64);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn reuses_capacity_lifo() {
        let p0 = {
            let s = Scratch::uninit(1000);
            s.as_ptr() as usize
        };
        let p1 = {
            let s = Scratch::uninit(500);
            s.as_ptr() as usize
        };
        // Same allocation both times: the 1000-float buffer was reused
        // (500 <= existing length, no realloc).
        assert_eq!(p0, p1);
    }

    #[test]
    fn nested_takes_are_distinct() {
        let mut a = Scratch::uninit(16);
        let mut b = Scratch::uninit(16);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn length_is_exact() {
        {
            let _big = Scratch::uninit(4096);
        }
        let small = Scratch::uninit(3);
        assert_eq!(small.len(), 3);
        assert_eq!(small.iter().count(), 3);
    }

    #[test]
    fn typed_arenas_are_independent() {
        {
            let mut a = ScratchI64::uninit(32);
            a.fill(-5);
        }
        // The i8 arena has never seen that buffer; a zeroed take is
        // zero regardless of what the i64 arena retired.
        let b = ScratchI8::zeroed(32);
        assert!(b.iter().all(|&v| v == 0));
        let c = ScratchI64::zeroed(16);
        assert!(c.iter().all(|&v| v == 0));
        let d = ScratchI32::uninit(8);
        assert_eq!(d.len(), 8);
    }
}
