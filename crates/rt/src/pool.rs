//! Fork-join parallelism on a **persistent pool of parked workers**.
//!
//! This replaces `rayon` in the matmul/conv hot paths. Earlier revisions
//! spawned fresh OS threads per parallel region via [`std::thread::scope`];
//! at training-loop frequencies (thousands of regions per second) the
//! spawn/join cost dominated small kernels. The pool here is created
//! lazily on the first parallel region and lives for the rest of the
//! process: workers park on a `Condvar` and wake only when a region is
//! submitted.
//!
//! Execution model: a *region* is a fixed number of independent *blocks*.
//! The submitting thread pushes the region onto a shared queue, wakes the
//! workers, and then participates itself; every participant claims block
//! indices from an atomic counter until the region is exhausted, then the
//! submitter waits for the last in-flight block to finish. Because blocks
//! are claimed dynamically the pool load-balances across regions of any
//! shape, and because the submitter always participates, nested regions
//! (a parallel kernel called from inside a worker) cannot deadlock: the
//! inner submitter drains its own region even when every other worker is
//! busy.
//!
//! **Bit-identity guarantee:** every `par_*` entry point assigns each
//! output chunk to exactly one closure invocation and performs no
//! cross-chunk reduction, so *which* thread runs a chunk cannot affect the
//! result: parallel and serial execution are bit-identical. One thread
//! (`set_threads(1)` or `TQT_RT_THREADS=1`) runs everything on the
//! calling thread for deterministic debugging;
//! `crates/tensor/tests/parallel_parity.rs` verifies the guarantee.
//!
//! A panic inside a region closure is caught on the worker, forwarded to
//! the submitting thread, and re-thrown there after every other block of
//! the region has completed (the closure may borrow the submitter's
//! stack). Workers survive panics — the pool never wedges
//! (`crates/rt/tests/pool_stress.rs`).
//!
//! Thread count: [`set_threads`] at runtime (useful for exercising the
//! parallel paths on single-core CI machines), else `TQT_RT_THREADS` in
//! the environment, else [`std::thread::available_parallelism`]. The
//! last two are read once per process.

use crate::hb;
use crate::sched;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Runtime thread-count override; 0 means "auto" (env, then hardware).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the number of threads parallel regions may use (`0` restores
/// the automatic choice). Takes effect on the next region; the pool grows
/// lazily but never shrinks, so raising and lowering the count is cheap.
/// Tests use this to exercise real multi-thread schedules on single-core
/// machines.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of threads a parallel region may use (including the caller).
/// Without a [`set_threads`] override this is the automatic count,
/// resolved once per process: `TQT_RT_THREADS` if set to a positive
/// number, else the hardware parallelism.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("TQT_RT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// How many blocks a region is split into per participating thread.
/// Oversplitting (>1) lets dynamic claiming smooth out per-block cost
/// variance without shrinking blocks below a useful grain.
const BLOCKS_PER_THREAD: usize = 4;

/// A type-erased block closure. The raw pointer outlives every
/// dereference because [`run_region`] does not return until all claimed
/// blocks have completed.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared &-calls from any thread are fine)
// and `run_region` joins the region before the borrow ends.
unsafe impl Send for JobPtr {}
unsafe impl Sync for JobPtr {}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Completion state of a region, guarded by its mutex.
struct RegionDone {
    done: usize,
    panic: Option<PanicPayload>,
}

/// One parallel region: `nblocks` independent block indices to hand to
/// `job`, plus claim/completion bookkeeping.
struct Region {
    job: JobPtr,
    nblocks: usize,
    next: AtomicUsize,
    state: Mutex<RegionDone>,
    finished: Condvar,
}

impl Region {
    /// Runs one claimed block, recording a panic instead of unwinding
    /// through the pool, and signals the submitter on the last block.
    fn run_block(&self, idx: usize) {
        // SAFETY: `run_region` keeps the closure alive until `done ==
        // nblocks`, and this block counts toward `done` only after the
        // call returns or panics.
        let job = unsafe { &*self.job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| job(idx)));
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        if let Err(p) = result {
            st.panic.get_or_insert(p);
        }
        st.done += 1;
        if sched::is_last_completion(st.done, self.nblocks) {
            self.finished.notify_all();
        }
    }

    /// Claims and runs blocks until the region is exhausted. The claim
    /// decision is [`sched::try_claim`] — the function the bounded model
    /// checker proves exactly-once/deadlock-free.
    fn participate(&self) {
        while let Some(idx) = sched::try_claim(&self.next, self.nblocks) {
            self.run_block(idx);
        }
    }
}

/// Shared pool state: a FIFO of open regions and the condvar parked
/// workers wait on.
struct Shared {
    queue: Mutex<VecDeque<Arc<Region>>>,
    work: Condvar,
    /// Number of worker threads spawned so far (grow-only).
    spawned: Mutex<usize>,
}

fn pool() -> &'static Arc<Shared> {
    static POOL: OnceLock<Arc<Shared>> = OnceLock::new();
    POOL.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            spawned: Mutex::new(0),
        })
    })
}

/// Ensures at least `target` parked workers exist (in addition to
/// whatever thread submits regions).
fn ensure_workers(shared: &Arc<Shared>, target: usize) {
    let mut spawned = shared.spawned.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
    while *spawned < target {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("tqt-rt-worker-{spawned}"))
            .spawn(move || worker_loop(&shared))
            .expect("failed to spawn pool worker"); // tqt:allow(expect): thread spawn failure is unrecoverable at startup
        *spawned += 1;
    }
}

/// Worker main loop: park until a region is queued, then help drain it.
/// Exhausted regions (all blocks claimed) are popped; completion is
/// tracked by the region itself, so popping does not wait for in-flight
/// blocks.
fn worker_loop(shared: &Shared) {
    loop {
        let region = {
            let mut q = shared.queue.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
            loop {
                if let Some(front) = q.front() {
                    if !sched::region_exhausted(&front.next, front.nblocks) {
                        break Arc::clone(front);
                    }
                    q.pop_front();
                    continue;
                }
                q = shared.work.wait(q).unwrap(); // tqt:allow(unwrap): condvar wait only fails on poisoning
            }
        };
        region.participate();
    }
}

/// Number of worker threads the pool has spawned so far in this process
/// (excluding submitting threads). Grow-only; used by the
/// `serial_no_spawn` regression test to prove that serial-mode `par_*`
/// calls never touch the pool.
pub fn spawned_workers() -> usize {
    *pool().spawned.lock().unwrap() // tqt:allow(unwrap): a poisoned lock means a worker already panicked
}

/// Executes `job(0..nblocks)` across the pool, submitting thread
/// included, and returns when every block has completed. Re-throws the
/// first panic raised by a block.
///
/// With one effective thread (`set_threads(1)`, `TQT_RT_THREADS=1`, or
/// a single-core machine) this is a plain loop on the calling thread: no
/// worker is spawned, no lock taken, no condvar signalled.
fn run_region(nblocks: usize, job: &(dyn Fn(usize) + Sync)) {
    if nblocks == 0 {
        return;
    }
    let helpers = threads().saturating_sub(1);
    if helpers == 0 || nblocks == 1 {
        for i in 0..nblocks {
            let _scope = hb::block_scope();
            job(i);
        }
        return;
    }
    let shared = pool();
    ensure_workers(shared, helpers);
    /// Erases the borrow lifetime of a region closure so it can cross
    /// into the pool's `'static` worker threads.
    fn erase<'a>(
        job: &'a (dyn Fn(usize) + Sync + 'a),
    ) -> *const (dyn Fn(usize) + Sync + 'static) {
        // SAFETY: fat-pointer layout is lifetime-independent. The pointer
        // is only dereferenced by blocks counted in `done`, and
        // `run_region` does not return until `done == nblocks`, so the
        // borrow outlives every dereference.
        unsafe { std::mem::transmute(job) }
    }
    // Every block body runs inside a happens-before block scope so the
    // sanitizer can pin scratch checkouts to the block that made them.
    let wrapped = |i: usize| {
        let _scope = hb::block_scope();
        job(i);
    };
    let region = Arc::new(Region {
        job: JobPtr(erase(&wrapped)),
        nblocks,
        next: AtomicUsize::new(0),
        state: Mutex::new(RegionDone {
            done: 0,
            panic: None,
        }),
        finished: Condvar::new(),
    });
    shared.queue.lock().unwrap().push_back(Arc::clone(&region)); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
    shared.work.notify_all();
    region.participate();
    let mut st = region.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
    while st.done < nblocks {
        st = region.finished.wait(st).unwrap(); // tqt:allow(unwrap): condvar wait only fails on poisoning
    }
    if let Some(p) = st.panic.take() {
        drop(st);
        resume_unwind(p);
    }
}

/// A `Send`/`Sync` raw-pointer wrapper for handing a buffer base address
/// to region closures that carve disjoint sub-slices out of it.
struct SendPtr<T>(*mut T);
// Manual Copy/Clone: the derived impls would demand `T: Copy`, but the
// wrapper copies only the pointer.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor used inside region closures: going through a method makes
    /// the closure capture the `Sync` wrapper rather than (via precise
    /// field capture) the raw pointer itself.
    fn get(self) -> *mut T {
        self.0
    }
}
// SAFETY: every user derives disjoint slices per block index, and the
// region joins before the underlying borrow ends.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Calls `f(chunk_index, chunk)` for every `chunk_size`-sized chunk of
/// `data` (last chunk may be shorter), fanning the chunks out across the
/// worker pool. Equivalent to
/// `data.par_chunks_mut(chunk_size).enumerate().for_each(...)`.
///
/// # Panics
///
/// Panics if `chunk_size == 0`, or re-throws the first panic raised by
/// `f` (after all other chunks have completed).
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let len = data.len();
    let nchunks = len.div_ceil(chunk_size);
    let workers = threads();
    if workers <= 1 || nchunks < 2 {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Contiguous runs of chunks per block, oversplit for load balance.
    let per = nchunks.div_ceil(workers * BLOCKS_PER_THREAD).max(1);
    let nblocks = nchunks.div_ceil(per);
    let base = SendPtr(data.as_mut_ptr());
    let ranges = hb::RangeLog::new();
    run_region(nblocks, &|b| {
        let first = b * per;
        let last = (first + per).min(nchunks);
        for ci in first..last {
            let start = ci * chunk_size;
            let end = (start + chunk_size).min(len);
            ranges.record(start, end);
            // SAFETY: chunk `ci` covers `[start, end)`; chunk indices are
            // partitioned over blocks, each run by exactly one closure
            // invocation, so the sub-slices are disjoint. The region
            // joins before `data`'s borrow ends.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(ci, chunk);
        }
    });
    // The region has joined: the carved ranges must tile [0, len).
    ranges.check("par_chunks_mut", len);
}

/// Lockstep dual-buffer variant of [`par_chunks_mut`]: carves chunk `i`
/// of `a` (size `ca`) and chunk `i` of `b` (size `cb`) and hands both to
/// `f(i, a_chunk, b_chunk)`. The two buffers must tile into the same
/// number of chunks. Used by kernels that pair each output chunk with a
/// private scratch chunk (e.g. per-image conv output + staged image)
/// so the scratch is plan-owned rather than checked out per call.
///
/// # Panics
///
/// Panics if either chunk size is zero or the chunk counts differ, or
/// re-throws the first panic raised by `f`.
pub fn par_chunks_mut2<A, B, F>(a: &mut [A], ca: usize, b: &mut [B], cb: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(ca > 0 && cb > 0, "chunk sizes must be positive");
    let (la, lb) = (a.len(), b.len());
    let nchunks = la.div_ceil(ca);
    assert_eq!(
        nchunks,
        lb.div_ceil(cb),
        "par_chunks_mut2: buffers disagree on chunk count"
    );
    let workers = threads();
    if workers <= 1 || nchunks < 2 {
        for (i, (cha, chb)) in a.chunks_mut(ca).zip(b.chunks_mut(cb)).enumerate() {
            f(i, cha, chb);
        }
        return;
    }
    let per = nchunks.div_ceil(workers * BLOCKS_PER_THREAD).max(1);
    let nblocks = nchunks.div_ceil(per);
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    let ranges_a = hb::RangeLog::new();
    let ranges_b = hb::RangeLog::new();
    run_region(nblocks, &|blk| {
        let first = blk * per;
        let last = (first + per).min(nchunks);
        for ci in first..last {
            let (sa, ea) = (ci * ca, ((ci + 1) * ca).min(la));
            let (sb, eb) = (ci * cb, ((ci + 1) * cb).min(lb));
            ranges_a.record(sa, ea);
            ranges_b.record(sb, eb);
            // SAFETY: chunk indices are partitioned over blocks, each run
            // by exactly one closure invocation, so the sub-slices of each
            // buffer are disjoint. The region joins before either borrow
            // ends.
            let cha = unsafe { std::slice::from_raw_parts_mut(base_a.get().add(sa), ea - sa) };
            let chb = unsafe { std::slice::from_raw_parts_mut(base_b.get().add(sb), eb - sb) };
            f(ci, cha, chb);
        }
    });
    ranges_a.check("par_chunks_mut2/a", la);
    ranges_b.check("par_chunks_mut2/b", lb);
}

/// Lockstep four-buffer variant of [`par_chunks_mut`]: all four buffers
/// share one length and one chunk size; `f(i, a_i, b_i, c_i, d_i)` gets
/// the `i`-th chunk of each. Built for the pooled optimizer update, where
/// parameter values, gradients and both moment vectors advance together
/// over a contiguous arena in fixed thread-count-independent blocks.
///
/// # Panics
///
/// Panics if `chunk_size == 0` or the lengths differ, or re-throws the
/// first panic raised by `f`.
pub fn par_chunks_mut4<T, F>(
    a: &mut [T],
    b: &mut [T],
    c: &mut [T],
    d: &mut [T],
    chunk_size: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T], &mut [T], &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let len = a.len();
    assert!(
        b.len() == len && c.len() == len && d.len() == len,
        "par_chunks_mut4: buffers disagree on length"
    );
    let nchunks = len.div_ceil(chunk_size);
    let workers = threads();
    if workers <= 1 || nchunks < 2 {
        for i in 0..nchunks {
            let (s, e) = (i * chunk_size, ((i + 1) * chunk_size).min(len));
            f(i, &mut a[s..e], &mut b[s..e], &mut c[s..e], &mut d[s..e]);
        }
        return;
    }
    let per = nchunks.div_ceil(workers * BLOCKS_PER_THREAD).max(1);
    let nblocks = nchunks.div_ceil(per);
    let bases = [
        SendPtr(a.as_mut_ptr()),
        SendPtr(b.as_mut_ptr()),
        SendPtr(c.as_mut_ptr()),
        SendPtr(d.as_mut_ptr()),
    ];
    let ranges = hb::RangeLog::new();
    run_region(nblocks, &|blk| {
        let first = blk * per;
        let last = (first + per).min(nchunks);
        for ci in first..last {
            let (s, e) = (ci * chunk_size, ((ci + 1) * chunk_size).min(len));
            ranges.record(s, e);
            // SAFETY: chunk indices are partitioned over blocks, each run
            // by exactly one closure invocation, so the per-buffer
            // sub-slices are disjoint; the four buffers are distinct
            // borrows. The region joins before any borrow ends.
            let [cha, chb, chc, chd] = bases.map(|p| unsafe {
                std::slice::from_raw_parts_mut(p.get().add(s), e - s)
            });
            f(ci, cha, chb, chc, chd);
        }
    });
    ranges.check("par_chunks_mut4", len);
}

/// Computes `(0..n).map(f).collect()` with the index range fanned out
/// across the worker pool. Equivalent to
/// `(0..n).into_par_iter().map(f).collect()`.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads();
    if workers <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let per = n.div_ceil(workers * BLOCKS_PER_THREAD).max(1);
    let nblocks = n.div_ceil(per);
    // Each block collects its contiguous index range into its own Vec;
    // the parts are stitched in order afterwards. (No per-item
    // `Option<R>` round-trip: the only post-processing is `append`.)
    let mut parts: Vec<Vec<R>> = (0..nblocks).map(|_| Vec::new()).collect();
    {
        let base = SendPtr(parts.as_mut_ptr());
        let f = &f;
        let ranges = hb::RangeLog::new();
        run_region(nblocks, &|b| {
            let lo = b * per;
            let hi = (lo + per).min(n);
            ranges.record(lo, hi);
            let out: Vec<R> = (lo..hi).map(f).collect();
            // SAFETY: slot `b` is written by exactly one block; the old
            // value is a valid (empty) Vec, so plain assignment drops it
            // correctly. The region joins before `parts` is read.
            unsafe { *base.get().add(b) = out };
        });
        // The region has joined: index ranges must tile [0, n).
        ranges.check("par_map", n);
    }
    let mut out = Vec::with_capacity(n);
    for part in &mut parts {
        out.append(part);
    }
    out
}

/// Deterministic block-structured reduction: splits `0..len` into
/// consecutive `block`-sized index ranges (the last may be shorter),
/// computes `f(block_index, range)` for each — fanned out across the
/// worker pool — and returns the partials **in block order**.
///
/// The caller picks a *fixed* block size (never derived from the thread
/// count), so the partition — and therefore any order-sensitive
/// reduction built on the partials, e.g. a floating-point sum folded
/// serially over the returned Vec — is identical no matter how many
/// threads participate. This is the "deterministic tree reduction"
/// primitive behind the parallel quantizer gradients.
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn par_fold_blocks<R, F>(len: usize, block: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    assert!(block > 0, "block size must be positive");
    let nblocks = len.div_ceil(block);
    par_map(nblocks, |b| {
        let lo = b * block;
        let hi = (lo + block).min(len);
        f(b, lo..hi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&mut data, 17, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 17 + j) as u32 + 1;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k as u32 + 1);
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let par: Vec<usize> = par_map(997, |i| i * i);
        let ser: Vec<usize> = (0..997).map(|i| i * i).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn serial_override_gives_identical_results() {
        let run = || {
            let mut data = vec![0.0f32; 4096];
            par_chunks_mut(&mut data, 64, |i, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = ((i * 64 + j) as f32).sin();
                }
            });
            data
        };
        let parallel = run();
        let prev = threads();
        set_threads(1);
        let serial = run();
        set_threads(prev);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn empty_input_is_fine() {
        let mut data: Vec<u8> = vec![];
        par_chunks_mut(&mut data, 4, |_, _| panic!("no chunks expected"));
        let out: Vec<u8> = par_map(0, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn single_oversized_chunk() {
        let mut data = vec![1u8; 5];
        par_chunks_mut(&mut data, 100, |i, chunk| {
            assert_eq!(i, 0);
            assert_eq!(chunk.len(), 5);
            chunk.fill(2);
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_panics() {
        par_chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn fold_blocks_partition_is_thread_count_independent() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let sum = |parts: Vec<f64>| parts.iter().fold(0.0, |a, &b| a + b);
        let run = || {
            sum(par_fold_blocks(data.len(), 1024, |_, r| {
                data[r].iter().fold(0.0, |a, &b| a + b)
            }))
        };
        let parallel = run();
        let prev = threads();
        set_threads(1);
        let serial = run();
        set_threads(prev);
        // Bit-identical, not merely close: same partition, same order.
        assert_eq!(parallel.to_bits(), serial.to_bits());
    }

    #[test]
    fn fold_blocks_covers_ragged_tail() {
        let parts = par_fold_blocks(10, 4, |b, r| (b, r.len()));
        assert_eq!(parts, vec![(0, 4), (1, 4), (2, 2)]);
        assert!(par_fold_blocks(0, 4, |_, _| 0u8).is_empty());
    }

    #[test]
    fn chunks2_lockstep_pairs_match() {
        // a chunks of 8 pair with b chunks of 3; every element records
        // which chunk wrote it.
        let mut a = vec![0u32; 64];
        let mut b = vec![0u32; 24];
        par_chunks_mut2(&mut a, 8, &mut b, 3, |i, ca, cb| {
            ca.fill(i as u32 + 1);
            cb.fill(i as u32 + 1);
        });
        for (k, &v) in a.iter().enumerate() {
            assert_eq!(v, (k / 8) as u32 + 1);
        }
        for (k, &v) in b.iter().enumerate() {
            assert_eq!(v, (k / 3) as u32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on chunk count")]
    fn chunks2_rejects_mismatched_chunk_counts() {
        let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 10]);
        par_chunks_mut2(&mut a, 2, &mut b, 5, |_, _, _| {});
    }

    #[test]
    fn chunks4_covers_all_four_buffers() {
        let mut bufs: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32; 1003]).collect();
        let [a, b, c, d] = &mut bufs[..] else {
            unreachable!()
        };
        par_chunks_mut4(a, b, c, d, 17, |i, ca, cb, cc, cd| {
            for (j, (((va, vb), vc), vd)) in ca
                .iter_mut()
                .zip(cb.iter_mut())
                .zip(cc.iter_mut())
                .zip(cd.iter_mut())
                .enumerate()
            {
                let base = (i * 17 + j) as u32;
                *va = base + 1;
                *vb = base + 2;
                *vc = base + 3;
                *vd = base + 4;
            }
        });
        for (bi, buf) in bufs.iter().enumerate() {
            for (k, &v) in buf.iter().enumerate() {
                assert_eq!(v, k as u32 + bi as u32 + 1);
            }
        }
    }

    #[test]
    fn par_map_with_non_default_type() {
        // R without Default/Clone: ensure no construction tricks needed.
        struct Opaque(#[allow(dead_code)] String);
        let out = par_map(37, |i| Opaque(format!("v{i}")));
        assert_eq!(out.len(), 37);
    }
}
