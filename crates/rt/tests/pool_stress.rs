//! Stress tests for the persistent worker pool: real multi-thread
//! schedules (forced via `pool::set_threads`, independent of the host's
//! core count), nested and repeated regions, and panic propagation that
//! must not wedge the pool.
//!
//! Everything runs from a single `#[test]` because the thread-count
//! override is process-global state shared with any sibling test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use tqt_rt::pool;

fn check_chunks(n: usize, chunk: usize) {
    let mut data = vec![0u64; n];
    pool::par_chunks_mut(&mut data, chunk, |i, c| {
        for (j, v) in c.iter_mut().enumerate() {
            *v = (i * chunk + j) as u64 * 3 + 1;
        }
    });
    for (k, &v) in data.iter().enumerate() {
        assert_eq!(v, k as u64 * 3 + 1, "slot {k} wrong");
    }
}

#[test]
fn pool_survives_nesting_repetition_and_panics() {
    pool::set_threads(4);

    // 1. Repeated regions: many small regions in a row reuse the parked
    //    workers (this is the per-training-step pattern).
    for round in 0..200 {
        check_chunks(97 + round % 13, 5);
    }

    // 2. par_map returns values in index order regardless of which worker
    //    computed them, including non-Clone result types.
    let squares = pool::par_map(1001, |i| i * i);
    assert_eq!(squares, (0..1001).map(|i| i * i).collect::<Vec<_>>());
    let strings = pool::par_map(257, |i| format!("s{i}"));
    assert!(strings.iter().enumerate().all(|(i, s)| s == &format!("s{i}")));

    // 3. Nested regions: an outer par_map whose blocks each run an inner
    //    par_chunks_mut. The inner submitter participates in its own
    //    region, so this cannot deadlock even with every worker busy.
    let touched = AtomicUsize::new(0);
    let sums = pool::par_map(16, |outer| {
        let mut inner = vec![0u32; 64];
        pool::par_chunks_mut(&mut inner, 4, |i, c| {
            touched.fetch_add(1, Ordering::Relaxed);
            for (j, v) in c.iter_mut().enumerate() {
                *v = (outer * 64 + i * 4 + j) as u32;
            }
        });
        inner.iter().map(|&v| v as u64).sum::<u64>()
    });
    let expect: Vec<u64> = (0..16u64)
        .map(|o| (o * 64..(o + 1) * 64).sum::<u64>())
        .collect();
    assert_eq!(sums, expect);
    assert_eq!(touched.load(Ordering::Relaxed), 16 * 16);

    // 4. A panic in one chunk propagates to the submitter...
    let ran = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0u8; 100];
        pool::par_chunks_mut(&mut data, 10, |i, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                panic!("boom in chunk {i}");
            }
        });
    }));
    let payload = result.expect_err("worker panic must reach the submitter");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("boom in chunk 3"), "unexpected payload: {msg}");
    assert!(ran.load(Ordering::Relaxed) >= 1);

    // ...and the pool is not wedged afterwards: both fresh regions and
    // another panicking region still behave.
    check_chunks(4096, 64);
    let again = catch_unwind(AssertUnwindSafe(|| {
        pool::par_map(50, |i| {
            if i == 49 {
                panic!("second boom");
            }
            i
        })
    }));
    assert!(again.is_err(), "second panic must also propagate");
    check_chunks(333, 7);

    // 5. Thread-count changes mid-process grow the pool lazily and leave
    //    results untouched.
    pool::set_threads(7);
    check_chunks(10_000, 13);
    let wide = pool::par_map(4097, |i| i as u64 + 7);
    assert_eq!(wide[4096], 4096 + 7);

    // 6. One thread still collapses everything onto this thread and
    //    produces identical bytes.
    let run = || {
        let mut data = vec![0.0f32; 2048];
        pool::par_chunks_mut(&mut data, 32, |i, c| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = ((i * 32 + j) as f32).cos();
            }
        });
        data
    };
    let parallel = run();
    let prev = pool::threads();
    pool::set_threads(1);
    let serial = run();
    pool::set_threads(prev);
    assert_eq!(parallel, serial, "serial/parallel bit-identity violated");

    pool::set_threads(0); // restore auto for any sibling test
}
