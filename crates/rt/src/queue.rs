//! The serving admission queue: coalesces single-request submissions
//! into dynamic batches sized to a pre-planned batch ladder.
//!
//! [`BatchQueue`] is the concurrency half of the serving core
//! (`tqt-serve` owns the model half). Clients [`submit`](BatchQueue::submit)
//! one request each and block on [`wait`](BatchQueue::wait); serving
//! workers loop on [`claim_into`](BatchQueue::claim_into), which hands
//! out the first `rung` pending requests as one batch, and publish
//! results with [`complete`](BatchQueue::complete). Which rung — and
//! whether to dispatch at all or hold out for a fuller batch — is decided
//! by [`sched::batch_decision`](crate::sched::batch_decision), the same
//! pure function the bounded model checker
//! ([`sched::batch_check`](crate::sched::batch_check)) exhaustively
//! enumerates: no lost request, no double dispatch, deadline-expired
//! requests always flush, and a shutdown drains every remainder before
//! the workers exit. The decision is work-conserving: a partial batch
//! dispatches immediately whenever no worker is busy (waiting can only
//! grow a batch while somebody is computing), so low offered load
//! degrades to the plain serial loop instead of serializing on the
//! max-wait deadline.
//!
//! The real queue adds the two things the model abstracts: wall-clock
//! max-wait deadlines (a `Condvar::wait_timeout` to the oldest pending
//! request's expiry stands in for the model's timer actor) and response
//! routing back to the submitting client. Lock discipline mirrors
//! [`crate::pool`]: one mutex guards all queue state, condvar waits
//! re-check their predicate, and every decision happens inside the
//! critical section — the serializable points the model steps over.
//!
//! With the `sanitize` feature the queue additionally tracks every
//! claimed request until its response is published and reports protocol
//! violations (double claim, completion of a never-claimed request) to
//! the [`crate::hb`] findings registry, so serving tests drain them the
//! same way parallel-kernel tests do.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::sched::{batch_decision, BatchDecision};

/// One queued request.
struct Pending<T> {
    seq: u64,
    admitted: Instant,
    item: T,
}

struct QState<T, R> {
    pending: VecDeque<Pending<T>>,
    responses: HashMap<u64, R>,
    next_seq: u64,
    draining: bool,
    /// Workers currently executing a claimed batch (drives the
    /// work-conserving dispatch rule).
    busy: usize,
    stats: QueueStats,
    /// Requests claimed but not yet completed (protocol sanitizer).
    #[cfg(feature = "sanitize")]
    in_flight: std::collections::HashSet<u64>,
}

/// Counters describing one queue's lifetime, for the serving report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Batches dispatched.
    pub dispatched_batches: u64,
    /// Requests dispatched (equals `submitted` after a clean drain).
    pub dispatched_requests: u64,
    /// Dispatches per ladder rung, aligned with the ladder.
    pub rung_dispatches: Vec<u64>,
    /// Partial batches flushed because the oldest request's max-wait
    /// deadline expired before the top rung filled.
    pub deadline_flushes: u64,
    /// Partial batches dispatched by the work-conserving rule: every
    /// worker was idle, so waiting could not have improved batching.
    pub idle_dispatches: u64,
    /// Deepest backlog observed at admission.
    pub max_depth: usize,
}

/// A dynamic-batching admission queue over a fixed batch ladder.
///
/// `T` is the request payload a worker consumes, `R` the response routed
/// back to the submitting client. The queue is shared by reference
/// across scoped threads (see [`scoped_threads`]).
pub struct BatchQueue<T, R> {
    ladder: Vec<usize>,
    max_wait: Duration,
    state: Mutex<QState<T, R>>,
    /// Workers park here; woken by submits, expiries, and shutdown.
    admit: Condvar,
    /// Clients park here; woken by completions.
    done: Condvar,
}

impl<T, R> BatchQueue<T, R> {
    /// Creates a queue over `ladder`, flushing partial batches once the
    /// oldest pending request has waited `max_wait`.
    ///
    /// # Panics
    ///
    /// Panics unless `ladder` is sorted strictly ascending and starts at
    /// rung 1 (so any backlog can drain).
    pub fn new(ladder: &[usize], max_wait: Duration) -> Self {
        assert!(
            ladder.first() == Some(&1) && ladder.windows(2).all(|w| w[0] < w[1]),
            "ladder must be sorted ascending starting at rung 1"
        );
        BatchQueue {
            ladder: ladder.to_vec(),
            max_wait,
            state: Mutex::new(QState {
                pending: VecDeque::new(),
                responses: HashMap::new(),
                next_seq: 0,
                draining: false,
                busy: 0,
                stats: QueueStats {
                    rung_dispatches: vec![0; ladder.len()],
                    ..QueueStats::default()
                },
                #[cfg(feature = "sanitize")]
                in_flight: std::collections::HashSet::new(),
            }),
            admit: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// The batch ladder this queue coalesces to.
    pub fn ladder(&self) -> &[usize] {
        &self.ladder
    }

    /// Admits one request, returning its ticket for [`wait`](Self::wait)
    /// — or `None` once the queue is draining.
    pub fn submit(&self, item: T) -> Option<u64> {
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        if st.draining {
            return None;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push_back(Pending {
            seq,
            admitted: Instant::now(),
            item,
        });
        st.stats.submitted += 1;
        st.stats.max_depth = st.stats.max_depth.max(st.pending.len());
        self.admit.notify_all();
        Some(seq)
    }

    /// Blocks until the response for ticket `seq` is published and takes
    /// it. Each ticket redeems exactly once.
    pub fn wait(&self, seq: u64) -> R {
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        loop {
            if let Some(r) = st.responses.remove(&seq) {
                return r;
            }
            st = self.done.wait(st).unwrap(); // tqt:allow(unwrap): condvar wait only fails on poisoning
        }
    }

    /// Admits one request and blocks for its response.
    ///
    /// # Panics
    ///
    /// Panics if the queue is already draining (serving call sites only
    /// submit while the engine scope is alive).
    pub fn call(&self, item: T) -> R {
        match self.submit(item) {
            Some(seq) => self.wait(seq),
            None => panic!("request submitted to a draining queue"),
        }
    }

    /// The worker claim loop: blocks until the admission state calls for
    /// a dispatch, then fills `batch` with the first rung-many pending
    /// requests (FIFO) and returns `true`. Returns `false` once the
    /// queue is draining and empty — the worker exits.
    ///
    /// Every decision is [`batch_decision`] over the live queue state,
    /// evaluated under the mutex; `Wait` parks on the admission condvar
    /// with a timeout at the oldest pending request's deadline.
    pub fn claim_into(&self, batch: &mut Vec<(u64, T)>) -> bool {
        batch.clear();
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        loop {
            let now = Instant::now();
            let oldest_due = st
                .pending
                .front()
                .is_some_and(|p| now.duration_since(p.admitted) >= self.max_wait);
            let any_busy = st.busy > 0;
            match batch_decision(&self.ladder, st.pending.len(), oldest_due, any_busy, st.draining)
            {
                BatchDecision::Dispatch(rung) => {
                    let top_full = self
                        .ladder
                        .last()
                        .is_some_and(|&top| st.pending.len() >= top);
                    st.stats.dispatched_batches += 1;
                    st.stats.dispatched_requests += rung as u64;
                    if let Some(i) = self.ladder.iter().position(|&r| r == rung) {
                        st.stats.rung_dispatches[i] += 1;
                    }
                    if !top_full && !st.draining {
                        if oldest_due {
                            st.stats.deadline_flushes += 1;
                        } else {
                            st.stats.idle_dispatches += 1;
                        }
                    }
                    st.busy += 1;
                    for _ in 0..rung {
                        if let Some(p) = st.pending.pop_front() {
                            #[cfg(feature = "sanitize")]
                            if !st.in_flight.insert(p.seq) {
                                crate::hb::report(
                                    "queue::claim_into",
                                    &format!("request {} claimed twice", p.seq),
                                );
                            }
                            batch.push((p.seq, p.item));
                        }
                    }
                    return true;
                }
                BatchDecision::Exit => return false,
                BatchDecision::Wait => {
                    // Sleep until a submit/shutdown notification or the
                    // oldest pending request's deadline, whichever is
                    // first; the loop re-checks the predicate either way.
                    let deadline = st
                        .pending
                        .front()
                        .map(|p| self.max_wait.saturating_sub(now.duration_since(p.admitted)));
                    st = match deadline {
                        Some(timeout) => {
                            self.admit.wait_timeout(st, timeout).unwrap().0 // tqt:allow(unwrap): condvar wait only fails on poisoning
                        }
                        None => self.admit.wait(st).unwrap(), // tqt:allow(unwrap): condvar wait only fails on poisoning
                    };
                }
            }
        }
    }

    /// Publishes responses for a claimed batch and wakes waiting
    /// clients.
    pub fn complete(&self, results: impl IntoIterator<Item = (u64, R)>) {
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        st.busy = st.busy.saturating_sub(1);
        // The freed worker may now be the dispatch the backlog is waiting
        // for (work-conserving rule) — wake the claim loop too.
        self.admit.notify_all();
        for (seq, r) in results {
            #[cfg(feature = "sanitize")]
            if !st.in_flight.remove(&seq) {
                crate::hb::report(
                    "queue::complete",
                    &format!("completion for request {seq} that was never claimed"),
                );
            }
            st.responses.insert(seq, r);
        }
        self.done.notify_all();
    }

    /// Starts the drain: admissions are rejected from here on, and the
    /// workers dispatch every remaining request before
    /// [`claim_into`](Self::claim_into) returns `false`.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap(); // tqt:allow(unwrap): a poisoned lock means a worker already panicked
        st.draining = true;
        self.admit.notify_all();
    }

    /// A snapshot of the queue's lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.state.lock().unwrap().stats.clone() // tqt:allow(unwrap): a poisoned lock means a worker already panicked
    }
}

/// Runs `n` scoped threads over `worker(0..n)` while `body` runs on the
/// calling thread, then joins and returns the worker results in index
/// order alongside the body's result. The serving crate and the bench
/// load generator build on this so every thread spawn in the workspace
/// stays inside `tqt-rt`.
///
/// # Panics
///
/// Re-raises the first worker panic after all threads joined.
pub fn scoped_threads<W, R, B, O>(n: usize, worker: W, body: B) -> (Vec<R>, O)
where
    W: Fn(usize) -> R + Sync,
    R: Send,
    B: FnOnce() -> O,
{
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..n).map(|i| s.spawn(move || worker(i))).collect();
        let out = body();
        let results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect();
        (results, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server: workers double each payload. Exercises the full
    /// claim/complete/drain cycle under real threads.
    fn run_echo(clients: usize, per_client: usize, workers: usize, max_wait: Duration) -> QueueStats {
        let q: BatchQueue<u64, u64> = BatchQueue::new(&[1, 2, 4], max_wait);
        let qr = &q;
        let (_, ()) = scoped_threads(
            workers,
            |_| {
                let mut batch = Vec::new();
                while qr.claim_into(&mut batch) {
                    let replies: Vec<(u64, u64)> =
                        batch.iter().map(|&(seq, x)| (seq, x * 2)).collect();
                    qr.complete(replies);
                }
            },
            || {
                let (_, ()) = scoped_threads(
                    clients,
                    |c| {
                        for k in 0..per_client {
                            let x = (c * per_client + k) as u64;
                            assert_eq!(qr.call(x), x * 2, "response routed to wrong client");
                        }
                    },
                    || {},
                );
                qr.shutdown();
            },
        );
        q.stats()
    }

    #[test]
    fn batched_echo_round_trip() {
        let stats = run_echo(4, 8, 2, Duration::from_millis(2));
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.dispatched_requests, 32, "clean drain loses nothing");
        assert!(stats.dispatched_batches <= 32);
        assert_eq!(
            stats.rung_dispatches.iter().sum::<u64>(),
            stats.dispatched_batches
        );
    }

    #[test]
    fn serial_echo_works_with_one_worker() {
        let stats = run_echo(1, 5, 1, Duration::from_millis(1));
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.dispatched_requests, 5);
    }

    #[test]
    fn idle_worker_dispatches_a_lone_request_immediately() {
        // Work-conserving rule: with every worker idle, a lone request
        // must not serialize on the max-wait deadline. The hour-long
        // max-wait makes this test hang if the idle dispatch is broken.
        let q: BatchQueue<u64, u64> = BatchQueue::new(&[1, 2, 4], Duration::from_secs(3600));
        let qr = &q;
        let (_, ()) = scoped_threads(
            1,
            |_| {
                let mut batch = Vec::new();
                while qr.claim_into(&mut batch) {
                    let replies: Vec<(u64, u64)> = batch.iter().map(|&(s, x)| (s, x)).collect();
                    qr.complete(replies);
                }
            },
            || {
                assert_eq!(qr.call(7), 7);
                qr.shutdown();
            },
        );
        let stats = q.stats();
        assert_eq!(stats.idle_dispatches, 1, "the lone request must dispatch via the idle rule");
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.rung_dispatches, vec![1, 0, 0]);
    }

    #[test]
    fn deadline_flushes_a_partial_batch_behind_a_busy_worker() {
        // The claiming side is driven from this thread so the "busy
        // worker" window is deterministic: claim a first batch and hold
        // it un-completed, submit two more requests, and the next claim
        // must hold out (a worker is busy, the top rung of 4 is not
        // full) until the max-wait expiry flushes the pair.
        let q: BatchQueue<u64, u64> = BatchQueue::new(&[1, 2, 4], Duration::from_millis(1));
        let first = q.submit(10).unwrap(); // tqt:allow(unwrap): queue is not draining
        let mut held = Vec::new();
        assert!(q.claim_into(&mut held), "idle rule dispatches the first request");
        let second = q.submit(11).unwrap(); // tqt:allow(unwrap): queue is not draining
        let third = q.submit(12).unwrap(); // tqt:allow(unwrap): queue is not draining
        let mut batch = Vec::new();
        assert!(q.claim_into(&mut batch), "deadline expiry flushes the partial pair");
        assert_eq!(batch.len(), 2, "pick_rung(2) under a ladder of [1,2,4]");
        q.complete(held.drain(..));
        q.complete(batch.drain(..));
        for seq in [first, second, third] {
            q.wait(seq);
        }
        let stats = q.stats();
        assert_eq!(stats.deadline_flushes, 1, "the pair must flush by deadline");
        assert_eq!(stats.idle_dispatches, 1);
        assert_eq!(stats.rung_dispatches, vec![1, 1, 0]);
    }

    #[test]
    fn draining_queue_rejects_new_admissions() {
        let q: BatchQueue<u64, u64> = BatchQueue::new(&[1], Duration::from_millis(1));
        assert!(q.submit(1).is_some());
        q.shutdown();
        assert!(q.submit(2).is_none(), "draining queue must reject admissions");
        // The drain still hands out the pre-shutdown request.
        let mut batch = Vec::new();
        assert!(q.claim_into(&mut batch));
        assert_eq!(batch.len(), 1);
        q.complete(batch.drain(..));
        assert!(!q.claim_into(&mut batch), "drained queue tells workers to exit");
    }

    #[test]
    fn ladder_must_start_at_one() {
        let r = std::panic::catch_unwind(|| BatchQueue::<u64, u64>::new(&[2, 4], Duration::ZERO));
        assert!(r.is_err());
    }
}
