//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and an end, the span that caused it and the
//! request it serves. Spans stay in memory until the run ends; a layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use tqt_rt::json::Json;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fexec.forward`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request, batch or step this span serves.
    pub req: Option<u64>,
    /// The recording thread (0 is the main thread).
    pub thread: usize,
}

/// A per-thread span recorder. When off, [`span`](Tracer::span) only
/// calls through, so the untraced phase records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for the main thread.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self, thread: usize) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot switch tracing inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Appends another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON rows `[name, start_ns, end_ns, parent, req,
    /// thread]`, with `-1` for a missing parent or request.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| Json::Num(v.map_or(-1.0, |v| v as f64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::from(s.name),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                        opt(s.parent.map(|p| p as u64)),
                        opt(s.req),
                        Json::from(s.thread),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// For each span named `root`, the self time of its subtree summed by
/// span name (the root included), in recording order.
pub fn self_by_root(spans: &[Span], root: &str) -> Vec<BTreeMap<&'static str, u64>> {
    let selfs = self_times(spans);
    let mut group: Vec<Option<usize>> = vec![None; spans.len()];
    let mut out: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    // Parents precede their children, so one forward pass resolves roots.
    for (i, s) in spans.iter().enumerate() {
        group[i] = if s.name == root {
            out.push(BTreeMap::new());
            Some(out.len() - 1)
        } else {
            s.parent.and_then(|p| group[p])
        };
        if let Some(gi) = group[i] {
            *out[gi].entry(s.name).or_insert(0) += selfs[i];
        }
    }
    out
}

/// Span count and total self time per span name.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("gemm", 15, 35, Some(1)),
            span("backward", 50, 90, Some(0)),
            span("gemm", 55, 60, Some(3)),
            span("gemm", 70, 80, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 25, 5, 10]);
        let totals = self_totals(&spans);
        assert_eq!(totals["gemm"], (3, 35));
        assert_eq!(totals["step"], (1, 30));
        // Self times partition the root's interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn subtree_sums_group_by_root() {
        let spans = vec![
            span("step", 0, 10, None),
            span("fwd", 1, 4, Some(0)),
            span("step", 10, 30, None),
            span("fwd", 11, 15, Some(2)),
            span("bwd", 15, 25, Some(2)),
            span("other", 40, 50, None),
        ];
        let groups = self_by_root(&spans, "step");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0]["fwd"], 3);
        assert_eq!(groups[0]["step"], 7);
        assert_eq!(groups[1]["bwd"], 10);
        assert!(!groups[1].contains_key("other"));
    }

    #[test]
    fn absorbed_threads_keep_their_parent_links() {
        let mut main = Tracer::new(true);
        main.span("setup", None, |_| {});
        let mut worker = main.fork(1);
        worker.span("request", Some(7), |t| t.span("infer", Some(7), |_| {}));
        main.absorb(worker);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[1].thread, s[1].req), (1, Some(7)));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", None, |t| t.span("y", None, |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
