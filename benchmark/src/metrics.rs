//! The benchmark's declared workloads and metrics, and the result record
//! that refuses to emit anything else.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; `tests/contract.rs` keeps the two in step.

use std::collections::BTreeMap;

use tqt_rt::json::Json;

/// The workloads, in their default run order.
pub const WORKLOADS: [&str; 4] = [
    "resnet20_b1",
    "resnet20_b8",
    "mobilenet_v1_serve",
    "resnet8_qat",
];

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("latency_p50_ms", "ms"),
    m("throughput_per_s", "items/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A workload that does
/// not exercise a layer reports its counts and shares as 0; every time in
/// milliseconds is measured on every workload.
pub const PER_LAYER: &[Metric] = &[
    // Set-up, moving `setup_s`.
    m("graph.prepare_ms", "ms"),
    m("fixedpoint.lower_ms", "ms"),
    m("verify.analyze_ms", "ms"),
    m("fixedpoint.plan_build_ms", "ms"),
    m("verify.check_plan_ms", "ms"),
    m("graph.fplan_build_frac", "ratio"),
    // The integer executor at the workload's rung, moving latency and
    // throughput of the inference workloads.
    m("fixedpoint.run_ms", "ms"),
    m("intgemm.ms", "ms"),
    m("intgemm.calls", "count"),
    m("intgemm.macs", "count"),
    m("intgemm.gmac_s", "GMAC/s"),
    m("intgemm.batched_ms", "ms"),
    m("tensor.im2col_ms", "ms"),
    m("gemm_i8.ms", "ms"),
    m("gemm_i8.gmac_s", "GMAC/s"),
    m("fixedpoint.other_ms", "ms"),
    m("plan.slot_bytes", "bytes"),
    m("plan.weight_arena_bytes", "bytes"),
    m("plan.scratch_bytes", "bytes"),
    m("plan.steady_slot_allocs", "count"),
    // Serving, moving `mobilenet_v1_serve` latency and throughput.
    m("serve.service_ms.r1", "ms"),
    m("serve.service_ms.r2", "ms"),
    m("serve.queue_wait_frac", "ratio"),
    m("queue.batches", "count"),
    m("queue.mean_batch", "requests"),
    m("queue.deadline_flush_frac", "ratio"),
    m("queue.idle_dispatch_frac", "ratio"),
    m("queue.max_depth", "count"),
    m("serve.saturated", "count"),
    m("serve.overflowed", "count"),
    m("serve.steady_allocs", "count"),
    // The QAT step, moving `resnet8_qat` latency and throughput.
    m("fexec.forward_frac", "ratio"),
    m("nn.loss_frac", "ratio"),
    m("fexec.backward_frac", "ratio"),
    m("nn.adam_frac", "ratio"),
    m("graph.sync_frac", "ratio"),
    m("fexec.steady_slot_allocs", "count"),
    m("trace.overhead_frac", "ratio"),
];

/// The metric table a run reports: end-to-end untraced, per-layer traced.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's outcome: every declared metric of its mode, exactly once,
/// plus the attempted/failed counts and the correctness verdict.
#[derive(Debug)]
pub struct Results {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
    /// Requests, batches or steps attempted in the timed phase.
    pub attempted: u64,
    /// Of those, the ones whose output was wrong.
    pub failed: u64,
    /// Violated invariants other than wrong outputs (nonzero steady-state
    /// allocations, wrapped accumulators, lost requests).
    pub violations: Vec<String>,
}

impl Results {
    /// An empty record for the given mode.
    pub fn new(trace: bool) -> Self {
        Results {
            table: declared(trace),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared for this mode or is set twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|d| d.name == name),
            "metric {name} is not declared for this mode"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Records a violated invariant when `count` is nonzero.
    pub fn require_zero(&mut self, what: &str, count: u64) {
        if count != 0 {
            self.violations.push(format!("{what} = {count}, must be 0"));
        }
    }

    /// Whether every output was right and every invariant held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.violations.is_empty()
    }

    /// The declared metrics with their recorded values, in table order.
    ///
    /// # Panics
    ///
    /// Panics if any declared metric was never recorded.
    pub fn rows(&self) -> Vec<(Metric, f64)> {
        self.table
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(&v) => (*d, v),
                None => panic!("metric {} was never recorded", d.name),
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .rows()
            .into_iter()
            .map(|(d, v)| {
                let mut o = BTreeMap::new();
                o.insert("value".to_string(), Json::Num(v));
                o.insert("unit".to_string(), Json::from(d.unit));
                (d.name.to_string(), Json::Obj(o))
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("correct".to_string(), Json::from(self.correct()));
        top.insert("attempted".to_string(), Json::Num(self.attempted as f64));
        top.insert("failed".to_string(), Json::Num(self.failed as f64));
        top.insert("metrics".to_string(), Json::Obj(metrics));
        Json::Obj(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_complete_record_serializes_every_metric() {
        let mut r = Results::new(false);
        r.attempted = 3;
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, i as f64 + 0.5);
        }
        let j = r.to_json();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let metrics = j
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Results::new(false).set("intgemm.ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn missing_metrics_are_refused() {
        Results::new(true).rows();
    }

    #[test]
    fn failures_and_violations_make_a_run_incorrect() {
        let mut r = Results::new(false);
        assert!(!r.correct(), "nothing attempted");
        r.attempted = 10;
        assert!(r.correct());
        r.require_zero("serve.overflowed", 0);
        assert!(r.correct());
        r.require_zero("serve.overflowed", 2);
        assert!(!r.correct());
    }
}
