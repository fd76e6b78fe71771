//! Diagnostics: stable error codes, per-node findings, and reports.
//!
//! Every analysis in this crate reports through [`Report`] rather than
//! panicking, so callers can batch-lint a whole model zoo and CI can print
//! every finding in one run. Codes are stable identifiers (`TQT-V001` …)
//! documented in `DESIGN.md`; tests assert on codes, never on message
//! text.

use std::fmt;
use tqt_graph::LowerError;

/// A stable diagnostic code. The numeric part never changes meaning once
/// released; retired codes are left as gaps rather than reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// `TQT-V001` — structural violation: missing input/output, bad arity,
    /// forward edge, dangling threshold reference.
    Structure,
    /// `TQT-V002` — shape or dtype inference failure: rank/channel/feature
    /// mismatch between a node and its inputs or weights, in the float or
    /// the lowered graph.
    Shape,
    /// `TQT-V003` — an op that needs a static grid (conv, dense, relu,
    /// identity) consumes an edge without one: a float edge (missing
    /// activation quantizer), or a global average pool's run-time grid.
    UnquantizedEdge,
    /// `TQT-V004` — a compute op has no weight quantizer attached.
    MissingWeightQuant,
    /// `TQT-V005` — a threshold in the side table is referenced by no
    /// quant node and no weight quantizer (dead threshold).
    DeadThreshold,
    /// `TQT-V006` — a referenced threshold was never calibrated.
    Uncalibrated,
    /// `TQT-V007` — a threshold yields a degenerate scale: non-finite
    /// `log2 t` or a fractional length outside the shiftable range.
    DegenerateScale,
    /// `TQT-V008` — a batch-norm survives where the graph is expected to
    /// be folded.
    UnfoldedBatchNorm,
    /// `TQT-V009` — an average pool survives where the graph is expected
    /// to be converted to depthwise form.
    UnconvertedAvgPool,
    /// `TQT-V010` — merge-node inputs disagree on quantization: an
    /// add/concat whose operands are on different grids (unmerged scales).
    MergeMismatch,
    /// `TQT-V011` — an i64 accumulator can overflow: the proven value
    /// interval of a node escapes the i64 range.
    Overflow,
    /// `TQT-V012` — a requantization shift is outside the legal range.
    IllegalShift,
    /// `TQT-V013` — fixed-point format violation: e.g. a global average
    /// pool over a non-power-of-two spatial size, or a malformed Q-format.
    FormatViolation,
    /// `TQT-V014` — a graph transform broke an invariant: the graph fails
    /// re-verification or changes semantics after a pass.
    TransformInvariant,
    /// `TQT-V015` — runtime sanitizer contradiction: observed behavior
    /// escapes the statically proven envelope (observed ⊄ proven).
    SanitizerViolation,
    /// `TQT-V016` — executor-plan aliasing: a node writes a buffer slot
    /// while a live tensor (a pending consumer's operand, the graph
    /// output, or the writer's own input) still occupies it.
    PlanAlias,
    /// `TQT-V017` — executor-plan stale read: a node reads a slot whose
    /// occupant is not the producing write (slot released or overwritten
    /// before the last consumer executed).
    PlanStaleRead,
    /// `TQT-V018` — executor-plan storage violation: slot capacity below
    /// the assigned tensor, a per-node length that contradicts the
    /// graph's shape rule, or scratch-arena accounting that
    /// disagrees with the plan.
    PlanStorage,
    /// `TQT-V019` — schedule deadlock: the bounded model checker found a
    /// reachable pool-protocol state with no enabled thread before the
    /// region completed.
    SchedDeadlock,
    /// `TQT-V020` — schedule protocol violation: a lost or duplicated
    /// block, corrupted completion count, or a panic not delivered to
    /// the submitting thread, with a counterexample interleaving.
    SchedProtocol,
    /// `TQT-V021` — fold-partition violation: `par_fold_blocks` produced
    /// a block partition that depends on the thread count (breaking
    /// bit-identical deterministic reduction).
    FoldPartition,
    /// `TQT-V022` — happens-before violation from the runtime sanitizer:
    /// overlapping (or non-covering) mutable block ranges in a parallel
    /// region, or a scratch checkout escaping its block.
    HappensBefore,
    /// `TQT-V023` — illegal fusion: a fused node whose structure or
    /// epilogue breaks the fusion legality conditions — a core that is
    /// not conv/dense, a residual add whose operand is on a different
    /// grid than the accumulator at that epilogue position, an epilogue
    /// requant whose shift is outside the legal range, or an arity that
    /// contradicts the epilogue's residual steps.
    IllegalFusion,
    /// `TQT-V024` — serving batch-protocol violation: the bounded model
    /// checker found an interleaving of the admission queue where a
    /// request is lost or dispatched twice, a deadline-expired request
    /// is stranded behind a partial batch, or a drain exits with
    /// requests still queued — with a counterexample schedule.
    BatchProtocol,
    /// `TQT-V025` — node lowering not bit-exact: the translation validator
    /// found an input (or baked constant) where the integer realization
    /// disagrees with the exact rational fake-quant reference, or the
    /// provenance needed to prove equivalence is missing/inconsistent.
    NotBitExact,
    /// `TQT-V026` — requant rounding-mode mismatch: a lowering decision
    /// declares a rounding rule other than round-half-to-even while the
    /// integer kernel implements banker's rounding, with a concrete tie
    /// input as witness.
    RoundingMismatch,
    /// `TQT-V027` — zero-point correction error: the declared zero-point
    /// is non-zero but the symmetric power-of-2 realization applies no
    /// correction (or vice versa).
    ZeroPointDrift,
    /// `TQT-V028` — Add/Concat operand scale-merge violation: merge-node
    /// operands carry different requant formats, so the integer add sums
    /// incommensurate grids (the unmerged-scale gap of ROADMAP item 2).
    ScaleMergeViolation,
    /// `TQT-V029` — fused-epilogue semantics diverge from the unfused
    /// chain: member count or step kind disagrees with the chain's
    /// provenance, or a fused constant (cap, slope) was snapped on the
    /// wrong grid for its chain position.
    EpilogueMismatch,
    /// `TQT-V030` — saturation-range mismatch: the integer clamp range at
    /// a (re)quantization site differs from the fake-quant clip range
    /// `[n, p]` implied by the declared bits/signedness (eq. 3).
    ClampRangeMismatch,
    /// `TQT-V031` — grid-type contradiction: dataflow inference derived
    /// two incompatible `Grid` types for one edge (e.g. the operands of a
    /// merge node sit on different power-of-2 grids), reported with both
    /// deriving paths as the counterexample.
    GridContradiction,
    /// `TQT-V032` — uninferable edge: grid-type inference reached an edge
    /// whose type cannot be derived from any quantization site (a compute
    /// op consuming an ungridded input, or a pooling reduction whose
    /// scale factor is not a power of two).
    UninferableGrid,
    /// `TQT-V033` — redundant requant lint: a coercion whose target grid
    /// is identical (scale, zero-point, bits, signedness) to the grid
    /// already inferred on its input edge; the node is a no-op.
    RedundantRequant,
    /// `TQT-V034` — illegal coercion: a requant between two inferred
    /// grids that cannot be realized by the integer engine — shift
    /// outside `[-63, 63]` or a zero-point that overflows the target
    /// format's representable range.
    IllegalCoercion,
    /// `TQT-V035` — kernel-route disagreement: the plan routes a conv or
    /// dense node onto the i32 `madd_epi16` kernel (or the i64 fallback)
    /// against the plan checker's own re-derivation of the eligibility
    /// proof — input grid at most 8 bits, every weight in i8, and the
    /// per-channel bound `Σₖ|w|·max(|qmin|,|qmax|) < 2³¹` — or claims a
    /// different bound; refutations carry the producer path.
    NarrowRoute,
}

impl Code {
    /// The stable identifier, e.g. `"TQT-V011"`.
    pub fn id(self) -> &'static str {
        match self {
            Code::Structure => "TQT-V001",
            Code::Shape => "TQT-V002",
            Code::UnquantizedEdge => "TQT-V003",
            Code::MissingWeightQuant => "TQT-V004",
            Code::DeadThreshold => "TQT-V005",
            Code::Uncalibrated => "TQT-V006",
            Code::DegenerateScale => "TQT-V007",
            Code::UnfoldedBatchNorm => "TQT-V008",
            Code::UnconvertedAvgPool => "TQT-V009",
            Code::MergeMismatch => "TQT-V010",
            Code::Overflow => "TQT-V011",
            Code::IllegalShift => "TQT-V012",
            Code::FormatViolation => "TQT-V013",
            Code::TransformInvariant => "TQT-V014",
            Code::SanitizerViolation => "TQT-V015",
            Code::PlanAlias => "TQT-V016",
            Code::PlanStaleRead => "TQT-V017",
            Code::PlanStorage => "TQT-V018",
            Code::SchedDeadlock => "TQT-V019",
            Code::SchedProtocol => "TQT-V020",
            Code::FoldPartition => "TQT-V021",
            Code::HappensBefore => "TQT-V022",
            Code::IllegalFusion => "TQT-V023",
            Code::BatchProtocol => "TQT-V024",
            Code::NotBitExact => "TQT-V025",
            Code::RoundingMismatch => "TQT-V026",
            Code::ZeroPointDrift => "TQT-V027",
            Code::ScaleMergeViolation => "TQT-V028",
            Code::EpilogueMismatch => "TQT-V029",
            Code::ClampRangeMismatch => "TQT-V030",
            Code::GridContradiction => "TQT-V031",
            Code::UninferableGrid => "TQT-V032",
            Code::RedundantRequant => "TQT-V033",
            Code::IllegalCoercion => "TQT-V034",
            Code::NarrowRoute => "TQT-V035",
        }
    }

    /// One-line description of what the code means.
    pub fn title(self) -> &'static str {
        match self {
            Code::Structure => "structural violation",
            Code::Shape => "shape/dtype inference failure",
            Code::UnquantizedEdge => "unquantized compute edge",
            Code::MissingWeightQuant => "missing weight quantizer",
            Code::DeadThreshold => "dead threshold",
            Code::Uncalibrated => "uncalibrated threshold",
            Code::DegenerateScale => "degenerate scale",
            Code::UnfoldedBatchNorm => "unfolded batch norm",
            Code::UnconvertedAvgPool => "unconverted average pool",
            Code::MergeMismatch => "merge-node quantization mismatch",
            Code::Overflow => "accumulator overflow",
            Code::IllegalShift => "illegal requantization shift",
            Code::FormatViolation => "fixed-point format violation",
            Code::TransformInvariant => "transform invariant violation",
            Code::SanitizerViolation => "runtime sanitizer violation",
            Code::PlanAlias => "executor-plan slot aliasing",
            Code::PlanStaleRead => "executor-plan stale read",
            Code::PlanStorage => "executor-plan storage violation",
            Code::SchedDeadlock => "pool schedule deadlock",
            Code::SchedProtocol => "pool schedule protocol violation",
            Code::FoldPartition => "thread-dependent fold partition",
            Code::HappensBefore => "happens-before violation",
            Code::IllegalFusion => "illegal epilogue fusion",
            Code::BatchProtocol => "serving batch-protocol violation",
            Code::NotBitExact => "node lowering not bit-exact",
            Code::RoundingMismatch => "requant rounding-mode mismatch",
            Code::ZeroPointDrift => "zero-point correction error",
            Code::ScaleMergeViolation => "operand scale-merge violation",
            Code::EpilogueMismatch => "fused-epilogue semantics mismatch",
            Code::ClampRangeMismatch => "saturation-range mismatch",
            Code::GridContradiction => "grid-type contradiction",
            Code::UninferableGrid => "uninferable grid type",
            Code::RedundantRequant => "redundant requantization",
            Code::IllegalCoercion => "illegal grid coercion",
            Code::NarrowRoute => "GEMM kernel-route disagreement",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A single finding: code, the node it anchors to (if any), and detail.
#[derive(Debug, Clone)]
pub struct Diag {
    /// The stable code.
    pub code: Code,
    /// Name of the offending node, when the finding is node-local.
    pub node: Option<String>,
    /// Human-readable specifics: what was found, and for refutations the
    /// counterexample (shape, interval, node path).
    pub detail: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Some(n) => write!(f, "{} [{}] at `{n}`: {}", self.code, self.code.title(), self.detail),
            None => write!(f, "{} [{}]: {}", self.code, self.code.title(), self.detail),
        }
    }
}

impl From<&LowerError> for Diag {
    /// The finding a lowering refusal stands for: the lint's code for the
    /// same defect, at the same node.
    fn from(e: &LowerError) -> Self {
        let code = match e {
            LowerError::NoOutput | LowerError::Structure { .. } => Code::Structure,
            LowerError::UnquantizedInput { .. } => Code::UnquantizedEdge,
            LowerError::MissingWeightQuant { .. } => Code::MissingWeightQuant,
            LowerError::Uncalibrated { .. } => Code::Uncalibrated,
            LowerError::UnfoldedBatchNorm { .. } => Code::UnfoldedBatchNorm,
            LowerError::UnconvertedAvgPool { .. } => Code::UnconvertedAvgPool,
        };
        Diag {
            code,
            node: e.node().map(str::to_string),
            detail: e.to_string(),
        }
    }
}

/// An ordered collection of findings from one or more analyses.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The findings, in discovery order.
    pub diags: Vec<Diag>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a finding anchored to a node.
    pub fn push(&mut self, code: Code, node: impl Into<String>, detail: impl Into<String>) {
        self.diags.push(Diag {
            code,
            node: Some(node.into()),
            detail: detail.into(),
        });
    }

    /// Records a graph-level finding.
    pub fn push_global(&mut self, code: Code, detail: impl Into<String>) {
        self.diags.push(Diag {
            code,
            node: None,
            detail: detail.into(),
        });
    }

    /// Whether no analysis found anything.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> Vec<Code> {
        let mut v: Vec<Code> = self.diags.iter().map(|d| d.code).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Renders every finding, one per line.
    pub fn render(&self) -> String {
        self.diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            Code::Structure,
            Code::Shape,
            Code::UnquantizedEdge,
            Code::MissingWeightQuant,
            Code::DeadThreshold,
            Code::Uncalibrated,
            Code::DegenerateScale,
            Code::UnfoldedBatchNorm,
            Code::UnconvertedAvgPool,
            Code::MergeMismatch,
            Code::Overflow,
            Code::IllegalShift,
            Code::FormatViolation,
            Code::TransformInvariant,
            Code::SanitizerViolation,
            Code::PlanAlias,
            Code::PlanStaleRead,
            Code::PlanStorage,
            Code::SchedDeadlock,
            Code::SchedProtocol,
            Code::FoldPartition,
            Code::HappensBefore,
            Code::IllegalFusion,
            Code::BatchProtocol,
            Code::NotBitExact,
            Code::RoundingMismatch,
            Code::ZeroPointDrift,
            Code::ScaleMergeViolation,
            Code::EpilogueMismatch,
            Code::ClampRangeMismatch,
            Code::GridContradiction,
            Code::UninferableGrid,
            Code::RedundantRequant,
            Code::IllegalCoercion,
            Code::NarrowRoute,
        ];
        let mut ids: Vec<&str> = all.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate code ids");
        for c in all {
            assert!(c.id().starts_with("TQT-V"), "unexpected id scheme {}", c.id());
        }
    }

    #[test]
    fn report_collects_and_renders() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Code::Overflow, "conv1", "interval [0, 2^70] escapes i64");
        r.push_global(Code::Structure, "no output set");
        assert!(!r.is_clean());
        assert!(r.has(Code::Overflow));
        assert!(!r.has(Code::Shape));
        assert_eq!(r.codes(), vec![Code::Structure, Code::Overflow]);
        let text = r.render();
        assert!(text.contains("TQT-V011"));
        assert!(text.contains("conv1"));
    }
}
