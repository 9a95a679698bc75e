//! Run reports: per-iteration progress and final outcomes.

use gm_coverage::CoverageReport;
use gm_mc::SessionStats;
use gm_mine::{Assertion, MineError};
use gm_rtl::SignalId;
use gm_sim::TestSuite;

/// Wall-clock phase breakdown of one engine iteration, in nanoseconds.
///
/// Measured unconditionally (a handful of `Instant` reads per
/// iteration), independent of whether the trace recorder is on.
/// Timings are inherently non-deterministic, so this struct is
/// deliberately **excluded** from [`IterationReport`]'s `Debug` and
/// `PartialEq` — the byte-identity oracles (`serve_agree`,
/// `trace_agree`, shard/backend agreement) compare outcomes through
/// those and must not see wall clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterTiming {
    /// Combinational verification pass (worklist build + batch
    /// dispatch + counterexample simulation/absorption).
    pub verify_ns: u64,
    /// Temporal-candidate pass (zero when temporal mining is off).
    pub temporal_ns: u64,
    /// Coverage-ranked refinement pass (zero when refinement is off).
    pub refine_ns: u64,
    /// Coverage report (zero when coverage recording is off): reading
    /// the run's kept coverage suite and, under refinement, indexing
    /// its uncovered points. No simulation: the suite observed this
    /// iteration's segments during the replays timed in the other
    /// phases, so that cost lands in verify, temporal and refine.
    pub coverage_ns: u64,
    /// Whole iteration wall time (pass + snapshot + bookkeeping).
    pub total_ns: u64,
}

impl IterTiming {
    /// Element-wise sum (for whole-run aggregation).
    #[must_use]
    pub fn saturating_add(self, rhs: IterTiming) -> IterTiming {
        IterTiming {
            verify_ns: self.verify_ns.saturating_add(rhs.verify_ns),
            temporal_ns: self.temporal_ns.saturating_add(rhs.temporal_ns),
            refine_ns: self.refine_ns.saturating_add(rhs.refine_ns),
            coverage_ns: self.coverage_ns.saturating_add(rhs.coverage_ns),
            total_ns: self.total_ns.saturating_add(rhs.total_ns),
        }
    }
}

/// Progress metrics captured after each counterexample iteration.
///
/// `iteration 0` describes the state after mining the seed data, before
/// any counterexample feedback — matching the paper's iteration axis in
/// Figures 12–14 and Table 1.
///
/// `Debug` and `PartialEq` are implemented manually to cover every
/// field **except** [`IterationReport::timing`]: the rendered report is
/// the byte-identity artifact the agreement suites diff, and wall-clock
/// noise must not break determinism contracts.
#[derive(Clone)]
pub struct IterationReport {
    /// The iteration number (0 = seed only).
    pub iteration: u32,
    /// Candidate assertions pending at the start of the iteration.
    pub candidates: usize,
    /// Total proved assertions across all targets so far.
    pub proved_total: usize,
    /// Candidates refuted (counterexamples generated) in this iteration.
    pub refuted: usize,
    /// The paper's input-space coverage of the proved assertions
    /// (Σ 2^-depth over input literals), averaged across targets.
    pub input_space_coverage: f64,
    /// Simulation coverage of the accumulated test suite (present when
    /// the engine records coverage).
    pub coverage: Option<CoverageReport>,
    /// Total stimulus cycles in the accumulated suite.
    pub suite_cycles: usize,
    /// Cumulative `(target, trace)` pairs dropped because the trace was
    /// shorter than the target's mining span — stimulus the miner never
    /// saw. A persistently non-zero count under directed seeding means
    /// the configured window outruns the supplied tests.
    pub short_traces: usize,
    /// Temporal candidates dispatched to the checker this iteration
    /// (zero when temporal mining is disabled).
    pub temporal_candidates: usize,
    /// Cumulative proved (or assumed) temporal assertions so far.
    pub temporal_proved: usize,
    /// Temporal candidates refuted this iteration; their counterexample
    /// traces joined the suite as `tcex-*` segments.
    pub temporal_refuted: usize,
    /// Directed `dir-*` segments absorbed by the coverage-ranked
    /// refinement pass this iteration (zero when refinement is
    /// disabled).
    pub directed_absorbed: usize,
    /// Verification-session work done during this iteration: queries by
    /// engine, solver conflicts/propagations, unrolling frames encoded
    /// vs reused (`memo_hits`, the checker's in-batch duplicates, is 0:
    /// the engine never hands the checker a duplicate).
    pub verification: SessionStats,
    /// Wall-clock phase breakdown of this iteration (excluded from
    /// `Debug`/`PartialEq`; see [`IterTiming`]).
    pub timing: IterTiming,
}

impl std::fmt::Debug for IterationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Mirrors the derived layout, minus `timing` (see struct docs).
        f.debug_struct("IterationReport")
            .field("iteration", &self.iteration)
            .field("candidates", &self.candidates)
            .field("proved_total", &self.proved_total)
            .field("refuted", &self.refuted)
            .field("input_space_coverage", &self.input_space_coverage)
            .field("coverage", &self.coverage)
            .field("suite_cycles", &self.suite_cycles)
            .field("short_traces", &self.short_traces)
            .field("temporal_candidates", &self.temporal_candidates)
            .field("temporal_proved", &self.temporal_proved)
            .field("temporal_refuted", &self.temporal_refuted)
            .field("directed_absorbed", &self.directed_absorbed)
            .field("verification", &self.verification)
            .finish()
    }
}

impl PartialEq for IterationReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `timing` (see struct docs).
        self.iteration == other.iteration
            && self.candidates == other.candidates
            && self.proved_total == other.proved_total
            && self.refuted == other.refuted
            && self.input_space_coverage == other.input_space_coverage
            && self.coverage == other.coverage
            && self.suite_cycles == other.suite_cycles
            && self.short_traces == other.short_traces
            && self.temporal_candidates == other.temporal_candidates
            && self.temporal_proved == other.temporal_proved
            && self.temporal_refuted == other.temporal_refuted
            && self.directed_absorbed == other.directed_absorbed
            && self.verification == other.verification
    }
}

/// Final state of one mining target.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetSummary {
    /// The mined output signal.
    pub signal: SignalId,
    /// The mined bit.
    pub bit: u32,
    /// Whether every leaf of the target's tree is proved.
    pub converged: bool,
    /// Proved assertions for this target.
    pub proved: usize,
    /// Nodes in the final (incremental) decision tree.
    pub tree_nodes: usize,
    /// Whether mining had to extend to farthest-back state features.
    pub extended: bool,
    /// A mining failure, if the target got stuck.
    pub stuck: Option<MineError>,
}

/// The outcome of a refinement run.
#[derive(Clone, Debug)]
pub struct ClosureOutcome {
    /// Whether every target's tree converged (all assertions true): the
    /// paper's coverage-closure condition.
    pub converged: bool,
    /// Per-iteration progress, starting at iteration 0.
    pub iterations: Vec<IterationReport>,
    /// All proved leaves' assertions across targets, target by target
    /// in ascending leaf order.
    pub assertions: Vec<Assertion>,
    /// Proved (or assumed-true) temporal assertions, in the
    /// deterministic order they were decided. Empty unless
    /// [`crate::TemporalConfig`] enables temporal mining.
    pub temporal: Vec<Assertion>,
    /// The accumulated validation stimulus: seed patterns plus one
    /// segment per counterexample.
    pub suite: TestSuite,
    /// Per-target summaries.
    pub targets: Vec<TargetSummary>,
    /// Candidates assumed true under [`crate::UnknownPolicy::AssumeTrue`].
    pub unknown_assumed: usize,
    /// Whether a cooperative cancel token cut the run short
    /// *mid-iteration* (see [`crate::Engine::with_cancel`]); the run
    /// then stopped with [`crate::StopReason::Interrupted`]. The outcome
    /// is still valid — proved assertions are sound, the suite replays —
    /// it just reflects only the work completed before the cancel
    /// landed. A caller that stops stepping at an iteration boundary
    /// leaves this `false`.
    pub interrupted: bool,
}

impl ClosureOutcome {
    /// The final input-space coverage (from the last iteration report).
    pub fn final_input_space_coverage(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.input_space_coverage)
            .unwrap_or(0.0)
    }

    /// The final simulation coverage report, if recorded.
    pub fn final_coverage(&self) -> Option<CoverageReport> {
        self.iterations.last().and_then(|r| r.coverage)
    }

    /// The number of counterexample iterations performed.
    pub fn iteration_count(&self) -> u32 {
        self.iterations.last().map(|r| r.iteration).unwrap_or(0)
    }

    /// Total verification-session work across the whole run (the sum of
    /// each iteration's [`IterationReport::verification`] delta).
    pub fn verification_total(&self) -> SessionStats {
        self.iterations
            .iter()
            .fold(SessionStats::default(), |acc, r| acc + r.verification)
    }

    /// Whole-run wall-clock phase breakdown (the sum of each
    /// iteration's [`IterationReport::timing`]): where the run spent
    /// its time, without needing the trace recorder on.
    pub fn timing_total(&self) -> IterTiming {
        self.iterations
            .iter()
            .fold(IterTiming::default(), |acc, r| acc.saturating_add(r.timing))
    }
}
