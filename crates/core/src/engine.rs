//! The counterexample-guided refinement engine (the paper's Figure 3).
//!
//! One [`Engine`] run executes the full loop:
//!
//! 1. **Data generator** — simulate the seed stimulus (random, directed,
//!    or none) into traces;
//! 2. **Static analyzer** — compute each target output's logic cone and
//!    build its feature space;
//! 3. **A-Miner** — fit one incremental decision tree per output bit;
//! 4. **Formal verification** — collect every 100%-confidence candidate
//!    across all targets into one worklist and dispatch the whole batch
//!    through the checker's persistent verification session
//!    ([`gm_mc::Checker::check_batch`]): one shared unrolling per
//!    iteration. Proved leaves freeze, refuted ones yield
//!    counterexample traces, and a property left open on an `Unknown`
//!    verdict is remembered, so no decided property is asked again. The
//!    temporal pass decides the leaves' temporal templates through the
//!    same batch routine;
//! 5. **Ctx_simulation** — move the iteration's counterexamples into
//!    the test suite, replay them from reset as one batch
//!    ([`gm_sim::Replay`]) with the run's coverage suite observing,
//!    extend every target's dataset in bulk, and re-split only the
//!    refuted leaves. The pass's traces are absorbed target-major: each
//!    target takes every trace in order before the next target starts,
//!    working in its own dataset and tree only, which is what a
//!    trace-by-trace loop over the targets would leave (no target reads
//!    another's state), while each tree's kept buffers stay warm;
//! 6. **report** — read the coverage suite, refresh the input-space
//!    term of every target whose proved set grew, and push the
//!    [`IterationReport`]; repeat until every leaf is proved (*coverage
//!    closure*) or the iteration budget runs out.
//!
//! Each [`IterationReport`] carries the verification session's stats
//! delta ([`gm_mc::SessionStats`]): queries by engine, solver
//! conflicts/propagations, and unrolling frames reused. Its `memo_hits`
//! (in-batch duplicates) stays 0: the engine never hands the checker a
//! duplicate (`tests/no_repeated_queries.rs`) — targets are distinct
//! bits and a consequent names its target's bit, a tree's leaves are
//! distinct paths, and a decided property that would be proposed again
//! is remembered.
//!
//! ## What an iteration costs
//!
//! The paper reports design and input-space coverage after *every*
//! iteration, so the report must cost what the iteration changed, not
//! what the run has accumulated. Four things are kept across
//! iterations, each with one way to read it and no from-scratch path
//! beside it (the from-scratch oracles live in
//! `tests/incremental_snapshot.rs` and the benchmark):
//!
//! * **one [`CoverageSuite`] per run**, the observer of every replay
//!   that produces traces — the seed, each pass's `cex-*`/`tcex-*`
//!   tail and the refinement winners — so each segment the suite
//!   absorbs is simulated once, for the miner and for coverage alike,
//!   and a report reads the suite without replaying anything. Sound
//!   because every collector is a monotone set union and every segment
//!   is replayed from reset (the toggle and FSM collectors drop their
//!   previous-cycle state at cycle 0), so the union over batches is the
//!   union over one pass (`sim/compiled_agree` pins it). A cancelled
//!   replay has shown the suite a partial batch: it is dropped with the
//!   unpublished report and the run ends;
//! * **each target's proved leaves and their assertions**, in ascending
//!   node order, filed when a leaf is proved or assumed true. Sound
//!   because node indices are stable and a proved leaf never splits (a
//!   contradicting row is [`gm_mine::MineError::ProvedLeafContradicted`]),
//!   so the list only ever gains entries;
//! * **each target's input-space term**, recomputed
//!   ([`gm_mine::input_space_coverage`], an exact union measure) only
//!   when that list grew — it is a function of the list alone;
//! * **each tree's candidate set and open-leaf count**
//!   ([`DecisionTree::candidate_leaves`], [`DecisionTree::converged`]),
//!   maintained by the tree as rows and proofs arrive, so building the
//!   worklist and testing for closure visit no other node.
//!
//! ## Sharded verification and the determinism contract
//!
//! The verification step is embarrassingly parallel across the
//! worklist, and [`crate::ShardPolicy`] splits it across a pool
//! of persistent shard sessions (one scoped worker thread each, all
//! over the same bit-blasted design — blasting happens once per run).
//! The shard lifecycle: sessions are created lazily on the first
//! sharded batch, move into their workers for each iteration's
//! dispatch, and return — with their unrollings and learnt clauses —
//! when the workers join, so shard k sees the same incremental-session
//! benefits across iterations that the single session does.
//!
//! **Determinism contract:** repeated runs with the same seed and
//! config produce the same [`ClosureOutcome`] in full, and every shard
//! policy produces the same artifacts — suite segment labels and
//! vectors, iteration reports, assertion order, per-target summaries —
//! differing only in the [`gm_mc::SessionStats`] work counters inside
//! [`IterationReport::verification`] (frame/solver work moves between
//! sessions). This is engineered, not hoped for: verdicts are
//! solver-state-independent, counterexample traces are canonically
//! re-extracted by `gm_mc` (never taken from a shard-history-dependent
//! solver model), the worklist partition is a deterministic
//! round-robin, and shard results are merged back in worklist order
//! before any tree is touched.

use crate::config::{EngineConfig, SeedStimulus, TargetSelection, UnknownPolicy};
use crate::error::EngineError;
use crate::report::{ClosureOutcome, IterTiming, IterationReport, TargetSummary};
use gm_cache::FxSet;
use gm_coverage::{CoverageSuite, GainObserver, UncoveredIndex};
use gm_mc::{BitAtom, CheckResult, Checker, ConsequentKind, McError, SessionStats, WindowProperty};
use gm_mine::{
    assertion_at, input_space_coverage, temporal_candidates, Assertion, Dataset, DecisionTree,
    MiningSpec, TemporalTemplate,
};
use gm_rtl::{cone_of, elaborate, Module, SignalId};
use gm_sim::{
    collect_vectors, CompiledModule, DirectedVariants, NopObserver, RandomStimulus, Replay,
    SimBackend, TestSuite, Trace,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Converts a mined assertion into the model checker's property form:
/// the value demanded at every consequent offset
/// ([`ConsequentKind::All`]), or at *some* offset for a bounded
/// eventuality ([`ConsequentKind::Any`]). A point consequent — `Now` or
/// `Next` — is one atom, which [`WindowProperty::new`] stores as `Any`.
pub fn assertion_property(a: &Assertion) -> WindowProperty {
    let antecedent = a
        .literals
        .iter()
        .map(|(f, v)| BitAtom::new(f.signal, f.bit, f.offset, *v))
        .collect();
    let consequents = a
        .consequent_offsets()
        .map(|off| BitAtom::new(a.target.signal, a.target.bit, off, a.value))
        .collect();
    let kind = match a.template {
        TemporalTemplate::Eventually { .. } => ConsequentKind::Any,
        TemporalTemplate::Now
        | TemporalTemplate::Next { .. }
        | TemporalTemplate::Stability { .. } => ConsequentKind::All,
    };
    WindowProperty::new(antecedent, consequents, kind)
}

/// An iteration's two decision passes. They share one batch routine
/// ([`Engine::decide`]) and differ in where their candidates come from
/// and in what a verdict files.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The trees' pure open leaves; a verdict files the leaf's status.
    Window,
    /// The leaves' temporal templates; a verdict files the run's
    /// temporal list.
    Temporal,
}

/// Per-iteration progress counters produced by one `iteration_pass`.
#[derive(Clone, Copy, Default)]
struct PassCounts {
    refuted: usize,
    temporal_candidates: usize,
    temporal_refuted: usize,
    directed_absorbed: usize,
    /// Phase wall clocks gathered along the way (verify/temporal/refine
    /// here, the report's coverage and total filled in around the
    /// snapshot).
    timing: IterTiming,
}

impl PassCounts {
    /// Whether the iteration moved the run forward: new counterexample
    /// rows (combinational or temporal) or new coverage-gaining
    /// directed stimulus. Zero means the loop cannot make progress.
    fn progress(&self) -> usize {
        self.refuted + self.temporal_refuted + self.directed_absorbed
    }
}

struct TargetState {
    signal: SignalId,
    bit: u32,
    spec: MiningSpec,
    dataset: Dataset,
    tree: DecisionTree,
    stuck: Option<gm_mine::MineError>,
    /// The proved leaves in ascending node order — node indices are
    /// stable and a proved leaf never splits, so the list only grows —
    /// and, index for index, their assertions: what
    /// [`gm_mine::assertion_at`] would re-derive from each leaf.
    proved_leaves: Vec<usize>,
    proved: Vec<Assertion>,
    /// This target's input-space coverage term, and whether `proved`
    /// has grown since it was computed.
    input_space: f64,
    input_space_stale: bool,
}

impl TargetState {
    /// Freezes `leaf` as proved (or assumed true) and files its
    /// assertion — the candidate built from the leaf for the worklist —
    /// at the leaf's place in the kept list.
    fn set_proved(&mut self, leaf: usize, assertion: Assertion) {
        self.tree.set_proved(leaf);
        if let Err(at) = self.proved_leaves.binary_search(&leaf) {
            self.proved_leaves.insert(at, leaf);
            self.proved.insert(at, assertion);
            self.input_space_stale = true;
        }
    }
}

/// What one [`Engine::step`] produced.
#[derive(Debug)]
pub enum Step<'e> {
    /// A report, and the run goes on: step again, or stop here and
    /// [`Engine::finish`].
    Continue(&'e IterationReport),
    /// The run is over. `last` is the report this call produced, if it
    /// produced one (an interrupted pass publishes none).
    Stop {
        /// Why the loop ended.
        reason: StopReason,
        /// The run's last report, when this call produced it.
        last: Option<&'e IterationReport>,
    },
}

/// Why a closure run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every target's tree converged and refinement absorbed nothing
    /// more: coverage closure.
    Closed,
    /// [`EngineConfig::max_iterations`] counterexample iterations ran.
    IterationCap,
    /// An iteration refuted nothing and absorbed nothing: the open
    /// leaves are stuck or left open on `Unknown` verdicts.
    NoProgress,
    /// The cancel token landed mid-pass (see [`Engine::with_cancel`]).
    Interrupted,
}

/// The GoldMine coverage-closure engine.
///
/// [`Engine::run`] drives the loop to its end. [`Engine::step`] drives
/// it one report at a time, so a caller can watch, steer or stop the
/// run between iterations, then [`Engine::finish`] it:
///
/// ```
/// use goldmine::{Engine, EngineConfig, Step, StopReason};
///
/// let m = gm_rtl::parse_verilog(
///     "module m(input a, input b, output z); assign z = a & b; endmodule")?;
/// let mut engine = Engine::new(&m, EngineConfig::default())?;
/// let reason = loop {
///     match engine.step()? {
///         Step::Continue(report) => println!("iteration {}", report.iteration),
///         Step::Stop { reason, .. } => break reason,
///     }
/// };
/// let (outcome, _checker) = engine.finish();
/// assert_eq!(reason, StopReason::Closed);
/// assert!(outcome.converged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Examples
///
/// ```
/// use goldmine::{Engine, EngineConfig, SeedStimulus};
///
/// let m = gm_rtl::parse_verilog("
///     module arbiter2(input clk, input rst, input req0, input req1,
///                     output reg gnt0, output reg gnt1);
///       always @(posedge clk)
///         if (rst) begin gnt0 <= 0; gnt1 <= 0; end
///         else begin
///           gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
///           gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
///         end
///     endmodule")?;
/// let config = EngineConfig {
///     stimulus: SeedStimulus::Random { cycles: 16 },
///     ..EngineConfig::default()
/// };
/// let outcome = Engine::new(&m, config)?.run()?;
/// assert!(outcome.converged, "arbiter closes coverage");
/// assert!(!outcome.assertions.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<'m> {
    module: &'m Module,
    config: EngineConfig,
    checker: Checker,
    targets: Vec<TargetState>,
    suite: TestSuite,
    /// The run's one coverage suite, observing every trace replay
    /// (`None` when coverage is not recorded, and after a cancelled
    /// replay left it half-fed), and how many segments those replays
    /// have shown it since the last report.
    coverage: Option<CoverageSuite<'m>>,
    unreported: usize,
    unknown_assumed: usize,
    /// Session stats already attributed to earlier iteration reports.
    reported_stats: SessionStats,
    /// The lowered instruction tape for the compiled simulation
    /// backend (`None` when the interpreter is configured): the design's
    /// one probed tape, whether or not coverage is recorded. Trace- and
    /// coverage-identical to the interpreter, so the choice never shows
    /// in the outcome. Shared (`Arc`) so a design cache can park one
    /// tape per canonical design and hand it to every engine instead of
    /// recompiling (see [`Engine::with_artifacts`]).
    compiled: Option<Arc<CompiledModule>>,
    /// Cooperative cancel token (see [`Engine::with_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
    /// Cumulative `(target, trace)` pairs dropped as too short to mine
    /// (see [`IterationReport::short_traces`]).
    short_traces: usize,
    /// Decided properties whose candidates the trees keep proposing: a
    /// window leaf left open on an `Unknown` verdict under
    /// [`UnknownPolicy::LeaveOpen`], and every temporal candidate (its
    /// verdict never touches the leaf). Verdicts are deterministic, so
    /// each is dispatched, and its counterexample absorbed, once.
    decided: FxSet<WindowProperty>,
    /// Proved (or assumed-true) temporal assertions, in decision order.
    temporal_proved: Vec<Assertion>,
    /// The uncovered-point index of the latest coverage snapshot, kept
    /// for the refinement pass's gain ranking (only populated when
    /// refinement is enabled).
    last_uncovered: Option<UncoveredIndex>,
    /// The reports published so far: iteration `i` at index `i`, so its
    /// length is the next iteration's number.
    history: Vec<IterationReport>,
    /// Why the run stopped, once it has.
    stopped: Option<StopReason>,
    /// The `engine.run` span, open from the first step to
    /// [`Engine::finish`].
    run_span: Option<gm_trace::SpanGuard>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine({}, {} targets, {} segments)",
            self.module.name(),
            self.targets.len(),
            self.suite.len()
        )
    }
}

impl<'m> Engine<'m> {
    /// Prepares an engine: elaborates the module once (shared between
    /// mining and the checker's bit-blaster), and builds the mining spec
    /// for every target bit.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and blasting failures.
    pub fn new(module: &'m Module, config: EngineConfig) -> Result<Self, EngineError> {
        let elab = elaborate(module)?;
        let checker = Checker::from_elab(module, &elab)?;
        Ok(Engine::with_artifacts(module, &elab, checker, None, config))
    }

    /// Prepares an engine from pre-built design artifacts: an
    /// elaboration, a checker that already owns the bit-blasted design
    /// (and possibly a warm reachable set / explicit-engine cache), and
    /// optionally a compiled instruction tape for the same design. This
    /// is the constructor a long-lived service uses to amortize
    /// elaboration, blasting, reachability and tape compilation across
    /// repeated closure requests for the same design — everything a
    /// recycled checker keeps is stats-invisible and compilation is
    /// deterministic, so the run's [`ClosureOutcome`] is byte-identical
    /// to one built by [`Engine::new`] (see
    /// [`Checker::reset_for_reuse`]).
    ///
    /// The engine re-applies `config`'s backend and shard settings to
    /// the checker and starts its per-iteration stats attribution from
    /// the checker's current counters, so carried-over sessions never
    /// leak old work into the first iteration report. Without a tape
    /// the engine compiles its own (none under an interpreter backend);
    /// a supplied one — the design's probed tape
    /// ([`CompiledModule::with_elab`]) — is shared by `Arc`, never
    /// cloned.
    pub fn with_artifacts(
        module: &'m Module,
        elab: &gm_rtl::Elab,
        checker: Checker,
        compiled: Option<Arc<CompiledModule>>,
        config: EngineConfig,
    ) -> Self {
        let mut checker = checker
            .with_backend(config.backend)
            .with_shards(config.shards.shard_count());
        // A parked checker must never carry a previous request's raised
        // cancel token into this run.
        checker.set_cancel(None);
        let target_bits: Vec<(SignalId, u32)> = match &config.targets {
            TargetSelection::AllOutputs => module
                .outputs()
                .into_iter()
                .flat_map(|s| (0..module.signal_width(s)).map(move |b| (s, b)))
                .collect(),
            TargetSelection::Signals(sigs) => sigs
                .iter()
                .flat_map(|&s| (0..module.signal_width(s)).map(move |b| (s, b)))
                .collect(),
            TargetSelection::Bits(bits) => bits.clone(),
        };
        // Each bit is mined once, where the list first names it: a
        // repeat would grow the same tree again and propose every
        // property twice.
        let mut listed = FxSet::default();
        let target_bits = target_bits.into_iter().filter(|&bit| listed.insert(bit));
        let targets = target_bits
            .map(|(signal, bit)| {
                let cone = cone_of(module, elab, signal);
                let spec = MiningSpec::for_output(module, elab, &cone, bit, config.window);
                let tree = DecisionTree::new(&spec);
                TargetState {
                    signal,
                    bit,
                    spec,
                    dataset: Dataset::with_horizon(config.temporal.horizon),
                    tree,
                    stuck: None,
                    proved_leaves: Vec::new(),
                    proved: Vec::new(),
                    input_space: 0.0,
                    input_space_stale: false,
                }
            })
            .collect();
        // Attribute only work done *during this run* to its iteration
        // reports: a warm checker may arrive with non-zero counters.
        let reported_stats = checker.session_stats();
        // One tape whether or not coverage is recorded: a replay pays
        // only for the points its observer still has open, so a
        // `NopObserver` replay runs the tape's cached probe-free
        // residual, and the coverage suite stops observing what it has
        // covered.
        let compiled = (config.sim_backend != SimBackend::Interpreter)
            .then(|| compiled.unwrap_or_else(|| Arc::new(CompiledModule::with_elab(module, elab))));
        let coverage = config.record_coverage.then(|| CoverageSuite::new(module));
        Engine {
            module,
            config,
            checker,
            targets,
            suite: TestSuite::new(),
            coverage,
            unreported: 0,
            unknown_assumed: 0,
            reported_stats,
            compiled,
            cancel: None,
            short_traces: 0,
            decided: FxSet::default(),
            temporal_proved: Vec::new(),
            last_uncovered: None,
            history: Vec::new(),
            stopped: None,
            run_span: None,
        }
    }

    /// Installs a cooperative cancel token for the run. Unlike a caller
    /// that stops stepping at an iteration boundary, a raised token
    /// takes effect *mid-iteration*: it is polled between SAT queries
    /// inside the checker's unrolling loops and once per simulated
    /// cycle of every replay — the seed, counterexample and refinement
    /// batches, which also carry the coverage observation. The run then
    /// ends ([`StopReason::Interrupted`]) with a valid outcome of the
    /// work completed so far, marked [`ClosureOutcome::interrupted`] —
    /// an in-flight verification batch or replay is discarded whole (no
    /// trace of a cancelled replay is absorbed, and the coverage suite
    /// it fed is dropped with the unpublished report), never
    /// half-applied, so proved assertions stay sound and the suite
    /// still replays.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.checker.set_cancel(Some(cancel.clone()));
        self.cancel = Some(cancel);
        self
    }

    /// How this run replays reset-rooted segments: on the tape when it
    /// has one, on the interpreter otherwise, under the run's cancel
    /// token. Trace- and coverage-identical either way.
    fn replay(&self) -> Replay<'_> {
        Replay {
            module: self.module,
            compiled: self.compiled.as_deref(),
            block: self.config.sim_backend.lane_block(),
            cancel: self.cancel.as_deref(),
        }
    }

    /// Replays segments `range` of `other` — of the run's own suite
    /// when `None` — as one batch into traces, with the run's coverage
    /// suite observing. The coverage suite is taken out for the replay
    /// and put back only once it completes; a raised cancel token
    /// surfaces as [`McError::Cancelled`] with nothing absorbed, and the
    /// half-fed coverage suite dropped.
    fn replay_traces(
        &mut self,
        other: Option<&TestSuite>,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<Trace>, EngineError> {
        let mut coverage = self.coverage.take();
        let (suite, replay) = (other.unwrap_or(&self.suite), self.replay());
        let shown = range.len();
        let traces = match &mut coverage {
            Some(cov) => replay.traces(suite, range, cov)?,
            None => replay.traces(suite, range, &mut NopObserver)?,
        };
        let traces = traces.ok_or(McError::Cancelled)?;
        self.coverage = coverage;
        self.unreported += shown;
        Ok(traces)
    }

    /// The accumulated test suite (useful mid-run from examples).
    pub fn suite(&self) -> &TestSuite {
        &self.suite
    }

    /// Runs the refinement loop to convergence or budget exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates simulation and model-checking failures. Mining
    /// failures (contradictory windows) are per-target and reported in
    /// the outcome's [`TargetSummary::stuck`] instead.
    pub fn run(self) -> Result<ClosureOutcome, EngineError> {
        self.run_reclaim(|_| true).0
    }

    /// Runs the loop, invoking `on_iteration` after every recorded
    /// [`IterationReport`] (including the iteration-0 seed snapshot).
    /// Returning `false` stops the run at that iteration boundary,
    /// exactly as a [`Engine::step`] caller that stops stepping there.
    /// Observers that always return `true` leave the outcome exactly as
    /// [`Engine::run`] produces it.
    ///
    /// Also hands the checker back (see [`Engine::finish`]), on the
    /// error path too.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn run_reclaim(
        mut self,
        mut on_iteration: impl FnMut(&IterationReport) -> bool,
    ) -> (Result<ClosureOutcome, EngineError>, Checker) {
        let ran = loop {
            match self.step() {
                Ok(Step::Continue(report)) if on_iteration(report) => {}
                Ok(Step::Continue(_)) => break Ok(()),
                Ok(Step::Stop { last, .. }) => {
                    if let Some(report) = last {
                        on_iteration(report);
                    }
                    break Ok(());
                }
                Err(e) => break Err(e),
            }
        };
        let (outcome, checker) = self.finish();
        (ran.map(|()| outcome), checker)
    }

    /// Advances the run by one report: the first call seeds and returns
    /// the iteration-0 snapshot, each later call runs one
    /// counterexample iteration. The call that produces the run's last
    /// report returns it as [`Step::Stop`]; a call after that returns
    /// `Stop` again with no report. A caller may stop stepping at any
    /// [`Step::Continue`] and [`Engine::finish`] there: the outcome is
    /// the run's up to that report.
    ///
    /// A raised cancel token (see [`Engine::with_cancel`]) surfaces as
    /// [`StopReason::Interrupted`] with no report: the cancelled pass is
    /// discarded whole.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`]. An error ends the run: call
    /// [`Engine::finish`] (for the checker) rather than step again.
    pub fn step(&mut self) -> Result<Step<'_>, EngineError> {
        if let Some(reason) = self.stopped {
            return Ok(Step::Stop { reason, last: None });
        }
        let iteration = self.history.len() as u32;
        if iteration == 0 {
            let mut span = gm_trace::span("engine", "engine.run");
            if span.is_active() {
                span.arg("module", self.module.name());
                span.arg("targets", self.targets.len());
            }
            self.run_span = Some(span);
        }
        // A raised cancel token surfaces as `McError::Cancelled` from
        // the checker or a replay. The interrupted pass's results are
        // discarded whole — a failed batch never touches the trees, a
        // cancelled replay's traces are never absorbed (see
        // `iteration_pass`) and its half-fed coverage suite is dropped,
        // and no report is pushed — so the outcome stays valid, just
        // truncated.
        let counts = match self.advance(iteration) {
            Ok(counts) => counts,
            Err(EngineError::Mc(McError::Cancelled)) => {
                self.stopped = Some(StopReason::Interrupted);
                return Ok(Step::Stop {
                    reason: StopReason::Interrupted,
                    last: None,
                });
            }
            Err(e) => return Err(e),
        };
        // The seed snapshot is only ever stopped by the cap.
        self.stopped = if iteration > 0 && self.all_converged() && counts.directed_absorbed == 0 {
            Some(StopReason::Closed)
        } else if iteration > 0 && counts.progress() == 0 {
            // No forward progress possible: remaining leaves are stuck
            // or unknown-open, and (when refinement is on) no directed
            // variant gains coverage anymore.
            Some(StopReason::NoProgress)
        } else if iteration >= self.config.max_iterations {
            Some(StopReason::IterationCap)
        } else {
            None
        };
        let last = self.history.last().expect("just pushed");
        Ok(match self.stopped {
            None => Step::Continue(last),
            Some(reason) => Step::Stop {
                reason,
                last: Some(last),
            },
        })
    }

    /// Runs iteration `iteration` — the seed data for 0, a
    /// counterexample iteration otherwise — and pushes its report, whose
    /// wall time covers both the pass and the snapshot.
    fn advance(&mut self, iteration: u32) -> Result<PassCounts, EngineError> {
        let start = std::time::Instant::now();
        let _span = (iteration > 0).then(|| {
            let mut span = gm_trace::span("engine", "engine.iteration");
            span.arg("iteration", iteration);
            span
        });
        let counts = if iteration == 0 {
            self.seed()?;
            PassCounts::default()
        } else {
            self.iteration_pass(iteration)?
        };
        let mut report = self.snapshot_report(iteration, counts);
        report.timing.total_ns = start.elapsed().as_nanos() as u64;
        self.history.push(report);
        Ok(counts)
    }

    /// Ends the run where it stands and hands back its outcome and the
    /// checker — with its design artifacts (bit-blasted AIG, reachable
    /// set, explicit-engine tables) and session state intact — so a
    /// design cache can park it for the next request of the same
    /// design.
    pub fn finish(self) -> (ClosureOutcome, Checker) {
        let converged = self.all_converged();
        let Engine {
            checker,
            targets,
            suite,
            history,
            temporal_proved,
            unknown_assumed,
            stopped,
            run_span,
            ..
        } = self;
        let summaries = targets
            .iter()
            .map(|t| TargetSummary {
                signal: t.signal,
                bit: t.bit,
                converged: t.stuck.is_none() && t.tree.converged(),
                proved: t.proved.len(),
                tree_nodes: t.tree.node_count(),
                extended: t.tree.is_extended(),
                stuck: t.stuck.clone(),
            })
            .collect();
        let outcome = ClosureOutcome {
            converged,
            iterations: history,
            assertions: targets.into_iter().flat_map(|t| t.proved).collect(),
            temporal: temporal_proved,
            suite,
            targets: summaries,
            unknown_assumed,
            interrupted: stopped == Some(StopReason::Interrupted),
        };
        drop(run_span);
        (outcome, checker)
    }

    /// The data generator: simulates the seed stimulus into the first
    /// suite segment and fits every target's tree on its rows.
    fn seed(&mut self) -> Result<(), EngineError> {
        let _span = gm_trace::span("engine", "engine.seed");
        let seed_vectors = match &self.config.stimulus {
            SeedStimulus::Random { cycles } => {
                let mut stim = RandomStimulus::new(self.module, self.config.seed, *cycles);
                collect_vectors(&mut stim)
            }
            SeedStimulus::Directed(v) => v.clone(),
            SeedStimulus::None => Vec::new(),
        };
        if !seed_vectors.is_empty() {
            self.suite.push("seed", seed_vectors);
            let traces = self.replay_traces(None, 0..1)?;
            let mut short = 0usize;
            for t in &mut self.targets {
                let mut span = gm_trace::span("mine", "mine.extract");
                let rows = t.dataset.add_trace(&t.spec, &traces[0]);
                span.arg("rows", rows.rows.len());
                span.arg("features", t.spec.features.len());
                span.arg("short_traces", rows.short_traces);
                // The extraction report tells short traces apart from
                // (impossible here) zero-row long traces.
                debug_assert!(!rows.rows.is_empty() || rows.short_traces > 0);
                short += rows.short_traces;
            }
            self.short_traces += short;
        }
        for t in &mut self.targets {
            if let Err(e) = t.tree.fit(&t.dataset) {
                t.stuck = Some(e);
            }
        }
        Ok(())
    }

    fn all_converged(&self) -> bool {
        self.targets
            .iter()
            .all(|t| t.stuck.is_none() && t.tree.converged())
    }

    /// Collects the full cross-target worklist of pure open leaves and
    /// their candidate assertions, target-major and ascending by leaf
    /// within a target (the `cex-{iteration}-{n}` labels follow this
    /// order), reading each tree's kept candidate set. Trees are stable
    /// while the worklist is pending (counterexample absorption is
    /// deferred past the dispatch), so each assertion is built once.
    ///
    /// When refinement is enabled and an uncovered-point index is
    /// available, the worklist is coverage-ranked: candidates whose
    /// literals mention signals with more open coverage points come
    /// first, so their counterexamples — the prefixes the directed
    /// synthesizer extends — steer toward uncovered logic. The sort is
    /// stable with the collection order as tie-break, so ranking is
    /// deterministic; with refinement off the order is untouched.
    fn open_candidates(&self) -> Vec<(usize, usize, Assertion)> {
        let live = (self.targets.iter().enumerate()).filter(|(_, t)| t.stuck.is_none());
        let mut worklist: Vec<(usize, usize, Assertion)> = live
            .flat_map(|(ti, t)| {
                let candidate = move |leaf| (ti, leaf, assertion_at(&t.tree, &t.spec, leaf));
                t.tree.candidate_leaves().map(candidate)
            })
            .collect();
        if self.config.refine.enabled() {
            if let Some(index) = &self.last_uncovered {
                let gain_of = |(_, _, a): &(usize, usize, Assertion)| -> usize {
                    let mut sigs: Vec<SignalId> =
                        a.literals.iter().map(|(f, _)| f.signal).collect();
                    sigs.push(a.target.signal);
                    sigs.sort_unstable();
                    sigs.dedup();
                    sigs.into_iter().map(|s| index.signal_gain(s)).sum()
                };
                // Stable, so the order and every `cex-*` label are
                // those of a plain sort; each key is computed once.
                worklist.sort_by_cached_key(|cand| std::cmp::Reverse(gain_of(cand)));
            }
        }
        worklist
    }

    /// The temporal pass's candidates: every live target's temporal
    /// templates ([`temporal_candidates`]), target-major and in the
    /// miner's leaf order.
    fn temporal_worklist(&self) -> Vec<(usize, usize, Assertion)> {
        let live = (self.targets.iter().enumerate()).filter(|(_, t)| t.stuck.is_none());
        live.flat_map(|(ti, t)| {
            let candidates = temporal_candidates(&t.tree, &t.spec, &t.dataset).into_iter();
            candidates.map(move |(leaf, assertion)| (ti, leaf, assertion))
        })
        .collect()
    }

    /// One iteration's passes. The window pass decides every open
    /// candidate as one property batch through the checker's shared
    /// verification session (the §7 optimization the paper describes);
    /// the temporal pass decides the leaves' temporal templates the same
    /// way ([`Engine::decide`]), and the refinement pass follows when
    /// enabled.
    fn iteration_pass(&mut self, iteration: u32) -> Result<PassCounts, EngineError> {
        // The counterexamples this iteration discovers are moved into
        // the suite, in decision order, from here on: the refinement
        // pass reads them back as the prefixes it extends toward
        // uncovered logic.
        let first_cex = self.suite.len();
        let verify_start = std::time::Instant::now();
        let mut verify_span = gm_trace::span("engine", "engine.verify");
        let (_, refuted) = self.decide(Pass::Window, iteration, self.open_candidates())?;
        verify_span.arg("refuted", refuted);
        drop(verify_span);
        let mut counts = PassCounts {
            refuted,
            ..PassCounts::default()
        };
        counts.timing.verify_ns = verify_start.elapsed().as_nanos() as u64;
        if self.config.temporal.enabled() {
            let temporal_start = std::time::Instant::now();
            let mut span = gm_trace::span("engine", "engine.temporal");
            let candidates = self.temporal_worklist();
            let (dispatched, refuted) = self.decide(Pass::Temporal, iteration, candidates)?;
            span.arg("candidates", dispatched);
            span.arg("refuted", refuted);
            drop(span);
            counts.temporal_candidates = dispatched;
            counts.temporal_refuted = refuted;
            counts.timing.temporal_ns = temporal_start.elapsed().as_nanos() as u64;
        }
        if self.config.refine.enabled() {
            let refine_start = std::time::Instant::now();
            let mut span = gm_trace::span("engine", "engine.refine");
            counts.directed_absorbed = self.refinement_pass(iteration, first_cex)?;
            span.arg("absorbed", counts.directed_absorbed);
            drop(span);
            counts.timing.refine_ns = refine_start.elapsed().as_nanos() as u64;
        }
        Ok(counts)
    }

    /// Decides one pass's `(target, leaf, assertion)` candidates as one
    /// batch: drops those whose property is remembered as decided,
    /// dispatches the rest, files each verdict, pushes the
    /// counterexamples as `cex-*` (`tcex-*`) segments in decision order
    /// and absorbs them. Returns `(dispatched, refuted)`.
    ///
    /// A window verdict files the leaf's status: proved (or assumed
    /// true) leaves freeze, refuted ones re-split on their
    /// counterexample, and one left open on `Unknown` is remembered. A
    /// temporal verdict never touches the leaf — a refuted stability
    /// window says nothing about the leaf's single-cycle implication —
    /// so a proved one joins the run's temporal list and every one is
    /// remembered, which is also what makes the temporal pass converge.
    /// The two passes never remember each other's properties: a window
    /// property has one consequent, at the target offset, and a temporal
    /// one a later offset or several.
    ///
    /// The batch holds no duplicate, so nothing is deduped here: targets
    /// are distinct bits and a consequent names its target's bit, and a
    /// tree's leaves are distinct paths.
    fn decide(
        &mut self,
        pass: Pass,
        iteration: u32,
        candidates: Vec<(usize, usize, Assertion)>,
    ) -> Result<(usize, usize), EngineError> {
        let mut batch = Vec::with_capacity(candidates.len());
        let mut props = Vec::with_capacity(candidates.len());
        for (ti, leaf, assertion) in candidates {
            let prop = assertion_property(&assertion);
            if !self.decided.contains(&prop) {
                batch.push((ti, leaf, assertion));
                props.push(prop);
            }
        }
        // One dispatch for the whole pass, split across the configured
        // shard sessions (identical results either way — see the module
        // docs' determinism contract).
        let (results, prefix) = match pass {
            Pass::Window => (self.checker.check_batch(&props)?, "cex"),
            Pass::Temporal => (self.checker.check_temporal_batch(&props)?, "tcex"),
        };
        let dispatched = props.len();
        let mut refuted = 0usize;
        for (((ti, leaf, assertion), prop), result) in batch.into_iter().zip(props).zip(results) {
            let (holds, open) = match result {
                CheckResult::Proved => (true, false),
                CheckResult::Violated(cex) => {
                    refuted += 1;
                    self.suite
                        .push(format!("{prefix}-{iteration}-{refuted}"), cex.inputs);
                    (false, false)
                }
                CheckResult::Unknown { .. } => {
                    let assume = self.config.unknown == UnknownPolicy::AssumeTrue;
                    self.unknown_assumed += usize::from(assume);
                    (assume, !assume)
                }
            };
            match pass {
                Pass::Window if holds => self.targets[ti].set_proved(leaf, assertion),
                Pass::Temporal if holds => self.temporal_proved.push(assertion),
                _ => {}
            }
            if open || pass == Pass::Temporal {
                self.decided.insert(prop);
            }
        }
        // Simulation never depended on absorption, so the segments
        // replay together and are absorbed in decision order.
        self.absorb_suite_tail(refuted)?;
        Ok((dispatched, refuted))
    }

    /// Ctx_simulation for one pass: replays the `count` counterexample
    /// segments the pass has just pushed — the tail of the suite, read
    /// where it is stored — as one batch, coverage observing, then
    /// absorbs their traces in push order.
    fn absorb_suite_tail(&mut self, count: usize) -> Result<(), EngineError> {
        let len = self.suite.len();
        let traces = self.replay_traces(None, len - count..len)?;
        self.absorb_traces(&traces);
        Ok(())
    }

    /// One coverage-ranked refinement pass: extend this iteration's
    /// counterexamples (the suite segments from `first_cex` on, in
    /// decision order) with deterministic random suffixes, score every
    /// variant against the last coverage snapshot's uncovered-point
    /// index, and absorb the top gainers as `dir-*` suite segments (and
    /// mining rows). Returns the number of segments absorbed.
    ///
    /// A variant costs its lane words: [`DirectedVariants`] writes each
    /// one straight into a scratch suite, one observe-only replay of
    /// that suite scores all of them at once ([`GainObserver`]), and
    /// only the at most `max_absorb` winners are replayed again, as one
    /// batch, into the traces the miner absorbs and the coverage suite
    /// observes. Nothing reaches the suite or the trees until those
    /// traces are back: a cancelled batch, either one, discards the pass
    /// whole.
    ///
    /// Scores are computed against the frozen snapshot index, not
    /// re-queried between absorptions; only strictly-positive gains are
    /// absorbed, so total absorptions over a run are bounded by the
    /// design's coverage-point count and the loop cannot spin.
    fn refinement_pass(&mut self, iteration: u32, first_cex: usize) -> Result<usize, EngineError> {
        let Some(index) = self
            .last_uncovered
            .as_ref()
            .filter(|index| !index.is_empty())
        else {
            return Ok(0);
        };
        let rc = self.config.refine;
        // Iteration-distinct but run-deterministic seeds; with no
        // counterexamples this iteration, probe outward from reset.
        let base_seed = self
            .config
            .seed
            .wrapping_add((iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // The variants are a suite of their own; labels are given to the
        // winners only.
        let mut variants = TestSuite::new();
        let mut writer = DirectedVariants::new(self.module, rc.extra_cycles);
        if first_cex == self.suite.len() {
            writer.push(&mut variants, None, base_seed, rc.variants);
        }
        for (pi, s) in (first_cex..self.suite.len()).enumerate() {
            let seed = base_seed.wrapping_add(pi as u64);
            writer.push(&mut variants, Some((&self.suite, s)), seed, rc.variants);
        }
        let mut gains = GainObserver::new(self.module, index, variants.len());
        (self.replay())
            .observe(&variants, 0..variants.len(), &mut gains)?
            .ok_or(McError::Cancelled)?;
        let mut scored: Vec<(usize, usize)> = gains.into_gains().into_iter().enumerate().collect();
        // Rank by gain, stable on synthesis order for ties.
        scored.sort_by_key(|&(_, gain)| std::cmp::Reverse(gain));
        let mut winners = TestSuite::new();
        for &(i, _) in scored
            .iter()
            .take(rc.max_absorb)
            .take_while(|&&(_, gain)| gain > 0)
        {
            let label = format!("dir-{iteration}-{}", winners.len() + 1);
            winners.push(label, variants.segment(i).vectors);
        }
        let traces = self.replay_traces(Some(&winners), 0..winners.len())?;
        for segment in winners.segments() {
            self.suite.push(segment.label, segment.vectors);
        }
        self.absorb_traces(&traces);
        Ok(winners.len())
    }

    /// Feeds a pass's traces into every target's dataset and tree (the
    /// shared test suite improves all outputs, §3), target-major: each
    /// target takes every trace in order, until one leaves it stuck.
    /// A target works in its own dataset, tree and `stuck` only, so the
    /// order across targets changes nothing.
    fn absorb_traces(&mut self, traces: &[Trace]) {
        if traces.is_empty() {
            return;
        }
        let mut span = gm_trace::span("mine", "mine.absorb");
        let mut short = 0usize;
        let (mut absorbed, mut resplit_leaves) = (0usize, 0usize);
        for t in &mut self.targets {
            for trace in traces {
                if t.stuck.is_some() {
                    break;
                }
                let rows = t.dataset.add_trace(&t.spec, trace);
                short += rows.short_traces;
                absorbed += rows.rows.len();
                match t.tree.add_rows(&t.dataset, &rows.rows) {
                    Ok(resplit) => resplit_leaves += resplit,
                    Err(e) => t.stuck = Some(e),
                }
            }
        }
        self.short_traces += short;
        span.arg("traces", traces.len());
        span.arg("rows", absorbed);
        span.arg("resplit_leaves", resplit_leaves);
    }

    /// The iteration's report. Coverage is read off the run's coverage
    /// suite, which every trace replay has already fed: nothing is
    /// replayed here.
    fn snapshot_report(&mut self, iteration: u32, counts: PassCounts) -> IterationReport {
        let mut proved_total = 0usize;
        let mut candidates = 0usize;
        let mut isc_sum = 0.0f64;
        for t in &mut self.targets {
            if std::mem::take(&mut t.input_space_stale) {
                t.input_space = input_space_coverage(&t.proved, self.module);
            }
            proved_total += t.proved.len();
            isc_sum += t.input_space;
            candidates += t.tree.candidate_count();
        }
        let input_space = if self.targets.is_empty() {
            0.0
        } else {
            isc_sum / self.targets.len() as f64
        };
        let mut timing = counts.timing;
        let coverage = self.coverage.as_ref().map(|cov| {
            let coverage_start = std::time::Instant::now();
            let mut coverage_span = gm_trace::span("engine", "engine.coverage");
            coverage_span.arg("segments", self.suite.len());
            coverage_span.arg("new_segments", self.unreported);
            // Freeze this snapshot's uncovered points for the next
            // refinement pass's gain ranking.
            if self.config.refine.enabled() {
                self.last_uncovered = Some(UncoveredIndex::from_suite(cov));
            }
            let report = cov.report();
            drop(coverage_span);
            timing.coverage_ns = coverage_start.elapsed().as_nanos() as u64;
            report
        });
        self.unreported = 0;
        // Attribute the session work done since the last report to this
        // iteration.
        let cumulative = self.checker.session_stats();
        let verification = cumulative - self.reported_stats;
        self.reported_stats = cumulative;
        IterationReport {
            iteration,
            candidates,
            proved_total,
            refuted: counts.refuted,
            input_space_coverage: input_space,
            coverage,
            suite_cycles: self.suite.total_cycles(),
            short_traces: self.short_traces,
            temporal_candidates: counts.temporal_candidates,
            temporal_proved: self.temporal_proved.len(),
            temporal_refuted: counts.temporal_refuted,
            directed_absorbed: counts.directed_absorbed,
            verification,
            timing,
        }
    }
}
