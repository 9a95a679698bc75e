//! The counterexample-guided refinement engine (the paper's Figure 3).
//!
//! One [`Engine`] run executes the full loop:
//!
//! 1. **Data generator** — simulate the seed stimulus (random, directed,
//!    or none), capturing the bits every target's spec reads;
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
//!    ([`gm_sim::Replay`]) with the run's coverage suite observing and
//!    the run's [`ConeCapture`] recording, per cycle, every bit any
//!    target's spec reads, extend every target's dataset in bulk, and
//!    re-split only the refuted leaves. The pass is absorbed
//!    trace-major: each trace's windows are cut once per *layout* —
//!    the targets whose specs share their features and target offset —
//!    by the layout's first live target, its layout-mates copy those
//!    rows and read only their own target bits, and every live target
//!    routes its rows into its tree. Each target still takes the traces
//!    in push order and stops at its first error, working in its own
//!    dataset and tree only, so no target's result depends on the
//!    order;
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
//!   the miner absorbs — the seed, each pass's `cex-*`/`tcex-*`
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
//!   when that list grew — it is a function of the list alone — over
//!   input cubes kept beside the list ([`gm_mine::InputSpace`]): a list
//!   that grew at its end adds only the new proofs' cubes, and a proof
//!   filed before the last one rebuilds them;
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
    temporal_candidates, Assertion, ConeCapture, Dataset, DecisionTree, ExtractedRows, Feature,
    InputSpace, MiningSpec, Target, TemporalTemplate, WindowPlan,
};
use gm_rtl::{cone_of, elaborate, Module, SignalId};
use gm_sim::{
    collect_vectors, CompiledModule, DirectedVariants, NopObserver, RandomStimulus, Replay,
    SegmentLabel, SimBackend, TestSuite,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Converts a mined assertion into the model checker's property form:
/// the value demanded at every consequent offset
/// ([`ConsequentKind::All`]), or at *some* offset for a bounded
/// eventuality ([`ConsequentKind::Any`]). A point consequent — `Now` or
/// `Next` — is one atom, which [`WindowProperty::new`] stores as `Any`.
pub fn assertion_property(a: &Assertion) -> WindowProperty {
    let mut prop = WindowProperty::new(Vec::new(), Vec::new(), ConsequentKind::Any);
    write_property(&mut prop, a);
    prop
}

/// [`assertion_property`] of `a`, written over `prop` in place.
fn write_property(prop: &mut WindowProperty, a: &Assertion) {
    let consequents = (a.consequent_offsets())
        .map(|off| BitAtom::new(a.target.signal, a.target.bit, off, a.value));
    let kind = match a.template {
        TemporalTemplate::Eventually { .. } => ConsequentKind::Any,
        TemporalTemplate::Now
        | TemporalTemplate::Next { .. }
        | TemporalTemplate::Stability { .. } => ConsequentKind::All,
    };
    prop.rewrite(
        a.literals.iter().map(|&(f, v)| atom(f, v)),
        consequents,
        kind,
    );
}

/// The property of leaf `leaf` of `t`'s tree —
/// `assertion_property(&assertion_at(&t.tree, &t.spec, leaf))` — written
/// over `prop` in place, read off the tree without building the
/// assertion.
fn write_leaf_property(prop: &mut WindowProperty, t: &TargetState, leaf: usize) {
    let target = t.spec.target;
    let value = t.tree.node(leaf).prediction();
    let consequent = BitAtom::new(target.signal, target.bit, target.offset, value);
    let up = t
        .tree
        .path_up(leaf)
        .map(|(f, v)| atom(t.spec.features[f], v));
    // Room for the whole path at once: the walk up has no length to
    // reserve by, and a slot written deeper than before would grow
    // step by step.
    prop.antecedent.clear();
    prop.antecedent.reserve(up.clone().count());
    prop.rewrite(up, [consequent], ConsequentKind::All);
    prop.antecedent.reverse();
}

/// A path literal as a property atom.
fn atom(f: Feature, value: bool) -> BitAtom {
    BitAtom::new(f.signal, f.bit, f.offset, value)
}

/// The assertion of the leaf whose property [`write_leaf_property`]
/// wrote as `prop` for `target` — `assertion_at` of the same leaf —
/// read back off the property's atoms, which hold the path literals in
/// order, rather than off the tree.
fn leaf_assertion(prop: &WindowProperty, target: Target) -> Assertion {
    let literals = (prop.antecedent.iter())
        .map(|a| {
            let feature = Feature {
                signal: a.signal,
                bit: a.bit,
                offset: a.offset,
            };
            (feature, a.value)
        })
        .collect();
    Assertion {
        literals,
        target,
        value: prop.consequents[0].value,
        template: TemporalTemplate::Now,
    }
}

/// One pass's candidates, kept across passes: the properties are
/// rewritten in place, so a warm pass builds none. The first `n` of
/// each list, for the `n` the pass loaded, are its batch.
#[derive(Default)]
struct Worklist {
    props: Vec<WindowProperty>,
    /// Beside each property: its target and leaf.
    at: Vec<(usize, usize)>,
    /// Beside each property of a temporal pass: its assertion.
    temporal: Vec<Assertion>,
}

impl Worklist {
    /// Slot `n`'s property to write over, made when the storage has
    /// never held that many.
    fn slot(&mut self, n: usize) -> &mut WindowProperty {
        if n == self.props.len() {
            self.props.push(WindowProperty::new(
                Vec::new(),
                Vec::new(),
                ConsequentKind::Any,
            ));
        }
        &mut self.props[n]
    }

    /// Slot `i`'s property, moved out (the slot is left empty).
    fn take(&mut self, i: usize) -> WindowProperty {
        let empty = WindowProperty::new(Vec::new(), Vec::new(), ConsequentKind::Any);
        std::mem::replace(&mut self.props[i], empty)
    }
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
    /// How the spec's windows are read out of the run's capture.
    plan: WindowPlan,
    dataset: Dataset,
    tree: DecisionTree,
    stuck: Option<gm_mine::MineError>,
    /// The proved leaves in ascending node order — node indices are
    /// stable and a proved leaf never splits, so the list only grows —
    /// and, index for index, their assertions: what
    /// [`gm_mine::assertion_at`] would re-derive from each leaf.
    proved_leaves: Vec<usize>,
    proved: Vec<Assertion>,
    /// This target's input-space coverage term: the cubes of `proved`,
    /// kept as the list grows.
    input_space: InputSpace,
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
            self.input_space.inserted(at);
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
    /// Every target's cone bits, captured per cycle of the last
    /// replay, and the targets grouped by layout (equal features and
    /// target offset, so equal feature words), ascending in each group.
    capture: ConeCapture,
    layouts: Vec<Vec<usize>>,
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
    /// The pass in hand's candidates, their properties rewritten in
    /// place every pass.
    work: Worklist,
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
    /// Propagates elaboration and blasting failures, and
    /// [`EngineError::Target`] for a selected bit past its signal's
    /// width.
    pub fn new(module: &'m Module, config: EngineConfig) -> Result<Self, EngineError> {
        let elab = elaborate(module)?;
        let checker = Checker::from_elab(module, &elab)?;
        Engine::with_artifacts(module, &elab, checker, None, config)
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
    ///
    /// # Errors
    ///
    /// [`EngineError::Target`] for a selected bit past its signal's
    /// width.
    pub fn with_artifacts(
        module: &'m Module,
        elab: &gm_rtl::Elab,
        checker: Checker,
        compiled: Option<Arc<CompiledModule>>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
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
        let specs: Vec<(SignalId, u32, MiningSpec)> = target_bits
            .map(|(signal, bit)| {
                let cone = cone_of(module, elab, signal);
                let spec = MiningSpec::for_output(module, elab, &cone, bit, config.window);
                (signal, bit, spec)
            })
            .collect();
        let (capture, plans) = ConeCapture::new(module, specs.iter().map(|(_, _, spec)| spec))?;
        let targets: Vec<TargetState> = (specs.into_iter().zip(plans))
            .map(|((signal, bit, spec), plan)| TargetState {
                signal,
                bit,
                tree: DecisionTree::new(&spec),
                spec,
                plan,
                dataset: Dataset::with_horizon(config.temporal.horizon),
                stuck: None,
                proved_leaves: Vec::new(),
                proved: Vec::new(),
                input_space: InputSpace::default(),
            })
            .collect();
        let mut layouts: Vec<Vec<usize>> = Vec::new();
        for (ti, t) in targets.iter().enumerate() {
            let lead = |layout: &&mut Vec<usize>| {
                let lead = &targets[layout[0]].spec;
                lead.features == t.spec.features && lead.target.offset == t.spec.target.offset
            };
            match layouts.iter_mut().find(lead) {
                Some(layout) => layout.push(ti),
                None => layouts.push(vec![ti]),
            }
        }
        let mut checker = checker
            .with_backend(config.backend)
            .with_shards(config.shards.shard_count());
        // A parked checker must never carry a previous request's raised
        // cancel token into this run.
        checker.set_cancel(None);
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
        Ok(Engine {
            module,
            config,
            checker,
            targets,
            capture,
            layouts,
            suite: TestSuite::new(),
            coverage,
            unreported: 0,
            unknown_assumed: 0,
            reported_stats,
            compiled,
            cancel: None,
            short_traces: 0,
            decided: FxSet::default(),
            work: Worklist::default(),
            temporal_proved: Vec::new(),
            last_uncovered: None,
            history: Vec::new(),
            stopped: None,
            run_span: None,
        })
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
    /// when `None` — as one batch into the run's capture, with the
    /// run's coverage suite observing. The coverage suite is taken out
    /// for the replay and put back only once it completes; a raised
    /// cancel token surfaces as [`McError::Cancelled`] with nothing
    /// captured, and the half-fed coverage suite dropped.
    fn capture_replay(
        &mut self,
        other: Option<&TestSuite>,
        range: std::ops::Range<usize>,
    ) -> Result<(), EngineError> {
        let mut coverage = self.coverage.take();
        let replay = Replay {
            module: self.module,
            compiled: self.compiled.as_deref(),
            block: self.config.sim_backend.lane_block(),
            cancel: self.cancel.as_deref(),
        };
        let (suite, capture) = (other.unwrap_or(&self.suite), &mut self.capture);
        let shown = range.len();
        let done = match &mut coverage {
            Some(cov) => capture.replay(&replay, suite, range, cov)?,
            None => capture.replay(&replay, suite, range, &mut NopObserver)?,
        };
        done.ok_or(McError::Cancelled)?;
        self.coverage = coverage;
        self.unreported += shown;
        Ok(())
    }

    /// The accumulated test suite (useful mid-run from examples).
    pub fn suite(&self) -> &TestSuite {
        &self.suite
    }

    /// Runs the refinement loop to convergence or budget exhaustion:
    /// [`Engine::step`] until it stops, then [`Engine::finish`].
    ///
    /// # Errors
    ///
    /// Propagates simulation and model-checking failures. Mining
    /// failures (contradictory windows) are per-target and reported in
    /// the outcome's [`TargetSummary::stuck`] instead.
    pub fn run(mut self) -> Result<ClosureOutcome, EngineError> {
        while let Step::Continue(_) = self.step()? {}
        Ok(self.finish().0)
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
        // cancelled replay leaves nothing captured to absorb (see
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
            self.capture_replay(None, 0..1)?;
            let mut short = 0usize;
            for layout in &self.layouts {
                let mut cutter = None;
                for &ti in layout {
                    let mut span = gm_trace::span("mine", "mine.extract");
                    let rows = take_trace(&mut self.targets, ti, &mut cutter, &self.capture, 0);
                    span.arg("rows", rows.rows.len());
                    span.arg("features", self.targets[ti].spec.features.len());
                    span.arg("short_traces", rows.short_traces);
                    // The extraction report tells short traces apart from
                    // (impossible here) zero-row long traces.
                    debug_assert!(!rows.rows.is_empty() || rows.short_traces > 0);
                    short += rows.short_traces;
                }
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

    /// Loads the window pass's worklist: every live target's pure open
    /// leaves, target-major and ascending by leaf within a target (the
    /// `cex-{iteration}-{n}` labels follow this order), read off each
    /// tree's kept candidate set, each leaf's property written in
    /// place ([`write_leaf_property`]) and dropped when it is
    /// remembered as decided. Returns how many are left. Trees are
    /// stable while the worklist is pending (counterexample absorption
    /// is deferred past the dispatch), so the assertion of a leaf filed
    /// as proved is read back off its property then
    /// ([`leaf_assertion`]).
    ///
    /// When refinement is enabled and an uncovered-point index is
    /// available, the worklist is coverage-ranked: candidates whose
    /// literals mention signals with more open coverage points come
    /// first, so their counterexamples — the prefixes the directed
    /// synthesizer extends — steer toward uncovered logic. The sort is
    /// stable with the collection order as tie-break, so ranking is
    /// deterministic; with refinement off the order is untouched.
    fn window_worklist(&mut self) -> usize {
        let work = &mut self.work;
        work.at.clear();
        let live = (self.targets.iter().enumerate()).filter(|(_, t)| t.stuck.is_none());
        for (ti, t) in live {
            for leaf in t.tree.candidate_leaves() {
                let prop = work.slot(work.at.len());
                write_leaf_property(prop, t, leaf);
                if !self.decided.contains(prop) {
                    work.at.push((ti, leaf));
                }
            }
        }
        let n = work.at.len();
        let index = self.last_uncovered.as_ref();
        if let Some(index) = index.filter(|_| self.config.refine.enabled()) {
            let gain_of = |prop: &WindowProperty| -> usize {
                let atoms = prop.antecedent.iter().chain(&prop.consequents);
                let mut sigs: Vec<SignalId> = atoms.map(|a| a.signal).collect();
                sigs.sort_unstable();
                sigs.dedup();
                sigs.into_iter().map(|s| index.signal_gain(s)).sum()
            };
            // Stable, so the order and every `cex-*` label are those of
            // a plain sort; each key is computed once.
            let mut ranked: Vec<_> = work.at.drain(..).zip(work.props.drain(..n)).collect();
            ranked.sort_by_cached_key(|(_, prop)| std::cmp::Reverse(gain_of(prop)));
            let (at, props): (Vec<_>, Vec<_>) = ranked.into_iter().unzip();
            work.at = at;
            work.props.splice(0..0, props);
        }
        n
    }

    /// Loads the temporal pass's worklist: every live target's
    /// temporal templates ([`temporal_candidates`]), target-major and
    /// in the miner's leaf order, each property written in place and
    /// dropped when it is remembered as decided. Returns how many are
    /// left.
    fn temporal_worklist(&mut self) -> usize {
        let work = &mut self.work;
        work.at.clear();
        work.temporal.clear();
        let live = (self.targets.iter().enumerate()).filter(|(_, t)| t.stuck.is_none());
        for (ti, t) in live {
            for (leaf, assertion) in temporal_candidates(&t.tree, &t.spec, &t.dataset) {
                let prop = work.slot(work.at.len());
                write_property(prop, &assertion);
                if !self.decided.contains(prop) {
                    work.at.push((ti, leaf));
                    work.temporal.push(assertion);
                }
            }
        }
        work.at.len()
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
        let candidates = self.window_worklist();
        let (_, refuted) = self.decide(Pass::Window, iteration, candidates)?;
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

    /// Decides one pass's worklist, its first `n` candidates (see
    /// [`Engine::window_worklist`], [`Engine::temporal_worklist`]), as
    /// one batch: dispatches it, files each verdict, writes the
    /// counterexamples into the suite as `cex-*` (`tcex-*`) segments in
    /// decision order and absorbs them. Returns `(dispatched, refuted)`.
    ///
    /// A window verdict files the leaf's status: proved (or assumed
    /// true) leaves freeze, with the assertion read off their property,
    /// refuted ones re-split on their counterexample, and one left open
    /// on `Unknown` is remembered. A temporal verdict never touches the
    /// leaf — a refuted stability window says nothing about the leaf's
    /// single-cycle implication — so a proved one joins the run's
    /// temporal list and every one is remembered, which is also what
    /// makes the temporal pass converge. The two passes never remember
    /// each other's properties: a window property has one consequent,
    /// at the target offset, and a temporal one a later offset or
    /// several.
    ///
    /// A counterexample goes from the checker's buffer straight into
    /// the suite's lanes ([`TestSuite::push_bits`]), so it is packed
    /// once and builds no vector, and its label is kept as numbers.
    ///
    /// The batch holds no duplicate, so nothing is deduped here: targets
    /// are distinct bits and a consequent names its target's bit, and a
    /// tree's leaves are distinct paths.
    fn decide(
        &mut self,
        pass: Pass,
        iteration: u32,
        n: usize,
    ) -> Result<(usize, usize), EngineError> {
        // One dispatch for the whole pass, split across the configured
        // shard sessions (identical results either way — see the module
        // docs' determinism contract).
        let props = &self.work.props[..n];
        let (results, kind) = match pass {
            Pass::Window => (self.checker.check_batch(props)?, "cex"),
            Pass::Temporal => (self.checker.check_temporal_batch(props)?, "tcex"),
        };
        let mut temporal = std::mem::take(&mut self.work.temporal).into_iter();
        let mut refuted = 0usize;
        for (i, result) in results.into_iter().enumerate() {
            let (ti, leaf) = self.work.at[i];
            let (holds, open) = match result {
                CheckResult::Proved => (true, false),
                CheckResult::Violated(cex) => {
                    refuted += 1;
                    let label = SegmentLabel::numbered(kind, iteration, refuted);
                    (self.suite).push_bits(label, cex.layout(), cex.bits(), cex.len());
                    (false, false)
                }
                CheckResult::Unknown { .. } => {
                    let assume = self.config.unknown == UnknownPolicy::AssumeTrue;
                    self.unknown_assumed += usize::from(assume);
                    (assume, !assume)
                }
            };
            match pass {
                Pass::Window if holds => {
                    let t = &mut self.targets[ti];
                    let assertion = leaf_assertion(&self.work.props[i], t.spec.target);
                    t.set_proved(leaf, assertion);
                }
                Pass::Temporal => {
                    let assertion = temporal.next().expect("one assertion per candidate");
                    if holds {
                        self.temporal_proved.push(assertion);
                    }
                }
                Pass::Window => {}
            }
            if open || pass == Pass::Temporal {
                self.decided.insert(self.work.take(i));
            }
        }
        // Simulation never depended on absorption, so the segments
        // replay together and are absorbed in decision order.
        self.absorb_suite_tail(refuted)?;
        Ok((n, refuted))
    }

    /// Ctx_simulation for one pass: replays the `count` counterexample
    /// segments the pass has just pushed — the tail of the suite, read
    /// where it is stored — as one batch, coverage observing, then
    /// absorbs their traces in push order.
    fn absorb_suite_tail(&mut self, count: usize) -> Result<(), EngineError> {
        let len = self.suite.len();
        self.capture_replay(None, len - count..len)?;
        self.absorb_capture();
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
    /// batch, into the capture the miner absorbs, the coverage suite
    /// observing. Nothing reaches the suite or the trees until that
    /// replay is back: a cancelled batch, either one, discards the pass
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
        // The variants are a suite of their own, and so are the winners;
        // labels are given as the winners join the run's suite.
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
            winners.push("", variants.segment(i).vectors);
        }
        self.capture_replay(Some(&winners), 0..winners.len())?;
        for (k, segment) in winners.segments().enumerate() {
            let label = SegmentLabel::numbered("dir", iteration, k + 1);
            self.suite.push(label, segment.vectors);
        }
        self.absorb_capture();
        Ok(winners.len())
    }

    /// Feeds the captured pass into every live target's dataset and
    /// tree (the shared test suite improves all outputs, §3),
    /// trace-major: each trace is cut once per layout and taken by
    /// every live target in it, so each target takes every trace in
    /// order, until one leaves it stuck. A target works in its own
    /// dataset, tree and `stuck` only, and reads its layout-mates' rows
    /// of the trace it is taking, never their state.
    fn absorb_capture(&mut self) {
        let traces = self.capture.trace_count();
        if traces == 0 {
            return;
        }
        let mut span = gm_trace::span("mine", "mine.absorb");
        let (mut short, mut absorbed, mut resplit_leaves, mut cuts) = (0usize, 0usize, 0usize, 0);
        for trace in 0..traces {
            for layout in &self.layouts {
                let mut cutter = None;
                for &ti in layout {
                    if self.targets[ti].stuck.is_some() {
                        continue;
                    }
                    cuts += usize::from(cutter.is_none());
                    let rows = take_trace(&mut self.targets, ti, &mut cutter, &self.capture, trace);
                    short += rows.short_traces;
                    absorbed += rows.rows.len();
                    let t = &mut self.targets[ti];
                    match t.tree.add_rows(&t.dataset, &rows.rows) {
                        Ok(resplit) => resplit_leaves += resplit,
                        Err(e) => t.stuck = Some(e),
                    }
                }
            }
        }
        self.short_traces += short;
        span.arg("traces", traces);
        span.arg("layouts", self.layouts.len());
        span.arg("cuts", cuts);
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
            proved_total += t.proved.len();
            isc_sum += t.input_space.coverage(&t.proved, self.module);
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

/// Adds trace `trace` of `capture` to target `ti`'s dataset. The first
/// target of a layout to take the trace cuts its windows and becomes
/// the layout's `cutter` (with the first row it cut); the layout-mates
/// after it copy those rows and read only their own target bits.
fn take_trace(
    targets: &mut [TargetState],
    ti: usize,
    cutter: &mut Option<(usize, usize)>,
    capture: &ConeCapture,
    trace: usize,
) -> ExtractedRows {
    let (before, rest) = targets.split_at_mut(ti);
    let t = &mut rest[0];
    match *cutter {
        Some((ci, first)) => {
            t.dataset
                .add_windows_from(&before[ci].dataset, first, &t.plan, capture, trace)
        }
        None => {
            let rows = t.dataset.add_windows(&t.plan, capture, trace);
            *cutter = Some((ti, rows.rows.start));
            rows
        }
    }
}

#[cfg(test)]
mod tests;
