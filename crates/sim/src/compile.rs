//! The compiled bit-parallel simulation backend.
//!
//! The tree-walking [`crate::Simulator`] re-traverses the statement AST
//! for every cycle of every stimulus vector. This module lowers an
//! elaborated module **once** into a flat, topologically ordered
//! instruction tape — SSA-style bytecode over a dense `u64` register
//! file — and executes that tape instead. No AST is touched on the hot
//! path and no [`Bv`] values are materialized between instructions.
//!
//! # Tape format
//!
//! A [`CompiledModule`] holds two tapes: the *settle* tape (every
//! combinational process, flattened in elaboration's topological order)
//! and the *edge* tape (every sequential process, writing into
//! next-state shadow registers that are committed at the clock edge, so
//! non-blocking semantics fall out of the register file layout).
//! Registers are written once per tape execution (SSA): the first
//! `signal_count` registers mirror the module's signal table, state
//! signals get one extra shadow register, constants are pre-broadcast
//! at executor construction, and every subexpression gets a fresh
//! temporary.
//!
//! Control flow is lowered to *predication*: each statement executes
//! under a 1-bit mask register, `if`/`case` refine the mask per branch
//! (first-match-wins for `case` arms), and assignments merge into their
//! destination under the mask. This makes the tape straight-line — the
//! prerequisite for running many stimulus vectors per pass.
//!
//! # Lane encoding (bit parallelism in blocks of W words)
//!
//! There is one executor, [`BatchSim<W>`]: one register bit = a *lane
//! block* of `W` words (`W` ∈ {1, 2, 4, 8}), where **bit `k` of block
//! word `j` carries stimulus vector (lane) `j*64 + k`**. Bitwise ops are
//! lane-parallel for free; arithmetic ripples carries across the
//! bit-sliced words; predication masks become per-lane words. One tape
//! execution simulates up to `64·W` independent reset-rooted segments
//! simultaneously, and the per-instruction inner loops unroll over the
//! block so tape dispatch amortizes across `W` words. Ragged segment
//! tails keep the active-lane-mask treatment at every 64-lane boundary
//! of the block. A lone segment is a batch of one lane — which is why
//! callers with several segments to replay hand them over together
//! ([`crate::Replay`]) instead of one call each: a pass costs the same
//! whether one lane or all of them are active.
//!
//! Stimulus reaches the lanes in the same encoding. The executor reads
//! a [`crate::PackedStimulus`] and nothing else: segments dealt onto
//! *lane groups* of 64 (segment `s` is lane `s % 64` of group `s / 64`;
//! block word `j` of chunk `c` reads group `c·W + j`, so one form feeds
//! every `W`), and per group and cycle one *active* word plus, per
//! driven input bit, a *value* word and a *drive* word. Feeding a cycle
//! is `slot = (slot & !drive) | value` per input-bit row — no per-lane
//! loop — and the drive word is what keeps the interpreter's semantics
//! that an input a vector does not name (or a lane whose segment has
//! ended) holds its previous value, and that a signal named twice takes
//! the last one. That form is the only storage a [`crate::TestSuite`]
//! has, so a replay of any range of a suite reads the range's lane
//! groups where they lie and masks the lanes outside it: nothing is
//! packed per replay.
//! The other end is as flat: a batch's [`Trace`]s share one signal
//! table and store rows in one `Vec<u64>` each, filled from one pass
//! over the cycle's snapshot per block word
//! (`LaneSnapshot::gather_rows`).
//!
//! Observation happens through [`BatchObserver`]: statement/branch
//! events carry a per-lane-block hit set ([`LaneSet`]), and cycle
//! boundaries expose a [`LaneSnapshot`] for toggle/FSM/trace consumers.
//! Boolean-node probes (compiled in for every width-1 non-constant
//! subexpression of watched expressions, in the same pre-order the
//! coverage collectors enumerate) are *fused* into the tape: the
//! executor OR-accumulates per-probe hit words inline (one true word
//! and one false word per probe per block word, no dynamic dispatch)
//! and collectors drain them in bulk through
//! [`BatchObserver::drain_probes`].
//!
//! Observation costs only what is still open. Every observation
//! instruction reports one [`ObsPoint`], and an observer says through
//! [`BatchObserver::closed`] which points it has nothing left to learn
//! from. The executor runs the *residual* tape: the tape minus the
//! observation instructions of the closed points. It asks at the start
//! of every pass over a range's lane groups and again after 1, 2, 4, …
//! cycles of the pass (draining probe hits first), and rebuilds the
//! residual only when the closed set grew. Lowering emits
//! the same instructions and registers with or without observation, so
//! the all-closed residual is exactly the probe-free tape; a module
//! keeps it cached and switches to it, without filtering, once every
//! point is closed. A [`crate::NopObserver`] (everything closed) on a
//! module therefore costs what the probe-free tape costs, which is why
//! a design has one tape: trace-only replays and coverage-carrying ones
//! run the same module. ([`CompileOptions`] with `probes: false`
//! compiles that stripped tape as a module of its own, for the
//! benchmarks and tests that pin it.)
//!
//! # When the interpreter is still used
//!
//! The interpreter remains the reference semantics and the differential
//! oracle: `sim/compiled_agree` proves trace- and coverage-identity on
//! the whole design catalog plus randomized modules, for every
//! supported lane-block width, down to one-segment and ragged suites.
//! [`SimBackend::Interpreter`] selects it for a whole run (the agree
//! suites' reference leg); it is also what observer code using the
//! borrowing [`crate::SimObserver`] API keeps running on.

use crate::packed::{PackedStimulus, GROUP_LANES};
use crate::sim::{BranchOutcome, ExprRole};
use crate::suite::TestSuite;
use crate::trace::{Trace, TraceShape};
use gm_rtl::{
    elaborate, BinaryOp, Bv, Elab, Expr, Module, Result, SignalId, Stmt, StmtId, StmtKind, UnaryOp,
};
use std::collections::HashMap;
use std::ops::Range;

/// The widest supported lane block, in 64-lane words (512 lanes).
pub const MAX_LANE_BLOCK: usize = 8;

/// Which simulation engine executes stimulus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimBackend {
    /// The tree-walking interpreter ([`crate::Simulator`]): the
    /// reference semantics and the differential oracle.
    Interpreter,
    /// The compiled tape in bit-parallel mode over a lane block of `W`
    /// 64-lane words: bit `k` of every tape word carries stimulus
    /// vector `k`, so one tape execution simulates up to `64·W`
    /// segments. The width is normalized to the nearest supported
    /// block (1, 2, 4 or 8 words → 64–512 lanes — see
    /// [`SimBackend::lane_block`]). The default is `CompiledBatch(1)`,
    /// the 64-lane batch.
    CompiledBatch(u8),
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::CompiledBatch(1)
    }
}

impl SimBackend {
    /// Words per lane block for the batch executors — 1, 2, 4 or 8,
    /// rounding an unsupported requested width up to the next
    /// supported one (capped at [`MAX_LANE_BLOCK`]). The interpreter
    /// runs one vector at a time and reports 1.
    pub fn lane_block(&self) -> usize {
        match self {
            SimBackend::Interpreter => 1,
            SimBackend::CompiledBatch(w) => CompiledModule::normalized_block(usize::from(*w)),
        }
    }

    /// Stimulus vectors simulated per pass: `64·lane_block` for the
    /// compiled tape, 1 for the interpreter.
    pub fn lanes(&self) -> usize {
        match self {
            SimBackend::Interpreter => 1,
            SimBackend::CompiledBatch(_) => 64 * self.lane_block(),
        }
    }
}

/// What gets compiled into a tape beyond the design logic.
///
/// Program code has one tape per design, the probed one
/// ([`CompiledModule::compile`], [`CompiledModule::with_elab`]): a
/// replay whose observer has closed every point (a
/// [`crate::NopObserver`]) already runs its cached probe-free residual.
/// This type and [`CompiledModule::compile_with`] remain for the
/// benchmark harness, `crates/bench` and the simulator's own tests,
/// which measure or pin the stripped tape as a module of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Compile observation instructions — statement/branch events and
    /// the fused boolean-node probes — into the tapes. With `false`
    /// the tape carries no observation work at all (and an empty probe
    /// table): it is the probed tape with every observation instruction
    /// stripped, the instructions a probed tape runs under an observer
    /// that closes every point.
    pub probes: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { probes: true }
    }
}

/// The set of lanes an observation event fired in: one `u64` per block
/// word, bit `k` of word `j` = lane `j*64 + k`.
#[derive(Clone, Copy, Debug)]
pub struct LaneSet<'a>(&'a [u64]);

impl<'a> LaneSet<'a> {
    /// Wraps per-word lane hit masks.
    pub fn new(words: &'a [u64]) -> Self {
        LaneSet(words)
    }

    /// The raw per-word hit masks (block-sized).
    pub fn words(&self) -> &'a [u64] {
        self.0
    }

    /// Hit mask of block word `j` (0 beyond the block).
    #[inline]
    pub fn word(&self, j: usize) -> u64 {
        self.0.get(j).copied().unwrap_or(0)
    }

    /// Whether any lane is in the set.
    pub fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Whether lane `lane` is in the set.
    #[inline]
    pub fn contains(&self, lane: u32) -> bool {
        self.word(lane as usize / 64) >> (lane % 64) & 1 == 1
    }
}

/// A bulk view of the fused boolean-node probe hits accumulated by a
/// batch executor: which probes saw a true value and which saw a false
/// value in any active lane since the executor was created. Drained
/// through [`BatchObserver::drain_probes`].
#[derive(Debug)]
pub struct ProbeHits<'a> {
    probes: &'a [(StmtId, ExprRole, u32)],
    any_true: &'a [u64],
    any_false: &'a [u64],
    block: usize,
}

impl ProbeHits<'_> {
    /// The number of probes in the tape.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the tape has no probes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Calls `f(stmt, role, node, any_true, any_false)` for every probe
    /// that fired at least once with either polarity. `node` is the
    /// pre-order boolean-node index within the watched expression
    /// (node before children, children in syntactic order) — the
    /// enumeration the coverage collectors use.
    pub fn for_each(&self, mut f: impl FnMut(StmtId, ExprRole, u32, bool, bool)) {
        for (p, &(stmt, role, node)) in self.probes.iter().enumerate() {
            let words = p * self.block;
            let t = self.any_true[words..words + self.block]
                .iter()
                .any(|&w| w != 0);
            let fa = self.any_false[words..words + self.block]
                .iter()
                .any(|&w| w != 0);
            if t || fa {
                f(stmt, role, node, t, fa);
            }
        }
    }
}

/// Observation hooks for compiled simulation, lane-parallel.
///
/// Statement/branch/cycle events carry a [`LaneSet`] (one stimulus
/// vector per bit of each block word). Events with an empty lane set
/// are not delivered, mirroring the interpreter (statements in untaken
/// branches produce no events).
///
/// Boolean-node probes are fused into the tape: the executor
/// accumulates per-probe hit words inline and delivers them in bulk
/// through [`BatchObserver::drain_probes`] — at least once per
/// completed pass, possibly batching many cycles into one drain. Probe
/// polarity is monotone (a node that was ever true in an active lane
/// stays "seen true"), so a batched drain is observationally identical
/// to a per-cycle one, and repeated drains are idempotent.
///
/// At the start of every pass, and after 1, 2, 4, … cycles of it, the
/// executor asks [`BatchObserver::closed`] about every observation
/// point still on its tape and stops reporting the closed ones (see the
/// module docs): the statement, branch and probe events above arrive
/// only for points the observer has not closed. Cycle events always
/// arrive.
pub trait BatchObserver {
    /// Whether this observer has recorded everything it ever will from
    /// `point`, so that no further event there can change what it
    /// reports. Must be monotone: once a point is closed it stays
    /// closed, because the executor drops its observation instruction
    /// and does not put it back for the rest of the replay. The
    /// default, never closed, keeps every event flowing.
    fn closed(&self, _point: ObsPoint) -> bool {
        false
    }
    /// A statement executed in the given lanes.
    fn on_stmt(&mut self, _stmt: StmtId, _lanes: &LaneSet<'_>) {}
    /// A control statement resolved to `outcome` in the given lanes.
    fn on_branch(&mut self, _stmt: StmtId, _outcome: BranchOutcome, _lanes: &LaneSet<'_>) {}
    /// Fused probe hits accumulated by the executor, drained in bulk
    /// (see the trait docs for delivery granularity).
    fn drain_probes(&mut self, _hits: &ProbeHits<'_>) {}
    /// A cycle finished settling in the given lanes; `snap` is the
    /// settled pre-edge snapshot of every signal.
    fn on_cycle_end(&mut self, _cycle: u64, _lanes: &LaneSet<'_>, _snap: &LaneSnapshot<'_>) {}
    /// A pass is about to run `lanes` from reset (before its reset
    /// cycle, if the design has one). The lanes are contiguous: the
    /// lowest replays the `first`-th segment of the replayed range and
    /// each next lane the next segment. A zero-length segment on a
    /// reset-free design reports no cycle, so this is how an observer
    /// maps lanes to segments.
    fn on_pass_start(&mut self, _first: usize, _lanes: &LaneSet<'_>) {}
}

/// What one observation instruction of a tape reports: the point an
/// observer can close ([`BatchObserver::closed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObsPoint {
    /// A statement executed ([`BatchObserver::on_stmt`]).
    Stmt(StmtId),
    /// A control statement took an outcome ([`BatchObserver::on_branch`]).
    Branch(StmtId, BranchOutcome),
    /// Boolean node `node` of the expression `stmt` watches in `role`
    /// was seen true or false ([`BatchObserver::drain_probes`]).
    Probe(StmtId, ExprRole, u32),
}

/// The one no-op observer serves both engines; it learns nothing from
/// any point, so on a probed tape it runs the probe-free instructions.
impl BatchObserver for crate::NopObserver {
    fn closed(&self, _point: ObsPoint) -> bool {
        true
    }
}

/// Register index into a compiled tape's register file.
type Reg = u32;

/// One tape instruction. Operand semantics mirror [`Bv`]: operands are
/// zero-extended to the destination width, arithmetic wraps, predicates
/// produce one bit.
#[derive(Clone, Copy, Debug)]
enum Inst {
    And {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Or {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Xor {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Not {
        d: Reg,
        a: Reg,
    },
    Neg {
        d: Reg,
        a: Reg,
    },
    Add {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Sub {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Mul {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Eq {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Ne {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Lt {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Le {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Shl {
        d: Reg,
        a: Reg,
        amt: Reg,
    },
    Shr {
        d: Reg,
        a: Reg,
        amt: Reg,
    },
    ShlC {
        d: Reg,
        a: Reg,
        amt: u32,
    },
    ShrC {
        d: Reg,
        a: Reg,
        amt: u32,
    },
    RedAnd {
        d: Reg,
        a: Reg,
    },
    RedOr {
        d: Reg,
        a: Reg,
    },
    RedXor {
        d: Reg,
        a: Reg,
    },
    LogicNot {
        d: Reg,
        a: Reg,
    },
    Truth {
        d: Reg,
        a: Reg,
    },
    Mux {
        d: Reg,
        c: Reg,
        t: Reg,
        e: Reg,
    },
    Index {
        d: Reg,
        a: Reg,
        bit: u32,
    },
    Slice {
        d: Reg,
        a: Reg,
        lo: u32,
    },
    Concat {
        d: Reg,
        hi: Reg,
        lo: Reg,
    },
    Resize {
        d: Reg,
        a: Reg,
    },
    /// `d = a & !b` over 1-bit mask registers.
    AndNot {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    /// Masked merge: `d = mask ? src : d` (per lane).
    Store {
        d: Reg,
        src: Reg,
        mask: Reg,
    },
    ObsStmt {
        stmt: StmtId,
        mask: Reg,
    },
    ObsBranch {
        stmt: StmtId,
        outcome: BranchOutcome,
        mask: Reg,
    },
    ObsBool {
        probe: u32,
        val: Reg,
        mask: Reg,
    },
}

impl Inst {
    fn is_obs(&self) -> bool {
        matches!(
            self,
            Inst::ObsStmt { .. } | Inst::ObsBranch { .. } | Inst::ObsBool { .. }
        )
    }

    /// The point an observation instruction reports (`probes` resolves
    /// probe indices); `None` for design logic.
    fn point(&self, probes: &[(StmtId, ExprRole, u32)]) -> Option<ObsPoint> {
        match *self {
            Inst::ObsStmt { stmt, .. } => Some(ObsPoint::Stmt(stmt)),
            Inst::ObsBranch { stmt, outcome, .. } => Some(ObsPoint::Branch(stmt, outcome)),
            Inst::ObsBool { probe, .. } => {
                let (stmt, role, node) = probes[probe as usize];
                Some(ObsPoint::Probe(stmt, role, node))
            }
            _ => None,
        }
    }
}

/// A settle tape and an edge tape.
#[derive(Clone, Debug)]
struct Tape {
    /// Combinational settle tape (processes in topological order).
    comb: Vec<Inst>,
    /// Sequential edge tape (writes next-state shadows).
    seq: Vec<Inst>,
}

impl Tape {
    fn len(&self) -> usize {
        self.comb.len() + self.seq.len()
    }

    fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.comb.iter().chain(&self.seq)
    }

    /// The observation instructions on the tape.
    fn obs_count(&self) -> usize {
        self.insts().filter(|i| i.is_obs()).count()
    }

    /// The tape without the observation instructions whose point is
    /// `closed` — design logic is always kept, in order.
    fn residual(
        &self,
        probes: &[(StmtId, ExprRole, u32)],
        closed: impl Fn(ObsPoint) -> bool,
    ) -> Tape {
        let keep = |i: &&Inst| i.point(probes).is_none_or(|p| !closed(p));
        Tape {
            comb: self.comb.iter().filter(keep).copied().collect(),
            seq: self.seq.iter().filter(keep).copied().collect(),
        }
    }
}

/// The part of a module's tape an observer still watches during one
/// replay: the tape minus the observation instructions of the points
/// the observer has closed. Closure is monotone, so it only shrinks;
/// once nothing is open it is the module's cached probe-free tape.
struct Residual<'c> {
    module: &'c CompiledModule,
    /// The filtered tape while it differs from both the module's tape
    /// and its probe-free one.
    own: Option<Tape>,
    /// Observation instructions left on [`Residual::tape`].
    open: usize,
}

impl<'c> Residual<'c> {
    fn new(module: &'c CompiledModule) -> Self {
        Residual {
            module,
            own: None,
            open: module.tape.obs_count(),
        }
    }

    fn tape(&self) -> &Tape {
        match &self.own {
            Some(tape) => tape,
            None if self.open == 0 => self.module.probe_free(),
            None => &self.module.tape,
        }
    }

    /// Drops the observation instructions of every point `obs` has
    /// closed since the last call; a no-op when it closed none, and a
    /// switch to the cached probe-free tape, with nothing filtered,
    /// when it closed all.
    fn refresh(&mut self, obs: &dyn BatchObserver) {
        if self.open == 0 {
            return;
        }
        let probes = &self.module.probes;
        let tape = self.tape();
        let closed = |p: ObsPoint| obs.closed(p);
        let closing = (tape.insts())
            .filter(|i| i.point(probes).is_some_and(closed))
            .count();
        if closing == 0 {
            return;
        }
        self.own = (closing < self.open).then(|| tape.residual(probes, closed));
        self.open -= closing;
    }
}

/// An elaborated module lowered to instruction tapes, shareable across
/// any number of executors.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// The settle and edge tapes, with observation instructions when
    /// compiled with probes.
    tape: Tape,
    /// With probes, the probed tape with every observation instruction
    /// stripped — the residual once every point is closed. `None`
    /// without probes: `tape` is that tape then.
    bare: Option<Tape>,
    /// Width of each register.
    widths: Vec<u32>,
    /// Per-register bit offset for the bit-sliced arena (one lane-block
    /// of words per bit).
    base: Vec<u32>,
    /// Total bit rows in the bit-sliced arena (× block words = arena
    /// size).
    words_total: usize,
    /// Number of signals (registers `0..n` mirror the signal table).
    n_signals: usize,
    /// Power-on value per signal.
    sig_init: Vec<u64>,
    /// `(current, shadow)` register pairs for state signals.
    state_pairs: Vec<(Reg, Reg)>,
    /// Constant registers and their values, preloaded per executor.
    const_inits: Vec<(Reg, u64)>,
    /// Probe table: `ObsBool` indices resolve to `(stmt, role, node)`.
    probes: Vec<(StmtId, ExprRole, u32)>,
    /// The designated reset input, for the suite reset protocol.
    reset: Option<SignalId>,
    /// Data inputs (cleared during the reset pulse).
    data_inputs: Vec<SignalId>,
}

impl CompiledModule {
    /// Elaborates `module` and lowers it to tapes with default options
    /// (probes compiled in).
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors (see [`gm_rtl::elaborate`]).
    pub fn compile(module: &Module) -> Result<Self> {
        Self::compile_with(module, CompileOptions::default())
    }

    /// Elaborates `module` and lowers it to tapes with the given
    /// options. There is one lowering: without probes the tape is the
    /// probed one with its observation instructions stripped.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors (see [`gm_rtl::elaborate`]).
    pub fn compile_with(module: &Module, options: CompileOptions) -> Result<Self> {
        let mut c = Self::with_elab(module, &elaborate(module)?);
        if !options.probes {
            c.tape = c
                .bare
                .take()
                .expect("the probed lowering keeps its stripped tape");
            c.probes = Vec::new();
        }
        Ok(c)
    }

    /// Lowers an already elaborated module to tapes, probes compiled
    /// in.
    pub fn with_elab(module: &Module, elab: &Elab) -> Self {
        Compiler::lower(module, elab)
    }

    /// Total instruction count across both tapes.
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// The tape with no observation instructions.
    fn probe_free(&self) -> &Tape {
        self.bare.as_ref().unwrap_or(&self.tape)
    }

    /// The number of registers in the tape's register file.
    pub fn register_count(&self) -> usize {
        self.widths.len()
    }

    /// The number of compiled boolean-node probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Approximate resident size of the compiled module — the
    /// accounting input for a design cache that parks compiled modules
    /// alongside checkers (an estimate, not an allocator figure).
    ///
    /// Beyond the tapes (the cached probe-free one included) and tables
    /// this includes the per-executor arenas a parked tape feeds — the
    /// bit-sliced register file and the fused probe-hit buffers — sized
    /// at the widest supported lane block ([`MAX_LANE_BLOCK`]), so a
    /// byte-budgeted cache stays honest no matter which `W` a checkout
    /// later runs at.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.tape_len() + self.bare.as_ref().map_or(0, Tape::len))
                * std::mem::size_of::<Inst>()
            + (self.widths.len() + self.base.len()) * std::mem::size_of::<u32>()
            + self.sig_init.len() * std::mem::size_of::<u64>()
            + self.state_pairs.len() * std::mem::size_of::<(Reg, Reg)>()
            + self.const_inits.len() * std::mem::size_of::<(Reg, u64)>()
            + self.probes.len() * std::mem::size_of::<(StmtId, ExprRole, u32)>()
            + self.data_inputs.len() * std::mem::size_of::<SignalId>()
            // Widest-case executor arena: words_total bit rows × W words.
            + self.words_total * MAX_LANE_BLOCK * std::mem::size_of::<u64>()
            // Fused probe-hit buffers (true + false word per probe per
            // block word).
            + self.probes.len() * 2 * MAX_LANE_BLOCK * std::mem::size_of::<u64>()
    }

    /// Widths of the module's signals, by signal index — what a
    /// [`PackedStimulus`]'s learned row widths must match.
    pub(crate) fn signal_widths(&self) -> &[u32] {
        &self.widths[..self.n_signals]
    }

    /// Runs segments `range` of `suite` through a batch executor with a
    /// lane block of `block` words (`64·block` lanes per pass),
    /// `collect_traces` deciding whether per-lane traces are
    /// materialized (coverage-only callers skip the transpose). `block`
    /// is normalized to the nearest supported width (1, 2, 4, 8).
    ///
    /// A pass reads `block` consecutive lane groups of the suite's
    /// packed form where they lie; lane `k` of group `g` replays segment
    /// `64·g + k` from reset exactly as a run of its own would, and lanes
    /// outside the range are masked out of the reset and active words
    /// (they compute, but nothing observes them).
    ///
    /// The cooperative `cancel` token is polled once per simulated cycle
    /// of every pass; a raised token returns `None` — no partial traces
    /// or coverage for the batch are published (observer callbacks up to
    /// the cancel point have already fired, which is why cancelled
    /// passes must be discarded by the caller).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_segments_batched(
        &self,
        module: &Module,
        suite: &TestSuite,
        range: Range<usize>,
        obs: &mut dyn BatchObserver,
        collect_traces: bool,
        cancel: Option<&std::sync::atomic::AtomicBool>,
        block: usize,
    ) -> Option<Vec<Trace>> {
        let (stimulus, range) = suite.feed(self.signal_widths(), range);
        let mut span = gm_trace::span("sim", "sim.batch");
        if span.is_active() {
            span.arg("segments", range.len());
            span.arg("first_segment", range.start);
            span.arg("groups", lane_groups(&range).len());
            span.arg("lane_block", Self::normalized_block(block));
            span.arg("lanes", 64 * Self::normalized_block(block));
            span.arg("probes", self.probes.len());
            span.arg("traces", collect_traces);
            span.arg(
                "cycles",
                stimulus.lens()[range.clone()].iter().sum::<usize>(),
            );
        }
        let out = self.run_segments_batched_untraced(
            module,
            &stimulus,
            range,
            obs,
            collect_traces,
            cancel,
            block,
        );
        span.arg("cancelled", out.is_none());
        out
    }

    /// [`Self::run_segments_batched`] minus the span wrapper and the
    /// width check ([`TestSuite::feed`]) — the pre-trace machine code,
    /// kept callable so the recorder-overhead bench can measure the
    /// instrumented entry against a true baseline on identical inner
    /// code.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_segments_batched_untraced(
        &self,
        module: &Module,
        stimulus: &PackedStimulus,
        range: Range<usize>,
        obs: &mut dyn BatchObserver,
        collect_traces: bool,
        cancel: Option<&std::sync::atomic::AtomicBool>,
        block: usize,
    ) -> Option<Vec<Trace>> {
        let shape = collect_traces.then(|| TraceShape::for_module(module));
        match Self::normalized_block(block) {
            1 => self.run_segments_blocked::<1>(stimulus, range, obs, shape, cancel),
            2 => self.run_segments_blocked::<2>(stimulus, range, obs, shape, cancel),
            4 => self.run_segments_blocked::<4>(stimulus, range, obs, shape, cancel),
            _ => self.run_segments_blocked::<8>(stimulus, range, obs, shape, cancel),
        }
    }

    /// Maps a requested lane-block width onto the supported monomorphized
    /// widths (1, 2, 4, 8) exactly as the executor dispatch does.
    fn normalized_block(block: usize) -> usize {
        match block {
            0 | 1 => 1,
            2 => 2,
            3 | 4 => 4,
            _ => 8,
        }
    }

    fn run_segments_blocked<const W: usize>(
        &self,
        stimulus: &PackedStimulus,
        range: Range<usize>,
        obs: &mut dyn BatchObserver,
        trace_shape: Option<std::sync::Arc<TraceShape>>,
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> Option<Vec<Trace>> {
        let cancelled = || cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Acquire));
        let mut traces: Vec<Trace> = match &trace_shape {
            Some(shape) => range
                .clone()
                .map(|s| Trace::with_shape(shape.clone(), stimulus.lens()[s]))
                .collect(),
            None => Vec::new(),
        };
        // One word's worth of trace rows, lane-major.
        let stride = self.n_signals;
        let mut stage = vec![0u64; trace_shape.as_ref().map_or(0, |_| 64 * stride)];
        let rows = stimulus.arena_rows(&self.base);
        let mut residual = Residual::new(self);
        for first in lane_groups(&range).step_by(W) {
            // Block word `j` reads lane group `first + j`, masked to the
            // range's lanes.
            let lanes: [u64; W] = std::array::from_fn(|j| lanes_in(&range, first + j));
            let mut sim = BatchSim::<W>::new(self);
            obs.on_pass_start(
                (first * GROUP_LANES).max(range.start) - range.start,
                &LaneSet::new(&lanes),
            );
            residual.refresh(obs);
            sim.reset_on(residual.tape(), &lanes, obs);
            // Until every lane of the pass has ended.
            for t in 0usize.. {
                let mut active = [0u64; W];
                for (j, word) in active.iter_mut().enumerate() {
                    if let Some(record) = stimulus.record(first + j, t) {
                        *word = record[0] & lanes[j];
                        sim.drive_word(j, &rows, &record[1..]);
                    }
                }
                if active == [0; W] {
                    break;
                }
                if cancelled() {
                    return None;
                }
                // What the observer closed so far goes unobserved:
                // checked at the pass start and after 1, 2, 4, … of its
                // cycles (probe hits drained first), so a wide pass sheds
                // points about as early as a narrow one, at a cost
                // logarithmic in its length.
                if t.is_power_of_two() && residual.open > 0 {
                    sim.drain_probes_to(obs);
                    residual.refresh(obs);
                }
                let tape = residual.tape();
                sim.settle_on(tape, &active, Some(obs));
                let snap = sim.snapshot();
                obs.on_cycle_end(sim.cycle(), &LaneSet::new(&active), &snap);
                if trace_shape.is_some() {
                    for (j, &word) in active.iter().enumerate() {
                        if word == 0 {
                            continue;
                        }
                        snap.gather_rows(j, word, &mut stage);
                        let mut left = word;
                        while left != 0 {
                            let k = left.trailing_zeros() as usize;
                            left &= left - 1;
                            traces[(first + j) * GROUP_LANES + k - range.start]
                                .push_row_raw(&stage[k * stride..][..stride]);
                        }
                    }
                }
                sim.clock_edge_on(tape, &active, Some(obs));
            }
            sim.drain_probes_to(obs);
        }
        Some(traces)
    }
}

/// The lane groups segments `range` lie in.
fn lane_groups(range: &Range<usize>) -> Range<usize> {
    range.start / GROUP_LANES..range.end.div_ceil(GROUP_LANES)
}

/// The lanes of group `group` that hold segments of `range`.
fn lanes_in(range: &Range<usize>, group: usize) -> u64 {
    let first = group * GROUP_LANES;
    let (lo, hi) = (range.start.max(first), range.end.min(first + GROUP_LANES));
    if lo >= hi {
        0
    } else {
        ones_mask(hi - lo) << (lo - first)
    }
}

/// The low `n` bits set (`n` ≤ 64).
#[inline]
fn ones_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Pre-order probe assignment context for one watched expression.
#[derive(Clone, Copy)]
struct ProbeCtx {
    stmt: StmtId,
    role: ExprRole,
    mask: Reg,
    next: u32,
}

/// Lowers statements and expressions into tape instructions.
struct Compiler<'m> {
    module: &'m Module,
    widths: Vec<u32>,
    consts: HashMap<(u64, u32), Reg>,
    const_inits: Vec<(Reg, u64)>,
    probes: Vec<(StmtId, ExprRole, u32)>,
    tape: Vec<Inst>,
    next_of: Vec<Option<Reg>>,
    in_seq: bool,
}

impl<'m> Compiler<'m> {
    /// The probed lowering of `module` — every statement, branch outcome
    /// and watched boolean node gets its observation instruction — with
    /// its stripped tape cached.
    fn lower(module: &'m Module, elab: &Elab) -> CompiledModule {
        let n = module.signals().len();
        let mut c = Compiler {
            module,
            widths: module.signals().iter().map(|s| s.width()).collect(),
            consts: HashMap::new(),
            const_inits: Vec::new(),
            probes: Vec::new(),
            tape: Vec::new(),
            next_of: vec![None; n],
            in_seq: false,
        };
        let mut state_pairs = Vec::new();
        for sig in elab.state_signals() {
            let shadow = c.reg(module.signal_width(sig));
            c.next_of[sig.index()] = Some(shadow);
            state_pairs.push((sig.index() as Reg, shadow));
        }
        let ones = c.const_reg(1, 1);
        for &pi in elab.comb_order() {
            for st in &module.processes()[pi].body {
                c.compile_stmt(st, ones);
            }
        }
        let comb = std::mem::take(&mut c.tape);
        c.in_seq = true;
        for &pi in elab.seq_processes() {
            for st in &module.processes()[pi].body {
                c.compile_stmt(st, ones);
            }
        }
        let seq = std::mem::take(&mut c.tape);

        let mut base = Vec::with_capacity(c.widths.len());
        let mut off = 0u32;
        for &w in &c.widths {
            base.push(off);
            off += w;
        }
        let tape = Tape { comb, seq };
        CompiledModule {
            bare: Some(tape.residual(&c.probes, |_| true)),
            tape,
            base,
            words_total: off as usize,
            n_signals: n,
            sig_init: module.signals().iter().map(|s| s.init().bits()).collect(),
            state_pairs,
            const_inits: c.const_inits,
            probes: c.probes,
            reset: module.reset(),
            data_inputs: module.data_inputs(),
            widths: c.widths,
        }
    }

    fn reg(&mut self, width: u32) -> Reg {
        self.widths.push(width);
        (self.widths.len() - 1) as Reg
    }

    fn const_reg(&mut self, bits: u64, width: u32) -> Reg {
        let bits = Bv::new(bits, width).bits();
        if let Some(&r) = self.consts.get(&(bits, width)) {
            return r;
        }
        let r = self.reg(width);
        self.consts.insert((bits, width), r);
        self.const_inits.push((r, bits));
        r
    }

    fn width_of(&self, e: &Expr) -> u32 {
        e.width_in(&|s: SignalId| self.module.signal_width(s))
    }

    fn emit(&mut self, inst: Inst) {
        self.tape.push(inst);
    }

    /// 1-bit truthiness of a register (the register itself when already
    /// one bit wide).
    fn truthy(&mut self, r: Reg) -> Reg {
        if self.widths[r as usize] == 1 {
            r
        } else {
            let d = self.reg(1);
            self.emit(Inst::Truth { d, a: r });
            d
        }
    }

    fn and1(&mut self, a: Reg, b: Reg) -> Reg {
        let d = self.reg(1);
        self.emit(Inst::And { d, a, b });
        d
    }

    fn or1(&mut self, a: Reg, b: Reg) -> Reg {
        let d = self.reg(1);
        self.emit(Inst::Or { d, a, b });
        d
    }

    fn andnot1(&mut self, a: Reg, b: Reg) -> Reg {
        let d = self.reg(1);
        self.emit(Inst::AndNot { d, a, b });
        d
    }

    fn resize_to(&mut self, r: Reg, w: u32) -> Reg {
        if self.widths[r as usize] == w {
            r
        } else {
            let d = self.reg(w);
            self.emit(Inst::Resize { d, a: r });
            d
        }
    }

    fn compile_watched(&mut self, e: &Expr, stmt: StmtId, role: ExprRole, mask: Reg) -> Reg {
        let mut probe = ProbeCtx {
            stmt,
            role,
            mask,
            next: 0,
        };
        self.compile_expr(e, &mut probe)
    }

    /// Compiles an expression, emitting an `ObsBool` probe for every
    /// width-1 non-constant node. Probe indices are assigned pre-order
    /// (node before children, children in syntactic order) — exactly
    /// the enumeration the coverage collectors use.
    fn compile_expr(&mut self, e: &Expr, probe: &mut ProbeCtx) -> Reg {
        let w = self.width_of(e);
        let probe_idx = (w == 1 && !matches!(e, Expr::Const(_))).then(|| {
            probe.next += 1;
            probe.next - 1
        });
        let r = match e {
            Expr::Const(b) => self.const_reg(b.bits(), b.width()),
            Expr::Signal(s) => s.index() as Reg,
            Expr::Unary(op, a) => {
                let ra = self.compile_expr(a, probe);
                let d = self.reg(w);
                let inst = match op {
                    UnaryOp::Not => Inst::Not { d, a: ra },
                    UnaryOp::Neg => Inst::Neg { d, a: ra },
                    UnaryOp::RedAnd => Inst::RedAnd { d, a: ra },
                    UnaryOp::RedOr => Inst::RedOr { d, a: ra },
                    UnaryOp::RedXor => Inst::RedXor { d, a: ra },
                    UnaryOp::LogicNot => Inst::LogicNot { d, a: ra },
                };
                self.emit(inst);
                d
            }
            Expr::Binary(op, a, b) => {
                let ra = self.compile_expr(a, probe);
                let rb = self.compile_expr(b, probe);
                match op {
                    BinaryOp::Shl | BinaryOp::Shr => self.compile_shift(*op, ra, rb, b, w),
                    BinaryOp::LogicAnd | BinaryOp::LogicOr => {
                        let ta = self.truthy(ra);
                        let tb = self.truthy(rb);
                        let d = self.reg(1);
                        self.emit(if *op == BinaryOp::LogicAnd {
                            Inst::And { d, a: ta, b: tb }
                        } else {
                            Inst::Or { d, a: ta, b: tb }
                        });
                        d
                    }
                    _ => {
                        let d = self.reg(w);
                        let inst = match op {
                            BinaryOp::And => Inst::And { d, a: ra, b: rb },
                            BinaryOp::Or => Inst::Or { d, a: ra, b: rb },
                            BinaryOp::Xor => Inst::Xor { d, a: ra, b: rb },
                            BinaryOp::Add => Inst::Add { d, a: ra, b: rb },
                            BinaryOp::Sub => Inst::Sub { d, a: ra, b: rb },
                            BinaryOp::Mul => Inst::Mul { d, a: ra, b: rb },
                            BinaryOp::Eq => Inst::Eq { d, a: ra, b: rb },
                            BinaryOp::Ne => Inst::Ne { d, a: ra, b: rb },
                            BinaryOp::Lt => Inst::Lt { d, a: ra, b: rb },
                            BinaryOp::Le => Inst::Le { d, a: ra, b: rb },
                            // `a > b` is `b < a`, mirroring Bv::eval.
                            BinaryOp::Gt => Inst::Lt { d, a: rb, b: ra },
                            BinaryOp::Ge => Inst::Le { d, a: rb, b: ra },
                            _ => unreachable!("shift/logic ops handled above"),
                        };
                        self.emit(inst);
                        d
                    }
                }
            }
            Expr::Mux {
                cond,
                then_val,
                else_val,
            } => {
                let rc = self.compile_expr(cond, probe);
                let rt = self.compile_expr(then_val, probe);
                let re = self.compile_expr(else_val, probe);
                let tc = self.truthy(rc);
                let d = self.reg(w);
                self.emit(Inst::Mux {
                    d,
                    c: tc,
                    t: rt,
                    e: re,
                });
                d
            }
            Expr::Index { base, bit } => {
                let ra = self.compile_expr(base, probe);
                let d = self.reg(1);
                self.emit(Inst::Index {
                    d,
                    a: ra,
                    bit: *bit,
                });
                d
            }
            Expr::Slice { base, hi: _, lo } => {
                let ra = self.compile_expr(base, probe);
                let d = self.reg(w);
                self.emit(Inst::Slice { d, a: ra, lo: *lo });
                d
            }
            Expr::Concat(parts) => {
                let regs: Vec<Reg> = parts.iter().map(|p| self.compile_expr(p, probe)).collect();
                let mut acc = regs[0];
                for &lo in &regs[1..] {
                    let wd = self.widths[acc as usize] + self.widths[lo as usize];
                    let d = self.reg(wd);
                    self.emit(Inst::Concat { d, hi: acc, lo });
                    acc = d;
                }
                acc
            }
        };
        if let Some(i) = probe_idx {
            let pid = self.probes.len() as u32;
            self.probes.push((probe.stmt, probe.role, i));
            self.emit(Inst::ObsBool {
                probe: pid,
                val: r,
                mask: probe.mask,
            });
        }
        r
    }

    /// Shifts keep the left operand's width; constant amounts at or
    /// beyond the width fold to zero, in-range constants specialize to
    /// fixed word moves, and variable amounts go through the barrel
    /// instruction.
    fn compile_shift(&mut self, op: BinaryOp, ra: Reg, rb: Reg, b: &Expr, w: u32) -> Reg {
        if let Expr::Const(c) = b {
            if c.bits() >= u64::from(w) {
                return self.const_reg(0, w);
            }
            let amt = c.bits() as u32;
            if amt == 0 {
                return ra;
            }
            let d = self.reg(w);
            self.emit(if op == BinaryOp::Shl {
                Inst::ShlC { d, a: ra, amt }
            } else {
                Inst::ShrC { d, a: ra, amt }
            });
            return d;
        }
        let d = self.reg(w);
        self.emit(if op == BinaryOp::Shl {
            Inst::Shl { d, a: ra, amt: rb }
        } else {
            Inst::Shr { d, a: ra, amt: rb }
        });
        d
    }

    fn compile_stmt(&mut self, stmt: &Stmt, mask: Reg) {
        self.emit(Inst::ObsStmt {
            stmt: stmt.id,
            mask,
        });
        match &stmt.kind {
            StmtKind::Assign { lhs, rhs } => {
                let r = self.compile_watched(rhs, stmt.id, ExprRole::AssignRhs, mask);
                let w = self.module.signal_width(*lhs);
                let src = self.resize_to(r, w);
                let d = if self.in_seq {
                    self.next_of[lhs.index()].expect("sequential writes target state signals")
                } else {
                    lhs.index() as Reg
                };
                self.emit(Inst::Store { d, src, mask });
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let rc = self.compile_watched(cond, stmt.id, ExprRole::Condition, mask);
                let taken = self.truthy(rc);
                let then_mask = self.and1(mask, taken);
                let else_mask = self.andnot1(mask, taken);
                self.emit(Inst::ObsBranch {
                    stmt: stmt.id,
                    outcome: BranchOutcome::Then,
                    mask: then_mask,
                });
                self.emit(Inst::ObsBranch {
                    stmt: stmt.id,
                    outcome: BranchOutcome::Else,
                    mask: else_mask,
                });
                for s in then_body {
                    self.compile_stmt(s, then_mask);
                }
                for s in else_body {
                    self.compile_stmt(s, else_mask);
                }
            }
            StmtKind::Case {
                subject,
                arms,
                default,
            } => {
                let rs = self.compile_watched(subject, stmt.id, ExprRole::CaseSubject, mask);
                // First matching arm wins: arm i takes lanes where one
                // of its labels matches and no earlier arm matched.
                let mut matched: Option<Reg> = None;
                for (i, arm) in arms.iter().enumerate() {
                    let mut hit: Option<Reg> = None;
                    for label in &arm.labels {
                        let lc = self.const_reg(label.bits(), label.width());
                        let d = self.reg(1);
                        self.emit(Inst::Eq { d, a: rs, b: lc });
                        hit = Some(match hit {
                            None => d,
                            Some(h) => self.or1(h, d),
                        });
                    }
                    let hit = match hit {
                        Some(h) => h,
                        None => self.const_reg(0, 1),
                    };
                    let take = match matched {
                        None => self.and1(mask, hit),
                        Some(m) => {
                            let fresh = self.andnot1(hit, m);
                            self.and1(mask, fresh)
                        }
                    };
                    matched = Some(match matched {
                        None => hit,
                        Some(m) => self.or1(m, hit),
                    });
                    self.emit(Inst::ObsBranch {
                        stmt: stmt.id,
                        outcome: BranchOutcome::Arm(i as u32),
                        mask: take,
                    });
                    for s in &arm.body {
                        self.compile_stmt(s, take);
                    }
                }
                let def_mask = match matched {
                    None => mask,
                    Some(m) => self.andnot1(mask, m),
                };
                self.emit(Inst::ObsBranch {
                    stmt: stmt.id,
                    outcome: BranchOutcome::Default,
                    mask: def_mask,
                });
                if let Some(d) = default {
                    for s in d {
                        self.compile_stmt(s, def_mask);
                    }
                }
            }
        }
    }
}

/// A settled pre-edge snapshot of every signal, readable per bit-lane
/// word or per lane value, over the executor's bit-sliced arena:
/// `words[(base[sig] + bit) * block + j]` is block word `j` of one
/// signal bit.
#[derive(Debug)]
pub struct LaneSnapshot<'a> {
    widths: &'a [u32],
    words: &'a [u64],
    base: &'a [u32],
    block: usize,
}

impl LaneSnapshot<'_> {
    /// The number of signals in the snapshot.
    pub fn signal_count(&self) -> usize {
        self.widths.len()
    }

    /// Words per lane block (the executor's `W`).
    pub fn block(&self) -> usize {
        self.block
    }

    /// The width of a signal.
    pub fn width(&self, sig: SignalId) -> u32 {
        self.widths[sig.index()]
    }

    /// Block word `word` of one bit of `sig`: bit `k` of the result is
    /// lane `word*64 + k`'s value of `sig[bit]`.
    #[inline]
    pub fn bit_word(&self, sig: SignalId, bit: u32, word: usize) -> u64 {
        self.words[(self.base[sig.index()] + bit) as usize * self.block + word]
    }

    /// The value of `sig` in lane `lane`.
    pub fn value(&self, sig: SignalId, lane: u32) -> Bv {
        let w = self.widths[sig.index()];
        let b = self.base[sig.index()] as usize;
        let (word, bit) = ((lane / 64) as usize, lane % 64);
        let mut bits = 0u64;
        for i in 0..w as usize {
            bits |= ((self.words[(b + i) * self.block + word] >> bit) & 1) << i;
        }
        Bv::new(bits, w)
    }

    /// Raw trace rows (one `u64` of bits per signal) of the `lanes` of
    /// block word `word`, lane-major into `stage` (`64 · signal_count`
    /// words; lane `k`'s row starts at `k · signal_count`; rows of
    /// lanes outside `lanes` are left zero). One pass over the
    /// snapshot: each set bit of each bit-slice lands in its lane's row.
    pub(crate) fn gather_rows(&self, word: usize, lanes: u64, stage: &mut [u64]) {
        let n = self.widths.len();
        stage.fill(0);
        for (sig, (&base, &width)) in self.base.iter().zip(self.widths).enumerate() {
            for i in 0..width as usize {
                let mut set = self.words[(base as usize + i) * self.block + word] & lanes;
                while set != 0 {
                    let k = set.trailing_zeros() as usize;
                    set &= set - 1;
                    stage[k * n + sig] |= 1 << i;
                }
            }
        }
    }
}

/// Bit-parallel executor for a [`CompiledModule`] over a lane block of
/// `W` words: bit `k` of block word `j` carries stimulus vector
/// `j*64 + k`, so one tape execution advances up to `64·W` independent
/// simulations by one cycle. `W` must be one of 1, 2, 4, 8 (the widths
/// [`SimBackend::lane_block`] normalizes to); the default `W = 1` is
/// the 64-lane executor.
///
/// Fused boolean-node probe hits accumulate inside the executor (one
/// true/false word pair per probe per block word) and are delivered
/// through [`BatchSim::drain_probes_to`] — automatically at the end of
/// every [`BatchSim::step_observed`].
#[derive(Debug)]
pub struct BatchSim<'c, const W: usize = 1> {
    c: &'c CompiledModule,
    words: Vec<u64>,
    probe_true: Vec<u64>,
    probe_false: Vec<u64>,
    cycle: u64,
}

impl<'c, const W: usize> BatchSim<'c, W> {
    /// Creates an executor with every lane at the reset state.
    pub fn new(c: &'c CompiledModule) -> Self {
        let mut words = vec![0u64; c.words_total * W];
        for &(r, bits) in &c.const_inits {
            broadcast::<W>(&mut words, c.base[r as usize], c.widths[r as usize], bits);
        }
        for i in 0..c.n_signals {
            broadcast::<W>(&mut words, c.base[i], c.widths[i], c.sig_init[i]);
        }
        BatchSim {
            c,
            words,
            probe_true: vec![0u64; c.probes.len() * W],
            probe_false: vec![0u64; c.probes.len() * W],
            cycle: 0,
        }
    }

    /// The number of completed cycles (shared by every lane).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives an input in one lane.
    pub fn set_input_lane(&mut self, lane: u32, sig: SignalId, value: Bv) {
        let w = self.c.widths[sig.index()];
        let bits = value.resize(w).bits();
        let b = self.c.base[sig.index()] as usize;
        let (word, bit) = ((lane / 64) as usize, lane % 64);
        for i in 0..w as usize {
            let slot = &mut self.words[(b + i) * W + word];
            *slot = (*slot & !(1u64 << bit)) | (((bits >> i) & 1) << bit);
        }
    }

    /// Drives block word `word` from one cycle record of a
    /// [`PackedStimulus`]: `pairs` is `[val, drv]` per packed row and
    /// `rows[r]` the arena row of packed row `r`. Lanes outside a
    /// row's `drv` word hold their value.
    #[inline]
    pub(crate) fn drive_word(&mut self, word: usize, rows: &[u32], pairs: &[u64]) {
        for (pair, &row) in pairs.chunks_exact(2).zip(rows) {
            let slot = &mut self.words[row as usize * W + word];
            *slot = (*slot & !pair[1]) | pair[0];
        }
    }

    /// Drives an input identically in every lane.
    pub fn set_input_all(&mut self, sig: SignalId, value: Bv) {
        let w = self.c.widths[sig.index()];
        let bits = value.resize(w).bits();
        broadcast::<W>(&mut self.words, self.c.base[sig.index()], w, bits);
    }

    /// The value of `sig` in lane `lane`.
    pub fn lane_value(&self, sig: SignalId, lane: u32) -> Bv {
        self.snapshot().value(sig, lane)
    }

    /// The settled snapshot view.
    pub fn snapshot(&self) -> LaneSnapshot<'_> {
        LaneSnapshot {
            widths: &self.c.widths[..self.c.n_signals],
            words: &self.words,
            base: &self.c.base[..self.c.n_signals],
            block: W,
        }
    }

    /// Settles combinational logic in every lane; observations are
    /// restricted to `active` lanes.
    pub fn settle(&mut self, active: &[u64; W], obs: Option<&mut dyn BatchObserver>) {
        let c = self.c;
        self.settle_on(&c.tape, active, obs);
    }

    /// [`BatchSim::settle`] running `tape`: the module's tape or a
    /// residual of it (the `*_on` methods below likewise).
    fn settle_on(&mut self, tape: &Tape, active: &[u64; W], obs: Option<&mut dyn BatchObserver>) {
        let mut o = obs;
        exec_wide::<W>(
            self.c,
            &mut self.words,
            &mut self.probe_true,
            &mut self.probe_false,
            &tape.comb,
            active,
            &mut o,
        );
    }

    /// Fires the sequential processes of `tape` and commits next state
    /// in every lane; observations are restricted to `active` lanes.
    fn clock_edge_on(
        &mut self,
        tape: &Tape,
        active: &[u64; W],
        obs: Option<&mut dyn BatchObserver>,
    ) {
        for &(cur, next) in &self.c.state_pairs {
            let (cb, nb) = (
                self.c.base[cur as usize] as usize,
                self.c.base[next as usize] as usize,
            );
            for i in 0..self.c.widths[cur as usize] as usize * W {
                self.words[nb * W + i] = self.words[cb * W + i];
            }
        }
        let mut o = obs;
        exec_wide::<W>(
            self.c,
            &mut self.words,
            &mut self.probe_true,
            &mut self.probe_false,
            &tape.seq,
            active,
            &mut o,
        );
        for &(cur, next) in &self.c.state_pairs {
            let (cb, nb) = (
                self.c.base[cur as usize] as usize,
                self.c.base[next as usize] as usize,
            );
            for i in 0..self.c.widths[cur as usize] as usize * W {
                self.words[cb * W + i] = self.words[nb * W + i];
            }
        }
        self.cycle += 1;
    }

    /// Runs one full clock cycle, reporting events to `obs` (including
    /// a probe drain after the edge).
    pub fn step_observed(&mut self, active: &[u64; W], obs: &mut dyn BatchObserver) {
        let c = self.c;
        self.step_on(&c.tape, active, obs);
    }

    fn step_on(&mut self, tape: &Tape, active: &[u64; W], obs: &mut dyn BatchObserver) {
        self.settle_on(tape, active, Some(obs));
        obs.on_cycle_end(self.cycle, &LaneSet::new(active), &self.snapshot());
        self.clock_edge_on(tape, active, Some(obs));
        self.drain_probes_to(obs);
    }

    /// Delivers the accumulated fused probe hits to `obs`. Hits are
    /// cumulative since executor construction and monotone, so draining
    /// repeatedly (or once at the end of a multi-cycle run) yields the
    /// same collector state as a per-cycle drain.
    pub fn drain_probes_to(&self, obs: &mut dyn BatchObserver) {
        if self.c.probes.is_empty() {
            return;
        }
        obs.drain_probes(&ProbeHits {
            probes: &self.c.probes,
            any_true: &self.probe_true,
            any_false: &self.probe_false,
            block: W,
        });
    }

    /// Drives the suite reset protocol in every active lane: zero the
    /// data inputs, pulse the designated reset for one observed cycle,
    /// deassert it. A no-op for modules without a reset input.
    pub fn apply_reset(&mut self, active: &[u64; W], obs: &mut dyn BatchObserver) {
        let c = self.c;
        self.reset_on(&c.tape, active, obs);
    }

    fn reset_on(&mut self, tape: &Tape, active: &[u64; W], obs: &mut dyn BatchObserver) {
        let c = self.c;
        if let Some(rst) = c.reset {
            for &d in &c.data_inputs {
                broadcast::<W>(&mut self.words, c.base[d.index()], c.widths[d.index()], 0);
            }
            self.set_input_all(rst, Bv::one_bit());
            self.step_on(tape, active, obs);
            self.set_input_all(rst, Bv::zero_bit());
        }
    }
}

/// Writes `bits` into every lane of a bit-sliced register.
#[inline]
fn broadcast<const W: usize>(words: &mut [u64], base: u32, width: u32, bits: u64) {
    for i in 0..width as usize {
        let v = if (bits >> i) & 1 == 1 { u64::MAX } else { 0 };
        for j in 0..W {
            words[(base as usize + i) * W + j] = v;
        }
    }
}

/// Executes one tape in bit-parallel mode over a lane block of `W`
/// words. Every lane computes on every instruction; observation events
/// are masked to `active`. Boolean-node probes are *fused*: instead of
/// dispatching through the observer per instruction, their per-lane
/// true/false hits OR-accumulate into `pt`/`pf` (one word per probe
/// per block word) for a bulk drain after the run.
fn exec_wide<const W: usize>(
    c: &CompiledModule,
    words: &mut [u64],
    pt: &mut [u64],
    pf: &mut [u64],
    tape: &[Inst],
    active: &[u64; W],
    obs: &mut Option<&mut dyn BatchObserver>,
) {
    let base = &c.base;
    let widths = &c.widths;
    let observing = obs.is_some();
    // Reads zero-extend: bits beyond a register's width read as zero.
    macro_rules! gw {
        ($r:expr, $i:expr, $j:expr) => {{
            let r = $r as usize;
            if ($i as u32) < widths[r] {
                words[(base[r] as usize + $i as usize) * W + $j]
            } else {
                0u64
            }
        }};
    }
    macro_rules! di {
        ($d:expr, $i:expr, $j:expr) => {
            (base[$d as usize] as usize + $i as usize) * W + $j
        };
    }
    for inst in tape {
        match *inst {
            Inst::And { d, a, b } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, i, j) & gw!(b, i, j);
                    }
                }
            }
            Inst::Or { d, a, b } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, i, j) | gw!(b, i, j);
                    }
                }
            }
            Inst::Xor { d, a, b } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, i, j) ^ gw!(b, i, j);
                    }
                }
            }
            Inst::Not { d, a } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = !gw!(a, i, j);
                    }
                }
            }
            Inst::Neg { d, a } => {
                // ~a + 1 via a carry ripple seeded with all-ones.
                let mut carry = [u64::MAX; W];
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        let x = !gw!(a, i, j);
                        words[di!(d, i, j)] = x ^ carry[j];
                        carry[j] &= x;
                    }
                }
            }
            Inst::Add { d, a, b } => {
                let mut carry = [0u64; W];
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        let x = gw!(a, i, j);
                        let y = gw!(b, i, j);
                        words[di!(d, i, j)] = x ^ y ^ carry[j];
                        carry[j] = (x & y) | (carry[j] & (x ^ y));
                    }
                }
            }
            Inst::Sub { d, a, b } => {
                let mut borrow = [0u64; W];
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        let x = gw!(a, i, j);
                        let y = gw!(b, i, j);
                        words[di!(d, i, j)] = x ^ y ^ borrow[j];
                        borrow[j] = (!x & y) | (!(x ^ y) & borrow[j]);
                    }
                }
            }
            Inst::Mul { d, a, b } => {
                let w = widths[d as usize];
                let mut acc = [[0u64; W]; 64];
                for s in 0..w.min(widths[b as usize]) {
                    for j in 0..W {
                        let m = gw!(b, s, j);
                        if m == 0 {
                            continue;
                        }
                        let mut carry = 0u64;
                        for i in s..w {
                            let x = acc[i as usize][j];
                            let y = gw!(a, i - s, j) & m;
                            acc[i as usize][j] = x ^ y ^ carry;
                            carry = (x & y) | (carry & (x ^ y));
                        }
                    }
                }
                for i in 0..w {
                    for j in 0..W {
                        words[di!(d, i, j)] = acc[i as usize][j];
                    }
                }
            }
            Inst::Eq { d, a, b } => {
                let wm = widths[a as usize].max(widths[b as usize]);
                let mut eq = [u64::MAX; W];
                for i in 0..wm {
                    for j in 0..W {
                        eq[j] &= !(gw!(a, i, j) ^ gw!(b, i, j));
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = eq[j];
                }
            }
            Inst::Ne { d, a, b } => {
                let wm = widths[a as usize].max(widths[b as usize]);
                let mut eq = [u64::MAX; W];
                for i in 0..wm {
                    for j in 0..W {
                        eq[j] &= !(gw!(a, i, j) ^ gw!(b, i, j));
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = !eq[j];
                }
            }
            Inst::Lt { d, a, b } => {
                let wm = widths[a as usize].max(widths[b as usize]);
                let mut lt = [0u64; W];
                for i in 0..wm {
                    for j in 0..W {
                        let x = gw!(a, i, j);
                        let y = gw!(b, i, j);
                        lt[j] = (!x & y) | (!(x ^ y) & lt[j]);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = lt[j];
                }
            }
            Inst::Le { d, a, b } => {
                let wm = widths[a as usize].max(widths[b as usize]);
                let mut lt = [0u64; W];
                let mut eq = [u64::MAX; W];
                for i in 0..wm {
                    for j in 0..W {
                        let x = gw!(a, i, j);
                        let y = gw!(b, i, j);
                        lt[j] = (!x & y) | (!(x ^ y) & lt[j]);
                        eq[j] &= !(x ^ y);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = lt[j] | eq[j];
                }
            }
            Inst::Shl { d, a, amt } => {
                let w = widths[d as usize];
                let mut cur = [[0u64; W]; 64];
                for i in 0..w {
                    for j in 0..W {
                        cur[i as usize][j] = gw!(a, i, j);
                    }
                }
                barrel_wide::<W>(&mut cur, w, c, words, amt, true);
                for i in 0..w {
                    for j in 0..W {
                        words[di!(d, i, j)] = cur[i as usize][j];
                    }
                }
            }
            Inst::Shr { d, a, amt } => {
                let w = widths[d as usize];
                let mut cur = [[0u64; W]; 64];
                for i in 0..w {
                    for j in 0..W {
                        cur[i as usize][j] = gw!(a, i, j);
                    }
                }
                barrel_wide::<W>(&mut cur, w, c, words, amt, false);
                for i in 0..w {
                    for j in 0..W {
                        words[di!(d, i, j)] = cur[i as usize][j];
                    }
                }
            }
            Inst::ShlC { d, a, amt } => {
                let w = widths[d as usize];
                for i in (0..w).rev() {
                    for j in 0..W {
                        words[di!(d, i, j)] = if i >= amt { gw!(a, i - amt, j) } else { 0 };
                    }
                }
            }
            Inst::ShrC { d, a, amt } => {
                let w = widths[d as usize];
                for i in 0..w {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, i + amt, j);
                    }
                }
            }
            Inst::RedAnd { d, a } => {
                let mut r = [u64::MAX; W];
                for i in 0..widths[a as usize] {
                    for j in 0..W {
                        r[j] &= gw!(a, i, j);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = r[j];
                }
            }
            Inst::RedOr { d, a } | Inst::Truth { d, a } => {
                let mut r = [0u64; W];
                for i in 0..widths[a as usize] {
                    for j in 0..W {
                        r[j] |= gw!(a, i, j);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = r[j];
                }
            }
            Inst::RedXor { d, a } => {
                let mut r = [0u64; W];
                for i in 0..widths[a as usize] {
                    for j in 0..W {
                        r[j] ^= gw!(a, i, j);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = r[j];
                }
            }
            Inst::LogicNot { d, a } => {
                let mut r = [0u64; W];
                for i in 0..widths[a as usize] {
                    for j in 0..W {
                        r[j] |= gw!(a, i, j);
                    }
                }
                for j in 0..W {
                    words[di!(d, 0, j)] = !r[j];
                }
            }
            Inst::Mux { d, c: cnd, t, e } => {
                for j in 0..W {
                    let m = gw!(cnd, 0, j);
                    for i in 0..widths[d as usize] {
                        words[di!(d, i, j)] = (m & gw!(t, i, j)) | (!m & gw!(e, i, j));
                    }
                }
            }
            Inst::Index { d, a, bit } => {
                for j in 0..W {
                    words[di!(d, 0, j)] = gw!(a, bit, j);
                }
            }
            Inst::Slice { d, a, lo } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, lo + i, j);
                    }
                }
            }
            Inst::Concat { d, hi, lo } => {
                let wl = widths[lo as usize];
                for i in 0..wl {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(lo, i, j);
                    }
                }
                for i in 0..widths[hi as usize] {
                    for j in 0..W {
                        words[di!(d, wl + i, j)] = gw!(hi, i, j);
                    }
                }
            }
            Inst::Resize { d, a } => {
                for i in 0..widths[d as usize] {
                    for j in 0..W {
                        words[di!(d, i, j)] = gw!(a, i, j);
                    }
                }
            }
            Inst::AndNot { d, a, b } => {
                for j in 0..W {
                    words[di!(d, 0, j)] = gw!(a, 0, j) & !gw!(b, 0, j);
                }
            }
            Inst::Store { d, src, mask } => {
                for j in 0..W {
                    let m = gw!(mask, 0, j);
                    for i in 0..widths[d as usize] {
                        let idx = di!(d, i, j);
                        words[idx] = (m & gw!(src, i, j)) | (!m & words[idx]);
                    }
                }
            }
            Inst::ObsStmt { stmt, mask } => {
                if let Some(o) = obs.as_deref_mut() {
                    let mut l = [0u64; W];
                    let mut any = 0u64;
                    for (j, slot) in l.iter_mut().enumerate() {
                        *slot = gw!(mask, 0, j) & active[j];
                        any |= *slot;
                    }
                    if any != 0 {
                        o.on_stmt(stmt, &LaneSet::new(&l));
                    }
                }
            }
            Inst::ObsBranch {
                stmt,
                outcome,
                mask,
            } => {
                if let Some(o) = obs.as_deref_mut() {
                    let mut l = [0u64; W];
                    let mut any = 0u64;
                    for (j, slot) in l.iter_mut().enumerate() {
                        *slot = gw!(mask, 0, j) & active[j];
                        any |= *slot;
                    }
                    if any != 0 {
                        o.on_branch(stmt, outcome, &LaneSet::new(&l));
                    }
                }
            }
            Inst::ObsBool { probe, val, mask } => {
                if observing {
                    let pb = probe as usize * W;
                    for j in 0..W {
                        let m = gw!(mask, 0, j) & active[j];
                        let v = gw!(val, 0, j);
                        pt[pb + j] |= v & m;
                        pf[pb + j] |= !v & m;
                    }
                }
            }
        }
    }
}

/// Lane-parallel barrel shifter over a `W`-word block: conditionally
/// shifts `cur` (width `w`, `W` words per bit) by each power of two
/// under the per-lane words of the `amt` register. Amount bits whose
/// power reaches the width force the affected lanes to zero, so
/// amounts at or beyond the width produce zero — matching
/// [`Bv::shl`]/[`Bv::shr`].
fn barrel_wide<const W: usize>(
    cur: &mut [[u64; W]; 64],
    w: u32,
    c: &CompiledModule,
    words: &[u64],
    amt: Reg,
    left: bool,
) {
    let wa = c.widths[amt as usize];
    let ab = c.base[amt as usize] as usize;
    for s in 0..wa {
        for j in 0..W {
            let m = words[(ab + s as usize) * W + j];
            if m == 0 {
                continue;
            }
            if s >= 6 || (1u32 << s) >= w {
                for row in cur.iter_mut().take(w as usize) {
                    row[j] &= !m;
                }
            } else {
                let k = 1usize << s;
                if left {
                    for i in (0..w as usize).rev() {
                        let shifted = if i >= k { cur[i - k][j] } else { 0 };
                        cur[i][j] = (m & shifted) | (!m & cur[i][j]);
                    }
                } else {
                    for i in 0..w as usize {
                        let shifted = if i + k < w as usize { cur[i + k][j] } else { 0 };
                        cur[i][j] = (m & shifted) | (!m & cur[i][j]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::stim::{collect_vectors, InputVector, RandomStimulus};
    use crate::NopObserver;
    use gm_rtl::parse_verilog;

    const ARBITER2: &str = "
    module arbiter2(input clk, input rst, input req0, input req1,
                    output reg gnt0, output reg gnt1);
      always @(posedge clk)
        if (rst) begin
          gnt0 <= 0; gnt1 <= 0;
        end else begin
          gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
          gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
        end
    endmodule";

    const ALU: &str = "
    module alu(input clk, input rst, input [2:0] op, input [7:0] a, input [7:0] b,
               output reg [7:0] y);
      always @(posedge clk)
        if (rst) y <= 0;
        else case (op)
          3'd0: y <= a + b;
          3'd1: y <= a - b;
          3'd2: y <= a * b;
          3'd3: y <= a << b[2:0];
          3'd4: y <= a >> b[2:0];
          3'd5: y <= {a[3:0], b[3:0]};
          default: y <= (a < b) ? a : ~b;
        endcase
    endmodule";

    fn interp_trace(src: &str, seed: u64, cycles: u64) -> Trace {
        let m = parse_verilog(src).unwrap();
        let vectors = collect_vectors(&mut RandomStimulus::new(&m, seed, cycles));
        crate::suite::run_segment(&m, &vectors, &mut NopObserver).unwrap()
    }

    /// One segment alone on the tape: a batch with a single active lane.
    fn one_segment(c: &CompiledModule, m: &Module, vectors: Vec<InputVector>) -> Trace {
        let mut suite = TestSuite::new();
        suite.push("", vectors);
        c.run_segments_batched(m, &suite, 0..1, &mut NopObserver, true, None, 1)
            .expect("no cancel token")
            .pop()
            .expect("one trace per segment")
    }

    fn compiled_trace(src: &str, seed: u64, cycles: u64) -> Trace {
        let m = parse_verilog(src).unwrap();
        let vectors = collect_vectors(&mut RandomStimulus::new(&m, seed, cycles));
        one_segment(&CompiledModule::compile(&m).unwrap(), &m, vectors)
    }

    #[test]
    fn single_segment_matches_interpreter_on_arbiter() {
        for seed in 0..4 {
            assert_eq!(
                interp_trace(ARBITER2, seed, 40),
                compiled_trace(ARBITER2, seed, 40)
            );
        }
    }

    #[test]
    fn single_segment_matches_interpreter_on_arithmetic() {
        for seed in 0..4 {
            assert_eq!(interp_trace(ALU, seed, 60), compiled_trace(ALU, seed, 60));
        }
    }

    #[test]
    fn batch_lanes_replay_independent_segments() {
        let m = parse_verilog(ALU).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        let mut suite = TestSuite::new();
        for seed in 0..70 {
            // Ragged lengths across lane boundaries.
            let mut stim = RandomStimulus::new(&m, seed, 5 + (seed % 13));
            suite.push(format!("s{seed}"), collect_vectors(&mut stim));
        }
        for block in [1usize, 2, 4, 8] {
            let batched = c
                .run_segments_batched(&m, &suite, 0..70, &mut NopObserver, true, None, block)
                .expect("no cancel token");
            assert_eq!(batched.len(), 70);
            for (seg, got) in suite.segments().zip(&batched) {
                let want = crate::suite::run_segment(&m, &seg.vectors, &mut NopObserver).unwrap();
                assert_eq!(*got, want, "{} at block {block}", seg.label);
            }
        }
    }

    #[test]
    fn wide_lanes_straddle_block_words() {
        // 150 segments at block 2 = one full 128-lane chunk (with a
        // ragged tail in its second word) plus a 22-lane remainder.
        let m = parse_verilog(ARBITER2).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        let mut suite = TestSuite::new();
        for seed in 0..150 {
            let mut stim = RandomStimulus::new(&m, seed, 1 + (seed % 9));
            suite.push(format!("s{seed}"), collect_vectors(&mut stim));
        }
        let batched = c
            .run_segments_batched(&m, &suite, 0..150, &mut NopObserver, true, None, 2)
            .expect("no cancel token");
        assert_eq!(batched.len(), 150);
        for (seg, got) in suite.segments().zip(&batched) {
            let want = crate::suite::run_segment(&m, &seg.vectors, &mut NopObserver).unwrap();
            assert_eq!(*got, want, "{}", seg.label);
        }
    }

    #[test]
    fn batch_step_matches_simulator_step() {
        // Lanes 0 and 70 (second block word) are driven identically and
        // must both track the interpreter cycle by cycle.
        let m = parse_verilog(ARBITER2).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        let mut interp = Simulator::new(&m).unwrap();
        let mut comp = BatchSim::<2>::new(&c);
        let req0 = m.require("req0").unwrap();
        let req1 = m.require("req1").unwrap();
        let active = [1u64, 1 << 6];
        for t in 0..16u64 {
            let (v0, v1) = (Bv::from_bool(t % 2 == 0), Bv::from_bool(t % 3 == 0));
            interp.set_inputs(&[(req0, v0), (req1, v1)]);
            for lane in [0, 70] {
                comp.set_input_lane(lane, req0, v0);
                comp.set_input_lane(lane, req1, v1);
            }
            interp.step();
            comp.step_observed(&active, &mut NopObserver);
            for sig in m.signal_ids() {
                for lane in [0, 70] {
                    assert_eq!(interp.value(sig), comp.lane_value(sig, lane), "cycle {t}");
                }
            }
        }
    }

    #[test]
    fn compiled_module_reports_shape() {
        let m = parse_verilog(ARBITER2).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        assert!(c.tape_len() > 0);
        assert!(c.register_count() > m.signals().len());
        assert!(c.probe_count() > 0, "rhs boolean nodes are probed");
        assert!(c.bare.is_some(), "the probe-free residual is cached");
    }

    #[test]
    fn a_residual_closed_everywhere_is_the_cached_probe_free_tape() {
        let m = parse_verilog(ALU).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        let mut residual = Residual::new(&c);
        assert!(residual.open > 0);
        residual.refresh(&NopObserver);
        assert!(residual.own.is_none());
        assert_eq!(residual.open, 0);
        assert!(std::ptr::eq(residual.tape(), c.probe_free()));
    }

    #[test]
    fn probe_free_tape_drops_observation_instructions() {
        let m = parse_verilog(ALU).unwrap();
        let probed = CompiledModule::compile(&m).unwrap();
        let bare = CompiledModule::compile_with(&m, CompileOptions { probes: false }).unwrap();
        assert!(bare.bare.is_none());
        assert_eq!(bare.probe_count(), 0);
        assert!(
            bare.tape_len() < probed.tape_len(),
            "observation instructions elided"
        );
        assert!(bare.approx_bytes() < probed.approx_bytes());
        // Traces are unaffected by the missing observation work.
        let vectors = collect_vectors(&mut RandomStimulus::new(&m, 7, 50));
        assert_eq!(
            one_segment(&probed, &m, vectors.clone()),
            one_segment(&bare, &m, vectors)
        );
    }

    #[test]
    fn lane_block_normalizes_widths() {
        assert_eq!(SimBackend::default(), SimBackend::CompiledBatch(1));
        assert_eq!(SimBackend::CompiledBatch(1).lane_block(), 1);
        assert_eq!(SimBackend::CompiledBatch(0).lane_block(), 1);
        assert_eq!(SimBackend::CompiledBatch(2).lane_block(), 2);
        assert_eq!(SimBackend::CompiledBatch(3).lane_block(), 4);
        assert_eq!(SimBackend::CompiledBatch(8).lane_block(), 8);
        assert_eq!(SimBackend::CompiledBatch(200).lane_block(), 8);
        assert_eq!(SimBackend::CompiledBatch(4).lanes(), 256);
        assert_eq!(SimBackend::Interpreter.lanes(), 1);
    }
}
