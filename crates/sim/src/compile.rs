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
//! simultaneously. An instruction carries its operands' arena rows and
//! widths and runs over their `width·W` words as contiguous slices, so
//! tape dispatch amortizes across `W` words. A caller's block is the widest
//! a replay may use: the replay runs the narrowest supported block that
//! holds its lane groups, so a replay of at most 64 segments runs the
//! one-word executor whatever the block, and the default
//! ([`SimBackend::default`], [`MAX_LANE_BLOCK`] words) takes a
//! 1,024-segment suite in two passes. Ragged segment
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
    /// The compiled tape in bit-parallel mode over lane blocks of up
    /// to `W` 64-lane words: bit `k` of every tape word carries
    /// stimulus vector `k`, so one tape execution simulates up to
    /// `64·W` segments. `W` is the widest block a replay may use: each
    /// replay narrows it to the lane groups its segments fill (a replay
    /// of at most 64 segments runs one word, one of 129 to 256 four),
    /// and normalizes it to a supported block (1, 2, 4 or 8 words →
    /// 64–512 lanes — see [`SimBackend::lane_block`]). The default is
    /// `CompiledBatch(MAX_LANE_BLOCK)`: every replay runs as wide as
    /// its segments fill.
    CompiledBatch(u8),
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::CompiledBatch(MAX_LANE_BLOCK as u8)
    }
}

impl SimBackend {
    /// The widest lane block, in words, a replay may run — 1, 2, 4 or
    /// 8, rounding an unsupported requested width up to the next
    /// supported one (capped at [`MAX_LANE_BLOCK`]). A replay narrows it
    /// to the lane groups its segments fill. The interpreter runs one
    /// vector at a time and reports 1.
    pub fn lane_block(&self) -> usize {
        match self {
            SimBackend::Interpreter => 1,
            SimBackend::CompiledBatch(w) => CompiledModule::normalized_block(usize::from(*w)),
        }
    }

    /// Stimulus vectors simulated per pass at most: `64·lane_block`
    /// for the compiled tape, 1 for the interpreter.
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

/// A register of a compiled tape's register file, as instructions
/// carry it: its first bit row in the bit-sliced arena and its width
/// in bits. The executor reads an operand's words straight off the
/// instruction, looking nothing up.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Reg {
    row: u32,
    width: u32,
}

impl Reg {
    /// The register's words in a `W`-word arena: bit `i`, block word
    /// `j` at `i·W + j` of the range, `width·W` words in all.
    #[inline(always)]
    fn words<const W: usize>(self) -> Range<usize> {
        let start = self.row as usize * W;
        start..start + self.width as usize * W
    }
}

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
    /// Width of each register, by register number (signals first).
    widths: Vec<u32>,
    /// Per-register bit offset for the bit-sliced arena (one lane-block
    /// of words per bit), by register number.
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

    /// Runs segments `range` of `suite` through a batch executor of at
    /// most `block` words per lane block, `collect_traces` deciding
    /// whether per-lane traces are materialized (coverage-only callers
    /// skip the transpose). `block` is the widest block the call may
    /// use: it narrows to the range's lane groups (a range in one group
    /// runs the one-word executor, one in three groups four words) and
    /// is normalized to a supported width (1, 2, 4, 8).
    ///
    /// A pass reads one block's worth of consecutive lane groups of the
    /// suite's packed form where they lie; lane `k` of group `g` replays
    /// segment `64·g + k` from reset exactly as a run of its own would,
    /// and lanes outside the range are masked out of the reset and
    /// active words (they compute, but nothing observes them).
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
            span.arg("probes", self.probes.len());
            span.arg("traces", collect_traces);
            span.arg(
                "cycles",
                stimulus.lens()[range.clone()].iter().sum::<usize>(),
            );
        }
        let (out, work) = self.run_segments_batched_untraced(
            module,
            &stimulus,
            range,
            obs,
            collect_traces,
            cancel,
            block,
        );
        span.arg("lane_block", work.lane_block);
        span.arg("lanes", 64 * work.lane_block);
        span.arg("passes", work.passes);
        span.arg("tape_runs", work.tape_runs);
        span.arg("cancelled", out.is_none());
        out
    }

    /// [`Self::run_segments_batched`] minus the span wrapper and the
    /// width check ([`TestSuite::feed`]) — the pre-trace machine code,
    /// kept callable so the recorder-overhead bench can measure the
    /// instrumented entry against a true baseline on identical inner
    /// code. Returns the traces and the work the replay took.
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
    ) -> (Option<Vec<Trace>>, BatchWork) {
        let shape = collect_traces.then(|| TraceShape::for_module(module));
        let mut work = BatchWork {
            lane_block: Self::normalized_block(block.min(lane_groups(&range).len())),
            ..BatchWork::default()
        };
        let out = match work.lane_block {
            1 => self.run_segments_blocked::<1>(stimulus, range, obs, shape, cancel, &mut work),
            2 => self.run_segments_blocked::<2>(stimulus, range, obs, shape, cancel, &mut work),
            4 => self.run_segments_blocked::<4>(stimulus, range, obs, shape, cancel, &mut work),
            _ => self.run_segments_blocked::<8>(stimulus, range, obs, shape, cancel, &mut work),
        };
        (out, work)
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
        work: &mut BatchWork,
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
        // One register file for the call, back at power-on every pass.
        let mut sim = BatchSim::<W>::new(self);
        for first in lane_groups(&range).step_by(W) {
            // Block word `j` reads lane group `first + j`, masked to the
            // range's lanes.
            let lanes: [u64; W] = std::array::from_fn(|j| lanes_in(&range, first + j));
            sim.reset();
            work.passes += 1;
            obs.on_pass_start(
                (first * GROUP_LANES).max(range.start) - range.start,
                &LaneSet::new(&lanes),
            );
            residual.refresh(obs);
            sim.apply_reset(residual.tape(), &lanes, obs);
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
                    work.tape_runs = sim.runs;
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
                sim.settle(tape, &active, Some(obs));
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
                sim.clock_edge(tape, &active, Some(obs));
            }
            sim.drain_probes_to(obs);
        }
        work.tape_runs = sim.runs;
        Some(traces)
    }
}

/// What one batched replay ran: the `sim.batch` span's work counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchWork {
    /// Words per lane block the replay ran at: the block it was given,
    /// narrowed to the range's lane groups.
    lane_block: usize,
    /// Passes over the tape, one per block of lane groups.
    passes: usize,
    /// Settle-and-edge runs of the tape, reset cycles included.
    tape_runs: usize,
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
    /// Width and first arena row of every register so far, by register
    /// number (signals first), and the arena rows they take.
    widths: Vec<u32>,
    base: Vec<u32>,
    rows: u32,
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
            widths: Vec::new(),
            base: Vec::new(),
            rows: 0,
            consts: HashMap::new(),
            const_inits: Vec::new(),
            probes: Vec::new(),
            tape: Vec::new(),
            next_of: vec![None; n],
            in_seq: false,
        };
        for s in module.signals() {
            c.reg(s.width());
        }
        let mut state_pairs = Vec::new();
        for sig in elab.state_signals() {
            let shadow = c.reg(module.signal_width(sig));
            c.next_of[sig.index()] = Some(shadow);
            state_pairs.push((c.signal(sig), shadow));
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

        let tape = Tape { comb, seq };
        CompiledModule {
            bare: Some(tape.residual(&c.probes, |_| true)),
            tape,
            words_total: c.rows as usize,
            base: c.base,
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

    /// A fresh register of `width` bits, on the arena rows after the
    /// last one's.
    fn reg(&mut self, width: u32) -> Reg {
        let row = self.rows;
        self.rows += width;
        self.base.push(row);
        self.widths.push(width);
        Reg { row, width }
    }

    /// The register mirroring signal `sig`.
    fn signal(&self, sig: SignalId) -> Reg {
        Reg {
            row: self.base[sig.index()],
            width: self.widths[sig.index()],
        }
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
        if r.width == 1 {
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
        if r.width == w {
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
            Expr::Signal(s) => self.signal(*s),
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
                    let wd = acc.width + lo.width;
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
                    self.signal(*lhs)
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
/// [`SimBackend::lane_block`] normalizes to). A replay builds one and
/// [`BatchSim::reset`]s it for each of its passes.
///
/// Fused boolean-node probe hits accumulate inside the executor (one
/// true/false word pair per probe per block word) and are delivered
/// through [`BatchSim::drain_probes_to`] — automatically at the end of
/// every [`BatchSim::step_observed`].
///
/// Every method that runs a tape takes it as an argument: the module's
/// tape or a residual of it (see [`Residual`]).
#[derive(Debug)]
struct BatchSim<'c, const W: usize = 1> {
    c: &'c CompiledModule,
    words: Vec<u64>,
    probe_true: Vec<u64>,
    probe_false: Vec<u64>,
    cycle: u64,
    /// Settle-and-edge runs of the tape since construction, across
    /// resets.
    runs: usize,
}

impl<'c, const W: usize> BatchSim<'c, W> {
    /// Creates an executor with every lane at the reset state.
    fn new(c: &'c CompiledModule) -> Self {
        let mut sim = BatchSim {
            c,
            words: vec![0u64; c.words_total * W],
            probe_true: vec![0u64; c.probes.len() * W],
            probe_false: vec![0u64; c.probes.len() * W],
            cycle: 0,
            runs: 0,
        };
        sim.reset();
        sim
    }

    /// Puts every lane back at the power-on state, as a new executor
    /// would be: constants and signal initial values broadcast, every
    /// other register and every probe hit cleared, the cycle count at
    /// zero. The run count is kept.
    fn reset(&mut self) {
        let c = self.c;
        self.words.fill(0);
        for &(r, bits) in &c.const_inits {
            broadcast::<W>(&mut self.words, r.row, r.width, bits);
        }
        for i in 0..c.n_signals {
            broadcast::<W>(&mut self.words, c.base[i], c.widths[i], c.sig_init[i]);
        }
        self.probe_true.fill(0);
        self.probe_false.fill(0);
        self.cycle = 0;
    }

    /// The number of completed cycles since the last reset (shared by
    /// every lane).
    fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives block word `word` from one cycle record of a
    /// [`PackedStimulus`]: `pairs` is `[val, drv]` per packed row and
    /// `rows[r]` the arena row of packed row `r`. Lanes outside a
    /// row's `drv` word hold their value.
    #[inline]
    fn drive_word(&mut self, word: usize, rows: &[u32], pairs: &[u64]) {
        for (pair, &row) in pairs.chunks_exact(2).zip(rows) {
            let slot = &mut self.words[row as usize * W + word];
            *slot = (*slot & !pair[1]) | pair[0];
        }
    }

    /// Drives an input identically in every lane.
    fn set_input_all(&mut self, sig: SignalId, value: Bv) {
        let w = self.c.widths[sig.index()];
        let bits = value.resize(w).bits();
        broadcast::<W>(&mut self.words, self.c.base[sig.index()], w, bits);
    }

    /// The settled snapshot view.
    fn snapshot(&self) -> LaneSnapshot<'_> {
        LaneSnapshot {
            widths: &self.c.widths[..self.c.n_signals],
            words: &self.words,
            base: &self.c.base[..self.c.n_signals],
            block: W,
        }
    }

    /// Settles the combinational processes of `tape` in every lane;
    /// observations are restricted to `active` lanes.
    fn settle(&mut self, tape: &Tape, active: &[u64; W], obs: Option<&mut dyn BatchObserver>) {
        let mut watch = Watch {
            active,
            probe_true: &mut self.probe_true,
            probe_false: &mut self.probe_false,
            obs: obs.map(|o| o as &mut dyn BatchObserver),
        };
        exec_wide::<W>(&mut self.words, &tape.comb, &mut watch);
    }

    /// Fires the sequential processes of `tape` and commits next state
    /// in every lane; observations are restricted to `active` lanes.
    fn clock_edge(&mut self, tape: &Tape, active: &[u64; W], obs: Option<&mut dyn BatchObserver>) {
        let c = self.c;
        for &(cur, next) in &c.state_pairs {
            self.words
                .copy_within(cur.words::<W>(), next.words::<W>().start);
        }
        let mut watch = Watch {
            active,
            probe_true: &mut self.probe_true,
            probe_false: &mut self.probe_false,
            obs: obs.map(|o| o as &mut dyn BatchObserver),
        };
        exec_wide::<W>(&mut self.words, &tape.seq, &mut watch);
        for &(cur, next) in &c.state_pairs {
            self.words
                .copy_within(next.words::<W>(), cur.words::<W>().start);
        }
        self.cycle += 1;
        self.runs += 1;
    }

    /// Runs one full clock cycle of `tape`, reporting events to `obs`
    /// (including a probe drain after the edge).
    fn step_observed(&mut self, tape: &Tape, active: &[u64; W], obs: &mut dyn BatchObserver) {
        self.settle(tape, active, Some(obs));
        obs.on_cycle_end(self.cycle, &LaneSet::new(active), &self.snapshot());
        self.clock_edge(tape, active, Some(obs));
        self.drain_probes_to(obs);
    }

    /// Delivers the accumulated fused probe hits to `obs`. Hits are
    /// cumulative since executor construction and monotone, so draining
    /// repeatedly (or once at the end of a multi-cycle run) yields the
    /// same collector state as a per-cycle drain.
    fn drain_probes_to(&self, obs: &mut dyn BatchObserver) {
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

    /// Drives the suite reset protocol in every active lane, running
    /// `tape`: zero the data inputs, pulse the designated reset for one
    /// observed cycle, deassert it. A no-op for modules without a reset
    /// input.
    fn apply_reset(&mut self, tape: &Tape, active: &[u64; W], obs: &mut dyn BatchObserver) {
        let c = self.c;
        if let Some(rst) = c.reset {
            for &d in &c.data_inputs {
                broadcast::<W>(&mut self.words, c.base[d.index()], c.widths[d.index()], 0);
            }
            self.set_input_all(rst, Bv::one_bit());
            self.step_observed(tape, active, obs);
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

/// The words of an instruction's destination, writable, beside the
/// words of its sources, readable. Lowering allocates an expression's
/// result register after its operands', so every source lies below the
/// destination; a source that did not would panic here.
#[inline(always)]
fn dest_and_sources<const N: usize>(
    words: &mut [u64],
    d: Range<usize>,
    srcs: [Range<usize>; N],
) -> (&mut [u64], [&[u64]; N]) {
    let (lo, hi) = words.split_at_mut(d.start);
    let lo: &[u64] = lo;
    (&mut hi[..d.len()], srcs.map(|s| &lo[s]))
}

/// `dst[k] = f(k, a[k], b[k])` for every word `k` of `dst`, lowest
/// first, each source reading as zero past its own words (operands
/// zero-extend). One loop when both sources cover `dst`; otherwise the
/// words both cover, the words one covers and the rest run as separate
/// loops, so no word tests its index.
#[inline(always)]
fn map2(dst: &mut [u64], a: &[u64], b: &[u64], mut f: impl FnMut(usize, u64, u64) -> u64) {
    let n = dst.len();
    if a.len() >= n && b.len() >= n {
        for (k, ((o, &x), &y)) in dst.iter_mut().zip(a).zip(b).enumerate() {
            *o = f(k, x, y);
        }
        return;
    }
    let (a, b) = (&a[..a.len().min(n)], &b[..b.len().min(n)]);
    let (both, one) = (a.len().min(b.len()), a.len().max(b.len()));
    let (head, rest) = dst.split_at_mut(both);
    let (mid, tail) = rest.split_at_mut(one - both);
    for (k, ((o, &x), &y)) in head.iter_mut().zip(a).zip(b).enumerate() {
        *o = f(k, x, y);
    }
    for (k, (o, &x)) in mid.iter_mut().zip(&a[both..]).enumerate() {
        *o = f(both + k, x, 0);
    }
    for (k, (o, &y)) in mid.iter_mut().zip(&b[both..]).enumerate() {
        *o = f(both + k, 0, y);
    }
    for (k, o) in tail.iter_mut().enumerate() {
        *o = f(one + k, 0, 0);
    }
}

/// `dst[k] = f(k, a[k])` for every word `k` of `dst`, lowest first, the
/// source reading as zero past its own words.
#[inline(always)]
fn map1(dst: &mut [u64], a: &[u64], mut f: impl FnMut(usize, u64) -> u64) {
    let (head, tail) = dst.split_at_mut(a.len().min(dst.len()));
    for (k, (o, &x)) in head.iter_mut().zip(a).enumerate() {
        *o = f(k, x);
    }
    let n = head.len();
    for (k, o) in tail.iter_mut().enumerate() {
        *o = f(n + k, 0);
    }
}

/// `f(k, a[k], b[k])` for every word `k` either source covers, lowest
/// first, the shorter reading as zero past its words.
#[inline(always)]
fn fold2(a: &[u64], b: &[u64], mut f: impl FnMut(usize, u64, u64)) {
    let both = a.len().min(b.len());
    for (k, (&x, &y)) in a[..both].iter().zip(&b[..both]).enumerate() {
        f(k, x, y);
    }
    for (k, &x) in a.iter().enumerate().skip(both) {
        f(k, x, 0);
    }
    for (k, &y) in b.iter().enumerate().skip(both) {
        f(k, 0, y);
    }
}

/// The `W` words of a one-bit register (a mask or a predicate).
#[inline(always)]
fn bit_words<const W: usize>(words: &[u64]) -> [u64; W] {
    *words
        .first_chunk()
        .expect("a one-bit register holds W words")
}

/// Where a tape run's observation instructions report: the lanes
/// events are masked to, the fused probe-hit words and the observer,
/// behind the one reference the executor's instruction loop carries.
struct Watch<'a, const W: usize> {
    active: &'a [u64; W],
    probe_true: &'a mut [u64],
    probe_false: &'a mut [u64],
    obs: Option<&'a mut dyn BatchObserver>,
}

/// Executes one tape in bit-parallel mode over a lane block of `W`
/// words. Every lane computes on every instruction; observation events
/// are masked to `watch.active`. Boolean-node probes are *fused*:
/// instead of dispatching through the observer per instruction, their
/// per-lane true/false hits OR-accumulate into the watch's probe words
/// (one word per probe per block word) for a bulk drain after the run.
///
/// An instruction carries its operands' arena rows and widths
/// ([`Reg`]), so it looks nothing up: it runs over their words as
/// contiguous `width·W` slices (bit `i`, block word `j` at `i·W + j`).
/// Bitwise operations are one loop over the words, carries and
/// comparisons keep one state word per block word (`k % W`), and every
/// result — shifts and products included — is built in the
/// destination's own words.
fn exec_wide<const W: usize>(words: &mut [u64], tape: &[Inst], watch: &mut Watch<'_, W>) {
    let at = Reg::words::<W>;
    for inst in tape {
        match *inst {
            Inst::And { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                map2(dst, a, b, |_, x, y| x & y);
            }
            Inst::Or { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                map2(dst, a, b, |_, x, y| x | y);
            }
            Inst::Xor { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                map2(dst, a, b, |_, x, y| x ^ y);
            }
            Inst::AndNot { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                map2(dst, a, b, |_, x, y| x & !y);
            }
            Inst::Not { d, a } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                map1(dst, a, |_, x| !x);
            }
            Inst::Resize { d, a } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                map1(dst, a, |_, x| x);
            }
            // Bits `lo..` (`bit`, `amt..`) of the source, zero past its
            // width.
            Inst::Slice { d, a, lo: from }
            | Inst::Index { d, a, bit: from }
            | Inst::ShrC { d, a, amt: from } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let a = &a[(from as usize * W).min(a.len())..];
                map1(dst, a, |_, x| x);
            }
            Inst::ShlC { d, a, amt } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let (low, high) = dst.split_at_mut((amt as usize * W).min(dst.len()));
                low.fill(0);
                map1(high, a, |_, x| x);
            }
            Inst::Concat { d, hi, lo } => {
                let (dst, [hi, lo]) = dest_and_sources(words, at(d), [at(hi), at(lo)]);
                let (low, high) = dst.split_at_mut(lo.len());
                low.copy_from_slice(lo);
                high.copy_from_slice(hi);
            }
            Inst::Neg { d, a } => {
                // ~a + 1 via a carry ripple seeded with all-ones.
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let mut carry = [u64::MAX; W];
                map1(dst, a, |k, x| {
                    let (x, c) = (!x, &mut carry[k % W]);
                    let out = x ^ *c;
                    *c &= x;
                    out
                });
            }
            Inst::Add { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                let mut carry = [0u64; W];
                map2(dst, a, b, |k, x, y| {
                    let c = &mut carry[k % W];
                    let out = x ^ y ^ *c;
                    *c = (x & y) | (*c & (x ^ y));
                    out
                });
            }
            Inst::Sub { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                let mut borrow = [0u64; W];
                map2(dst, a, b, |k, x, y| {
                    let c = &mut borrow[k % W];
                    let out = x ^ y ^ *c;
                    *c = (!x & y) | (!(x ^ y) & *c);
                    out
                });
            }
            Inst::Mul { d, a, b } => {
                // Shift-and-add, accumulated in the destination's words.
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                dst.fill(0);
                let (wd, wa) = (dst.len() / W, a.len() / W);
                for s in 0..wd.min(b.len() / W) {
                    for j in 0..W {
                        let m = b[s * W + j];
                        if m == 0 {
                            continue;
                        }
                        let mut carry = 0u64;
                        for i in s..wd {
                            let y = if i - s < wa {
                                a[(i - s) * W + j] & m
                            } else if carry == 0 {
                                break;
                            } else {
                                0
                            };
                            let x = &mut dst[i * W + j];
                            let sum = *x ^ y ^ carry;
                            carry = (*x & y) | (carry & (*x ^ y));
                            *x = sum;
                        }
                    }
                }
            }
            Inst::Eq { d, a, b } | Inst::Ne { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                let mut eq = [u64::MAX; W];
                fold2(a, b, |k, x, y| eq[k % W] &= !(x ^ y));
                let ne = matches!(inst, Inst::Ne { .. });
                for (o, e) in dst.iter_mut().zip(eq) {
                    *o = if ne { !e } else { e };
                }
            }
            Inst::Lt { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                let mut lt = [0u64; W];
                fold2(a, b, |k, x, y| {
                    let l = &mut lt[k % W];
                    *l = (!x & y) | (!(x ^ y) & *l);
                });
                for (o, l) in dst.iter_mut().zip(lt) {
                    *o = l;
                }
            }
            Inst::Le { d, a, b } => {
                let (dst, [a, b]) = dest_and_sources(words, at(d), [at(a), at(b)]);
                let (mut lt, mut eq) = ([0u64; W], [u64::MAX; W]);
                fold2(a, b, |k, x, y| {
                    let l = &mut lt[k % W];
                    *l = (!x & y) | (!(x ^ y) & *l);
                    eq[k % W] &= !(x ^ y);
                });
                for ((o, l), e) in dst.iter_mut().zip(lt).zip(eq) {
                    *o = l | e;
                }
            }
            Inst::Shl { d, a, amt } | Inst::Shr { d, a, amt } => {
                let (dst, [a, amt]) = dest_and_sources(words, at(d), [at(a), at(amt)]);
                map1(dst, a, |_, x| x);
                barrel::<W>(dst, amt, matches!(inst, Inst::Shl { .. }));
            }
            Inst::RedAnd { d, a } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let mut r = [u64::MAX; W];
                for (k, &x) in a.iter().enumerate() {
                    r[k % W] &= x;
                }
                for (o, r) in dst.iter_mut().zip(r) {
                    *o = r;
                }
            }
            Inst::RedOr { d, a } | Inst::Truth { d, a } | Inst::LogicNot { d, a } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let mut r = [0u64; W];
                for (k, &x) in a.iter().enumerate() {
                    r[k % W] |= x;
                }
                let not = matches!(inst, Inst::LogicNot { .. });
                for (o, r) in dst.iter_mut().zip(r) {
                    *o = if not { !r } else { r };
                }
            }
            Inst::RedXor { d, a } => {
                let (dst, [a]) = dest_and_sources(words, at(d), [at(a)]);
                let mut r = [0u64; W];
                for (k, &x) in a.iter().enumerate() {
                    r[k % W] ^= x;
                }
                for (o, r) in dst.iter_mut().zip(r) {
                    *o = r;
                }
            }
            Inst::Mux { d, c: cnd, t, e } => {
                let (dst, [cnd, t, e]) = dest_and_sources(words, at(d), [at(cnd), at(t), at(e)]);
                let m = bit_words::<W>(cnd);
                map2(dst, t, e, |k, x, y| {
                    let m = m[k % W];
                    (m & x) | (!m & y)
                });
            }
            Inst::Store { d, src, mask } => {
                // `x = x` merges a register with itself: nothing moves.
                if src == d {
                    continue;
                }
                let m = bit_words::<W>(&words[at(mask)]);
                let (d, src) = (at(d), at(src));
                let (dst, src): (&mut [u64], &[u64]) = if src.start >= d.end {
                    let (lo, hi) = words.split_at_mut(d.end);
                    (&mut lo[d.start..], &hi[src.start - d.end..src.end - d.end])
                } else {
                    let (lo, hi) = words.split_at_mut(d.start);
                    (&mut hi[..d.len()], &lo[src])
                };
                for (k, (o, &x)) in dst.iter_mut().zip(src).enumerate() {
                    let m = m[k % W];
                    *o = (m & x) | (!m & *o);
                }
                for k in src.len()..dst.len() {
                    dst[k] &= !m[k % W];
                }
            }
            Inst::ObsStmt { stmt, mask } => {
                if let Some(o) = watch.obs.as_deref_mut() {
                    let m = bit_words::<W>(&words[at(mask)]);
                    let l: [u64; W] = std::array::from_fn(|j| m[j] & watch.active[j]);
                    if l != [0; W] {
                        o.on_stmt(stmt, &LaneSet::new(&l));
                    }
                }
            }
            Inst::ObsBranch {
                stmt,
                outcome,
                mask,
            } => {
                if let Some(o) = watch.obs.as_deref_mut() {
                    let m = bit_words::<W>(&words[at(mask)]);
                    let l: [u64; W] = std::array::from_fn(|j| m[j] & watch.active[j]);
                    if l != [0; W] {
                        o.on_branch(stmt, outcome, &LaneSet::new(&l));
                    }
                }
            }
            Inst::ObsBool { probe, val, mask } => {
                if watch.obs.is_some() {
                    let m = bit_words::<W>(&words[at(mask)]);
                    let v = bit_words::<W>(&words[at(val)]);
                    let pb = probe as usize * W;
                    let pt = &mut watch.probe_true[pb..pb + W];
                    let pf = &mut watch.probe_false[pb..pb + W];
                    for j in 0..W {
                        let m = m[j] & watch.active[j];
                        pt[j] |= v[j] & m;
                        pf[j] |= !v[j] & m;
                    }
                }
            }
        }
    }
}

/// Lane-parallel barrel shifter over a `W`-word block, in place:
/// conditionally shifts `dst` (`W` words per bit) by each power of two
/// under the per-lane words of the amount register's `amt` words.
/// Amount bits whose power reaches the width force the affected lanes
/// to zero, so amounts at or beyond the width produce zero — matching
/// [`Bv::shl`]/[`Bv::shr`].
fn barrel<const W: usize>(dst: &mut [u64], amt: &[u64], left: bool) {
    let (rows, _) = dst.as_chunks_mut::<W>();
    let w = rows.len();
    for (s, m) in amt.as_chunks::<W>().0.iter().enumerate() {
        if *m == [0; W] {
            continue;
        }
        if s >= 6 || (1usize << s) >= w {
            for row in rows.iter_mut() {
                for j in 0..W {
                    row[j] &= !m[j];
                }
            }
            continue;
        }
        let k = 1usize << s;
        // Left: every row takes the one `k` below, highest first so
        // each reads a row not yet moved; right: the one `k` above,
        // lowest first. The `k` rows shifted in become zero.
        if left {
            for i in (k..w).rev() {
                for j in 0..W {
                    rows[i][j] = (m[j] & rows[i - k][j]) | (!m[j] & rows[i][j]);
                }
            }
            for row in &mut rows[..k] {
                for j in 0..W {
                    row[j] &= !m[j];
                }
            }
        } else {
            for i in 0..w - k {
                for j in 0..W {
                    rows[i][j] = (m[j] & rows[i + k][j]) | (!m[j] & rows[i][j]);
                }
            }
            for row in &mut rows[w - k..] {
                for j in 0..W {
                    row[j] &= !m[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(SimBackend::default(), SimBackend::CompiledBatch(8));
        assert_eq!(SimBackend::default().lane_block(), MAX_LANE_BLOCK);
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
