//! Engine configuration.

use gm_mc::Backend;
use gm_rtl::SignalId;
use gm_sim::{InputVector, SimBackend};

/// How the initial test data is produced (the paper's data generator).
#[derive(Clone, Debug, PartialEq)]
pub enum SeedStimulus {
    /// Random input patterns for the given number of cycles (§2.1: the
    /// design "is simulated for a fixed number of cycles using random
    /// input patterns").
    Random {
        /// Number of random cycles.
        cycles: u64,
    },
    /// An existing directed/regression test.
    Directed(Vec<InputVector>),
    /// No initial patterns — the §7.2 zero-pattern limit study. Mining
    /// starts from the trivial "output is always 0" hypothesis.
    None,
}

/// What to do when the formal engines answer `Unknown`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownPolicy {
    /// Treat the candidate as proved but count it in
    /// [`crate::ClosureOutcome::unknown_assumed`]. Matches the paper's
    /// bounded-unrolling pragmatics.
    AssumeTrue,
    /// Leave the leaf open; the run reports non-convergence.
    LeaveOpen,
}

/// How the engine splits each iteration's verification worklist across
/// concurrent sessions.
///
/// Sharding never changes results: the engine's determinism contract
/// (see [`crate::Engine`]) guarantees a bit-identical
/// [`crate::ClosureOutcome`] — suite labels, iteration reports,
/// assertion order, counterexample traces — for every policy; only the
/// [`gm_mc::SessionStats`] work counters reflect how the work was
/// distributed. The deal is a static round-robin, so those counters are
/// reproducible run to run too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// One persistent session, dispatched on the engine thread (PR 2
    /// behavior). The default.
    #[default]
    Off,
    /// A fixed number of shard sessions (clamped to at least 1, which
    /// is `Off`).
    Fixed(usize),
    /// One shard session per available core
    /// ([`std::thread::available_parallelism`]).
    PerCore,
}

impl ShardPolicy {
    /// The number of shard sessions this policy resolves to on the
    /// current host; 1 dispatches without the worker pool.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardPolicy::Off => 1,
            ShardPolicy::Fixed(n) => (*n).max(1),
            ShardPolicy::PerCore => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Temporal-template mining: next-cycle implication, bounded
/// eventuality, and stability windows proposed from per-row lookahead
/// (see [`gm_mine::temporal_candidates`]).
///
/// The default (`horizon: 0`) disables the pass entirely and reproduces
/// the combinational-only engine byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TemporalConfig {
    /// Post-window lookahead cycles recorded per dataset row — the
    /// maximum `shift`/`bound` a mined template can use. `0` disables
    /// temporal mining.
    pub horizon: u32,
}

impl TemporalConfig {
    /// Whether the temporal pass runs.
    pub fn enabled(&self) -> bool {
        self.horizon > 0
    }
}

/// Coverage-ranked directed refinement: counterexample prefixes are
/// extended with deterministic random suffixes, written straight into
/// lane words ([`gm_sim::DirectedVariants`]); every variant is scored
/// in one observe-only replay against the uncovered-point index of the
/// previous iteration's coverage snapshot
/// ([`gm_coverage::GainObserver`]), and only the top-ranked variants
/// are replayed into traces and absorbed as `dir-*` suite segments.
///
/// The default (`variants: 0`) disables the pass entirely and
/// reproduces the unrefined engine byte for byte. The pass also
/// requires [`EngineConfig::record_coverage`] — without a coverage
/// snapshot there is no uncovered set to rank against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefineConfig {
    /// Directed variants synthesized per counterexample prefix; `0`
    /// disables the refinement pass.
    pub variants: usize,
    /// Random data-input cycles appended after each replayed prefix.
    pub extra_cycles: u64,
    /// At most this many top-ranked directed segments absorbed per
    /// iteration (only variants with a strictly positive predicted
    /// gain are ever absorbed).
    pub max_absorb: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            variants: 0,
            extra_cycles: 16,
            max_absorb: 2,
        }
    }
}

impl RefineConfig {
    /// Whether the refinement pass runs.
    pub fn enabled(&self) -> bool {
        self.variants > 0
    }
}

/// Which output bits to mine. A bit the selection names more than once
/// is mined once, in the place it is first named.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TargetSelection {
    /// Every bit of every primary output.
    #[default]
    AllOutputs,
    /// Specific signals (all bits of each).
    Signals(Vec<SignalId>),
    /// Specific (signal, bit) pairs.
    Bits(Vec<(SignalId, u32)>),
}

/// Configuration for a [`crate::Engine`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Mining window length `w` (features span offsets `0..=w`).
    pub window: u32,
    /// RNG seed for random stimulus.
    pub seed: u64,
    /// Initial stimulus.
    pub stimulus: SeedStimulus,
    /// Maximum counterexample iterations before giving up.
    pub max_iterations: u32,
    /// Model-checking backend.
    pub backend: Backend,
    /// Policy for `Unknown` verdicts.
    pub unknown: UnknownPolicy,
    /// Target outputs.
    pub targets: TargetSelection,
    /// How each iteration's verification worklists (window and
    /// temporal; neither holds a property twice, since targets are
    /// distinct bits and leaves distinct paths) are split across
    /// concurrent verification sessions.
    /// Results are identical for every policy — see [`ShardPolicy`].
    pub shards: ShardPolicy,
    /// Record per-iteration coverage of the accumulated suite. The
    /// engine keeps one coverage suite for the run and lets it observe
    /// the replays that already produce the miner's traces, so this
    /// costs observation, not another simulation.
    pub record_coverage: bool,
    /// Temporal-template mining (disabled by default — see
    /// [`TemporalConfig`]).
    pub temporal: TemporalConfig,
    /// Coverage-ranked directed refinement (disabled by default — see
    /// [`RefineConfig`]).
    pub refine: RefineConfig,
    /// Which simulation engine runs the replays (seed traces,
    /// counterexample replay, refinement scoring) and the coverage
    /// observation they carry.
    /// Every backend produces a byte-identical [`crate::ClosureOutcome`]
    /// — the compiled tape is proven trace- and coverage-identical to
    /// the interpreter by `sim/compiled_agree`, for every lane-block
    /// width. The default is the 64-lane compiled backend; a wider
    /// [`SimBackend::CompiledBatch`] block takes a pass to up to 512
    /// stimulus vectors for suite-heavy workloads.
    pub sim_backend: SimBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: 1,
            seed: 0xC0FFEE,
            stimulus: SeedStimulus::Random { cycles: 64 },
            max_iterations: 64,
            backend: Backend::Auto,
            unknown: UnknownPolicy::AssumeTrue,
            targets: TargetSelection::AllOutputs,
            shards: ShardPolicy::Off,
            record_coverage: true,
            temporal: TemporalConfig::default(),
            refine: RefineConfig::default(),
            sim_backend: SimBackend::default(),
        }
    }
}
