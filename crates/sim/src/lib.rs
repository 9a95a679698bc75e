//! # gm-sim — cycle-accurate behavioral RTL simulation
//!
//! The dynamic half of GoldMine's *data generator*: a deterministic
//! two-valued interpreter for `gm-rtl` modules with
//!
//! * observer hooks for coverage collection ([`SimObserver`]),
//! * per-cycle trace capture ([`Trace`]) with VCD export,
//! * random and directed stimulus sources ([`RandomStimulus`],
//!   [`DirectedStimulus`]),
//! * reset-rooted multi-segment test suites ([`TestSuite`]) — the shape
//!   of the validation stimulus the refinement loop accumulates.
//!
//! Clocking model: one implicit clock; every [`Simulator::step`] is a
//! full cycle (settle combinational logic, sample, latch registers).
//! Sequential processes use non-blocking semantics, combinational
//! processes blocking semantics in elaboration's topological order.
//!
//! Two engines share those semantics: the tree-walking interpreter
//! ([`Simulator`], the reference and the differential oracle) and the
//! compiled backend ([`CompiledModule`]), which lowers the design once
//! into a flat instruction tape with one executor: bit-parallel in lane
//! blocks of 1–8 words — 64 to 512 stimulus vectors per pass
//! (bit `k` of block word `j` = vector `j*64 + k`) — with
//! boolean-node coverage probes fused into the tape and drained in bulk
//! ([`BatchObserver::drain_probes`]), and every observation point
//! dropped from the tape, within a pass, once the observer reports it
//! closed ([`BatchObserver::closed`]). Code that replays reset-rooted
//! segments goes through one seam, [`Replay`], which rides the tape
//! when it is given one and walks the interpreter otherwise. Stimulus
//! has one form, [`PackedStimulus`]: 64-segment lane groups holding,
//! per cycle, an active-lane word and a value word and a drive word per
//! driven input bit (an undriven lane *holds* its input). It is the
//! only storage a [`TestSuite`] has — `push` packs — and a replay of
//! any range of a suite reads the range's groups in place; a
//! [`Segment`] is decoded from it on request. See the "Lane encoding"
//! section of the compiled backend's module docs. A run
//! picks between them (and the lane-block width) with [`SimBackend`].
//! A design has one tape, compiled with its observation instructions:
//! a replay whose observer has closed every point (a [`NopObserver`])
//! runs the tape's cached probe-free residual, so trace-only callers
//! need no tape of their own ([`CompileOptions`] remains for the
//! benchmarks and tests that measure the stripped tape alone).
//! The interpreter is still what runs under
//! [`SimBackend::Interpreter`] — the reference leg of every agree
//! suite — and under any [`SimObserver`] that wants expressions and
//! values rather than lane sets; `sim/compiled_agree` proves the two
//! trace- and coverage-identical.

#![warn(missing_docs)]

mod compile;
mod packed;
mod replay;
mod sim;
mod stim;
mod suite;
mod trace;

pub use compile::{
    BatchObserver, CompileOptions, CompiledModule, LaneSet, LaneSnapshot, ObsPoint, ProbeHits,
    SimBackend, MAX_LANE_BLOCK,
};
pub use packed::PackedStimulus;
pub use replay::Replay;
/// [`NopObserver`] under the name the compiled entry points' callers
/// import; it ignores both engines' events.
pub use sim::NopObserver as NopBatchObserver;
pub use sim::{BranchOutcome, ExprRole, MultiObserver, NopObserver, SimObserver, Simulator};
pub use stim::{
    collect_vectors, DirectedStimulus, DirectedVariants, InputLayout, InputVector, RandomStimulus,
    Stimulus,
};
pub use suite::{run_segment, Segment, SegmentLabel, TestSuite};
pub use trace::Trace;
