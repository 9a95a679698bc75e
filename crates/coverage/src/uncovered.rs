//! Uncovered-point index for coverage-directed stimulus ranking.
//!
//! The refinement loop (gm-core) needs to ask, for each candidate
//! stimulus it could absorb next, *how many currently-uncovered points
//! would this segment newly hit?* — without mutating the live
//! collectors. [`UncoveredIndex`] snapshots the open toggle points and
//! unvisited FSM states out of a [`CoverageSuite`], and a
//! [`GainObserver`] scores every segment of one replay against that
//! frozen set at once, riding the replay as an observer: no trace is
//! materialized for a segment that is scored and thrown away.
//!
//! Only toggle and FSM points are indexed: they are the two metrics
//! whose points are directly expressible as predicates over settled
//! cycle snapshots (a bit edge between consecutive settled cycles; a
//! register equalling a declared state). Line/branch/condition/expression
//! points need the evaluator's internal probes and are deliberately out
//! of scope — the ranking is a heuristic gain estimate, not a replay.
//!
//! The score reads a segment's *data* cycles only — the rows of its
//! trace. The reset cycle is not one, so the edge from the reset cycle
//! to the first data cycle never scores, although [`ToggleCoverage`]
//! counts it once the segment is absorbed; FSM states count on data
//! cycles only, likewise.
//!
//! [`ToggleCoverage`]: crate::ToggleCoverage

use crate::collectors::CoverageSuite;
use gm_cache::FxMap;
use gm_rtl::{Bv, Module, SignalId};
use gm_sim::{BatchObserver, LaneSet, LaneSnapshot, ObsPoint, SimObserver};

/// A frozen snapshot of the uncovered toggle points and unvisited FSM
/// states of a [`CoverageSuite`], scored by a [`GainObserver`].
///
/// Construction order is deterministic (watched-declaration order for
/// toggles, register-declaration order for FSM states), so scores and
/// tie-breaks are reproducible across runs and backends. A score
/// ignores the edge from the reset cycle into the first data cycle,
/// which [`crate::ToggleCoverage`] counts (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct UncoveredIndex {
    /// Uncovered toggle points: `(signal, bit, rising)`.
    toggles: Vec<(SignalId, u32, bool)>,
    /// Declared-but-unvisited FSM states: `(register, state)`.
    fsm_states: Vec<(SignalId, Bv)>,
    /// Open points per signal, by signal index (see
    /// [`UncoveredIndex::signal_gain`]).
    signal_gains: Vec<usize>,
}

impl UncoveredIndex {
    /// Snapshots the uncovered points of `suite`.
    pub fn from_suite(suite: &CoverageSuite) -> Self {
        let toggles = suite.toggle().uncovered();
        let fsm_states = suite.fsm().unvisited();
        let signals =
            (toggles.iter().map(|&(s, _, _)| s)).chain(fsm_states.iter().map(|&(s, _)| s));
        let mut signal_gains = Vec::new();
        for sig in signals {
            if sig.index() >= signal_gains.len() {
                signal_gains.resize(sig.index() + 1, 0);
            }
            signal_gains[sig.index()] += 1;
        }
        Self {
            toggles,
            fsm_states,
            signal_gains,
        }
    }

    /// Whether there is nothing left to cover in the indexed metrics.
    pub fn is_empty(&self) -> bool {
        self.toggles.is_empty() && self.fsm_states.is_empty()
    }

    /// The number of open points in the index.
    pub fn len(&self) -> usize {
        self.toggles.len() + self.fsm_states.len()
    }

    /// The number of open points that live on `sig` (toggle edges of
    /// any bit, plus unvisited FSM states when `sig` is a state
    /// register), read from a table built with the index. The worklist
    /// ranker uses this as a cheap distance query: a candidate whose
    /// literals mention high-residue signals is more likely to yield
    /// coverage-advancing stimulus when refuted.
    pub fn signal_gain(&self, sig: SignalId) -> usize {
        self.signal_gains.get(sig.index()).copied().unwrap_or(0)
    }

    /// The number of indexed points `trace` would newly cover: the
    /// reference [`GainObserver`] is tested against.
    ///
    /// Each open point counts at most once no matter how often the
    /// trace hits it, matching how the live collectors would absorb it.
    /// Toggle points follow the collector's edge semantics: an edge is
    /// a bit change between *consecutive* settled cycles of this trace
    /// (cross-trace seams are not edges).
    #[cfg(test)]
    pub(crate) fn trace_gain(&self, trace: &gm_sim::Trace) -> usize {
        let mut gain = 0;
        for &(sig, bit, rising) in &self.toggles {
            if (1..trace.len()).any(|c| {
                let old = trace.bit(c - 1, sig, bit);
                let new = trace.bit(c, sig, bit);
                old != new && new == rising
            }) {
                gain += 1;
            }
        }
        for &(reg, state) in &self.fsm_states {
            if (0..trace.len()).any(|c| trace.value(c, reg) == state) {
                gain += 1;
            }
        }
        gain
    }
}

/// Hit slot of a toggle edge the index does not hold.
const NO_SLOT: u32 = u32::MAX;

/// Scores every segment of one replay against an [`UncoveredIndex`]:
/// segment `i` of the replayed range gains the number of indexed points
/// its trace would newly cover, each point counted once however often
/// it is hit.
///
/// The observer rides [`gm_sim::Replay::observe`] on either engine and
/// keeps, per open point, the word of lanes that have hit it in the
/// current pass — an edge or a state match is a few word operations
/// across every lane of the block — and counts the set lanes into
/// their segments when the next pass (or segment, on the interpreter)
/// starts. Which segment a lane holds comes from
/// [`BatchObserver::on_pass_start`] / [`SimObserver::on_segment_start`],
/// never from cycle events (a zero-length segment on a reset-free
/// design reports none). It observes no statement, branch or probe, so
/// a probed tape runs its bare instructions under it.
#[derive(Debug)]
pub struct GainObserver<'i> {
    index: &'i UncoveredIndex,
    /// Cycle events before a segment's first data cycle: its reset
    /// cycle, when the design has one.
    reset_cycles: u64,
    /// The bits of the open toggle points, each once, with the hit
    /// slots of its rising and falling edge ([`NO_SLOT`] when closed).
    bits: Vec<(SignalId, u32, u32, u32)>,
    /// Per FSM state of the index, whether its width is the register's
    /// (a state of another width never matches a trace value).
    state_fits: Vec<bool>,
    gains: Vec<usize>,
    /// Words per lane block of the current pass.
    block: usize,
    /// The range position of the current pass's lowest lane, and that
    /// lane.
    first: usize,
    low: usize,
    /// Lanes of the current pass that hit each point, slot-major
    /// (toggle points in index order, then FSM states), `block` words
    /// per slot.
    hits: Vec<u64>,
    /// The previous data cycle's words of `bits`, bit-major.
    prev: Vec<u64>,
    /// Reused current-cycle scratch.
    cur: Vec<u64>,
}

impl<'i> GainObserver<'i> {
    /// An observer scoring a replay of `segments` segments of `module`
    /// against `index`.
    pub fn new(module: &Module, index: &'i UncoveredIndex, segments: usize) -> Self {
        let mut slot_of: FxMap<(SignalId, u32), usize> = FxMap::default();
        let mut bits: Vec<(SignalId, u32, u32, u32)> = Vec::new();
        for (slot, &(sig, bit, rising)) in index.toggles.iter().enumerate() {
            let at = *slot_of.entry((sig, bit)).or_insert_with(|| {
                bits.push((sig, bit, NO_SLOT, NO_SLOT));
                bits.len() - 1
            });
            let edge = if rising {
                &mut bits[at].2
            } else {
                &mut bits[at].3
            };
            *edge = slot as u32;
        }
        GainObserver {
            index,
            reset_cycles: u64::from(module.reset().is_some()),
            bits,
            state_fits: (index.fsm_states.iter())
                .map(|&(reg, state)| state.width() == module.signal_width(reg))
                .collect(),
            gains: vec![0; segments],
            block: 1,
            first: 0,
            low: 0,
            hits: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
        }
    }

    /// Every segment's gain, in range order.
    pub fn into_gains(mut self) -> Vec<usize> {
        self.flush();
        self.gains
    }

    /// Counts the finished pass's hits into its segments and starts a
    /// pass of `block`-word lanes whose lane `low` holds the range's
    /// segment `first`.
    fn start(&mut self, first: usize, low: usize, block: usize) {
        self.flush();
        (self.first, self.low, self.block) = (first, low, block);
        self.hits.clear();
        self.hits.resize(self.index.len() * block, 0);
    }

    fn flush(&mut self) {
        for slot in self.hits.chunks_exact(self.block) {
            for (j, &word) in slot.iter().enumerate() {
                let mut left = word;
                while left != 0 {
                    let lane = 64 * j + left.trailing_zeros() as usize;
                    left &= left - 1;
                    self.gains[self.first + lane - self.low] += 1;
                }
            }
        }
    }

    /// One cycle event: `word(sig, bit, j)` is block word `j` of
    /// `sig[bit]` across the lanes, `lanes` the lanes running.
    fn observe(
        &mut self,
        cycle: u64,
        lanes: &LaneSet<'_>,
        word: impl Fn(SignalId, u32, usize) -> u64,
    ) {
        // The reset cycle is not a trace row.
        let Some(row) = cycle.checked_sub(self.reset_cycles) else {
            return;
        };
        let block = self.block;
        let GainObserver {
            index,
            bits,
            state_fits,
            hits,
            prev,
            cur,
            ..
        } = self;
        cur.clear();
        for &(sig, bit, _, _) in bits.iter() {
            cur.extend((0..block).map(|j| word(sig, bit, j)));
        }
        // Edges join consecutive data cycles: a lane running now ran in
        // the previous one too.
        if row > 0 {
            for (k, &(_, _, rise, fall)) in bits.iter().enumerate() {
                for j in 0..block {
                    let (p, c, l) = (prev[k * block + j], cur[k * block + j], lanes.word(j));
                    if rise != NO_SLOT {
                        hits[rise as usize * block + j] |= !p & c & l;
                    }
                    if fall != NO_SLOT {
                        hits[fall as usize * block + j] |= p & !c & l;
                    }
                }
            }
        }
        std::mem::swap(prev, cur);
        let base = index.toggles.len();
        for (n, &(reg, state)) in index.fsm_states.iter().enumerate() {
            if !state_fits[n] {
                continue;
            }
            for j in 0..block {
                let mut equal = lanes.word(j);
                for b in 0..state.width() {
                    let w = word(reg, b, j);
                    equal &= if state.bit(b) { w } else { !w };
                }
                hits[(base + n) * block + j] |= equal;
            }
        }
    }
}

impl SimObserver for GainObserver<'_> {
    fn on_segment_start(&mut self, index: usize) {
        self.start(index, 0, 1);
    }

    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        self.observe(cycle, &LaneSet::new(&[1]), |sig, bit, _| {
            u64::from(values[sig.index()].bit(bit))
        });
    }
}

impl BatchObserver for GainObserver<'_> {
    fn closed(&self, _point: ObsPoint) -> bool {
        true
    }

    fn on_pass_start(&mut self, first: usize, lanes: &LaneSet<'_>) {
        let words = lanes.words();
        let low = (words.iter().enumerate())
            .find(|&(_, &w)| w != 0)
            .map_or(0, |(j, &w)| 64 * j + w.trailing_zeros() as usize);
        self.start(first, low, words.len());
    }

    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        self.observe(cycle, lanes, |sig, bit, j| snap.bit_word(sig, bit, j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_designs::catalog;
    use gm_rtl::parse_verilog;
    use gm_sim::{
        CompiledModule, NopObserver, RandomStimulus, Replay, Simulator, TestSuite, Trace,
    };
    use proptest::prelude::*;

    const DFF: &str = "module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule";

    fn trace_for<'m>(module: &'m gm_rtl::Module, d_vals: &[u64]) -> (CoverageSuite<'m>, Trace) {
        let mut suite = CoverageSuite::new(module);
        let mut sim = Simulator::new(module).unwrap();
        let d = module.require("d").unwrap();
        let vectors: Vec<Vec<(SignalId, Bv)>> =
            d_vals.iter().map(|&v| vec![(d, Bv::new(v, 1))]).collect();
        let trace = sim.run_vectors(&vectors, &mut suite);
        (suite, trace)
    }

    #[test]
    fn gain_counts_only_open_points_once() {
        // Hold d low: d and q never move, so their rise/fall points
        // stay open.
        let m = parse_verilog(DFF).unwrap();
        let (suite, _) = trace_for(&m, &[0, 0, 0]);
        let idx = UncoveredIndex::from_suite(&suite);
        assert!(!idx.is_empty());
        let before = idx.len();

        // A trace that toggles d (and hence q) repeatedly covers each
        // open toggle point exactly once regardless of repetition.
        let (_, busy) = trace_for(&m, &[0, 1, 0, 1, 0, 1]);
        let gain = idx.trace_gain(&busy);
        assert!(gain > 0, "toggling trace must gain over an idle baseline");
        assert!(gain <= before);

        // The idle trace itself gains nothing new.
        let (_, idle) = trace_for(&m, &[0, 0, 0]);
        assert_eq!(idx.trace_gain(&idle), 0);
    }

    #[test]
    fn full_closure_empties_the_index() {
        let m = parse_verilog(DFF).unwrap();
        let (suite, _) = trace_for(&m, &[0, 1, 0, 1, 0]);
        let idx = UncoveredIndex::from_suite(&suite);
        assert!(idx.is_empty(), "open points left: {:?}", idx);
        assert_eq!(idx.len(), 0);
        let (_, t) = trace_for(&m, &[0, 1]);
        assert_eq!(idx.trace_gain(&t), 0);
    }

    /// A reset-free FSM: its registers start at their init values, and
    /// a replay reports no cycle for a zero-length segment.
    const WALKER: &str = "module walker(input clk, input go, input [1:0] pick, output reg hit);
  reg [1:0] state;
  always @(posedge clk)
    case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= pick;
      2'd2: if (pick == 2'd3) state <= 2'd3; else state <= 2'd0;
      default: state <= 2'd0;
    endcase
  always @(posedge clk) hit <= go & (state == 2'd3);
endmodule";

    /// Designs with and without a reset, with and without FSMs.
    fn designs() -> Vec<gm_rtl::Module> {
        let mut out: Vec<gm_rtl::Module> = ["cex_small", "arbiter4", "b01", "b12_lite"]
            .iter()
            .map(|name| {
                let design = catalog().into_iter().find(|d| d.name == *name);
                design.expect("design in catalog").module()
            })
            .collect();
        out.push(parse_verilog(WALKER).unwrap());
        out
    }

    #[test]
    fn the_designs_cover_both_reset_protocols_and_fsms() {
        let designs = designs();
        let with = |reset: bool| designs.iter().filter(move |m| m.reset().is_some() == reset);
        assert!(with(true).any(|m| !m.fsm_regs().is_empty()));
        assert!(with(false).any(|m| !m.fsm_regs().is_empty()));
        assert!(with(false).any(|m| m.fsm_regs().is_empty()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Every segment's gain equals `trace_gain` of its interpreter
        /// trace, on the interpreter and on the tape at every lane
        /// block. Suites hold 130 to 200 segments of 0 to 40 cycles (a
        /// quarter of them zero-length, so passes often start on one);
        /// the replayed range starts inside the first lane group, and
        /// the index has every point open or those a prefix of the
        /// suite left open.
        ///
        /// Mutants this kills: an edge counted from the reset cycle into
        /// the first data cycle; lanes mapped to segments by the lanes
        /// of the first cycle event.
        #[test]
        fn the_observer_scores_what_trace_gain_scores(
            lengths in prop::collection::vec(
                (0u8..4, 1u64..=40).prop_map(|(zero, n)| if zero == 0 { 0 } else { n }),
                130..=200,
            ),
            seed in any::<u64>(),
            seen in 0usize..3,
            start in 0usize..70,
        ) {
            for m in &designs() {
                let mut suite = TestSuite::new();
                for (k, &cycles) in lengths.iter().enumerate() {
                    let mut stim = RandomStimulus::new(m, seed.wrapping_add(k as u64), cycles);
                    suite.push("", gm_sim::collect_vectors(&mut stim));
                }
                let compiled = CompiledModule::compile(m).unwrap();
                let replay = |compiled, block| Replay {
                    module: m,
                    compiled,
                    block,
                    cancel: None,
                };
                let mut cov = CoverageSuite::new(m);
                let shown = replay(None, 1).observe(&suite, 0..seen * 40, &mut cov);
                prop_assert_eq!(shown.unwrap(), Some(()));
                let index = UncoveredIndex::from_suite(&cov);
                let range = start..suite.len();
                let traces = replay(None, 1).traces(&suite, range.clone(), &mut NopObserver);
                let want: Vec<usize> = (traces.unwrap().unwrap().iter())
                    .map(|trace| index.trace_gain(trace))
                    .collect();
                if seen == 0 {
                    prop_assert!(want.iter().any(|&gain| gain > 0), "{}: nothing scored", m.name());
                }
                let backends = [(None, 1), (Some(&compiled), 1), (Some(&compiled), 2)];
                let wide = [(Some(&compiled), 4), (Some(&compiled), 8)];
                for (tape, block) in backends.into_iter().chain(wide) {
                    let mut gains = GainObserver::new(m, &index, range.len());
                    let done = replay(tape, block).observe(&suite, range.clone(), &mut gains);
                    prop_assert_eq!(done.unwrap(), Some(()));
                    prop_assert_eq!(
                        gains.into_gains(),
                        want.clone(),
                        "{}: tape {}, W={}, range {:?}",
                        m.name(),
                        tape.is_some(),
                        block,
                        range
                    );
                }
            }
        }
    }

    #[test]
    fn the_signal_table_counts_every_open_point_of_a_signal() {
        for m in designs() {
            let mut cov = CoverageSuite::new(&m);
            let mut sim = Simulator::new(&m).unwrap();
            let mut stim = RandomStimulus::new(&m, 3, 6);
            let vectors = gm_sim::collect_vectors(&mut stim);
            sim.run_vectors(&vectors, &mut cov);
            let idx = UncoveredIndex::from_suite(&cov);
            for sig in m.signal_ids() {
                let toggles = idx.toggles.iter().filter(|&&(s, _, _)| s == sig).count();
                let states = idx.fsm_states.iter().filter(|&&(s, _)| s == sig).count();
                assert_eq!(idx.signal_gain(sig), toggles + states, "{}", m.name());
            }
        }
    }
}
