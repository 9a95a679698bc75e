//! The coverage collectors.
//!
//! Each collector implements [`SimObserver`] and measures one metric; the
//! [`CoverageSuite`] bundles all of them behind a single observer, which
//! is what the experiment harness attaches to simulation runs.

use crate::points::{
    branch_points, count_boolean_nodes, declared_fsm_states, observe_boolean_nodes,
};
use crate::ratio::{CoverageReport, Ratio};
use gm_cache::{FxMap, FxSet};
use gm_rtl::{Bv, Expr, Module, SignalId, StmtId};
use gm_sim::{
    BatchObserver, BranchOutcome, ExprRole, LaneSet, LaneSnapshot, ProbeHits, SimObserver,
};

/// Statement (line) coverage: every statement executed at least once.
#[derive(Debug)]
pub struct LineCoverage {
    executed: FxSet<StmtId>,
    /// Dense first-hit guard by statement index: the common case (the
    /// statement already executed) costs one indexed load per event
    /// instead of a set insert.
    hit: Vec<bool>,
    total: usize,
}

impl LineCoverage {
    /// Instruments `module`.
    pub fn new(module: &Module) -> Self {
        let total = module.stmt_count() as usize;
        LineCoverage {
            executed: FxSet::default(),
            hit: vec![false; total],
            total,
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        Ratio::new(self.executed.len(), self.total)
    }

    /// Statement ids never executed.
    pub fn uncovered(&self) -> Vec<StmtId> {
        (0..self.total as u32)
            .map(StmtId::from_raw)
            .filter(|id| !self.executed.contains(id))
            .collect()
    }
}

impl LineCoverage {
    #[inline]
    fn mark(&mut self, stmt: StmtId) {
        if !self.hit[stmt.index()] {
            self.hit[stmt.index()] = true;
            self.executed.insert(stmt);
        }
    }
}

impl SimObserver for LineCoverage {
    fn on_stmt(&mut self, stmt: StmtId) {
        self.mark(stmt);
    }
}

impl BatchObserver for LineCoverage {
    fn on_stmt(&mut self, stmt: StmtId, lanes: &LaneSet<'_>) {
        if lanes.any() {
            self.mark(stmt);
        }
    }
}

/// Branch coverage: every `if` outcome and `case` arm taken.
#[derive(Debug)]
pub struct BranchCoverage {
    universe: Vec<(StmtId, BranchOutcome)>,
    hit: FxSet<(StmtId, BranchOutcome)>,
}

impl BranchCoverage {
    /// Instruments `module`.
    pub fn new(module: &Module) -> Self {
        BranchCoverage {
            universe: branch_points(module),
            hit: FxSet::default(),
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        let covered = self
            .universe
            .iter()
            .filter(|pt| self.hit.contains(pt))
            .count();
        Ratio::new(covered, self.universe.len())
    }

    /// Branch points never taken.
    pub fn uncovered(&self) -> Vec<(StmtId, BranchOutcome)> {
        self.universe
            .iter()
            .filter(|pt| !self.hit.contains(pt))
            .copied()
            .collect()
    }
}

impl SimObserver for BranchCoverage {
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        self.hit.insert((stmt, outcome));
    }
}

impl BatchObserver for BranchCoverage {
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome, lanes: &LaneSet<'_>) {
        if lanes.any() {
            self.hit.insert((stmt, outcome));
        }
    }
}

/// Both-polarity tracking for one boolean node.
#[derive(Clone, Copy, Debug, Default)]
struct Polarity {
    seen_false: bool,
    seen_true: bool,
}

impl Polarity {
    fn covered(&self) -> bool {
        self.seen_false && self.seen_true
    }
}

/// Shared machinery for condition and expression coverage: every boolean
/// (width-1, non-constant) subexpression of the watched expressions must
/// be observed at both 0 and 1.
#[derive(Debug)]
struct BoolNodeCoverage {
    seen: FxMap<(StmtId, usize), Polarity>,
    total: usize,
}

impl BoolNodeCoverage {
    fn new(module: &Module, watch_conditions: bool) -> Self {
        BoolNodeCoverage {
            seen: FxMap::default(),
            total: count_boolean_nodes(module, watch_conditions),
        }
    }

    fn ratio(&self) -> Ratio {
        let covered = self.seen.values().filter(|p| p.covered()).count();
        Ratio::new(covered, self.total)
    }

    fn observe(&mut self, module: &Module, stmt: StmtId, expr: &Expr, values: &[Bv]) {
        observe_boolean_nodes(expr, module, values, &mut |i, v| {
            let p = self.seen.entry((stmt, i)).or_default();
            if v {
                p.seen_true = true;
            } else {
                p.seen_false = true;
            }
        });
    }

    /// Applies one drained fused-probe hit: the node was seen at the
    /// given polarities in some active lane. Polarity is monotone, so
    /// applying a cumulative drain repeatedly is idempotent.
    fn apply_hit(&mut self, stmt: StmtId, node: u32, any_true: bool, any_false: bool) {
        let p = self.seen.entry((stmt, node as usize)).or_default();
        p.seen_true |= any_true;
        p.seen_false |= any_false;
    }
}

/// Condition coverage over `if` predicates.
///
/// Needs the module at observation time, so it borrows it for its
/// lifetime.
#[derive(Debug)]
pub struct ConditionCoverage<'m> {
    module: &'m Module,
    inner: BoolNodeCoverage,
}

impl<'m> ConditionCoverage<'m> {
    /// Instruments `module`.
    pub fn new(module: &'m Module) -> Self {
        ConditionCoverage {
            module,
            inner: BoolNodeCoverage::new(module, true),
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        self.inner.ratio()
    }
}

impl SimObserver for ConditionCoverage<'_> {
    fn on_expr(&mut self, stmt: StmtId, role: ExprRole, expr: &Expr, values: &[Bv]) {
        if role == ExprRole::Condition {
            self.inner.observe(self.module, stmt, expr, values);
        }
    }
}

impl BatchObserver for ConditionCoverage<'_> {
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        hits.for_each(|stmt, role, node, t, f| {
            if role == ExprRole::Condition {
                self.inner.apply_hit(stmt, node, t, f);
            }
        });
    }
}

/// Expression coverage over assignment right-hand sides.
///
/// This is the metric the paper tracks per refinement iteration
/// (Figures 12 and 14): boolean subterms of the datapath expressions
/// observed at both polarities.
#[derive(Debug)]
pub struct ExpressionCoverage<'m> {
    module: &'m Module,
    inner: BoolNodeCoverage,
}

impl<'m> ExpressionCoverage<'m> {
    /// Instruments `module`.
    pub fn new(module: &'m Module) -> Self {
        ExpressionCoverage {
            module,
            inner: BoolNodeCoverage::new(module, false),
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        self.inner.ratio()
    }
}

impl SimObserver for ExpressionCoverage<'_> {
    fn on_expr(&mut self, stmt: StmtId, role: ExprRole, expr: &Expr, values: &[Bv]) {
        if role == ExprRole::AssignRhs {
            self.inner.observe(self.module, stmt, expr, values);
        }
    }
}

impl BatchObserver for ExpressionCoverage<'_> {
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        hits.for_each(|stmt, role, node, t, f| {
            if role == ExprRole::AssignRhs {
                self.inner.apply_hit(stmt, node, t, f);
            }
        });
    }
}

/// Toggle coverage: each bit of each signal (clock excluded) must rise
/// and fall across settled cycle snapshots.
#[derive(Debug)]
pub struct ToggleCoverage {
    watched: Vec<(SignalId, u32)>,
    rises: FxSet<(SignalId, u32)>,
    falls: FxSet<(SignalId, u32)>,
    prev: Option<Vec<Bv>>,
    /// Previous-cycle lane words per watched bit (batch path only).
    prev_words: Option<Vec<u64>>,
    /// Reused current-cycle scratch (batch path only).
    cur_words: Vec<u64>,
    /// Dense first-hit guards by watched index (batch path only): a
    /// settled bit costs one compare per cycle, not a set insert.
    rise_hit: Vec<bool>,
    fall_hit: Vec<bool>,
}

impl ToggleCoverage {
    /// Instruments `module`.
    pub fn new(module: &Module) -> Self {
        let watched: Vec<(SignalId, u32)> = module
            .signal_ids()
            .filter(|s| Some(*s) != module.clock())
            .flat_map(|s| (0..module.signal_width(s)).map(move |b| (s, b)))
            .collect();
        let points = watched.len();
        ToggleCoverage {
            watched,
            rises: FxSet::default(),
            falls: FxSet::default(),
            prev: None,
            prev_words: None,
            cur_words: Vec::new(),
            rise_hit: vec![false; points],
            fall_hit: vec![false; points],
        }
    }

    /// The current covered/total ratio (each bit counts a rise point and
    /// a fall point).
    pub fn ratio(&self) -> Ratio {
        let covered = self
            .watched
            .iter()
            .map(|pt| usize::from(self.rises.contains(pt)) + usize::from(self.falls.contains(pt)))
            .sum();
        Ratio::new(covered, self.watched.len() * 2)
    }

    /// The uncovered toggle points, in watched (declaration) order:
    /// `(signal, bit, rising)` where `rising` distinguishes the missing
    /// edge direction. Drives the refinement loop's uncovered-point
    /// scoring.
    pub fn uncovered(&self) -> Vec<(SignalId, u32, bool)> {
        let mut out = Vec::new();
        for &(sig, bit) in &self.watched {
            if !self.rises.contains(&(sig, bit)) {
                out.push((sig, bit, true));
            }
            if !self.falls.contains(&(sig, bit)) {
                out.push((sig, bit, false));
            }
        }
        out
    }
}

impl SimObserver for ToggleCoverage {
    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        if cycle == 0 {
            self.prev = None;
        }
        if let Some(prev) = &self.prev {
            for &(sig, bit) in &self.watched {
                let old = prev[sig.index()].bit(bit);
                let new = values[sig.index()].bit(bit);
                if !old && new {
                    self.rises.insert((sig, bit));
                } else if old && !new {
                    self.falls.insert((sig, bit));
                }
            }
        }
        self.prev = Some(values.to_vec());
    }
}

impl BatchObserver for ToggleCoverage {
    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        if cycle == 0 {
            self.prev_words = None;
        }
        // One word per block word per watched bit, watched-major, into
        // the reused scratch (no per-cycle allocation).
        let block = snap.block();
        self.cur_words.clear();
        for &(sig, bit) in &self.watched {
            for j in 0..block {
                self.cur_words.push(snap.bit_word(sig, bit, j));
            }
        }
        if let Some(prev) = &self.prev_words {
            for (i, &pt) in self.watched.iter().enumerate() {
                if self.rise_hit[i] && self.fall_hit[i] {
                    continue;
                }
                for j in 0..block {
                    let idx = i * block + j;
                    let (p, c) = (prev[idx], self.cur_words[idx]);
                    if p == c {
                        continue;
                    }
                    let l = lanes.word(j);
                    if !self.rise_hit[i] && !p & c & l != 0 {
                        self.rise_hit[i] = true;
                        self.rises.insert(pt);
                    }
                    if !self.fall_hit[i] && p & !c & l != 0 {
                        self.fall_hit[i] = true;
                        self.falls.insert(pt);
                    }
                }
            }
        }
        // Current words become the previous cycle's, reusing both
        // buffers.
        match &mut self.prev_words {
            Some(prev) => std::mem::swap(prev, &mut self.cur_words),
            None => self.prev_words = Some(std::mem::take(&mut self.cur_words)),
        }
    }
}

/// FSM coverage: fraction of declared states visited, per FSM register.
#[derive(Debug)]
pub struct FsmCoverage {
    regs: Vec<(SignalId, Vec<Bv>)>,
    visited: FxMap<SignalId, FxSet<Bv>>,
    transitions: FxMap<SignalId, FxSet<(Bv, Bv)>>,
    prev: Option<Vec<Bv>>,
    /// Previous-cycle state bits per register, bit-major
    /// (`bit * block + j`), reused across cycles (batch path).
    prev_bits: Vec<Vec<u64>>,
    /// Whether `prev_bits` holds the previous cycle of this run.
    have_prev: bool,
    /// The previous cycle's active-lane words (batch path).
    prev_active: Vec<u64>,
    /// Reused current-cycle scratch (batch path).
    cur_bits: Vec<u64>,
    /// Dense first-hit guards per register (batch path only), empty
    /// for registers wider than [`DENSE_FSM_BITS`]: a state or
    /// transition already recorded costs one bit test, not a set
    /// insert.
    dense: Vec<DenseFsm>,
}

/// Widest FSM register the batch path guards densely: 64 states, 4096
/// transitions — 65 words per register.
const DENSE_FSM_BITS: u32 = 6;

/// Seen-state and seen-transition bitmaps of one narrow FSM register,
/// indexed by state value and by `from * 64 + to`.
#[derive(Debug)]
struct DenseFsm {
    states: u64,
    transitions: Vec<u64>,
}

impl DenseFsm {
    fn for_width(width: u32) -> Self {
        DenseFsm {
            states: 0,
            transitions: vec![0; if width <= DENSE_FSM_BITS { 64 } else { 0 }],
        }
    }

    /// Whether this is the first sighting of `state` (always, for a
    /// register too wide to guard).
    #[inline]
    fn first_state(&mut self, state: u64) -> bool {
        if self.transitions.is_empty() {
            return true;
        }
        let first = self.states >> state & 1 == 0;
        self.states |= 1 << state;
        first
    }

    /// Whether this is the first sighting of `from → to`.
    #[inline]
    fn first_transition(&mut self, from: u64, to: u64) -> bool {
        let Some(word) = self.transitions.get_mut(from as usize) else {
            return true;
        };
        let first = *word >> to & 1 == 0;
        *word |= 1 << to;
        first
    }
}

impl FsmCoverage {
    /// Instruments the FSM registers declared by `module`.
    pub fn new(module: &Module) -> Self {
        let regs: Vec<(SignalId, Vec<Bv>)> = module
            .fsm_regs()
            .iter()
            .map(|&r| (r, declared_fsm_states(module, r)))
            .collect();
        let count = regs.len();
        let dense = regs
            .iter()
            .map(|&(r, _)| DenseFsm::for_width(module.signal_width(r)))
            .collect();
        FsmCoverage {
            dense,
            regs,
            visited: FxMap::default(),
            transitions: FxMap::default(),
            prev: None,
            prev_bits: vec![Vec::new(); count],
            have_prev: false,
            prev_active: Vec::new(),
            cur_bits: Vec::new(),
        }
    }

    /// Whether the module declares any FSM registers.
    pub fn has_fsms(&self) -> bool {
        !self.regs.is_empty()
    }

    /// Visited-states / declared-states across all FSM registers.
    pub fn ratio(&self) -> Ratio {
        let mut covered = 0;
        let mut total = 0;
        for (reg, states) in &self.regs {
            total += states.len();
            if let Some(v) = self.visited.get(reg) {
                covered += states.iter().filter(|s| v.contains(s)).count();
            }
        }
        Ratio::new(covered, total)
    }

    /// The number of distinct state transitions observed on `reg`.
    pub fn transitions_observed(&self, reg: SignalId) -> usize {
        self.transitions.get(&reg).map_or(0, |t| t.len())
    }

    /// The declared-but-unvisited states, in declaration order:
    /// `(register, state)` pairs. Drives the refinement loop's
    /// uncovered-point scoring.
    pub fn unvisited(&self) -> Vec<(SignalId, Bv)> {
        let mut out = Vec::new();
        for (reg, states) in &self.regs {
            let visited = self.visited.get(reg);
            for s in states {
                if visited.is_none_or(|v| !v.contains(s)) {
                    out.push((*reg, *s));
                }
            }
        }
        out
    }
}

impl SimObserver for FsmCoverage {
    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        if cycle == 0 {
            self.prev = None;
        }
        for (reg, _) in &self.regs {
            let cur = values[reg.index()];
            self.visited.entry(*reg).or_default().insert(cur);
            if let Some(prev) = &self.prev {
                let old = prev[reg.index()];
                if old != cur {
                    self.transitions.entry(*reg).or_default().insert((old, cur));
                }
            }
        }
        self.prev = Some(values.to_vec());
    }
}

impl BatchObserver for FsmCoverage {
    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        if cycle == 0 {
            self.have_prev = false;
        }
        if self.regs.is_empty() {
            return;
        }
        // A lane's state only needs recording when it *changes* (an
        // unchanged active lane recorded the same value last cycle —
        // lane activity is monotone within a run) or when the lane is
        // newly observed (first cycle, or newly active). Change shows
        // up as a word-level XOR across the state's bit slices, so the
        // common all-lanes-idle cycle costs a few word ops per
        // register instead of a per-lane value gather + set insert.
        let block = snap.block();
        let FsmCoverage {
            regs,
            visited,
            transitions,
            prev_bits,
            have_prev,
            prev_active,
            cur_bits,
            dense,
            ..
        } = self;
        for (ri, (reg, _)) in regs.iter().enumerate() {
            let guard = &mut dense[ri];
            let w = snap.width(*reg) as usize;
            cur_bits.clear();
            for i in 0..w {
                for j in 0..block {
                    cur_bits.push(snap.bit_word(*reg, i as u32, j));
                }
            }
            let prev = &prev_bits[ri];
            for j in 0..block {
                let active = lanes.word(j);
                if active == 0 {
                    continue;
                }
                // Lanes to record, and the subset with a valid
                // previous value (transition candidates).
                let (mut record, seen_before) = if *have_prev {
                    let mut changed = 0u64;
                    for i in 0..w {
                        changed |= prev[i * block + j] ^ cur_bits[i * block + j];
                    }
                    let newly = active & !prev_active.get(j).copied().unwrap_or(0);
                    ((changed & active) | newly, active & !newly)
                } else {
                    (active, 0)
                };
                while record != 0 {
                    let k = record.trailing_zeros();
                    record &= record - 1;
                    let mut v = 0u64;
                    for i in 0..w {
                        v |= ((cur_bits[i * block + j] >> k) & 1) << i;
                    }
                    if guard.first_state(v) {
                        visited
                            .entry(*reg)
                            .or_default()
                            .insert(Bv::new(v, w as u32));
                    }
                    if seen_before >> k & 1 != 0 {
                        let mut o = 0u64;
                        for i in 0..w {
                            o |= ((prev[i * block + j] >> k) & 1) << i;
                        }
                        if o != v && guard.first_transition(o, v) {
                            transitions
                                .entry(*reg)
                                .or_default()
                                .insert((Bv::new(o, w as u32), Bv::new(v, w as u32)));
                        }
                    }
                }
            }
            // Current bits become the previous cycle's, reusing both
            // buffers.
            std::mem::swap(&mut prev_bits[ri], cur_bits);
        }
        prev_active.clear();
        prev_active.extend((0..block).map(|j| lanes.word(j)));
        self.have_prev = true;
    }
}

/// All collectors bundled behind one observer.
///
/// A suite may be shown its stimulus in any number of batches: every
/// collector is a set union, and a run that starts at cycle 0 starts
/// from reset (the toggle and FSM collectors forget the previous
/// cycle there), so observing reset-rooted segments a batch at a time
/// — empty batches included, on the interpreter or the tape — leaves
/// the same ratios and uncovered sets as observing them in one pass.
/// The closure engine keeps one suite per run on the strength of this;
/// `sim/tests/compiled_agree.rs` pins it. A pass cut short by a cancel
/// token has shown the suite part of a batch: discard the suite.
///
/// # Examples
///
/// ```
/// use gm_coverage::CoverageSuite;
/// use gm_sim::{Simulator, SimObserver};
/// use gm_rtl::Bv;
///
/// let m = gm_rtl::parse_verilog(
///     "module m(input a, input b, output y); assign y = a & b; endmodule")?;
/// let mut cov = CoverageSuite::new(&m);
/// let mut sim = Simulator::new(&m)?;
/// let (a, b) = (m.require("a")?, m.require("b")?);
/// for (va, vb) in [(0, 0), (1, 1)] {
///     sim.set_inputs(&[(a, Bv::new(va, 1)), (b, Bv::new(vb, 1))]);
///     sim.step_observed(&mut cov);
/// }
/// let report = cov.report();
/// assert!(report.line.is_full());
/// # Ok::<(), gm_rtl::RtlError>(())
/// ```
#[derive(Debug)]
pub struct CoverageSuite<'m> {
    line: LineCoverage,
    branch: BranchCoverage,
    condition: ConditionCoverage<'m>,
    expression: ExpressionCoverage<'m>,
    toggle: ToggleCoverage,
    fsm: FsmCoverage,
}

impl<'m> CoverageSuite<'m> {
    /// Instruments every metric on `module`.
    pub fn new(module: &'m Module) -> Self {
        CoverageSuite {
            line: LineCoverage::new(module),
            branch: BranchCoverage::new(module),
            condition: ConditionCoverage::new(module),
            expression: ExpressionCoverage::new(module),
            toggle: ToggleCoverage::new(module),
            fsm: FsmCoverage::new(module),
        }
    }

    /// Produces the current report.
    pub fn report(&self) -> CoverageReport {
        CoverageReport {
            line: self.line.ratio(),
            branch: self.branch.ratio(),
            condition: self.condition.ratio(),
            expression: self.expression.ratio(),
            toggle: self.toggle.ratio(),
            fsm: if self.fsm.has_fsms() {
                Some(self.fsm.ratio())
            } else {
                None
            },
        }
    }

    /// The line collector (for uncovered-point introspection).
    pub fn line(&self) -> &LineCoverage {
        &self.line
    }

    /// The branch collector.
    pub fn branch(&self) -> &BranchCoverage {
        &self.branch
    }

    /// The FSM collector.
    pub fn fsm(&self) -> &FsmCoverage {
        &self.fsm
    }

    /// The toggle collector.
    pub fn toggle(&self) -> &ToggleCoverage {
        &self.toggle
    }
}

impl SimObserver for CoverageSuite<'_> {
    fn on_stmt(&mut self, stmt: StmtId) {
        SimObserver::on_stmt(&mut self.line, stmt);
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        SimObserver::on_branch(&mut self.branch, stmt, outcome);
    }
    fn on_expr(&mut self, stmt: StmtId, role: ExprRole, expr: &Expr, values: &[Bv]) {
        self.condition.on_expr(stmt, role, expr, values);
        self.expression.on_expr(stmt, role, expr, values);
    }
    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        SimObserver::on_cycle_end(&mut self.toggle, cycle, values);
        SimObserver::on_cycle_end(&mut self.fsm, cycle, values);
    }
}

/// The lane-parallel face of the suite: attach it to the compiled
/// backend's executors and the resulting ratios and uncovered sets are
/// identical to an interpreter run over the same stimulus.
impl BatchObserver for CoverageSuite<'_> {
    fn on_stmt(&mut self, stmt: StmtId, lanes: &LaneSet<'_>) {
        BatchObserver::on_stmt(&mut self.line, stmt, lanes);
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome, lanes: &LaneSet<'_>) {
        BatchObserver::on_branch(&mut self.branch, stmt, outcome, lanes);
    }
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        self.condition.drain_probes(hits);
        self.expression.drain_probes(hits);
    }
    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        BatchObserver::on_cycle_end(&mut self.toggle, cycle, lanes, snap);
        BatchObserver::on_cycle_end(&mut self.fsm, cycle, lanes, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;
    use gm_sim::Simulator;

    const MUX: &str = "
    module mux(input s, input a, input b, output y);
      assign y = s ? a : b;
    endmodule";

    #[test]
    fn expression_coverage_needs_both_polarities() {
        let m = parse_verilog(MUX).unwrap();
        let mut cov = ExpressionCoverage::new(&m);
        let mut sim = Simulator::new(&m).unwrap();
        let s = m.require("s").unwrap();
        // Nodes: y-rhs (mux), s, a, b. Drive only s=0 with a=b=0: every node
        // stuck at 0.
        sim.set_input(s, Bv::zero_bit());
        sim.step_observed(&mut cov);
        assert_eq!(cov.ratio().covered, 0);
        // Toggle everything.
        let a = m.require("a").unwrap();
        let b = m.require("b").unwrap();
        sim.set_inputs(&[(s, Bv::one_bit()), (a, Bv::one_bit()), (b, Bv::one_bit())]);
        sim.step_observed(&mut cov);
        assert!(cov.ratio().is_full(), "{:?}", cov.ratio());
    }

    #[test]
    fn branch_and_line_coverage_track_paths() {
        let m = parse_verilog(
            "module m(input clk, input c, output reg y);
               always @(posedge clk)
                 if (c) y <= 1;
                 else y <= 0;
             endmodule",
        )
        .unwrap();
        let mut line = LineCoverage::new(&m);
        let mut branch = BranchCoverage::new(&m);
        let mut sim = Simulator::new(&m).unwrap();
        let c = m.require("c").unwrap();
        sim.set_input(c, Bv::one_bit());
        let mut multi = gm_sim::MultiObserver::new();
        multi.push(&mut line);
        multi.push(&mut branch);
        sim.step_observed(&mut multi);
        drop(multi);
        assert_eq!(branch.ratio(), Ratio::new(1, 2));
        assert!(!line.ratio().is_full(), "else assign not yet run");
        assert_eq!(line.uncovered().len(), 1);

        let mut multi = gm_sim::MultiObserver::new();
        multi.push(&mut line);
        multi.push(&mut branch);
        sim.set_input(c, Bv::zero_bit());
        sim.step_observed(&mut multi);
        drop(multi);
        assert!(branch.ratio().is_full());
        assert!(line.ratio().is_full());
    }

    #[test]
    fn toggle_coverage_counts_rises_and_falls() {
        let m = parse_verilog(MUX).unwrap();
        let mut cov = ToggleCoverage::new(&m);
        let mut sim = Simulator::new(&m).unwrap();
        let s = m.require("s").unwrap();
        let a = m.require("a").unwrap();
        // Cycle 0: everything 0. Cycle 1: s,a rise (and y rises: s?a).
        sim.step_observed(&mut cov);
        sim.set_inputs(&[(s, Bv::one_bit()), (a, Bv::one_bit())]);
        sim.step_observed(&mut cov);
        let r1 = cov.ratio();
        assert_eq!(r1.covered, 3, "three rises: s, a, y");
        // Cycle 2: everything falls.
        sim.set_inputs(&[(s, Bv::zero_bit()), (a, Bv::zero_bit())]);
        sim.step_observed(&mut cov);
        let r2 = cov.ratio();
        assert_eq!(r2.covered, 6);
        // b never toggled: 8 points total (4 signals x 2), 6 covered.
        assert_eq!(r2.total, 8);
    }

    #[test]
    fn fsm_coverage_visits_states() {
        let m = parse_verilog(
            "module m(input clk, input rst, output reg done);
               localparam A = 2'd0; localparam B = 2'd1; localparam C = 2'd2;
               reg [1:0] st;
               always @(posedge clk)
                 if (rst) begin st <= A; done <= 0; end
                 else case (st)
                   A: begin st <= B; done <= 0; end
                   B: begin st <= C; done <= 0; end
                   C: begin st <= A; done <= 1; end
                   default: begin st <= A; done <= 0; end
                 endcase
             endmodule",
        )
        .unwrap();
        let mut cov = FsmCoverage::new(&m);
        assert!(cov.has_fsms());
        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        sim.set_input(rst, Bv::one_bit());
        sim.step_observed(&mut cov);
        sim.set_input(rst, Bv::zero_bit());
        sim.step_observed(&mut cov); // st = A visible
        assert_eq!(cov.ratio(), Ratio::new(1, 3));
        sim.step_observed(&mut cov); // B
        sim.step_observed(&mut cov); // C
        assert!(cov.ratio().is_full());
        let st = m.require("st").unwrap();
        assert!(cov.transitions_observed(st) >= 2);
    }

    #[test]
    fn suite_reports_all_metrics() {
        let m = parse_verilog(MUX).unwrap();
        let mut cov = CoverageSuite::new(&m);
        let mut sim = Simulator::new(&m).unwrap();
        sim.step_observed(&mut cov);
        let r = cov.report();
        assert!(r.line.is_full(), "single assign always runs");
        assert_eq!(r.fsm, None, "no FSM registers declared");
        assert!(r.toggle.covered < r.toggle.total);
    }
}
