//! The coverage collectors.
//!
//! Each collector implements [`SimObserver`] and measures one metric; the
//! [`CoverageSuite`] bundles all of them behind a single observer, which
//! is what the experiment harness attaches to simulation runs.
//!
//! Every collector only ever adds to what it has seen, so on the tape
//! each one reports a point closed ([`BatchObserver::closed`]) once it
//! has recorded all it can from it, and closes at once the points it
//! does not watch; the tape then stops observing them. The per-cycle
//! collectors stop early in the same way: toggle coverage gathers only
//! the bits still missing an edge, FSM coverage skips a register whose
//! declared states are all visited.

use crate::points::{
    boolean_node_counts, branch_points, declared_fsm_states, observe_boolean_nodes,
};
use crate::ratio::{CoverageReport, Ratio};
use gm_cache::{FxMap, FxSet};
use gm_rtl::{Bv, Expr, Module, SignalId, StmtId};
use gm_sim::{
    BatchObserver, BranchOutcome, ExprRole, LaneSet, LaneSnapshot, ObsPoint, ProbeHits, SimObserver,
};

/// How many flags are set.
fn count(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}

/// Statement (line) coverage: every statement executed at least once.
#[derive(Debug)]
pub struct LineCoverage {
    /// Executed flags by statement index.
    hit: Vec<bool>,
}

impl LineCoverage {
    /// Instruments `module`.
    pub fn new(module: &Module) -> Self {
        LineCoverage {
            hit: vec![false; module.stmt_count() as usize],
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        Ratio::new(count(&self.hit), self.hit.len())
    }

    /// Statement ids never executed.
    pub fn uncovered(&self) -> Vec<StmtId> {
        (0..self.hit.len() as u32)
            .map(StmtId::from_raw)
            .filter(|id| !self.hit[id.index()])
            .collect()
    }
}

impl SimObserver for LineCoverage {
    fn on_stmt(&mut self, stmt: StmtId) {
        self.hit[stmt.index()] = true;
    }
}

impl BatchObserver for LineCoverage {
    fn closed(&self, point: ObsPoint) -> bool {
        match point {
            ObsPoint::Stmt(stmt) => self.hit[stmt.index()],
            _ => true,
        }
    }

    fn on_stmt(&mut self, stmt: StmtId, lanes: &LaneSet<'_>) {
        if lanes.any() {
            self.hit[stmt.index()] = true;
        }
    }
}

/// Branch coverage: every `if` outcome and `case` arm taken.
#[derive(Debug)]
pub struct BranchCoverage {
    universe: Vec<(StmtId, BranchOutcome)>,
    /// Each universe point's position in `universe`.
    index: FxMap<(StmtId, BranchOutcome), usize>,
    /// Taken flags, in universe order.
    hit: Vec<bool>,
}

impl BranchCoverage {
    /// Instruments `module`.
    pub fn new(module: &Module) -> Self {
        let universe = branch_points(module);
        BranchCoverage {
            index: universe
                .iter()
                .enumerate()
                .map(|(i, &pt)| (pt, i))
                .collect(),
            hit: vec![false; universe.len()],
            universe,
        }
    }

    /// The current covered/total ratio.
    pub fn ratio(&self) -> Ratio {
        Ratio::new(count(&self.hit), self.universe.len())
    }

    /// Branch points never taken.
    pub fn uncovered(&self) -> Vec<(StmtId, BranchOutcome)> {
        self.universe
            .iter()
            .zip(&self.hit)
            .filter(|(_, &hit)| !hit)
            .map(|(&pt, _)| pt)
            .collect()
    }

    /// Records a taken outcome; one outside the universe counts for
    /// nothing.
    fn mark(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        if let Some(&i) = self.index.get(&(stmt, outcome)) {
            self.hit[i] = true;
        }
    }
}

impl SimObserver for BranchCoverage {
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        self.mark(stmt, outcome);
    }
}

impl BatchObserver for BranchCoverage {
    fn closed(&self, point: ObsPoint) -> bool {
        match point {
            ObsPoint::Branch(stmt, outcome) => self
                .index
                .get(&(stmt, outcome))
                .is_none_or(|&i| self.hit[i]),
            _ => true,
        }
    }

    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome, lanes: &LaneSet<'_>) {
        if lanes.any() {
            self.mark(stmt, outcome);
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
    /// Where each statement's nodes start in `seen`, by statement index,
    /// plus the total: statement `s` owns `first[s]..first[s + 1]`.
    first: Vec<u32>,
    /// Polarities seen, by node, in statement order and each
    /// statement's [`crate::boolean_nodes`] order.
    seen: Vec<Polarity>,
}

impl BoolNodeCoverage {
    fn new(module: &Module, watch_conditions: bool) -> Self {
        let mut total = 0;
        let mut first = vec![0];
        for n in boolean_node_counts(module, watch_conditions) {
            total += n;
            first.push(total);
        }
        BoolNodeCoverage {
            first,
            seen: vec![Polarity::default(); total as usize],
        }
    }

    fn ratio(&self) -> Ratio {
        let covered = self.seen.iter().filter(|p| p.covered()).count();
        Ratio::new(covered, self.seen.len())
    }

    /// Where `stmt`'s node `node` sits in `seen`; `None` outside the
    /// universe.
    fn index(&self, stmt: StmtId, node: usize) -> Option<usize> {
        let start = *self.first.get(stmt.index())? as usize;
        let end = *self.first.get(stmt.index() + 1)? as usize;
        (start + node < end).then_some(start + node)
    }

    fn observe(&mut self, module: &Module, stmt: StmtId, expr: &Expr, values: &[Bv]) {
        observe_boolean_nodes(expr, module, values, &mut |i, v| {
            self.apply_hit(stmt, i as u32, v, !v);
        });
    }

    /// Applies one drained fused-probe hit: the node was seen at the
    /// given polarities in some active lane. Polarity is monotone, so
    /// applying a cumulative drain repeatedly is idempotent. A node
    /// outside the universe counts for nothing.
    fn apply_hit(&mut self, stmt: StmtId, node: u32, any_true: bool, any_false: bool) {
        if let Some(at) = self.index(stmt, node as usize) {
            let p = &mut self.seen[at];
            p.seen_true |= any_true;
            p.seen_false |= any_false;
        }
    }

    /// Whether the node has been seen at both polarities (or is outside
    /// the universe, where nothing is left to see).
    fn covered(&self, stmt: StmtId, node: u32) -> bool {
        (self.index(stmt, node as usize)).is_none_or(|at| self.seen[at].covered())
    }

    /// Whether a probe is closed for a collector watching `role`: one
    /// of its nodes seen at both polarities, or a probe it ignores.
    fn closed(&self, point: ObsPoint, role: ExprRole) -> bool {
        match point {
            ObsPoint::Probe(stmt, r, node) if r == role => self.covered(stmt, node),
            _ => true,
        }
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
    fn closed(&self, point: ObsPoint) -> bool {
        self.inner.closed(point, ExprRole::Condition)
    }

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
    fn closed(&self, point: ObsPoint) -> bool {
        self.inner.closed(point, ExprRole::AssignRhs)
    }

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
    /// Rise and fall seen, by watched index.
    rise_hit: Vec<bool>,
    fall_hit: Vec<bool>,
    prev: Option<Vec<Bv>>,
    /// Watched indices still missing an edge, ascending (batch path
    /// only): a cycle gathers and compares these bits alone.
    open: Vec<u32>,
    /// Previous-cycle lane words per open bit, `open`-major (batch path
    /// only).
    prev_words: Option<Vec<u64>>,
    /// Reused current-cycle scratch (batch path only).
    cur_words: Vec<u64>,
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
            rise_hit: vec![false; points],
            fall_hit: vec![false; points],
            prev: None,
            open: (0..points as u32).collect(),
            prev_words: None,
            cur_words: Vec::new(),
        }
    }

    /// The current covered/total ratio (each bit counts a rise point and
    /// a fall point).
    pub fn ratio(&self) -> Ratio {
        let covered = count(&self.rise_hit) + count(&self.fall_hit);
        Ratio::new(covered, self.watched.len() * 2)
    }

    /// The uncovered toggle points, in watched (declaration) order:
    /// `(signal, bit, rising)` where `rising` distinguishes the missing
    /// edge direction. Drives the refinement loop's uncovered-point
    /// scoring.
    pub fn uncovered(&self) -> Vec<(SignalId, u32, bool)> {
        let mut out = Vec::new();
        for (i, &(sig, bit)) in self.watched.iter().enumerate() {
            if !self.rise_hit[i] {
                out.push((sig, bit, true));
            }
            if !self.fall_hit[i] {
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
            for (i, &(sig, bit)) in self.watched.iter().enumerate() {
                let old = prev[sig.index()].bit(bit);
                let new = values[sig.index()].bit(bit);
                self.rise_hit[i] |= !old && new;
                self.fall_hit[i] |= old && !new;
            }
        }
        self.prev = Some(values.to_vec());
    }
}

impl BatchObserver for ToggleCoverage {
    fn closed(&self, _point: ObsPoint) -> bool {
        true
    }

    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        if cycle == 0 {
            self.prev_words = None;
        }
        let ToggleCoverage {
            watched,
            rise_hit,
            fall_hit,
            open,
            prev_words,
            cur_words,
            ..
        } = self;
        // One word per block word per open bit, open-major, into the
        // reused scratch (no per-cycle allocation).
        let block = snap.block();
        cur_words.clear();
        for &i in open.iter() {
            let (sig, bit) = watched[i as usize];
            for j in 0..block {
                cur_words.push(snap.bit_word(sig, bit, j));
            }
        }
        let mut closed = false;
        if let Some(prev) = prev_words.as_ref() {
            for (k, &i) in open.iter().enumerate() {
                let i = i as usize;
                for j in 0..block {
                    let (p, c) = (prev[k * block + j], cur_words[k * block + j]);
                    if p != c {
                        let l = lanes.word(j);
                        rise_hit[i] |= !p & c & l != 0;
                        fall_hit[i] |= p & !c & l != 0;
                    }
                }
                closed |= rise_hit[i] && fall_hit[i];
            }
        }
        if closed {
            // Drop the closed bits from the list and from this cycle's
            // words alike, so the words the next cycle compares against
            // stay aligned with the list.
            let mut kept = 0;
            for k in 0..open.len() {
                let i = open[k] as usize;
                if rise_hit[i] && fall_hit[i] {
                    continue;
                }
                open[kept] = open[k];
                cur_words.copy_within(k * block..(k + 1) * block, kept * block);
                kept += 1;
            }
            open.truncate(kept);
            cur_words.truncate(kept * block);
        }
        // Current words become the previous cycle's, reusing both
        // buffers.
        match prev_words {
            Some(prev) => std::mem::swap(prev, cur_words),
            None => *prev_words = Some(std::mem::take(cur_words)),
        }
    }
}

/// FSM coverage: fraction of declared states visited, per FSM register.
#[derive(Debug)]
pub struct FsmCoverage {
    regs: Vec<(SignalId, Vec<Bv>)>,
    visited: FxMap<SignalId, FxSet<Bv>>,
    /// Declared states not yet visited, per register. The batch path
    /// skips a register at zero: nothing it visits can change a report.
    left: Vec<usize>,
    /// Previous-cycle state bits per register, bit-major
    /// (`bit * block + j`), reused across cycles (batch path).
    prev_bits: Vec<Vec<u64>>,
    /// Whether `prev_bits` holds the previous cycle of this run.
    have_prev: bool,
    /// The previous cycle's active-lane words (batch path).
    prev_active: Vec<u64>,
    /// Reused current-cycle scratch (batch path).
    cur_bits: Vec<u64>,
    /// Seen-state bitmaps by state value per register (batch path
    /// only), `None` for registers wider than [`DENSE_FSM_BITS`]: a
    /// state already recorded costs one bit test, not a set insert.
    dense: Vec<Option<u64>>,
}

/// Widest FSM register the batch path guards densely: 64 states, one
/// word per register.
const DENSE_FSM_BITS: u32 = 6;

/// Whether this is the first sighting of `state` in a register's
/// seen-state bitmap (always, for a register too wide to have one).
#[inline]
fn first_state(seen: &mut Option<u64>, state: u64) -> bool {
    let Some(word) = seen else {
        return true;
    };
    let first = *word >> state & 1 == 0;
    *word |= 1 << state;
    first
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
            .map(|&(r, _)| (module.signal_width(r) <= DENSE_FSM_BITS).then_some(0))
            .collect();
        FsmCoverage {
            dense,
            left: regs.iter().map(|(_, states)| states.len()).collect(),
            regs,
            visited: FxMap::default(),
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
        let total: usize = self.regs.iter().map(|(_, states)| states.len()).sum();
        Ratio::new(total - self.left.iter().sum::<usize>(), total)
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

/// Records that register `ri` of `regs` held `state`, counting a first
/// visit to a declared state off `left`.
fn visit(
    regs: &[(SignalId, Vec<Bv>)],
    visited: &mut FxMap<SignalId, FxSet<Bv>>,
    left: &mut [usize],
    ri: usize,
    state: Bv,
) {
    let (reg, states) = &regs[ri];
    if visited.entry(*reg).or_default().insert(state) && states.binary_search(&state).is_ok() {
        left[ri] -= 1;
    }
}

impl SimObserver for FsmCoverage {
    fn on_cycle_end(&mut self, _cycle: u64, values: &[Bv]) {
        for ri in 0..self.regs.len() {
            let state = values[self.regs[ri].0.index()];
            visit(&self.regs, &mut self.visited, &mut self.left, ri, state);
        }
    }
}

impl BatchObserver for FsmCoverage {
    fn closed(&self, _point: ObsPoint) -> bool {
        true
    }

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
            left,
            prev_bits,
            have_prev,
            prev_active,
            cur_bits,
            dense,
        } = self;
        for ri in 0..regs.len() {
            if left[ri] == 0 {
                continue;
            }
            let reg = regs[ri].0;
            let w = snap.width(reg) as usize;
            cur_bits.clear();
            for i in 0..w {
                for j in 0..block {
                    cur_bits.push(snap.bit_word(reg, i as u32, j));
                }
            }
            let prev = &prev_bits[ri];
            for j in 0..block {
                let active = lanes.word(j);
                if active == 0 {
                    continue;
                }
                let mut record = if *have_prev {
                    let mut changed = 0u64;
                    for i in 0..w {
                        changed |= prev[i * block + j] ^ cur_bits[i * block + j];
                    }
                    let newly = active & !prev_active.get(j).copied().unwrap_or(0);
                    (changed & active) | newly
                } else {
                    active
                };
                while record != 0 {
                    let k = record.trailing_zeros();
                    record &= record - 1;
                    let mut v = 0u64;
                    for i in 0..w {
                        v |= ((cur_bits[i * block + j] >> k) & 1) << i;
                    }
                    if first_state(&mut dense[ri], v) {
                        visit(regs, visited, left, ri, Bv::new(v, w as u32));
                    }
                }
            }
            // Current bits become the previous cycle's, reusing both
            // buffers.
            std::mem::swap(&mut prev_bits[ri], cur_bits);
        }
        prev_active.clear();
        prev_active.extend((0..block).map(|j| lanes.word(j)));
        *have_prev = true;
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
/// On the tape each batch pays only for what is still open: the suite
/// closes a point when every collector has (see the module docs), and
/// `sim/tests/open_points.rs` checks that the answers are those of the
/// interpreter and of a suite that never closes anything.
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
    /// A point is closed when every collector has closed it: a
    /// statement once executed, a branch outcome once taken, a probe
    /// once seen at both polarities (or at once, for a case subject's,
    /// which no collector watches).
    fn closed(&self, point: ObsPoint) -> bool {
        self.line.closed(point)
            && self.branch.closed(point)
            && self.condition.closed(point)
            && self.expression.closed(point)
            && self.toggle.closed(point)
            && self.fsm.closed(point)
    }

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
    fn each_statement_keeps_its_own_node_flags() {
        let m = parse_verilog(
            "module m(input a, input b, output y, output z);
               assign y = a & b;
               assign z = ~a;
             endmodule",
        )
        .unwrap();
        let (a, b) = (m.require("a").unwrap(), m.require("b").unwrap());
        let mut cov = ExpressionCoverage::new(&m);
        let mut sim = Simulator::new(&m).unwrap();
        // `a` toggles and `b` stays low: `a & b` and `b` are seen low
        // only; `a` (in both right-hand sides) and `~a` both ways.
        for value in [false, true] {
            sim.set_inputs(&[(a, Bv::from_bool(value)), (b, Bv::zero_bit())]);
            sim.step_observed(&mut cov);
        }
        assert_eq!(cov.ratio(), Ratio::new(3, 5));
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
