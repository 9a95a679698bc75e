//! The CDCL solver.
//!
//! A MiniSat-style conflict-driven clause-learning solver: two-watched
//! literals, first-UIP learning with recursive-lite minimization, VSIDS
//! decision order, phase saving and Luby restarts. Supports incremental
//! use (adding clauses between solves) and solving under assumptions —
//! exactly what the bounded-model-checking loop in `gm-mc` needs.
//!
//! A query comes in two strengths. [`Solver::solve_with_assumptions`]
//! decides every variable and leaves a model of the whole clause
//! database. [`Solver::solve_scoped`] decides and propagates only the
//! variables of a caller-given *scope* and answers `Sat` as soon as
//! those are assigned without conflict: a verdict, for callers whose
//! clause database lets a consistent assignment of the scope always be
//! completed (a circuit and a fan-in-closed cone of it), at the cost of
//! the scope instead of the cost of everything the solver has ever been
//! told. Above decision level 0 a scoped query assigns nothing outside
//! its scope; level 0 is propagated in full by every query and every
//! `add_clause`, so what one query fixes there never depends on an
//! earlier query's scope.

use crate::heap::VarOrder;
use crate::lit::{Lit, Var};

/// Result of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment exists (read it via [`Solver::model_value`]).
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
}

/// A three-valued assignment, one byte per variable.
///
/// The encoding makes a literal's value one XOR away from its
/// variable's: `TRUE = 0` and `FALSE = 1` line up with [`Lit`]'s sign
/// bit, and both undefined codes (2, and 3 after the XOR) have bit 1
/// set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LBool(u8);

impl LBool {
    const TRUE: LBool = LBool(0);
    const FALSE: LBool = LBool(1);
    const UNDEF: LBool = LBool(2);

    #[inline]
    fn is_undef(self) -> bool {
        self.0 & 2 != 0
    }
}

/// Sentinel in `Solver::reason`: decided, assumed or unassigned.
const NO_REASON: u32 = u32::MAX;

/// Every literal's watch list, in one pool.
///
/// A list is a `(start, len, cap)` window into `pool`; a push into a
/// full list moves it to the pool's end with doubled capacity and
/// abandons the old window (so the pool stays below twice the summed
/// capacities). Order inside a list is search state and is preserved by
/// every operation. Keeping the lists flat is what makes cloning a
/// solver a handful of `memcpy`s instead of two allocations per
/// variable, and refilling a warm copy ([`Clone::clone_from`]) the same
/// `memcpy`s into the allocations it already has.
#[derive(Debug, Default)]
struct Watches {
    pool: Vec<u32>,
    lists: Vec<WatchList>,
}

impl Clone for Watches {
    fn clone(&self) -> Self {
        Watches {
            pool: self.pool.clone(),
            lists: self.lists.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Watches { pool, lists } = source;
        self.pool.clone_from(pool);
        self.lists.clone_from(lists);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct WatchList {
    start: u32,
    len: u32,
    cap: u32,
}

impl Watches {
    /// Appends `cref` to `lit`'s list.
    fn push(&mut self, lit: Lit, cref: u32) {
        let list = &mut self.lists[lit.index()];
        if list.len == list.cap {
            let cap = (list.cap * 2).max(4);
            let start = self.pool.len();
            let end = start + cap as usize;
            assert!(u32::try_from(end).is_ok(), "watch pool outgrew u32 offsets");
            let old = list.start as usize..(list.start + list.len) as usize;
            self.pool.extend_from_within(old);
            self.pool.resize(end, 0);
            list.start = start as u32;
            list.cap = cap;
        }
        self.pool[(list.start + list.len) as usize] = cref;
        list.len += 1;
    }
}

/// Solver statistics.
///
/// Cumulative over the solver's lifetime; subtract two snapshots (the
/// [`std::ops::Sub`] impl saturates) to get the cost of the calls in
/// between, or read [`Solver::last_call_stats`] for the most recent
/// solve alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt.
    pub learnt: u64,
}

impl std::ops::Sub for SolverStats {
    type Output = SolverStats;

    fn sub(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(rhs.conflicts),
            decisions: self.decisions.saturating_sub(rhs.decisions),
            propagations: self.propagations.saturating_sub(rhs.propagations),
            restarts: self.restarts.saturating_sub(rhs.restarts),
            learnt: self.learnt.saturating_sub(rhs.learnt),
        }
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;

    fn add(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts + rhs.conflicts,
            decisions: self.decisions + rhs.decisions,
            propagations: self.propagations + rhs.propagations,
            restarts: self.restarts + rhs.restarts,
            learnt: self.learnt + rhs.learnt,
        }
    }
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        *self = *self + rhs;
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use gm_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert!(s.model_value(b.positive()));
/// s.add_clause(&[b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    /// Every clause (original and learnt) back to back: a header word
    /// holding the length, then the literals. A clause is addressed by
    /// the offset of its header. Literal order inside a clause is search
    /// state (positions 0 and 1 are the watched pair).
    arena: Vec<Lit>,
    num_clauses: usize,
    watches: Watches,
    assign: Vec<LBool>,
    level: Vec<u32>,
    /// The clause that implied each assigned variable, or [`NO_REASON`].
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// The decision scope: `v` is in it when `scope_stamp[v] ==
    /// scope_epoch`, and only variables in it are ever queued in
    /// `order` or, above level 0, implied by propagation. Epoch 0 with
    /// every stamp 0 is "every variable" — the state of a solver that
    /// never took a scoped query, and the one a full query restores;
    /// each [`Solver::solve_scoped`] takes a fresh epoch and stamps its
    /// scope with it.
    scope_stamp: Vec<u32>,
    scope_epoch: u32,
    /// Scratch for [`Solver::analyze`], reused across conflicts: the
    /// learnt clause (the call's result) and its unminimized form.
    learnt: Vec<Lit>,
    unminimized: Vec<Lit>,
    unsat: bool,
    stats: SolverStats,
    last_call: SolverStats,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 64;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// A copy continues the same search: every table, the trail, the
/// decision heap and the statistics. [`Clone::clone_from`] refills the
/// target field by field, each vector into the allocation it already
/// has, so a solver refilled from same-sized sources again and again
/// allocates nothing after the first time.
impl Clone for Solver {
    fn clone(&self) -> Self {
        let mut copy = Solver::new();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        let Solver {
            arena,
            num_clauses,
            watches,
            assign,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            activity,
            var_inc,
            order,
            phase,
            seen,
            scope_stamp,
            scope_epoch,
            learnt,
            unminimized,
            unsat,
            stats,
            last_call,
        } = source;
        self.arena.clone_from(arena);
        self.num_clauses = *num_clauses;
        self.watches.clone_from(watches);
        self.assign.clone_from(assign);
        self.level.clone_from(level);
        self.reason.clone_from(reason);
        self.trail.clone_from(trail);
        self.trail_lim.clone_from(trail_lim);
        self.qhead = *qhead;
        self.activity.clone_from(activity);
        self.var_inc = *var_inc;
        self.order.clone_from(order);
        self.phase.clone_from(phase);
        self.seen.clone_from(seen);
        self.scope_stamp.clone_from(scope_stamp);
        self.scope_epoch = *scope_epoch;
        self.learnt.clone_from(learnt);
        self.unminimized.clone_from(unminimized);
        self.unsat = *unsat;
        self.stats = *stats;
        self.last_call = *last_call;
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Watches::default(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            scope_stamp: Vec::new(),
            scope_epoch: 0,
            learnt: Vec::new(),
            unminimized: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
            last_call: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(LBool::UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.scope_stamp.push(0);
        self.watches.lists.push(WatchList::default());
        self.watches.lists.push(WatchList::default());
        if self.in_scope(v) {
            self.order.insert(v, &self.activity);
        }
        v
    }

    /// Allocates a variable `o` and defines it as `a ∧ b`: the clauses
    /// `[¬o, a]`, `[¬o, b]` and `[o, ¬a, ¬b]`, in that order. The
    /// solver this leaves is the one [`Solver::new_var`] and three
    /// [`Solver::add_clause`] calls leave — the same arena words,
    /// watchers and heap insertions, in the same order. When those
    /// calls would simplify nothing — at decision level 0, not
    /// unsatisfiable, `a` and `b` unassigned and on two distinct
    /// variables — their bookkeeping is skipped; otherwise they are
    /// made.
    ///
    /// # Panics
    ///
    /// If `a` or `b` names an unallocated variable.
    pub fn new_and(&mut self, a: Lit, b: Lit) -> Lit {
        for l in [a, b] {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} references an unallocated variable"
            );
        }
        let out = self.new_var().positive();
        let unassigned = |l: Lit| self.lit_value(l).is_undef();
        if self.trail_lim.is_empty()
            && !self.unsat
            && unassigned(a)
            && unassigned(b)
            && a.var() != b.var()
        {
            for (first, second) in [(!out, a), (!out, b)] {
                let cref = self.arena.len();
                self.arena.extend_from_slice(&[Lit(0), first, second]);
                self.attach_clause(cref);
            }
            let cref = self.arena.len();
            self.arena.extend_from_slice(&[Lit(0), out, !a, !b]);
            self.attach_clause(cref);
        } else {
            self.add_clause(&[!out, a]);
            self.add_clause(&[!out, b]);
            self.add_clause(&[out, !a, !b]);
        }
        out
    }

    /// Whether the current query may decide `v`.
    #[inline]
    fn in_scope(&self, v: Var) -> bool {
        self.scope_stamp[v.index()] == self.scope_epoch
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Approximate resident size of the solver: the clause arena, the
    /// watch pool and list table, every per-variable table (the scope
    /// stamps included), the decision heap and the trail, by capacity.
    /// An estimate for cache accounting, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity() * size_of::<Lit>()
            + self.watches.pool.capacity() * size_of::<u32>()
            + self.watches.lists.capacity() * size_of::<WatchList>()
            + self.assign.capacity() * size_of::<LBool>()
            + self.level.capacity() * size_of::<u32>()
            + self.reason.capacity() * size_of::<u32>()
            + self.activity.capacity() * size_of::<f64>()
            + self.phase.capacity() * size_of::<bool>()
            + self.seen.capacity() * size_of::<bool>()
            + self.scope_stamp.capacity() * size_of::<u32>()
            + self.order.approx_bytes()
            + self.trail.capacity() * size_of::<Lit>()
            + self.trail_lim.capacity() * size_of::<usize>()
            + (self.learnt.capacity() + self.unminimized.capacity()) * size_of::<Lit>()
    }

    /// Solver statistics so far (cumulative over the solver's lifetime).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The stats delta of the most recent [`Solver::solve`] /
    /// [`Solver::solve_with_assumptions`] / [`Solver::solve_scoped`]
    /// call alone — the per-query cost an incremental caller wants to
    /// attribute to one property.
    pub fn last_call_stats(&self) -> SolverStats {
        self.last_call
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        LBool(self.assign[l.var().index()].0 ^ (l.0 & 1) as u8)
    }

    /// The literals of the clause at `cref`, as an arena range.
    #[inline]
    fn clause_range(&self, cref: u32) -> std::ops::Range<usize> {
        let first = cref as usize + 1;
        first..first + self.arena[cref as usize].0 as usize
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Seals the literals pushed since `cref` into a clause and watches
    /// its first two.
    fn attach_clause(&mut self, cref: usize) -> u32 {
        let len = self.arena.len() - cref - 1;
        debug_assert!(len >= 2);
        self.arena[cref] = Lit(len as u32);
        let cref = u32::try_from(cref).expect("clause arena outgrew u32 offsets");
        self.watches.push(self.arena[cref as usize + 1], cref);
        self.watches.push(self.arena[cref as usize + 2], cref);
        self.num_clauses += 1;
        cref
    }

    /// Adds a clause.
    ///
    /// Adding a clause invalidates any model from a previous solve (the
    /// solver backtracks to level 0). Tautologies are dropped; the empty
    /// clause marks the instance unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.backtrack(0);
        if self.unsat {
            return;
        }
        // Build the simplified clause in place at the arena's tail.
        let cref = self.arena.len();
        self.arena.push(Lit(0));
        for &l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} references an unallocated variable"
            );
            let value = self.lit_value(l);
            if value == LBool::FALSE && self.level[l.var().index()] == 0 {
                continue;
            }
            let kept = &self.arena[cref + 1..];
            // Already satisfied at level 0, or a tautology.
            if value == LBool::TRUE || kept.contains(&!l) {
                self.arena.truncate(cref);
                return;
            }
            if !kept.contains(&l) {
                self.arena.push(l);
            }
        }
        match self.arena.len() - cref - 1 {
            0 => {
                self.arena.truncate(cref);
                self.unsat = true;
            }
            1 => {
                let unit = self.arena[cref + 1];
                self.arena.truncate(cref);
                if !self.enqueue(unit, NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach_clause(cref);
            }
        }
    }

    /// Enqueues `lit` as true; returns false on immediate conflict.
    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        let value = self.lit_value(lit);
        if !value.is_undef() {
            return value == LBool::TRUE;
        }
        let v = lit.var().index();
        self.assign[v] = LBool((lit.0 & 1) as u8);
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
        true
    }

    /// Unit propagation; returns the offset of a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Compact the list in place: `i` reads, `j` writes the
            // watchers that stay. Pushes below go to other literals'
            // lists (a replacement watch is never false), which may move
            // *those* lists or grow the pool but never this window.
            let list = self.watches.lists[false_lit.index()];
            let start = list.start as usize;
            let end = start + list.len as usize;
            let (mut i, mut j) = (start, start);
            let mut conflict = None;
            while i < end {
                let cref = self.watches.pool[i];
                i += 1;
                let lits = self.clause_range(cref);
                // Normalize: the false literal sits at position 1.
                if self.arena[lits.start] == false_lit {
                    self.arena.swap(lits.start, lits.start + 1);
                }
                debug_assert_eq!(self.arena[lits.start + 1], false_lit);
                let first = self.arena[lits.start];
                let first_value = self.lit_value(first);
                if first_value == LBool::TRUE {
                    self.watches.pool[j] = cref;
                    j += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                let replacement = (lits.start + 2..lits.end)
                    .find(|&k| self.lit_value(self.arena[k]) != LBool::FALSE);
                if let Some(k) = replacement {
                    self.arena.swap(lits.start + 1, k);
                    self.watches.push(self.arena[lits.start + 1], cref);
                    continue;
                }
                // Clause is unit or conflicting under the current trail.
                self.watches.pool[j] = cref;
                j += 1;
                if first_value == LBool::FALSE {
                    // Conflict: retain the rest of the watch list.
                    self.watches.pool.copy_within(i..end, j);
                    j += end - i;
                    conflict = Some(cref);
                    break;
                }
                // Inside a scoped query an implication outside the scope
                // is not made: the clause keeps both watches, and a
                // backtrack below this level restores its invariant.
                // Level 0 stays complete, so no later query inherits
                // this one's scope.
                if self.decision_level() > 0 && !self.in_scope(first.var()) {
                    continue;
                }
                let ok = self.enqueue(first, cref);
                debug_assert!(ok);
            }
            self.watches.lists[false_lit.index()].len = (j - start) as u32;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backtrack level.
    fn analyze(&mut self, confl: u32) -> u32 {
        let mut unminimized = std::mem::take(&mut self.unminimized);
        unminimized.clear();
        unminimized.push(Lit(0)); // slot 0 = UIP
        let mut counter = 0u32;
        let mut skip_first = false;
        let mut index = self.trail.len();
        let mut confl = confl;
        let current = self.decision_level();

        loop {
            let lits = self.clause_range(confl);
            // A reason clause's first literal is the one it implied.
            for k in lits.start + usize::from(skip_first)..lits.end {
                let q = self.arena[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        unminimized.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                unminimized[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON, "resolved literal has a reason");
            skip_first = true;
        }

        // Cheap clause minimization: drop literals whose entire reason is
        // already in the learnt clause (or fixed at level 0).
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(unminimized[0]);
        for &q in &unminimized[1..] {
            let r = self.reason[q.var().index()];
            // Redundant when implied by the other learnt literals.
            let redundant = r != NO_REASON
                && self.arena[self.clause_range(r)].iter().all(|rl| {
                    rl.var() == q.var()
                        || self.seen[rl.var().index()]
                        || self.level[rl.var().index()] == 0
                });
            if !redundant {
                learnt.push(q);
            }
        }
        for l in &unminimized[1..] {
            self.seen[l.var().index()] = false;
        }
        self.unminimized = unminimized;

        // Compute backtrack level: the highest level below the current one.
        let blevel = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt = learnt;
        blevel
    }

    /// Undoes decisions above `target` level.
    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        // Latest assignment first: heap insertion order is search state.
        for k in (bound..self.trail.len()).rev() {
            let v = self.trail[k].var();
            self.phase[v.index()] = self.assign[v.index()] == LBool::TRUE;
            self.assign[v.index()] = LBool::UNDEF;
            self.reason[v.index()] = NO_REASON;
            if self.in_scope(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Stores the clause [`Solver::analyze`] left in `self.learnt` and
    /// asserts its first literal.
    fn record_learnt(&mut self) {
        self.stats.learnt += 1;
        let assert_lit = self.learnt[0];
        let reason = if self.learnt.len() == 1 {
            NO_REASON
        } else {
            let cref = self.arena.len();
            self.arena.push(Lit(0));
            self.arena.extend_from_slice(&self.learnt);
            self.attach_clause(cref)
        };
        let ok = self.enqueue(assert_lit, reason);
        debug_assert!(ok);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v.index()].is_undef() {
                return Some(v.lit(self.phase[v.index()]));
            }
        }
        None
    }

    /// Solves the instance with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under `assumptions` (literals forced true for this call).
    ///
    /// `Unsat` means the clauses are unsatisfiable *together with* the
    /// assumptions; the clause database — including every clause learnt
    /// during this call — remains usable afterwards, which is what makes
    /// back-to-back property queries against one unrolling cheap.
    ///
    /// `Sat` leaves a model of every clause. A solver that never takes
    /// a [`Solver::solve_scoped`] query runs exactly the search it
    /// always ran; the first full query after a scoped one re-queues
    /// every unassigned variable, once.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.scope_epoch != 0 {
            self.backtrack(0);
            self.scope_stamp.fill(0);
            self.scope_epoch = 0;
            self.order.clear();
            for v in (0..self.num_vars()).map(Var::from_index) {
                if self.assign[v.index()].is_undef() {
                    self.order.insert(v, &self.activity);
                }
            }
        }
        self.solve_counted(assumptions)
    }

    /// Solves under `assumptions`, deciding and propagating only the
    /// variables in `scope`: the decision heap holds the scope and
    /// nothing else, and above decision level 0 a clause that becomes
    /// unit on a variable outside the scope implies nothing — it keeps
    /// its watches and waits for the backtrack that undoes it. `Sat`
    /// means every scope variable is assigned, propagation inside the
    /// scope is at its fixpoint and no clause is falsified — a verdict,
    /// not a model. A variable outside the scope is assigned only if
    /// level 0 fixes it (or an assumption names it);
    /// [`Solver::model_value`] is meaningful for scope variables alone,
    /// and [`Solver::model_satisfies_all`] for none.
    /// A conflict is a conflict whatever the scope: a clause the
    /// assignment falsifies refutes the query even where its variables
    /// lie outside the scope, so `Unsat` is always the solver's usual
    /// refutation and needs no condition.
    ///
    /// `Sat` equals [`Solver::solve_with_assumptions`]'s verdict
    /// whenever every conflict-free assignment of the scope extends to
    /// a model of all clauses, which is the caller's to guarantee. It
    /// holds when the scope holds the assumptions' variables and is
    /// closed under gate fan-in, and every clause is
    ///
    /// - a gate definition (an output variable as a function of
    ///   earlier ones),
    /// - a unit on a variable no gate defines (an input, the constant),
    /// - or implied by those (learnt clauses, level-0 facts):
    ///
    /// the gates outside the scope can then be evaluated forward from
    /// their fan-ins, in definition order, without touching it. A unit
    /// on a gate output is outside this contract: it constrains the
    /// gate's inputs through variables the query never propagates.
    /// With `o = a ∧ b`, `p = o ∧ c` and the unit `¬p`, a scoped query
    /// assuming `a`, `b`, `c` over their scope `{a, b, c}` answers
    /// `Sat`, where the full query answers `Unsat`.
    ///
    /// The cost is the scope's, not the solver's: setting up takes time
    /// linear in `scope` and in the previous scope, and nothing outside
    /// it is ever decided, re-queued or (above level 0) propagated.
    ///
    /// # Panics
    ///
    /// If `scope` or `assumptions` name an unallocated variable.
    pub fn solve_scoped(&mut self, assumptions: &[Lit], scope: &[Var]) -> SolveResult {
        self.order.clear();
        // Under a fresh epoch nothing is in scope yet, so undoing the
        // previous query re-queues nothing.
        self.scope_epoch = self.scope_epoch.wrapping_add(1);
        if self.scope_epoch == 0 {
            self.scope_stamp.fill(0);
            self.scope_epoch = 1;
        }
        self.backtrack(0);
        for &v in scope {
            assert!(
                v.index() < self.num_vars(),
                "scope variable {v} is unallocated"
            );
            self.scope_stamp[v.index()] = self.scope_epoch;
            if self.assign[v.index()].is_undef() {
                self.order.insert(v, &self.activity);
            }
        }
        self.solve_counted(assumptions)
    }

    /// [`Solver::solve_inner`], with the call's cost left in
    /// `last_call`.
    fn solve_counted(&mut self, assumptions: &[Lit]) -> SolveResult {
        let before = self.stats;
        let res = self.solve_inner(assumptions);
        self.last_call = self.stats - before;
        res
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        let mut conflicts_until_restart = RESTART_BASE * luby(self.stats.restarts + 1);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                let blevel = self.analyze(confl);
                self.backtrack(blevel);
                self.record_learnt();
                self.var_inc *= VAR_DECAY;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = RESTART_BASE * luby(self.stats.restarts + 1);
                    self.backtrack(0);
                    continue;
                }
                // Extend with assumptions first.
                let dl = self.decision_level() as usize;
                let next = if dl < assumptions.len() {
                    let p = assumptions[dl];
                    if p.var().index() >= self.num_vars() {
                        panic!("assumption {p} references an unallocated variable");
                    }
                    let value = self.lit_value(p);
                    if value == LBool::TRUE {
                        self.trail_lim.push(self.trail.len());
                        continue;
                    }
                    if value == LBool::FALSE {
                        self.backtrack(0);
                        return SolveResult::Unsat;
                    }
                    Some(p)
                } else {
                    self.pick_branch()
                };
                match next {
                    None => return SolveResult::Sat,
                    Some(p) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(p, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    /// The model value of a literal after a `Sat` answer.
    ///
    /// Unconstrained variables read as their saved phase (deterministic).
    /// After a [`Solver::solve_scoped`] answer only scope variables
    /// have a model value; the rest read as their level-0 value if they
    /// have one, else as the phase an earlier query left.
    pub fn model_value(&self, lit: Lit) -> bool {
        let value = self.lit_value(lit);
        if value.is_undef() {
            // Unassigned after SAT: any value satisfies; use phase.
            self.phase[lit.var().index()] == lit.is_positive()
        } else {
            value == LBool::TRUE
        }
    }

    /// The model value of a variable after a `Sat` answer.
    pub fn model_var(&self, var: Var) -> bool {
        self.model_value(var.positive())
    }

    /// The literals assigned above decision level 0 — the latest
    /// query's assumptions, decisions and their implications, in
    /// assignment order — while its answer stands: empty after `Unsat`
    /// and after [`Solver::add_clause`] (diagnostic; used by tests).
    /// After a [`Solver::solve_scoped`] `Sat` each of them is a scope
    /// variable's or an assumption's.
    pub fn assigned_above_root(&self) -> &[Lit] {
        let root = self.trail_lim.first().map_or(self.trail.len(), |&at| at);
        &self.trail[root..]
    }

    /// Verifies that the current assignment satisfies every clause
    /// (diagnostic; used by tests).
    pub fn model_satisfies_all(&self) -> bool {
        let mut cref = 0;
        while cref < self.arena.len() {
            let lits = self.clause_range(cref as u32);
            if !self.arena[lits.clone()]
                .iter()
                .any(|&l| self.model_value(l))
            {
                return false;
            }
            cref = lits.end;
        }
        true
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, vars: &mut Vec<Var>, x: i32) -> Lit {
        let idx = x.unsigned_abs() as usize - 1;
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        vars[idx].lit(x > 0)
    }

    fn add(s: &mut Solver, vars: &mut Vec<Var>, clause: &[i32]) {
        let c: Vec<Lit> = clause.iter().map(|&x| lit(s, vars, x)).collect();
        s.add_clause(&c);
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let mut v = Vec::new();
        add(&mut s, &mut v, &[1, 2]);
        add(&mut s, &mut v, &[-1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[1].positive()));
        assert!(s.model_satisfies_all());
        add(&mut s, &mut v, &[-2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn chain_propagation() {
        // x1 & (x_i -> x_{i+1}) chain forces everything true.
        let mut s = Solver::new();
        let mut v = Vec::new();
        add(&mut s, &mut v, &[1]);
        for i in 1..50 {
            add(&mut s, &mut v, &[-i, i + 1]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for var in &v {
            assert!(s.model_var(*var));
        }
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        // p(i,j): pigeon i in hole j. Each pigeon somewhere; no two share.
        let mut s = Solver::new();
        let n = 4;
        let m = 3;
        let mut p = vec![vec![Var::from_index(0); m]; n];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j spans two rows at once
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.negative(), b.negative()]),
            SolveResult::Unsat
        );
        // Same instance without assumptions is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SolveResult::Sat);
        assert!(s.model_value(b.positive()));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        // At-least-one.
        let c: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        s.add_clause(&c);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Incrementally forbid each variable; stays SAT until all gone.
        for (i, v) in vars.iter().enumerate() {
            s.add_clause(&[v.negative()]);
            let expect = if i + 1 < vars.len() {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(s.solve(), expect, "after forbidding {} vars", i + 1);
        }
    }

    #[test]
    fn last_call_stats_are_per_call_deltas() {
        let mut s = Solver::new();
        let mut v = Vec::new();
        // A small UNSAT core reachable only through conflicts.
        add(&mut s, &mut v, &[1, 2]);
        add(&mut s, &mut v, &[1, -2]);
        add(&mut s, &mut v, &[-1, 2]);
        add(&mut s, &mut v, &[-1, -2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let first = s.last_call_stats();
        assert_eq!(first, s.stats());
        assert!(first.conflicts > 0 || first.propagations > 0);
        // A second (immediately unsat) call costs nothing extra, and the
        // delta reflects only that call.
        assert_eq!(s.solve(), SolveResult::Unsat);
        let second = s.last_call_stats();
        assert_eq!(second, SolverStats::default());
        assert_eq!(s.stats(), first + second);
    }

    #[test]
    fn approx_bytes_covers_the_arena_the_watches_and_the_variables() {
        let mut s = Solver::new();
        let empty = s.approx_bytes();
        let vars: Vec<Var> = (0..64).map(|_| s.new_var()).collect();
        // Every per-variable table, before a clause's slack can hide
        // one: assignment, level, reason, activity, phase, seen flag
        // and scope stamp, the heap's slot and position, and two watch
        // list headers.
        let per_var = 1 + 4 + 4 + 8 + 1 + 1 + 4 + (4 + 8) + 2 * 12;
        assert!(
            s.approx_bytes() >= empty + vars.len() * per_var,
            "{} < {}",
            s.approx_bytes(),
            vars.len() * per_var
        );
        let mut words = 0;
        for w in vars.windows(5) {
            let c: Vec<Lit> = w.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
            words += 1 + c.len();
        }
        // Header and literals, two watch entries per clause, and at
        // least assignment, level, reason and activity per variable.
        let floor = 4 * words + 8 * s.num_clauses() + vars.len() * (1 + 4 + 4 + 8);
        assert!(
            s.approx_bytes() >= empty + floor,
            "{} < {floor}",
            s.approx_bytes()
        );
    }

    #[test]
    fn a_clone_continues_the_same_search() {
        // A satisfiable-but-awkward instance: pigeons 0..4 into 4 holes
        // is unsatisfiable only under the assumption that seats pigeon 4.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..5)
            .map(|_| (0..4).map(|_| s.new_var()).collect())
            .collect();
        for row in &p[..4] {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j spans two rows at once
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let pristine = s.clone();
        assert_eq!(pristine.stats(), SolverStats::default());
        assert_eq!(s.solve(), SolveResult::Sat);
        let mut copy = s.clone();
        // Mid-session and pristine clones replay the original exactly.
        let mut replay = pristine.clone();
        assert_eq!(replay.solve(), SolveResult::Sat);
        assert_eq!(replay.stats(), s.stats());
        for solver in [&mut s, &mut copy] {
            let seat = solver.new_var();
            let c: Vec<Lit> = p[4].iter().map(|v| v.positive()).collect();
            solver.add_clause(&[&c[..], &[seat.negative()]].concat());
            assert_eq!(
                solver.solve_with_assumptions(&[seat.positive()]),
                SolveResult::Unsat
            );
            assert_eq!(solver.solve(), SolveResult::Sat);
        }
        assert!(s.stats().conflicts > 0);
        assert_eq!(copy.stats(), s.stats());
        for row in &p {
            for &v in row {
                assert_eq!(copy.model_var(v), s.model_var(v));
            }
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), a.positive(), b.positive()]);
        s.add_clause(&[a.positive(), a.negative()]); // tautology: dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_forces_unique_solution() {
        // (a xor b) & (b xor c) & a  => b = !a, c = !b.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let xor = |s: &mut Solver, x: Var, y: Var| {
            s.add_clause(&[x.positive(), y.positive()]);
            s.add_clause(&[x.negative(), y.negative()]);
        };
        xor(&mut s, a, b);
        xor(&mut s, b, c);
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_var(a));
        assert!(!s.model_var(b));
        assert!(s.model_var(c));
    }
}
