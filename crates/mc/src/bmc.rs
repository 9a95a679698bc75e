//! SAT-based engines: bounded model checking and k-induction.
//!
//! The unroller lays the bit-blasted transition relation out over time
//! frames inside one incremental SAT solver. BMC searches for a
//! reset-rooted violation of a [`WindowProperty`]; k-induction attempts
//! an unbounded proof (base case by BMC, inductive step from a free
//! state). k-induction can answer `Unknown` when the property depends on
//! reachability invariants the induction does not carry — the checker
//! then falls back per configuration.

use crate::aig::{AigLit, AigNode};
use crate::blast::Blasted;
use crate::prop::{BitAtom, CexTrace, CheckResult, ConsequentKind, WindowProperty};
use gm_cache::FxMap;
use gm_sat::{Lit, SolveResult, Solver, Var};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lays AIG time frames into a SAT solver.
///
/// The unroller is the persistent half of an incremental verification
/// session: frames, gate clauses and the solver's learnt clauses all
/// survive across property queries. Each query is posed as assumptions
/// for one solver call, so nothing is ever asserted permanently and the
/// same unrolling serves every property of a batch. A session assumes a
/// window's violation as its atoms' literals, which adds no gate for a
/// disjunctive-consequent property and only the consequent conjunction
/// for a conjunctive one; a caller that wants one *activation literal*
/// for it ([`Unroller::violation_lit`]: the one-shot engines, canonical
/// extraction, an induction step's `holds`) gets a chain of AND gates.
/// A structural AND cache keeps re-encoding the same gates nearly free:
/// the cached output is returned instead of fresh clauses.
///
/// ## Two kinds of query
///
/// A caller that reads a model — [`Unroller::extract_cex`] after it —
/// asks [`Solver::solve_with_assumptions`] through
/// [`Unroller::solver`]: the one-shot [`bmc`] / [`k_induction`] and
/// canonical counterexample extraction do. A caller that wants the
/// verdict alone asks [`Unroller::solve_scoped`], which decides only
/// the *fan-in cone* of its assumptions — the variables the
/// assumptions are functions of — instead of every frame and every
/// gate the unrolling has accumulated. That is what
/// [`crate::CheckSession`] does for every query; with a violation
/// posed as atom literals, the cone is the union of the atoms' cones.
///
/// The scoped verdict is the full one. Every clause the unroller adds
/// is the constant-true unit or one of the three Tseitin clauses
/// `out ↔ a ∧ b` of an AND gate whose fan-ins `a`, `b` were allocated
/// before `out`; every other clause is learnt, and every level-0 fact
/// derived, hence implied by those. The solver both decides and
/// propagates inside the cone only: a clause that becomes unit on a
/// variable outside it implies nothing, and the argument never needs
/// it to. Suppose a scoped query ends `Sat`: every cone variable is
/// assigned and no clause is falsified. A gate whose output is in the
/// cone has both fan-ins in it (the cone is fan-in closed), so its
/// three clauses lie in the cone and are fully assigned, and not being
/// falsified they are satisfied: inside the cone, every output equals
/// its function. Now complete the assignment outside the cone in
/// allocation order: the constant is true, a free variable (a primary
/// input, a free-init latch) takes any value, and a gate output takes
/// the AND of its fan-ins, which are older and so already valued. No
/// cone value is touched, every gate clause and the unit hold, and
/// with them every learnt clause and every level-0 fact: a model of
/// the whole database that agrees with the assumptions. `Unsat` is the
/// solver's usual refutation and needs no argument. The precondition
/// is the clause inventory above (the solver's contract: gate
/// definitions, units on variables no gate defines, and what they
/// imply) — an unrolling somebody added other clauses to through
/// [`Unroller::solver`], a unit on a gate output above all, must be
/// asked full queries only.
///
/// Everything an unrolling owns is a flat vector (the solver's arena,
/// watch pool and per-variable tables, one frame-literal table, one
/// gate table) or a table of `Copy` entries, so [`Clone`] is a handful
/// of `memcpy`s, and [`Clone::clone_from`] the same `memcpy`s into the
/// target's own allocations — which is what lets canonical
/// counterexample extraction start from a pristine prefix (the checker
/// keeps one per window depth) instead of re-encoding the design, on a
/// scratch unrolling each session refills for every extraction and
/// never frees.
#[derive(Debug)]
pub struct Unroller {
    blasted: Arc<Blasted>,
    solver: Solver,
    true_lit: Lit,
    /// SAT literal of AIG node `n` at frame `f`, at `f * nodes + n`.
    frame_lits: Vec<Lit>,
    frames: usize,
    free_init: bool,
    /// Structural hash-cons of encoded AND gates: (a, b) -> out. Keys
    /// are solver literals the unroller made itself, hence the fast
    /// deterministic hasher.
    and_cache: FxMap<(Lit, Lit), Lit>,
    /// One row per solver variable, by variable index: what
    /// `and_cache` maps, read the other way.
    gates: Vec<Gate>,
    /// The cone of the latest [`Unroller::solve_scoped`], in the order
    /// the walk reached it (its own work list), and the epoch that walk
    /// stamped into [`Gate::walk`].
    cone: Vec<Var>,
    cone_epoch: u32,
}

/// Field by field, so [`Clone::clone_from`] refills every table in the
/// allocation the target already has. The AND cache is refilled in
/// place only while its bucket count equals the source's: a checker's
/// pristine prefixes keep headroom in theirs so that it stays so.
impl Clone for Unroller {
    fn clone(&self) -> Self {
        Unroller {
            blasted: self.blasted.clone(),
            solver: self.solver.clone(),
            true_lit: self.true_lit,
            frame_lits: self.frame_lits.clone(),
            frames: self.frames,
            free_init: self.free_init,
            and_cache: self.and_cache.clone(),
            gates: self.gates.clone(),
            cone: self.cone.clone(),
            cone_epoch: self.cone_epoch,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Unroller {
            blasted,
            solver,
            true_lit,
            frame_lits,
            frames,
            free_init,
            and_cache,
            gates,
            cone,
            cone_epoch,
        } = source;
        self.blasted.clone_from(blasted);
        self.solver.clone_from(solver);
        self.true_lit = *true_lit;
        self.frame_lits.clone_from(frame_lits);
        self.frames = *frames;
        self.free_init = *free_init;
        self.and_cache.clone_from(and_cache);
        self.gates.clone_from(gates);
        self.cone.clone_from(cone);
        self.cone_epoch = *cone_epoch;
    }
}

/// A solver variable as the cone walk sees it.
#[derive(Clone, Copy, Debug)]
struct Gate {
    /// An AND output's two fan-ins; twice the constant-true literal for
    /// any other variable (and for the constant itself), so the walk
    /// tests no kind and every branch of it ends at variable 0.
    fanin: [Lit; 2],
    /// The epoch of the last walk that reached this variable.
    walk: u32,
}

impl Unroller {
    /// The design this unrolls.
    pub(crate) fn blasted(&self) -> &Blasted {
        &self.blasted
    }

    /// Creates an unroller. `free_init` leaves frame-0 latches
    /// unconstrained (for induction steps) instead of pinning them to the
    /// reset state.
    pub fn new(blasted: Arc<Blasted>, free_init: bool) -> Self {
        let mut solver = Solver::new();
        let t = solver.new_var().positive();
        solver.add_clause(&[t]);
        Unroller {
            blasted,
            solver,
            true_lit: t,
            frame_lits: Vec::new(),
            frames: 0,
            free_init,
            and_cache: FxMap::default(),
            gates: vec![Gate {
                fanin: [t, t],
                walk: 0,
            }],
            cone: Vec::new(),
            cone_epoch: 0,
        }
    }

    /// Creates an unroller over a borrowed design, paying one O(design)
    /// clone into the shared handle. Convenience for the one-shot
    /// [`bmc`] / [`k_induction`] entry points — session users should
    /// share one `Arc` via [`Unroller::new`] instead.
    pub fn from_ref(blasted: &Blasted, free_init: bool) -> Self {
        Unroller::new(Arc::new(blasted.clone()), free_init)
    }

    /// The underlying solver — for full queries and their models, and
    /// for statistics. Adding clauses of one's own through it forfeits
    /// [`Unroller::solve_scoped`] (see the type's docs).
    pub fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// The number of time frames encoded so far.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// Approximate resident size of the unrolling: the solver (see
    /// [`Solver::approx_bytes`]), the frame literal table, the
    /// structural AND cache, the gate table and the cone scratch. Used
    /// by long-lived services for cache accounting — an estimate, not
    /// an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Per cache bucket: key, value and one control byte.
        let and_entry = 3 * size_of::<Lit>() + 1;
        self.solver.approx_bytes()
            + self.frame_lits.capacity() * size_of::<Lit>()
            + self.and_cache.capacity() * and_entry
            + self.gates.capacity() * size_of::<Gate>()
            + self.cone.capacity() * size_of::<Var>()
    }

    /// A fresh variable no gate defines, with its gate-table row: a
    /// primary input or a free initial latch value.
    fn free_var(&mut self) -> Lit {
        self.gates.push(Gate {
            fanin: [self.true_lit; 2],
            walk: 0,
        });
        self.solver.new_var().positive()
    }

    /// Leaves in `self.cone` every variable `roots` are functions of:
    /// the roots' own and, transitively, each AND output's two fan-ins
    /// (plus the constant, where every branch ends). One epoch-stamped
    /// walk whose work list is the result; no allocation once the
    /// scratch has grown to the largest cone seen.
    fn walk_cone(&mut self, roots: &[Lit]) {
        self.cone_epoch = self.cone_epoch.wrapping_add(1);
        if self.cone_epoch == 0 {
            self.gates.iter_mut().for_each(|g| g.walk = 0);
            self.cone_epoch = 1;
        }
        self.cone.clear();
        let epoch = self.cone_epoch;
        let reach = |cone: &mut Vec<Var>, gates: &mut [Gate], lit: Lit| {
            let gate = &mut gates[lit.var().index()];
            if gate.walk != epoch {
                gate.walk = epoch;
                cone.push(lit.var());
            }
        };
        for &root in roots {
            reach(&mut self.cone, &mut self.gates, root);
        }
        let mut next = 0;
        while let Some(&v) = self.cone.get(next) {
            next += 1;
            for lit in self.gates[v.index()].fanin {
                reach(&mut self.cone, &mut self.gates, lit);
            }
        }
    }

    /// Decides `assumptions` for the verdict alone:
    /// [`Solver::solve_scoped`] over their fan-in cone. The cost follows
    /// the cone, not the unrolling; no model is left to read (see the
    /// type's docs for why the verdict is the full query's).
    pub fn solve_scoped(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.walk_cone(assumptions);
        self.solver.solve_scoped(assumptions, &self.cone)
    }

    /// How many variables the latest [`Unroller::solve_scoped`] had in
    /// scope (against [`Solver::num_vars`]: the share of the unrolling
    /// the query paid for).
    pub fn scope_len(&self) -> usize {
        self.cone.len()
    }

    fn encode_and(&mut self, a: Lit, b: Lit) -> Lit {
        let t = self.true_lit;
        if a == !t || b == !t || a == !b {
            return !t;
        }
        if a == t {
            return b;
        }
        if b == t || a == b {
            return a;
        }
        let key = if a.index() <= b.index() {
            (a, b)
        } else {
            (b, a)
        };
        match self.and_cache.entry(key) {
            Entry::Occupied(cached) => *cached.get(),
            Entry::Vacant(slot) => {
                self.gates.push(Gate {
                    fanin: [a, b],
                    walk: 0,
                });
                *slot.insert(self.solver.new_and(a, b))
            }
        }
    }

    /// Ensures frames `0..=frame` exist.
    pub fn ensure_frame(&mut self, frame: usize) {
        while self.frames <= frame {
            let f = self.frames;
            let blasted = self.blasted.clone();
            let nodes = blasted.aig.nodes();
            let base = self.frame_lits.len();
            self.frame_lits.reserve(nodes.len());
            for node in nodes {
                let lit = match node {
                    AigNode::ConstFalse => !self.true_lit,
                    AigNode::Input { .. } => self.free_var(),
                    AigNode::Latch { index } => {
                        let latch = &blasted.aig.latches()[*index as usize];
                        if f > 0 {
                            self.lit_in(f - 1, latch.next)
                        } else if self.free_init {
                            self.free_var()
                        } else if latch.init {
                            self.true_lit
                        } else {
                            !self.true_lit
                        }
                    }
                    AigNode::And(a, b) => {
                        let la = self.frame_lits[base + a.node()];
                        let la = if a.is_complemented() { !la } else { la };
                        let lb = self.frame_lits[base + b.node()];
                        let lb = if b.is_complemented() { !lb } else { lb };
                        self.encode_and(la, lb)
                    }
                };
                self.frame_lits.push(lit);
            }
            self.frames += 1;
        }
    }

    /// The SAT literal of an AIG literal at a frame (which must exist).
    pub fn lit_in(&self, frame: usize, lit: AigLit) -> Lit {
        assert!(frame < self.frames, "frame {frame} is not unrolled");
        let l = self.frame_lits[frame * self.blasted.aig.len() + lit.node()];
        if lit.is_complemented() {
            !l
        } else {
            l
        }
    }

    /// The SAT literal of a property atom for a window starting at `base`.
    pub fn atom_lit(&mut self, base: usize, atom: &BitAtom) -> Lit {
        let frame = base + atom.offset as usize;
        self.ensure_frame(frame);
        let l = self.lit_in(frame, self.blasted.signal_bit(atom.signal, atom.bit));
        if atom.value {
            l
        } else {
            !l
        }
    }

    /// An activation literal equivalent to "the window of `prop`
    /// starting at `base` is violated": the antecedent holds and the
    /// consequent combination fails (`All`: some atom false; `Any`:
    /// every atom false — a single consequent is `Any`). An empty
    /// consequent set degenerates to `All` = true (never violated) /
    /// `Any` = false (violated whenever the antecedent holds) — the
    /// miner never emits one. What the one-shot engines, canonical
    /// extraction and an induction step's `holds` (its complement)
    /// encode.
    pub fn violation_lit(&mut self, base: usize, prop: &WindowProperty) -> Lit {
        let mut acc = self.true_lit;
        for atom in &prop.antecedent {
            let al = self.atom_lit(base, atom);
            acc = self.encode_and(acc, al);
        }
        match prop.kind {
            ConsequentKind::All => {
                let mut all = self.true_lit;
                for atom in &prop.consequents {
                    let cl = self.atom_lit(base, atom);
                    all = self.encode_and(all, cl);
                }
                self.encode_and(acc, !all)
            }
            ConsequentKind::Any => {
                for atom in &prop.consequents {
                    let cl = self.atom_lit(base, atom);
                    acc = self.encode_and(acc, !cl);
                }
                acc
            }
        }
    }

    /// The same violation as [`Unroller::violation_lit`], pushed onto
    /// `out` as assumptions whose conjunction it is: the antecedent's
    /// atom literals, then the inverted consequent literals (`Any`) or
    /// one literal `¬AND(consequents)` (`All`). An `Any` violation —
    /// every single-consequent property among them — allocates no
    /// variable; an `All` one only its consequent conjunction. Constant,
    /// repeated or contradictory atoms need no folding: the solver takes
    /// a true assumption for free and answers `Unsat` on a false one.
    pub(crate) fn violation_assumptions(
        &mut self,
        base: usize,
        prop: &WindowProperty,
        out: &mut Vec<Lit>,
    ) {
        for atom in &prop.antecedent {
            out.push(self.atom_lit(base, atom));
        }
        match prop.kind {
            ConsequentKind::All => {
                let mut all = self.true_lit;
                for atom in &prop.consequents {
                    let cl = self.atom_lit(base, atom);
                    all = self.encode_and(all, cl);
                }
                out.push(!all);
            }
            ConsequentKind::Any => {
                for atom in &prop.consequents {
                    out.push(!self.atom_lit(base, atom));
                }
            }
        }
    }

    /// Extracts the model's input assignments for frames `0..=last` as a
    /// counterexample trace.
    pub fn extract_cex(&self, last: usize) -> CexTrace {
        let layout = self.blasted.input_layout.clone();
        let mut bits = vec![0; (last + 1) * layout.words()];
        self.read_inputs(last, &mut bits);
        CexTrace::new(layout, last + 1, bits)
    }

    /// Writes the model's input bits for frames `0..=last` into the
    /// front of `bits`, frame by frame, each frame's AIG inputs as its
    /// row of the design's input layout ([`Blasted::input_layout`]:
    /// input `i` is bit `i`, packed into `u64` words) — a
    /// [`CexTrace`]'s buffer. Allocates nothing.
    pub(crate) fn read_inputs(&self, last: usize, bits: &mut [u64]) {
        let (nodes, inputs) = (self.blasted.aig.len(), self.blasted.aig.input_count());
        let stride = self.blasted.input_layout.words();
        for f in 0..=last {
            let frame = &self.frame_lits[f * nodes..(f + 1) * nodes];
            let row = &mut bits[f * stride..][..stride];
            row.fill(0);
            for i in 0..inputs {
                let value = self
                    .solver
                    .model_value(frame[self.blasted.aig.input_node(i)]);
                row[i / 64] |= u64::from(value) << (i % 64);
            }
        }
    }
}

/// Bounded model checking: searches for a reset-rooted violation with the
/// window start ranging over `0..=max_start`.
///
/// Returns `Violated` with a trace covering the full window, or
/// `Unknown { bound }` if no violation exists within the bound (BMC alone
/// cannot prove properties).
///
/// One-shot convenience: builds a fresh unrolling per call. Batch
/// workloads should use [`crate::CheckSession`] (or
/// [`crate::Checker::check_batch`]), which keeps the unrolling and the
/// solver's learnt clauses alive across properties.
pub fn bmc(blasted: &Blasted, prop: &WindowProperty, max_start: u32) -> CheckResult {
    let mut unroller = Unroller::from_ref(blasted, false);
    match first_violation(&mut unroller, prop, max_start) {
        Some(start) => CheckResult::Violated(unroller.extract_cex(start + prop.depth() as usize)),
        None => CheckResult::Unknown { bound: max_start },
    }
}

/// Scans window starts `0..=max_start` on `unroller` — fresh, or refilled
/// from a [`PristinePrefixes`] entry, which is the same solver state a
/// fresh one reaches after its first `ensure_frame` — and stops at the
/// first violated window: its start, whose model the solver holds.
fn first_violation(
    unroller: &mut Unroller,
    prop: &WindowProperty,
    max_start: u32,
) -> Option<usize> {
    let depth = prop.depth() as usize;
    let last_start = last_scan_start(&unroller.blasted, max_start);
    (0..=last_start).find(|&start| {
        unroller.ensure_frame(start + depth);
        let v = unroller.violation_lit(start, prop);
        unroller.solver().solve_with_assumptions(&[v]) == SolveResult::Sat
    })
}

/// The last window start a BMC scan must try. A latch-free design is
/// start-invariant — the window at start `s` is an isomorphic formula
/// for every `s` — so one query at reset decides the whole scan. Shared
/// by the one-shot scan and [`crate::CheckSession::bmc`], so the
/// session verdict and the canonical re-extraction can never disagree
/// about where a violation lives. (Callers still report the *requested*
/// bound in `Unknown` results.)
pub(crate) fn last_scan_start(blasted: &Blasted, max_start: u32) -> usize {
    if blasted.aig.latch_count() == 0 {
        0
    } else {
        max_start as usize
    }
}

/// Pristine reset-rooted unrollings of frames `0..=depth`, one per
/// window depth, kept by a [`crate::Checker`] as the starting point of
/// every canonical counterexample extraction.
///
/// An entry is built once — `Unroller::new` plus `ensure_frame(depth)`,
/// exactly the state a one-shot [`bmc`] scan is in before it encodes
/// its first violation literal — and never solved on (growing its room,
/// below, changes its capacity only); extraction
/// refills a session's scratch unrolling from it
/// ([`Clone::clone_from`]) and scans there. Like the reachable set, the
/// entries depend only on the design, so they are invisible to
/// [`crate::SessionStats`], shared by every shard session, and survive
/// [`crate::Checker::reset_for_reuse`].
///
/// Every entry's AND cache keeps room for what the deepest extraction
/// seen so far encodes beyond its prefix: one frame's gates per window
/// start past the first, and a violation literal's chain at every
/// start. The room grows with the starts that actually occur, never
/// with the bound a caller allows, and when it grows every entry grows
/// with it, so all entries share one bucket count. A scratch copy
/// inherits that bucket count, so a scan never rehashes it, and the
/// next refill, from whichever depth, copies into the same buckets
/// instead of reallocating them (a map refills in place only from a
/// source with as many buckets) — which is what keeps an extraction on
/// a warm scratch free of allocation. Headroom is capacity, not state:
/// the scan, and every trace, are those of a fresh unrolling.
#[derive(Debug)]
pub(crate) struct PristinePrefixes {
    blasted: Arc<Blasted>,
    state: Mutex<Prefixes>,
}

/// The entries, and the AND-cache capacity every one of them keeps.
#[derive(Debug, Default)]
struct Prefixes {
    by_depth: BTreeMap<usize, Arc<Unroller>>,
    room: usize,
}

impl PristinePrefixes {
    /// No prefix built yet.
    pub(crate) fn new(blasted: Arc<Blasted>) -> Self {
        PristinePrefixes {
            blasted,
            state: Mutex::default(),
        }
    }

    /// The design every prefix unrolls.
    pub(crate) fn blasted(&self) -> &Arc<Blasted> {
        &self.blasted
    }

    /// An entry is inserted only once fully built, and grown only on a
    /// copy when shared, so the map is valid even if a builder panicked
    /// while holding the lock.
    fn lock(&self) -> MutexGuard<'_, Prefixes> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The prefix for `depth`, built on first use, with AND-cache room
    /// for the scan to a violation at window `start` (see the type's
    /// docs). Building and growing happen under the lock, so concurrent
    /// shard workers asking for one cold depth build it once; refilling
    /// a scratch from the entry happens outside it.
    pub(crate) fn get(&self, depth: usize, start: usize) -> Arc<Unroller> {
        let mut guard = self.lock();
        let Prefixes { by_depth, room } = &mut *guard;
        let prefix = by_depth.entry(depth).or_insert_with(|| {
            let mut prefix = Unroller::new(self.blasted.clone(), false);
            prefix.ensure_frame(depth);
            Arc::new(prefix)
        });
        let frame = self.blasted.aig.and_count();
        let scan = start * frame + (start + 1) * VIOLATION_HEADROOM;
        *room = (*room).max(prefix.and_cache.len() + scan);
        for prefix in by_depth.values_mut() {
            if prefix.and_cache.capacity() < *room {
                // A copy when an extraction still holds the entry.
                let cache = &mut Arc::make_mut(prefix).and_cache;
                cache.reserve(*room - cache.len());
            }
        }
        by_depth[&depth].clone()
    }

    /// The prefixes built so far, by depth.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<(usize, Arc<Unroller>)> {
        self.lock()
            .by_depth
            .iter()
            .map(|(&depth, prefix)| (depth, prefix.clone()))
            .collect()
    }

    /// Approximate resident size of every prefix built so far.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.lock()
            .by_depth
            .values()
            .map(|prefix| prefix.approx_bytes())
            .sum()
    }
}

/// AND-cache room a prefix keeps, per window start a scan can try, for
/// the violation literal encoded there: an AND chain of one gate per
/// atom.
const VIOLATION_HEADROOM: usize = 64;

/// Derives the *canonical* counterexample of a property violated
/// within `limit` window starts, as the model's input bits.
///
/// The trace is extracted from a private unrolling whose solver state
/// depends only on the design and `prop` — never on which other properties
/// a shared session decided before this one. This is the determinism
/// keystone of the sharded dispatch layer: a session's solver state
/// varies with its learnt-clause history (and hence with the shard
/// partition), so a [`crate::CheckSession`] takes verdicts from it and
/// nothing else, and gets the trace of a violated one here. The private
/// unrolling is `scratch`, refilled ([`Clone::clone_from`]) with
/// `prefix`, the pristine prefix for the property's depth — whatever it
/// held before — and put through the very scan the one-shot [`bmc`]
/// runs, so the trace is bit-for-bit the one [`bmc`] / [`k_induction`]
/// produce on a fresh unrolling. The scan stops at the first violating
/// start, so the work (and the trace) is independent of `limit` as long
/// as `limit` covers the violation.
///
/// Returns the violating start, having written the input bits of frames
/// `0..=start + depth` into the front of `bits` (see
/// [`Unroller::read_inputs`]), or `None` when no violation exists
/// within `limit`. `bits` must have room for `limit + depth + 1`
/// frames. Nothing here allocates once `scratch` has held as much as
/// `prefix` and the scan need: the caller owns every buffer, which is
/// what lets extraction run on a thread of its own (see
/// `crate::check::extract`).
pub(crate) fn canonical_cex(
    prefix: &Unroller,
    prop: &WindowProperty,
    limit: u32,
    scratch: &mut Unroller,
    bits: &mut [u64],
) -> Option<usize> {
    scratch.clone_from(prefix);
    let start = first_violation(scratch, prop, limit)?;
    scratch.read_inputs(start + prop.depth() as usize, bits);
    Some(start)
}

/// k-induction: tries to prove the property outright.
///
/// For each `k` up to `max_k`: the base case checks windows starting at
/// `0..k` from reset (any violation is returned with its trace); the
/// step case assumes the property on `k` consecutive windows from an
/// arbitrary state and asks whether the next window can fail. If the
/// step is UNSAT the property is proved.
pub fn k_induction(blasted: &Blasted, prop: &WindowProperty, max_k: u32) -> CheckResult {
    // Clone the design into one shared handle for every unroller below.
    let shared = Arc::new(blasted.clone());
    let depth = prop.depth() as usize;
    // Base cases, shared incrementally.
    let mut base = Unroller::new(shared.clone(), false);
    for k in 0..=max_k as usize {
        // Base: violation in window starting at k from reset?
        base.ensure_frame(k + depth);
        let v = base.violation_lit(k, prop);
        if base.solver().solve_with_assumptions(&[v]) == SolveResult::Sat {
            let cex = base.extract_cex(k + depth);
            return CheckResult::Violated(cex);
        }
        // Step: from a free state, k windows hold but window k fails?
        let mut step = Unroller::new(shared.clone(), true);
        step.ensure_frame(k + depth);
        let mut assumptions = Vec::new();
        for j in 0..k {
            let h = !step.violation_lit(j, prop);
            assumptions.push(h);
        }
        let v = step.violation_lit(k, prop);
        assumptions.push(v);
        if step.solver().solve_with_assumptions(&assumptions) == SolveResult::Unsat {
            return CheckResult::Proved;
        }
    }
    CheckResult::Unknown { bound: max_k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::blast;
    use gm_rtl::{elaborate, parse_verilog};

    fn setup(src: &str) -> (gm_rtl::Module, Blasted) {
        let m = parse_verilog(src).unwrap();
        let e = elaborate(&m).unwrap();
        let b = blast(&m, &e).unwrap();
        (m, b)
    }

    const DFF: &str = "
    module dff(input clk, input rst, input d, output reg q);
      always @(posedge clk)
        if (rst) q <= 0;
        else q <= d;
    endmodule";

    #[test]
    fn bmc_finds_combinational_violation() {
        let (m, b) = setup("module m(input a, output y); assign y = ~a; endmodule");
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        // Claim: a -> y. Violated by a=1.
        let prop = WindowProperty::implication(
            vec![BitAtom::new(a, 0, 0, true)],
            BitAtom::new(y, 0, 0, true),
        );
        match bmc(&b, &prop, 0) {
            CheckResult::Violated(cex) => {
                assert_eq!(cex.len(), 1);
                let (sig, v) = cex.inputs()[0][0];
                assert_eq!(sig, a);
                assert!(v.is_nonzero());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn bmc_cannot_violate_true_property() {
        let (m, b) = setup("module m(input a, output y); assign y = ~a; endmodule");
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        let prop = WindowProperty::implication(
            vec![BitAtom::new(a, 0, 0, true)],
            BitAtom::new(y, 0, 0, false),
        );
        assert_eq!(bmc(&b, &prop, 5), CheckResult::Unknown { bound: 5 });
    }

    #[test]
    fn k_induction_proves_dff_follows_input() {
        let (m, b) = setup(DFF);
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        // d@0 |-> q@1 — inductive with k=1.
        let prop = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 1, true),
        );
        assert_eq!(k_induction(&b, &prop, 4), CheckResult::Proved);
    }

    #[test]
    fn k_induction_finds_sequential_violation() {
        let (m, b) = setup(DFF);
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        // Claim: d@0 |-> !q@1, false: needs one step from reset.
        let prop = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 1, false),
        );
        match k_induction(&b, &prop, 4) {
            CheckResult::Violated(cex) => {
                assert!(!cex.is_empty());
                // The violating input must set d at the window start.
                let (sig, v) = cex.inputs()[cex.len() - 2][0];
                assert_eq!(sig, d);
                assert!(v.is_nonzero());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn temporal_eventuality_and_stability_on_dff() {
        let (m, b) = setup(DFF);
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        // d@0 |-> F<=1 q@1: q@1 alone already follows d@0, so the
        // disjunctive window (q@1 | q@2) is provable.
        let eventually = WindowProperty {
            antecedent: vec![BitAtom::new(d, 0, 0, true)],
            consequents: vec![BitAtom::new(q, 0, 1, true), BitAtom::new(q, 0, 2, true)],
            kind: ConsequentKind::Any,
        };
        assert_eq!(k_induction(&b, &eventually, 4), CheckResult::Proved);
        // d@0 |-> G<=1 q@1: q@2 tracks the free input d@1, so the
        // conjunctive window is violated.
        let stable = WindowProperty {
            antecedent: vec![BitAtom::new(d, 0, 0, true)],
            consequents: vec![BitAtom::new(q, 0, 1, true), BitAtom::new(q, 0, 2, true)],
            kind: ConsequentKind::All,
        };
        match k_induction(&b, &stable, 4) {
            CheckResult::Violated(cex) => {
                // The violating run must deassert d somewhere after the
                // window start; BMC must agree on the verdict.
                assert!(!cex.is_empty());
                assert!(matches!(bmc(&b, &stable, 4), CheckResult::Violated(_)));
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The stability claim that holds: d@0 & d@1 |-> q@1 & q@2.
        let stable_ok = WindowProperty {
            antecedent: vec![BitAtom::new(d, 0, 0, true), BitAtom::new(d, 0, 1, true)],
            consequents: vec![BitAtom::new(q, 0, 1, true), BitAtom::new(q, 0, 2, true)],
            kind: ConsequentKind::All,
        };
        assert_eq!(k_induction(&b, &stable_ok, 4), CheckResult::Proved);
    }

    #[test]
    fn counter_saturation_proved_by_induction() {
        // A saturating 2-bit counter never wraps: q==3 stays 3.
        let (m, b) = setup(
            "module m(input clk, input rst, input en, output reg [1:0] q);
               always @(posedge clk)
                 if (rst) q <= 0;
                 else if (en & (q != 2'd3)) q <= q + 2'd1;
                 else q <= q;
             endmodule",
        );
        let q = m.require("q").unwrap();
        // q[0]@0 & q[1]@0 |-> q[0]@1 (saturated stays saturated).
        let prop = WindowProperty::implication(
            vec![BitAtom::new(q, 0, 0, true), BitAtom::new(q, 1, 0, true)],
            BitAtom::new(q, 0, 1, true),
        );
        assert_eq!(k_induction(&b, &prop, 4), CheckResult::Proved);
    }
}
