//! Persistent, batched verification sessions.
//!
//! The refinement loop checks hundreds of candidate assertions against
//! the *same* blasted design every iteration. A [`CheckSession`] owns
//! the two unrollings those checks need — one reset-rooted (BMC and
//! induction base cases) and one free-init (induction steps) — and
//! poses every property as queries under assumptions against them, so
//! the per-iteration cost drops from O(candidates × unroll) to one
//! shared unrolling per session. The solver's learnt clauses carry over
//! between queries, and [`SessionStats`] exposes where the time went.
//!
//! ## What a query adds to the solver
//!
//! Only what it cannot assume. A violated window is posed as its atoms'
//! own literals ([`Unroller::violation_assumptions`]): the antecedent's,
//! then the inverted consequents of a disjunctive (`Any`) property —
//! every single-consequent implication among them — or one
//! `¬AND(consequents)` gate literal of a conjunctive (`All`) one. A base query (a BMC window, an
//! induction base case) assumes that list and nothing else, so for an
//! `Any` property it allocates no variable once its frames exist. An
//! induction step at depth `k` assumes `holds(j)` for the windows
//! `j < k` — one activation literal each, whose AND gates stay — and
//! then window `k`'s list. The `mc.sat_query` span's `new_vars` is what
//! the query's own encoding allocated.
//!
//! ## Shard lifecycle
//!
//! Sessions are plain owned data over an `Arc<Blasted>`, so they are
//! `Send`: the sharded dispatch layer ([`crate::Checker::with_shards`])
//! keeps a pool of them — one per shard — moves each into a scoped
//! worker thread for the duration of a batch, and takes them back (with
//! their unrollings, learnt clauses and stats) when the workers join. A shard session therefore
//! persists across engine iterations exactly like the single session
//! does, and blasting still happens once: every session shares the same
//! `Arc<Blasted>`.
//!
//! ## Determinism contract
//!
//! A session never reads a model. Every query it poses is a *scoped*
//! one ([`Unroller::solve_scoped`]): the solver decides and propagates
//! only inside the fan-in cone of the query's assumptions and answers
//! `Sat` or `Unsat`, and that answer depends only on the design, the
//! property and the query bounds — never on the learnt clauses, the
//! other properties' gates or the decision order the session's history
//! left behind. So a session's
//! verdicts (`Proved` / `Violated` / `Unknown`), the sequence of queries
//! behind them and every counter of [`SessionStats`] except the
//! solver's own work ([`SessionStats::solver`]) are functions of the
//! calls made on it.
//!
//! The trace of a `Violated` verdict is not taken from the session's
//! solver either. The session's search yields the violating start, and
//! the trace is the scan up to that start replayed on a private copy of
//! the pristine, never-solved unrolling prefix for the property's depth
//! (the [`crate::Checker`] shares one set of prefixes among all its
//! sessions): the solver state a fresh one-shot unrolling would be in,
//! without re-encoding the design. Each such extraction is counted in
//! [`SessionStats::cex_canonicalized`]. That full-model path is
//! search-pinned (`gm_sat`'s `search_identity` suite); the scoped one is
//! not and need not be.
//!
//! The copy is one of the session's two *scratch* unrollings, each
//! built at its first extraction and refilled from the prefix
//! ([`Clone::clone_from`]) at every later one, whatever the previous
//! scan left in it. Once a scratch's tables have grown to the largest
//! prefix and scan it has seen, a refill copies into them instead of
//! allocating (every prefix keeps AND-cache room for the deepest
//! extraction seen, so a scan never rehashes the copy).
//! [`CheckSession::bmc`] and [`CheckSession::k_induction`] extract on
//! the calling thread, on the session's own scratch, and so do shard
//! workers. The checker's single-session batches hand the violating
//! starts and the second, *helper* scratch to a helper thread that
//! extracts while the session decides the next properties; once the
//! decisions run out, the deciding thread extracts what is still
//! pending on its own scratch, beside the helper
//! (`crate::check::extract`). Where an extraction runs cannot change
//! its trace: the trace is a function of the design, the property and
//! the start alone, and a scratch is refilled before every scan.
//!
//! Every result — and every downstream closure-outcome artifact — is
//! therefore identical regardless of shard count, batch order, the
//! thread that extracted it or what the session decided before, and
//! equal to what the one-shot [`crate::bmc`] / [`crate::k_induction`]
//! return.

use crate::blast::Blasted;
use crate::bmc::{canonical_cex, PristinePrefixes, Unroller};
use crate::error::McError;
use crate::explicit::{ExplicitLimits, ExplicitScratch, ReachableStates};
use crate::prop::{CexTrace, CheckResult, WindowProperty};
use gm_sat::{Lit, SolveResult, SolverStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// True when a cooperative cancel token has been raised.
pub(crate) fn cancel_requested(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Acquire))
}

/// Evaluates the `sat.stall` / `sat.flaky` fault points at a cancel
/// poll site (between SAT queries). Disarmed cost is one relaxed
/// atomic load per poll — the same budget as the cancel check itself.
///
/// Both points are gated on a cancel token being *present*:
/// [`CheckSession::bmc`] / [`CheckSession::k_induction`] are infallible
/// without a token, and the conditions these faults emulate (a wedged
/// or flaky SAT service) are only recoverable on the served,
/// cancellable path.
pub(crate) fn injected_fault(cancel: Option<&AtomicBool>) -> Option<McError> {
    if !gm_fault::enabled() {
        return None;
    }
    let c = cancel?;
    if gm_fault::fire("sat.stall") {
        // A wedged SAT query: the only way out is the cooperative
        // cancel token (deadline enforcement or a caller cancel), which
        // is exactly what deadline tests need to prove.
        while !c.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        return Some(McError::Cancelled);
    }
    if gm_fault::fire("sat.flaky") {
        return Some(McError::TransientFault { point: "sat.flaky" });
    }
    None
}

/// Counters describing the work a verification session has done.
///
/// Cumulative; subtract snapshots (the [`std::ops::Sub`] impl
/// saturates) to attribute work to one batch or one engine iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Individual SAT solver calls (one per BMC window start / induction
    /// step); a single property decision may cost several.
    pub sat_queries: u64,
    /// Property checks decided by the SAT engines (BMC / k-induction).
    pub sat_decided: u64,
    /// Property checks decided by explicit-state reachability.
    pub explicit_queries: u64,
    /// Batch positions that repeated an earlier position's property and
    /// took its verdict without any engine work: the in-batch
    /// duplicates [`crate::Checker::check_batch`] decided once.
    pub memo_hits: u64,
    /// Aggregated solver work across all SAT queries.
    pub solver: SolverStats,
    /// Time frames newly encoded into an unrolling.
    pub frames_encoded: u64,
    /// Frames a query needed that were already encoded — the re-blasting
    /// the session avoided.
    pub frames_reused: u64,
    /// Unrollers constructed (at most one reset-rooted plus one
    /// free-init per session). The checker's pristine per-depth
    /// prefixes belong to no session, and the session's extraction
    /// scratches are refilled from them rather than built for a query:
    /// neither is counted here; each extraction is counted in
    /// [`SessionStats::cex_canonicalized`].
    pub unrollers_built: u64,
    /// Violated SAT verdicts whose counterexample was re-extracted on
    /// one of the session's scratch unrollings, refilled from the pristine
    /// prefix for the property's depth (the determinism contract:
    /// traces must not depend on session history or shard partition).
    pub cex_canonicalized: u64,
}

impl std::ops::Sub for SessionStats {
    type Output = SessionStats;

    fn sub(self, rhs: SessionStats) -> SessionStats {
        SessionStats {
            sat_queries: self.sat_queries.saturating_sub(rhs.sat_queries),
            sat_decided: self.sat_decided.saturating_sub(rhs.sat_decided),
            explicit_queries: self.explicit_queries.saturating_sub(rhs.explicit_queries),
            memo_hits: self.memo_hits.saturating_sub(rhs.memo_hits),
            solver: self.solver - rhs.solver,
            frames_encoded: self.frames_encoded.saturating_sub(rhs.frames_encoded),
            frames_reused: self.frames_reused.saturating_sub(rhs.frames_reused),
            unrollers_built: self.unrollers_built.saturating_sub(rhs.unrollers_built),
            cex_canonicalized: self.cex_canonicalized.saturating_sub(rhs.cex_canonicalized),
        }
    }
}

impl std::ops::Add for SessionStats {
    type Output = SessionStats;

    fn add(self, rhs: SessionStats) -> SessionStats {
        SessionStats {
            sat_queries: self.sat_queries + rhs.sat_queries,
            sat_decided: self.sat_decided + rhs.sat_decided,
            explicit_queries: self.explicit_queries + rhs.explicit_queries,
            memo_hits: self.memo_hits + rhs.memo_hits,
            solver: self.solver + rhs.solver,
            frames_encoded: self.frames_encoded + rhs.frames_encoded,
            frames_reused: self.frames_reused + rhs.frames_reused,
            unrollers_built: self.unrollers_built + rhs.unrollers_built,
            cex_canonicalized: self.cex_canonicalized + rhs.cex_canonicalized,
        }
    }
}

impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, rhs: SessionStats) {
        *self = *self + rhs;
    }
}

impl SessionStats {
    /// Total property decisions made by an engine (duplicates excluded),
    /// in comparable units: one per property, whether it was decided by
    /// explicit-state reachability or by the SAT engines.
    pub fn engine_queries(&self) -> u64 {
        self.sat_decided + self.explicit_queries
    }
}

/// A persistent SAT-engine session over one blasted design.
///
/// Owns at most one reset-rooted [`Unroller`] (shared by BMC and every
/// k-induction base case) and one free-init unroller (shared by every
/// induction step), both built lazily on first use and reused for the
/// session's lifetime. All queries go through
/// [`Unroller::solve_scoped`] under assumptions, so the clause database
/// only ever grows with gate definitions and learnt clauses — no query
/// can contaminate a later one (a unit on a gate output would void the
/// scoped verdicts: see the solver's contract), and each costs its own
/// cone, where it is decided and propagated (see the module docs for
/// which gates a query still adds). It also owns the
/// [`ExplicitScratch`] its explicit-state queries are decided on
/// ([`CheckSession::explicit`]).
#[derive(Debug)]
pub struct CheckSession {
    /// The design, and where violated verdicts get their traces (see
    /// the module docs).
    prefixes: Arc<PristinePrefixes>,
    base: Option<Unroller>,
    step: Option<Unroller>,
    /// Where violated verdicts get their traces on the calling thread:
    /// refilled from a pristine prefix for every extraction, built on
    /// the first.
    scratch: Option<Unroller>,
    /// The same for the extraction helper of the checker's batches.
    helper_scratch: Option<Unroller>,
    stats: SessionStats,
    /// A base query's assumptions, kept so no query allocates them.
    assumptions: Vec<Lit>,
    /// Where every explicit-state query is decided (see
    /// [`CheckSession::explicit`]).
    explicit: ExplicitScratch,
}

impl CheckSession {
    /// Creates an empty session over a shared blasted design, with
    /// pristine prefixes of its own.
    pub fn new(blasted: Arc<Blasted>) -> Self {
        CheckSession::sharing(Arc::new(PristinePrefixes::new(blasted)))
    }

    /// Creates an empty session over the design of `prefixes`, which a
    /// checker shares among all its sessions.
    pub(crate) fn sharing(prefixes: Arc<PristinePrefixes>) -> Self {
        CheckSession {
            prefixes,
            base: None,
            step: None,
            scratch: None,
            helper_scratch: None,
            stats: SessionStats::default(),
            assumptions: Vec::new(),
            explicit: ExplicitScratch::default(),
        }
    }

    /// The design this session unrolls.
    pub fn blasted(&self) -> &Blasted {
        self.prefixes.blasted()
    }

    /// Cumulative statistics for the session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Approximate resident size of the session's unrollings (see
    /// [`Unroller::approx_bytes`]), both extraction scratches included,
    /// and of its explicit-state scratch — the number a long-lived
    /// service weighs when deciding which warm design state to evict.
    /// The pristine prefixes and the reachable set are billed by
    /// whoever shares them out.
    pub fn approx_bytes(&self) -> usize {
        [&self.base, &self.step, &self.scratch, &self.helper_scratch]
            .into_iter()
            .flatten()
            .map(Unroller::approx_bytes)
            .sum::<usize>()
            + self.explicit.approx_bytes()
    }

    /// Decides `prop` by explicit-state reachability on `reach`, the
    /// reachable set of this session's design, in the session's
    /// [`ExplicitScratch`]: the verdict and trace of
    /// [`crate::explicit_check`], and once the scratch has grown to the
    /// query, no allocation outside a violated verdict's trace.
    ///
    /// # Errors
    ///
    /// As [`ExplicitScratch::check`].
    pub fn explicit(
        &mut self,
        reach: &ReachableStates,
        prop: &WindowProperty,
        limits: &ExplicitLimits,
    ) -> Result<CheckResult, McError> {
        let blasted = self.prefixes.blasted();
        let res = self.explicit.check(blasted, reach, prop, limits)?;
        self.stats.explicit_queries += 1;
        Ok(res)
    }

    pub(crate) fn note_memo_hits(&mut self, duplicates: u64) {
        self.stats.memo_hits += duplicates;
    }

    pub(crate) fn note_sat_decision(&mut self) {
        self.stats.sat_decided += 1;
    }

    /// Lazily builds one of the two unrollers, counting construction.
    fn unroller<'s>(
        slot: &'s mut Option<Unroller>,
        blasted: &Arc<Blasted>,
        free_init: bool,
        stats: &mut SessionStats,
    ) -> &'s mut Unroller {
        if slot.is_none() {
            *slot = Some(Unroller::new(blasted.clone(), free_init));
            stats.unrollers_built += 1;
        }
        slot.as_mut().expect("unroller just ensured")
    }

    /// The calling thread's extraction scratch, once an extraction
    /// there built it.
    #[cfg(test)]
    pub(crate) fn scratch(&self) -> Option<&Unroller> {
        self.scratch.as_ref()
    }

    /// The extraction helper's scratch, once a helper started on it.
    #[cfg(test)]
    pub(crate) fn helper_scratch(&self) -> Option<&Unroller> {
        self.helper_scratch.as_ref()
    }

    /// The reset-rooted unrolling base queries ask, built if need be.
    #[cfg(test)]
    pub(crate) fn base_unroller(&mut self) -> &mut Unroller {
        Self::unroller(
            &mut self.base,
            self.prefixes.blasted(),
            false,
            &mut self.stats,
        )
    }

    /// Extends `unroller` to cover frames `0..=last`, attributing newly
    /// encoded frames vs reused ones to the session stats.
    fn extend_frames(unroller: &mut Unroller, last: usize, stats: &mut SessionStats) {
        let have = unroller.frame_count();
        let need = last + 1;
        unroller.ensure_frame(last);
        stats.frames_reused += need.min(have) as u64;
        stats.frames_encoded += need.saturating_sub(have) as u64;
    }

    /// One scoped query, folding the solver's per-call cost into the
    /// session stats. `vars_before` is the variable count before the
    /// query encoded its assumptions (its frames already existing).
    fn solve(
        unroller: &mut Unroller,
        assumptions: &[Lit],
        vars_before: usize,
        stats: &mut SessionStats,
    ) -> SolveResult {
        let mut span = gm_trace::span("mc", "mc.sat_query");
        stats.sat_queries += 1;
        let res = unroller.solve_scoped(assumptions);
        let delta = unroller.solver().last_call_stats();
        stats.solver += delta;
        if span.is_active() {
            let vars = unroller.solver().num_vars();
            span.arg("assumptions", assumptions.len());
            span.arg("new_vars", vars - vars_before);
            span.arg("scope", unroller.scope_len());
            span.arg("vars", vars);
            span.arg("sat", res == SolveResult::Sat);
            span.arg("conflicts", delta.conflicts);
            span.arg("decisions", delta.decisions);
            span.arg("propagations", delta.propagations);
            span.arg("learnt", delta.learnt);
        }
        res
    }

    /// Asks the reset-rooted unrolling whether the window starting at
    /// `start` can violate `prop`, assuming the violation's literals.
    fn base_violation(&mut self, prop: &WindowProperty, start: usize) -> bool {
        let depth = prop.depth() as usize;
        let base = Self::unroller(
            &mut self.base,
            self.prefixes.blasted(),
            false,
            &mut self.stats,
        );
        Self::extend_frames(base, start + depth, &mut self.stats);
        let vars = base.solver().num_vars();
        self.assumptions.clear();
        base.violation_assumptions(start, prop, &mut self.assumptions);
        Self::solve(base, &self.assumptions, vars, &mut self.stats) == SolveResult::Sat
    }

    /// The extraction of `prop`'s violation at `start`, the one
    /// [`CheckSession::base_violation`] found there (every earlier start
    /// having been refuted): its prefix is built, and its bit buffer
    /// allocated, here on the calling thread.
    pub(crate) fn extraction<'p>(&self, prop: &'p WindowProperty, start: usize) -> Extraction<'p> {
        let depth = prop.depth() as usize;
        let row = self.blasted().input_layout.words();
        Extraction {
            prop,
            start,
            prefix: self.prefixes.get(depth, start),
            bits: vec![0; (start + depth + 1) * row],
            extracted: false,
        }
    }

    /// The calling thread's scratch unrolling, for extractions to run
    /// on until [`CheckSession::restore_scratch`] hands it back: the
    /// session's own, or a fresh one before the first extraction.
    pub(crate) fn take_scratch(&mut self) -> Unroller {
        Self::take(&mut self.scratch, self.prefixes.blasted())
    }

    /// Takes the scratch back, `extractions` canonical extractions
    /// later.
    pub(crate) fn restore_scratch(&mut self, scratch: Unroller, extractions: u64) {
        self.scratch = Some(scratch);
        self.stats.cex_canonicalized += extractions;
    }

    /// [`CheckSession::take_scratch`] for the extraction helper.
    pub(crate) fn take_helper_scratch(&mut self) -> Unroller {
        Self::take(&mut self.helper_scratch, self.prefixes.blasted())
    }

    /// [`CheckSession::restore_scratch`] for the extraction helper.
    pub(crate) fn restore_helper_scratch(&mut self, scratch: Unroller, extractions: u64) {
        self.helper_scratch = Some(scratch);
        self.stats.cex_canonicalized += extractions;
    }

    fn take(slot: &mut Option<Unroller>, blasted: &Arc<Blasted>) -> Unroller {
        (slot.take()).unwrap_or_else(|| Unroller::new(blasted.clone(), false))
    }

    /// A violated verdict with its trace, extracted on this thread, or
    /// any other decision as it is.
    pub(crate) fn resolve(&mut self, prop: &WindowProperty, decision: Decision) -> CheckResult {
        match decision {
            Decision::Final(res) => res,
            Decision::Refuted { start } => {
                let mut extraction = self.extraction(prop, start);
                let mut scratch = self.take_scratch();
                extraction.run(&mut scratch);
                self.restore_scratch(scratch, 1);
                CheckResult::Violated(extraction.into_trace().expect("extracted just now"))
            }
        }
    }

    /// Bounded model checking against the shared reset-rooted unrolling:
    /// window starts range over `0..=max_start`.
    ///
    /// Same result as the one-shot [`crate::bmc`], trace included, but
    /// frames, gate encodings and learnt clauses persist for the next
    /// property.
    /// Latch-free designs are start-invariant, so their scan collapses
    /// to the single window at reset (the reported `Unknown` bound stays
    /// the requested one).
    ///
    /// # Errors
    ///
    /// `cancel` is a cooperative token polled between SAT queries (once
    /// per window start of the scan): [`McError::Cancelled`] as soon as
    /// it is raised, no partial verdict published. Infallible with
    /// `None`.
    pub fn bmc(
        &mut self,
        prop: &WindowProperty,
        max_start: u32,
        cancel: Option<&AtomicBool>,
    ) -> Result<CheckResult, McError> {
        let decision = self.bmc_decision(prop, max_start, cancel)?;
        Ok(self.resolve(prop, decision))
    }

    /// [`CheckSession::bmc`]'s scan, whose violated verdict is the
    /// violating start: its trace is extracted by the caller.
    pub(crate) fn bmc_decision(
        &mut self,
        prop: &WindowProperty,
        max_start: u32,
        cancel: Option<&AtomicBool>,
    ) -> Result<Decision, McError> {
        let last_start = crate::bmc::last_scan_start(self.blasted(), max_start);
        for start in 0..=last_start {
            if cancel_requested(cancel) {
                return Err(McError::Cancelled);
            }
            if let Some(fault) = injected_fault(cancel) {
                return Err(fault);
            }
            let mut span = gm_trace::span("mc", "mc.bmc_window");
            span.arg("start", start as u64);
            if self.base_violation(prop, start) {
                span.arg("violated", true);
                return Ok(Decision::Refuted { start });
            }
        }
        Ok(Decision::Final(CheckResult::Unknown { bound: max_start }))
    }

    /// k-induction against the shared unrollings: base cases on the
    /// reset-rooted one, step cases on the free-init one.
    ///
    /// Same result as the one-shot [`crate::k_induction`], trace
    /// included.
    ///
    /// # Errors
    ///
    /// `cancel` is polled once per induction depth `k`, with the
    /// contract of [`CheckSession::bmc`].
    pub fn k_induction(
        &mut self,
        prop: &WindowProperty,
        max_k: u32,
        cancel: Option<&AtomicBool>,
    ) -> Result<CheckResult, McError> {
        let decision = self.k_induction_decision(prop, max_k, cancel)?;
        Ok(self.resolve(prop, decision))
    }

    /// [`CheckSession::k_induction`]'s search, whose violated verdict is
    /// the violating start: its trace is extracted by the caller.
    pub(crate) fn k_induction_decision(
        &mut self,
        prop: &WindowProperty,
        max_k: u32,
        cancel: Option<&AtomicBool>,
    ) -> Result<Decision, McError> {
        let depth = prop.depth() as usize;
        // The step query's assumptions: windows `0..k` hold, then
        // window `k`'s violation literals. One vector for the whole
        // call; each depth drops the previous depth's violation and
        // appends that window's `holds`, then its own violation.
        let mut assumptions = Vec::new();
        for k in 0..=max_k as usize {
            if cancel_requested(cancel) {
                return Err(McError::Cancelled);
            }
            if let Some(fault) = injected_fault(cancel) {
                return Err(fault);
            }
            let mut span = gm_trace::span("mc", "mc.kind_depth");
            span.arg("k", k);
            // Base: violation in the window starting at k from reset?
            if self.base_violation(prop, k) {
                span.arg("violated", true);
                return Ok(Decision::Refuted { start: k });
            }
            // Step: from a free state, k windows hold but window k fails?
            let step = Self::unroller(
                &mut self.step,
                self.prefixes.blasted(),
                true,
                &mut self.stats,
            );
            Self::extend_frames(step, k + depth, &mut self.stats);
            let vars = step.solver().num_vars();
            if let Some(held) = k.checked_sub(1) {
                assumptions.truncate(held);
                assumptions.push(!step.violation_lit(held, prop));
            }
            step.violation_assumptions(k, prop, &mut assumptions);
            if Self::solve(step, &assumptions, vars, &mut self.stats) == SolveResult::Unsat {
                return Ok(Decision::Final(CheckResult::Proved));
            }
        }
        Ok(Decision::Final(CheckResult::Unknown { bound: max_k }))
    }
}

/// What a session's SAT engines decided about one property, before a
/// violated verdict has its trace.
#[derive(Debug)]
pub(crate) enum Decision {
    /// The result as it stands: a proof, an `Unknown`, or (from the
    /// explicit engine) a violation with its trace.
    Final(CheckResult),
    /// Violated in the window at `start`, every earlier start refuted:
    /// the trace is the canonical scan's ([`crate::bmc::canonical_cex`]).
    Refuted {
        /// The violating window start.
        start: usize,
    },
}

/// One violated verdict's trace, from its violating start to the
/// model's input bits. [`CheckSession::extraction`] builds it on the
/// deciding thread; [`Extraction::run`], the one extraction routine,
/// fills it on any thread, allocating nothing once the scratch is warm.
#[derive(Debug)]
pub(crate) struct Extraction<'p> {
    prop: &'p WindowProperty,
    /// The violating window start the session found.
    start: usize,
    /// The pristine prefix for the property's depth.
    prefix: Arc<Unroller>,
    /// The model's input bits, one row of the design's input layout
    /// per frame: room for frames `0..=start + depth`, filled by the
    /// extraction, and the trace's buffer once it is done.
    bits: Vec<u64>,
    extracted: bool,
}

impl Extraction<'_> {
    /// The pristine prefix the scan starts from.
    pub(crate) fn prefix(&self) -> &Unroller {
        &self.prefix
    }

    /// Whether this is the extraction of `prop`'s violation at `start`.
    pub(crate) fn is_of(&self, prop: &WindowProperty, start: usize) -> bool {
        std::ptr::eq(self.prop, prop) && self.start == start
    }

    /// Whether [`Extraction::run`] ran (a raised token can drop it).
    pub(crate) fn extracted(&self) -> bool {
        self.extracted
    }

    /// The canonical scan ([`canonical_cex`]) on `scratch`, refilled
    /// from the prefix, under the `mc.canonical_cex` span. The counting
    /// is the session's, when the scratch comes back
    /// ([`CheckSession::restore_scratch`]).
    pub(crate) fn run(&mut self, scratch: &mut Unroller) {
        let mut span = gm_trace::span("mc", "mc.canonical_cex");
        let limit = u32::try_from(self.start).expect("window starts are bounded by a u32");
        let found = canonical_cex(&self.prefix, self.prop, limit, scratch, &mut self.bits);
        assert!(
            found == Some(self.start),
            "a scoped Sat verdict is the full query's: the replay finds the violation"
        );
        // The replay stopped at the violating start, whose window ends
        // the trace: the prefix covered the first start's window and
        // every later start encoded one more frame.
        let depth = self.prop.depth() as usize;
        span.arg("depth", depth);
        span.arg("starts", self.start + 1);
        span.arg("frames_cloned", depth + 1);
        span.arg("frames_encoded", self.start);
        self.extracted = true;
    }

    /// The extracted trace, on this extraction's buffer, or `None` when
    /// it never ran.
    pub(crate) fn into_trace(self) -> Option<CexTrace> {
        let frames = self.start + self.prop.depth() as usize + 1;
        let layout = self.prefix.blasted().input_layout.clone();
        self.extracted
            .then(|| CexTrace::new(layout, frames, self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::blast;
    use crate::bmc::{bmc, k_induction};
    use crate::prop::{BitAtom, ConsequentKind, WindowProperty};
    use gm_rtl::{elaborate, parse_verilog};

    const DFF: &str = "
    module dff(input clk, input rst, input d, output reg q);
      always @(posedge clk)
        if (rst) q <= 0;
        else q <= d;
    endmodule";

    fn setup(src: &str) -> (gm_rtl::Module, Arc<Blasted>) {
        let m = parse_verilog(src).unwrap();
        let e = elaborate(&m).unwrap();
        let b = blast(&m, &e).unwrap();
        (m, Arc::new(b))
    }

    #[test]
    fn session_agrees_with_one_shot_engines_and_reuses_frames() {
        let (m, b) = setup(DFF);
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        let proved = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 1, true),
        );
        let violated = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 1, false),
        );
        let mut session = CheckSession::new(b.clone());
        for prop in [&proved, &violated] {
            assert_eq!(
                session.k_induction(prop, 4, None).unwrap(),
                k_induction(&b, prop, 4)
            );
            assert_eq!(session.bmc(prop, 4, None).unwrap(), bmc(&b, prop, 4));
        }
        let stats = session.stats();
        assert!(stats.sat_queries > 0);
        assert_eq!(stats.unrollers_built, 2, "one base + one step unroller");
        assert!(
            stats.frames_reused > stats.frames_encoded,
            "the second property should ride the first one's unrolling: {stats:?}"
        );
    }

    #[test]
    fn the_query_span_counts_what_its_encoding_allocated() {
        // `q` counts in twos from 0, so `q[0]` stays low — a fact no
        // single step from a free state sees.
        let (m, b) = setup(
            "module even(input clk, input rst, input d, output reg [1:0] q);
               always @(posedge clk)
                 if (rst) q <= 0;
                 else if (d) q <= q + 2'd2;
             endmodule",
        );
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        // Never violated and not provable at k ≤ 1, so every query of
        // each call below is asked.
        let low = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 0, false),
        );
        // Two consequents neither of which is a constant at reset.
        let stays_high = WindowProperty {
            antecedent: vec![BitAtom::new(d, 0, 0, true)],
            consequents: vec![BitAtom::new(q, 1, 1, true), BitAtom::new(q, 1, 2, true)],
            kind: ConsequentKind::All,
        };
        let mut session = CheckSession::new(b);
        let sink = gm_trace::TraceSink::new();
        {
            let _guard = gm_trace::push_thread_sink(sink.clone());
            session.bmc(&low, 2, None).unwrap();
            session.bmc(&stays_high, 0, None).unwrap();
            let unknown = session.k_induction(&low, 1, None).unwrap();
            assert_eq!(unknown, CheckResult::Unknown { bound: 1 });
        }
        let new_vars: Vec<u64> = (sink.events().iter())
            .filter(|e| e.name == "mc.sat_query")
            .map(
                |e| match e.args.iter().find(|(key, _)| *key == "new_vars") {
                    Some((_, gm_trace::ArgValue::U64(n))) => *n,
                    other => panic!("new_vars is {other:?}"),
                },
            )
            .collect();
        // Three `Any` base queries: nothing. The `All` one: its
        // consequent conjunction. Then base k = 0, step k = 0 (the atoms
        // alone), base k = 1, and step k = 1: `holds(0)`'s one AND gate.
        assert_eq!(new_vars, [0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn repeated_query_encodes_no_new_frames() {
        let (m, b) = setup(DFF);
        let d = m.require("d").unwrap();
        let q = m.require("q").unwrap();
        let prop = WindowProperty::implication(
            vec![BitAtom::new(d, 0, 0, true)],
            BitAtom::new(q, 0, 1, true),
        );
        let mut session = CheckSession::new(b);
        let first = session.k_induction(&prop, 4, None).unwrap();
        let after_first = session.stats();
        let second = session.k_induction(&prop, 4, None).unwrap();
        let delta = session.stats() - after_first;
        assert_eq!(first, second);
        assert_eq!(delta.frames_encoded, 0, "everything already unrolled");
        assert_eq!(delta.unrollers_built, 0);
        assert!(delta.frames_reused > 0);
    }
}
