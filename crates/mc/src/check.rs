//! The top-level checker: one blasted design, many property queries.
//!
//! The GoldMine refinement loop checks hundreds of candidate assertions
//! against the same design, so the [`Checker`] bit-blasts once, lazily
//! computes the reachable state set once, and keeps a persistent
//! [`CheckSession`] (shared unrollings, retained learnt clauses) for
//! the SAT engines. It keeps no verdicts: the refinement engine never
//! asks a decided property again, so a batch costs only its own
//! decisions. Properties — one [`WindowProperty`] type, whether a
//! single-consequent implication or a temporal window — are decided as
//! whole worklists by [`Checker::check_batch`] (the temporal pass's
//! worklists by [`Checker::check_temporal_batch`], the same batch under
//! its own span name), which decides each distinct property of a batch
//! once and which multi-core hosts can split across a pool of
//! persistent shard sessions ([`Checker::with_shards`]).
//!
//! ## Determinism contract
//!
//! A run of the same calls under the same configuration is reproducible
//! in full: every [`CheckResult`] and the [`SessionStats`]. The results
//! — counterexample traces included — are moreover the same for every
//! batch position and every shard count; the
//! shard count only decides which session's counters the frame and
//! solver work lands in. This is by construction: which engine answers
//! — the *source* of a verdict, and with it the shape of its trace — is
//! a function of the design, the limits and the backend, never of the
//! property's consequents or of what was decided before it;
//! explicit-state verdicts carry the direct walk's first violation; SAT
//! verdicts are solver-state-independent (a session asks scoped queries
//! and reads no model), and a violated one's trace is the scan up to
//! its violating start replayed on a copy of a pristine unrolling
//! prefix, whose model depends only on the design, the property and
//! that start — whichever thread replays it; and a sharded worklist is
//! dealt onto its sessions in a fixed round-robin and merged back in
//! worklist order.

use crate::blast::{blast, Blasted};
use crate::bmc::PristinePrefixes;
use crate::error::McError;
use crate::explicit::{ExplicitLimits, ReachableStates};
use crate::prop::{CheckResult, WindowProperty};
use crate::session::{cancel_requested, CheckSession, Decision, SessionStats};
use extract::{Extractions, Handoff};
use gm_cache::FxMap;
use gm_rtl::{elaborate, Elab, Module};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Which engine decides a property, whatever its consequents: no backend
/// routes by consequent count or [`crate::ConsequentKind`].
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Backend {
    /// Explicit-state when the design fits the limits, otherwise BMC
    /// followed by k-induction. The default.
    #[default]
    Auto,
    /// Explicit-state reachability only (errors if over limits; never
    /// runs a SAT query, never answers `Unknown`).
    Explicit,
    /// Bounded model checking only — can only refute, never prove.
    Bmc {
        /// Maximum window start frame.
        bound: u32,
    },
    /// k-induction (with its built-in BMC base case).
    KInduction {
        /// Maximum induction depth.
        max_k: u32,
    },
}

/// What a worker needs from the [`Checker`] to decide one property,
/// besides the design and a session: the engine configuration.
#[derive(Clone, Debug)]
struct DecideParams {
    backend: Backend,
    limits: ExplicitLimits,
    bmc_bound: u32,
    kind_max_k: u32,
    /// Cooperative cancel token, polled between SAT queries inside the
    /// unrolling loops. A raised token turns the decision into
    /// [`McError::Cancelled`].
    cancel: Option<Arc<AtomicBool>>,
}

/// A reusable model checker for one module.
///
/// The checker owns its blasted design (an `Arc` its sessions share),
/// so it is `Send` and free of borrow lifetimes — sharded batches move
/// sessions into scoped worker threads.
///
/// # Examples
///
/// ```
/// use gm_mc::{Checker, BitAtom, WindowProperty, CheckResult};
///
/// let m = gm_rtl::parse_verilog(
///     "module m(input clk, input rst, input d, output reg q);
///        always @(posedge clk) if (rst) q <= 0; else q <= d;
///      endmodule")?;
/// let mut checker = Checker::new(&m)?;
/// let d = m.require("d")?;
/// let q = m.require("q")?;
/// let prop = WindowProperty::implication(
///     vec![BitAtom::new(d, 0, 0, true)],
///     BitAtom::new(q, 0, 1, true),
/// );
/// let single = checker.check_batch(std::slice::from_ref(&prop))?;
/// assert_eq!(single, [CheckResult::Proved]);
/// // Batches reuse the same session and decide an in-batch duplicate
/// // once: one decision above, one more here, and one duplicate.
/// let batch = checker.check_batch(&[prop.clone(), prop.clone()])?;
/// assert!(batch.iter().all(|r| r.is_proved()));
/// let stats = checker.session_stats();
/// assert_eq!((stats.engine_queries(), stats.memo_hits), (2, 1));
/// // Sharded batches agree bit-for-bit with the single session.
/// let mut sharded = Checker::new(&m)?.with_shards(4);
/// assert_eq!(sharded.check_batch(&[prop])?, batch[..1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Checker {
    blasted: Arc<Blasted>,
    backend: Backend,
    limits: ExplicitLimits,
    bmc_bound: u32,
    kind_max_k: u32,
    /// How many sessions a batch is dealt onto (see
    /// [`Checker::with_shards`]); 1 = the main session, inline.
    shards: usize,
    reach: Option<Arc<ReachableStates>>,
    reach_failed: bool,
    /// Per-depth pristine unrollings every canonical counterexample
    /// extraction clones (see [`PristinePrefixes`]): a design artifact
    /// like `reach`, handed to every session this checker builds and
    /// kept across [`Checker::reset_for_reuse`].
    prefixes: Arc<PristinePrefixes>,
    session: CheckSession,
    /// Persistent per-shard sessions, grown on demand by sharded
    /// batches and reused across them.
    shard_sessions: Vec<CheckSession>,
    /// Cooperative cancel token (see [`Checker::set_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
    /// Extractions the deciding thread of an inline batch made itself,
    /// over the checker's life: the batch span's `stolen` arg.
    stolen: u64,
}

impl Checker {
    /// Elaborates and bit-blasts `module` with the default backend.
    ///
    /// # Errors
    ///
    /// Propagates elaboration/blasting failures.
    pub fn new(module: &Module) -> Result<Self, McError> {
        let elab = elaborate(module)?;
        Checker::from_elab(module, &elab)
    }

    /// Bit-blasts an already-elaborated module — callers that hold an
    /// [`Elab`] (like the refinement engine) avoid elaborating twice.
    ///
    /// # Errors
    ///
    /// Propagates blasting failures.
    pub fn from_elab(module: &Module, elab: &Elab) -> Result<Self, McError> {
        let blasted = Arc::new(blast(module, elab)?);
        let prefixes = Arc::new(PristinePrefixes::new(blasted.clone()));
        Ok(Checker {
            session: CheckSession::sharing(prefixes.clone()),
            prefixes,
            blasted,
            backend: Backend::Auto,
            limits: ExplicitLimits::default(),
            bmc_bound: 32,
            kind_max_k: 16,
            shards: 1,
            reach: None,
            reach_failed: false,
            shard_sessions: Vec::new(),
            cancel: None,
            stolen: 0,
        })
    }

    /// Overrides the backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the explicit-engine limits. When they change, drops any
    /// reachable set computed under the old limits.
    pub fn with_limits(mut self, limits: ExplicitLimits) -> Self {
        if self.limits != limits {
            self.limits = limits;
            self.reach = None;
            self.reach_failed = false;
        }
        self
    }

    /// Sets the BMC bound used by the `Auto` fallback.
    pub fn with_bmc_bound(mut self, bound: u32) -> Self {
        self.bmc_bound = bound;
        self
    }

    /// Sets the maximum induction depth used by the `Auto` fallback.
    pub fn with_kind_depth(mut self, max_k: u32) -> Self {
        self.kind_max_k = max_k;
        self
    }

    /// Sets how many persistent sessions [`Checker::check_batch`] deals
    /// a worklist onto, one scoped worker thread each (clamped to at
    /// least 1). With 1, the default, a batch runs inline on the main
    /// session. Results never depend on the count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Approximate resident size of the checker's persistent state:
    /// every session's unrollings, and the design artifacts that
    /// outlive [`Checker::reset_for_reuse`] — the reachable set with
    /// the explicit-engine tables built on it, and the pristine
    /// unrolling prefixes canonical counterexamples are cloned from.
    /// Cache-accounting input for long-lived services.
    pub fn approx_bytes(&self) -> usize {
        self.reach.as_ref().map_or(0, |r| r.approx_bytes())
            + self.prefixes.approx_bytes()
            + self.session.approx_bytes()
            + self
                .shard_sessions
                .iter()
                .map(CheckSession::approx_bytes)
                .sum::<usize>()
    }

    /// Resets the per-run verification state — sessions and their stats —
    /// while keeping the expensive design artifacts (bit-blasted AIG,
    /// reachable set, explicit-engine tables, pristine unrolling
    /// prefixes) warm. A checker recycled
    /// through this produces *byte-identical* run artifacts to a fresh
    /// [`Checker::new`], because everything it keeps is
    /// stats-invisible; a design cache that parks checkers between
    /// closure requests calls this before reuse.
    pub fn reset_for_reuse(&mut self) {
        self.session = CheckSession::sharing(self.prefixes.clone());
        self.shard_sessions.clear();
        self.cancel = None;
    }

    /// Installs (or with `None` clears) a cooperative cancel token.
    ///
    /// While the token is raised, every in-flight and future decision —
    /// inline batch items, every shard worker — returns
    /// [`McError::Cancelled`] at its next poll point: decision entry,
    /// and between SAT queries inside the BMC / k-induction unrolling
    /// loops. A cancelled decision leaves nothing behind, so re-checking
    /// after clearing the token decides the property normally. A parked
    /// checker keeps no stale token: [`Checker::reset_for_reuse`]
    /// clears it.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    /// The bit-blasted design.
    pub fn blasted(&self) -> &Blasted {
        &self.blasted
    }

    /// Cumulative statistics across the checker's verification sessions
    /// (the main session plus every shard session): queries by engine,
    /// in-batch duplicates, solver conflict/propagation work and frame
    /// reuse.
    pub fn session_stats(&self) -> SessionStats {
        self.shard_sessions
            .iter()
            .fold(self.session.stats(), |acc, s| acc + s.stats())
    }

    /// The number of persistent shard sessions built so far.
    pub fn shard_session_count(&self) -> usize {
        self.shard_sessions.len()
    }

    /// The number of reachable states, if explicit exploration ran.
    pub fn reachable_count(&mut self) -> Option<usize> {
        self.ensure_reach();
        self.reach.as_ref().map(|r| r.len())
    }

    fn ensure_reach(&mut self) {
        if self.reach.is_none() && !self.reach_failed {
            match ReachableStates::explore(&self.blasted, &self.limits) {
                Ok(r) => self.reach = Some(Arc::new(r)),
                Err(_) => self.reach_failed = true,
            }
        }
    }

    /// Builds the reachable set when the backend can use it.
    fn ensure_reach_for_backend(&mut self) {
        if matches!(self.backend, Backend::Auto | Backend::Explicit) {
            self.ensure_reach();
        }
    }

    fn params(&self) -> DecideParams {
        DecideParams {
            backend: self.backend,
            limits: self.limits,
            bmc_bound: self.bmc_bound,
            kind_max_k: self.kind_max_k,
            cancel: self.cancel.clone(),
        }
    }

    /// Decides a whole batch of properties, in input order.
    ///
    /// Every property takes the same route, whatever its consequents:
    /// [`Backend::Explicit`] and — on a design within the explicit
    /// limits — [`Backend::Auto`] decide it exactly by explicit-state
    /// reachability, whose violated verdicts carry the direct walk's
    /// first counterexample; [`Backend::Bmc`] / [`Backend::KInduction`]
    /// respect their configured bounds, and `Auto` over the limits runs
    /// BMC then k-induction. Violated SAT verdicts carry the canonical
    /// counterexample.
    ///
    /// Each distinct property of the batch is decided once: the batch
    /// is deduped first, and every later position of a property takes
    /// the verdict of its first, counted in
    /// [`SessionStats::memo_hits`]. Nothing carries over to the next
    /// batch — a repeated batch is decided again, identically. Each
    /// session builds at most one unrolling per (backend, bound)
    /// configuration. Under `Auto`, a design within the explicit limits
    /// has every property decided against the one shared reachable
    /// set; on any other, they share the session's BMC / k-induction
    /// unrollings.
    ///
    /// With [`Checker::with_shards`] at 1, the default, the distinct
    /// properties are decided inline on the main session, and on a
    /// design with latches the traces of its violated SAT verdicts are
    /// extracted on a helper thread while it decides the next ones
    /// (spawned at the batch's second violated SAT verdict, so a batch
    /// the explicit engine decides whole starts no thread); once the
    /// decisions run out, the deciding thread extracts what the helper
    /// has not yet begun, beside it. Above 1 they
    /// are dealt round-robin onto that many persistent shard sessions
    /// (all over the same `Arc<Blasted>` — blasting still happens once
    /// per checker), one scoped worker thread each. Results are
    /// scattered back in worklist order, so the returned vector —
    /// verdicts *and* counterexample traces — is identical for every
    /// shard count. Shard sessions persist across calls, keeping their
    /// unrollings and learnt clauses like the main session does.
    ///
    /// # Errors
    ///
    /// Fails if a forced backend exceeds its limits (`Auto` degrades to
    /// the SAT engines instead of failing), and with
    /// [`McError::Cancelled`] when the cooperative cancel token is
    /// raised mid-decision — on the first property that errors in input
    /// order, whatever the shard count.
    pub fn check_batch(&mut self, props: &[WindowProperty]) -> Result<Vec<CheckResult>, McError> {
        self.batch("mc.check_batch", props)
    }

    /// [`Checker::check_batch`] recorded under the `mc.check_temporal_batch`
    /// span, so a trace tells the temporal-template pass's checking time
    /// from the combinational pass's.
    ///
    /// # Errors
    ///
    /// As [`Checker::check_batch`].
    pub fn check_temporal_batch(
        &mut self,
        props: &[WindowProperty],
    ) -> Result<Vec<CheckResult>, McError> {
        self.batch("mc.check_temporal_batch", props)
    }

    /// Decides `props` under a span named `name`.
    fn batch(
        &mut self,
        name: &'static str,
        props: &[WindowProperty],
    ) -> Result<Vec<CheckResult>, McError> {
        let mut span = gm_trace::span("mc", name);
        span.arg("props", props.len());
        let before = span
            .is_active()
            .then(|| (self.session_stats(), self.stolen));
        let results = self.decide_batch(props);
        if let Some((before, stolen)) = before {
            // Who answered: an earlier position of the batch (the
            // `memo` arg counts in-batch duplicates), the explicit
            // engine, or SAT; and how many traces the deciding thread
            // extracted itself rather than its helper.
            let answered = self.session_stats() - before;
            span.arg("memo", answered.memo_hits);
            span.arg("explicit", answered.explicit_queries);
            span.arg("sat", answered.sat_decided);
            span.arg("stolen", self.stolen - stolen);
        }
        results
    }

    /// The batch itself: dedupe, decide each distinct property once
    /// (inline, with violated SAT verdicts' traces extracted beside the
    /// search, or on the shard pool), scatter the verdicts back over the
    /// batch.
    fn decide_batch(&mut self, props: &[WindowProperty]) -> Result<Vec<CheckResult>, McError> {
        // Dedupe in first-occurrence order: `first[u]` is where the
        // `u`-th distinct property first occurs, `slot[i]` which
        // distinct property position `i` holds.
        let mut index_of: FxMap<&WindowProperty, usize> =
            FxMap::with_capacity_and_hasher(props.len(), Default::default());
        let mut first: Vec<usize> = Vec::with_capacity(props.len());
        let slot: Vec<usize> = (props.iter().enumerate())
            .map(|(i, prop)| {
                *index_of.entry(prop).or_insert_with(|| {
                    first.push(i);
                    first.len() - 1
                })
            })
            .collect();
        if first.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_reach_for_backend();
        let params = self.params();
        let decided = if self.shards == 1 {
            self.decide_on_main(&params, first.iter().map(|&i| &props[i]).collect())
        } else {
            self.decide_pooled(&params, first.iter().map(|&i| &props[i]).collect())
        };
        // Duplicates count as far as a walk in input order gets: up to
        // where the first property that failed first occurs.
        let stop = (decided.iter().position(Result::is_err)).map_or(props.len(), |u| first[u]);
        let duplicates = (0..stop).filter(|&i| first[slot[i]] != i).count();
        self.session.note_memo_hits(duplicates as u64);
        let decided = decided.into_iter().collect::<Result<Vec<_>, _>>()?;
        if decided.len() == props.len() {
            return Ok(decided);
        }
        Ok(slot.into_iter().map(|u| decided[u].clone()).collect())
    }

    /// Decides `unique` on the main session, in `unique` order, up to
    /// the first property that fails. On a design with latches the
    /// session's search hands each violated SAT verdict's start to
    /// [`Extractions`], which extracts the traces on a helper thread
    /// while the session decides the next properties, and once the
    /// decisions run out also on this thread, newest first (see
    /// [`extract`]). They come back in hand-over order, the order of
    /// the violated verdicts here. On a latch-free design a
    /// violation's scan is the one window at reset (see
    /// `last_scan_start`), about one query, and the session extracts it
    /// at once, as a shard worker does. Either way the traces are the
    /// canonical scan's.
    fn decide_on_main(
        &mut self,
        params: &DecideParams,
        unique: Vec<&WindowProperty>,
    ) -> Vec<Result<CheckResult, McError>> {
        let reach = self.reach.as_deref();
        let (session, blasted) = (&mut self.session, &*self.blasted);
        let stolen = &mut self.stolen;
        let beside = blasted.aig.latch_count() > 0;
        let handoff = Handoff::default();
        std::thread::scope(|scope| {
            let mut extractions = Extractions::new(scope, &handoff, params.cancel.as_deref());
            let mut decided = Vec::with_capacity(unique.len());
            for &prop in &unique {
                let res = decide(reach, params, session, prop).map(|d| match d {
                    Decision::Refuted { start } if beside => {
                        extractions.push(session, prop, start);
                        d
                    }
                    d => Decision::Final(session.resolve(prop, d)),
                });
                let failed = res.is_err();
                decided.push(res);
                if failed {
                    break;
                }
            }
            let (mut extractions, by_this_thread) = extractions.finish(session);
            *stolen += by_this_thread;
            (decided.into_iter().zip(unique))
                .map(|(res, prop)| match res? {
                    Decision::Final(res) => Ok(res),
                    Decision::Refuted { start } => {
                        let extraction = (extractions.next())
                            .filter(|e| e.is_of(prop, start))
                            .expect("every violated verdict was handed over, in order");
                        // A raised token dropped it: no partial verdict.
                        (extraction.into_trace())
                            .map(CheckResult::Violated)
                            .ok_or(McError::Cancelled)
                    }
                })
                .collect()
        })
    }

    /// Decides `unique` on the shard sessions, in `unique` order.
    /// Properties are dealt round-robin; each *active* shard's session
    /// moves into a scoped worker and comes back when the worker joins.
    /// Sessions that would receive no items — shard indices past the
    /// worklist length, or pool entries beyond `shards` left over from
    /// a wider earlier batch — skip the worker round-trip entirely (they
    /// rejoin the pool after the active ones, a deterministic order).
    fn decide_pooled(
        &mut self,
        params: &DecideParams,
        unique: Vec<&WindowProperty>,
    ) -> Vec<Result<CheckResult, McError>> {
        let shards = self.shards;
        while self.shard_sessions.len() < shards {
            self.shard_sessions
                .push(CheckSession::sharing(self.prefixes.clone()));
        }
        let mut decided: Vec<Option<Result<CheckResult, McError>>> = vec![None; unique.len()];
        let mut idle: Vec<CheckSession> = self.shard_sessions.drain(..).collect();
        let mut work: Vec<(CheckSession, Vec<(usize, &WindowProperty)>)> = (idle
            .drain(..shards.min(unique.len())))
        .map(|s| (s, Vec::new()))
        .collect();
        for (u, prop) in unique.into_iter().enumerate() {
            work[u % shards].1.push((u, prop));
        }
        let reach = self.reach.as_deref();
        let sink = gm_trace::thread_sink();
        let joined: Vec<ShardYield> = std::thread::scope(|scope| {
            let handles: Vec<_> = (work.into_iter())
                .map(|(mut session, items)| {
                    let sink = sink.clone();
                    scope.spawn(move || {
                        let _sink = sink.map(gm_trace::push_thread_sink);
                        let results = (items.into_iter())
                            .map(|(u, prop)| {
                                let res = decide(reach, params, &mut session, prop);
                                (u, res.map(|d| session.resolve(prop, d)))
                            })
                            .collect();
                        (session, results)
                    })
                })
                .collect();
            (handles.into_iter())
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        for (session, items) in joined {
            self.shard_sessions.push(session);
            for (u, res) in items {
                decided[u] = Some(res);
            }
        }
        self.shard_sessions.append(&mut idle);
        (decided.into_iter())
            .map(|res| res.expect("every distinct property decided"))
            .collect()
    }
}

/// Decides one property against one session — the single source of
/// truth shared by the inline batch and every shard worker. Which
/// engine answers depends on the backend, the design and the limits —
/// never on the property's consequents. A violated SAT verdict comes
/// back as its window start, [`Decision::Refuted`]: the caller extracts
/// its trace, a shard worker on its own thread
/// ([`CheckSession::resolve`]), the inline batch beside the search.
fn decide(
    reach: Option<&ReachableStates>,
    params: &DecideParams,
    session: &mut CheckSession,
    prop: &WindowProperty,
) -> Result<Decision, McError> {
    let cancel = params.cancel.as_deref();
    if cancel_requested(cancel) {
        return Err(McError::Cancelled);
    }
    // Every backend decides through here, so this one poll site gives
    // the `sat.stall` / `sat.flaky` faults per-query granularity on the
    // explicit path too (the SAT sessions also evaluate them per window
    // start / induction depth).
    if let Some(fault) = crate::session::injected_fault(cancel) {
        return Err(fault);
    }
    let explicit = |session: &mut CheckSession| {
        let reach = reach.ok_or(McError::StateSpaceExceeded {
            limit: params.limits.max_states,
        })?;
        session.explicit(reach, prop, &params.limits)
    };
    // The SAT engines run on the session's shared unrollings; one
    // property decision, however many queries it takes.
    match params.backend {
        Backend::Explicit => explicit(session).map(Decision::Final),
        Backend::Auto => {
            if let Ok(res) = explicit(session) {
                return Ok(Decision::Final(res));
            }
            // Over the explicit limits: BMC to refute, k-induction to
            // prove.
            session.note_sat_decision();
            match session.bmc_decision(prop, params.bmc_bound, cancel)? {
                refuted @ Decision::Refuted { .. } => Ok(refuted),
                _ => session.k_induction_decision(prop, params.kind_max_k, cancel),
            }
        }
        Backend::Bmc { bound } => {
            session.note_sat_decision();
            session.bmc_decision(prop, bound, cancel)
        }
        Backend::KInduction { max_k } => {
            session.note_sat_decision();
            session.k_induction_decision(prop, max_k, cancel)
        }
    }
}

/// What one shard worker hands back when it joins: its session (with
/// accumulated stats) and the decided results, tagged by worklist index.
type ShardYield = (CheckSession, Vec<(usize, Result<CheckResult, McError>)>);

mod extract;

#[cfg(test)]
mod prefix_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{BitAtom, ConsequentKind};
    use gm_rtl::parse_verilog;
    use std::slice::from_ref;

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

    #[test]
    fn auto_uses_explicit_and_agrees_with_sat_engines() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let req1 = m.require("req1").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        // A4 from the paper: req0@0 & !req1@1 |-> gnt0@2 — spurious
        // (the paper refines it further), let's see both engines refute it
        // or both prove its refinement.
        let spurious = WindowProperty::implication(
            vec![
                BitAtom::new(req0, 0, 0, true),
                BitAtom::new(req1, 0, 1, false),
            ],
            BitAtom::new(gnt0, 0, 2, true),
        );
        let mut auto = Checker::new(&m).unwrap();
        let auto_res = auto.check_batch(from_ref(&spurious)).unwrap();
        let mut sat = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::KInduction { max_k: 8 });
        let sat_res = sat.check_batch(from_ref(&spurious)).unwrap();
        assert!(matches!(auto_res[..], [CheckResult::Violated(_)]));
        assert!(matches!(sat_res[..], [CheckResult::Violated(_)]));

        // A7: req0@0 & req0@1 & !req1@1 |-> gnt0@2 — true.
        let a7 = WindowProperty::implication(
            vec![
                BitAtom::new(req0, 0, 0, true),
                BitAtom::new(req0, 0, 1, true),
                BitAtom::new(req1, 0, 1, false),
            ],
            BitAtom::new(gnt0, 0, 2, true),
        );
        assert_eq!(
            auto.check_batch(from_ref(&a7)).unwrap(),
            [CheckResult::Proved]
        );
    }

    #[test]
    fn the_explicit_backend_never_reaches_the_sat_engines() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let idle = |offset| BitAtom::new(req0, 0, offset, false);
        let no_grant = vec![
            BitAtom::new(gnt0, 0, 1, false),
            BitAtom::new(gnt0, 0, 2, false),
        ];
        let grant: Vec<BitAtom> = (no_grant.iter())
            .map(|a| BitAtom { value: true, ..*a })
            .collect();
        let temporal = |antecedent, consequents: &[BitAtom], kind| {
            WindowProperty::new(antecedent, consequents.to_vec(), kind)
        };
        // gnt0 rises only on req0: idle for two cycles keeps it low for
        // two, idle for one keeps it low for one; and a request is not
        // granted while port 1 holds it off.
        let props = [
            temporal(vec![idle(0), idle(1)], &no_grant, ConsequentKind::All),
            temporal(vec![idle(0)], &no_grant, ConsequentKind::All),
            temporal(vec![idle(0)], &no_grant, ConsequentKind::Any),
            temporal(
                vec![BitAtom::new(req0, 0, 0, true)],
                &grant,
                ConsequentKind::Any,
            ),
        ];
        let mut c = Checker::new(&m).unwrap().with_backend(Backend::Explicit);
        let results = c.check_batch(&props).unwrap();
        for (result, proved) in results.iter().zip([true, false, true, false]) {
            let violated = matches!(result, CheckResult::Violated(_));
            assert!(
                result.is_proved() == proved && violated != proved,
                "{results:?}"
            );
        }
        let stats = c.session_stats();
        assert_eq!(stats.explicit_queries, 4);
        assert_eq!((stats.sat_decided, stats.sat_queries), (0, 0), "{stats:?}");
        // Over its limits the backend fails as it does for a window.
        let mut tight = c.with_limits(ExplicitLimits {
            max_states: 2,
            ..ExplicitLimits::default()
        });
        assert_eq!(
            tight.check_batch(&props[..1]),
            Err(McError::StateSpaceExceeded { limit: 2 })
        );
        assert_eq!(tight.session_stats().sat_queries, 0);
    }

    #[test]
    fn the_batch_span_says_who_answered() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let window = WindowProperty::implication(
            vec![BitAtom::new(req0, 0, 0, false)],
            BitAtom::new(gnt0, 0, 1, false),
        );
        let stable = WindowProperty::new(
            window.antecedent.clone(),
            vec![window.consequents[0], BitAtom::new(gnt0, 0, 2, false)],
            ConsequentKind::All,
        );
        // (backend, shards) -> (memo, explicit, sat) of the temporal
        // batch below: its second `stable` is an in-batch duplicate, and
        // its single-consequent view is decided again — nothing carries
        // over from the window batch before it — under either dispatch.
        for (backend, shards, answered) in [
            (Backend::Auto, 1, [1, 2, 0]),
            (Backend::Auto, 2, [1, 2, 0]),
            (Backend::Bmc { bound: 4 }, 2, [1, 0, 2]),
        ] {
            let sink = gm_trace::TraceSink::new();
            {
                let _guard = gm_trace::push_thread_sink(sink.clone());
                let mut c = Checker::new(&m)
                    .unwrap()
                    .with_backend(backend)
                    .with_shards(shards);
                c.check_batch(from_ref(&window)).unwrap();
                let single = WindowProperty::new(
                    stable.antecedent.clone(),
                    window.consequents.clone(),
                    ConsequentKind::All,
                );
                c.check_temporal_batch(&[single, stable.clone(), stable.clone()])
                    .unwrap();
            }
            let events = sink.events();
            let batch = (events.iter())
                .find(|e| e.name == "mc.check_temporal_batch")
                .expect("the temporal batch span");
            let arg = |key: &str| match batch.args.iter().find(|(k, _)| *k == key) {
                Some((_, gm_trace::ArgValue::U64(n))) => *n,
                other => panic!("{key}: {other:?}"),
            };
            assert_eq!(arg("props"), 3);
            assert_eq!(
                [arg("memo"), arg("explicit"), arg("sat")],
                answered,
                "{backend:?}, {shards} shards"
            );
        }
    }

    #[test]
    fn reachable_count_is_cached() {
        let m = parse_verilog(ARBITER2).unwrap();
        let mut c = Checker::new(&m).unwrap();
        assert_eq!(c.reachable_count(), Some(3));
        assert_eq!(c.reachable_count(), Some(3));
    }

    #[test]
    fn bmc_backend_reports_unknown_for_true_properties() {
        let m = parse_verilog(ARBITER2).unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let mutex = WindowProperty::implication(
            vec![BitAtom::new(gnt0, 0, 0, true)],
            BitAtom::new(gnt1, 0, 0, false),
        );
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 8 });
        assert_eq!(
            c.check_batch(from_ref(&mutex)).unwrap(),
            [CheckResult::Unknown { bound: 8 }]
        );
    }

    #[test]
    fn from_elab_matches_new() {
        let m = parse_verilog(ARBITER2).unwrap();
        let elab = gm_rtl::elaborate(&m).unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let mutex = WindowProperty::implication(
            vec![BitAtom::new(gnt0, 0, 0, true)],
            BitAtom::new(gnt1, 0, 0, false),
        );
        let mut from_elab = Checker::from_elab(&m, &elab).unwrap();
        let mut fresh = Checker::new(&m).unwrap();
        assert_eq!(
            from_elab.check_batch(from_ref(&mutex)).unwrap(),
            fresh.check_batch(from_ref(&mutex)).unwrap()
        );
    }

    #[test]
    fn check_batch_memoizes_duplicates_and_repeats() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let spurious = WindowProperty::implication(
            vec![BitAtom::new(req0, 0, 0, false)],
            BitAtom::new(gnt0, 0, 1, true),
        );
        let a2 = WindowProperty::implication(
            vec![
                BitAtom::new(req0, 0, 0, false),
                BitAtom::new(req0, 0, 1, false),
            ],
            BitAtom::new(gnt0, 0, 2, false),
        );
        // The batch contains a duplicate: only two distinct decisions.
        let batch = vec![spurious.clone(), a2.clone(), spurious.clone()];
        let mut c = Checker::new(&m).unwrap();
        let first = c.check_batch(&batch).unwrap();
        assert!(matches!(first[0], CheckResult::Violated(_)));
        assert_eq!(first[1], CheckResult::Proved);
        assert_eq!(first[0], first[2]);
        let after_first = c.session_stats();
        assert_eq!(
            (after_first.engine_queries(), after_first.memo_hits),
            (2, 1),
            "the duplicate takes its first occurrence's verdict"
        );
        // The identical batch again: decided again, identically.
        let second = c.check_batch(&batch).unwrap();
        assert_eq!(first, second);
        let again = c.session_stats() - after_first;
        assert_eq!((again.engine_queries(), again.memo_hits), (2, 1));
    }

    #[test]
    fn a_single_consequent_is_one_property_whichever_template_spelled_it() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        // A combinational candidate, the same atoms spelled as a `Next`
        // template's `All` singleton, and a stability window.
        let idle = vec![BitAtom::new(req0, 0, 0, false)];
        let grant = BitAtom::new(gnt0, 0, 1, true);
        let implication = WindowProperty::implication(idle.clone(), grant);
        let next = WindowProperty::new(idle.clone(), vec![grant], ConsequentKind::All);
        let stable = WindowProperty::new(
            idle,
            vec![grant, BitAtom::new(gnt0, 0, 2, true)],
            ConsequentKind::All,
        );
        for backend in [Backend::Auto, Backend::Bmc { bound: 4 }] {
            let mut c = Checker::new(&m).unwrap().with_backend(backend);
            let results = c.check_batch(&[implication.clone(), next.clone(), stable.clone()]);
            let results = results.unwrap();
            assert!(
                matches!(results[0], CheckResult::Violated(_)),
                "{backend:?}"
            );
            assert_eq!(results[0], results[1], "{backend:?}: verdict and trace");
            let stats = c.session_stats();
            assert_eq!(
                (stats.engine_queries(), stats.memo_hits),
                (2, 1),
                "{backend:?}: the two singletons are one decision"
            );
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_including_memo_and_stats() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let spurious = WindowProperty::implication(
            vec![BitAtom::new(req0, 0, 0, false)],
            BitAtom::new(gnt0, 0, 1, true),
        );
        let a2 = WindowProperty::implication(
            vec![
                BitAtom::new(req0, 0, 0, false),
                BitAtom::new(req0, 0, 1, false),
            ],
            BitAtom::new(gnt0, 0, 2, false),
        );
        let batch = vec![spurious.clone(), a2.clone(), spurious.clone(), a2];
        let mut plain = Checker::new(&m).unwrap();
        let sequential = plain.check_batch(&batch).unwrap();
        for shards in [1, 2, 3, 8] {
            let mut sharded = Checker::new(&m).unwrap().with_shards(shards);
            let res = sharded.check_batch(&batch).unwrap();
            assert_eq!(res, sequential, "{shards} shards diverged");
            assert_eq!(
                sharded.session_stats().memo_hits,
                plain.session_stats().memo_hits,
                "{shards} shards count duplicates differently"
            );
            assert_eq!(
                sharded.session_stats().engine_queries(),
                plain.session_stats().engine_queries(),
            );
            // One shard is the main session, inline: no pool.
            let pool = if shards == 1 { 0 } else { shards };
            assert_eq!(sharded.shard_session_count(), pool);
            // A repeated sharded batch is decided again, identically.
            let again = sharded.check_batch(&batch).unwrap();
            assert_eq!(again, sequential);
        }
    }

    #[test]
    fn approx_bytes_counts_the_reachable_set_and_its_tables() {
        let m = gm_designs::fetch_stage();
        let stall = m.require("stall_in").unwrap();
        let valid = m.require("valid").unwrap();
        let prop = WindowProperty::implication(
            vec![BitAtom::new(stall, 0, 0, true)],
            BitAtom::new(valid, 0, 1, true),
        );
        let mut c = Checker::new(&m).unwrap();
        let cold = c.approx_bytes();
        c.check_batch(from_ref(&prop)).unwrap();
        assert_eq!(c.session_stats().explicit_queries, 1);
        let states = c.reachable_count().unwrap();
        let successor_table = 4 * states * (1usize << c.blasted().aig.input_count());
        assert!(
            c.approx_bytes() >= cold + successor_table,
            "{} -> {} with a {successor_table}-byte successor table",
            cold,
            c.approx_bytes()
        );
        // What a parked checker keeps warm is what it is billed for.
        c.reset_for_reuse();
        assert!(c.approx_bytes() >= successor_table);
    }

    #[test]
    fn approx_bytes_counts_the_explicit_scratch() {
        let m = gm_designs::fetch_stage();
        let stall = m.require("stall_in").unwrap();
        let valid = m.require("valid").unwrap();
        let at = |offset| {
            WindowProperty::implication(
                vec![BitAtom::new(stall, 0, 0, true)],
                BitAtom::new(valid, 0, offset, true),
            )
        };
        let mut c = Checker::new(&m).unwrap();
        assert_eq!(c.session.approx_bytes(), 0, "no unrolling, no scratch");
        c.check_batch(&[at(1)]).unwrap();
        assert_eq!(c.session_stats().explicit_queries, 1);
        // A depth-1 window: two `done` sets of a word per 64 pairs,
        // back to back, and a live-state vector of a bit per state.
        let states = c.reachable_count().unwrap();
        let words = (states << c.blasted().aig.input_count()).div_ceil(64);
        let scratch = c.session.approx_bytes();
        assert!(
            scratch >= 8 * (2 * words + states.div_ceil(64)),
            "{scratch} bytes for {words}-word sets"
        );
        // The checker bills it next to the reachable set and its tables.
        let reach = c.reach.as_ref().unwrap().approx_bytes();
        assert!(c.approx_bytes() >= reach + scratch);
        // A query of the same shape reuses it; a deeper one grows it.
        c.check_batch(&[at(1)]).unwrap();
        assert_eq!(c.session.approx_bytes(), scratch);
        c.check_batch(&[at(3)]).unwrap();
        assert!(c.session.approx_bytes() >= scratch + 8 * 2 * words);
        // A recycled checker's sessions start without one.
        c.reset_for_reuse();
        assert_eq!(c.session.approx_bytes(), 0);
    }

    #[test]
    fn approx_bytes_counts_the_solver_and_the_kept_prefix() {
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let done = m.require("done").unwrap();
        // go@0 |-> done@1: refuted at reset, so the session unrolls two
        // frames and one depth-1 prefix is kept.
        let prop = WindowProperty::implication(
            vec![BitAtom::new(go, 0, 0, true)],
            BitAtom::new(done, 0, 1, true),
        );
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 0 });
        let cold = c.approx_bytes();
        assert!(matches!(
            c.check_batch(from_ref(&prop)).unwrap()[..],
            [CheckResult::Violated(_)]
        ));
        // Two frames of b18_lite in the clause arena alone: a header
        // word per clause and, per encoded AND gate, two binary clauses
        // and a ternary one.
        let mut two_frames = crate::Unroller::new(Arc::new(c.blasted().clone()), false);
        two_frames.ensure_frame(1);
        let clauses = two_frames.solver().num_clauses();
        let arena = 4 * (clauses + clauses / 3 * 7);
        assert!(clauses > 0 && clauses.is_multiple_of(3), "{clauses}");
        // Billed twice: the session's unrolling and the kept prefix.
        assert!(
            c.approx_bytes() >= cold + 2 * arena,
            "{cold} -> {} with {arena}-byte arenas",
            c.approx_bytes()
        );
        // What a parked checker keeps warm is what it is billed for.
        c.reset_for_reuse();
        assert!(c.approx_bytes() >= arena);
        assert!(c.approx_bytes() >= two_frames.approx_bytes());
        // Outside its solver, an unrolling nobody queried is its frame
        // literals, its AND cache — whose capacity is that of any map
        // that took as many entries — and a gate-table row (two
        // fan-ins, one walk stamp) per variable.
        let outside = |u: &mut crate::Unroller| u.approx_bytes() - u.solver().approx_bytes();
        let mut as_many = gm_cache::FxMap::default();
        as_many.extend((0..clauses / 3).map(|gate| (gate, ())));
        let frame_lits = 4 * 2 * c.blasted().aig.len();
        let rows = 12 * two_frames.solver().num_vars();
        assert!(
            outside(&mut two_frames) >= frame_lits + 13 * as_many.capacity() + rows,
            "{} with {rows} bytes of gate rows",
            outside(&mut two_frames)
        );
        // A scoped query leaves its cone behind as scratch.
        let v = two_frames.violation_lit(0, &prop);
        let before = outside(&mut two_frames);
        two_frames.solve_scoped(&[v]);
        let cone = 4 * two_frames.scope_len();
        assert!(cone > 0 && outside(&mut two_frames) >= before + cone);
    }

    #[test]
    fn approx_bytes_counts_the_extraction_scratch() {
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let done = m.require("done").unwrap();
        // Two depth-1 windows over the same frames: one that holds
        // (its consequent is an antecedent atom) and go@0 |-> done@1,
        // refuted at reset.
        let holds = WindowProperty::implication(
            vec![BitAtom::new(go, 0, 0, true), BitAtom::new(done, 0, 1, true)],
            BitAtom::new(done, 0, 1, true),
        );
        let violated = WindowProperty::implication(
            vec![BitAtom::new(go, 0, 0, true)],
            BitAtom::new(done, 0, 1, true),
        );
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 0 });
        assert!(matches!(
            c.check_batch(from_ref(&holds)).unwrap()[..],
            [CheckResult::Unknown { .. }]
        ));
        assert!(c.session.scratch().is_none(), "no extraction yet");
        let before = c.approx_bytes();
        assert!(matches!(
            c.check_batch(from_ref(&violated)).unwrap()[..],
            [CheckResult::Violated(_)]
        ));
        let scratch = (c.session.scratch())
            .expect("the first violated verdict builds the scratch")
            .approx_bytes();
        let prefixes = c.prefixes.approx_bytes();
        // The session bills its scratch next to its base unrolling.
        let base = c.session.base_unroller().approx_bytes();
        assert_eq!(c.session.approx_bytes(), base + scratch);
        // The scratch holds at least the clause arena of the prefix it
        // was refilled from: a header word and, per AND gate, two binary
        // clauses and a ternary one.
        let [(depth, prefix)] = &c.prefixes.snapshot()[..] else {
            panic!("one depth-1 prefix");
        };
        assert_eq!(*depth, 1);
        let clauses = crate::Unroller::clone(prefix).solver().num_clauses();
        let arena = 4 * (clauses + clauses / 3 * 7);
        assert!(scratch >= arena, "{scratch} < {arena}");
        // Both are billed on top of what the checker held before.
        assert!(
            c.approx_bytes() >= before + prefixes + scratch,
            "{before} -> {} with a {prefixes}-byte prefix and a {scratch}-byte scratch",
            c.approx_bytes()
        );
        // The next extraction refills the same scratch.
        c.check_batch(from_ref(&violated)).unwrap();
        assert_eq!(c.session_stats().cex_canonicalized, 2);
        assert_eq!(c.session.scratch().unwrap().approx_bytes(), scratch);
    }

    /// A batch with two violated verdicts starts the extraction helper
    /// on the session's second scratch, and the session bills both.
    #[test]
    fn approx_bytes_counts_the_helper_scratch() {
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let sel = m.require("sel").unwrap();
        let done = m.require("done").unwrap();
        let props = [
            WindowProperty::implication(
                vec![BitAtom::new(go, 0, 0, true)],
                BitAtom::new(done, 0, 1, true),
            ),
            WindowProperty::implication(
                vec![BitAtom::new(go, 0, 0, true)],
                BitAtom::new(sel, 0, 0, true),
            ),
        ];
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 0 });
        let results = c.check_batch(&props).unwrap();
        assert!(results
            .iter()
            .all(|r| matches!(r, CheckResult::Violated(_))));
        assert_eq!(c.session_stats().cex_canonicalized, 2);
        let helper = (c.session.helper_scratch())
            .expect("the second violated verdict starts the helper")
            .approx_bytes();
        // The deciding thread's own scratch exists when it extracted.
        let own = c.session.scratch().map_or(0, crate::Unroller::approx_bytes);
        let base = c.session.base_unroller().approx_bytes();
        assert!(helper > 0);
        assert_eq!(c.session.approx_bytes(), base + helper + own);
    }

    /// A prefix's AND-cache room follows the violating starts that
    /// occur, not the bound a caller allows: a property violated at
    /// reset costs the same under the largest bound as under bound 0,
    /// whether extracted on the helper or by a shard worker.
    #[test]
    fn a_huge_bound_costs_only_the_starts_scanned() {
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let done = m.require("done").unwrap();
        let prop = WindowProperty::implication(
            vec![BitAtom::new(go, 0, 0, true)],
            BitAtom::new(done, 0, 1, true),
        );
        let bytes = |backend: Backend, shards: usize| {
            let mut c = Checker::new(&m)
                .unwrap()
                .with_backend(backend)
                .with_shards(shards);
            assert!(matches!(
                c.check_batch(from_ref(&prop)).unwrap()[..],
                [CheckResult::Violated(_)]
            ));
            c.approx_bytes()
        };
        for shards in [1, 2] {
            assert_eq!(
                bytes(Backend::Bmc { bound: u32::MAX }, shards),
                bytes(Backend::Bmc { bound: 0 }, shards),
                "{shards} shards"
            );
            assert_eq!(
                bytes(Backend::KInduction { max_k: u32::MAX }, shards),
                bytes(Backend::KInduction { max_k: 0 }, shards),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn reset_for_reuse_replays_byte_identically() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let props = vec![
            WindowProperty::implication(
                vec![BitAtom::new(req0, 0, 0, false)],
                BitAtom::new(gnt0, 0, 1, true),
            ),
            WindowProperty::implication(
                vec![
                    BitAtom::new(req0, 0, 0, false),
                    BitAtom::new(req0, 0, 1, false),
                ],
                BitAtom::new(gnt0, 0, 2, false),
            ),
        ];
        let mut fresh = Checker::new(&m).unwrap();
        let expected = fresh.check_batch(&props).unwrap();
        let fresh_stats = fresh.session_stats();
        let mut recycled = Checker::new(&m).unwrap();
        recycled.check_batch(&props).unwrap();
        recycled.reset_for_reuse();
        assert_eq!(recycled.session_stats(), SessionStats::default());
        assert_eq!(recycled.check_batch(&props).unwrap(), expected);
        assert_eq!(
            recycled.session_stats(),
            fresh_stats,
            "a recycled checker must replay with fresh-checker stats"
        );
    }
}
