//! The top-level checker: one blasted design, many property queries.
//!
//! The GoldMine refinement loop checks hundreds of candidate assertions
//! against the same design, so the [`Checker`] bit-blasts once, lazily
//! computes the reachable state set once, keeps a persistent
//! [`CheckSession`] (shared unrollings, retained learnt clauses) for
//! the SAT engines, and memoizes every decided property so repeated
//! candidates across refinement iterations are free. Whole batches go
//! through [`Checker::check_batch`]; multi-core hosts can split a batch
//! across a pool of persistent shard sessions with
//! [`Checker::check_batch_sharded`], optionally racing the explicit and
//! SAT backends per property ([`Checker::with_racing`]).
//!
//! ## Determinism contract
//!
//! Every code path — single checks, batches, sharded batches with any
//! shard count — returns the same [`CheckResult`] for the same property
//! under the same configuration, *including* the counterexample trace:
//! verdicts are solver-state-independent, and violated SAT verdicts are
//! re-extracted on a clone of a pristine unrolling prefix, whose model
//! depends only on the design and the property (never on session
//! history or shard partition). Racing keeps the same verdicts and traces; only its
//! work-attribution stats depend on which engine answered first.

use crate::blast::{blast, Blasted};
use crate::bmc::{bmc_shared, canonical_cex, k_induction_shared, PristinePrefixes, UnrollProperty};
use crate::error::McError;
use crate::explicit::{explicit_check, ExplicitLimits, ReachableStates};
use crate::prop::{CheckResult, TemporalProperty, WindowProperty};
use crate::session::{cancel_requested, CheckSession, SessionStats};
use gm_cache::BoundedLru;
use gm_rtl::{elaborate, Elab, Module};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Which engine decides a property.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Backend {
    /// Explicit-state when the design fits the limits, otherwise BMC
    /// followed by k-induction. The default.
    #[default]
    Auto,
    /// Explicit-state reachability only (errors if over limits).
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
/// besides the design and a session: the engine configuration and the
/// shared pristine prefixes canonical counterexamples start from.
#[derive(Clone, Debug)]
struct DecideParams {
    prefixes: Arc<PristinePrefixes>,
    backend: Backend,
    limits: ExplicitLimits,
    bmc_bound: u32,
    kind_max_k: u32,
    racing: bool,
    /// Cooperative cancel token, polled between SAT queries inside the
    /// unrolling loops. A raised token turns the decision into
    /// [`McError::Cancelled`]; cancelled decisions are never memoized.
    cancel: Option<Arc<AtomicBool>>,
}

/// How a pooled batch deals its worklist onto the shard sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PoolDispatch {
    /// Static round-robin: shard `k` gets worklist items `k`, `k + n`,
    /// … — deterministic work attribution, but a skewed worklist can
    /// leave shards idle.
    RoundRobin,
    /// Work-conserving: every shard pulls the next undecided property
    /// from a shared cursor, so no shard idles while work remains.
    /// Results are still deterministic (verdicts and canonical traces
    /// are partition-independent); only the per-session work counters
    /// in [`SessionStats`] depend on the actual claim order.
    Stealing,
}

/// Size and churn counters for the property memo (see
/// [`Checker::memo_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Distinct properties currently memoized.
    pub entries: usize,
    /// Approximate resident bytes of the memo (atoms plus retained
    /// counterexample traces — an estimate, not an allocator figure).
    pub approx_bytes: usize,
    /// Decisions inserted over the checker's lifetime.
    pub insertions: u64,
    /// Entries evicted by the LRU bound (0 when unbounded).
    pub evictions: u64,
}

/// Approximate resident size of a memoized property key.
fn memo_prop_bytes(prop: &WindowProperty) -> usize {
    48 + prop.antecedent.len() * std::mem::size_of::<crate::prop::BitAtom>()
}

/// Approximate resident size of a memoized decision.
fn memo_result_bytes(result: &CheckResult) -> usize {
    match result {
        CheckResult::Violated(cex) => {
            48 + cex.inputs.iter().map(|v| 24 + v.len() * 40).sum::<usize>()
        }
        _ => 16,
    }
}

/// Approximate resident size of one memo entry.
fn memo_entry_bytes(prop: &WindowProperty, result: &CheckResult) -> usize {
    memo_prop_bytes(prop) + memo_result_bytes(result)
}

fn memo_temporal_prop_bytes(prop: &TemporalProperty) -> usize {
    64 + (prop.antecedent.len() + prop.consequents.len()) * std::mem::size_of::<crate::BitAtom>()
}

/// A reusable model checker for one module.
///
/// The checker owns its module (an `Arc` clone of the one it was built
/// from), so it is `Send` and free of borrow lifetimes — sharded
/// batches move sessions into worker threads, and racing dispatch hands
/// `Arc` handles to detached engine threads.
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
/// let prop = WindowProperty {
///     antecedent: vec![BitAtom::new(d, 0, 0, true)],
///     consequent: BitAtom::new(q, 0, 1, true),
/// };
/// assert_eq!(checker.check(&prop)?, CheckResult::Proved);
/// // Batches reuse the same session; repeats hit the memo.
/// let batch = checker.check_batch(&[prop.clone(), prop.clone()])?;
/// assert!(batch.iter().all(|r| r.is_proved()));
/// assert!(checker.session_stats().memo_hits >= 2);
/// // Sharded batches agree bit-for-bit with the single session.
/// assert_eq!(checker.check_batch_sharded(&[prop], 4)?, batch[..1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Checker {
    module: Arc<Module>,
    blasted: Arc<Blasted>,
    backend: Backend,
    limits: ExplicitLimits,
    bmc_bound: u32,
    kind_max_k: u32,
    racing: bool,
    reach: Option<Arc<ReachableStates>>,
    reach_failed: bool,
    /// Per-depth pristine unrollings every canonical counterexample
    /// extraction clones (see [`PristinePrefixes`]): a design artifact
    /// like `reach`, shared with shard workers and kept across
    /// [`Checker::reset_for_reuse`].
    prefixes: Arc<PristinePrefixes>,
    session: CheckSession,
    /// Persistent per-shard sessions, grown on demand by
    /// [`Checker::check_batch_sharded`] and reused across batches.
    shard_sessions: Vec<CheckSession>,
    /// The property memo: O(1) lookup, insert and LRU eviction (the
    /// shared [`gm_cache::BoundedLru`]); unbounded until
    /// [`Checker::with_memo_capacity`] sets a bound.
    memo: BoundedLru<WindowProperty, CheckResult>,
    /// Memo for multi-consequent temporal properties (single-consequent
    /// ones collapse to [`WindowProperty`] and share `memo`). Same
    /// lifecycle as `memo`: cleared together, bounded together.
    temporal_memo: BoundedLru<TemporalProperty, CheckResult>,
    memo_insertions: u64,
    memo_evictions: u64,
    /// Incrementally maintained byte estimate (see [`MemoStats`]),
    /// covering both memos.
    memo_bytes: usize,
    /// Cooperative cancel token (see [`Checker::set_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
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
        Ok(Checker {
            module: Arc::new(module.clone()),
            session: CheckSession::new(blasted.clone()),
            prefixes: Arc::new(PristinePrefixes::new(blasted.clone())),
            blasted,
            backend: Backend::Auto,
            limits: ExplicitLimits::default(),
            bmc_bound: 32,
            kind_max_k: 16,
            racing: false,
            reach: None,
            reach_failed: false,
            shard_sessions: Vec::new(),
            memo: BoundedLru::unbounded(),
            temporal_memo: BoundedLru::unbounded(),
            memo_insertions: 0,
            memo_evictions: 0,
            memo_bytes: 0,
            cancel: None,
        })
    }

    /// Overrides the backend. Clears the property memo when the backend
    /// actually changes (verdicts and `Unknown` bounds depend on the
    /// engine configuration); re-applying the current backend keeps the
    /// memo warm.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        if self.backend != backend {
            self.backend = backend;
            self.memo_clear();
        }
        self
    }

    /// Overrides the explicit-engine limits. When they change, clears
    /// the memo and any reachable set computed under the old limits.
    pub fn with_limits(mut self, limits: ExplicitLimits) -> Self {
        if self.limits != limits {
            self.limits = limits;
            self.memo_clear();
            self.reach = None;
            self.reach_failed = false;
        }
        self
    }

    /// Sets the BMC bound used by the `Auto` fallback.
    pub fn with_bmc_bound(mut self, bound: u32) -> Self {
        if self.bmc_bound != bound {
            self.bmc_bound = bound;
            self.memo_clear();
        }
        self
    }

    /// Sets the maximum induction depth used by the `Auto` fallback.
    pub fn with_kind_depth(mut self, max_k: u32) -> Self {
        if self.kind_max_k != max_k {
            self.kind_max_k = max_k;
            self.memo_clear();
        }
        self
    }

    /// Bounds the property memo to at most `entries` decisions,
    /// evicting least-recently-used ones past the bound — the knob that
    /// keeps very long sessions (a persistent closure service) from
    /// growing without bound. Applies immediately and to every later
    /// insertion; eviction only forgets — a re-checked evicted property
    /// is re-decided identically, so results never change.
    pub fn with_memo_capacity(mut self, entries: usize) -> Self {
        self.memo.set_capacity(Some(entries.max(1)));
        self.temporal_memo.set_capacity(Some(entries.max(1)));
        self.evict_over_capacity();
        self
    }

    /// Size and churn counters for the property memo. O(1): the byte
    /// estimate is maintained incrementally at insert/evict time, so
    /// monitoring polls never walk the memo.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            entries: self.memo.len() + self.temporal_memo.len(),
            approx_bytes: self.memo_bytes,
            insertions: self.memo_insertions,
            evictions: self.memo_evictions,
        }
    }

    /// Approximate resident size of the checker's persistent state: the
    /// memo, every session's unrollings, and the design artifacts that
    /// outlive [`Checker::reset_for_reuse`] — the reachable set with
    /// the explicit-engine tables built on it, and the pristine
    /// unrolling prefixes canonical counterexamples are cloned from.
    /// Cache-accounting input for long-lived services.
    pub fn approx_bytes(&self) -> usize {
        self.memo_stats().approx_bytes
            + self.reach.as_ref().map_or(0, |r| r.approx_bytes())
            + self.prefixes.approx_bytes()
            + self.session.approx_bytes()
            + self
                .shard_sessions
                .iter()
                .map(CheckSession::approx_bytes)
                .sum::<usize>()
    }

    /// Resets the per-run verification state — sessions, memo, stats —
    /// while keeping the expensive design artifacts (bit-blasted AIG,
    /// reachable set, explicit-engine tables, pristine unrolling
    /// prefixes) warm. A checker recycled
    /// through this produces *byte-identical* run artifacts to a fresh
    /// [`Checker::new`], because everything it keeps is
    /// stats-invisible; a design cache that parks checkers between
    /// closure requests calls this before reuse.
    pub fn reset_for_reuse(&mut self) {
        self.session = CheckSession::new(self.blasted.clone());
        self.shard_sessions.clear();
        self.memo_clear();
        self.memo_insertions = 0;
        self.memo_evictions = 0;
        self.cancel = None;
    }

    /// Installs (or with `None` clears) a cooperative cancel token.
    ///
    /// While the token is raised, every in-flight and future decision —
    /// single checks, batch items, every shard worker — returns
    /// [`McError::Cancelled`] at its next poll point: decision entry,
    /// and between SAT queries inside the BMC / k-induction unrolling
    /// loops. Cancelled decisions are never memoized, so re-checking
    /// after clearing the token decides the property normally. A parked
    /// checker keeps no stale token: [`Checker::reset_for_reuse`]
    /// clears it.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    /// Builder form of [`Checker::set_cancel`].
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Serves `prop` from the memo, refreshing its LRU position.
    fn memo_get(&mut self, prop: &WindowProperty) -> Option<CheckResult> {
        self.memo.get(prop).cloned()
    }

    fn memo_clear(&mut self) {
        self.memo.clear();
        self.temporal_memo.clear();
        self.memo_bytes = 0;
    }

    fn temporal_memo_insert(&mut self, prop: TemporalProperty, result: CheckResult) {
        self.memo_insertions += 1;
        let prop_bytes = memo_temporal_prop_bytes(&prop);
        self.memo_bytes += prop_bytes + memo_result_bytes(&result);
        if let Some(old) = self.temporal_memo.insert(prop, result) {
            // Same key re-inserted: the fresh value replaced `old`, so
            // only one property's worth of atoms is resident.
            self.memo_bytes = self
                .memo_bytes
                .saturating_sub(prop_bytes + memo_result_bytes(&old));
        }
        while let Some((prop, result)) = self.temporal_memo.pop_over_capacity() {
            self.memo_bytes = self
                .memo_bytes
                .saturating_sub(memo_temporal_prop_bytes(&prop) + memo_result_bytes(&result));
            self.memo_evictions += 1;
        }
    }

    /// Memoizes a decision; O(1) including the eviction of
    /// least-recently-used entries past the bound.
    fn memo_insert(&mut self, prop: WindowProperty, result: CheckResult) {
        self.memo_insertions += 1;
        let prop_bytes = memo_prop_bytes(&prop);
        self.memo_bytes += prop_bytes + memo_result_bytes(&result);
        if let Some(old) = self.memo.insert(prop, result) {
            // Same-key replacement (not reachable from the batch paths,
            // which dedupe first): keep the byte estimate consistent.
            self.memo_bytes = self
                .memo_bytes
                .saturating_sub(prop_bytes + memo_result_bytes(&old));
        }
        self.evict_over_capacity();
    }

    fn evict_over_capacity(&mut self) {
        while let Some((prop, result)) = self.memo.pop_over_capacity() {
            self.memo_bytes = self
                .memo_bytes
                .saturating_sub(memo_entry_bytes(&prop, &result));
            self.memo_evictions += 1;
        }
    }

    /// Enables racing mode for `Auto`-backend decisions (single checks
    /// and every shard of a sharded batch alike): the explicit and SAT
    /// engines of a property run concurrently and the first *conclusive*
    /// (`Proved` / `Violated`) answer wins; `Unknown` and over-limit
    /// errors wait for the other engine. Requires the reachable set —
    /// designs over the explicit limits fall back to the plain SAT
    /// session path. For a fixed racing setting, results are fully
    /// deterministic: verdicts never depend on which engine answered
    /// first, and violated verdicts carry the canonical SAT trace when
    /// the violation is within the SAT bounds (the deterministic
    /// explicit trace otherwise). Racing *verdicts* always agree with
    /// the non-racing checker, but a violated property's trace may be
    /// the canonical SAT one where plain `Auto` would report the
    /// explicit one — so this clears the memo, like every other setting
    /// that can change results. Only the per-engine attribution in
    /// [`SessionStats`] records the actual race winner.
    pub fn with_racing(mut self, racing: bool) -> Self {
        if self.racing != racing {
            self.racing = racing;
            self.memo_clear();
        }
        self
    }

    /// The bit-blasted design.
    pub fn blasted(&self) -> &Blasted {
        &self.blasted
    }

    /// Cumulative statistics across the checker's verification sessions
    /// (the main session plus every shard session): queries by engine,
    /// memo hits, solver conflict/propagation work and frame reuse.
    pub fn session_stats(&self) -> SessionStats {
        self.shard_sessions
            .iter()
            .fold(self.session.stats(), |acc, s| acc + s.stats())
    }

    /// The number of persistent shard sessions built so far.
    pub fn shard_session_count(&self) -> usize {
        self.shard_sessions.len()
    }

    /// The number of distinct properties decided and memoized so far
    /// (window and multi-consequent temporal alike).
    pub fn memo_len(&self) -> usize {
        self.memo.len() + self.temporal_memo.len()
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

    fn params(&self) -> DecideParams {
        DecideParams {
            prefixes: self.prefixes.clone(),
            backend: self.backend,
            limits: self.limits,
            bmc_bound: self.bmc_bound,
            kind_max_k: self.kind_max_k,
            racing: self.racing,
            cancel: self.cancel.clone(),
        }
    }

    /// Decides `prop` with the configured backend.
    ///
    /// Results are memoized: checking the same property again (in any
    /// later call or batch) is a lookup, not a solver query.
    ///
    /// # Errors
    ///
    /// Fails if a forced backend exceeds its limits; `Auto` degrades to
    /// the SAT engines instead of failing.
    pub fn check(&mut self, prop: &WindowProperty) -> Result<CheckResult, McError> {
        if let Some(res) = self.memo_get(prop) {
            self.session.note_memo_hit();
            return Ok(res);
        }
        self.ensure_reach_for_backend();
        let params = self.params();
        let mut pending_loser = None;
        let res = decide_one(
            &self.module,
            &self.blasted,
            self.reach.as_ref(),
            &params,
            &mut self.session,
            &mut pending_loser,
            prop,
        );
        // Single checks have no next race to overlap with: reap the
        // losing engine before returning.
        if let Some(h) = pending_loser {
            let _ = h.join();
        }
        let res = res?;
        self.memo_insert(prop.clone(), res.clone());
        Ok(res)
    }

    fn ensure_reach_for_backend(&mut self) {
        if matches!(self.backend, Backend::Auto | Backend::Explicit) {
            self.ensure_reach();
        }
    }

    /// Decides a whole batch of properties against the shared session.
    ///
    /// Within one batch (and across batches) each distinct property is
    /// decided exactly once — duplicates are served from the memo — and
    /// at most one unrolling per (backend, bound) configuration is
    /// built. Under `Auto`, properties the explicit engine can handle
    /// are decided against the one shared reachable set; the rest share
    /// the session's BMC / k-induction unrollings.
    ///
    /// # Errors
    ///
    /// Same contract as [`Checker::check`], failing on the first
    /// property a forced backend cannot handle.
    pub fn check_batch(&mut self, props: &[WindowProperty]) -> Result<Vec<CheckResult>, McError> {
        let mut span = gm_trace::span("mc", "mc.check_batch");
        span.arg("props", props.len());
        let mut out = Vec::with_capacity(props.len());
        for prop in props {
            out.push(self.check(prop)?);
        }
        Ok(out)
    }

    /// Decides a temporal property.
    ///
    /// A single-consequent temporal property *is* a [`WindowProperty`]
    /// and takes the full window dispatch — memo, explicit engine,
    /// racing — via [`Checker::check`]. Multi-consequent properties
    /// (bounded eventualities and stability windows) are decided by the
    /// SAT engines on the shared session: [`Backend::Bmc`] /
    /// [`Backend::KInduction`] respect their configured bounds, while
    /// [`Backend::Auto`] and [`Backend::Explicit`] take the
    /// BMC-then-k-induction path (the explicit engine has no
    /// disjunctive-window evaluator, so `Explicit` degrades rather than
    /// failing). Violated verdicts carry the canonical counterexample —
    /// re-extracted on a clone of the pristine unrolling prefix,
    /// independent of session history — and results are memoized like
    /// window results.
    ///
    /// # Errors
    ///
    /// Returns [`McError::Cancelled`] when the cooperative cancel token
    /// is raised mid-decision.
    pub fn check_temporal(&mut self, prop: &TemporalProperty) -> Result<CheckResult, McError> {
        if let Some(window) = prop.as_window() {
            return self.check(&window);
        }
        if let Some(res) = self.temporal_memo.get(prop).cloned() {
            self.session.note_memo_hit();
            return Ok(res);
        }
        let cancel = self.cancel.as_deref();
        if cancel_requested(cancel) {
            return Err(McError::Cancelled);
        }
        self.session.note_sat_decision();
        let (limit, res) = match self.backend {
            Backend::Bmc { bound } => (
                bound,
                self.session
                    .bmc_cancellable(&self.module, prop, bound, cancel)?,
            ),
            Backend::KInduction { max_k } => (
                max_k,
                self.session
                    .k_induction_cancellable(&self.module, prop, max_k, cancel)?,
            ),
            Backend::Auto | Backend::Explicit => {
                let limit = self.bmc_bound.max(self.kind_max_k);
                let res = match self.session.bmc_cancellable(
                    &self.module,
                    prop,
                    self.bmc_bound,
                    cancel,
                )? {
                    CheckResult::Violated(cex) => CheckResult::Violated(cex),
                    _ => self.session.k_induction_cancellable(
                        &self.module,
                        prop,
                        self.kind_max_k,
                        cancel,
                    )?,
                };
                (limit, res)
            }
        };
        let res = canonicalize(
            &self.module,
            &self.prefixes,
            &mut self.session,
            prop,
            limit,
            res,
        );
        self.temporal_memo_insert(prop.clone(), res.clone());
        Ok(res)
    }

    /// Decides a batch of temporal properties sequentially against the
    /// shared session. Duplicates are served from the memo; the result
    /// order matches the input order. Temporal batches are not sharded:
    /// the engine's temporal worklists are small (a few candidates per
    /// open leaf), so the dispatch overhead would dominate.
    ///
    /// # Errors
    ///
    /// Fails on the first property that errors, like
    /// [`Checker::check_batch`].
    pub fn check_temporal_batch(
        &mut self,
        props: &[TemporalProperty],
    ) -> Result<Vec<CheckResult>, McError> {
        let mut span = gm_trace::span("mc", "mc.check_temporal_batch");
        span.arg("props", props.len());
        let mut out = Vec::with_capacity(props.len());
        for prop in props {
            out.push(self.check_temporal(prop)?);
        }
        Ok(out)
    }

    /// Decides a batch across `shards` persistent worker sessions, one
    /// scoped thread per shard.
    ///
    /// The batch is deduped, memo-served, and the remaining unique
    /// properties are dealt round-robin to the shard sessions (all built
    /// over the same `Arc<Blasted>` — blasting still happens once per
    /// checker). Workers decide their shard concurrently; results are
    /// merged back in worklist order, so the returned vector — verdicts
    /// *and* counterexample traces — is identical to
    /// [`Checker::check_batch`] for every shard count, as is the memo
    /// state left behind. Shard sessions persist across calls, keeping
    /// their unrollings and learnt clauses like the single session does.
    ///
    /// # Errors
    ///
    /// Same contract as [`Checker::check_batch`]: the error reported is
    /// the one the sequential walk would have hit first, and properties
    /// before it are memoized.
    pub fn check_batch_sharded(
        &mut self,
        props: &[WindowProperty],
        shards: usize,
    ) -> Result<Vec<CheckResult>, McError> {
        self.check_batch_pooled(props, shards, PoolDispatch::RoundRobin)
    }

    /// Decides a batch across `shards` persistent worker sessions with a
    /// *work-conserving* dispatch: instead of the static round-robin
    /// deal, every shard pulls the next undecided property from a shared
    /// cursor, so a skewed worklist (a few expensive properties bunched
    /// together) never leaves shards idle.
    ///
    /// Results — verdicts, canonical counterexample traces, memo state,
    /// total engine-query counts — are identical to
    /// [`Checker::check_batch`] and [`Checker::check_batch_sharded`];
    /// the determinism contract is unchanged because every decision is
    /// partition-independent. The only observable difference is *where*
    /// the work landed: per-session [`SessionStats`] (frames encoded vs
    /// reused, solver work) depend on the claim order and may vary
    /// between runs, like the racing mode's attribution counters.
    ///
    /// # Errors
    ///
    /// Same contract as [`Checker::check_batch_sharded`].
    pub fn check_batch_stealing(
        &mut self,
        props: &[WindowProperty],
        shards: usize,
    ) -> Result<Vec<CheckResult>, McError> {
        self.check_batch_pooled(props, shards, PoolDispatch::Stealing)
    }

    fn check_batch_pooled(
        &mut self,
        props: &[WindowProperty],
        shards: usize,
        dispatch: PoolDispatch,
    ) -> Result<Vec<CheckResult>, McError> {
        let shards = shards.max(1);
        // Memo pass + dedupe, preserving first-occurrence order. Memo
        // hits are recorded by position and counted only after the first
        // error position (if any) is known, so the stats match what the
        // sequential walk — which stops at the error — would count.
        let mut out: Vec<Option<CheckResult>> = vec![None; props.len()];
        let mut memo_hit_positions: Vec<usize> = Vec::new();
        let mut unique: Vec<&WindowProperty> = Vec::new();
        let mut index_of: HashMap<&WindowProperty, usize> = HashMap::new();
        // For each unique property: every batch position it fills.
        let mut positions: Vec<Vec<usize>> = Vec::new();
        for (i, prop) in props.iter().enumerate() {
            if let Some(res) = self.memo_get(prop) {
                memo_hit_positions.push(i);
                out[i] = Some(res);
                continue;
            }
            match index_of.get(prop) {
                Some(&ui) => positions[ui].push(i),
                None => {
                    index_of.insert(prop, unique.len());
                    unique.push(prop);
                    positions.push(vec![i]);
                }
            }
        }
        // The position the sequential walk would stop at (its first
        // error), known only after the workers report back.
        let mut stop_pos = usize::MAX;
        if !unique.is_empty() {
            self.ensure_reach_for_backend();
            while self.shard_sessions.len() < shards {
                self.shard_sessions
                    .push(CheckSession::new(self.blasted.clone()));
            }
            let params = self.params();
            let module = self.module.clone();
            let blasted = self.blasted.clone();
            let reach = self.reach.clone();
            // Deal unique properties round-robin onto the shards, move
            // each *active* shard's session into a scoped worker, and
            // take the session back when the worker joins. Sessions that
            // would receive no items — shard indices past the worklist
            // length, or pool entries beyond `shards` left over from a
            // wider earlier batch — skip the worker round-trip entirely
            // (they rejoin the pool after the active ones, a
            // deterministic order).
            let active = shards.min(unique.len());
            let mut idle: Vec<CheckSession> = self.shard_sessions.drain(..).collect();
            let mut work: Vec<(CheckSession, Vec<(usize, &WindowProperty)>)> =
                idle.drain(..active).map(|s| (s, Vec::new())).collect();
            if dispatch == PoolDispatch::RoundRobin {
                for (ui, &prop) in unique.iter().enumerate() {
                    work[ui % shards].1.push((ui, prop));
                }
            }
            // Under `Stealing` the pre-dealt lists stay empty and every
            // worker claims from this shared cursor instead.
            let cursor = AtomicUsize::new(0);
            let unique_ref = &unique;
            let mut decided: Vec<Option<Result<CheckResult, McError>>> = vec![None; unique.len()];
            let shard_results: Vec<ShardYield> = std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .into_iter()
                    .map(|(mut session, items)| {
                        let module = &module;
                        let blasted = &blasted;
                        let reach = reach.as_ref();
                        let params = &params;
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut pending_loser = None;
                            let mut results: Vec<(usize, Result<CheckResult, McError>)> = items
                                .into_iter()
                                .map(|(ui, prop)| {
                                    (
                                        ui,
                                        decide_one(
                                            module,
                                            blasted,
                                            reach,
                                            params,
                                            &mut session,
                                            &mut pending_loser,
                                            prop,
                                        ),
                                    )
                                })
                                .collect();
                            if dispatch == PoolDispatch::Stealing {
                                loop {
                                    let ui = cursor.fetch_add(1, Ordering::Relaxed);
                                    let Some(&prop) = unique_ref.get(ui) else {
                                        break;
                                    };
                                    results.push((
                                        ui,
                                        decide_one(
                                            module,
                                            blasted,
                                            reach,
                                            params,
                                            &mut session,
                                            &mut pending_loser,
                                            prop,
                                        ),
                                    ));
                                }
                            }
                            // Reap the last race's losing engine before
                            // handing the session back.
                            if let Some(h) = pending_loser {
                                let _ = h.join();
                            }
                            (session, results)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            for (session, items) in shard_results {
                self.shard_sessions.push(session);
                for (ui, res) in items {
                    decided[ui] = Some(res);
                }
            }
            self.shard_sessions.append(&mut idle);
            if let Some(ei) = decided.iter().position(|r| matches!(r, Some(Err(_)))) {
                stop_pos = positions[ei][0];
            }
            // Merge in worklist order: memoize up to the first error (the
            // sequential walk would have stopped there), then fail.
            let mut first_err = None;
            for (ui, res) in decided.into_iter().enumerate() {
                match res.expect("every unique property decided") {
                    Ok(res) => {
                        self.memo_insert(unique[ui].clone(), res.clone());
                        for (extra, &i) in positions[ui].iter().enumerate() {
                            if extra > 0 && i < stop_pos {
                                // The sequential walk serves in-batch
                                // duplicates from the memo (up to its
                                // first error).
                                self.session.note_memo_hit();
                            }
                            out[i] = Some(res.clone());
                        }
                    }
                    Err(e) => {
                        first_err = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = first_err {
                for &i in &memo_hit_positions {
                    if i < stop_pos {
                        self.session.note_memo_hit();
                    }
                }
                return Err(e);
            }
        }
        for &i in &memo_hit_positions {
            if i < stop_pos {
                self.session.note_memo_hit();
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every batch position filled"))
            .collect())
    }
}

/// Decides one property against one session — the single source of
/// truth shared by [`Checker::check`] and every shard worker.
fn decide_one(
    module: &Arc<Module>,
    blasted: &Arc<Blasted>,
    reach: Option<&Arc<ReachableStates>>,
    params: &DecideParams,
    session: &mut CheckSession,
    pending_loser: &mut Option<LoserHandle>,
    prop: &WindowProperty,
) -> Result<CheckResult, McError> {
    let cancel = params.cancel.as_deref();
    let prefixes = &params.prefixes;
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
    match params.backend {
        Backend::Explicit => match reach {
            Some(r) => {
                let res = explicit_check(module, blasted, r, prop, &params.limits)?;
                session.note_explicit_query();
                Ok(res)
            }
            None => Err(McError::StateSpaceExceeded {
                limit: params.limits.max_states,
            }),
        },
        Backend::Bmc { bound } => {
            session.note_sat_decision();
            let res = session.bmc_cancellable(module, prop, bound, cancel)?;
            Ok(canonicalize(module, prefixes, session, prop, bound, res))
        }
        Backend::KInduction { max_k } => {
            session.note_sat_decision();
            let res = session.k_induction_cancellable(module, prop, max_k, cancel)?;
            Ok(canonicalize(module, prefixes, session, prop, max_k, res))
        }
        Backend::Auto => {
            if params.racing {
                // Racing spawns one-shot engine threads that cannot be
                // interrupted mid-run; the entry check above is the
                // cancel point for racing decisions.
                if let Some(r) = reach {
                    let (res, loser) =
                        decide_racing(module, blasted, r, params, session, pending_loser, prop);
                    *pending_loser = loser;
                    return Ok(res);
                }
            }
            if let Some(r) = reach {
                if let Ok(res) = explicit_check(module, blasted, r, prop, &params.limits) {
                    session.note_explicit_query();
                    return Ok(res);
                }
                // Window too wide for the explicit walk: fall through to
                // the SAT engines.
            }
            // SAT path: BMC to refute, k-induction to prove — both on
            // the session's shared unrollings. One property decision.
            session.note_sat_decision();
            let limit = params.bmc_bound.max(params.kind_max_k);
            if let CheckResult::Violated(cex) =
                session.bmc_cancellable(module, prop, params.bmc_bound, cancel)?
            {
                let res = CheckResult::Violated(cex);
                return Ok(canonicalize(module, prefixes, session, prop, limit, res));
            }
            let res = session.k_induction_cancellable(module, prop, params.kind_max_k, cancel)?;
            Ok(canonicalize(module, prefixes, session, prop, limit, res))
        }
    }
}

/// Replaces a session-extracted counterexample with the canonical one
/// (see [`crate::session`]'s determinism contract). Verdicts pass
/// through untouched.
fn canonicalize<P: UnrollProperty>(
    module: &Module,
    prefixes: &PristinePrefixes,
    session: &mut CheckSession,
    prop: &P,
    limit: u32,
    res: CheckResult,
) -> CheckResult {
    match res {
        CheckResult::Violated(session_cex) => {
            let mut span = gm_trace::span("mc", "mc.canonical_cex");
            session.note_cex_canonicalized();
            match canonical_cex(module, prefixes, prop, limit) {
                Some(cex) => {
                    // The scan stopped at the violating start, whose
                    // window ends the trace: the prefix covered the
                    // first start's window and every later start
                    // encoded one more frame.
                    let depth = prop.window_depth() as usize;
                    let starts = cex.len() - depth;
                    span.arg("depth", depth);
                    span.arg("starts", starts);
                    span.arg("frames_cloned", depth + 1);
                    span.arg("frames_encoded", starts - 1);
                    CheckResult::Violated(cex)
                }
                // Unreachable for a sound session verdict; keep the
                // session trace rather than panicking in release.
                None => CheckResult::Violated(session_cex),
            }
        }
        other => other,
    }
}

/// What one shard worker hands back when it joins: its session (with
/// accumulated stats) and the decided results, tagged by worklist index.
type ShardYield = (CheckSession, Vec<(usize, Result<CheckResult, McError>)>);

/// One message from a racing engine thread.
struct RaceAnswer {
    from_explicit: bool,
    result: Result<CheckResult, McError>,
}

impl RaceAnswer {
    fn conclusive(&self) -> bool {
        matches!(
            self.result,
            Ok(CheckResult::Proved) | Ok(CheckResult::Violated(_))
        )
    }
}

/// A still-running losing engine thread from an earlier race. Each
/// caller keeps at most one pending loser and joins it before the next
/// race (and at the end of its batch), so orphan engine threads are
/// bounded at one per shard worker instead of accumulating.
type LoserHandle = std::thread::JoinHandle<()>;

/// Races the explicit and SAT engines for one property and takes the
/// first conclusive answer.
///
/// Both engines run on their own threads over `Arc` handles (the SAT
/// side uses the canonical one-shot engines, so its traces need no
/// re-extraction). When the winner returns early, the loser's handle is
/// handed back to the caller, which joins it before starting the next
/// race; the join happens *after* the next race's threads are spawned,
/// so a slow loser overlaps with the next property's race instead of
/// stalling it, and orphan engine threads stay bounded at one per
/// caller. Determinism:
/// whenever both engines are conclusive they agree on the verdict
/// (explicit is exact, the SAT engines are sound), and a violated
/// verdict always carries the canonical SAT trace when the violation is
/// within the SAT bounds — otherwise the deterministic explicit trace —
/// so the *result* never depends on which thread won. The one-shot SAT
/// side needs no re-extraction: a fresh BMC scan and a fresh
/// k-induction base case issue the *identical* query sequence to
/// identical fresh solvers (ensure-frame, violation literal, solve, per
/// start from 0), so whichever of the two finds the violation, its
/// model is bit-for-bit the [`canonical_cex`] trace. Only the stats
/// attribution (explicit vs SAT decision) records the actual winner.
fn decide_racing(
    module: &Arc<Module>,
    blasted: &Arc<Blasted>,
    reach: &Arc<ReachableStates>,
    params: &DecideParams,
    session: &mut CheckSession,
    previous_loser: &mut Option<LoserHandle>,
    prop: &WindowProperty,
) -> (CheckResult, Option<LoserHandle>) {
    let (tx, rx) = mpsc::channel::<RaceAnswer>();
    let explicit_handle = {
        let (module, blasted, reach, prop, limits, tx) = (
            module.clone(),
            blasted.clone(),
            reach.clone(),
            prop.clone(),
            params.limits,
            tx.clone(),
        );
        std::thread::spawn(move || {
            let result = explicit_check(&module, &blasted, &reach, &prop, &limits);
            let _ = tx.send(RaceAnswer {
                from_explicit: true,
                result,
            });
        })
    };
    let sat_handle = {
        let (module, blasted, prop) = (module.clone(), blasted.clone(), prop.clone());
        let (bmc_bound, kind_max_k) = (params.bmc_bound, params.kind_max_k);
        std::thread::spawn(move || {
            let result = match bmc_shared(&module, blasted.clone(), &prop, bmc_bound) {
                CheckResult::Violated(cex) => CheckResult::Violated(cex),
                _ => k_induction_shared(&module, blasted, &prop, kind_max_k),
            };
            let _ = tx.send(RaceAnswer {
                from_explicit: false,
                result: Ok(result),
            });
        })
    };
    // Both engines of this race are now running: reap the previous
    // property's loser while they work, keeping orphans bounded at one
    // without serializing behind a slow loser.
    if let Some(h) = previous_loser.take() {
        let _ = h.join();
    }
    let first = rx.recv().expect("racing engines always answer");
    // A violated explicit verdict still needs the canonical SAT trace
    // when the violation is within the SAT bounds, so that case waits
    // for the SAT engine like the unconclusive path does.
    let early_win = first.conclusive()
        && !(first.from_explicit && matches!(first.result, Ok(CheckResult::Violated(_))));
    let (answer, loser) = if early_win {
        // Reap the winner's (already finished) thread; hand the loser
        // back for the caller to join before its next race.
        let (winner_handle, loser_handle) = if first.from_explicit {
            (explicit_handle, sat_handle)
        } else {
            (sat_handle, explicit_handle)
        };
        let _ = winner_handle.join();
        (first, Some(loser_handle))
    } else {
        let held = first;
        let other = rx.recv().expect("racing engines always answer");
        let _ = explicit_handle.join();
        let _ = sat_handle.join();
        // Prefer a conclusive answer; for violated verdicts prefer the
        // SAT side's canonical trace (deterministic regardless of
        // arrival order — the preference depends only on the two
        // results, and by this point both are in hand).
        let answer = match (&held.result, &other.result) {
            (Ok(CheckResult::Violated(_)), Ok(CheckResult::Violated(_))) => {
                if held.from_explicit {
                    other
                } else {
                    held
                }
            }
            _ => {
                if other.conclusive() {
                    other
                } else if held.conclusive() {
                    held
                } else if held.from_explicit {
                    // Neither conclusive: report the SAT engines'
                    // bounded-unknown, never the explicit error.
                    other
                } else {
                    held
                }
            }
        };
        (answer, None)
    };
    if answer.from_explicit {
        session.note_explicit_query();
    } else {
        session.note_sat_decision();
    }
    (
        answer.result.unwrap_or(CheckResult::Unknown { bound: 0 }),
        loser,
    )
}

#[cfg(test)]
mod prefix_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::BitAtom;
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

    #[test]
    fn auto_uses_explicit_and_agrees_with_sat_engines() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let req1 = m.require("req1").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        // A4 from the paper: req0@0 & !req1@1 |-> gnt0@2 — spurious
        // (the paper refines it further), let's see both engines refute it
        // or both prove its refinement.
        let spurious = WindowProperty {
            antecedent: vec![
                BitAtom::new(req0, 0, 0, true),
                BitAtom::new(req1, 0, 1, false),
            ],
            consequent: BitAtom::new(gnt0, 0, 2, true),
        };
        let mut auto = Checker::new(&m).unwrap();
        let auto_res = auto.check(&spurious).unwrap();
        let mut sat = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::KInduction { max_k: 8 });
        let sat_res = sat.check(&spurious).unwrap();
        assert!(matches!(auto_res, CheckResult::Violated(_)));
        assert!(matches!(sat_res, CheckResult::Violated(_)));

        // A7: req0@0 & req0@1 & !req1@1 |-> gnt0@2 — true.
        let a7 = WindowProperty {
            antecedent: vec![
                BitAtom::new(req0, 0, 0, true),
                BitAtom::new(req0, 0, 1, true),
                BitAtom::new(req1, 0, 1, false),
            ],
            consequent: BitAtom::new(gnt0, 0, 2, true),
        };
        assert_eq!(auto.check(&a7).unwrap(), CheckResult::Proved);
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
        let mutex = WindowProperty {
            antecedent: vec![BitAtom::new(gnt0, 0, 0, true)],
            consequent: BitAtom::new(gnt1, 0, 0, false),
        };
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 8 });
        assert_eq!(c.check(&mutex).unwrap(), CheckResult::Unknown { bound: 8 });
    }

    #[test]
    fn from_elab_matches_new() {
        let m = parse_verilog(ARBITER2).unwrap();
        let elab = gm_rtl::elaborate(&m).unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let mutex = WindowProperty {
            antecedent: vec![BitAtom::new(gnt0, 0, 0, true)],
            consequent: BitAtom::new(gnt1, 0, 0, false),
        };
        let mut from_elab = Checker::from_elab(&m, &elab).unwrap();
        let mut fresh = Checker::new(&m).unwrap();
        assert_eq!(
            from_elab.check(&mutex).unwrap(),
            fresh.check(&mutex).unwrap()
        );
    }

    #[test]
    fn check_batch_memoizes_duplicates_and_repeats() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let spurious = WindowProperty {
            antecedent: vec![BitAtom::new(req0, 0, 0, false)],
            consequent: BitAtom::new(gnt0, 0, 1, true),
        };
        let a2 = WindowProperty {
            antecedent: vec![
                BitAtom::new(req0, 0, 0, false),
                BitAtom::new(req0, 0, 1, false),
            ],
            consequent: BitAtom::new(gnt0, 0, 2, false),
        };
        // The batch contains a duplicate: only two distinct decisions.
        let batch = vec![spurious.clone(), a2.clone(), spurious.clone()];
        let mut c = Checker::new(&m).unwrap();
        let first = c.check_batch(&batch).unwrap();
        assert!(matches!(first[0], CheckResult::Violated(_)));
        assert_eq!(first[1], CheckResult::Proved);
        assert_eq!(first[0], first[2]);
        assert_eq!(c.memo_len(), 2);
        let hits_after_first = c.session_stats().memo_hits;
        assert!(hits_after_first >= 1, "in-batch duplicate served by memo");
        // The identical batch again: all results from the memo.
        let second = c.check_batch(&batch).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            c.session_stats().memo_hits - hits_after_first,
            batch.len() as u64
        );
    }

    #[test]
    fn sharded_batch_matches_sequential_including_memo_and_stats() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let spurious = WindowProperty {
            antecedent: vec![BitAtom::new(req0, 0, 0, false)],
            consequent: BitAtom::new(gnt0, 0, 1, true),
        };
        let a2 = WindowProperty {
            antecedent: vec![
                BitAtom::new(req0, 0, 0, false),
                BitAtom::new(req0, 0, 1, false),
            ],
            consequent: BitAtom::new(gnt0, 0, 2, false),
        };
        let batch = vec![spurious.clone(), a2.clone(), spurious.clone(), a2];
        let mut plain = Checker::new(&m).unwrap();
        let sequential = plain.check_batch(&batch).unwrap();
        for shards in [1, 2, 3, 8] {
            let mut sharded = Checker::new(&m).unwrap();
            let res = sharded.check_batch_sharded(&batch, shards).unwrap();
            assert_eq!(res, sequential, "{shards} shards diverged");
            assert_eq!(sharded.memo_len(), plain.memo_len());
            assert_eq!(
                sharded.session_stats().memo_hits,
                plain.session_stats().memo_hits,
                "{shards} shards count duplicates differently"
            );
            assert_eq!(
                sharded.session_stats().engine_queries(),
                plain.session_stats().engine_queries(),
            );
            assert_eq!(sharded.shard_session_count(), shards);
            // A repeated sharded batch is fully memo-served.
            let again = sharded.check_batch_sharded(&batch, shards).unwrap();
            assert_eq!(again, sequential);
        }
    }

    #[test]
    fn stealing_batch_matches_sequential_results_and_memo() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let req1 = m.require("req1").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let batch: Vec<WindowProperty> = (0..6)
            .map(|i| WindowProperty {
                antecedent: vec![
                    BitAtom::new(req0, 0, 0, i % 2 == 0),
                    BitAtom::new(req1, 0, 1, i % 3 == 0),
                ],
                consequent: BitAtom::new(if i < 3 { gnt0 } else { gnt1 }, 0, 2, i % 2 == 1),
            })
            .collect();
        let mut plain = Checker::new(&m).unwrap();
        let sequential = plain.check_batch(&batch).unwrap();
        for shards in [1, 2, 4] {
            let mut stealing = Checker::new(&m).unwrap();
            let res = stealing.check_batch_stealing(&batch, shards).unwrap();
            assert_eq!(res, sequential, "{shards} stealing shards diverged");
            assert_eq!(stealing.memo_len(), plain.memo_len());
            assert_eq!(
                stealing.session_stats().engine_queries(),
                plain.session_stats().engine_queries(),
                "stealing must not change the total work"
            );
            // A repeated stealing batch is fully memo-served.
            assert_eq!(stealing.check_batch_stealing(&batch, shards).unwrap(), res);
        }
    }

    #[test]
    fn memo_capacity_bounds_entries_and_counts_evictions() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let props: Vec<WindowProperty> = (0..5)
            .map(|i| WindowProperty {
                antecedent: vec![BitAtom::new(req0, 0, 0, i % 2 == 0)],
                consequent: BitAtom::new(gnt0, 0, i % 3, i < 2),
            })
            .collect();
        let mut bounded = Checker::new(&m).unwrap().with_memo_capacity(2);
        let mut unbounded = Checker::new(&m).unwrap();
        for p in &props {
            // Eviction only forgets: every decision matches the
            // unbounded checker's.
            assert_eq!(bounded.check(p).unwrap(), unbounded.check(p).unwrap());
        }
        let stats = bounded.memo_stats();
        assert!(stats.entries <= 2, "{stats:?}");
        assert_eq!(stats.insertions, props.len() as u64);
        assert_eq!(stats.evictions, (props.len() - 2) as u64);
        assert!(stats.approx_bytes > 0);
        assert_eq!(unbounded.memo_stats().evictions, 0);
        // Re-checking an evicted property re-decides it identically.
        assert_eq!(
            bounded.check(&props[0]).unwrap(),
            unbounded.check(&props[0]).unwrap()
        );
        assert!(bounded.approx_bytes() > 0);
    }

    #[test]
    fn approx_bytes_counts_the_reachable_set_and_its_tables() {
        let m = gm_designs::fetch_stage();
        let stall = m.require("stall_in").unwrap();
        let valid = m.require("valid").unwrap();
        let prop = WindowProperty {
            antecedent: vec![BitAtom::new(stall, 0, 0, true)],
            consequent: BitAtom::new(valid, 0, 1, true),
        };
        let mut c = Checker::new(&m).unwrap();
        let cold = c.approx_bytes();
        c.check(&prop).unwrap();
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
    fn approx_bytes_counts_the_solver_and_the_kept_prefix() {
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let done = m.require("done").unwrap();
        // go@0 |-> done@1: refuted at reset, so the session unrolls two
        // frames and one depth-1 prefix is kept.
        let prop = WindowProperty {
            antecedent: vec![BitAtom::new(go, 0, 0, true)],
            consequent: BitAtom::new(done, 0, 1, true),
        };
        let mut c = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::Bmc { bound: 0 });
        let cold = c.approx_bytes();
        assert!(matches!(c.check(&prop).unwrap(), CheckResult::Violated(_)));
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
    }

    #[test]
    fn reset_for_reuse_replays_byte_identically() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let props = vec![
            WindowProperty {
                antecedent: vec![BitAtom::new(req0, 0, 0, false)],
                consequent: BitAtom::new(gnt0, 0, 1, true),
            },
            WindowProperty {
                antecedent: vec![
                    BitAtom::new(req0, 0, 0, false),
                    BitAtom::new(req0, 0, 1, false),
                ],
                consequent: BitAtom::new(gnt0, 0, 2, false),
            },
        ];
        let mut fresh = Checker::new(&m).unwrap();
        let expected = fresh.check_batch(&props).unwrap();
        let fresh_stats = fresh.session_stats();
        let mut recycled = Checker::new(&m).unwrap();
        recycled.check_batch(&props).unwrap();
        recycled.reset_for_reuse();
        assert_eq!(recycled.session_stats(), SessionStats::default());
        assert_eq!(recycled.memo_len(), 0);
        assert_eq!(recycled.check_batch(&props).unwrap(), expected);
        assert_eq!(
            recycled.session_stats(),
            fresh_stats,
            "a recycled checker must replay with fresh-checker stats"
        );
    }

    #[test]
    fn reapplying_the_same_setting_keeps_the_memo_warm() {
        let m = parse_verilog(ARBITER2).unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let prop = WindowProperty {
            antecedent: vec![BitAtom::new(gnt0, 0, 0, true)],
            consequent: BitAtom::new(gnt1, 0, 0, false),
        };
        let mut c = Checker::new(&m).unwrap();
        c.check(&prop).unwrap();
        assert_eq!(c.memo_len(), 1);
        c = c.with_backend(Backend::Auto).with_racing(false);
        assert_eq!(c.memo_len(), 1, "unchanged settings keep the memo");
        c = c.with_backend(Backend::KInduction { max_k: 4 });
        assert_eq!(c.memo_len(), 0, "a real change clears it");
    }

    #[test]
    fn racing_matches_plain_auto_verdicts() {
        let m = parse_verilog(ARBITER2).unwrap();
        let req0 = m.require("req0").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();
        let props = vec![
            // Violated: !req0@0 |-> gnt0@1 (the paper's A0).
            WindowProperty {
                antecedent: vec![BitAtom::new(req0, 0, 0, false)],
                consequent: BitAtom::new(gnt0, 0, 1, true),
            },
            // Proved: mutual exclusion.
            WindowProperty {
                antecedent: vec![BitAtom::new(gnt0, 0, 0, true)],
                consequent: BitAtom::new(gnt1, 0, 0, false),
            },
        ];
        let mut plain = Checker::new(&m).unwrap();
        let expected = plain.check_batch(&props).unwrap();
        let mut racing = Checker::new(&m).unwrap().with_racing(true);
        let got = racing.check_batch_sharded(&props, 2).unwrap();
        for (e, g) in expected.iter().zip(&got) {
            match (e, g) {
                (CheckResult::Proved, CheckResult::Proved) => {}
                (CheckResult::Violated(_), CheckResult::Violated(_)) => {}
                other => panic!("racing diverged: {other:?}"),
            }
        }
        // Racing twice returns identical results (determinism contract).
        let mut again = Checker::new(&m).unwrap().with_racing(true);
        assert_eq!(got, again.check_batch_sharded(&props, 2).unwrap());
    }
}
