//! # gm-mc — bit-level model checking
//!
//! The formal half of GoldMine: decides mined candidate assertions and
//! produces the counterexample traces that drive the paper's refinement
//! loop. Replaces the SMV / commercial checkers the paper used.
//!
//! Pipeline: [`blast`] compiles an elaborated `gm-rtl` module into an
//! and-inverter graph ([`Aig`]) with hash-consing; properties are
//! [`WindowProperty`]s — bounded-window implications from antecedent
//! atoms to one consequent (the shape of every decision-tree assertion)
//! or to a conjunction or disjunction of several (the temporal
//! templates); three engines decide them:
//!
//! * **explicit-state reachability** ([`ReachableStates`],
//!   [`explicit_check`]) — exact for benchmark-scale designs, never
//!   `Unknown`, never confused by unreachable states; what
//!   [`Backend::Auto`] uses whenever the design fits its limits;
//! * **BMC** ([`bmc`]) — SAT-based refutation with reset-rooted traces;
//! * **k-induction** ([`k_induction`]) — SAT-based proof, may answer
//!   `Unknown`.
//!
//! ## Sessions and batching
//!
//! The refinement loop is query-heavy: hundreds of candidate assertions
//! per iteration against one fixed design. The crate is organized
//! around that shape:
//!
//! * [`Unroller`] lays time frames into one incremental SAT solver and
//!   encodes a property window's violation as assumptions — its atoms'
//!   own literals, or one activation literal where a caller needs one —
//!   so a query is an assumption, never a permanent assertion;
//! * [`CheckSession`] owns at most two unrollings (reset-rooted for BMC
//!   and induction bases, free-init for induction steps) and reuses
//!   them — frames, gate encodings and learnt clauses — across every
//!   property it decides, reporting the work in [`SessionStats`]; each
//!   of its queries is *scoped* to the fan-in cone of its assumptions
//!   ([`Unroller::solve_scoped`]), so it costs its own cone rather than
//!   everything the unrolling has accumulated, and reads no model;
//! * [`Checker`] bit-blasts once, lazily computes the reachable state
//!   set once, routes queries to the configured backend through its
//!   persistent session, and decides whole worklists
//!   ([`Checker::check_batch`], each distinct property decided once;
//!   [`Checker::check_temporal_batch`] is the same under the temporal
//!   pass's span name) whatever their consequents;
//! * [`Checker::with_shards`] splits every worklist across a pool of
//!   persistent `Send` shard sessions (one scoped worker thread each,
//!   all over one `Arc`-shared blasted design), dealt round-robin and
//!   merged back in worklist order.
//!
//! **Determinism contract:** a run of the same calls under the same
//! configuration is reproducible in full — every [`CheckResult`] and
//! the [`SessionStats`] — and the results are the same for every entry
//! point and every shard count (which only
//! decides which session's counters the work lands in). Which engine
//! answers depends on the design, the limits and the backend, never on
//! the property's consequents; explicit-state verdicts carry the first
//! violation of a fixed depth-first order, SAT verdicts are
//! solver-state-independent, and violated SAT verdicts carry
//! *canonical* traces re-extracted independently of session history
//! (on a clone of a pristine per-depth unrolling prefix the checker
//! keeps, so the design is not re-encoded per counterexample).
//!
//! The free [`bmc`] / [`k_induction`] functions remain as one-shot
//! conveniences (each builds a private unrolling).
//!
//! Model-checking semantics: reset pinned deasserted, initial state =
//! declared register init values (the header of `blast.rs` says how
//! [`blast`] pins the clock and reset inputs).

#![warn(missing_docs)]

mod aig;
mod aiger;
mod blast;
mod bmc;
mod check;
mod error;
mod explicit;
mod prop;
mod session;
#[cfg(test)]
mod testgen;

pub use aig::{Aig, AigLit, AigNode, Latch};
pub use aiger::{blasted_to_aiger, parse_aiger, to_aiger, ParsedAiger};
pub use blast::{blast, Blasted};
pub use bmc::{bmc, k_induction, Unroller};
pub use check::{Backend, Checker};
pub use error::McError;
pub use explicit::{
    explicit_check, ExplicitCacheStats, ExplicitLimits, ExplicitScratch, ReachableStates,
};
pub use prop::{BitAtom, CexTrace, CheckResult, ConsequentKind, WindowProperty};
pub use session::{CheckSession, SessionStats};
