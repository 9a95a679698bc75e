//! # gm-coverage — simulation coverage metrics
//!
//! Implements the six coverage metrics the paper reports (line, branch,
//! condition, expression, toggle, FSM) as [`gm_sim::SimObserver`]s, plus
//! a bundled [`CoverageSuite`] that measures all of them in one pass.
//!
//! Metric definitions (documented here because every commercial tool
//! differs slightly):
//!
//! * **line** — every behavioral statement executed at least once;
//! * **branch** — every `if` outcome (then *and* else) and every `case`
//!   arm (plus `default` unless labels are exhaustive) taken;
//! * **condition** — every boolean (width-1, non-constant) subexpression
//!   of an `if` predicate observed at both 0 and 1;
//! * **expression** — the same, over assignment right-hand sides;
//! * **toggle** — every bit of every signal (clock excluded) observed
//!   rising and falling across settled cycle snapshots;
//! * **FSM** — every declared state of every FSM register visited
//!   (declared states = the labels of `case` statements on the register).

#![warn(missing_docs)]

mod collectors;
mod points;
mod ratio;
mod uncovered;

pub use collectors::{
    BranchCoverage, ConditionCoverage, CoverageSuite, ExpressionCoverage, FsmCoverage,
    LineCoverage, ToggleCoverage,
};
pub use points::{
    boolean_nodes, branch_points, count_boolean_nodes, declared_fsm_states, observe_boolean_nodes,
};
pub use ratio::{CoverageReport, Ratio};
pub use uncovered::{GainObserver, UncoveredIndex};
