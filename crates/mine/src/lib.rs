//! # gm-mine — decision-tree assertion mining
//!
//! The paper's **A-Miner**: learns candidate assertions from simulation
//! traces with an incremental decision tree.
//!
//! * [`MiningSpec`] defines the feature universe for one output bit —
//!   cone inputs across the mining window, with state registers at the
//!   farthest-back offset as *extension* candidates (activated only when
//!   the window cannot explain the output, the paper's §6 move);
//! * [`Dataset`] extracts windowed rows from [`gm_sim::Trace`]s and
//!   stores them bit-packed: `ceil(F / 64)` feature words per row in one
//!   flat vector, a target bit, and the post-window target bits the
//!   temporal miner looks ahead into;
//! * [`DecisionTree`] is the incremental tree of §3: strict-improvement
//!   variance splits (100% confidence), counterexample rows re-split
//!   only the refuted leaf while everything above is preserved
//!   (Definition 6). It fits on a scratch permutation of the packed
//!   rows, counting every feature in one bit-sliced pass per node;
//! * [`Assertion`] is a leaf's path implying the target value, at the
//!   target cycle or in a temporal shape ([`TemporalTemplate`]); it
//!   renders in LTL / PSL / SVA form, and [`input_space_coverage`] is
//!   the paper's input-space accounting of a proved set;
//! * [`temporal_candidates`] proposes next / eventually / stability
//!   templates from a leaf's recorded lookahead.
//!
//! The data path is one representation end to end — there is no
//! unpacked row type besides [`Row`], the argument of the synthetic
//! [`Dataset::push_row`] seam — and *which* tree a dataset grows is
//! pinned bit for bit (see the module docs of `tree.rs` for the order
//! contract, `tests/fit_identity.rs` for the goldens). The work is
//! visible to the flight recorder as `mine.extract`, `mine.fit`,
//! `mine.absorb` (opened by the engine, one per pass of absorbed
//! traces) and
//! `mine.candidates`.

#![warn(missing_docs)]

mod assertion;
mod bits;
mod dataset;
mod features;
mod temporal;
mod tree;

pub use assertion::{assertion_at, input_space_coverage, Assertion, TemporalTemplate};
pub use dataset::{Dataset, ExtractedRows, Row, RowRange};
pub use features::{Feature, MiningSpec, Target};
pub use temporal::temporal_candidates;
pub use tree::{DecisionTree, LeafStatus, MineError, Node};
