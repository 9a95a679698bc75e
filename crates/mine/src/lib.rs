//! # gm-mine — decision-tree assertion mining
//!
//! The paper's **A-Miner**: learns candidate assertions from simulation
//! traces with an incremental decision tree.
//!
//! * [`MiningSpec`] defines the feature universe for one output bit —
//!   cone inputs across the mining window, with state registers at the
//!   farthest-back offset as *extension* candidates (activated only when
//!   the window cannot explain the output, the paper's §6 move);
//! * [`ConeCapture`] records, per cycle of a replay, the bits a set of
//!   specs read, straight off the simulator (no all-signal
//!   [`gm_sim::Trace`]), with a [`WindowPlan`] per spec;
//! * [`Dataset`] cuts windowed rows from a capture (or a
//!   [`gm_sim::Trace`]) and stores them bit-packed: `ceil(F / 64)`
//!   feature words per row in one flat vector, a target bit, and the
//!   post-window target bits the temporal miner looks ahead into;
//! * [`DecisionTree`] is the incremental tree of §3: strict-improvement
//!   variance splits (100% confidence), counterexample rows re-split
//!   only the refuted leaf while everything above is preserved
//!   (Definition 6). It fits on a scratch permutation of the packed
//!   rows, counting every feature in one bit-sliced pass per node;
//! * [`Assertion`] is a leaf's path implying the target value, at the
//!   target cycle or in a temporal shape ([`TemporalTemplate`]); it
//!   renders in LTL / PSL / SVA form, and [`input_space_coverage`] is
//!   the paper's input-space accounting of a proved set ([`InputSpace`]
//!   keeps it for a set that grows);
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
mod capture;
mod dataset;
mod features;
mod temporal;
mod tree;

pub use assertion::{assertion_at, input_space_coverage, Assertion, InputSpace, TemporalTemplate};
pub use capture::{BitOutOfRange, ConeCapture, WindowPlan};
pub use dataset::{Dataset, ExtractedRows, Row, RowRange};
pub use features::{Feature, MiningSpec, Target};
pub use temporal::temporal_candidates;
pub use tree::{DecisionTree, LeafStatus, MineError, Node};
