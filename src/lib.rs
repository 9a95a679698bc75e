//! Umbrella crate for the GoldMine coverage-closure reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests in this repository (and downstream quick starts)
//! need a single dependency. See the individual crates for the real API
//! surface:
//!
//! * [`gm_rtl`] — RTL IR, Verilog-subset parser, elaboration, logic cones
//! * [`gm_sim`] — cycle-accurate simulator, traces, stimulus
//! * [`gm_coverage`] — line/branch/condition/expression/toggle/FSM coverage
//! * [`gm_sat`] — CDCL SAT solver
//! * [`gm_mc`] — bit-blasting and model checking (BMC, k-induction,
//!   explicit-state reachability)
//! * [`gm_mine`] — decision-tree assertion mining
//! * [`goldmine`] — the counterexample-guided refinement engine
//! * [`gm_designs`] — benchmark designs used by the paper's experiments
//! * [`gm_serve`] — the persistent closure service (wire protocol,
//!   one FIFO job queue, content-addressed design cache,
//!   `gmserved` daemon)

pub use gm_coverage;
pub use gm_designs;
pub use gm_mc;
pub use gm_mine;
pub use gm_rtl;
pub use gm_sat;
pub use gm_serve;
pub use gm_sim;
pub use goldmine;
