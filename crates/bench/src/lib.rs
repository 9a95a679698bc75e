//! # gm-bench — experiment harness for the paper's tables and figures
//!
//! One regenerator per evaluation artifact of the paper (this table is
//! the per-experiment index; ROADMAP.md refers to its IDs):
//!
//! | ID | Paper artifact | Function | Binary |
//! |----|----------------|----------|--------|
//! | E1 | Fig. 12 — arbiter coverage by iteration | [`fig12`] | `expt_fig12` |
//! | E2 | Fig. 13 — design-space coverage by iteration | [`fig13`] | `expt_fig13` |
//! | E3 | Fig. 14 — expression coverage by iteration | [`fig14`] | `expt_fig14` |
//! | E4 | Table 1 — zero initial patterns | [`table1`] | `expt_table1` |
//! | E5 | Fig. 15 — lifting a high-coverage block | [`fig15`] | `expt_fig15` |
//! | E6 | Table 2 — faults covered by assertions | [`table2`] | `expt_table2` |
//! | E7 | Fig. 16 — random vs GoldMine on ITC blocks | [`fig16`] | `expt_fig16` |
//! | E8 | Table 3 — directed vs GoldMine on Rigel stages | [`table3`] | `expt_table3` |
//!
//! Every function returns structured rows (so tests can assert on the
//! shapes the paper claims) and has a `print_*` companion used by the
//! binaries and by `cargo bench`.

pub mod experiments;
pub mod load;
pub mod workloads;

pub use experiments::*;
