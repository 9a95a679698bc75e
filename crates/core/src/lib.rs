//! # goldmine — counterexample-guided stimulus generation
//!
//! A from-scratch reproduction of *"Towards Coverage Closure: Using
//! GoldMine Assertions for Generating Design Validation Stimulus"*
//! (Liu, Sheridan, Tuohy, Vasudevan — DATE 2011): the closed loop that
//! mines candidate assertions from simulation traces with an incremental
//! decision tree, model-checks every 100%-confidence candidate, and
//! feeds counterexample traces back into the stimulus until every leaf
//! assertion is formally true.
//!
//! At convergence the per-output decision tree is the paper's *final
//! decision tree*: it captures the output's complete reachable function,
//! the accumulated [`gm_sim::TestSuite`] is the coverage-closing
//! validation stimulus, and the proved [`gm_mine::Assertion`]s are a
//! regression suite (exercised by [`fault_campaign`]).
//!
//! Quick start:
//!
//! ```
//! use goldmine::{Engine, EngineConfig};
//!
//! let m = gm_rtl::parse_verilog(
//!     "module m(input a, input b, output z); assign z = a & b; endmodule")?;
//! let outcome = Engine::new(&m, EngineConfig::default())?.run()?;
//! assert!(outcome.converged);
//! for a in &outcome.assertions {
//!     println!("{}", a.to_ltl(&m));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod mutation;
mod report;

pub use config::{
    EngineConfig, RefineConfig, SeedStimulus, ShardPolicy, TargetSelection, TemporalConfig,
    UnknownPolicy,
};
pub use engine::{assertion_property, Engine, Step, StopReason};
pub use error::EngineError;
pub use gm_sim::{CompiledModule, SimBackend, MAX_LANE_BLOCK};
pub use mutation::{check_fault, fault_campaign, suite_detects_fault, FaultKind, FaultReport};
pub use report::{ClosureOutcome, IterTiming, IterationReport, TargetSummary};
