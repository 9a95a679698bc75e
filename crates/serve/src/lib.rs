//! # gm-serve — the persistent closure service
//!
//! The batch pipeline's production shape: a long-lived verification
//! backend that accepts closure requests for many designs, reuses warm
//! design state across them, and streams per-iteration results back.
//! Four layers:
//!
//! * [`protocol`] — [`Request`]/[`Response`] wire types over
//!   length-prefixed JSON frames ([`protocol::write_frame`] /
//!   [`protocol::read_frame`]), written and parsed by the hand-written
//!   [`json`] codec, that work identically in-process and across a
//!   Unix-domain socket;
//! * the queue — the service's long-lived workers claim from one FIFO
//!   of job ids kept in the job table, oldest job first, under the
//!   table's lock, and an idle worker waits on a condvar paired with
//!   it; a one-shot batch of jobs is an in-process [`ClosureService`]
//!   too — submit every job, then wait on each;
//! * [`cache`] — a content-addressed [`DesignCache`]: submissions
//!   hash the parsed module, repeated designs reuse the elaboration,
//!   bit-blasted AIG, reachable set and explicit-engine tables, under
//!   a bounded LRU with hit/miss/eviction counters;
//! * [`service`] — the [`ClosureService`] tying them together around a
//!   job table that is a pure state machine (`lifecycle.rs`), plus the
//!   Unix-socket transport ([`serve_unix`], [`ServeClient`]) and the
//!   `gmserved` daemon binary.
//!
//! Serving never changes results: a served job's
//! [`goldmine::ClosureOutcome`] is byte-identical to a standalone
//! [`goldmine::Engine`] run whichever worker ran it and in every
//! cache state (enforced by `tests/serve_agree.rs` across the whole design
//! catalog).
//!
//! ## Quick start
//!
//! ```
//! use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
//! use goldmine::{EngineConfig, SeedStimulus};
//!
//! let service = ClosureService::new(ServeConfig { workers: 2, ..ServeConfig::default() });
//! let module = gm_rtl::parse_verilog(
//!     "module m(input a, output y); assign y = ~a; endmodule")?;
//! let config = EngineConfig {
//!     window: 0,
//!     stimulus: SeedStimulus::Random { cycles: 8 },
//!     record_coverage: false,
//!     ..EngineConfig::default()
//! };
//! let (job, _) =
//!     service.submit_module("inverter", module, config, SubmitOptions::default())?;
//! service.wait(job);
//! assert!(service.summary(job).unwrap().converged);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or over a socket: start `gmserved /tmp/gm.sock`, then drive it with
//! [`ServeClient`] (see `examples/serve_closure.rs`).

#![warn(missing_docs)]

pub mod cache;
pub mod json;
mod lifecycle;
pub mod net;
pub mod protocol;
pub mod retry;
pub mod service;

pub use cache::{content_key, CacheStats, DesignCache};
pub use net::{bind_unix, serve_unix, ServeClient};
pub use protocol::{
    ClosureSummary, JobState, ProgressEvent, Request, Response, ServeStats, WireConfig,
    WireHistogram, WireTargets, LATENCY_BUCKETS_NS, RETRY_BUCKETS,
};
pub use retry::RetryPolicy;
pub use service::{ClosureService, JobError, JobStatus, ServeConfig, ServeError, SubmitOptions};

/// Cases per property test: `tier1` by default; CI's release job raises
/// it through proptest's `PROPTEST_CASES` variable, which an explicit
/// `ProptestConfig::with_cases` would otherwise override.
#[cfg(test)]
fn proptest_cases(tier1: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}
