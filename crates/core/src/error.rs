//! Engine errors.

use gm_mc::McError;
use gm_mine::BitOutOfRange;
use gm_rtl::RtlError;
use std::error::Error as StdError;
use std::fmt;

/// Fatal errors from an engine run.
///
/// Per-target mining failures (contradictory windows) are *not* fatal;
/// they surface as [`crate::TargetSummary::stuck`] in the outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// Elaboration or simulation failed.
    Rtl(RtlError),
    /// Model checking failed (limits exceeded on a forced backend).
    Mc(McError),
    /// A selected target bit is past its signal's width.
    Target(BitOutOfRange),
}

impl EngineError {
    /// Whether a fresh identical run could plausibly succeed — the
    /// classification the closure service's retry loop consults.
    /// Elaboration/simulation errors and model-checking resource limits
    /// are deterministic (a retry reproduces them); only injected
    /// transient faults ([`McError::retryable`]) are worth a retry.
    pub fn retryable(&self) -> bool {
        match self {
            EngineError::Rtl(_) | EngineError::Target(_) => false,
            EngineError::Mc(e) => e.retryable(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rtl(e) => write!(f, "rtl: {e}"),
            EngineError::Mc(e) => write!(f, "model checking: {e}"),
            EngineError::Target(e) => write!(f, "target: {e}"),
        }
    }
}

impl StdError for EngineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            EngineError::Rtl(e) => Some(e),
            EngineError::Mc(e) => Some(e),
            EngineError::Target(e) => Some(e),
        }
    }
}

impl From<RtlError> for EngineError {
    fn from(e: RtlError) -> Self {
        EngineError::Rtl(e)
    }
}

impl From<BitOutOfRange> for EngineError {
    fn from(e: BitOutOfRange) -> Self {
        EngineError::Target(e)
    }
}

impl From<McError> for EngineError {
    fn from(e: McError) -> Self {
        EngineError::Mc(e)
    }
}
