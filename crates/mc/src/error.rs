//! Model-checking errors.

use gm_rtl::RtlError;
use std::error::Error as StdError;
use std::fmt;

/// Errors from the model-checking engines.
#[derive(Clone, Debug, PartialEq)]
pub enum McError {
    /// Elaboration or blasting failed.
    Rtl(RtlError),
    /// More state bits than the explicit engine can pack.
    StateTooLarge {
        /// State bits in the design.
        bits: u32,
        /// The configured limit.
        limit: u32,
    },
    /// More input bits than the explicit engine can enumerate.
    InputTooWide {
        /// Free input bits in the design.
        bits: u32,
        /// The configured limit.
        limit: u32,
    },
    /// The reachable set exceeded its budget.
    StateSpaceExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The property window is too wide for explicit enumeration.
    WindowTooWide {
        /// `(depth + 1) * input_bits` of the query.
        bits: u32,
        /// The configured limit.
        limit: u32,
    },
    /// A cooperative cancel token stopped the check before a verdict.
    /// A cancelled decision leaves nothing behind — re-checking the
    /// property after the cancel decides it normally.
    Cancelled,
    /// An injected transient fault (`gm_fault`) aborted the check. Only
    /// produced while a fault plan is armed; carries the fault-point
    /// name. Retryable: a fresh run of the same check is expected to
    /// succeed once the fault stops firing.
    TransientFault {
        /// The `gm_fault` point that fired (e.g. `sat.flaky`).
        point: &'static str,
    },
}

impl McError {
    /// Whether a fresh identical run could plausibly succeed. Resource
    /// limits and elaboration errors are deterministic — retrying them
    /// burns work for the same verdict — while injected transient
    /// faults are retryable by construction.
    pub fn retryable(&self) -> bool {
        matches!(self, McError::TransientFault { .. })
    }
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Rtl(e) => write!(f, "rtl error: {e}"),
            McError::StateTooLarge { bits, limit } => {
                write!(f, "{bits} state bits exceed the explicit limit of {limit}")
            }
            McError::InputTooWide { bits, limit } => {
                write!(f, "{bits} input bits exceed the explicit limit of {limit}")
            }
            McError::StateSpaceExceeded { limit } => {
                write!(f, "reachable state count exceeds {limit}")
            }
            McError::WindowTooWide { bits, limit } => {
                write!(f, "window enumeration of {bits} bits exceeds {limit}")
            }
            McError::Cancelled => write!(f, "check cancelled"),
            McError::TransientFault { point } => {
                write!(f, "transient injected fault at {point}")
            }
        }
    }
}

impl StdError for McError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            McError::Rtl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RtlError> for McError {
    fn from(e: RtlError) -> Self {
        McError::Rtl(e)
    }
}
