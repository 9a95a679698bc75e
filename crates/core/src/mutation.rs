//! Mutation-based fault injection (the paper's §7.4, Table 2).
//!
//! After a run has mined a set of proved assertions, stuck-at faults are
//! injected on internal signals and every assertion is re-checked on the
//! mutant. Assertions that fail on the mutant "cover" the fault — the
//! paper's systematic measure of the assertion suite's bug-detection
//! strength.

use crate::engine::assertion_property;
use crate::error::EngineError;
use gm_mc::{CheckResult, Checker, WindowProperty};
use gm_mine::Assertion;
use gm_rtl::{Bv, Module, SignalId};
use gm_sim::{CompiledModule, NopObserver, Replay, SimBackend};

/// A stuck-at fault on a signal's fanout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Every read of the signal sees constant 0.
    StuckAt0,
    /// Every read of the signal sees constant all-ones.
    StuckAt1,
}

impl FaultKind {
    /// The value the faulty net is stuck at, for a signal of `width` bits.
    pub fn stuck_value(self, width: u32) -> Bv {
        match self {
            FaultKind::StuckAt0 => Bv::zeros(width),
            FaultKind::StuckAt1 => Bv::ones(width),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::StuckAt0 => write!(f, "stuck-at-0"),
            FaultKind::StuckAt1 => write!(f, "stuck-at-1"),
        }
    }
}

/// The outcome of checking an assertion suite against one fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// The mutated signal.
    pub signal: SignalId,
    /// The injected fault.
    pub fault: FaultKind,
    /// Indices (into the input slice) of assertions that failed on the
    /// mutant — the assertions covering this fault.
    pub detecting: Vec<usize>,
    /// The number of assertions checked.
    pub checked: usize,
}

impl FaultReport {
    /// Whether at least one assertion detects the fault.
    pub fn is_detected(&self) -> bool {
        !self.detecting.is_empty()
    }
}

/// Checks `assertions` (previously proved on the golden `module`) against
/// a mutant with `fault` injected on `signal`.
///
/// An assertion "detects" the fault when it no longer holds on the
/// mutant (either refuted outright or undecidable where it was proved
/// before — the paper's formal regression treats both as failures; we
/// count only definite refutations).
///
/// # Errors
///
/// Propagates elaboration/blasting failures on the mutant.
pub fn check_fault(
    module: &Module,
    assertions: &[Assertion],
    signal: SignalId,
    fault: FaultKind,
) -> Result<FaultReport, EngineError> {
    let width = module.signal_width(signal);
    let mutant = module.with_stuck_signal(signal, fault.stuck_value(width));
    let mut checker = Checker::new(&mutant)?;
    // One batch against the mutant: the whole suite shares a single
    // unrolling session instead of one per assertion.
    let props: Vec<WindowProperty> = assertions.iter().map(assertion_property).collect();
    let detecting = checker
        .check_batch(&props)?
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, CheckResult::Violated(_)))
        .map(|(i, _)| i)
        .collect();
    Ok(FaultReport {
        signal,
        fault,
        detecting,
        checked: assertions.len(),
    })
}

/// Runs a full stuck-at campaign over the given signals (both polarities
/// each), as in the paper's Table 2.
///
/// # Errors
///
/// Propagates mutant elaboration failures.
pub fn fault_campaign(
    module: &Module,
    assertions: &[Assertion],
    signals: &[SignalId],
) -> Result<Vec<FaultReport>, EngineError> {
    let mut out = Vec::with_capacity(signals.len() * 2);
    for &sig in signals {
        for fault in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            out.push(check_fault(module, assertions, sig, fault)?);
        }
    }
    Ok(out)
}

/// Checks whether the *test vector suite* (rather than the assertions)
/// detects a fault: the suite is replayed on the golden design and the
/// mutant, and any primary-output difference at any cycle is a
/// detection. The paper's §7.4 notes the generated vector suite "would
/// also be an effective regression suite" — this is that experiment.
///
/// Both replays ride each design's one tape through [`Replay::traces`]
/// under a [`NopObserver`], which closes every observation point, so
/// they run the tape's probe-free residual; golden, mutant and every
/// further fault of a campaign over the same suite read the one
/// lane-packed form the suite stores.
///
/// Returns the first differing `(segment index, cycle, output)` or
/// `None` if the fault escapes the suite.
///
/// # Errors
///
/// Propagates elaboration failures on either design.
pub fn suite_detects_fault(
    module: &Module,
    suite: &gm_sim::TestSuite,
    signal: SignalId,
    fault: FaultKind,
) -> Result<Option<(usize, usize, SignalId)>, EngineError> {
    let width = module.signal_width(signal);
    let mutant = module.with_stuck_signal(signal, fault.stuck_value(width));
    let traces = |design: &Module| -> Result<Vec<gm_sim::Trace>, EngineError> {
        let tape = CompiledModule::compile(design)?;
        let replay = Replay {
            module: design,
            compiled: Some(&tape),
            block: SimBackend::default().lane_block(),
            cancel: None,
        };
        Ok(replay
            .traces(suite, 0..suite.len(), &mut NopObserver)?
            .expect("no cancel token"))
    };
    let (golden_traces, mutant_traces) = (traces(module)?, traces(&mutant)?);
    let outputs = module.outputs();
    for (si, (g, m)) in golden_traces.iter().zip(&mutant_traces).enumerate() {
        for cycle in 0..g.len().min(m.len()) {
            for &out in &outputs {
                if g.value(cycle, out) != m.value(cycle, out) {
                    return Ok(Some((si, cycle, out)));
                }
            }
        }
    }
    Ok(None)
}
