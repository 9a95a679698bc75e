//! Safety properties over bounded windows, and counterexample traces.
//!
//! A mined assertion is an implication over a bounded window of cycles:
//! a conjunction of (signal, bit, offset, value) atoms implies one
//! consequent atom, or — for the temporal templates — a conjunction or
//! disjunction of several. Model checking decides
//! `G (antecedent -> consequents)` over all reachable windows; a violation yields a reset-rooted input
//! trace that the engine replays through the simulator (the paper's
//! `Ctx_simulation()`).

use crate::blast::Blasted;
use gm_rtl::{Bv, Module, SignalId};
use gm_sim::InputVector;
use std::fmt;

/// One observation in a window property: signal bit `bit` of `signal`,
/// `offset` cycles after the window start, equals `value`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BitAtom {
    /// The observed signal.
    pub signal: SignalId,
    /// The observed bit (0 = LSB).
    pub bit: u32,
    /// Cycle offset within the window (0 = window start).
    pub offset: u32,
    /// The expected value.
    pub value: bool,
}

impl BitAtom {
    /// Creates an atom.
    pub fn new(signal: SignalId, bit: u32, offset: u32, value: bool) -> Self {
        BitAtom {
            signal,
            bit,
            offset,
            value,
        }
    }
}

/// How a [`WindowProperty`]'s consequent atoms combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConsequentKind {
    /// Every consequent atom must hold (stability windows `a -> G<=k b`:
    /// one atom per cycle of the window).
    All,
    /// At least one consequent atom must hold (bounded eventuality
    /// `a -> F<=k b`: one atom per cycle the target may fire in). A
    /// single consequent is always `Any` (see [`WindowProperty::new`]).
    Any,
}

/// A bounded safety property: `G (/\ antecedent -> C)` where `C` is a
/// conjunction ([`ConsequentKind::All`]) or disjunction
/// ([`ConsequentKind::Any`]) of consequent atoms at (possibly distinct)
/// offsets.
///
/// One type covers every template the miner produces: a decision-tree
/// assertion is an implication with one consequent
/// ([`WindowProperty::implication`]); next-cycle implications
/// (`a -> Xb`) are one consequent at a later offset; bounded
/// eventualities (`a -> F<=k b`) are `Any` over offsets `d..=d+k`, and
/// stability windows (`a -> G<=k b`) `All` over the same offsets. All
/// stay bounded safety properties over finite windows, so every engine —
/// explicit state, BMC, k-induction — decides them alike.
///
/// With one consequent `All` and `Any` mean the same property, so it
/// has one spelling, `Any`: both constructors store it so, and the
/// checker dedupes, encodes and decides it as one disjunctive window
/// (no consequent gate, no second explicit-state set). A struct literal
/// with one `All` consequent would get the same verdict and trace, but
/// be deduped apart from its `Any` spelling, so outside this crate the
/// type is `#[non_exhaustive]`: the constructors are the only way to
/// build one, while the fields stay readable:
///
/// ```
/// use gm_mc::{BitAtom, ConsequentKind, WindowProperty};
/// use gm_rtl::SignalId;
///
/// let atom = BitAtom::new(SignalId::from_raw(0), 0, 0, true);
/// let one = WindowProperty::new(vec![], vec![atom], ConsequentKind::All);
/// assert_eq!(one.kind, ConsequentKind::Any);
/// ```
///
/// ```compile_fail,E0639
/// use gm_mc::{BitAtom, ConsequentKind, WindowProperty};
/// use gm_rtl::SignalId;
///
/// let atom = BitAtom::new(SignalId::from_raw(0), 0, 0, true);
/// // A struct literal of a non-exhaustive type from another crate.
/// let one_all = WindowProperty {
///     antecedent: vec![],
///     consequents: vec![atom],
///     kind: ConsequentKind::All,
/// };
/// ```
///
/// Hashable so a batch checker can dedupe its batch and a caller can
/// remember what it has decided. The closure engine never hands the
/// checker a duplicate: its targets are distinct bits and a consequent
/// names its target's bit, a tree's leaves are distinct paths, and a
/// decided property that would be proposed again is remembered.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct WindowProperty {
    /// Antecedent atoms (conjoined). Empty means `true`.
    pub antecedent: Vec<BitAtom>,
    /// Consequent atoms, combined per `kind`. Must be non-empty.
    pub consequents: Vec<BitAtom>,
    /// How the consequents combine.
    pub kind: ConsequentKind,
}

impl WindowProperty {
    /// The implication `/\ antecedent -> consequent`.
    pub fn implication(antecedent: Vec<BitAtom>, consequent: BitAtom) -> Self {
        WindowProperty {
            antecedent,
            consequents: vec![consequent],
            kind: ConsequentKind::Any,
        }
    }

    /// The property `/\ antecedent -> consequents` combined per `kind`,
    /// a single consequent stored as `Any` whatever `kind` says.
    pub fn new(antecedent: Vec<BitAtom>, consequents: Vec<BitAtom>, kind: ConsequentKind) -> Self {
        let kind = if consequents.len() == 1 {
            ConsequentKind::Any
        } else {
            kind
        };
        WindowProperty {
            antecedent,
            consequents,
            kind,
        }
    }

    /// The window depth: the largest offset used by any atom. The window
    /// spans `depth() + 1` cycles.
    pub fn depth(&self) -> u32 {
        self.antecedent
            .iter()
            .chain(self.consequents.iter())
            .map(|a| a.offset)
            .max()
            .unwrap_or(0)
    }

    /// Formats the property with signal names for diagnostics.
    pub fn display<'a>(&'a self, module: &'a Module) -> DisplayProperty<'a> {
        DisplayProperty { prop: self, module }
    }
}

/// Helper returned by [`WindowProperty::display`].
#[derive(Debug)]
pub struct DisplayProperty<'a> {
    prop: &'a WindowProperty,
    module: &'a Module,
}

impl fmt::Display for DisplayProperty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let atom = |f: &mut fmt::Formatter<'_>, a: &BitAtom| -> fmt::Result {
            let sig = self.module.signal(a.signal);
            if !a.value {
                write!(f, "!")?;
            }
            write!(f, "{}", sig.name())?;
            if sig.width() > 1 {
                write!(f, "[{}]", a.bit)?;
            }
            write!(f, "@{}", a.offset)
        };
        if self.prop.antecedent.is_empty() {
            write!(f, "true")?;
        } else {
            for (i, a) in self.prop.antecedent.iter().enumerate() {
                if i > 0 {
                    write!(f, " & ")?;
                }
                atom(f, a)?;
            }
        }
        write!(f, " |-> ")?;
        let sep = match self.prop.kind {
            ConsequentKind::All => " & ",
            ConsequentKind::Any => " | ",
        };
        if self.prop.consequents.len() > 1 {
            write!(f, "(")?;
        }
        for (i, a) in self.prop.consequents.iter().enumerate() {
            if i > 0 {
                write!(f, "{sep}")?;
            }
            atom(f, a)?;
        }
        if self.prop.consequents.len() > 1 {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A counterexample: a reset-rooted sequence of data-input vectors that
/// drives the design through a window violating the property.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CexTrace {
    /// One input vector per cycle, starting at the reset state.
    pub inputs: Vec<InputVector>,
}

impl CexTrace {
    /// The number of cycles in the trace.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Groups per-bit AIG input values into per-signal input vectors. Built
/// once per trace: the all-zero vector and each input bit's place in it
/// are worked out here, so a cycle's vector is one copy of the template
/// with its bits set.
pub(crate) struct InputAssembler {
    /// Every data input at zero, in signal order.
    zeros: InputVector,
    /// Per dense AIG input index: the slot of its signal in `zeros` and
    /// the bit, or `None` when the signal is no data input.
    slots: Vec<Option<(usize, u32)>>,
}

impl InputAssembler {
    pub(crate) fn new(module: &Module, blasted: &Blasted) -> Self {
        let zeros: InputVector = module
            .data_inputs()
            .into_iter()
            .map(|s| (s, Bv::zeros(module.signal_width(s))))
            .collect();
        let slots = (blasted.input_bits.iter())
            .map(|&(sig, bit)| {
                zeros
                    .iter()
                    .position(|&(s, _)| s == sig)
                    .map(|at| (at, bit))
            })
            .collect();
        InputAssembler { zeros, slots }
    }

    /// One cycle's vector; `bit_of` maps a dense AIG input index to its
    /// boolean value.
    pub(crate) fn vector(&self, bit_of: impl Fn(usize) -> bool) -> InputVector {
        let mut vec = self.zeros.clone();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((at, bit)) = *slot {
                vec[at].1 = vec[at].1.with_bit(bit, bit_of(i));
            }
        }
        vec
    }
}

/// The result of a model-checking query.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// The property holds on all reachable behaviors.
    Proved,
    /// The property is violated; the trace drives the design from reset
    /// into a violating window.
    Violated(CexTrace),
    /// The bounded engines could not decide within their budgets.
    Unknown {
        /// The bound reached before giving up.
        bound: u32,
    },
}

impl CheckResult {
    /// Whether the result is [`CheckResult::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, CheckResult::Proved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;

    #[test]
    fn depth_is_max_offset() {
        let m = parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        let p = WindowProperty::implication(
            vec![BitAtom::new(a, 0, 0, true), BitAtom::new(a, 0, 1, false)],
            BitAtom::new(y, 0, 2, true),
        );
        assert_eq!(p.depth(), 2);
        let display = format!("{}", p.display(&m));
        assert_eq!(display, "a@0 & !a@1 |-> y@2");
    }

    #[test]
    fn multi_consequent_depth_and_display() {
        let m = parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        let p = WindowProperty::new(
            vec![BitAtom::new(a, 0, 0, true)],
            vec![BitAtom::new(y, 0, 1, true), BitAtom::new(y, 0, 2, true)],
            ConsequentKind::Any,
        );
        assert_eq!(p.depth(), 2);
        assert_eq!(format!("{}", p.display(&m)), "a@0 |-> (y@1 | y@2)");

        let single = WindowProperty::new(
            vec![BitAtom::new(a, 0, 0, true)],
            vec![BitAtom::new(y, 0, 1, false)],
            ConsequentKind::All,
        );
        assert_eq!(format!("{}", single.display(&m)), "a@0 |-> !y@1");
    }

    #[test]
    fn empty_antecedent_displays_true() {
        let m = parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let y = m.require("y").unwrap();
        let p = WindowProperty::implication(vec![], BitAtom::new(y, 0, 0, false));
        assert_eq!(p.depth(), 0);
        assert_eq!(format!("{}", p.display(&m)), "true |-> !y@0");
    }
}
