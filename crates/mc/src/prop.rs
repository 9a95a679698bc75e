//! Safety properties over bounded windows, and counterexample traces.
//!
//! A mined assertion is an implication over a bounded window of cycles:
//! a conjunction of (signal, bit, offset, value) atoms implies one
//! consequent atom, or — for the temporal templates — a conjunction or
//! disjunction of several. Model checking decides
//! `G (antecedent -> consequents)` over all reachable windows; a violation yields a reset-rooted input
//! trace that the engine replays through the simulator (the paper's
//! `Ctx_simulation()`).
//!
//! A trace ([`CexTrace`]) is kept as the checker finds it: each cycle's
//! AIG input bits, packed into words in one buffer, beside the design's
//! input layout. From there it goes into the engine's test suite's
//! lanes without becoming vectors; [`CexTrace::inputs`] reads it back
//! as vectors where a caller wants them.

#[cfg(doc)]
use crate::blast::Blasted;
use gm_rtl::{Module, SignalId};
use gm_sim::{InputLayout, InputVector};
use std::fmt;
use std::sync::Arc;

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

    /// Rewrites this property as [`WindowProperty::new`] would build it
    /// from `antecedent`, `consequents` and `kind`, on the allocations
    /// it has: a caller that keeps its properties across batches
    /// rewrites them in place.
    pub fn rewrite(
        &mut self,
        antecedent: impl IntoIterator<Item = BitAtom>,
        consequents: impl IntoIterator<Item = BitAtom>,
        kind: ConsequentKind,
    ) {
        self.antecedent.clear();
        self.antecedent.extend(antecedent);
        self.consequents.clear();
        self.consequents.extend(consequents);
        self.kind = if self.consequents.len() == 1 {
            ConsequentKind::Any
        } else {
            kind
        };
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

/// A counterexample: a reset-rooted run of data-input cycles that
/// drives the design through a window violating the property.
///
/// It is kept in the form the checker finds it in: per cycle, the
/// design's AIG input bits as one row of its
/// [`Blasted::input_layout`] — data inputs in signal order, each LSB
/// first — packed into `u64` words, every cycle in one buffer. The
/// layout is the design's one decoder, shared by `Arc`, so a trace
/// costs its buffer and nothing else. [`CexTrace::inputs`] reads the
/// cycles back as input vectors (every data input once, at its width);
/// [`gm_sim::TestSuite::push_bits`] writes them straight into a
/// suite's lanes without building one. `Debug` renders the read-back
/// vectors.
#[derive(Clone, PartialEq)]
pub struct CexTrace {
    layout: Arc<InputLayout>,
    cycles: usize,
    /// Cycle `t` owns `bits[t * layout.words()..][..layout.words()]`.
    bits: Vec<u64>,
}

impl CexTrace {
    /// The trace of `cycles` cycles whose input bits `bits` holds in
    /// `layout`'s rows, `layout.words()` words per cycle.
    pub(crate) fn new(layout: Arc<InputLayout>, cycles: usize, bits: Vec<u64>) -> Self {
        debug_assert_eq!(bits.len(), cycles * layout.words());
        CexTrace {
            layout,
            cycles,
            bits,
        }
    }

    /// The number of cycles in the trace.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// The layout of every cycle's input bits.
    pub fn layout(&self) -> &InputLayout {
        &self.layout
    }

    /// Every cycle's input bits, back to back, `layout().words()` words
    /// per cycle.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The input vectors, one per cycle, starting at the reset state:
    /// the trace read back through its layout.
    pub fn inputs(&self) -> Vec<InputVector> {
        let stride = self.layout.words();
        (0..self.cycles)
            .map(|t| self.layout.vector(&self.bits[t * stride..][..stride]))
            .collect()
    }
}

impl fmt::Debug for CexTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CexTrace")
            .field("inputs", &self.inputs())
            .finish()
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
