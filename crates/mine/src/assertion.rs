//! Candidate assertions extracted from decision-tree leaves.
//!
//! A leaf with zero error is a 100%-confidence rule: the conjunction of
//! the (feature, value) pairs on its path implies the target value
//! (Definition 2 in the paper). The temporal miner (`temporal.rs`)
//! proposes the same leaf with a temporal consequent, so there is one
//! assertion type whose [`TemporalTemplate`] says when the value is
//! implied. Assertions render in LTL (the paper's notation, e.g.
//! `req0 & X req0 & X !req1 => X X gnt0`), PSL and SystemVerilog
//! Assertion syntax.

use crate::bits::bit;
use crate::features::{Feature, MiningSpec, Target};
use crate::tree::DecisionTree;
use gm_cache::FxMap;
use gm_rtl::Module;

/// When a mined assertion implies its value, relative to the target's
/// window offset `d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemporalTemplate {
    /// `a -> X^d b`: the value is implied at the target cycle — the
    /// paper's combinational leaf assertion.
    Now,
    /// `a -> X^shift b`: the value is implied `shift` cycles after the
    /// target cycle (`shift >= 1`).
    Next {
        /// Cycles past the target cycle.
        shift: u32,
    },
    /// `a -> F<=bound b`: the value is reached at the target cycle or
    /// within `bound` cycles after it (`bound >= 1`).
    Eventually {
        /// The eventuality window length.
        bound: u32,
    },
    /// `a -> G<=bound b`: the value holds at the target cycle and for
    /// `bound` cycles after it (`bound >= 1`).
    Stability {
        /// The stability window length.
        bound: u32,
    },
}

/// A mined candidate assertion for one output bit.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Assertion {
    /// Path literals: feature and required value, in root-to-leaf order.
    pub literals: Vec<(Feature, bool)>,
    /// The implied target.
    pub target: Target,
    /// The implied target value.
    pub value: bool,
    /// When the value is implied.
    pub template: TemporalTemplate,
}

// Written by hand, as `IterationReport`'s is, because a closure
// outcome's `Debug` render is a wire field (`outcome_debug`) that the
// benchmark hashes: a `Now` assertion keeps the layout of the
// combinational type it was before temporal assertions joined it, and a
// temporal one the layout of the separate type they had.
impl std::fmt::Debug for Assertion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let now = self.template == TemporalTemplate::Now;
        let name = if now {
            "Assertion"
        } else {
            "TemporalAssertion"
        };
        let mut s = f.debug_struct(name);
        s.field("literals", &self.literals)
            .field("target", &self.target)
            .field("value", &self.value);
        if !now {
            s.field("template", &self.template);
        }
        s.finish()
    }
}

/// Renders a signal bit as `name` or `name[bit]`.
fn atom_name(module: &Module, signal: gm_rtl::SignalId, bit: u32) -> String {
    let sig = module.signal(signal);
    if sig.width() > 1 {
        format!("{}[{}]", sig.name(), bit)
    } else {
        sig.name().to_string()
    }
}

/// A signal bit's literal: its atom, `!`-prefixed when `value` is false.
fn literal(module: &Module, signal: gm_rtl::SignalId, bit: u32, value: bool) -> String {
    let not = if value { "" } else { "!" };
    format!("{not}{}", atom_name(module, signal, bit))
}

/// A literal set sorted by offset (then signal and bit), the order every
/// renderer prints.
fn sorted(literals: &[(Feature, bool)]) -> Vec<(Feature, bool)> {
    let mut sorted = literals.to_vec();
    sorted.sort_by_key(|(f, _)| (f.offset, f.signal, f.bit));
    sorted
}

/// The LTL antecedent of a literal set: atoms prefixed with one `X` per
/// offset, offset-sorted, `&`-joined; `true` when empty.
fn ltl_antecedent(literals: &[(Feature, bool)], module: &Module) -> String {
    let atoms: Vec<String> = (sorted(literals).iter())
        .map(|(f, v)| {
            let x = "X ".repeat(f.offset as usize);
            format!("{x}{}", literal(module, f.signal, f.bit, *v))
        })
        .collect();
    if atoms.is_empty() {
        "true".to_string()
    } else {
        atoms.join(" & ")
    }
}

/// The PSL antecedent of a literal set: `next[k]`-nested atoms,
/// `&&`-joined; `true` when empty.
fn psl_antecedent(literals: &[(Feature, bool)], module: &Module) -> String {
    let ant_parts: Vec<String> = (sorted(literals).iter())
        .map(|(f, v)| {
            let base = literal(module, f.signal, f.bit, *v);
            if f.offset == 0 {
                base
            } else {
                format!("next[{}] ({base})", f.offset)
            }
        })
        .collect();
    if ant_parts.is_empty() {
        "true".to_string()
    } else {
        ant_parts.join(" && ")
    }
}

/// The SVA antecedent sequence of a literal set (offset-grouped atoms
/// with `##N` delays; `1` when empty) and the last offset it reaches —
/// the consequent's delay is measured from there.
fn sva_antecedent(literals: &[(Feature, bool)], module: &Module) -> (String, u32) {
    let mut by_offset: Vec<(u32, Vec<String>)> = Vec::new();
    for (f, v) in &sorted(literals) {
        let name = literal(module, f.signal, f.bit, *v);
        match by_offset.iter_mut().find(|(o, _)| *o == f.offset) {
            Some((_, v)) => v.push(name),
            None => by_offset.push((f.offset, vec![name])),
        }
    }
    let mut seq = String::new();
    let mut last_offset = 0;
    if by_offset.is_empty() {
        seq.push('1');
    }
    for (i, (offset, names)) in by_offset.iter().enumerate() {
        if i > 0 {
            seq.push_str(&format!(" ##{} ", offset - last_offset));
        }
        seq.push_str(&names.join(" && "));
        last_offset = *offset;
    }
    (seq, last_offset)
}

impl Assertion {
    /// The cycle offsets (relative to the window start) the consequent
    /// ranges over: the target offset `d` alone for [`TemporalTemplate::Now`].
    pub fn consequent_offsets(&self) -> std::ops::RangeInclusive<u32> {
        let d = self.target.offset;
        match self.template {
            TemporalTemplate::Now => d..=d,
            TemporalTemplate::Next { shift } => (d + shift)..=(d + shift),
            TemporalTemplate::Eventually { bound } | TemporalTemplate::Stability { bound } => {
                d..=(d + bound)
            }
        }
    }

    /// The consequent's literal.
    fn consequent(&self, module: &Module) -> String {
        literal(module, self.target.signal, self.target.bit, self.value)
    }

    /// Renders the assertion in the paper's (bounded-)LTL notation:
    /// literals prefixed with one `X` per cycle offset, e.g.
    /// `req0 & X !req1 => X X gnt0`, and `X^d F<=k cons` / `X^d G<=k cons`
    /// for eventualities and stability windows.
    pub fn to_ltl(&self, module: &Module) -> String {
        let ant = ltl_antecedent(&self.literals, module);
        let x = "X ".repeat(*self.consequent_offsets().start() as usize);
        let lit = self.consequent(module);
        let cons = match self.template {
            TemporalTemplate::Now | TemporalTemplate::Next { .. } => format!("{x}{lit}"),
            TemporalTemplate::Eventually { bound } => format!("{x}F<={bound} {lit}"),
            TemporalTemplate::Stability { bound } => format!("{x}G<={bound} {lit}"),
        };
        format!("{ant} => {cons}")
    }

    /// Renders the assertion as a PSL property (the paper's other output
    /// format): `always (ant -> next[k] (cons))` with `next`-nested
    /// antecedent stages (a bare consequent at offset 0), and
    /// `next_e[d..e]` (exists) / `next_a[d..e]` (all) windows.
    pub fn to_psl(&self, module: &Module) -> String {
        let ant = psl_antecedent(&self.literals, module);
        let (lo, hi) = self.consequent_offsets().into_inner();
        let lit = self.consequent(module);
        let cons = match self.template {
            TemporalTemplate::Now | TemporalTemplate::Next { .. } if lo == 0 => lit,
            TemporalTemplate::Now | TemporalTemplate::Next { .. } => format!("next[{lo}] ({lit})"),
            TemporalTemplate::Eventually { .. } => format!("next_e[{lo}..{hi}] ({lit})"),
            TemporalTemplate::Stability { .. } => format!("next_a[{lo}..{hi}] ({lit})"),
        };
        format!("always (({ant}) -> {cons});")
    }

    /// Renders the assertion as a SystemVerilog property, using `##N`
    /// cycle delays between offsets, `##[d:e]` delay ranges for
    /// eventualities and `[*n]` consecutive repetition for stability
    /// windows.
    pub fn to_sva(&self, module: &Module) -> String {
        let (seq, last_offset) = sva_antecedent(&self.literals, module);
        let clock = module.clock().map_or("clk", |c| module.signal(c).name());
        let delay = self
            .consequent_offsets()
            .start()
            .saturating_sub(last_offset);
        let lit = self.consequent(module);
        let cons = match self.template {
            TemporalTemplate::Now | TemporalTemplate::Next { .. } => format!("##{delay} {lit}"),
            TemporalTemplate::Eventually { bound } => {
                format!("##[{delay}:{}] {lit}", delay + bound)
            }
            TemporalTemplate::Stability { bound } => format!("##{delay} {lit} [*{}]", bound + 1),
        };
        format!("@(posedge {clock}) {seq} |-> {cons};")
    }
}

/// Extracts the assertion at a (pure) leaf of the tree: its path
/// implies the leaf's prediction at the target cycle.
pub fn assertion_at(tree: &DecisionTree, spec: &MiningSpec, leaf: usize) -> Assertion {
    let up = tree.path_up(leaf);
    let mut literals = Vec::with_capacity(up.clone().count());
    literals.extend(up.map(|(f, v)| (spec.features[f], v)));
    literals.reverse();
    Assertion {
        literals,
        target: spec.target,
        value: tree.node(leaf).prediction(),
        template: TemporalTemplate::Now,
    }
}

/// The input cubes of an assertion set, packed for [`CubeSet::union_measure`].
///
/// A cube is an assertion's path literals projected onto the input
/// signals. Features are numbered locally, in the order the set first
/// mentions them, and a cube is a *care* mask (the features it tests)
/// and a *value* mask (what each must be), `words` words each — as many
/// as the set's distinct features need, so there is no feature cap. A
/// contradictory projection (the same input atom required both `0` and
/// `1`) is an empty cube and is left out. Cubes are pushed one at a
/// time, so a set that grows at its end keeps what it has.
#[derive(Debug)]
struct CubeSet {
    index_of: FxMap<Feature, u32>,
    words: usize,
    /// Cube `c` owns `care[c * words..][..words]`; `value` likewise.
    care: Vec<u64>,
    value: Vec<u64>,
    /// Every cube's tested features in path order, back to back: cube
    /// `c` owns `order[starts[c]..starts[c + 1]]`. The masks cannot say
    /// which literal came first on the path, and the split order below
    /// depends on it.
    order: Vec<u32>,
    /// Beside `order`, the value each literal requires.
    required: Vec<bool>,
    starts: Vec<usize>,
}

impl Default for CubeSet {
    fn default() -> CubeSet {
        CubeSet {
            index_of: FxMap::default(),
            words: 0,
            care: Vec::new(),
            value: Vec::new(),
            order: Vec::new(),
            required: Vec::new(),
            starts: vec![0],
        }
    }
}

impl CubeSet {
    fn new(assertions: &[Assertion], module: &Module) -> CubeSet {
        let mut set = CubeSet::default();
        for a in assertions {
            set.push(a, module);
        }
        set
    }

    /// Adds `a`'s cube after the others, unless it is contradictory.
    /// Its features are numbered either way.
    fn push(&mut self, a: &Assertion, module: &Module) {
        let start = self.order.len();
        for &(f, v) in &a.literals {
            if !module.signal(f.signal).is_input() {
                continue;
            }
            let next = self.index_of.len() as u32;
            let local = *self.index_of.entry(f).or_insert(next);
            match self.order[start..].iter().position(|&g| g == local) {
                Some(at) if self.required[start + at] != v => {
                    self.order.truncate(start);
                    self.required.truncate(start);
                    return;
                }
                Some(_) => {}
                None => {
                    self.order.push(local);
                    self.required.push(v);
                }
            }
        }
        self.starts.push(self.order.len());
        let (words, cubes) = (self.index_of.len().div_ceil(64), self.len());
        let mut first = cubes - 1;
        if words != self.words {
            // A wider mask moves every cube's words.
            (self.words, first) = (words, 0);
            self.care.clear();
            self.value.clear();
        }
        self.care.resize(cubes * words, 0);
        self.value.resize(cubes * words, 0);
        (first..cubes).for_each(|c| self.mask(c));
    }

    /// Writes cube `c`'s masks from its literals.
    fn mask(&mut self, c: usize) {
        for at in self.starts[c]..self.starts[c + 1] {
            let f = self.order[at] as usize;
            let (word, mask) = (c * self.words + f / 64, 1 << (f % 64));
            self.care[word] |= mask;
            self.value[word] |= if self.required[at] { mask } else { 0 };
        }
    }

    fn clear(&mut self) {
        self.index_of.clear();
        self.words = 0;
        self.care.clear();
        self.value.clear();
        self.order.clear();
        self.required.clear();
        self.starts.truncate(1);
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The distinct features numbered so far.
    fn features(&self) -> usize {
        self.index_of.len()
    }

    /// The union measure, [`input_space_coverage`]'s value.
    fn coverage(&self) -> f64 {
        clamp(self.union_measure())
    }

    /// The measure of the union of cubes `from..` outside the union of
    /// the cubes before them, by the same Shannon expansion as
    /// [`CubeSet::union_measure`] over the newer cubes' variables only:
    /// a region an older cube covers adds nothing, and one a newer cube
    /// covers adds what the older ones leave of it. `fresh`, `kept` and
    /// `decided` are the recursion's buffers, kept by the caller.
    fn gain(
        &self,
        from: usize,
        fresh: &mut Vec<u32>,
        kept: &mut Vec<u32>,
        decided: &mut Vec<u64>,
    ) -> f64 {
        fresh.clear();
        fresh.extend(from as u32..self.len() as u32);
        kept.clear();
        kept.extend(0..from as u32);
        decided.clear();
        decided.resize(self.words, 0);
        self.gain_in(fresh, 0, kept, 0, decided)
    }

    /// The measure of the union of the cubes `fresh[lo_f..]` outside
    /// the union of the cubes `kept[lo_k..]`, both co-factored on the
    /// `decided` variables, splitting on the first remaining literal of
    /// the first fresh cube. Both lists are stacks, as in
    /// [`CubeSet::measure`].
    fn gain_in(
        &self,
        fresh: &mut Vec<u32>,
        lo_f: usize,
        kept: &mut Vec<u32>,
        lo_k: usize,
        decided: &mut [u64],
    ) -> f64 {
        let (hi_f, hi_k) = (fresh.len(), kept.len());
        if lo_f == hi_f {
            return 0.0;
        }
        if kept[lo_k..].iter().any(|&c| self.settled(c, decided)) {
            return 0.0;
        }
        if fresh[lo_f..].iter().any(|&c| self.settled(c, decided)) {
            return 1.0 - self.measure(kept, lo_k, decided);
        }
        let var = self.split(fresh[lo_f] as usize, decided);
        decided[var / 64] |= 1 << (var % 64);
        let halves = [false, true].map(|val| {
            self.cofactor(fresh, lo_f, hi_f, var, val);
            if fresh.len() == hi_f {
                // No newer cube reaches this half: it adds nothing.
                return 0.0;
            }
            self.cofactor(kept, lo_k, hi_k, var, val);
            let half = self.gain_in(fresh, hi_f, kept, hi_k, decided);
            fresh.truncate(hi_f);
            kept.truncate(hi_k);
            half
        });
        decided[var / 64] &= !(1 << (var % 64));
        0.5 * halves[0] + 0.5 * halves[1]
    }

    /// Whether cube `c` tests no variable outside `decided`.
    fn settled(&self, c: u32, decided: &[u64]) -> bool {
        let care = &self.care[c as usize * self.words..][..self.words];
        care.iter().zip(decided).all(|(m, d)| m & !d == 0)
    }

    /// The first literal of cube `c`, in path order, outside `decided`.
    fn split(&self, c: usize, decided: &[u64]) -> usize {
        self.order[self.starts[c]..self.starts[c + 1]]
            .iter()
            .map(|&f| f as usize)
            .find(|&f| !bit(decided, f))
            .expect("an unsettled cube has an undecided literal")
    }

    /// Pushes the cubes of `live[lo..hi]` that agree with `var = val`
    /// (or do not test `var`) onto `live`, in order.
    fn cofactor(&self, live: &mut Vec<u32>, lo: usize, hi: usize, var: usize, val: bool) {
        for i in lo..hi {
            let c = live[i] as usize;
            let (care, value) = (&self.care[c * self.words..], &self.value[c * self.words..]);
            if !bit(care, var) || bit(value, var) == val {
                live.push(c as u32);
            }
        }
    }

    /// The exact measure of the union of the cubes over uniformly random
    /// inputs, by Shannon expansion: pick a variable some cube tests,
    /// split on it, and recurse on the co-factored cube sets.
    /// Exponential only in the number of *distinct* variables the
    /// overlapping cubes share — leaf cubes of one tree are
    /// near-disjoint, so the recursion collapses almost immediately in
    /// practice.
    fn union_measure(&self) -> f64 {
        let mut live: Vec<u32> = (0..self.len() as u32).collect();
        self.measure(&mut live, 0, &mut vec![0; self.words])
    }

    /// The measure of the cubes `live[lo..]` co-factored on the
    /// `decided` variables: a cube's remaining literals are its care
    /// bits outside `decided`. The split variable is the first remaining
    /// literal, in path order, of the first cube; both cofactors keep
    /// the cubes in order. `live` is one stack for the whole recursion —
    /// a level pushes its cofactors above `live.len()` and pops them.
    fn measure(&self, live: &mut Vec<u32>, lo: usize, decided: &mut [u64]) -> f64 {
        let hi = live.len();
        if lo == hi {
            return 0.0;
        }
        if live[lo..].iter().any(|&c| self.settled(c, decided)) {
            // An unconditional cube covers the whole space.
            return 1.0;
        }
        let var = self.split(live[lo] as usize, decided);
        decided[var / 64] |= 1 << (var % 64);
        let halves = [false, true].map(|val| {
            self.cofactor(live, lo, hi, var, val);
            let half = self.measure(live, hi, decided);
            live.truncate(hi);
            half
        });
        decided[var / 64] &= !(1 << (var % 64));
        0.5 * halves[0] + 0.5 * halves[1]
    }
}

/// The paper's input-space coverage of a set of true assertions,
/// counting only input literals. Reaches 1.0 exactly at convergence.
///
/// Computed as the *exact union measure* of the input-literal cubes.
/// The leaves of one tree are disjoint over their full literal sets,
/// but projecting away state literals (the §6 extension move) can make
/// two input cubes overlap — a naive `Σ 2^-depth` then double-counts
/// the shared mass, and clamping the sum at 1.0 masquerades as exact
/// convergence.
pub fn input_space_coverage(assertions: &[Assertion], module: &Module) -> f64 {
    CubeSet::new(assertions, module).coverage()
}

/// A union measure as a coverage share.
fn clamp(union: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0 + 1e-12).contains(&union),
        "union measure must be a probability, got {union}"
    );
    union.min(1.0)
}

/// Up to this many distinct features, every measure the union takes —
/// the union's, a cube's, a cofactor's — is a multiple of `2^-features`
/// no larger than 1, exactly representable in an `f64`'s 53 significant
/// bits, so every sum and halving on the way is exact and the order of
/// summation cannot show.
const EXACT_FEATURES: usize = 52;

/// [`input_space_coverage`] of an assertion list that grows, kept with
/// the list. While the list's cubes test at most 52 distinct features,
/// the assertions filed since the last measure add their cubes'
/// measure outside the union kept so far, wherever they were filed:
/// every measure is exact there, so the sum is bit for bit the whole
/// list's union measure. Past that, the list is measured whole, in its
/// order, as [`input_space_coverage`] measures it.
#[derive(Debug, Default)]
pub struct InputSpace {
    /// The cubes of the measured assertions, in the order they were
    /// measured.
    cubes: CubeSet,
    /// The list indices of the assertions filed since the last measure.
    fresh: Vec<usize>,
    /// How many of the list's assertions `cubes` holds.
    measured: usize,
    /// The union measure of `cubes`.
    union: f64,
    /// The recursion's buffers.
    fresh_cubes: Vec<u32>,
    kept_cubes: Vec<u32>,
    decided: Vec<u64>,
}

impl InputSpace {
    /// Notes that the list gained an assertion at index `at`.
    pub fn inserted(&mut self, at: usize) {
        for index in &mut self.fresh {
            *index += usize::from(*index >= at);
        }
        self.fresh.push(at);
    }

    /// `input_space_coverage(assertions, module)` of the list as it
    /// stands, every insertion since the last call noted (a list that
    /// grew at its end alone may skip the notes): measured again only
    /// when the list grew, and then only for what it gained while the
    /// measure is exact.
    pub fn coverage(&mut self, assertions: &[Assertion], module: &Module) -> f64 {
        let noted = self.measured + self.fresh.len();
        debug_assert!(noted <= assertions.len(), "the list only grows");
        self.fresh.extend(noted..assertions.len());
        if self.fresh.is_empty() {
            return clamp(self.union);
        }
        self.measured = assertions.len();
        let from = self.cubes.len();
        for at in self.fresh.drain(..) {
            self.cubes.push(&assertions[at], module);
        }
        if self.cubes.features() <= EXACT_FEATURES {
            let (fresh, kept) = (&mut self.fresh_cubes, &mut self.kept_cubes);
            self.union += self.cubes.gain(from, fresh, kept, &mut self.decided);
        } else {
            self.cubes.clear();
            for a in assertions {
                self.cubes.push(a, module);
            }
            self.union = self.cubes.union_measure();
        }
        clamp(self.union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::{parse_verilog, SignalId};
    use proptest::prelude::*;
    use proptest::TestRng;

    fn arbiter() -> gm_rtl::Module {
        parse_verilog(
            "module arbiter2(input clk, input rst, input req0, input req1,
                             output reg gnt0, output reg gnt1);
               always @(posedge clk)
                 if (rst) begin gnt0 <= 0; gnt1 <= 0; end
                 else begin
                   gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
                   gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
                 end
             endmodule",
        )
        .unwrap()
    }

    fn feat(m: &gm_rtl::Module, name: &str, offset: u32) -> Feature {
        Feature {
            signal: m.require(name).unwrap(),
            bit: 0,
            offset,
        }
    }

    /// The paper's A2: !req0 & X req0 => X X gnt0.
    fn a3(m: &gm_rtl::Module) -> Assertion {
        Assertion {
            literals: vec![(feat(m, "req0", 0), false), (feat(m, "req0", 1), true)],
            target: Target {
                signal: m.require("gnt0").unwrap(),
                bit: 0,
                offset: 2,
            },
            value: true,
            template: TemporalTemplate::Now,
        }
    }

    #[test]
    fn ltl_rendering_matches_paper_notation() {
        let m = arbiter();
        assert_eq!(a3(&m).to_ltl(&m), "!req0 & X req0 => X X gnt0");
    }

    #[test]
    fn psl_rendering_uses_next_operators() {
        let m = arbiter();
        assert_eq!(
            a3(&m).to_psl(&m),
            "always ((!req0 && next[1] (req0)) -> next[2] (gnt0));"
        );
        let empty = Assertion {
            literals: vec![],
            target: Target {
                signal: m.require("gnt0").unwrap(),
                bit: 0,
                offset: 0,
            },
            value: false,
            template: TemporalTemplate::Now,
        };
        assert_eq!(empty.to_psl(&m), "always ((true) -> !gnt0);");
    }

    #[test]
    fn sva_rendering_uses_cycle_delays() {
        let m = arbiter();
        assert_eq!(
            a3(&m).to_sva(&m),
            "@(posedge clk) !req0 ##1 req0 |-> ##1 gnt0;"
        );
    }

    /// A closure outcome's `Debug` render is hashed on the wire, so one
    /// assertion type must render each shape exactly as the two types it
    /// replaced did with derived `Debug`.
    #[test]
    fn debug_renders_the_layouts_of_the_replaced_types() {
        let m = arbiter();
        let literals = "literals: [(Feature { signal: SignalId(2), bit: 0, offset: 0 }, false), \
                        (Feature { signal: SignalId(2), bit: 0, offset: 1 }, true)], \
                        target: Target { signal: SignalId(4), bit: 0, offset: 2 }, value: true";
        let mut a = a3(&m);
        assert_eq!(format!("{a:?}"), format!("Assertion {{ {literals} }}"));
        a.template = TemporalTemplate::Next { shift: 1 };
        assert_eq!(
            format!("{a:?}"),
            format!("TemporalAssertion {{ {literals}, template: Next {{ shift: 1 }} }}")
        );
    }

    #[test]
    fn empty_antecedent_renders_true() {
        let m = arbiter();
        let a = Assertion {
            literals: vec![],
            target: Target {
                signal: m.require("gnt0").unwrap(),
                bit: 0,
                offset: 0,
            },
            value: false,
            template: TemporalTemplate::Now,
        };
        assert_eq!(a.to_ltl(&m), "true => !gnt0");
        assert_eq!(a.to_sva(&m), "@(posedge clk) 1 |-> ##0 !gnt0;");
    }

    #[test]
    fn input_space_counts_only_input_literals() {
        let m = arbiter();
        let mut a = a3(&m);
        assert_eq!(input_space_coverage(std::slice::from_ref(&a), &m), 0.25);
        // Adding a state literal (gnt0@0) does not shrink the share.
        a.literals.push((feat(&m, "gnt0", 0), true));
        assert_eq!(input_space_coverage(std::slice::from_ref(&a), &m), 0.25);
        // `a` and `b` project to the *same* input cube (they differ
        // only in the state literal), so the union is one cube's 0.25
        // — the old clamped sum reported 0.5.
        let b = a3(&m);
        assert_eq!(input_space_coverage(&[a.clone(), b.clone()], &m), 0.25);
        assert_eq!(reference::overlap(&[a, b], &m), 0.25);
    }

    #[test]
    fn overlapping_cubes_no_longer_masquerade_as_convergence() {
        let m = arbiter();
        // Four assertions over req0/req1 cubes that pairwise overlap:
        // req0, !req0, and req1 — the plain sum is 0.5 + 0.5 + 0.5 =
        // 1.5, which the old `.min(1.0)` clamp reported as exact
        // convergence. The true union is req0 | !req0 | req1 = 1.0
        // only because req0/!req0 partition the space; dropping one
        // of them must drop the union below 1.0 even though the sum
        // still reads 1.0.
        let mk = |name: &str, value: bool| Assertion {
            literals: vec![(feat(&m, name, 0), value)],
            target: Target {
                signal: m.require("gnt0").unwrap(),
                bit: 0,
                offset: 1,
            },
            value: true,
            template: TemporalTemplate::Now,
        };
        let full = [mk("req0", true), mk("req0", false), mk("req1", true)];
        assert_eq!(input_space_coverage(&full, &m), 1.0);
        assert!((reference::overlap(&full, &m) - 0.5).abs() < 1e-12);
        // req0 ∪ req1: sum = 1.0 (the clamp's fake convergence), union
        // = 0.75.
        let partial = [mk("req0", true), mk("req1", true)];
        assert_eq!(input_space_coverage(&partial, &m), 0.75);
        assert!((reference::overlap(&partial, &m) - 0.25).abs() < 1e-12);
        // A contradictory projection is an empty cube: measure zero.
        let mut contradictory = mk("req0", true);
        contradictory.literals.push((feat(&m, "req0", 0), false));
        assert_eq!(input_space_coverage(&[contradictory], &m), 0.0);
    }

    // -----------------------------------------------------------------
    // packed measure ≡ the Vec-of-literals measure it replaced
    // -----------------------------------------------------------------

    /// The measure as it was before cubes were packed into masks: one
    /// `Vec` of literals per cube, re-allocated for every cofactor.
    /// Kept as the reference the packed recursion must match bit for
    /// bit.
    mod reference {
        use super::*;

        type Cube = Vec<(Feature, bool)>;

        fn input_cube(a: &Assertion, module: &Module) -> Option<Cube> {
            let mut cube: Cube = Vec::new();
            for &(f, v) in &a.literals {
                if !module.signal(f.signal).is_input() {
                    continue;
                }
                match cube.iter().find(|(g, _)| *g == f) {
                    Some(&(_, prev)) if prev != v => return None,
                    Some(_) => {}
                    None => cube.push((f, v)),
                }
            }
            Some(cube)
        }

        pub fn cubes(assertions: &[Assertion], module: &Module) -> Vec<Cube> {
            let cubes = assertions.iter().filter_map(|a| input_cube(a, module));
            cubes.collect()
        }

        pub fn union_measure(cubes: &[Cube]) -> f64 {
            if cubes.is_empty() {
                return 0.0;
            }
            if cubes.iter().any(Vec::is_empty) {
                return 1.0;
            }
            let var = cubes[0][0].0;
            let cofactor = |val: bool| -> Vec<Cube> {
                cubes
                    .iter()
                    .filter_map(|c| {
                        let mut rest = Vec::with_capacity(c.len());
                        for &(f, v) in c {
                            if f == var {
                                if v != val {
                                    return None;
                                }
                            } else {
                                rest.push((f, v));
                            }
                        }
                        Some(rest)
                    })
                    .collect()
            };
            0.5 * union_measure(&cofactor(false)) + 0.5 * union_measure(&cofactor(true))
        }

        pub fn coverage(assertions: &[Assertion], module: &Module) -> f64 {
            union_measure(&cubes(assertions, module)).min(1.0)
        }

        pub fn overlap(assertions: &[Assertion], module: &Module) -> f64 {
            let cubes = cubes(assertions, module);
            let sum: f64 = cubes.iter().map(|c| 0.5f64.powi(c.len() as i32)).sum();
            (sum - union_measure(&cubes)).max(0.0)
        }
    }

    /// Three 64-bit inputs (384 input features over two offsets) and a
    /// register whose literals the projection drops.
    fn wide() -> gm_rtl::Module {
        parse_verilog(
            "module wide(input clk, input [63:0] a, input [63:0] b, input [63:0] c,
                         output reg [7:0] q);
               always @(posedge clk) q <= a[7:0] ^ b[7:0] ^ c[7:0];
             endmodule",
        )
        .unwrap()
    }

    /// What one random cube set contained.
    #[derive(Default)]
    struct Tally {
        over_64: usize,
        over_128: usize,
        contradictory: usize,
        empty_cube: usize,
        duplicates: usize,
        overlapping: usize,
    }

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u128) as usize
    }

    /// One random assertion set over `m`, [`wide`]. Either a handful
    /// of short cubes over a few features — heavy overlap, repeated and
    /// contradicting literals, the empty cube — or the leaves of a
    /// random tree of up to 220 leaves, some missing, some twice, a
    /// couple of its splits on the register (projected away, so whole
    /// subtrees overlap), which is the shape the engine feeds it and
    /// reaches three mask words.
    fn random_set(rng: &mut TestRng, m: &gm_rtl::Module) -> Vec<Assertion> {
        let inputs: Vec<Feature> = ["a", "b", "c"]
            .iter()
            .flat_map(|name| {
                let signal = m.require(name).unwrap();
                (0..2).flat_map(move |offset| {
                    (0..64).map(move |bit| Feature {
                        signal,
                        bit,
                        offset,
                    })
                })
            })
            .collect();
        let state = |bit: usize| Feature {
            signal: m.require("q").unwrap(),
            bit: bit as u32,
            offset: 0,
        };
        let assertion = |literals: Vec<(Feature, bool)>| Assertion {
            literals,
            target: Target {
                signal: m.require("q").unwrap(),
                bit: 0,
                offset: 1,
            },
            value: true,
            template: TemporalTemplate::Now,
        };
        let mut set: Vec<Assertion> = Vec::new();
        let short_cube = |rng: &mut TestRng, pool: usize| {
            let literals = (0..below(rng, 5)).map(|_| {
                let f = match below(rng, 6) {
                    0 => state(below(rng, 2)),
                    _ => inputs[below(rng, pool)],
                };
                (f, below(rng, 2) == 1)
            });
            assertion(literals.collect())
        };
        if below(rng, 3) == 0 {
            let pool = [2, 4, 8][below(rng, 3)];
            set.extend((0..below(rng, 9)).map(|_| short_cube(rng, pool)));
        } else {
            // Leaf paths of a random tree: split a random leaf on a
            // feature its path has not used — mostly a fresh one,
            // sometimes one another subtree already tests.
            let leaves = [5, 90, 220][below(rng, 3)];
            let mut fresh = 0;
            let mut state_splits = 0;
            let mut paths: Vec<Vec<(Feature, bool)>> = vec![Vec::new()];
            while paths.len() < leaves {
                let path = paths.swap_remove(below(rng, paths.len()));
                let reused = inputs[below(rng, fresh.max(1))];
                let f = match below(rng, 12) {
                    0 if state_splits < 2 => {
                        state_splits += 1;
                        state(state_splits)
                    }
                    1..=3 if path.iter().all(|(g, _)| *g != reused) => reused,
                    _ => {
                        fresh += 1;
                        inputs[fresh - 1]
                    }
                };
                for side in [false, true] {
                    let mut longer = path.clone();
                    longer.push((f, side));
                    paths.push(longer);
                }
            }
            for path in paths {
                match below(rng, 10) {
                    0 | 1 => {}
                    2 => set.extend([assertion(path.clone()), assertion(path)]),
                    _ => set.push(assertion(path)),
                }
            }
            if below(rng, 4) == 0 {
                set.push(short_cube(rng, 8));
            }
        }
        set
    }

    /// One random set, measured both ways (panics where the bits
    /// differ).
    fn run_case(seed: u64, tally: &mut Tally) {
        let rng = &mut TestRng::new(seed);
        let m = wide();
        let set = random_set(rng, &m);
        let cubes = reference::cubes(&set, &m);
        let mut features: Vec<Feature> = cubes.iter().flatten().map(|(f, _)| *f).collect();
        features.sort_unstable();
        features.dedup();
        let mut sorted = cubes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        tally.over_64 += usize::from(features.len() > 64);
        tally.over_128 += usize::from(features.len() > 128);
        tally.contradictory += usize::from(cubes.len() < set.len());
        tally.empty_cube += usize::from(cubes.iter().any(Vec::is_empty));
        tally.duplicates += usize::from(sorted.len() < cubes.len());

        let (packed, want) = (
            input_space_coverage(&set, &m),
            reference::coverage(&set, &m),
        );
        assert_eq!(packed.to_bits(), want.to_bits(), "{packed} vs {want}");
        tally.overlapping += usize::from(reference::overlap(&set, &m) > 0.0);
    }

    /// Cases per property: 300 in tier-1; CI's release job raises it
    /// through `PROPTEST_CASES` (see `tree/tests.rs`).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        #[test]
        fn packed_measure_equals_the_vec_reference(seed in any::<u64>()) {
            run_case(seed, &mut Tally::default());
        }
    }

    /// What one filing case compared.
    #[derive(Default)]
    struct Filings {
        /// Comparisons after a filing before the end of a list that
        /// had been measured, with the list's cubes testing at most 52
        /// features: the kept union grew by the filed cube's mass.
        exact_mid_list: usize,
        /// Comparisons with the cubes testing more than 52 features:
        /// the list was measured whole.
        wide: usize,
    }

    /// A random set filed one assertion at a time into a list — at its
    /// end, mostly, as the engine files proofs in leaf order, and now
    /// and then before the end — measured by the kept [`InputSpace`]
    /// after some filings and by [`input_space_coverage`] over the
    /// whole list: the bits agree.
    fn filing_case(seed: u64) -> Filings {
        let rng = &mut TestRng::new(seed);
        let m = wide();
        let (mut list, mut space, mut filings) =
            (Vec::new(), InputSpace::default(), Filings::default());
        let (mut measured, mut mid_list) = (0, false);
        let mut compare = |list: &[Assertion], space: &mut InputSpace, mid_list: bool| {
            let (kept, whole) = (space.coverage(list, &m), input_space_coverage(list, &m));
            assert_eq!(kept.to_bits(), whole.to_bits(), "{kept} vs {whole}");
            let mut features: Vec<Feature> = reference::cubes(list, &m)
                .into_iter()
                .flatten()
                .map(|(f, _)| f)
                .collect();
            features.sort_unstable();
            features.dedup();
            if features.len() > EXACT_FEATURES {
                filings.wide += 1;
            } else {
                filings.exact_mid_list += usize::from(mid_list);
            }
        };
        for a in random_set(rng, &m) {
            let at = match below(rng, 4) {
                0 => below(rng, list.len() + 1),
                _ => list.len(),
            };
            mid_list |= at < measured;
            list.insert(at, a);
            space.inserted(at);
            if below(rng, 3) == 0 {
                compare(&list, &mut space, mid_list);
                (measured, mid_list) = (list.len(), false);
            }
        }
        compare(&list, &mut space, mid_list);
        filings
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        #[test]
        fn kept_cubes_measure_what_the_whole_list_does(seed in any::<u64>()) {
            filing_case(seed);
        }
    }

    /// Over the very same seeds, filings before the end were compared
    /// while the kept union grew by masses, and lists past 52 features
    /// were compared too.
    #[test]
    fn the_filing_comparison_is_not_vacuous() {
        let mut total = Filings::default();
        for case in 0..cases() {
            let mut rng =
                proptest::rng_for_case("kept_cubes_measure_what_the_whole_list_does", case);
            let filings = filing_case(any::<u64>().generate(&mut rng));
            total.exact_mid_list += filings.exact_mid_list;
            total.wide += filings.wide;
        }
        println!(
            "{} exact mid-list comparisons, {} past 52 features",
            total.exact_mid_list, total.wide
        );
        assert!(
            total.exact_mid_list >= cases() as usize,
            "{} exact mid-list",
            total.exact_mid_list
        );
        let wide_floor = cases() as usize / 10;
        assert!(total.wide >= wide_floor, "{} past 52 features", total.wide);
    }

    /// Over the very same seeds, the hard shapes were all compared.
    #[test]
    fn the_measure_comparison_is_not_vacuous() {
        let mut tally = Tally::default();
        for case in 0..cases() {
            let mut rng = proptest::rng_for_case("packed_measure_equals_the_vec_reference", case);
            run_case(any::<u64>().generate(&mut rng), &mut tally);
        }
        println!(
            "{} over 64 features, {} over 128, {} contradictory, {} with the empty cube, \
             {} with duplicates, {} overlapping",
            tally.over_64,
            tally.over_128,
            tally.contradictory,
            tally.empty_cube,
            tally.duplicates,
            tally.overlapping
        );
        let floor = cases() as usize / 20;
        assert!(floor >= 15, "run at least 300 cases");
        assert!(tally.over_64 >= 2 * floor, "{} over 64", tally.over_64);
        assert!(tally.over_128 >= floor, "{} over 128", tally.over_128);
        assert!(
            tally.contradictory >= floor,
            "{} contradictory",
            tally.contradictory
        );
        assert!(
            tally.empty_cube >= floor,
            "{} empty cubes",
            tally.empty_cube
        );
        assert!(
            tally.duplicates >= 2 * floor,
            "{} duplicates",
            tally.duplicates
        );
        assert!(
            tally.overlapping >= 2 * floor,
            "{} overlapping",
            tally.overlapping
        );
    }

    #[test]
    fn multibit_atoms_show_bit_indices() {
        let m = parse_verilog(
            "module m(input clk, input [1:0] s, output reg y);
               always @(posedge clk) y <= s[0] & s[1];
             endmodule",
        )
        .unwrap();
        let a = Assertion {
            literals: vec![(
                Feature {
                    signal: m.require("s").unwrap(),
                    bit: 1,
                    offset: 0,
                },
                true,
            )],
            target: Target {
                signal: m.require("y").unwrap(),
                bit: 0,
                offset: 1,
            },
            value: false,
            template: TemporalTemplate::Now,
        };
        assert_eq!(a.to_ltl(&m), "s[1] => X !y");
        let _ = SignalId::from_raw(0);
    }
}
