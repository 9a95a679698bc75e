//! Property-based round-trips for the assertion renderers.
//!
//! Random [`Assertion`]s — multi-offset literal sets, wide-signal bit
//! atoms, every template, combinational `Now` included — are rendered through `to_ltl` / `to_psl` /
//! `to_sva` and parsed back with small test-local grammars. The recovered
//! structure (literal multiset with offsets, consequent window, template
//! shape, polarity) must match the source assertion.
//!
//! SVA is time-shift normalized: `sva_antecedent` anchors the sequence at
//! the earliest literal's cycle, so the parse is compared against the
//! assertion with all offsets shifted down by the minimum literal offset
//! (an equivalent property under `always`-style implicit clocking). LTL
//! and PSL keep absolute offsets and are compared un-shifted.

use gm_mine::{Assertion, Feature, Target, TemporalTemplate};
use gm_rtl::{parse_verilog, Module, SignalId};
use proptest::prelude::*;

/// Mixed-width fixture: `w` is 4 bits wide so atoms render as `w[i]`.
const SRC: &str = "
module rt(input clk, input a, input b, input [3:0] w, output reg y);
  always @(posedge clk) y <= a;
endmodule";

fn module() -> Module {
    parse_verilog(SRC).unwrap()
}

/// Mirror of the renderer's atom naming: bit-indexed iff the signal is
/// wider than one bit.
fn atom(m: &Module, signal: SignalId, bit: u32) -> String {
    let sig = m.signal(signal);
    if sig.width() > 1 {
        format!("{}[{bit}]", sig.name())
    } else {
        sig.name().to_string()
    }
}

/// The antecedent literal pool: single-bit signals and wide-signal bits.
fn pool(m: &Module) -> Vec<(SignalId, u32)> {
    let a = m.require("a").unwrap();
    let b = m.require("b").unwrap();
    let w = m.require("w").unwrap();
    vec![(a, 0), (b, 0), (w, 0), (w, 2), (w, 3)]
}

/// Builds an assertion from raw generator draws. Literal offsets are
/// folded into `0..=d` so the antecedent never outruns the target cycle
/// (the invariant mined candidates satisfy by construction).
fn build(
    m: &Module,
    raw_lits: &[(u32, u32, bool)],
    d: u32,
    kind: u8,
    span: u32,
    value: bool,
) -> Assertion {
    let pool = pool(m);
    let literals = raw_lits
        .iter()
        .map(|&(sig, offset, v)| {
            let (signal, bit) = pool[sig as usize % pool.len()];
            (
                Feature {
                    signal,
                    bit,
                    offset: offset % (d + 1),
                },
                v,
            )
        })
        .collect();
    let template = match kind % 4 {
        0 => TemporalTemplate::Next { shift: span },
        1 => TemporalTemplate::Eventually { bound: span },
        2 => TemporalTemplate::Stability { bound: span },
        _ => TemporalTemplate::Now,
    };
    Assertion {
        literals,
        target: Target {
            signal: m.require("y").unwrap(),
            bit: 0,
            offset: d,
        },
        value,
        template,
    }
}

/// Template shape recovered from concrete syntax.
#[derive(Debug, PartialEq, Eq)]
enum Shape {
    /// A single implied cycle (`##N lit` / `next[n]`, or PSL's bare
    /// literal at offset 0).
    Point,
    /// An existential window (`##[lo:hi]` / `next_e`).
    Range,
    /// A universal window as consecutive repetition (`[*m]` / `next_a`).
    Repeat(u32),
}

/// Renderer-independent normal form of an assertion.
#[derive(Debug, PartialEq, Eq)]
struct Norm {
    /// `(atom, cycle, polarity)` literal multiset, sorted.
    ant: Vec<(String, u32, bool)>,
    cons: (String, bool),
    lo: u32,
    hi: u32,
    shape: Shape,
}

/// What every parser must recover, shifted down by `base` cycles.
fn expected(m: &Module, a: &Assertion, base: u32) -> Norm {
    let mut ant: Vec<_> = a
        .literals
        .iter()
        .map(|(f, v)| (atom(m, f.signal, f.bit), f.offset - base, *v))
        .collect();
    ant.sort();
    let offsets = a.consequent_offsets();
    let shape = match a.template {
        TemporalTemplate::Now | TemporalTemplate::Next { .. } => Shape::Point,
        TemporalTemplate::Eventually { .. } => Shape::Range,
        TemporalTemplate::Stability { bound } => Shape::Repeat(bound + 1),
    };
    Norm {
        ant,
        cons: (atom(m, a.target.signal, a.target.bit), a.value),
        lo: *offsets.start() - base,
        hi: *offsets.end() - base,
        shape,
    }
}

/// The SVA anchor cycle: the earliest literal offset (0 when empty).
fn sva_base(a: &Assertion) -> u32 {
    a.literals.iter().map(|(f, _)| f.offset).min().unwrap_or(0)
}

fn split_literal(tok: &str) -> (String, bool) {
    match tok.strip_prefix('!') {
        Some(name) => (name.to_string(), false),
        None => (tok.to_string(), true),
    }
}

/// Parses `@(posedge clk) seq |-> cons;` back into normal form.
fn parse_sva(s: &str) -> (String, Norm) {
    let s = s.strip_prefix("@(posedge ").expect("clocking event");
    let (clock, rest) = s.split_once(") ").expect("close clocking");
    let rest = rest.strip_suffix(';').expect("trailing semicolon");
    let (ant_s, cons_s) = rest.split_once(" |-> ").expect("overlapped implication");

    let mut ant = Vec::new();
    let mut last = 0u32;
    if ant_s != "1" {
        let mut pos = 0u32;
        for tok in ant_s.split_whitespace() {
            if tok == "&&" {
                continue;
            }
            if let Some(delay) = tok.strip_prefix("##") {
                pos += delay.parse::<u32>().expect("##N delay");
            } else {
                let (name, v) = split_literal(tok);
                ant.push((name, pos, v));
                last = pos;
            }
        }
    }
    ant.sort();

    let toks: Vec<&str> = cons_s.split_whitespace().collect();
    let (shape, lo, hi) = if let Some(range) = toks[0].strip_prefix("##[") {
        let (a, b) = range
            .strip_suffix(']')
            .and_then(|r| r.split_once(':'))
            .expect("##[lo:hi]");
        let (a, b) = (a.parse::<u32>().unwrap(), b.parse::<u32>().unwrap());
        (Shape::Range, last + a, last + b)
    } else {
        let n: u32 = toks[0].strip_prefix("##").unwrap().parse().unwrap();
        match toks.get(2) {
            Some(rep) => {
                let m: u32 = rep
                    .strip_prefix("[*")
                    .and_then(|r| r.strip_suffix(']'))
                    .expect("[*m] repetition")
                    .parse()
                    .unwrap();
                (Shape::Repeat(m), last + n, last + n + m - 1)
            }
            None => (Shape::Point, last + n, last + n),
        }
    };
    let (cname, cv) = split_literal(toks[1]);
    (
        clock.to_string(),
        Norm {
            ant,
            cons: (cname, cv),
            lo,
            hi,
            shape,
        },
    )
}

/// Parses an LTL atom of the form `X X !name` into `(name, depth, value)`.
fn parse_ltl_atom(s: &str) -> (String, u32, bool) {
    let mut depth = 0u32;
    let mut rest = s;
    while let Some(r) = rest.strip_prefix("X ") {
        depth += 1;
        rest = r;
    }
    let (name, v) = split_literal(rest);
    (name, depth, v)
}

/// Parses `ant => cons` back into normal form. LTL keeps absolute
/// offsets, so compare against `expected(.., base = 0)`.
fn parse_ltl(s: &str) -> Norm {
    let (ant_s, cons_s) = s.split_once(" => ").expect("exactly one implication");
    let mut ant = Vec::new();
    if ant_s != "true" {
        for part in ant_s.split(" & ") {
            ant.push(parse_ltl_atom(part));
        }
    }
    ant.sort();

    let (cname, depth, shape, span, cv) = {
        let (name, depth, v) = parse_ltl_atom(cons_s);
        // The residual operator (if any) survives in `name` because
        // parse_ltl_atom only strips `X ` prefixes: e.g. `F<=2 y`.
        if let Some((op, lit)) = name.split_once(' ') {
            let (shape, bound) = if let Some(b) = op.strip_prefix("F<=") {
                (Shape::Range, b.parse::<u32>().unwrap())
            } else if let Some(b) = op.strip_prefix("G<=") {
                let b: u32 = b.parse().unwrap();
                (Shape::Repeat(b + 1), b)
            } else {
                panic!("unknown LTL operator {op:?}");
            };
            let (lname, lv) = split_literal(lit);
            (lname, depth, shape, bound, lv)
        } else {
            (name, depth, Shape::Point, 0, v)
        }
    };
    Norm {
        ant,
        cons: (cname, cv),
        lo: depth,
        hi: depth + span,
        shape,
    }
}

/// Parses `always ((ant) -> cons);` back into normal form (absolute
/// offsets, like LTL).
fn parse_psl(s: &str) -> Norm {
    let (ant_s, cons_s) = s.split_once(" -> ").expect("exactly one arrow");
    let ant_s = ant_s
        .strip_prefix("always ((")
        .and_then(|a| a.strip_suffix(')'))
        .expect("parenthesized antecedent");
    let cons_s = cons_s.strip_suffix(");").expect("closing paren");

    let mut ant = Vec::new();
    if ant_s != "true" {
        for part in ant_s.split(" && ") {
            if let Some(rest) = part.strip_prefix("next[") {
                let (k, lit) = rest.split_once("] (").expect("next[k] (lit)");
                let lit = lit.strip_suffix(')').unwrap();
                let (name, v) = split_literal(lit);
                ant.push((name, k.parse::<u32>().unwrap(), v));
            } else {
                let (name, v) = split_literal(part);
                ant.push((name, 0, v));
            }
        }
    }
    ant.sort();

    // A point consequent at offset 0 is the bare literal.
    let Some((op, rest)) = cons_s.split_once('[') else {
        return Norm {
            ant,
            cons: split_literal(cons_s),
            lo: 0,
            hi: 0,
            shape: Shape::Point,
        };
    };
    let (window, lit) = rest.split_once("] (").expect("window then literal");
    let lit = lit.strip_suffix(')').unwrap();
    let (cname, cv) = split_literal(lit);
    let (shape, lo, hi) = match op {
        "next" => {
            let k: u32 = window.parse().unwrap();
            assert!(k > 0, "a point consequent at offset 0 renders bare: {s}");
            (Shape::Point, k, k)
        }
        "next_e" | "next_a" => {
            let (a, b) = window.split_once("..").expect("lo..hi window");
            let (a, b) = (a.parse::<u32>().unwrap(), b.parse::<u32>().unwrap());
            let shape = if op == "next_e" {
                Shape::Range
            } else {
                Shape::Repeat(b - a + 1)
            };
            (shape, a, b)
        }
        other => panic!("unknown PSL operator {other:?}"),
    };
    Norm {
        ant,
        cons: (cname, cv),
        lo,
        hi,
        shape,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn renderings_round_trip(
        raw_lits in prop::collection::vec((0u32..16, 0u32..8, prop::bool::ANY), 0..5),
        shape_raw in (0u32..4, 0u8..4, 1u32..4),
        value in prop::bool::ANY,
    ) {
        let (d, kind, span) = shape_raw;
        let m = module();
        let a = build(&m, &raw_lits, d, kind, span, value);

        // SVA: anchored at the earliest literal cycle.
        let (clock, sva) = parse_sva(&a.to_sva(&m));
        prop_assert_eq!(&clock, "clk");
        prop_assert_eq!(&sva, &expected(&m, &a, sva_base(&a)), "sva: {}", a.to_sva(&m));

        // LTL and PSL: absolute offsets.
        let want = expected(&m, &a, 0);
        prop_assert_eq!(&parse_ltl(&a.to_ltl(&m)), &want, "ltl: {}", a.to_ltl(&m));
        prop_assert_eq!(&parse_psl(&a.to_psl(&m)), &want, "psl: {}", a.to_psl(&m));
    }

    #[test]
    fn consequent_offsets_match_the_rendered_window(
        shape_raw in (0u8..4, 1u32..4, 0u32..4),
    ) {
        let (kind, span, d) = shape_raw;
        // With no antecedent literals every renderer is absolute, so the
        // parsed window must be exactly `consequent_offsets()`.
        let m = module();
        let a = build(&m, &[], d, kind, span, true);
        let offsets = a.consequent_offsets();
        for norm in [parse_sva(&a.to_sva(&m)).1, parse_ltl(&a.to_ltl(&m)), parse_psl(&a.to_psl(&m))] {
            prop_assert_eq!(norm.lo, *offsets.start());
            prop_assert_eq!(norm.hi, *offsets.end());
        }
    }
}

#[test]
fn empty_antecedent_renders_the_trivial_guard() {
    let m = module();
    let a = build(&m, &[], 1, 1, 2, true);
    assert_eq!(a.to_ltl(&m), "true => X F<=2 y");
    assert_eq!(a.to_psl(&m), "always ((true) -> next_e[1..3] (y));");
    assert_eq!(a.to_sva(&m), "@(posedge clk) 1 |-> ##[1:3] y;");
}

#[test]
fn same_offset_literals_group_without_a_zero_delay() {
    // Two literals in one cycle must share an SVA group (` && `), not be
    // separated by a spurious `##0`; negation binds to the bit atom.
    let m = module();
    let w = m.require("w").unwrap();
    let a = Assertion {
        literals: vec![
            (
                Feature {
                    signal: m.require("a").unwrap(),
                    bit: 0,
                    offset: 1,
                },
                true,
            ),
            (
                Feature {
                    signal: w,
                    bit: 3,
                    offset: 1,
                },
                false,
            ),
            (
                Feature {
                    signal: w,
                    bit: 0,
                    offset: 2,
                },
                true,
            ),
        ],
        target: Target {
            signal: m.require("y").unwrap(),
            bit: 0,
            offset: 2,
        },
        value: false,
        template: TemporalTemplate::Next { shift: 2 },
    };
    assert_eq!(
        a.to_sva(&m),
        "@(posedge clk) a && !w[3] ##1 w[0] |-> ##2 !y;"
    );
    assert_eq!(a.to_ltl(&m), "X a & X !w[3] & X X w[0] => X X X X !y");
    assert_eq!(
        a.to_psl(&m),
        "always ((next[1] (a) && next[1] (!w[3]) && next[2] (w[0])) -> next[4] (!y));"
    );
}

#[test]
fn precedence_survives_operator_nesting() {
    // A bounded operator applied under `X` nesting keeps its bound
    // attached to the operator, not the implication: `X G<=k lit`, with
    // the antecedent conjunction closed off before `=>`.
    let m = module();
    let raw = [(0, 0, true), (1, 1, false)];
    let a = build(&m, &raw, 1, 2, 3, false);
    let ltl = a.to_ltl(&m);
    let (ant, cons) = ltl.split_once(" => ").unwrap();
    assert_eq!(ant, "a & X !b");
    assert_eq!(cons, "X G<=3 !y");
    // And in PSL the whole antecedent sits inside its own parens.
    assert_eq!(
        a.to_psl(&m),
        "always ((a && next[1] (!b)) -> next_a[1..4] (!y));"
    );
}
