use super::*;
use crate::blast::blast;
use crate::bmc::{bmc, k_induction};
use crate::prop::{BitAtom, WindowProperty};
use crate::session::CheckSession;
use crate::testgen::{
    self, random_module, random_property, random_temporal_property, seeded_recipe, Recipe,
};
use gm_rtl::{elaborate, parse_verilog, Module, SignalId};
use gm_sim::{NopObserver, Simulator};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

const ARBITER2: &str = "
module arbiter2(input clk, input rst, input req0, input req1,
                output reg gnt0, output reg gnt1);
  always @(posedge clk)
    if (rst) begin
      gnt0 <= 0; gnt1 <= 0;
    end else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule";

fn setup(src: &str) -> (Module, Blasted, ReachableStates) {
    setup_module(parse_verilog(src).unwrap())
}

fn setup_module(m: Module) -> (Module, Blasted, ReachableStates) {
    let e = elaborate(&m).unwrap();
    let b = blast(&m, &e).unwrap();
    let r = ReachableStates::explore(&b, &ExplicitLimits::default()).unwrap();
    (m, b, r)
}

/// The tabled pass alone, whatever the table budget says, on `scratch`.
fn tabled_on(
    scratch: &mut ExplicitScratch,
    _m: &Module,
    b: &Blasted,
    r: &ReachableStates,
    p: &WindowProperty,
) -> CheckResult {
    scratch.terms.fill(b, p);
    explicit_check_cached(b, r, scratch)
}

/// The tabled pass alone on a fresh scratch.
fn tabled(m: &Module, b: &Blasted, r: &ReachableStates, p: &WindowProperty) -> CheckResult {
    tabled_on(&mut ExplicitScratch::default(), m, b, r, p)
}

/// The direct walk alone: the reference.
fn walk(_m: &Module, b: &Blasted, r: &ReachableStates, p: &WindowProperty) -> CheckResult {
    let mut terms = Terms::default();
    terms.fill(b, p);
    explicit_check_direct(b, r, &terms)
}

/// One scratch carried through a whole sweep, and a record of how the
/// work handed to it moved: a check deeper or shallower than the one
/// before it, and one over a design of another pair-word count.
#[derive(Default)]
struct Carried {
    scratch: ExplicitScratch,
    last: Option<(usize, usize)>,
    deeper: usize,
    shallower: usize,
    rewidened: usize,
}

impl Carried {
    fn tabled(
        &mut self,
        m: &Module,
        b: &Blasted,
        r: &ReachableStates,
        p: &WindowProperty,
    ) -> CheckResult {
        let now = (p.depth() as usize, (r.pairs() as usize).div_ceil(64));
        if let Some((depth, words)) = self.last {
            self.deeper += usize::from(now.0 > depth);
            self.shallower += usize::from(now.0 < depth);
            self.rewidened += usize::from(now.1 != words);
        }
        self.last = Some(now);
        tabled_on(&mut self.scratch, m, b, r, p)
    }
}

#[test]
fn arbiter_reachable_states_exclude_double_grant() {
    let (_m, _b, r) = setup(ARBITER2);
    // gnt0 and gnt1 can never be high simultaneously: 3 states, not 4.
    assert_eq!(r.len(), 3);
    assert!(!r.states.contains(&0b11));
}

#[test]
fn mutual_exclusion_is_proved() {
    let (m, b, r) = setup(ARBITER2);
    let gnt0 = m.require("gnt0").unwrap();
    let gnt1 = m.require("gnt1").unwrap();
    // gnt0@0 |-> !gnt1@0 — holds on reachable states only.
    let prop = WindowProperty::implication(
        vec![BitAtom::new(gnt0, 0, 0, true)],
        BitAtom::new(gnt1, 0, 0, false),
    );
    let res = explicit_check(&b, &r, &prop, &ExplicitLimits::default()).unwrap();
    assert_eq!(res, CheckResult::Proved);
}

#[test]
fn paper_assertion_a0_is_violated_with_trace() {
    let (m, b, r) = setup(ARBITER2);
    let req0 = m.require("req0").unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    // The paper's A0: !req0@0 |-> gnt0@1 — spurious.
    let prop = WindowProperty::implication(
        vec![BitAtom::new(req0, 0, 0, false)],
        BitAtom::new(gnt0, 0, 1, true),
    );
    match explicit_check(&b, &r, &prop, &ExplicitLimits::default()).unwrap() {
        CheckResult::Violated(cex) => {
            // Replaying the trace must end with the violation: verify
            // by simulation.
            let mut sim = gm_sim::Simulator::new(&m).unwrap();
            let rst = m.require("rst").unwrap();
            sim.set_input(rst, gm_rtl::Bv::one_bit());
            sim.step();
            sim.set_input(rst, gm_rtl::Bv::zero_bit());
            let trace = sim.run_vectors(&cex.inputs(), &mut gm_sim::NopObserver);
            let last = trace.len() - 1;
            assert!(
                !trace.bit(last - 1, req0, 0),
                "antecedent holds at window start"
            );
            assert!(!trace.bit(last, gnt0, 0), "consequent fails at window end");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn paper_assertion_a2_is_proved() {
    let (m, b, r) = setup(ARBITER2);
    let req0 = m.require("req0").unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    // A2: !req0@0 & !req0@1 |-> !gnt0@2 (paper: ~req0 & X~req0 => XX~gnt0).
    let prop = WindowProperty::implication(
        vec![
            BitAtom::new(req0, 0, 0, false),
            BitAtom::new(req0, 0, 1, false),
        ],
        BitAtom::new(gnt0, 0, 2, false),
    );
    let res = explicit_check(&b, &r, &prop, &ExplicitLimits::default()).unwrap();
    assert_eq!(res, CheckResult::Proved);
}

#[test]
fn cached_walk_matches_direct_walk_exactly() {
    // Cross-validate the live-set pass over the tables against the
    // direct depth-first walk on proved and violated properties alike —
    // verdicts and traces must be bit-identical.
    let (m, b, r) = setup(ARBITER2);
    assert!(r.cache_enabled());
    let req0 = m.require("req0").unwrap();
    let req1 = m.require("req1").unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let gnt1 = m.require("gnt1").unwrap();
    let props = vec![
        WindowProperty::implication(
            vec![BitAtom::new(req0, 0, 0, false)],
            BitAtom::new(gnt0, 0, 1, true),
        ),
        WindowProperty::implication(
            vec![BitAtom::new(gnt0, 0, 0, true)],
            BitAtom::new(gnt1, 0, 0, false),
        ),
        WindowProperty::implication(
            vec![
                BitAtom::new(req0, 0, 0, true),
                BitAtom::new(req1, 0, 1, false),
            ],
            BitAtom::new(gnt0, 0, 2, true),
        ),
    ];
    for p in &props {
        assert_eq!(
            tabled(&m, &b, &r, p),
            walk(&m, &b, &r, p),
            "tables diverged on {}",
            p.display(&m)
        );
    }
    let stats = r.cache_stats();
    assert_eq!(stats.entries, 3 * 4, "successor table covers every pair");
    assert_eq!(stats.obs_nodes, 4, "one bitset per distinct node");
    // Re-checking does no new passes over the pairs: everything is warm.
    let passes = stats.eval_passes;
    for p in &props {
        let _ = tabled(&m, &b, &r, p);
    }
    assert_eq!(r.cache_stats().eval_passes, passes);
}

#[test]
fn clone_resets_the_cache_but_keeps_the_states() {
    let (m, b, r) = setup(ARBITER2);
    let gnt0 = m.require("gnt0").unwrap();
    let gnt1 = m.require("gnt1").unwrap();
    let prop = WindowProperty::implication(
        vec![BitAtom::new(gnt0, 0, 0, true)],
        BitAtom::new(gnt1, 0, 0, false),
    );
    explicit_check(&b, &r, &prop, &ExplicitLimits::default()).unwrap();
    assert!(r.cache_stats().entries > 0);
    let fresh = r.clone();
    assert_eq!(fresh.states, r.states);
    assert_eq!(fresh.cache_stats().entries, 0, "clone starts cold");
    assert_eq!(
        explicit_check(&b, &fresh, &prop, &ExplicitLimits::default()).unwrap(),
        CheckResult::Proved
    );
}

#[test]
fn limits_are_enforced() {
    let m = parse_verilog(
        "module m(input clk, input [7:0] d, output reg [7:0] q);
           always @(posedge clk) q <= d;
         endmodule",
    )
    .unwrap();
    let e = elaborate(&m).unwrap();
    let b = blast(&m, &e).unwrap();
    let tight = ExplicitLimits {
        max_input_bits: 4,
        ..ExplicitLimits::default()
    };
    assert!(matches!(
        ReachableStates::explore(&b, &tight),
        Err(McError::InputTooWide { .. })
    ));
}

/// Decides `prop` on the tables, on the carried scratch, and by the
/// direct walk and requires the same verdict and trace.
fn tabled_like_the_walk(
    carried: &mut Carried,
    (m, b, r): &(Module, Blasted, ReachableStates),
    prop: &WindowProperty,
    shown: impl std::fmt::Display,
) -> Result<CheckResult, TestCaseError> {
    let result = carried.tabled(m, b, r, prop);
    prop_assert_eq!(
        &result,
        &walk(m, b, r, prop),
        "{} inputs, {} states: {}",
        r.input_bits,
        r.len(),
        shown
    );
    Ok(result)
}

/// Decides random properties of both kinds on random modules of every
/// word-boundary shape both ways and requires identical verdicts and
/// traces: input widths below 6 bits put several states in one flat
/// word (pair counts off the multiple of 64), widths from 6 up put
/// several words in one state; no registers is a single-state
/// latch-free design. Every tabled check runs on one scratch, carried
/// across the designs, depths and consequent kinds. Returns how many
/// properties were proved, how many violated at depth 2 or more, and
/// how many multi-consequent ones were violated over bitsets of more
/// than one word, and the carried scratch.
fn identity_sweep(bytes: &[u8]) -> Result<(usize, usize, usize, Carried), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let mut carried = Carried::default();
    let (mut proved, mut deep_violations, mut wide_temporal) = (0, 0, 0);
    for inputs in [0usize, 1, 3, 5, 6, 7, 8] {
        for regs in [0usize, 1, 3] {
            let (module, sigs) = random_module(inputs, regs, &mut recipe);
            let design = setup_module(module);
            let (m, _, r) = &design;
            prop_assert!(r.cache_enabled());
            // The direct walk is exponential in the window: keep
            // (depth + 1) * inputs within 16 bits.
            let max_depth = (16 / inputs.max(1)).clamp(1, 4) as u32 - 1;
            for _ in 0..4 {
                let depth = recipe.next() as u32 % (max_depth + 1);
                let window = random_property(&sigs, depth, &mut recipe);
                prop_assert_eq!(window.depth(), depth);
                match tabled_like_the_walk(&mut carried, &design, &window, window.display(m))? {
                    CheckResult::Proved => proved += 1,
                    CheckResult::Violated(_) if depth >= 2 => deep_violations += 1,
                    _ => {}
                }
                let temporal = random_temporal_property(&sigs, depth, &mut recipe);
                prop_assert_eq!(temporal.depth(), depth);
                let result =
                    tabled_like_the_walk(&mut carried, &design, &temporal, temporal.display(m))?;
                if result != CheckResult::Proved && r.pairs() > 64 {
                    wide_temporal += 1;
                }
            }
        }
    }
    Ok((proved, deep_violations, wide_temporal, carried))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_set_pass_matches_the_direct_walk(
        bytes in prop::collection::vec(any::<u8>(), 256..1024),
    ) {
        identity_sweep(&bytes)?;
    }
}

#[test]
fn identity_sweep_sees_both_verdicts() {
    // The sweep above is only worth its name if its random properties
    // are neither all vacuous nor all refuted at the first cycle.
    let (mut proved, mut deep_violations, mut wide_temporal) = (0, 0, 0);
    for seed in 0u64..16 {
        let (p, v, w, _) = identity_sweep(&seeded_recipe(seed, 200)).unwrap();
        proved += p;
        deep_violations += v;
        wide_temporal += w;
    }
    assert!(proved >= 100, "{proved} proved");
    assert!(
        deep_violations >= 100,
        "{deep_violations} violated at depth >= 2"
    );
    assert!(
        wide_temporal >= 100,
        "{wide_temporal} multi-consequent violations over multi-word bitsets"
    );
}

#[test]
fn the_carried_scratch_sees_its_work_grow_and_shrink() {
    // One scratch per sweep only proves reuse if the work handed to it
    // moves both ways: a deeper window after a shallower one (the live
    // sets grow), a shallower one after a deeper one (stale offsets
    // past the window stay behind), and a design of another pair-word
    // count (every set is resized).
    let (mut deeper, mut shallower, mut rewidened) = (0, 0, 0);
    for seed in 0u64..16 {
        let (.., carried) = identity_sweep(&seeded_recipe(seed, 200)).unwrap();
        deeper += carried.deeper;
        shallower += carried.shallower;
        rewidened += carried.rewidened;
    }
    assert!(deeper >= 100, "{deeper} steps to a deeper window");
    assert!(shallower >= 100, "{shallower} steps to a shallower window");
    assert!(
        rewidened >= 100,
        "{rewidened} changes of the pair-word count"
    );
}

/// Decides random properties of both kinds, depths 0–3, on one
/// [`CheckSession`] per random design — its scratch carried from query
/// to query — and requires each verdict and trace to be
/// [`explicit_check`]'s on a fresh scratch. Returns how many were
/// proved and how many violated.
fn session_sweep(bytes: &[u8]) -> Result<(usize, usize), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let limits = ExplicitLimits::default();
    let (mut proved, mut violated) = (0, 0);
    for _ in 0..3 {
        let (inputs, regs) = (1 + recipe.next() % 7, recipe.next() % 4);
        let (module, sigs) = random_module(inputs, regs, &mut recipe);
        let (m, b, r) = setup_module(module);
        let mut session = CheckSession::new(Arc::new(b.clone()));
        for _ in 0..8 {
            let depth = recipe.next() as u32 % 4;
            let prop = match recipe.next() % 2 {
                0 => random_property(&sigs, depth, &mut recipe),
                _ => random_temporal_property(&sigs, depth, &mut recipe),
            };
            let fresh = explicit_check(&b, &r, &prop, &limits).unwrap();
            let kept = session.explicit(&r, &prop, &limits).unwrap();
            prop_assert_eq!(&kept, &fresh, "{}", prop.display(&m));
            match fresh {
                CheckResult::Proved => proved += 1,
                _ => violated += 1,
            }
        }
        prop_assert_eq!(session.stats().explicit_queries, 8);
    }
    Ok((proved, violated))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_session_decides_like_a_fresh_scratch(
        bytes in prop::collection::vec(any::<u8>(), 256..1024),
    ) {
        session_sweep(&bytes)?;
    }
}

#[test]
fn the_session_sweep_sees_both_verdicts() {
    let (mut proved, mut violated) = (0, 0);
    for seed in 0u64..16 {
        let (p, v) = session_sweep(&seeded_recipe(seed, 200)).unwrap();
        proved += p;
        violated += v;
    }
    assert!(
        proved >= 50 && violated >= 50,
        "{proved} proved, {violated} violated"
    );
}

/// Replays `cex` on the interpreter and evaluates `prop` on the trace's
/// last window, from the property's definition: whether the window
/// violates it, and the offset of its earliest failing consequent.
fn replay(m: &Module, prop: &WindowProperty, cex: &CexTrace) -> (bool, Option<u32>) {
    let mut sim = Simulator::new(m).unwrap();
    let trace = sim.run_vectors(&cex.inputs(), &mut NopObserver);
    let Some(base) = trace.len().checked_sub(prop.depth() as usize + 1) else {
        return (false, None);
    };
    let holds = |a: &BitAtom| trace.bit(base + a.offset as usize, a.signal, a.bit) == a.value;
    let failing: Vec<u32> = (prop.consequents.iter())
        .filter(|c| !holds(c))
        .map(|c| c.offset)
        .collect();
    let consequent_fails = match prop.kind {
        ConsequentKind::All => !failing.is_empty(),
        ConsequentKind::Any => failing.len() == prop.consequents.len(),
    };
    let violated = prop.antecedent.iter().all(holds) && consequent_fails;
    (violated, failing.into_iter().min())
}

/// What [`engines_sweep`] compared, for its non-vacuity floors.
#[derive(Debug, Default)]
struct Tally {
    violated_all: usize,
    violated_any: usize,
    /// Violations whose earliest failing consequent sits below the
    /// window's last cycle.
    early_failures: usize,
    proved: usize,
    /// Proofs that hold because no reachable window completes the
    /// antecedent.
    vacuous: usize,
}

/// Window starts the one-shot SAT engines scan: short of the deepest
/// state of a three-register module, so both sides of "violated within
/// the bound" occur.
const SAT_BOUND: u32 = 4;

/// Decides random multi-consequent properties of depth 0–3 on random
/// modules of 0–3 registers and 1–3 inputs on the tables, and holds
/// the verdict against three independent references: the direct walk
/// (verdict and trace), the one-shot [`bmc`] and [`k_induction`]
/// (verdicts), and — for a violation — the interpreter replaying the
/// trace.
fn engines_sweep(bytes: &[u8], tally: &mut Tally) -> Result<(), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let mut carried = Carried::default();
    for _ in 0..3 {
        let (regs, inputs) = (recipe.next() % 4, 1 + recipe.next() % 3);
        let (module, sigs) = random_module(inputs, regs, &mut recipe);
        let design = setup_module(module);
        let (m, b, r) = &design;
        for _ in 0..4 {
            let depth = recipe.next() as u32 % 4;
            let prop = random_temporal_property(&sigs, depth, &mut recipe);
            let exact = tabled_like_the_walk(&mut carried, &design, &prop, prop.display(m))?;
            let sat = [
                ("bmc", bmc(b, &prop, SAT_BOUND)),
                ("k-induction", k_induction(b, &prop, SAT_BOUND)),
            ];
            match &exact {
                CheckResult::Proved => {
                    for (engine, res) in &sat {
                        prop_assert!(
                            !matches!(res, CheckResult::Violated(_)),
                            "{} refuted the proved {}",
                            engine,
                            prop.display(m)
                        );
                    }
                    tally.proved += 1;
                    let antecedent_alone = WindowProperty {
                        consequents: Vec::new(),
                        kind: ConsequentKind::Any,
                        ..prop.clone()
                    };
                    if carried.tabled(m, b, r, &antecedent_alone) == CheckResult::Proved {
                        tally.vacuous += 1;
                    }
                }
                CheckResult::Violated(cex) => {
                    // States are numbered in breadth-first order, so the
                    // lowest violating start is a nearest one: the scans
                    // reach a violation exactly when it is within their
                    // bound, and then at the same start.
                    let start = cex.len() - depth as usize - 1;
                    for (engine, res) in &sat {
                        match res {
                            CheckResult::Violated(found) => prop_assert_eq!(
                                found.len(),
                                cex.len(),
                                "{} on {}",
                                engine,
                                prop.display(m)
                            ),
                            CheckResult::Unknown { .. } => prop_assert!(
                                start > SAT_BOUND as usize,
                                "{} missed the violation of {} at start {}",
                                engine,
                                prop.display(m),
                                start
                            ),
                            CheckResult::Proved => prop_assert!(
                                false,
                                "{} proved the violated {}",
                                engine,
                                prop.display(m)
                            ),
                        }
                    }
                    let (violated, first_failure) = replay(m, &prop, cex);
                    prop_assert!(violated, "{} does not replay", prop.display(m));
                    match prop.kind {
                        ConsequentKind::All => tally.violated_all += 1,
                        ConsequentKind::Any => tally.violated_any += 1,
                    }
                    if first_failure.is_some_and(|offset| offset < depth) {
                        tally.early_failures += 1;
                    }
                }
                CheckResult::Unknown { .. } => prop_assert!(false, "explicit cannot be unknown"),
            }
        }
    }
    Ok(())
}

/// Cases per property: 200 in tier-1 (see [`testgen::cases`]).
fn cases() -> u32 {
    testgen::cases(200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn tables_agree_with_the_walk_the_sat_engines_and_the_interpreter(
        bytes in prop::collection::vec(any::<u8>(), 256..1024),
    ) {
        engines_sweep(&bytes, &mut Tally::default())?;
    }
}

/// The property above is only as strong as what its cases reach: over
/// the very same seeds, count the hard paths that were compared.
#[test]
fn the_engines_sweep_is_not_vacuous() {
    let mut tally = Tally::default();
    let recipes = prop::collection::vec(any::<u8>(), 256..1024);
    for case in 0..cases() {
        let mut rng = proptest::rng_for_case(
            "tables_agree_with_the_walk_the_sat_engines_and_the_interpreter",
            case,
        );
        engines_sweep(&recipes.generate(&mut rng), &mut tally).unwrap();
    }
    println!("{tally:?}");
    // Twelve properties a case.
    let floor = cases() as usize;
    assert!(floor >= 200, "run at least 200 cases");
    assert!(tally.violated_all >= floor, "{tally:?}");
    assert!(tally.violated_any >= floor, "{tally:?}");
    assert!(tally.early_failures >= floor, "{tally:?}");
    assert!(tally.vacuous >= floor, "{tally:?}");
    assert!(tally.proved - tally.vacuous >= floor, "{tally:?}");
}

#[test]
fn empty_consequent_lists_mean_what_the_sat_encoding_documents() {
    // `All` of nothing holds, so it is never violated; `Any` of nothing
    // fails, so it is violated wherever the antecedent is satisfiable.
    let design = setup(ARBITER2);
    let (m, b, _) = &design;
    let gnt0 = m.require("gnt0").unwrap();
    let gnt1 = m.require("gnt1").unwrap();
    let reachable = vec![BitAtom::new(gnt0, 0, 1, true)];
    let unreachable = vec![
        BitAtom::new(gnt0, 0, 0, true),
        BitAtom::new(gnt1, 0, 0, true),
    ];
    for (antecedent, kind, violated) in [
        (&reachable, ConsequentKind::All, false),
        (&reachable, ConsequentKind::Any, true),
        (&unreachable, ConsequentKind::All, false),
        (&unreachable, ConsequentKind::Any, false),
    ] {
        let prop = WindowProperty {
            antecedent: antecedent.clone(),
            consequents: Vec::new(),
            kind,
        };
        let exact =
            tabled_like_the_walk(&mut Carried::default(), &design, &prop, prop.display(m)).unwrap();
        let refuted = bmc(b, &prop, 4);
        if violated {
            // Nearest start: one cycle to raise gnt0, then the window.
            let CheckResult::Violated(cex) = &exact else {
                panic!("{}: {exact:?}", prop.display(m));
            };
            assert_eq!(cex.len(), 2);
            assert!(replay(m, &prop, cex).0);
            assert!(matches!(&refuted, CheckResult::Violated(found) if found.len() == 2));
        } else {
            assert_eq!(exact, CheckResult::Proved, "{}", prop.display(m));
            assert_eq!(refuted, CheckResult::Unknown { bound: 4 });
        }
    }
}

#[test]
fn the_window_budget_bounds_the_walk_only() {
    let limits = ExplicitLimits::default();
    // On the tables a window costs one pass per cycle, however wide:
    // four cycles of fetch_stage's seven input bits are over the
    // 24-bit budget and decided all the same.
    let (m, b, r) = setup_module(gm_designs::fetch_stage());
    assert!(r.cache_enabled());
    let stall = m.require("stall_in").unwrap();
    let valid = m.require("valid").unwrap();
    let wide = WindowProperty::implication(
        vec![BitAtom::new(stall, 0, 0, true)],
        BitAtom::new(valid, 0, 3, true),
    );
    assert!((wide.depth() + 1) * r.input_bits > limits.max_window_bits);
    assert!(matches!(
        explicit_check(&b, &r, &wide, &limits),
        Ok(CheckResult::Violated(_))
    ));
    // Over the table budget the walk enumerates input sequences, and
    // the budget refuses what it always refused.
    let (m, b, r) = setup(
        "module m(input clk, input [11:0] d, output reg [10:0] q, output y);
           always @(posedge clk) q <= q + 11'd1;
           assign y = d[0];
         endmodule",
    );
    assert!(!r.cache_enabled(), "{} pairs", r.pairs());
    let (q, y) = (m.require("q").unwrap(), m.require("y").unwrap());
    let prop = WindowProperty::implication(
        vec![BitAtom::new(q, 0, 0, true)],
        BitAtom::new(y, 0, 2, true),
    );
    assert_eq!(
        explicit_check(&b, &r, &prop, &limits),
        Err(McError::WindowTooWide {
            bits: 36,
            limit: 24
        })
    );
}

/// The scalar reachable-set build the lane evaluator replaced: one
/// `Aig::eval` per `(state, input)` pair, breadth-first.
fn scalar_explore(aig: &Aig) -> (Vec<u64>, Vec<Option<(usize, u64)>>) {
    let (state_bits, input_bits) = (aig.latch_count() as u32, aig.input_count() as u32);
    let mut states = vec![pack(&aig.initial_state())];
    let mut parent = vec![None];
    let mut head = 0;
    while head < states.len() {
        let latches = unpack(states[head], state_bits);
        for u in 0..1u64 << input_bits {
            let vals = aig.eval(&unpack(u, input_bits), &latches);
            let next = pack(&aig.next_state(&vals));
            if !states.contains(&next) {
                states.push(next);
                parent.push(Some((head, u)));
            }
        }
        head += 1;
    }
    (states, parent)
}

#[test]
fn lane_evaluation_matches_scalar_evaluation_on_the_catalog() {
    for module in [
        gm_designs::arbiter4(),
        gm_designs::b12_lite(),
        gm_designs::fetch_stage(),
    ] {
        let (m, b, r) = setup_module(module);
        let aig = &b.aig;
        let (states, parent) = scalar_explore(aig);
        assert_eq!(r.states, states, "{}: states in BFS order", m.name());
        assert_eq!(r.parent, parent, "{}: BFS parents", m.name());

        let succ = r.successors(aig);
        let nodes: Vec<usize> = (0..aig.len()).collect();
        let mut obs = Vec::new();
        r.observations(aig, &nodes, &mut obs);
        let mut ev = LaneEval::new(aig, r.input_bits);
        let combos = 1usize << r.input_bits;
        assert_eq!(succ.len(), states.len() * combos);
        for (si, &state) in states.iter().enumerate() {
            let latches = unpack(state, r.state_bits);
            for u in 0..combos {
                let flat = si * combos + u;
                if flat & 63 == 0 || flat == si * combos {
                    ev.eval_word(&states, flat >> 6);
                }
                let vals = aig.eval(&unpack(u as u64, r.input_bits), &latches);
                for (n, &v) in vals.iter().enumerate() {
                    assert_eq!(ev.vals[n] >> (flat & 63) & 1 == 1, v, "node {n} at {flat}");
                    assert_eq!(bitset_get(obs[n], flat), v, "slot {n} at {flat}");
                }
                let next = pack(&aig.next_state(&vals));
                assert_eq!(ev.next_state(flat & 63), next, "successor of {flat}");
                assert_eq!(states[succ[flat] as usize], next, "table at {flat}");
            }
        }
    }
}

#[test]
fn threads_sharing_cold_tables_match_the_sequential_results() {
    let (m, b, r) = setup_module(gm_designs::fetch_stage());
    // Every observable bit against every other, one cycle apart: the
    // threads' properties are disjoint but their nodes overlap, so cold
    // slots are raced for.
    let bits: Vec<(SignalId, u32)> = m
        .signal_ids()
        .filter(|&s| Some(s) != m.clock() && Some(s) != m.reset())
        .flat_map(|s| (0..m.signal_width(s)).map(move |bit| (s, bit)))
        .collect();
    let props: Vec<WindowProperty> = bits
        .iter()
        .flat_map(|&(a, abit)| {
            bits.iter().map(move |&(c, cbit)| {
                WindowProperty::implication(
                    vec![BitAtom::new(a, abit, 0, true)],
                    BitAtom::new(c, cbit, 1, false),
                )
            })
        })
        .collect();
    let limits = ExplicitLimits::default();
    let cold = r.clone();
    let sequential: Vec<CheckResult> = props
        .iter()
        .map(|p| explicit_check(&b, &cold, p, &limits).unwrap())
        .collect();
    assert!(sequential.contains(&CheckResult::Proved));
    assert!(sequential.iter().any(|r| *r != CheckResult::Proved));

    const THREADS: usize = 4;
    let shared = r.clone();
    assert_eq!(shared.cache_stats().entries, 0, "tables start cold");
    let barrier = Barrier::new(THREADS);
    let mut parallel: Vec<Option<CheckResult>> = vec![None; props.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (b, shared, props, barrier) = (&b, &shared, &props, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    (t..props.len())
                        .step_by(THREADS)
                        .map(|i| (i, explicit_check(b, shared, &props[i], &limits).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("worker panicked") {
                parallel[i] = Some(result);
            }
        }
    });
    for (i, (par, seq)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(par.as_ref(), Some(seq), "{}", props[i].display(&m));
    }
}
