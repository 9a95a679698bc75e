//! The scoped-query oracle: [`Solver::solve_scoped`] against the full
//! query, on random AND/inverter circuits.
//!
//! A scoped query answers from a partial assignment, so its contract is
//! conditional: the verdict is the full query's *when the scope is the
//! fan-in-closed cone of the assumptions in a clause database of gate
//! definitions*. This suite builds exactly that — circuits through
//! [`Tseitin`], grown later through bare `new_var` / `add_clause` —
//! and checks, query by query:
//!
//! - the scoped verdict is the full verdict of a never-solved twin;
//! - after a scoped `Sat`, the scope's assignment, assumed on a fresh
//!   twin, is `Sat` — the partial assignment really extends;
//! - scoped and full queries interleaved on one solver, with gates
//!   added in between, keep every verdict, and every full `Sat` still
//!   leaves a model of all clauses;
//! - a scoped query decides nothing outside its scope: between two
//!   conflicts or restarts it makes at most one decision per assumption
//!   and per scope variable that is not an assumption's;
//! - it propagates nothing outside its scope either: after a scoped
//!   `Sat`, every literal assigned above level 0 is a scope variable's
//!   (the propagation bound);
//! - after every scoped query, a copy of the solver with every input
//!   assumed values every gate by propagation alone — no conflict, no
//!   decision beyond the assumptions — and at the end of a sweep, units
//!   on every input leave a query nothing to decide (level 0 is
//!   complete whatever scope came before).
//!
//! Two cases pin the contract's edges: a conflict among assumptions
//! outside the scope still refutes, and a unit on a gate output —
//! outside the contract — makes a scoped query answer `Sat` where the
//! full one answers `Unsat`.
//!
//! Mutants say the checks have teeth. A scope missing one fan-in is
//! a permanent member of the suite (`a_scope_missing_one_fan_in_…`): on
//! a circuit built for it, the extension check catches it. A solver
//! whose `backtrack` re-queues variables outside the scope fails the
//! decision bound on the input-only queries. Both were applied by hand
//! when the scoped query was written, and four more to
//! `Solver::propagate`'s scope test when scoped propagation was (see
//! CHANGES.md):
//!
//! - no scope test at all (every implication made) fails the
//!   propagation bound;
//! - a quiet clause that loses its watch (the scope test's `continue`
//!   ahead of the line that keeps the watcher) fails the
//!   every-input-assumed check: the clause keeps one watch, and an
//!   implication through the other is never made again;
//! - the scope test ahead of the conflict test is equivalent under the
//!   contract (an out-of-scope literal is false above level 0 only if
//!   an assumption outside the scope made it so) and fails
//!   `a_conflict_outside_the_scope_still_refutes`;
//! - a scope test that also holds at level 0 fails both forward
//!   checks: a level-0 fact implied while a scope was current is never
//!   made, for any later query.

use gm_sat::{Lit, SolveResult, Solver, Tseitin, Var};
use proptest::prelude::*;

mod common;

/// A byte cursor over a proptest recipe, wrapping around.
struct Recipe<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Recipe<'_> {
    fn below(&mut self, n: usize) -> usize {
        let byte = self.bytes[self.at % self.bytes.len()];
        self.at += 1;
        usize::from(byte) % n
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }
}

/// `len` recipe bytes from a fixed generator, for the deterministic
/// companions of the proptest sweeps.
fn seeded_recipe(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// An AND/inverter circuit and the never-solved solver holding its
/// clauses — the twin every verdict is checked against.
struct Circuit {
    pristine: Solver,
    /// Every node's literal: the inputs, then one per gate built (a
    /// gate the encoder folded away is a node all the same).
    nodes: Vec<Lit>,
    inputs: usize,
    /// By variable: the two fan-ins of the gate it is the output of.
    fanin: Vec<Option<[Lit; 2]>>,
}

/// A random operand: any node, leaning towards the recent ones so
/// circuits get deep, either polarity.
fn operand(nodes: &[Lit], recipe: &mut Recipe) -> Lit {
    let n = nodes.len();
    let at = if recipe.coin() {
        n - 1 - recipe.below(n.min(6))
    } else {
        recipe.below(n)
    };
    if recipe.coin() {
        !nodes[at]
    } else {
        nodes[at]
    }
}

impl Circuit {
    /// 2–6 inputs and 8–71 building steps, through [`Tseitin`]. A step
    /// is one random gate or, one time in eight, a *knot*: two
    /// operands' four minterms, and the AND of their negations — a
    /// constant-false node that assuming true refutes only by search
    /// (propagation stalls at four binary disjunctions), which is what
    /// makes a query's verdict depend on what its scope lets it decide.
    fn random(recipe: &mut Recipe) -> Circuit {
        let mut pristine = Solver::new();
        let mut enc = Tseitin::new(&mut pristine);
        let inputs = 2 + recipe.below(5);
        let mut nodes: Vec<Lit> = (0..inputs).map(|_| enc.fresh()).collect();
        let mut fanin = vec![None; 1 + inputs];
        let mut gate = |nodes: &mut Vec<Lit>, a: Lit, b: Lit| {
            let before = enc.solver().num_vars();
            let out = enc.and(a, b);
            if enc.solver().num_vars() > before {
                fanin.push(Some([a, b]));
            }
            nodes.push(out);
            out
        };
        for _ in 0..8 + recipe.below(64) {
            let (a, b) = (operand(&nodes, recipe), operand(&nodes, recipe));
            if recipe.below(8) == 0 {
                let [p, q, r, s] =
                    [(a, b), (a, !b), (!a, b), (!a, !b)].map(|(x, y)| !gate(&mut nodes, x, y));
                let (pq, rs) = (gate(&mut nodes, p, q), gate(&mut nodes, r, s));
                gate(&mut nodes, pq, rs);
            } else {
                gate(&mut nodes, a, b);
            }
        }
        Circuit {
            pristine,
            nodes,
            inputs,
            fanin,
        }
    }

    /// `inputs` inputs and no gate.
    fn of_inputs(inputs: usize) -> Circuit {
        let mut pristine = Solver::new();
        let mut enc = Tseitin::new(&mut pristine);
        Circuit {
            nodes: (0..inputs).map(|_| enc.fresh()).collect(),
            inputs,
            fanin: vec![None; 1 + inputs],
            pristine,
        }
    }

    /// One more gate `a ∧ b`, through bare `new_var` / `add_clause`, in
    /// the twin and in `solved` alike.
    fn gate(&mut self, a: Lit, b: Lit, solved: Option<&mut Solver>) -> Lit {
        let mut out = None;
        for solver in std::iter::once(&mut self.pristine).chain(solved) {
            let o = solver.new_var().positive();
            solver.add_clause(&[!o, a]);
            solver.add_clause(&[!o, b]);
            solver.add_clause(&[o, !a, !b]);
            assert_eq!(*out.get_or_insert(o), o, "the twins allocate in step");
        }
        self.fanin.push(Some([a, b]));
        self.nodes.extend(out);
        out.expect("the twin is always there")
    }

    /// [`Circuit::gate`] over two random operands.
    fn grow(&mut self, recipe: &mut Recipe, solved: &mut Solver) {
        let (a, b) = (operand(&self.nodes, recipe), operand(&self.nodes, recipe));
        self.gate(a, b, Some(solved));
    }

    /// 1–3 assumptions: nodes of either polarity, or — one time in
    /// three — inputs only, whose cone is themselves.
    fn roots(&self, recipe: &mut Recipe) -> Vec<Lit> {
        let inputs_only = recipe.below(3) == 0;
        (0..1 + recipe.below(3))
            .map(|_| {
                let lit = if inputs_only {
                    self.nodes[recipe.below(self.inputs)]
                } else {
                    operand(&self.nodes, recipe)
                };
                if recipe.coin() {
                    !lit
                } else {
                    lit
                }
            })
            .collect()
    }

    /// The fan-in-closed cone of `roots`. With `drop_one`, the mutant:
    /// the first two-input gate the walk meets keeps only one fan-in.
    fn cone(&self, roots: &[Lit], mut drop_one: bool) -> Vec<Var> {
        let mut seen = vec![false; self.fanin.len()];
        let mut cone = Vec::new();
        let mut stack: Vec<Var> = roots.iter().map(|l| l.var()).collect();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v.index()], true) {
                continue;
            }
            cone.push(v);
            if let Some([a, b]) = self.fanin[v.index()] {
                stack.push(a.var());
                if !(std::mem::take(&mut drop_one) && a.var() != b.var()) {
                    stack.push(b.var());
                }
            }
        }
        cone
    }
}

/// What one checked scoped query was.
struct Scoped {
    sat: bool,
    /// The scope was under a quarter of the solver's variables.
    small: bool,
}

/// One scoped query on `solved`, held to the module's contract against
/// `circuit`'s twin. `Err` carries what broke.
fn scoped_query(
    circuit: &Circuit,
    solved: &mut Solver,
    roots: &[Lit],
    scope: &[Var],
) -> Result<Scoped, String> {
    let got = solved.solve_scoped(roots, scope);
    let cost = solved.last_call_stats();
    let want = circuit.pristine.clone().solve_with_assumptions(roots);
    if got != want {
        return Err(format!("scoped {got:?}, full {want:?}"));
    }
    let free = (scope.iter())
        .filter(|v| roots.iter().all(|r| r.var() != **v))
        .count();
    let bound = (cost.conflicts + cost.restarts + 1) * (roots.len() + free) as u64;
    if cost.decisions > bound {
        return Err(format!(
            "{cost:?} on a scope of {} with {} assumptions: decided outside the scope",
            scope.len(),
            roots.len()
        ));
    }
    if got == SolveResult::Sat {
        if let Some(r) = roots.iter().find(|&&r| !solved.model_value(r)) {
            return Err(format!("Sat with assumption {r} false"));
        }
        let in_scope = |l: &Lit| scope.contains(&l.var());
        if let Some(l) = solved.assigned_above_root().iter().find(|l| !in_scope(l)) {
            return Err(format!("{l} assigned above level 0 outside the scope"));
        }
        let pinned: Vec<Lit> = scope.iter().map(|&v| v.lit(solved.model_var(v))).collect();
        if circuit.pristine.clone().solve_with_assumptions(&pinned) != SolveResult::Sat {
            return Err("the scope's assignment does not extend to a model".to_string());
        }
    }
    Ok(Scoped {
        sat: got == SolveResult::Sat,
        small: scope.len() * 4 < solved.num_vars(),
    })
}

/// Every input assumed, by `pattern`'s bits, on a copy of `solved`:
/// the gates are functions of the inputs, so propagation alone must
/// value every one of them — `Sat` with no conflict and no decision
/// beyond the assumptions. A clause that lost a watch in an earlier
/// query leaves its implication unmade, and a gate gets decided.
fn forward(circuit: &Circuit, solved: &Solver, pattern: u64) -> Result<(), String> {
    let inputs: Vec<Lit> = (circuit.nodes[..circuit.inputs].iter().enumerate())
        .map(|(i, &l)| if pattern >> i & 1 == 1 { l } else { !l })
        .collect();
    let mut copy = solved.clone();
    let got = copy.solve_with_assumptions(&inputs);
    let cost = copy.last_call_stats();
    if got != SolveResult::Sat || cost.conflicts > 0 || cost.decisions > inputs.len() as u64 {
        return Err(format!("{got:?} {cost:?} with every input assumed"));
    }
    Ok(())
}

/// A step's input pattern for [`forward`], not drawn from the recipe so
/// the sweep's own draws stay where they were.
fn pattern(step: u64) -> u64 {
    (step + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
}

/// Counts over a sweep: scoped `Sat`s on small scopes, scoped `Unsat`s,
/// full queries, gates added.
#[derive(Default)]
struct Tally {
    small_sat: usize,
    unsat: usize,
    full: usize,
    grown: usize,
}

/// Steps per sweep.
const STEPS: u64 = 24;

/// One circuit, one solver, [`STEPS`] steps of scoped queries, full
/// queries and growth in recipe order.
fn interleaved(bytes: &[u8], tally: &mut Tally) -> Result<(), TestCaseError> {
    let mut recipe = Recipe { bytes, at: 0 };
    let mut circuit = Circuit::random(&mut recipe);
    let mut solved = circuit.pristine.clone();
    for step in 0..STEPS {
        match recipe.below(5) {
            0 => {
                circuit.grow(&mut recipe, &mut solved);
                tally.grown += 1;
            }
            1 => {
                let roots = circuit.roots(&mut recipe);
                let got = solved.solve_with_assumptions(&roots);
                let want = circuit.pristine.clone().solve_with_assumptions(&roots);
                prop_assert_eq!(got, want, "step {}: full query after scoped ones", step);
                if got == SolveResult::Sat {
                    prop_assert!(solved.model_satisfies_all(), "step {}", step);
                }
                tally.full += 1;
            }
            _ => {
                let roots = circuit.roots(&mut recipe);
                let scope = circuit.cone(&roots, false);
                match scoped_query(&circuit, &mut solved, &roots, &scope) {
                    Ok(q) => {
                        tally.small_sat += usize::from(q.sat && q.small);
                        tally.unsat += usize::from(!q.sat);
                    }
                    Err(e) => prop_assert!(false, "step {}, roots {:?}: {}", step, roots, e),
                }
                if let Err(e) = forward(&circuit, &solved, pattern(step)) {
                    prop_assert!(false, "step {}, after roots {:?}: {}", step, roots, e);
                }
            }
        }
    }
    // Every input fixed by a unit, after whatever scope the last query
    // had: level 0 then values every gate, and a query decides nothing.
    let units = pattern(STEPS);
    for (i, &input) in circuit.nodes[..circuit.inputs].iter().enumerate() {
        solved.add_clause(&[if units >> i & 1 == 1 { input } else { !input }]);
    }
    prop_assert_eq!(solved.solve(), SolveResult::Sat);
    let cost = solved.last_call_stats();
    prop_assert!(
        cost.decisions == 0 && cost.conflicts == 0,
        "{:?} with every input a level-0 fact",
        cost
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases()))]

    #[test]
    fn scoped_and_full_queries_agree_on_one_solver(
        bytes in prop::collection::vec(any::<u8>(), 128..1024),
    ) {
        interleaved(&bytes, &mut Tally::default())?;
    }
}

#[test]
fn the_sweep_sees_small_scopes_refutations_full_queries_and_growth() {
    let mut tally = Tally::default();
    for seed in 0..40 {
        interleaved(&seeded_recipe(seed, 600), &mut tally).unwrap();
    }
    assert!(tally.small_sat >= 100, "{} small Sat", tally.small_sat);
    assert!(tally.unsat >= 50, "{} Unsat", tally.unsat);
    assert!(tally.full >= 100, "{} full queries", tally.full);
    assert!(tally.grown >= 100, "{} gates added", tally.grown);
}

#[test]
fn a_scope_missing_one_fan_in_is_caught_by_the_extension_check() {
    let mut c = Circuit::of_inputs(5);
    let [x, y, z, w, v] = c.nodes[..] else {
        unreachable!("five inputs");
    };
    // A knot over x, y (see `Circuit::random`), `b = knot ∨ w`,
    // `g = z ∧ b` and, to bring w into scope on its own, `k = w ∧ v`.
    let [p, q, r, s] = [(x, y), (x, !y), (!x, y), (!x, !y)].map(|(a, b)| !c.gate(a, b, None));
    let (pq, rs) = (c.gate(p, q, None), c.gate(r, s, None));
    let knot = c.gate(pq, rs, None);
    let b = !c.gate(!knot, !w, None);
    let g = c.gate(z, b, None);
    let k = c.gate(w, v, None);
    // `g ∧ ¬k` holds exactly when z, w, ¬v do; over the whole cone the
    // solver finds that, and the oracle has nothing to say.
    let roots = [!k, g];
    let whole = c.cone(&roots, false);
    let found = scoped_query(&c, &mut c.pristine.clone(), &roots, &whole);
    assert!(found.is_ok_and(|q| q.sat));
    // Without g's fan-in b, x and y are out of scope. w goes false (the
    // saved phase), b then needs the knot, the knot stalls where nobody
    // decides, and the query ends `Sat` — as the full one does — on an
    // assignment no model has.
    let open = c.cone(&roots, true);
    assert_eq!(open.len(), [k, g, z, w, v].len());
    let caught = scoped_query(&c, &mut c.pristine.clone(), &roots, &open).map(|q| q.sat);
    assert_eq!(
        caught,
        Err("the scope's assignment does not extend to a model".to_string())
    );
}

#[test]
fn a_conflict_outside_the_scope_still_refutes() {
    // Outside the contract on purpose: both assumptions lie outside the
    // scope. Assuming ¬y leaves (y ∨ z) unit on z, which the query does
    // not imply; assuming ¬z then falsifies the clause, and that is a
    // conflict whatever the scope — not a quiet clause to step over.
    let mut s = Solver::new();
    let [x, y, z] = [(); 3].map(|()| s.new_var());
    s.add_clause(&[y.positive(), z.positive()]);
    let refuted = s.solve_scoped(&[y.negative(), z.negative()], &[x]);
    assert_eq!(refuted, SolveResult::Unsat);
}

#[test]
fn a_unit_on_a_gate_output_is_outside_the_contract() {
    // o = a ∧ b, p = o ∧ c and the unit ¬p: a ∧ b ∧ c is refuted only
    // through o, which the scope {a, b, c} leaves unpropagated — so the
    // scoped query answers Sat where the full query answers Unsat. The
    // contract admits units on inputs and the constant alone.
    let mut c = Circuit::of_inputs(3);
    let [a, b, i] = c.nodes[..] else {
        unreachable!("three inputs");
    };
    let o = c.gate(a, b, None);
    let p = c.gate(o, i, None);
    let mut s = c.pristine;
    s.add_clause(&[!p]);
    let roots = [a, b, i];
    assert_eq!(s.clone().solve_with_assumptions(&roots), SolveResult::Unsat);
    let scope = roots.map(|l| l.var());
    assert_eq!(s.solve_scoped(&roots, &scope), SolveResult::Sat);
}
