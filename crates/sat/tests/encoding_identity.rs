//! The gate entry and the refill against the general calls they stand
//! for, compared as `Debug` dumps — the clause arena, the watch pool
//! and lists, every per-variable table, the trail, the decision heap
//! and the statistics, so two dumps agree only if every later search
//! does.
//!
//! - [`Solver::new_and`] against [`Solver::new_var`] and three
//!   [`Solver::add_clause`] calls, one random operation at a time on a
//!   pair of solvers: gates over random fan-ins, units that fix fan-ins
//!   at level 0, full and scoped queries that leave the solver above
//!   level 0 (a full `Sat` assigns every variable, so gates over
//!   variables allocated after it are what reach the entry there), and
//!   the empty clause that makes it unsatisfiable.
//! - [`Clone::clone_from`] against [`Clone::clone`], from one random
//!   solver into another that is larger or smaller, and the search
//!   both continue with.
//!
//! Mutants these checks kill (applied by hand in a copy when the entry
//! was written; see CHANGES.md): the entry's two watches of a clause
//! pushed in swapped order, the entry skipping its level-0 test, and a
//! `Solver::clone_from` that leaves the decision heap alone.

use gm_sat::{Lit, SolveResult, Solver, Var};
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

    fn lit(&mut self, vars: usize) -> Lit {
        let v = Var::from_index(self.below(vars));
        v.lit(self.below(2) == 1)
    }
}

/// What a sweep reached, so the oracle can be required to reach it.
#[derive(Debug, Default)]
struct Tally {
    /// Gates at level 0 over two unassigned fan-ins on two variables:
    /// the entry's own path.
    plain: usize,
    /// Gates over a fan-in fixed at level 0.
    fixed: usize,
    /// Gates over two unassigned fan-ins while a query's answer stands
    /// (above level 0).
    above_root: usize,
    /// Gates on a solver that was given the empty clause.
    unsat: usize,
}

/// Two solvers taking the same operations, one through the entry and
/// one through the general calls.
struct Pair {
    entry: Solver,
    general: Solver,
    /// Variables fixed by a unit (the literal made true).
    units: Vec<Lit>,
    /// Whether the empty clause was added.
    unsat: bool,
}

impl Pair {
    fn new() -> Self {
        Pair {
            entry: Solver::new(),
            general: Solver::new(),
            units: Vec::new(),
            unsat: false,
        }
    }

    fn gate(&mut self, a: Lit, b: Lit, tally: &mut Tally) {
        let fixed = |l: Lit| self.units.iter().any(|u| u.var() == l.var());
        let above_root = !self.general.assigned_above_root().is_empty();
        if self.unsat {
            tally.unsat += 1;
        } else if fixed(a) || fixed(b) {
            tally.fixed += 1;
        } else if a.var() != b.var() {
            let assigned = self.general.assigned_above_root();
            let free = |l: Lit| !assigned.iter().any(|x| x.var() == l.var());
            if above_root && free(a) && free(b) {
                tally.above_root += 1;
            } else if !above_root {
                tally.plain += 1;
            }
        }
        let out = self.entry.new_and(a, b);
        let o = self.general.new_var().positive();
        self.general.add_clause(&[!o, a]);
        self.general.add_clause(&[!o, b]);
        self.general.add_clause(&[o, !a, !b]);
        assert_eq!(out, o, "the entry allocates the next variable");
    }

    fn both(&mut self, op: impl Fn(&mut Solver) -> Option<SolveResult>) {
        assert_eq!(op(&mut self.entry), op(&mut self.general));
    }

    fn assert_same(&self, step: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            format!("{:?}", self.entry),
            format!("{:?}", self.general),
            "the dumps differ after operation {}",
            step
        );
        Ok(())
    }
}

/// Plays `ops` operations of `recipe` on a pair, comparing the two
/// dumps after each gate and at the end (an operation other than a
/// gate applies one call to two equal solvers).
fn encoding_sweep(bytes: &[u8], ops: usize, tally: &mut Tally) -> Result<Pair, TestCaseError> {
    let mut recipe = Recipe { bytes, at: 0 };
    let mut pair = Pair::new();
    for _ in 0..4 {
        pair.both(|s| {
            s.new_var();
            None
        });
    }
    for step in 0..ops {
        let vars = pair.general.num_vars();
        match recipe.below(32) {
            0..=5 => pair.both(|s| {
                s.new_var();
                None
            }),
            6..=21 => {
                let (a, b) = (recipe.lit(vars), recipe.lit(vars));
                pair.gate(a, b, tally);
                pair.assert_same(step)?;
            }
            22..=23 => {
                let unit = recipe.lit(vars);
                if pair.units.iter().any(|u| u.var() == unit.var()) {
                    continue;
                }
                pair.units.push(unit);
                pair.both(|s| {
                    s.add_clause(&[unit]);
                    None
                });
            }
            24..=26 => {
                let assumptions: Vec<Lit> =
                    (0..recipe.below(3)).map(|_| recipe.lit(vars)).collect();
                pair.both(|s| Some(s.solve_with_assumptions(&assumptions)));
            }
            27..=29 => {
                let assumptions: Vec<Lit> =
                    (0..1 + recipe.below(2)).map(|_| recipe.lit(vars)).collect();
                let mut scope: Vec<Var> = assumptions.iter().map(|l| l.var()).collect();
                scope.extend((0..recipe.below(4)).map(|_| Var::from_index(recipe.below(vars))));
                pair.both(|s| Some(s.solve_scoped(&assumptions, &scope)));
            }
            30 => {
                // Two fresh variables and a gate over them: above level
                // 0 after a full `Sat`, both still unassigned.
                pair.both(|s| {
                    s.new_var();
                    s.new_var();
                    None
                });
                let a = Var::from_index(vars).positive();
                let b = Var::from_index(vars + 1).negative();
                pair.gate(a, b, tally);
                pair.assert_same(step)?;
            }
            _ => {
                if recipe.below(4) == 0 {
                    pair.unsat = true;
                    pair.both(|s| {
                        s.add_clause(&[]);
                        None
                    });
                }
            }
        }
    }
    pair.assert_same(ops)?;
    Ok(pair)
}

/// Operations per pair in [`encoding_sweep`].
const OPS: usize = 96;

fn recipes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 64..512)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases()))]

    #[test]
    fn the_gate_entry_leaves_the_solver_the_general_calls_leave(bytes in recipes()) {
        encoding_sweep(&bytes, OPS, &mut Tally::default())?;
    }

    #[test]
    fn clone_from_leaves_the_solver_clone_makes(
        source in recipes(),
        target in recipes(),
        search in recipes(),
    ) {
        let mut tally = Tally::default();
        let source = encoding_sweep(&source, OPS, &mut tally)?.general;
        let mut into = encoding_sweep(&target, OPS / 2 + target.len() % OPS, &mut tally)?.entry;
        into.clone_from(&source);
        let mut copy = source.clone();
        prop_assert_eq!(format!("{:?}", copy), format!("{:?}", source));
        prop_assert_eq!(format!("{:?}", into), format!("{:?}", copy));
        // Both continue the same search.
        let mut recipe = Recipe { bytes: &search, at: 0 };
        for _ in 0..8 {
            let vars = copy.num_vars();
            let assumptions: Vec<Lit> = (0..recipe.below(4)).map(|_| recipe.lit(vars)).collect();
            prop_assert_eq!(
                into.solve_with_assumptions(&assumptions),
                copy.solve_with_assumptions(&assumptions)
            );
            let (a, b) = (recipe.lit(vars), recipe.lit(vars));
            prop_assert_eq!(into.new_and(a, b), copy.new_and(a, b));
        }
        prop_assert_eq!(format!("{:?}", into), format!("{:?}", copy));
    }
}

/// `len` bytes from a fixed generator, for the deterministic reach test.
fn seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// The oracles above are only as strong as what their cases reach:
/// every gate situation many times, and refills into larger and
/// smaller targets.
#[test]
fn the_sweeps_reach_every_gate_situation_and_both_refill_directions() {
    let mut tally = Tally::default();
    let (mut larger, mut smaller) = (0, 0);
    for seed in 0..64 {
        let source = encoding_sweep(&seeded(seed, 256), OPS, &mut tally).unwrap();
        let ops = if seed % 2 == 0 { 2 * OPS } else { OPS / 2 };
        let target = encoding_sweep(&seeded(seed + 1000, 96), ops, &mut tally).unwrap();
        let (s, t) = (source.general.num_vars(), target.entry.num_vars());
        larger += usize::from(t > s);
        smaller += usize::from(t < s);
        let mut into = target.entry;
        into.clone_from(&source.general);
        assert_eq!(format!("{into:?}"), format!("{:?}", source.general.clone()));
    }
    println!("{tally:?}, {larger} larger and {smaller} smaller targets");
    assert!(tally.plain >= 1000, "{tally:?}");
    assert!(tally.fixed >= 100, "{tally:?}");
    assert!(tally.above_root >= 100, "{tally:?}");
    assert!(tally.unsat >= 20, "{tally:?}");
    assert!(
        larger >= 5 && smaller >= 5,
        "{larger} larger, {smaller} smaller"
    );
}
