//! Random 3-SAT property tests: the CDCL solver against brute-force
//! assignment enumeration (≤ 16 variables), plus DIMACS parse/print
//! round trips.

use gm_sat::{parse_dimacs, to_dimacs, DimacsInstance, SolveResult};
use proptest::prelude::*;

mod common;

/// Brute-force satisfiability by full assignment enumeration.
fn brute_force(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
    assert!(num_vars <= 16, "enumeration bound");
    'outer: for m in 0u32..(1 << num_vars) {
        for c in clauses {
            let sat = c.iter().any(|&x| {
                let v = (m >> (x.unsigned_abs() - 1)) & 1 == 1;
                if x > 0 {
                    v
                } else {
                    !v
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

/// Folds raw literals into the range `[-num_vars, num_vars] \ {0}`.
fn clip(raw: Vec<Vec<i32>>, num_vars: usize) -> Vec<Vec<i32>> {
    raw.into_iter()
        .map(|c| {
            c.into_iter()
                .map(|x| {
                    let v = ((x.unsigned_abs() as usize - 1) % num_vars) as i32 + 1;
                    if x > 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

/// A literal over variables `1..=16`, either polarity.
fn literal() -> impl Strategy<Value = i32> {
    (1i32..=16, prop::bool::ANY).prop_map(|(v, neg)| if neg { -v } else { v })
}

/// An exactly-3-literal clause.
fn clause3() -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(literal(), 3..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases()))]

    /// Random 3-SAT vs exhaustive enumeration, up to 16 variables.
    #[test]
    fn three_sat_agrees_with_brute_force(
        num_vars in 3usize..=16,
        raw in prop::collection::vec(clause3(), 1..60),
    ) {
        let clauses = clip(raw, num_vars);
        for c in &clauses {
            prop_assert_eq!(c.len(), 3, "3-SAT clause width");
        }
        let inst = DimacsInstance { num_vars, clauses: clauses.clone() };
        let (mut solver, _) = inst.into_solver();
        let got = solver.solve() == SolveResult::Sat;
        let expect = brute_force(num_vars, &clauses);
        prop_assert_eq!(got, expect, "solver disagrees on {:?}", clauses);
        if got {
            prop_assert!(solver.model_satisfies_all(), "model violates a clause");
        }
    }

    /// print . parse is the identity on instances whose declared
    /// variable count covers every literal.
    #[test]
    fn dimacs_print_parse_round_trip(
        num_vars in 1usize..=16,
        raw in prop::collection::vec(clause3(), 0..40),
    ) {
        let clauses = clip(raw, num_vars);
        let inst = DimacsInstance { num_vars, clauses };
        let text = to_dimacs(&inst);
        let back = parse_dimacs(&text).unwrap();
        prop_assert_eq!(&back, &inst, "round trip changed the instance");
        // A second trip is a fixed point at the text level too.
        prop_assert_eq!(to_dimacs(&back), text);
    }

    /// Round-tripping preserves satisfiability (belt over the
    /// structural-equality suspenders).
    #[test]
    fn dimacs_round_trip_preserves_satisfiability(
        num_vars in 2usize..=10,
        raw in prop::collection::vec(clause3(), 1..30),
    ) {
        let clauses = clip(raw, num_vars);
        let inst = DimacsInstance { num_vars, clauses };
        let back = parse_dimacs(&to_dimacs(&inst)).unwrap();
        let (mut s1, _) = inst.into_solver();
        let (mut s2, _) = back.into_solver();
        prop_assert_eq!(s1.solve(), s2.solve());
    }
}

#[test]
fn dimacs_round_trip_with_comments_and_blank_lines() {
    let src =
        "c random 3-sat fixture\nc second comment\n\np cnf 4 3\n1 -2 3 0\n-1 2 -4 0\n2 3 4 0\n";
    let inst = parse_dimacs(src).unwrap();
    assert_eq!(inst.num_vars, 4);
    assert_eq!(inst.clauses.len(), 3);
    let back = parse_dimacs(&to_dimacs(&inst)).unwrap();
    assert_eq!(back, inst);
}

#[test]
fn known_unsat_three_sat_instance() {
    // All eight polarity combinations over {1,2,3}: unsatisfiable, and
    // every clause has width 3.
    let clauses: Vec<Vec<i32>> = (0..8)
        .map(|m| {
            (1..=3)
                .map(|v| if (m >> (v - 1)) & 1 == 1 { -v } else { v })
                .collect()
        })
        .collect();
    assert!(!brute_force(3, &clauses));
    let inst = DimacsInstance {
        num_vars: 3,
        clauses,
    };
    let (mut solver, _) = inst.into_solver();
    assert_eq!(solver.solve(), SolveResult::Unsat);
}
