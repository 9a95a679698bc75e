//! Property tests: the CDCL solver against brute-force enumeration.

use gm_sat::{DimacsInstance, SolveResult, Solver, Var};
use proptest::prelude::*;

mod common;

/// Brute-force satisfiability over at most 16 variables.
fn brute_force(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
    assert!(num_vars <= 16);
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

fn clause_strategy(num_vars: i32) -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(
        (1..=num_vars, prop::bool::ANY).prop_map(|(v, neg)| if neg { -v } else { v }),
        1..=3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases()))]

    #[test]
    fn agrees_with_brute_force(
        num_vars in 1usize..10,
        seed_clauses in prop::collection::vec(clause_strategy(9), 1..40)
    ) {
        // Clip literals to the variable range.
        let clauses: Vec<Vec<i32>> = seed_clauses
            .into_iter()
            .map(|c| {
                c.into_iter()
                    .map(|x| {
                        let v = ((x.unsigned_abs() as usize - 1) % num_vars) as i32 + 1;
                        if x > 0 { v } else { -v }
                    })
                    .collect()
            })
            .collect();
        let inst = DimacsInstance { num_vars, clauses: clauses.clone() };
        let (mut solver, _) = inst.into_solver();
        let got = solver.solve() == SolveResult::Sat;
        let expect = brute_force(num_vars, &clauses);
        prop_assert_eq!(got, expect, "clauses: {:?}", clauses);
        if got {
            prop_assert!(solver.model_satisfies_all(), "model check failed");
        }
    }

    #[test]
    fn assumptions_match_added_units(
        num_vars in 2usize..8,
        seed_clauses in prop::collection::vec(clause_strategy(7), 1..25),
        assumed in prop::collection::vec((1i32..8, prop::bool::ANY), 1..4)
    ) {
        let clauses: Vec<Vec<i32>> = seed_clauses
            .into_iter()
            .map(|c| {
                c.into_iter()
                    .map(|x| {
                        let v = ((x.unsigned_abs() as usize - 1) % num_vars) as i32 + 1;
                        if x > 0 { v } else { -v }
                    })
                    .collect()
            })
            .collect();
        let assumed: Vec<i32> = assumed
            .into_iter()
            .map(|(v, neg)| {
                let v = ((v as usize - 1) % num_vars) as i32 + 1;
                if neg { -v } else { v }
            })
            .collect();

        // Solving under assumptions ...
        let inst = DimacsInstance { num_vars, clauses: clauses.clone() };
        let (mut s1, vars) = inst.into_solver();
        let lits: Vec<_> = assumed
            .iter()
            .map(|&x| vars[x.unsigned_abs() as usize - 1].lit(x > 0))
            .collect();
        let under_assumptions = s1.solve_with_assumptions(&lits);

        // ... must agree with solving with the assumptions as unit clauses.
        let mut with_units = clauses.clone();
        for &x in &assumed {
            with_units.push(vec![x]);
        }
        let expect = brute_force(num_vars, &with_units);
        prop_assert_eq!(under_assumptions == SolveResult::Sat, expect);

        // And the solver must remain reusable afterwards.
        let baseline = brute_force(num_vars, &clauses);
        prop_assert_eq!(s1.solve() == SolveResult::Sat, baseline);
    }
}

#[test]
fn pigeonhole_scaling_stays_unsat() {
    // PHP(n+1, n) for a few sizes: classic hard UNSAT family.
    for n in 2..=5usize {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..=n)
            .map(|_| (0..n).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<_> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j spans two rows at once
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat, "PHP({}, {n})", n + 1);
    }
}
