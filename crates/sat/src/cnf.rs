//! Tseitin encoding helpers on top of [`Solver`].
//!
//! The model checker encodes and-inverter graphs through this interface;
//! each gate constructor returns a literal equivalent to the gate output
//! and adds the defining clauses. Constant folding and trivial-operand
//! simplifications keep the CNF small.

use crate::lit::Lit;
use crate::solver::Solver;

/// A gate-level CNF builder with a designated constant-true literal.
#[derive(Debug)]
pub struct Tseitin<'s> {
    solver: &'s mut Solver,
    true_lit: Lit,
}

impl<'s> Tseitin<'s> {
    /// Wraps a solver, allocating (once) a constant-true variable.
    pub fn new(solver: &'s mut Solver) -> Self {
        let t = solver.new_var().positive();
        solver.add_clause(&[t]);
        Tseitin {
            solver,
            true_lit: t,
        }
    }

    /// The constant-true literal.
    pub fn lit_true(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn lit_false(&self) -> Lit {
        !self.true_lit
    }

    /// A constant literal from a boolean.
    pub fn constant(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// A fresh unconstrained literal (positive polarity).
    pub fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// Access to the underlying solver (for adding ad-hoc clauses).
    pub fn solver(&mut self) -> &mut Solver {
        self.solver
    }

    /// Asserts `lit` true.
    pub fn assert_lit(&mut self, lit: Lit) {
        self.solver.add_clause(&[lit]);
    }

    /// `out <-> a & b`, with simplifications.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() || b == self.lit_false() || a == !b {
            return self.lit_false();
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit || a == b {
            return a;
        }
        self.solver.new_and(a, b)
    }

    /// `out <-> a | b` via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// `out <-> a ^ b`, with simplifications.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.true_lit {
            return !b;
        }
        if a == self.lit_false() {
            return b;
        }
        if b == self.true_lit {
            return !a;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.true_lit;
        }
        let out = self.fresh();
        self.solver.add_clause(&[!out, a, b]);
        self.solver.add_clause(&[!out, !a, !b]);
        self.solver.add_clause(&[out, !a, b]);
        self.solver.add_clause(&[out, a, !b]);
        out
    }

    /// `out <-> (c ? t : e)`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.true_lit {
            return t;
        }
        if c == self.lit_false() {
            return e;
        }
        if t == e {
            return t;
        }
        let ct = self.and(c, t);
        let ce = self.and(!c, e);
        self.or(ct, ce)
    }

    /// `out <-> (a <-> b)`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Conjunction of many literals (true for the empty set).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction of many literals (false for the empty set).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    /// Exhaustively checks a 2-input gate builder against a reference fn.
    fn check_gate(
        build: impl Fn(&mut Tseitin<'_>, Lit, Lit) -> Lit,
        reference: fn(bool, bool) -> bool,
    ) {
        for va in [false, true] {
            for vb in [false, true] {
                let mut s = Solver::new();
                let a = s.new_var().positive();
                let b = s.new_var().positive();
                let mut t = Tseitin::new(&mut s);
                let out = build(&mut t, a, b);
                let expect = reference(va, vb);
                let assumptions = [a.var().lit(va), b.var().lit(vb)];
                assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Sat);
                assert_eq!(s.model_value(out), expect, "inputs {va},{vb}");
                // The opposite output value must be unsat.
                let mut with_out = assumptions.to_vec();
                with_out.push(if expect { !out } else { out });
                assert_eq!(
                    s.solve_with_assumptions(&with_out),
                    SolveResult::Unsat,
                    "gate output must be functionally determined"
                );
            }
        }
    }

    #[test]
    fn and_gate_truth_table() {
        check_gate(|t, a, b| t.and(a, b), |a, b| a && b);
    }

    #[test]
    fn or_gate_truth_table() {
        check_gate(|t, a, b| t.or(a, b), |a, b| a || b);
    }

    #[test]
    fn xor_gate_truth_table() {
        check_gate(|t, a, b| t.xor(a, b), |a, b| a ^ b);
    }

    #[test]
    fn iff_gate_truth_table() {
        check_gate(|t, a, b| t.iff(a, b), |a, b| a == b);
    }

    #[test]
    fn ite_truth_table() {
        for vc in [false, true] {
            for vt in [false, true] {
                for ve in [false, true] {
                    let mut s = Solver::new();
                    let c = s.new_var().positive();
                    let tt = s.new_var().positive();
                    let e = s.new_var().positive();
                    let mut ts = Tseitin::new(&mut s);
                    let out = ts.ite(c, tt, e);
                    let assumptions = [c.var().lit(vc), tt.var().lit(vt), e.var().lit(ve)];
                    assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Sat);
                    assert_eq!(s.model_value(out), if vc { vt } else { ve });
                }
            }
        }
    }

    #[test]
    fn constant_simplifications() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let mut t = Tseitin::new(&mut s);
        let tru = t.lit_true();
        let fls = t.lit_false();
        assert_eq!(t.and(a, tru), a);
        assert_eq!(t.and(a, fls), fls);
        assert_eq!(t.and(a, a), a);
        assert_eq!(t.and(a, !a), fls);
        assert_eq!(t.or(a, fls), a);
        assert_eq!(t.or(a, tru), tru);
        assert_eq!(t.xor(a, fls), a);
        assert_eq!(t.xor(a, tru), !a);
        assert_eq!(t.xor(a, a), fls);
        assert_eq!(t.ite(tru, a, fls), a);
        let before = t.solver().num_clauses();
        let _ = t.and_many(&[tru, tru, tru]);
        assert_eq!(t.solver().num_clauses(), before, "no clauses for constants");
    }

    #[test]
    fn and_or_many() {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        let mut t = Tseitin::new(&mut s);
        let all = t.and_many(&vars);
        let any = t.or_many(&vars);
        let mut assumptions: Vec<Lit> = vars.iter().map(|l| !*l).collect();
        assumptions.push(any);
        assert_eq!(
            s.solve_with_assumptions(&assumptions),
            SolveResult::Unsat,
            "or of all-false inputs cannot be true"
        );
        let mut assumptions: Vec<Lit> = vars.clone();
        assumptions.push(!all);
        assert_eq!(
            s.solve_with_assumptions(&assumptions),
            SolveResult::Unsat,
            "and of all-true inputs cannot be false"
        );
    }
}
