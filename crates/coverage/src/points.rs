//! Static enumeration of coverage points from a module.
//!
//! Collectors precompute their point universes here so that percentages
//! have well-defined denominators, and observers re-enumerate the same
//! points in the same deterministic order at runtime.

use gm_rtl::{Bv, Expr, Module, SignalId, Stmt, StmtId, StmtKind};
use gm_sim::BranchOutcome;

/// All possible branch outcomes of a module's control statements.
///
/// An `if` contributes `Then` and `Else` (the `else` outcome exists even
/// when the branch body is empty — not taking the `then` path is an
/// observable behavior). A `case` contributes one outcome per arm plus
/// `Default` unless its labels exhaust the subject space.
pub fn branch_points(module: &Module) -> Vec<(StmtId, BranchOutcome)> {
    let mut out = Vec::new();
    for p in module.processes() {
        p.for_each_stmt(&mut |s: &Stmt| match &s.kind {
            StmtKind::If { .. } => {
                out.push((s.id, BranchOutcome::Then));
                out.push((s.id, BranchOutcome::Else));
            }
            StmtKind::Case {
                subject,
                arms,
                default,
            } => {
                for (i, _) in arms.iter().enumerate() {
                    out.push((s.id, BranchOutcome::Arm(i as u32)));
                }
                let w = subject.width_in(&|sig| module.signal_width(sig));
                let labels: u64 = arms.iter().map(|a| a.labels.len() as u64).sum();
                let exhaustive = default.is_none() && w < 64 && labels >= (1u64 << w);
                if !exhaustive {
                    out.push((s.id, BranchOutcome::Default));
                }
            }
            StmtKind::Assign { .. } => {}
        });
    }
    out
}

/// Enumerates the boolean (width-1, non-constant) subexpressions of
/// `expr`, pre-order. These are the points of condition and expression
/// coverage; the same walk at observation time yields matching indices.
pub fn boolean_nodes<'e>(expr: &'e Expr, module: &Module, out: &mut Vec<&'e Expr>) {
    let w = expr.width_in(&|s: SignalId| module.signal_width(s));
    if w == 1 && !matches!(expr, Expr::Const(_)) {
        out.push(expr);
    }
    match expr {
        Expr::Const(_) | Expr::Signal(_) => {}
        Expr::Unary(_, a) => boolean_nodes(a, module, out),
        Expr::Binary(_, a, b) => {
            boolean_nodes(a, module, out);
            boolean_nodes(b, module, out);
        }
        Expr::Mux {
            cond,
            then_val,
            else_val,
        } => {
            boolean_nodes(cond, module, out);
            boolean_nodes(then_val, module, out);
            boolean_nodes(else_val, module, out);
        }
        Expr::Index { base, .. } | Expr::Slice { base, .. } => {
            boolean_nodes(base, module, out);
        }
        Expr::Concat(parts) => {
            for p in parts {
                boolean_nodes(p, module, out);
            }
        }
    }
}

/// Evaluates each boolean node of `expr` against `values`, in the same
/// order as [`boolean_nodes`]. Calls `hit(index, value)` per node.
pub fn observe_boolean_nodes(
    expr: &Expr,
    module: &Module,
    values: &[Bv],
    hit: &mut impl FnMut(usize, bool),
) {
    let mut nodes = Vec::new();
    boolean_nodes(expr, module, &mut nodes);
    for (i, node) in nodes.iter().enumerate() {
        let v = node.eval(&|s: SignalId| values[s.index()]);
        hit(i, v.is_nonzero());
    }
}

/// Counts the boolean nodes of the expressions in a given statement role
/// across the whole module; used for denominators.
pub fn count_boolean_nodes(module: &Module, want_conditions: bool) -> usize {
    boolean_node_counts(module, want_conditions)
        .iter()
        .map(|&n| n as usize)
        .sum()
}

/// The number of boolean nodes of each statement's expression in the
/// given role (an `if` condition, or an assignment's right-hand side),
/// by statement index; zero for a statement without one.
pub(crate) fn boolean_node_counts(module: &Module, want_conditions: bool) -> Vec<u32> {
    let mut counts = vec![0; module.stmt_count() as usize];
    for p in module.processes() {
        p.for_each_stmt(&mut |s: &Stmt| {
            let expr = match (&s.kind, want_conditions) {
                (StmtKind::If { cond, .. }, true) => Some(cond),
                (StmtKind::Assign { rhs, .. }, false) => Some(rhs),
                _ => None,
            };
            if let Some(e) = expr {
                let mut nodes = Vec::new();
                boolean_nodes(e, module, &mut nodes);
                counts[s.id.index()] = nodes.len() as u32;
            }
        });
    }
    counts
}

/// The declared FSM state values for a register: the union of the labels
/// of every `case` on that register. Falls back to the full value space
/// when no labels exist.
pub fn declared_fsm_states(module: &Module, reg: SignalId) -> Vec<Bv> {
    let mut states: Vec<Bv> = Vec::new();
    for p in module.processes() {
        p.for_each_stmt(&mut |s: &Stmt| {
            if let StmtKind::Case { subject, arms, .. } = &s.kind {
                if *subject == Expr::Signal(reg) {
                    for arm in arms {
                        for l in &arm.labels {
                            if !states.contains(l) {
                                states.push(*l);
                            }
                        }
                    }
                }
            }
        });
    }
    if states.is_empty() {
        let w = module.signal_width(reg);
        if w <= 16 {
            states = (0..(1u64 << w)).map(|v| Bv::new(v, w)).collect();
        }
    }
    states.sort();
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;

    #[test]
    fn branch_points_if_and_case() {
        let m = parse_verilog(
            "module m(input clk, input [1:0] s, input c, output reg y);
               always @(posedge clk) begin
                 if (c) y <= 0; else y <= 1;
                 case (s)
                   2'b00: y <= 0;
                   2'b01, 2'b10: y <= 1;
                   default: y <= y;
                 endcase
               end
             endmodule",
        )
        .unwrap();
        let pts = branch_points(&m);
        // if: 2 outcomes; case: 2 arms + default.
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn exhaustive_case_has_no_default_point() {
        let m = parse_verilog(
            "module m(input clk, input s, output reg y);
               always @(posedge clk)
                 case (s)
                   1'b0: y <= 0;
                   1'b1: y <= 1;
                 endcase
             endmodule",
        )
        .unwrap();
        let pts = branch_points(&m);
        assert_eq!(pts.len(), 2);
        assert!(pts
            .iter()
            .all(|(_, o)| !matches!(o, BranchOutcome::Default)));
    }

    #[test]
    fn boolean_nodes_skip_constants_and_multibit() {
        let m = parse_verilog(
            "module m(input a, input b, input [3:0] x, output y);
               assign y = (a & b) | (x == 4'd3);
             endmodule",
        )
        .unwrap();
        // Nodes: whole RHS, (a&b), a, b, (x==3). The constants and the
        // 4-bit x are not boolean nodes.
        assert_eq!(count_boolean_nodes(&m, false), 5);
        assert_eq!(count_boolean_nodes(&m, true), 0);
    }

    #[test]
    fn fsm_states_from_case_labels() {
        let m = parse_verilog(
            "module m(input clk, input rst, output reg o);
               localparam A = 2'd0; localparam B = 2'd1; localparam C = 2'd2;
               reg [1:0] st;
               always @(posedge clk)
                 if (rst) begin st <= A; o <= 0; end
                 else begin
                   case (st)
                     A: begin st <= B; o <= 0; end
                     B: begin st <= C; o <= 0; end
                     C: begin st <= A; o <= 1; end
                     default: begin st <= A; o <= 0; end
                   endcase
                 end
             endmodule",
        )
        .unwrap();
        let st = m.require("st").unwrap();
        assert!(m.fsm_regs().contains(&st));
        let states = declared_fsm_states(&m, st);
        assert_eq!(states, vec![Bv::new(0, 2), Bv::new(1, 2), Bv::new(2, 2)]);
    }
}
