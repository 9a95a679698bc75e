//! Bit-blasting: behavioral modules to and-inverter graphs.
//!
//! Symbolically executes the elaborated processes of a [`Module`] into an
//! [`Aig`]: every data-input bit becomes an AIG input, every state bit a
//! latch, and every settled signal value a literal over them. The clock
//! and reset inputs are pinned to constant 0 — model checking starts from
//! the declared register init values (the design's reset state), which is
//! how GoldMine constrains the verification environment.

use crate::aig::{Aig, AigLit};
use gm_rtl::{
    BinaryOp, Bv, Elab, Expr, Module, Result, RtlError, SignalId, Stmt, StmtKind, UnaryOp,
};
use gm_sim::InputLayout;
use std::sync::Arc;

/// A bit-blasted module.
#[derive(Clone, Debug)]
pub struct Blasted {
    /// The netlist.
    pub aig: Aig,
    /// Per signal (by index): the literals of its settled pre-edge value,
    /// LSB first.
    pub signal_lits: Vec<Vec<AigLit>>,
    /// For AIG input `i`, the (signal, bit) it represents.
    pub input_bits: Vec<(SignalId, u32)>,
    /// The same inputs as one row of bits per cycle: AIG input `i` is
    /// bit `i` of the row (data inputs in signal order, each LSB
    /// first). Counterexample traces are kept in this form and share
    /// it by `Arc`, so the design's one decoder is built here.
    pub input_layout: Arc<InputLayout>,
    /// For AIG latch `i`, the (signal, bit) it represents.
    pub latch_bits: Vec<(SignalId, u32)>,
}

impl Blasted {
    /// The literal for one bit of a signal's settled value.
    pub fn signal_bit(&self, sig: SignalId, bit: u32) -> AigLit {
        self.signal_lits[sig.index()][bit as usize]
    }

    /// Total number of primary-input bits.
    pub fn input_bit_count(&self) -> usize {
        self.input_bits.len()
    }
}

/// Bit-blasts `module` (elaborated as `elab`) into an AIG.
///
/// # Errors
///
/// Returns an error if a signal is read while undefined, which elaboration
/// should have ruled out; seeing it here indicates an internal
/// inconsistency between the interpreter and the blaster.
pub fn blast(module: &Module, elab: &Elab) -> Result<Blasted> {
    let mut aig = Aig::new();
    let n = module.signals().len();
    let mut env: Vec<Option<Vec<AigLit>>> = vec![None; n];
    let mut input_bits = Vec::new();
    let mut latch_bits = Vec::new();

    // Allocate inputs and latches.
    for sig in module.signal_ids() {
        let s = module.signal(sig);
        let w = s.width();
        if s.is_input() {
            if Some(sig) == module.clock() || Some(sig) == module.reset() {
                // Pinned low: the model runs with reset deasserted.
                env[sig.index()] = Some(vec![AigLit::FALSE; w as usize]);
            } else {
                let lits: Vec<AigLit> = (0..w)
                    .map(|b| {
                        input_bits.push((sig, b));
                        aig.add_input()
                    })
                    .collect();
                env[sig.index()] = Some(lits);
            }
        } else if elab.is_state(sig) {
            let init = s.init();
            let lits: Vec<AigLit> = (0..w)
                .map(|b| {
                    latch_bits.push((sig, b));
                    aig.add_latch(init.bit(b))
                })
                .collect();
            env[sig.index()] = Some(lits);
        } else if elab.driver(sig).is_none() {
            // Undriven internal net: constant init (zeros).
            let init = s.init();
            env[sig.index()] = Some((0..w).map(|b| AigLit::constant(init.bit(b))).collect());
        }
        // Combinationally driven signals are filled in below.
    }

    // Combinational processes in topological order (blocking semantics).
    for &pi in elab.comb_order() {
        let body: &[Stmt] = &module.processes()[pi].body;
        for st in body {
            exec_stmt(module, &mut aig, st, &mut env)?;
        }
    }

    let signal_lits: Vec<Vec<AigLit>> = env
        .iter()
        .enumerate()
        .map(|(i, e)| {
            e.clone().unwrap_or_else(|| {
                let w = module.signals()[i].width() as usize;
                vec![AigLit::FALSE; w]
            })
        })
        .collect();

    // Sequential processes: non-blocking; reads see the settled env,
    // writes accumulate into a separate next-state environment
    // initialized to "hold".
    let mut next: Vec<Option<Vec<AigLit>>> = signal_lits.iter().cloned().map(Some).collect();
    for &pi in elab.seq_processes() {
        let body: &[Stmt] = &module.processes()[pi].body;
        for st in body {
            exec_seq_stmt(module, &mut aig, st, &signal_lits, &mut next)?;
        }
    }

    // Wire latch next-state functions.
    for (li, &(sig, bit)) in latch_bits.iter().enumerate() {
        let lit = next[sig.index()]
            .as_ref()
            .expect("state signal has next-state lits")[bit as usize];
        aig.set_latch_next(li, lit);
    }

    let input_layout = Arc::new(InputLayout::new(module));
    debug_assert_eq!(input_layout.bits(), input_bits.len());
    Ok(Blasted {
        aig,
        signal_lits,
        input_bits,
        input_layout,
        latch_bits,
    })
}

fn undefined_read(module: &Module, sig: SignalId) -> RtlError {
    RtlError::ReadBeforeAssign {
        signal: module.signal(sig).name().to_string(),
    }
}

/// Compiles an expression to literals (LSB first) of its natural width.
fn compile_expr(
    module: &Module,
    aig: &mut Aig,
    expr: &Expr,
    env: &[Option<Vec<AigLit>>],
) -> Result<Vec<AigLit>> {
    let width_of = |e: &Expr| e.width_in(&|s: SignalId| module.signal_width(s));
    match expr {
        Expr::Const(b) => Ok((0..b.width()).map(|i| AigLit::constant(b.bit(i))).collect()),
        Expr::Signal(s) => env[s.index()]
            .clone()
            .ok_or_else(|| undefined_read(module, *s)),
        Expr::Unary(op, a) => {
            let av = compile_expr(module, aig, a, env)?;
            Ok(match op {
                UnaryOp::Not => av.iter().map(|&l| !l).collect(),
                UnaryOp::Neg => {
                    // -x = ~x + 1.
                    let inv: Vec<AigLit> = av.iter().map(|&l| !l).collect();
                    let one = one_const(av.len());
                    add_vec(aig, &inv, &one)
                }
                UnaryOp::RedAnd => vec![aig.and_many(&av)],
                UnaryOp::RedOr => vec![aig.or_many(&av)],
                UnaryOp::RedXor => {
                    let mut acc = AigLit::FALSE;
                    for &l in &av {
                        acc = aig.xor(acc, l);
                    }
                    vec![acc]
                }
                UnaryOp::LogicNot => {
                    let any = aig.or_many(&av);
                    vec![!any]
                }
            })
        }
        Expr::Binary(op, a, b) => {
            let mut av = compile_expr(module, aig, a, env)?;
            let mut bv = compile_expr(module, aig, b, env)?;
            match op {
                BinaryOp::Shl | BinaryOp::Shr => {
                    // Result keeps the left operand's width.
                }
                _ => {
                    let w = av.len().max(bv.len());
                    zext(&mut av, w);
                    zext(&mut bv, w);
                }
            }
            Ok(match op {
                BinaryOp::And => zip_map(aig, &av, &bv, Aig::and),
                BinaryOp::Or => zip_map(aig, &av, &bv, Aig::or),
                BinaryOp::Xor => zip_map(aig, &av, &bv, Aig::xor),
                BinaryOp::Add => add_vec(aig, &av, &bv),
                BinaryOp::Sub => {
                    let inv: Vec<AigLit> = bv.iter().map(|&l| !l).collect();
                    add_with_carry(aig, &av, &inv, AigLit::TRUE)
                }
                BinaryOp::Mul => mul_vec(aig, &av, &bv),
                BinaryOp::Eq => vec![eq_vec(aig, &av, &bv)],
                BinaryOp::Ne => vec![!eq_vec(aig, &av, &bv)],
                BinaryOp::Lt => vec![lt_vec(aig, &av, &bv)],
                BinaryOp::Le => vec![!lt_vec(aig, &bv, &av)],
                BinaryOp::Gt => vec![lt_vec(aig, &bv, &av)],
                BinaryOp::Ge => vec![!lt_vec(aig, &av, &bv)],
                BinaryOp::Shl => shift_vec(aig, &av, &bv, true),
                BinaryOp::Shr => shift_vec(aig, &av, &bv, false),
                BinaryOp::LogicAnd => {
                    let la = aig.or_many(&av);
                    let lb = aig.or_many(&bv);
                    vec![aig.and(la, lb)]
                }
                BinaryOp::LogicOr => {
                    let la = aig.or_many(&av);
                    let lb = aig.or_many(&bv);
                    vec![aig.or(la, lb)]
                }
            })
        }
        Expr::Mux {
            cond,
            then_val,
            else_val,
        } => {
            let cv = compile_expr(module, aig, cond, env)?;
            let c = aig.or_many(&cv);
            let mut tv = compile_expr(module, aig, then_val, env)?;
            let mut ev = compile_expr(module, aig, else_val, env)?;
            let w = width_of(expr) as usize;
            zext(&mut tv, w);
            zext(&mut ev, w);
            Ok((0..w).map(|i| aig.mux(c, tv[i], ev[i])).collect())
        }
        Expr::Index { base, bit } => {
            let bv = compile_expr(module, aig, base, env)?;
            Ok(vec![bv[*bit as usize]])
        }
        Expr::Slice { base, hi, lo } => {
            let bv = compile_expr(module, aig, base, env)?;
            Ok(bv[*lo as usize..=*hi as usize].to_vec())
        }
        Expr::Concat(parts) => {
            // MSB-first in source; LSB-first in our vectors.
            let mut out = Vec::new();
            for p in parts.iter().rev() {
                out.extend(compile_expr(module, aig, p, env)?);
            }
            Ok(out)
        }
    }
}

fn one_const(w: usize) -> Vec<AigLit> {
    let mut v = vec![AigLit::FALSE; w];
    if !v.is_empty() {
        v[0] = AigLit::TRUE;
    }
    v
}

fn zext(v: &mut Vec<AigLit>, w: usize) {
    v.resize(w.max(v.len()), AigLit::FALSE);
    v.truncate(w);
}

fn zip_map(
    aig: &mut Aig,
    a: &[AigLit],
    b: &[AigLit],
    f: fn(&mut Aig, AigLit, AigLit) -> AigLit,
) -> Vec<AigLit> {
    a.iter().zip(b).map(|(&x, &y)| f(aig, x, y)).collect()
}

fn add_vec(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
    add_with_carry(aig, a, b, AigLit::FALSE)
}

/// Ripple-carry adder at the width of `a` (which equals `b`).
fn add_with_carry(aig: &mut Aig, a: &[AigLit], b: &[AigLit], carry_in: AigLit) -> Vec<AigLit> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut carry = carry_in;
    for (&x, &y) in a.iter().zip(b) {
        let xy = aig.xor(x, y);
        out.push(aig.xor(xy, carry));
        let c1 = aig.and(x, y);
        let c2 = aig.and(xy, carry);
        carry = aig.or(c1, c2);
    }
    out
}

/// Shift-and-add multiplier truncated to the operand width.
fn mul_vec(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
    let w = a.len();
    let mut acc = vec![AigLit::FALSE; w];
    for i in 0..w {
        // partial = (a << i) & b[i]
        let mut partial = vec![AigLit::FALSE; w];
        for j in 0..w - i {
            partial[i + j] = aig.and(a[j], b[i]);
        }
        acc = add_vec(aig, &acc, &partial);
    }
    acc
}

fn eq_vec(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    let mut acc = AigLit::TRUE;
    for (&x, &y) in a.iter().zip(b) {
        let e = aig.iff(x, y);
        acc = aig.and(acc, e);
    }
    acc
}

/// Unsigned `a < b`: decided by the most significant differing bit.
fn lt_vec(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    let mut lt = AigLit::FALSE;
    for (&x, &y) in a.iter().zip(b) {
        let diff = aig.xor(x, y);
        lt = aig.mux(diff, y, lt);
    }
    lt
}

/// Barrel shifter; `left` selects direction. Amounts at or beyond the
/// width produce zero, matching [`Bv::shl`]/[`Bv::shr`].
fn shift_vec(aig: &mut Aig, a: &[AigLit], amount: &[AigLit], left: bool) -> Vec<AigLit> {
    let w = a.len();
    let mut cur = a.to_vec();
    let stages = 64 - (w as u64).leading_zeros() as usize; // ceil(log2(w)) + 1
    for (k, &abit) in amount.iter().enumerate().take(stages) {
        let sh = 1usize << k;
        let mut shifted = vec![AigLit::FALSE; w];
        for (i, slot) in shifted.iter_mut().enumerate() {
            let src = if left {
                i.checked_sub(sh)
            } else {
                let j = i + sh;
                (j < w).then_some(j)
            };
            if let Some(j) = src {
                *slot = cur[j];
            }
        }
        cur = (0..w).map(|i| aig.mux(abit, shifted[i], cur[i])).collect();
    }
    // Any set amount bit beyond the staged range zeroes the result.
    if amount.len() > stages {
        let high = aig.or_many(&amount[stages..]);
        cur = cur.iter().map(|&l| aig.and(l, !high)).collect();
    }
    // Amounts in range but >= width also zero the result. The width
    // constant needs enough bits to represent `w` itself; if the amount
    // is too narrow to ever reach `w`, the comparison is constant false.
    let needed = (64 - (w as u64).leading_zeros()) as usize;
    let cmp_w = amount.len().max(needed).max(1);
    let mut wcv = const_lits(Bv::new(w as u64, cmp_w as u32));
    let mut amt = amount.to_vec();
    zext(&mut amt, cmp_w);
    zext(&mut wcv, cmp_w);
    let ge_w = !lt_vec(aig, &amt, &wcv);
    cur.iter().map(|&l| aig.and(l, !ge_w)).collect()
}

fn const_lits(b: Bv) -> Vec<AigLit> {
    (0..b.width()).map(|i| AigLit::constant(b.bit(i))).collect()
}

/// Blocking-assignment symbolic execution (combinational processes).
fn exec_stmt(
    module: &Module,
    aig: &mut Aig,
    stmt: &Stmt,
    env: &mut Vec<Option<Vec<AigLit>>>,
) -> Result<()> {
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            let mut v = compile_expr(module, aig, rhs, env)?;
            zext(&mut v, module.signal_width(*lhs) as usize);
            env[lhs.index()] = Some(v);
            Ok(())
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            let cv = compile_expr(module, aig, cond, env)?;
            let c = aig.or_many(&cv);
            let mut then_env = env.clone();
            for st in then_body {
                exec_stmt(module, aig, st, &mut then_env)?;
            }
            let mut else_env = env.clone();
            for st in else_body {
                exec_stmt(module, aig, st, &mut else_env)?;
            }
            merge_env(aig, c, &then_env, &else_env, env);
            Ok(())
        }
        StmtKind::Case {
            subject,
            arms,
            default,
        } => {
            let sv = compile_expr(module, aig, subject, env)?;
            // Default environment: explicit default arm or fall-through.
            let mut result_env = match default {
                Some(d) => {
                    let mut e = env.clone();
                    for st in d {
                        exec_stmt(module, aig, st, &mut e)?;
                    }
                    e
                }
                None => env.clone(),
            };
            // Build the priority chain from the last arm to the first.
            for arm in arms.iter().rev() {
                let mut match_lits = Vec::new();
                for label in &arm.labels {
                    let lv = const_lits(label.resize(sv.len().max(1) as u32));
                    match_lits.push(eq_vec(aig, &sv, &lv));
                }
                let m = aig.or_many(&match_lits);
                let mut arm_env = env.clone();
                for st in &arm.body {
                    exec_stmt(module, aig, st, &mut arm_env)?;
                }
                let prev = result_env.clone();
                merge_env(aig, m, &arm_env, &prev, &mut result_env);
            }
            *env = result_env;
            Ok(())
        }
    }
}

/// Non-blocking symbolic execution (sequential processes): reads come
/// from the settled `cur` environment, writes accumulate into `next`.
fn exec_seq_stmt(
    module: &Module,
    aig: &mut Aig,
    stmt: &Stmt,
    cur: &[Vec<AigLit>],
    next: &mut Vec<Option<Vec<AigLit>>>,
) -> Result<()> {
    let cur_env: Vec<Option<Vec<AigLit>>> = cur.iter().cloned().map(Some).collect();
    exec_seq_inner(module, aig, stmt, &cur_env, next)
}

fn exec_seq_inner(
    module: &Module,
    aig: &mut Aig,
    stmt: &Stmt,
    cur: &[Option<Vec<AigLit>>],
    next: &mut Vec<Option<Vec<AigLit>>>,
) -> Result<()> {
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            let mut v = compile_expr(module, aig, rhs, cur)?;
            zext(&mut v, module.signal_width(*lhs) as usize);
            next[lhs.index()] = Some(v);
            Ok(())
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            let cv = compile_expr(module, aig, cond, cur)?;
            let c = aig.or_many(&cv);
            let mut then_next = next.clone();
            for st in then_body {
                exec_seq_inner(module, aig, st, cur, &mut then_next)?;
            }
            let mut else_next = next.clone();
            for st in else_body {
                exec_seq_inner(module, aig, st, cur, &mut else_next)?;
            }
            merge_env(aig, c, &then_next, &else_next, next);
            Ok(())
        }
        StmtKind::Case {
            subject,
            arms,
            default,
        } => {
            let sv = compile_expr(module, aig, subject, cur)?;
            let mut result = match default {
                Some(d) => {
                    let mut e = next.clone();
                    for st in d {
                        exec_seq_inner(module, aig, st, cur, &mut e)?;
                    }
                    e
                }
                None => next.clone(),
            };
            for arm in arms.iter().rev() {
                let mut match_lits = Vec::new();
                for label in &arm.labels {
                    let lv = const_lits(label.resize(sv.len().max(1) as u32));
                    match_lits.push(eq_vec(aig, &sv, &lv));
                }
                let m = aig.or_many(&match_lits);
                let mut arm_next = next.clone();
                for st in &arm.body {
                    exec_seq_inner(module, aig, st, cur, &mut arm_next)?;
                }
                let prev = result.clone();
                merge_env(aig, m, &arm_next, &prev, &mut result);
            }
            *next = result;
            Ok(())
        }
    }
}

/// Merges two environments under a select literal: `out = c ? a : b`.
/// A signal defined on only one side takes that side's value (elaboration
/// guarantees such a signal is rewritten before any later read).
fn merge_env(
    aig: &mut Aig,
    c: AigLit,
    a: &[Option<Vec<AigLit>>],
    b: &[Option<Vec<AigLit>>],
    out: &mut [Option<Vec<AigLit>>],
) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = match (&a[i], &b[i]) {
            (Some(av), Some(bv)) => {
                Some(av.iter().zip(bv).map(|(&x, &y)| aig.mux(c, x, y)).collect())
            }
            (Some(av), None) => Some(av.clone()),
            (None, Some(bv)) => Some(bv.clone()),
            (None, None) => None,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::{elaborate, parse_verilog};

    fn blast_src(src: &str) -> (gm_rtl::Module, Blasted) {
        let m = parse_verilog(src).unwrap();
        let e = elaborate(&m).unwrap();
        let b = blast(&m, &e).unwrap();
        (m, b)
    }

    #[test]
    fn combinational_truth_table_matches() {
        let (m, b) = blast_src(
            "module m(input a, input c, output z);
               assign z = a & ~c | ~a & c;
             endmodule",
        );
        let z = m.require("z").unwrap();
        for (va, vc) in [(false, false), (false, true), (true, false), (true, true)] {
            let vals = b.aig.eval(&[va, vc], &[]);
            let got = b.aig.lit_value(&vals, b.signal_bit(z, 0));
            assert_eq!(got, va ^ vc, "inputs {va} {vc}");
        }
    }

    #[test]
    fn adder_bits_match_semantics() {
        let (m, b) = blast_src(
            "module m(input [3:0] a, input [3:0] c, output [3:0] s);
               assign s = a + c;
             endmodule",
        );
        let s = m.require("s").unwrap();
        for x in 0u64..16 {
            for y in 0u64..16 {
                let mut inputs = Vec::new();
                for bit in 0..4 {
                    inputs.push((x >> bit) & 1 == 1);
                }
                for bit in 0..4 {
                    inputs.push((y >> bit) & 1 == 1);
                }
                let vals = b.aig.eval(&inputs, &[]);
                let mut got = 0u64;
                for bit in 0..4 {
                    if b.aig.lit_value(&vals, b.signal_bit(s, bit)) {
                        got |= 1 << bit;
                    }
                }
                assert_eq!(got, (x + y) & 0xf, "{x}+{y}");
            }
        }
    }

    #[test]
    fn latch_init_and_next() {
        let (m, b) = blast_src(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 1;
                 else q <= d;
             endmodule",
        );
        let q = m.require("q").unwrap();
        assert_eq!(b.aig.latch_count(), 1);
        assert_eq!(b.latch_bits, vec![(q, 0)]);
        // Init value extracted from the reset branch.
        assert_eq!(b.aig.initial_state(), vec![true]);
        // rst is pinned low, so next-state follows d.
        let state = vec![false];
        let vals = b.aig.eval(&[true], &state);
        assert_eq!(b.aig.next_state(&vals), vec![true]);
        let vals = b.aig.eval(&[false], &state);
        assert_eq!(b.aig.next_state(&vals), vec![false]);
    }

    #[test]
    fn case_priority_matches_first_label() {
        let (m, b) = blast_src(
            "module m(input [1:0] s, output reg [1:0] y);
               always @(*)
                 case (s)
                   2'b00: y = 2'd3;
                   2'b01: y = 2'd2;
                   default: y = 2'd0;
                 endcase
             endmodule",
        );
        let y = m.require("y").unwrap();
        let expect = [3u64, 2, 0, 0];
        for sv in 0u64..4 {
            let inputs = vec![sv & 1 == 1, sv & 2 == 2];
            let vals = b.aig.eval(&inputs, &[]);
            let mut got = 0;
            for bit in 0..2 {
                if b.aig.lit_value(&vals, b.signal_bit(y, bit)) {
                    got |= 1 << bit;
                }
            }
            assert_eq!(got, expect[sv as usize], "s={sv}");
        }
    }

    #[test]
    fn clock_and_reset_are_not_aig_inputs() {
        let (_m, b) = blast_src(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 0; else q <= d;
             endmodule",
        );
        assert_eq!(b.input_bit_count(), 1, "only d is a free input");
    }
}
