//! Cross-engine agreement on randomized sequential designs.
//!
//! The explicit-state engine is exact; BMC is complete for refutation up
//! to its bound; k-induction is sound for proofs. On random small
//! designs and random window properties all three must tell a
//! consistent story, and every counterexample must replay to a real
//! violation on the behavioral simulator.

use gm_mc::{
    blast, bmc, explicit_check, k_induction, BitAtom, CheckResult, ExplicitLimits, ReachableStates,
    WindowProperty,
};
use gm_rtl::{elaborate, Bv, Expr, Module, ModuleBuilder, SignalId};
use gm_sim::{NopObserver, Simulator};
use proptest::prelude::*;

/// Builds a random 2-input / 2-register module from recipe bytes.
fn random_seq_module(recipe: &[u8]) -> Module {
    let mut b = ModuleBuilder::new("rand_seq");
    let _clk = b.clock("clk");
    let rst = b.reset("rst");
    let i0 = b.input("i0", 1);
    let i1 = b.input("i1", 1);
    // The declared init must match the reset-branch assignment below
    // (the model checker starts from init; replays pulse the reset).
    let init0 = recipe.first().is_some_and(|&x| x & 1 == 1);
    let q0 = b.output_reg("q0", 1, Bv::from_bool(init0));
    let q1 = b.output_reg("q1", 1, Bv::zero_bit());
    let sigs = [i0, i1, q0, q1];
    let leaf = |byte: u8| Expr::Signal(sigs[(byte % 4) as usize]);
    let expr_of = |bytes: &[u8]| -> Expr {
        let mut acc = leaf(bytes.first().copied().unwrap_or(0));
        for pair in bytes.chunks(2).skip(1) {
            let rhs = leaf(pair[0]);
            acc = match pair.get(1).copied().unwrap_or(0) % 4 {
                0 => acc.and(rhs),
                1 => acc.or(rhs),
                2 => acc.xor(rhs),
                _ => acc.not().or(rhs),
            };
        }
        acc
    };
    let half = recipe.len() / 2;
    let (ra, rb) = recipe.split_at(half);
    let next0 = expr_of(ra);
    let next1 = expr_of(rb);
    b.always_seq(|p| {
        p.if_else(
            Expr::Signal(rst),
            |t| {
                t.assign(q0, Expr::Const(Bv::from_bool(init0)));
                t.assign(q1, Expr::zero());
            },
            |e| {
                e.assign(q0, next0.clone());
                e.assign(q1, next1.clone());
            },
        );
    });
    b.finish()
}

/// Builds a random window property over the module's signals.
fn random_property(module: &Module, recipe: &[u8]) -> WindowProperty {
    let signals: Vec<SignalId> = vec![
        module.require("i0").unwrap(),
        module.require("i1").unwrap(),
        module.require("q0").unwrap(),
        module.require("q1").unwrap(),
    ];
    let mut antecedent = Vec::new();
    for chunk in recipe.chunks(3).take(3) {
        if chunk.len() == 3 {
            antecedent.push(BitAtom::new(
                signals[(chunk[0] % 4) as usize],
                0,
                u32::from(chunk[1] % 2),
                chunk[2] % 2 == 1,
            ));
        }
    }
    let last = recipe.last().copied().unwrap_or(0);
    WindowProperty::implication(
        antecedent,
        BitAtom::new(
            signals[2 + (last % 2) as usize],
            0,
            1 + u32::from(last % 2),
            last % 3 == 0,
        ),
    )
}

/// Replays a counterexample from reset and confirms the violation.
fn cex_violates(module: &Module, prop: &WindowProperty, cex: &gm_mc::CexTrace) -> bool {
    let mut sim = Simulator::new(module).unwrap();
    if let Some(rst) = module.reset() {
        sim.set_input(rst, Bv::one_bit());
        sim.step();
        sim.set_input(rst, Bv::zero_bit());
    }
    let trace = sim.run_vectors(&cex.inputs(), &mut NopObserver);
    let depth = prop.depth() as usize;
    if trace.len() < depth + 1 {
        return false;
    }
    // The violating window ends at the final cycle of the trace.
    let base = trace.len() - 1 - depth;
    let atom_holds = |a: &BitAtom| trace.bit(base + a.offset as usize, a.signal, a.bit) == a.value;
    prop.antecedent.iter().all(atom_holds) && !atom_holds(&prop.consequents[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_tell_a_consistent_story(recipe in prop::collection::vec(any::<u8>(), 4..20)) {
        let module = random_seq_module(&recipe);
        let elab = elaborate(&module).unwrap();
        let blasted = blast(&module, &elab).unwrap();
        let prop = random_property(&module, &recipe);
        let limits = ExplicitLimits::default();
        let reach = ReachableStates::explore(&blasted, &limits).unwrap();
        let exact = explicit_check(&blasted, &reach, &prop, &limits).unwrap();

        // Generous BMC bound: reachable diameter + window depth.
        let bound = (reach.len() as u32) + prop.depth() + 2;
        let bmc_res = bmc(&blasted, &prop, bound);
        let kind_res = k_induction(&blasted, &prop, 6);

        match &exact {
            CheckResult::Proved => {
                prop_assert!(
                    matches!(bmc_res, CheckResult::Unknown { .. }),
                    "BMC found a violation of a true property"
                );
                prop_assert!(
                    !matches!(kind_res, CheckResult::Violated(_)),
                    "k-induction refuted a true property"
                );
            }
            CheckResult::Violated(cex) => {
                prop_assert!(cex_violates(&module, &prop, cex),
                    "explicit counterexample does not replay");
                match bmc_res {
                    CheckResult::Violated(bcex) => {
                        prop_assert!(cex_violates(&module, &prop, &bcex),
                            "BMC counterexample does not replay");
                    }
                    other => prop_assert!(false, "BMC missed a violation: {other:?}"),
                }
                prop_assert!(
                    !matches!(kind_res, CheckResult::Proved),
                    "k-induction proved a false property"
                );
            }
            CheckResult::Unknown { .. } => prop_assert!(false, "explicit cannot be unknown"),
        }
    }
}
