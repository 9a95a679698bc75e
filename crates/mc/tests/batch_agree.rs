//! Cross-validation of batched vs sequential checking.
//!
//! `Checker::check_batch` must agree with one-property batches on every
//! catalog design, for every backend, deciding each distinct property of
//! a batch once. The properties are generated deterministically per
//! design (a fixed LCG), mixing proved, violated and unknown verdicts.

use gm_mc::{Backend, CexTrace, CheckResult, Checker, ExplicitLimits, WindowProperty};
use gm_mc::{BitAtom, McError};
use gm_rtl::{Bv, Module, SignalId};
use gm_sim::{NopObserver, Simulator};

/// A tiny deterministic generator (so the suite needs no RNG dep).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn random_atom(rng: &mut Lcg, module: &Module, pool: &[SignalId], max_offset: u64) -> BitAtom {
    let sig = pool[rng.below(pool.len() as u64) as usize];
    let bit = rng.below(u64::from(module.signal_width(sig))) as u32;
    let offset = rng.below(max_offset + 1) as u32;
    BitAtom::new(sig, bit, offset, rng.below(2) == 1)
}

/// Deterministic property mix for one design: antecedents over inputs
/// and outputs at offsets 0..=1, consequents over outputs at 1..=2.
fn properties_for(module: &Module, count: usize) -> Vec<WindowProperty> {
    let inputs = module.data_inputs();
    let outputs = module.outputs();
    let mut pool = inputs;
    pool.extend(outputs.iter().copied());
    let mut rng = Lcg(0x5EED_0000 + module.name().len() as u64);
    (0..count)
        .map(|_| {
            let n_ant = rng.below(3) as usize;
            let antecedent = (0..n_ant)
                .map(|_| random_atom(&mut rng, module, &pool, 1))
                .collect();
            let out = outputs[rng.below(outputs.len() as u64) as usize];
            let bit = rng.below(u64::from(module.signal_width(out))) as u32;
            let offset = 1 + rng.below(2) as u32;
            WindowProperty::implication(
                antecedent,
                BitAtom::new(out, bit, offset, rng.below(2) == 1),
            )
        })
        .collect()
}

const BACKENDS: [Backend; 4] = [
    Backend::Auto,
    Backend::Explicit,
    Backend::Bmc { bound: 4 },
    Backend::KInduction { max_k: 3 },
];

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Auto => "auto",
        Backend::Explicit => "explicit",
        Backend::Bmc { .. } => "bmc",
        Backend::KInduction { .. } => "k-induction",
    }
}

/// A checker with explicit limits and SAT fallback bounds small enough
/// for the big catalog designs: b17/b18-style blocks technically fit
/// the default explicit budgets but take minutes to enumerate, so the
/// sweep forces them onto the bounded SAT session instead (the defaults
/// target refinement runs, not a 12-design sweep).
fn checker(module: &Module, backend: Backend) -> Checker {
    let limits = ExplicitLimits {
        max_state_bits: 10,
        max_input_bits: 8,
        max_states: 4096,
        ..ExplicitLimits::default()
    };
    Checker::new(module)
        .unwrap()
        .with_backend(backend)
        .with_limits(limits)
        .with_bmc_bound(4)
        .with_kind_depth(3)
}

/// Replays a counterexample from reset and confirms the violation.
fn cex_violates(module: &Module, prop: &WindowProperty, cex: &CexTrace) -> bool {
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
    let base = trace.len() - 1 - depth;
    let atom_holds = |a: &BitAtom| trace.bit(base + a.offset as usize, a.signal, a.bit) == a.value;
    prop.antecedent.iter().all(atom_holds) && !atom_holds(&prop.consequents[0])
}

#[test]
fn check_batch_agrees_with_sequential_check_on_all_catalog_designs() {
    for design in gm_designs::catalog() {
        let module = design.module();
        let elab = gm_rtl::elaborate(&module).unwrap();
        let blasted = gm_mc::blast(&module, &elab).unwrap();
        let props = properties_for(&module, 5);
        for backend in BACKENDS {
            // Independent sequential reference: the one-shot engines for
            // the SAT backends (private unrolling per property, no
            // session code involved), a fresh checker per property for
            // Auto/Explicit (fresh session each, so nothing persists
            // across properties). A reference that merely looped the
            // batch checker's own one-property batches would be
            // tautological.
            let sequential: Result<Vec<CheckResult>, McError> = props
                .iter()
                .map(|p| match backend {
                    Backend::Bmc { bound } => Ok(gm_mc::bmc(&blasted, p, bound)),
                    Backend::KInduction { max_k } => Ok(gm_mc::k_induction(&blasted, p, max_k)),
                    Backend::Auto | Backend::Explicit => (checker(&module, backend))
                        .check_batch(std::slice::from_ref(p))
                        .map(|mut one| one.remove(0)),
                })
                .collect();
            let sequential = match sequential {
                Ok(r) => r,
                Err(_) => {
                    // Forced explicit on a design/window over its limits:
                    // nothing to cross-validate for this backend.
                    assert!(
                        matches!(backend, Backend::Explicit),
                        "only the forced explicit backend may refuse {}",
                        design.name
                    );
                    continue;
                }
            };
            let mut batch = checker(&module, backend);
            let batched = batch.check_batch(&props).unwrap();
            // Verdicts must agree; concrete counterexample traces may
            // differ between solver states, so each is validated by
            // replay instead of compared bit-for-bit.
            for (i, (s, b)) in sequential.iter().zip(&batched).enumerate() {
                let ctx = |side: &str| {
                    format!(
                        "{} with {} on {}, property {i}",
                        side,
                        backend_name(backend),
                        design.name
                    )
                };
                match (s, b) {
                    (CheckResult::Proved, CheckResult::Proved) => {}
                    (CheckResult::Unknown { bound: sb }, CheckResult::Unknown { bound: bb }) => {
                        assert_eq!(sb, bb, "{}", ctx("bounds"));
                    }
                    (CheckResult::Violated(sc), CheckResult::Violated(bc)) => {
                        assert!(
                            cex_violates(&module, &props[i], sc),
                            "{}",
                            ctx("sequential cex")
                        );
                        assert!(
                            cex_violates(&module, &props[i], bc),
                            "{}",
                            ctx("batched cex")
                        );
                    }
                    (s, b) => panic!("verdicts disagree ({}): {s:?} vs {b:?}", ctx("")),
                }
            }
        }
    }
}

/// A batch with every property twice decides each once (the second
/// copies count as in-batch duplicates), and the same batch again on
/// the same checker is decided again — nothing carries over — with
/// identical results and identical work.
#[test]
fn repeated_batches_are_deterministic_and_fully_memoized() {
    for design in gm_designs::catalog() {
        let module = design.module();
        let props = properties_for(&module, 5);
        let doubled: Vec<WindowProperty> = props.iter().chain(&props).cloned().collect();
        let mut c = checker(&module, Backend::Auto);
        let first = c.check_batch(&doubled).unwrap();
        assert_eq!(
            first[..props.len()],
            first[props.len()..],
            "{}",
            design.name
        );
        let after_first = c.session_stats();
        let distinct = after_first.engine_queries();
        assert!(distinct <= props.len() as u64, "{}", design.name);
        assert_eq!(
            after_first.memo_hits,
            doubled.len() as u64 - distinct,
            "every position past a property's first is a duplicate on {}",
            design.name
        );
        let second = c.check_batch(&doubled).unwrap();
        assert_eq!(first, second, "nondeterministic batch on {}", design.name);
        let again = c.session_stats() - after_first;
        assert_eq!(
            (again.engine_queries(), again.memo_hits),
            (after_first.engine_queries(), after_first.memo_hits),
            "the repeated batch did other work on {}",
            design.name
        );
    }
}

/// The designs the SAT engines decide in the closure benchmark: two
/// latched blocks and two latch-free stages.
const SAT_DESIGNS: [&str; 4] = ["b17_lite", "b18_lite", "decode_stage", "wb_stage"];

/// What the SAT engines answer on a fresh unrolling per property, with
/// `checker`'s bounds: the one-shot `bmc` / `k_induction`, and for
/// `Auto` over the explicit limits BMC to refute, then k-induction.
fn one_shot(blasted: &gm_mc::Blasted, backend: Backend, p: &WindowProperty) -> CheckResult {
    match backend {
        Backend::Bmc { bound } => gm_mc::bmc(blasted, p, bound),
        Backend::KInduction { max_k } => gm_mc::k_induction(blasted, p, max_k),
        Backend::Auto | Backend::Explicit => match gm_mc::bmc(blasted, p, 4) {
            refuted @ CheckResult::Violated(_) => refuted,
            _ => gm_mc::k_induction(blasted, p, 3),
        },
    }
}

/// An oracle that is not the batch checker itself: on the designs the
/// SAT engines decide, every result of a whole batch — every violated
/// verdict's trace byte for byte — is the one-shot engines' on a fresh
/// unrolling. Batches of 48 hand the latched designs' traces to the
/// extraction helper; the latch-free designs' are extracted as each
/// verdict is found.
#[test]
fn sat_decided_batches_carry_the_one_shot_traces() {
    let mut violated = 0;
    for name in SAT_DESIGNS {
        let module = gm_designs::by_name(name).unwrap().module();
        let elab = gm_rtl::elaborate(&module).unwrap();
        let blasted = gm_mc::blast(&module, &elab).unwrap();
        let props = properties_for(&module, 48);
        for backend in [
            Backend::Auto,
            Backend::Bmc { bound: 4 },
            Backend::KInduction { max_k: 3 },
        ] {
            let mut batch = checker(&module, backend);
            let batched = batch.check_batch(&props).unwrap();
            assert_eq!(batch.session_stats().explicit_queries, 0, "{name}");
            for (i, (p, got)) in props.iter().zip(&batched).enumerate() {
                let want = one_shot(&blasted, backend, p);
                assert_eq!(got, &want, "{name} ({backend:?}), property {i}");
            }
            violated += (batched.iter())
                .filter(|r| matches!(r, CheckResult::Violated(_)))
                .count();
        }
    }
    assert!(violated >= 480, "{violated} violated traces compared");
}
