//! Differential suite for the sharded dispatch layer: sharded ≡ batched
//! ≡ sequential on every catalog design, for shard counts {1, 2, 4, 7},
//! on window batches and on multi-consequent temporal batches (which on
//! the SAT backends must also be the one-shot `bmc()` results, and
//! under `Auto` — decided on the explicit tables where the design fits
//! — must agree with them on the verdict).
//!
//! Thanks to canonical counterexample extraction the comparison is
//! *exact* — `assert_eq!` on whole `CheckResult` vectors, traces
//! included — not merely verdict agreement. A proptest closes the loop:
//! random worklists (duplicates and all) dispatched under arbitrary
//! shard counts merge to results identical to the single-session batch,
//! counting the same in-batch duplicates.

use gm_mc::{
    bmc, Backend, BitAtom, CexTrace, CheckResult, Checker, ConsequentKind, ExplicitLimits,
    WindowProperty,
};
use gm_rtl::{Bv, Module, SignalId};
use gm_sim::{NopObserver, Simulator};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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
fn properties_for(module: &Module, seed: u64, count: usize) -> Vec<WindowProperty> {
    let inputs = module.data_inputs();
    let outputs = module.outputs();
    let mut pool = inputs;
    pool.extend(outputs.iter().copied());
    let mut rng = Lcg(seed + module.name().len() as u64);
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

/// Multi-consequent temporal properties over the same mix: each window
/// property's consequent joined by the same output bit one cycle later,
/// alternately as a stability (`All`) and an eventuality (`Any`) window.
fn temporal_properties_for(module: &Module, seed: u64, count: usize) -> Vec<WindowProperty> {
    properties_for(module, seed, count)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let c = p.consequents[0];
            WindowProperty::new(
                p.antecedent,
                vec![c, BitAtom::new(c.signal, c.bit, c.offset + 1, c.value)],
                if i % 2 == 0 {
                    ConsequentKind::All
                } else {
                    ConsequentKind::Any
                },
            )
        })
        .collect()
}

/// Small explicit limits and SAT bounds so the 12-design sweep stays
/// fast (matches the batch_agree suite's rationale).
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
    temporal_cex_violates(module, prop, cex)
}

/// Replays a counterexample from reset on the interpreter and confirms
/// that its last window violates the temporal property.
fn temporal_cex_violates(module: &Module, prop: &WindowProperty, cex: &CexTrace) -> bool {
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
    let consequent_holds = match prop.kind {
        ConsequentKind::All => prop.consequents.iter().all(atom_holds),
        ConsequentKind::Any => prop.consequents.iter().any(atom_holds),
    };
    prop.antecedent.iter().all(atom_holds) && !consequent_holds
}

#[test]
fn sharded_equals_batched_equals_sequential_on_all_catalog_designs() {
    let mut temporal_violations = 0usize;
    for design in gm_designs::catalog() {
        let module = design.module();
        let props = properties_for(&module, 0x5EED_0000, 6);
        let temporals = temporal_properties_for(&module, 0x7E3A_0000, 4);
        for backend in [
            Backend::Auto,
            Backend::Bmc { bound: 4 },
            Backend::KInduction { max_k: 3 },
        ] {
            // Sequential reference: a fresh checker deciding one
            // property per call, in order.
            let mut seq_checker = checker(&module, backend);
            let sequential: Vec<CheckResult> = props
                .iter()
                .flat_map(|p| seq_checker.check_batch(std::slice::from_ref(p)).unwrap())
                .collect();
            let sequential_temporal: Vec<CheckResult> = temporals
                .iter()
                .flat_map(|p| (seq_checker.check_temporal_batch(std::slice::from_ref(p))).unwrap())
                .collect();
            // Single-session batches.
            let mut batch_checker = checker(&module, backend);
            let batched = batch_checker.check_batch(&props).unwrap();
            let batched_temporal = batch_checker.check_temporal_batch(&temporals).unwrap();
            assert_eq!(
                (&sequential, &sequential_temporal),
                (&batched, &batched_temporal),
                "batch != sequential on {} ({backend:?})",
                design.name
            );
            // Sharded batches, every shard count.
            for shards in SHARD_COUNTS {
                let mut sharded_checker = checker(&module, backend).with_shards(shards);
                let sharded = sharded_checker.check_batch(&props).unwrap();
                let sharded_temporal = sharded_checker.check_temporal_batch(&temporals).unwrap();
                assert_eq!(
                    (&batched, &batched_temporal),
                    (&sharded, &sharded_temporal),
                    "sharded({shards}) != batched on {} ({backend:?})",
                    design.name
                );
                // The same decisions and duplicates, not just results.
                let (sharded_stats, batch_stats) = (
                    sharded_checker.session_stats(),
                    batch_checker.session_stats(),
                );
                assert_eq!(
                    (sharded_stats.engine_queries(), sharded_stats.memo_hits),
                    (batch_stats.engine_queries(), batch_stats.memo_hits),
                    "shard({shards}) did different engine work on {}",
                    design.name
                );
            }
            // Violated results carry real, replayable traces.
            for (p, r) in props.iter().zip(&batched) {
                if let CheckResult::Violated(cex) = r {
                    assert!(
                        cex_violates(&module, p, cex),
                        "bogus canonical cex on {} ({backend:?})",
                        design.name
                    );
                }
            }
            // A violated multi-consequent property replays, too. On the
            // SAT backends it carries the one-shot trace (k-induction's
            // base cases stop one start short of the one-shot scan, so
            // only its violations are comparable); `Auto` answers from
            // the explicit tables where the design fits them — exact,
            // so a violation the four-start scan misses starts later.
            for (p, r) in temporals.iter().zip(&batched_temporal) {
                let one_shot = bmc(batch_checker.blasted(), p, 4);
                let scan_refutes = matches!(one_shot, CheckResult::Violated(_));
                match r {
                    CheckResult::Violated(cex) => {
                        assert!(
                            temporal_cex_violates(&module, p, cex),
                            "bogus temporal cex on {} ({backend:?})",
                            design.name
                        );
                        if backend == Backend::Auto {
                            let start = cex.len() - p.depth() as usize - 1;
                            assert!(scan_refutes || start > 4, "{}", design.name);
                        } else {
                            assert_eq!(*r, one_shot, "{} ({backend:?})", design.name);
                            temporal_violations += 1;
                        }
                    }
                    _ if backend == (Backend::KInduction { max_k: 3 }) => {}
                    _ => assert!(!scan_refutes, "{} ({backend:?})", design.name),
                }
            }
        }
    }
    assert!(
        temporal_violations >= 30,
        "{temporal_violations} violated temporal properties compared"
    );
}

/// The designs the SAT engines decide in the closure benchmark: two
/// latched blocks and two latch-free stages.
const SAT_DESIGNS: [&str; 4] = ["b17_lite", "b18_lite", "decode_stage", "wb_stage"];

/// What the SAT engines answer on a fresh unrolling per property, with
/// `checker`'s bounds: the one-shot `bmc` / `k_induction`, and for
/// `Auto` over the explicit limits BMC to refute, then k-induction.
fn one_shot(blasted: &gm_mc::Blasted, backend: Backend, p: &WindowProperty) -> CheckResult {
    match backend {
        Backend::Bmc { bound } => bmc(blasted, p, bound),
        Backend::KInduction { max_k } => gm_mc::k_induction(blasted, p, max_k),
        Backend::Auto | Backend::Explicit => match bmc(blasted, p, 4) {
            refuted @ CheckResult::Violated(_) => refuted,
            _ => gm_mc::k_induction(blasted, p, 3),
        },
    }
}

/// Sharded and single-session batches agree with each other above; on
/// the designs the SAT engines decide, both also agree with an oracle
/// outside the checker: every result — every violated verdict's trace
/// byte for byte — is the one-shot engines' on a fresh unrolling,
/// whether a shard worker, the main session's extraction helper or the
/// main session itself extracted it.
#[test]
fn sharded_sat_batches_carry_the_one_shot_traces() {
    let mut violated = 0;
    for name in SAT_DESIGNS {
        let module = gm_designs::by_name(name).unwrap().module();
        let elab = gm_rtl::elaborate(&module).unwrap();
        let blasted = gm_mc::blast(&module, &elab).unwrap();
        let props = temporal_properties_for(&module, 0x0E5D_0000, 16)
            .into_iter()
            .chain(properties_for(&module, 0x0E5D_0000, 32))
            .collect::<Vec<_>>();
        for backend in [
            Backend::Auto,
            Backend::Bmc { bound: 4 },
            Backend::KInduction { max_k: 3 },
        ] {
            let want: Vec<CheckResult> = (props.iter())
                .map(|p| one_shot(&blasted, backend, p))
                .collect();
            for shards in [1, 2, 4] {
                let mut sharded = checker(&module, backend).with_shards(shards);
                let got = sharded.check_batch(&props).unwrap();
                assert_eq!(sharded.session_stats().explicit_queries, 0, "{name}");
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got, want,
                        "{name} ({backend:?}, {shards} shards), property {i}"
                    );
                }
            }
            violated += (want.iter())
                .filter(|r| matches!(r, CheckResult::Violated(_)))
                .count();
        }
    }
    assert!(violated >= 400, "{violated} violated traces compared");
}

/// Proptest cases: `tier1` unless `PROPTEST_CASES` says otherwise.
fn cases(tier1: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(tier1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Arbitrary worklists (duplicates included) under arbitrary shard
    /// counts merge to the single-session batch results and duplicate
    /// counts.
    #[test]
    fn arbitrary_partitions_merge_to_identical_results(
        seed in any::<u32>(),
        len in 1usize..14,
        shards in 1usize..9,
    ) {
        let module = gm_designs::arbiter2();
        // Duplicates on purpose: draw from a small pool of 5 base
        // properties so most worklists repeat entries.
        let pool = properties_for(&module, u64::from(seed), 5);
        let mut rng = Lcg(u64::from(seed) ^ 0xD15B_A7C4);
        let props: Vec<WindowProperty> = (0..len)
            .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
            .collect();
        let mut plain = checker(&module, Backend::Auto);
        let batched = plain.check_batch(&props).unwrap();
        let mut sharded_checker = checker(&module, Backend::Auto).with_shards(shards);
        let sharded = sharded_checker.check_batch(&props).unwrap();
        prop_assert_eq!(&batched, &sharded);
        prop_assert_eq!(
            plain.session_stats().engine_queries(),
            sharded_checker.session_stats().engine_queries()
        );
        prop_assert_eq!(
            plain.session_stats().memo_hits,
            sharded_checker.session_stats().memo_hits
        );
        // Re-dispatching the same worklist with a different shard count
        // on the *same* checker decides it again, identically.
        let again = sharded_checker
            .with_shards((shards % 8) + 1)
            .check_batch(&props)
            .unwrap();
        prop_assert_eq!(&batched, &again);
    }
}
