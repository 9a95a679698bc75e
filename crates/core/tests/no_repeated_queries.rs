//! The engine never asks the checker the same property twice.
//!
//! Each iteration's window worklist is deduped before it is dispatched,
//! a decided leaf is never re-proposed (a proved one freezes, a refuted
//! one splits), and the temporal pass remembers every property it has
//! decided. So `SessionStats::memo_hits` — the checker's count of
//! properties it was handed again — must read 0 in every iteration of
//! every closure the benchmark runs: the `closure_explicit` legs, the
//! `closure_temporal` legs (temporal mining + coverage-ranked
//! refinement) and the `closure_sat` legs (`b18_lite` / `b17_lite`
//! under `KInduction { max_k: 2 }` with the benchmark's caps), on the
//! first two engine seeds of the benchmark's palette each.
//!
//! Under `UnknownPolicy::LeaveOpen` an `Unknown` leaf stays open and
//! pure, so its tree proposes it again every iteration. A repeat across
//! batches never reaches the checker's in-batch count, so the
//! `closure_sat` legs are also run under that policy and must do the
//! same verification work as under `AssumeTrue`, which freezes the leaf.

use gm_mc::Backend;
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, RefineConfig, ShardPolicy, TargetSelection,
    TemporalConfig, UnknownPolicy,
};

/// FNV-1a 64, the benchmark's hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The benchmark's engine-seed palette (`benchmark/src/workloads/closure.rs`).
fn palette(design: &str) -> impl Iterator<Item = u64> {
    let mut state = 0xC0FFEE ^ fnv1a(design.as_bytes());
    std::iter::repeat_with(move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// One benchmark leg: design, `kind2_outputs`, iteration cap, temporal.
type Leg = (&'static str, Option<usize>, Option<u32>, bool);

const LEGS: [Leg; 16] = [
    // closure_explicit
    ("arbiter4", None, None, false),
    ("b12_lite", None, None, false),
    ("b01", None, None, false),
    ("b02", None, None, false),
    ("b09", None, None, false),
    ("arbiter2", None, None, false),
    ("cex_small", None, None, false),
    // closure_sat
    ("decode_stage", None, None, false),
    ("wb_stage", None, None, false),
    ("b18_lite", Some(2), Some(4), false),
    ("b17_lite", Some(4), Some(5), false),
    // closure_temporal
    ("b12_lite", None, Some(1), true),
    ("arbiter4", None, None, true),
    ("b01", None, None, true),
    ("b02", None, None, true),
    ("b09", None, None, true),
];

fn run(leg: Leg, seed: u64, shards: ShardPolicy) -> ClosureOutcome {
    run_with(leg, seed, shards, |_| {})
}

fn run_with(
    (design, kind2_outputs, cap, temporal): Leg,
    seed: u64,
    shards: ShardPolicy,
    adjust: impl FnOnce(&mut EngineConfig),
) -> ClosureOutcome {
    let info = gm_designs::by_name(design).expect("a catalog design");
    let module = info.module();
    let default = EngineConfig::default();
    let mut config = EngineConfig {
        window: info.window,
        seed,
        max_iterations: cap.unwrap_or(default.max_iterations),
        temporal: TemporalConfig {
            horizon: if temporal { 2 } else { 0 },
        },
        refine: RefineConfig {
            variants: if temporal { 4 } else { 0 },
            ..default.refine
        },
        shards,
        ..default
    };
    if let Some(n) = kind2_outputs {
        config.backend = Backend::KInduction { max_k: 2 };
        config.targets = TargetSelection::Bits(
            (module.outputs().into_iter())
                .filter(|&s| module.signal_width(s) == 1)
                .take(n)
                .map(|s| (s, 0))
                .collect(),
        );
    }
    adjust(&mut config);
    Engine::new(&module, config).unwrap().run().unwrap()
}

fn assert_never_re_asked(shards: ShardPolicy) {
    let mut decided = 0;
    for leg in LEGS {
        for seed in palette(leg.0).take(2) {
            let outcome = run(leg, seed, shards);
            for (i, it) in outcome.iterations.iter().enumerate() {
                assert_eq!(
                    it.verification.memo_hits, 0,
                    "{} (temporal: {}), seed {seed:#x}, {shards:?}: iteration {i} \
                     handed the checker a property twice",
                    leg.0, leg.3
                );
            }
            decided += outcome.verification_total().engine_queries();
        }
    }
    assert!(decided > 1000, "the legs decide properties: {decided}");
}

#[test]
fn no_benchmark_closure_hands_the_checker_a_property_twice() {
    assert_never_re_asked(ShardPolicy::Off);
}

#[test]
fn sharded_closures_hand_the_checker_no_property_twice() {
    assert_never_re_asked(ShardPolicy::Fixed(3));
}

/// The `closure_sat` legs under both unknown policies. `AssumeTrue`
/// freezes an `Unknown` leaf and `LeaveOpen` keeps it open, but no
/// assumed leaf is contradicted on these legs, so both runs absorb the
/// same counterexamples. Deciding each property once, they must then
/// do the same verification work in every iteration.
#[test]
fn leaves_left_open_on_unknown_are_not_decided_again() {
    let mut unknown = 0;
    for leg in LEGS.into_iter().filter(|leg| leg.1.is_some()) {
        for seed in palette(leg.0).take(2) {
            let assume = run(leg, seed, ShardPolicy::Off);
            let open = run_with(leg, seed, ShardPolicy::Off, |c| {
                c.unknown = UnknownPolicy::LeaveOpen
            });
            assert!(assume.targets.iter().all(|t| t.stuck.is_none()));
            assert_eq!(assume.suite, open.suite, "{}, seed {seed:#x}", leg.0);
            assert_eq!(assume.iterations.len(), open.iterations.len());
            for (i, (a, o)) in assume.iterations.iter().zip(&open.iterations).enumerate() {
                assert_eq!(
                    a.verification, o.verification,
                    "{}, seed {seed:#x}: iteration {i} decided an unknown property again",
                    leg.0
                );
            }
            unknown += assume.unknown_assumed;
        }
    }
    assert!(unknown > 0, "the legs meet unknown verdicts");
}
