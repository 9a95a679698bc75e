//! Artifact identity of the SAT-decided closure runs.
//!
//! The `closure_sat` benchmark legs — decode_stage and wb_stage under
//! the default config, b18_lite and b17_lite under `KInduction { 2 }`
//! on their first one-bit outputs with the benchmark's iteration caps —
//! each on the first two engine seeds of the benchmark's palette. What
//! is pinned is an FNV-1a of the [`ClosureOutcome`] render with only
//! `IterationReport.verification.solver` zeroed: `sat_queries`,
//! `sat_decided`, `frames_*`, `cex_canonicalized`, every assertion, the
//! suite (every counterexample trace) and every coverage report stay
//! in. The constants were captured on the commit *before* session
//! queries became scoped (PR 16's method: goldens first, in a clone of
//! the parent, then the change), so a pass says the scoped sessions
//! decide exactly what the full-model sessions decided and hand back
//! exactly the same traces. The solver counters are the one thing
//! allowed to move: summed propagations and conflicts must stay
//! strictly below what the parent commit recorded (re-captured by every
//! PR that moves them; why decisions are not compared is noted at
//! `PARENT_PROPAGATIONS`).
//!
//! Under `GM_TEST_SHARDS=<n>` (CI's sharded leg, read as
//! `tests/pipeline.rs` reads it) every leg also runs on `n` fixed
//! shards, whose sessions each see a different slice of the history,
//! and must produce the pinned artifacts all the same: everything but
//! the work counters, which legitimately move between sessions.

use gm_mc::{Backend, SessionStats};
use goldmine::{ClosureOutcome, Engine, EngineConfig, ShardPolicy, TargetSelection};

/// FNV-1a 64, the benchmark's outcome hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The benchmark's engine-seed palette (`benchmark/src/workloads/closure.rs`):
/// a splitmix64 stream per design, forked off one root by the design's
/// name.
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

/// One `closure_sat` leg: `(design, kind2_outputs, max_iterations)`.
const LEGS: [(&str, Option<usize>, Option<u32>); 4] = [
    ("decode_stage", None, None),
    ("wb_stage", None, None),
    ("b18_lite", Some(2), Some(4)),
    ("b17_lite", Some(4), Some(5)),
];

/// Per leg, the hash of the first two palette seeds' outcomes.
const GOLDEN: [[u64; 2]; 4] = [
    [0xea05_7a54_3015_0b40, 0xeac8_5ed3_1f9b_e211],
    [0x1b8a_a6c8_a114_1f3e, 0x2be6_18f2_2ee9_091b],
    [0x3504_cbb3_dcd7_de1f, 0x8c93_1a96_1245_b660],
    [0xcdcc_6b3b_4940_abb9, 0x76bb_8f60_e384_271d],
];

/// Summed over the eight runs at commit `a1d205b`, where a scoped
/// query still propagated the whole unrolling: a clause unit on a
/// variable outside the query's cone was implied all the same.
/// Decisions are not compared: they follow the scope, not the
/// propagation, and a violation assumed as its atoms' own literals
/// takes one decision level per unassigned atom, so they may rise while
/// the work behind them drops.
const PARENT_PROPAGATIONS: u64 = 2_240_641;
const PARENT_CONFLICTS: u64 = 215;

fn run(
    (design, kind2_outputs, cap): (&str, Option<usize>, Option<u32>),
    seed: u64,
    shards: ShardPolicy,
) -> ClosureOutcome {
    let info = gm_designs::by_name(design).expect("a catalog design");
    let module = info.module();
    let default = EngineConfig::default();
    let mut config = EngineConfig {
        window: info.window,
        seed,
        max_iterations: cap.unwrap_or(default.max_iterations),
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
    Engine::new(&module, config).unwrap().run().unwrap()
}

/// The render with every verification work counter zeroed: what a run
/// produced, whichever sessions did the work.
fn artifacts(mut outcome: ClosureOutcome) -> String {
    for it in &mut outcome.iterations {
        it.verification = SessionStats::default();
    }
    format!("{outcome:?}")
}

#[test]
fn scoped_sessions_leave_every_closure_sat_artifact_as_the_parent_left_it() {
    let sharded = std::env::var("GM_TEST_SHARDS")
        .ok()
        .map(|n| ShardPolicy::Fixed(n.parse().expect("GM_TEST_SHARDS must be a number")));
    let mut hashes = [[0u64; 2]; 4];
    let (mut decisions, mut propagations, mut conflicts, mut sat_queries) = (0, 0, 0, 0);
    for (leg, &config) in LEGS.iter().enumerate() {
        for (slot, seed) in palette(config.0).take(2).enumerate() {
            let mut outcome = run(config, seed, ShardPolicy::Off);
            for it in &mut outcome.iterations {
                decisions += it.verification.solver.decisions;
                propagations += it.verification.solver.propagations;
                conflicts += it.verification.solver.conflicts;
                sat_queries += it.verification.sat_queries;
                it.verification.solver = Default::default();
            }
            hashes[leg][slot] = fnv1a(format!("{outcome:?}").as_bytes());
            if let Some(policy) = sharded {
                assert_eq!(
                    artifacts(run(config, seed, policy)),
                    artifacts(outcome),
                    "{}, seed {seed:#x}: {policy:?} produced other artifacts",
                    config.0
                );
            }
        }
    }
    assert!(sat_queries > 1000, "the legs reach SAT: {sat_queries}");
    assert_eq!(
        hashes, GOLDEN,
        "an artifact moved; got {hashes:#x?} with {decisions} decisions, \
         {propagations} propagations, {conflicts} conflicts"
    );
    assert!(
        propagations < PARENT_PROPAGATIONS && conflicts < PARENT_CONFLICTS,
        "{propagations} propagations / {conflicts} conflicts are not below the parent's \
         {PARENT_PROPAGATIONS} / {PARENT_CONFLICTS}"
    );
}
