//! The engine's determinism contract under sharding: same seed + same
//! config ⇒ byte-identical [`ClosureOutcome`] across every
//! [`ShardPolicy`] and across repeated runs.
//!
//! "Byte-identical" is checked on the outcome's full `Debug` rendering —
//! suite labels and vectors, iteration reports, assertion order,
//! per-target summaries. Across *policies* the verification work
//! counters are normalized out first (frame/solver work legitimately
//! moves between sessions when the partition changes); across *repeated
//! runs of one policy* nothing is normalized: even the stats must
//! reproduce exactly.

use gm_mc::{Backend, SessionStats};
use gm_rtl::SignalId;
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, SeedStimulus, ShardPolicy, TargetSelection,
    TemporalConfig, UnknownPolicy,
};

const POLICIES: [ShardPolicy; 3] = [
    ShardPolicy::Off,
    ShardPolicy::Fixed(3),
    ShardPolicy::PerCore,
];

fn one_bit_targets(m: &gm_rtl::Module) -> Vec<(SignalId, u32)> {
    m.outputs()
        .into_iter()
        .filter(|&s| m.signal_width(s) == 1)
        .map(|s| (s, 0))
        .collect()
}

/// The outcome's full `Debug` rendering (the byte-identity witness).
fn full_fingerprint(outcome: &ClosureOutcome) -> String {
    format!("{outcome:?}")
}

/// The `Debug` rendering with the per-iteration verification work
/// counters normalized out — everything the closure run *produced*
/// (labels, traces, reports, assertions, targets) stays in.
fn work_normalized_fingerprint(outcome: &ClosureOutcome) -> String {
    let mut o = outcome.clone();
    for it in &mut o.iterations {
        it.verification = SessionStats::default();
    }
    format!("{o:?}")
}

fn run_with(
    mut config: EngineConfig,
    module: &gm_rtl::Module,
    policy: ShardPolicy,
) -> ClosureOutcome {
    config.shards = policy;
    Engine::new(module, config).unwrap().run().unwrap()
}

fn assert_deterministic(name: &str, module: &gm_rtl::Module, config: EngineConfig) {
    let mut normalized: Vec<(ShardPolicy, String)> = Vec::new();
    for policy in POLICIES {
        let first = run_with(config.clone(), module, policy);
        let second = run_with(config.clone(), module, policy);
        assert_eq!(
            full_fingerprint(&first),
            full_fingerprint(&second),
            "{name}: repeated {policy:?} runs differ (stats included)"
        );
        normalized.push((policy, work_normalized_fingerprint(&first)));
    }
    let (_, reference) = &normalized[0];
    for (policy, fp) in &normalized[1..] {
        assert_eq!(
            fp, reference,
            "{name}: {policy:?} produced a different outcome than {:?}",
            POLICIES[0]
        );
    }
}

#[test]
fn arbiter_outcome_is_identical_across_policies_and_runs() {
    // Explicit-engine-dominated closure with counterexample feedback.
    let module = gm_designs::arbiter2();
    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Random { cycles: 32 },
        record_coverage: false,
        ..EngineConfig::default()
    };
    assert_deterministic("arbiter2", &module, config);
}

#[test]
fn sat_backend_outcome_is_identical_across_policies_and_runs() {
    // Force the SAT engines so violated candidates exercise canonical
    // counterexample extraction — the determinism keystone.
    let module = gm_designs::b09();
    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Random { cycles: 32 },
        targets: TargetSelection::Bits(one_bit_targets(&module)),
        backend: Backend::KInduction { max_k: 4 },
        unknown: UnknownPolicy::AssumeTrue,
        max_iterations: 12,
        record_coverage: false,
        ..EngineConfig::default()
    };
    assert_deterministic("b09/k-induction", &module, config);
}

#[test]
fn zero_seed_bootstrap_is_identical_across_policies_and_runs() {
    // The §7.2 zero-pattern mode builds its whole suite from
    // counterexample traces, so any trace nondeterminism explodes here.
    let module = gm_designs::arbiter2();
    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::None,
        record_coverage: false,
        ..EngineConfig::default()
    };
    assert_deterministic("arbiter2/zero-seed", &module, config);
}

#[test]
fn temporal_outcome_is_identical_across_policies_and_runs() {
    // Temporal worklists go through the same shard pool as window ones
    // and their `tcex-*` counterexamples feed the suite. Under `Auto`
    // the explicit tables decide every candidate of this design, of
    // either kind; a forced SAT backend keeps multi-consequent
    // candidates on the shard sessions' unrollings.
    let module = gm_designs::arbiter4();
    let auto = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Random { cycles: 32 },
        temporal: TemporalConfig { horizon: 2 },
        record_coverage: false,
        ..EngineConfig::default()
    };
    let total = run_with(auto.clone(), &module, ShardPolicy::Fixed(3)).verification_total();
    assert!(
        total.explicit_queries > 0 && total.sat_decided == 0,
        "a temporal candidate left the explicit tables: {total:?}"
    );
    assert_deterministic("arbiter4/temporal", &module, auto.clone());

    let sat = EngineConfig {
        backend: Backend::KInduction { max_k: 2 },
        unknown: UnknownPolicy::AssumeTrue,
        max_iterations: 2,
        ..auto
    };
    let total = run_with(sat.clone(), &module, ShardPolicy::Fixed(3)).verification_total();
    assert!(
        total.sat_decided > 0 && total.cex_canonicalized > 0,
        "no temporal candidate reached the SAT engines: {total:?}"
    );
    assert_deterministic("arbiter4/temporal/k-induction", &module, sat);
}

/// Stress/soak on the largest catalog design with per-core sharding:
/// a deep engine run cross-checked for session-stat drift, then a
/// 100-round sharded-batch budget hammering one persistent session
/// pool. Run by the CI release job only
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "soak test: run in release CI (cargo test --release -- --ignored)"]
fn soak_b18_lite_100_iterations_per_core_no_drift() {
    let module = gm_designs::b18_lite();
    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Random { cycles: 48 },
        // One target bit and a bounded refinement depth: on b18_lite the
        // miner's candidate set grows geometrically with iterations
        // (~18k live candidates by iteration 6 — window-1 trees over 22
        // features cannot represent the datapath compactly, the paper's
        // own large-design caveat), so the 100-round budget below goes
        // to the verification sessions, which are what this soak
        // stresses.
        targets: TargetSelection::Bits(vec![one_bit_targets(&module)[0]]),
        backend: Backend::KInduction { max_k: 1 },
        unknown: UnknownPolicy::AssumeTrue,
        max_iterations: 4,
        record_coverage: false,
        ..EngineConfig::default()
    };
    let single = run_with(config.clone(), &module, ShardPolicy::Fixed(1));
    let sharded = run_with(config.clone(), &module, ShardPolicy::PerCore);
    // Identical artifacts...
    assert_eq!(
        work_normalized_fingerprint(&single),
        work_normalized_fingerprint(&sharded),
        "per-core soak outcome drifted from single-shard"
    );
    // ...and no drift in the decision counters: sharding moves work
    // between sessions but never changes how much deciding happens.
    let s1 = single.verification_total();
    let sn = sharded.verification_total();
    assert_eq!(s1.engine_queries(), sn.engine_queries(), "query drift");
    assert_eq!(s1.memo_hits, sn.memo_hits, "memo drift");
    assert_eq!(s1.sat_decided, sn.sat_decided, "SAT attribution drift");
    assert_eq!(
        s1.cex_canonicalized, sn.cex_canonicalized,
        "canonicalization drift"
    );

    // The 100-round sharded budget: hammering one checker's persistent
    // per-core session pool with the same worklist for 100 rounds must
    // re-decide it identically every round, doing the same engine work
    // each time (the checker keeps no verdicts).
    let mut checker = gm_mc::Checker::new(&module)
        .unwrap()
        .with_backend(Backend::KInduction { max_k: 1 })
        .with_shards(ShardPolicy::PerCore.shard_count());
    let props: Vec<gm_mc::WindowProperty> = single
        .assertions
        .iter()
        .take(16)
        .map(goldmine::assertion_property)
        .collect();
    assert!(!props.is_empty(), "soak needs a non-trivial worklist");
    let first = checker.check_batch(&props).unwrap();
    let per_round = checker.session_stats().engine_queries();
    for _ in 0..99 {
        let again = checker.check_batch(&props).unwrap();
        assert_eq!(first, again, "soak round diverged");
    }
    assert_eq!(
        checker.session_stats().engine_queries(),
        100 * per_round,
        "a soak round did other engine work"
    );
}
