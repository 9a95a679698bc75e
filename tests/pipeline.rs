//! Workspace-level integration: the full pipeline across the whole
//! design catalog, run concurrently as one [`Campaign`] (every outcome
//! is identical to a standalone engine run by the engine's determinism
//! contract).
//!
//! The CI matrix re-runs this suite with `GM_TEST_SHARDS=<n>` (and a
//! serial test scheduler) to force every engine onto a fixed shard
//! count — order bugs in the shard dispatch surface here.

use gm_mc::Backend;
use gm_rtl::SignalId;
use goldmine::{
    Campaign, Engine, EngineConfig, SeedStimulus, ShardPolicy, TargetSelection, UnknownPolicy,
};

fn one_bit_targets(m: &gm_rtl::Module) -> Vec<(SignalId, u32)> {
    m.outputs()
        .into_iter()
        .filter(|&s| m.signal_width(s) == 1)
        .map(|s| (s, 0))
        .collect()
}

/// The shard policy under test: `GM_TEST_SHARDS=<n>` forces
/// `Fixed(n)` (the CI matrix leg), otherwise the default `Off`.
fn shard_policy_under_test() -> ShardPolicy {
    match std::env::var("GM_TEST_SHARDS") {
        Ok(v) => ShardPolicy::Fixed(v.parse().expect("GM_TEST_SHARDS must be a number")),
        Err(_) => ShardPolicy::Off,
    }
}

#[test]
fn every_catalog_design_runs_through_the_loop() {
    let catalog = gm_designs::catalog();
    let mut campaign = Campaign::new();
    for d in &catalog {
        let module = d.module();
        // The two big lite blocks exceed explicit limits; bound their
        // runs hard (full-scale runs live in the release-mode
        // experiment binaries).
        let (backend, max_iterations, targets) = match d.name {
            "b17_lite" | "b18_lite" => (
                Backend::KInduction { max_k: 1 },
                1,
                vec![one_bit_targets(&module)[0]],
            ),
            _ => (Backend::Auto, 24, one_bit_targets(&module)),
        };
        let config = EngineConfig {
            window: d.window,
            stimulus: SeedStimulus::Random { cycles: 48 },
            targets: TargetSelection::Bits(targets),
            backend,
            max_iterations,
            unknown: UnknownPolicy::AssumeTrue,
            shards: shard_policy_under_test(),
            record_coverage: false,
            ..EngineConfig::default()
        };
        campaign.push(d.name, module, config);
    }
    let summary = campaign.run();
    // The campaign must visit every design, in catalog order.
    assert_eq!(summary.runs.len(), catalog.len());
    for (d, run) in catalog.iter().zip(&summary.runs) {
        assert_eq!(d.name, run.name, "campaign skipped or reordered a design");
    }
    assert!(summary.all_ok(), "{}", summary.report());
    for run in &summary.runs {
        let outcome = run.outcome.as_ref().unwrap();
        // Monotonic input-space coverage on every design (the paper's
        // forward-progress claim).
        let series: Vec<f64> = outcome
            .iterations
            .iter()
            .map(|r| r.input_space_coverage)
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "{}: regression in {series:?}",
                run.name
            );
        }
        // No target may get stuck on a mining contradiction.
        for t in &outcome.targets {
            assert!(
                t.stuck.is_none(),
                "{}: target {:?}[{}] stuck: {:?}",
                run.name,
                t.signal,
                t.bit,
                t.stuck
            );
        }
    }
}

#[test]
fn exact_backends_converge_on_the_small_designs() {
    let names = [
        "cex_small",
        "arbiter2",
        "b01",
        "b02",
        "b09",
        "b12_lite",
        "fetch_stage",
    ];
    let mut campaign = Campaign::new();
    for name in names {
        let d = gm_designs::by_name(name).unwrap();
        let module = d.module();
        let config = EngineConfig {
            window: d.window,
            stimulus: SeedStimulus::Random { cycles: 64 },
            targets: TargetSelection::Bits(one_bit_targets(&module)),
            shards: shard_policy_under_test(),
            record_coverage: false,
            max_iterations: 64,
            ..EngineConfig::default()
        };
        campaign.push(name, module, config);
    }
    let summary = campaign.run();
    assert_eq!(summary.runs.len(), names.len());
    assert!(summary.all_ok(), "{}", summary.report());
    for run in &summary.runs {
        let outcome = run.outcome.as_ref().unwrap();
        assert!(outcome.converged, "{} failed to converge", run.name);
        assert_eq!(
            outcome.unknown_assumed, 0,
            "{} needed unknown-assume",
            run.name
        );
        assert!(
            (outcome.final_input_space_coverage() - 1.0).abs() < 1e-9,
            "{}: coverage closure incomplete",
            run.name
        );
    }
}

#[test]
fn suite_traces_export_vcd() {
    let module = gm_designs::arbiter2();
    let outcome = Engine::new(&module, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let traces = outcome
        .suite
        .run(&module, &mut gm_sim::NopObserver)
        .unwrap();
    let vcd = traces[0].to_vcd_string();
    assert!(vcd.contains("$var wire 1"));
    assert!(vcd.contains("gnt0"));
    assert!(vcd.contains("$enddefinitions"));
}

#[test]
fn assertions_render_in_both_notations() {
    let module = gm_designs::arbiter2();
    let outcome = Engine::new(&module, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    for a in &outcome.assertions {
        let ltl = a.to_ltl(&module);
        let sva = a.to_sva(&module);
        assert!(ltl.contains("=>"), "{ltl}");
        assert!(sva.starts_with("@(posedge clk)"), "{sva}");
        assert!(sva.contains("|->"), "{sva}");
    }
}
