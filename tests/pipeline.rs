//! Workspace-level integration: the full pipeline across the whole
//! design catalog, run concurrently as jobs of one in-process closure
//! service (every served outcome is identical to a standalone engine
//! run by the service's determinism contract).
//!
//! The CI matrix re-runs this suite with `GM_TEST_SHARDS=<n>` (and a
//! serial test scheduler) to force every engine onto a fixed shard
//! count — order bugs in the shard dispatch surface here.

use gm_mc::Backend;
use gm_rtl::{Module, SignalId};
use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, SeedStimulus, ShardPolicy, TargetSelection, UnknownPolicy,
};

fn one_bit_targets(m: &gm_rtl::Module) -> Vec<(SignalId, u32)> {
    m.outputs()
        .into_iter()
        .filter(|&s| m.signal_width(s) == 1)
        .map(|s| (s, 0))
        .collect()
}

/// Closes every job on one in-process service (one worker per core)
/// and returns the outcomes in submission order; a failed job fails the
/// test with its design's name.
fn close_all(
    jobs: Vec<(&'static str, Module, EngineConfig)>,
) -> Vec<(&'static str, ClosureOutcome)> {
    let service = ClosureService::new(ServeConfig::default());
    let submitted: Vec<_> = (jobs.into_iter())
        .map(|(name, module, config)| {
            let opts = SubmitOptions::default();
            let (id, _) = (service.submit_module(name, module, config, opts))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, id)
        })
        .collect();
    let outcomes = (submitted.into_iter())
        .map(|(name, id)| {
            service.wait(id);
            let outcome = service.take_outcome(id).expect("a finished job");
            (name, outcome.unwrap_or_else(|e| panic!("{name}: {e}")))
        })
        .collect();
    service.shutdown();
    outcomes
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
    let mut jobs = Vec::new();
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
        jobs.push((d.name, module, config));
    }
    let runs = close_all(jobs);
    assert_eq!(runs.len(), catalog.len());
    for (name, outcome) in &runs {
        // Monotonic input-space coverage on every design (the paper's
        // forward-progress claim).
        let series: Vec<f64> = outcome
            .iterations
            .iter()
            .map(|r| r.input_space_coverage)
            .collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "{name}: regression in {series:?}");
        }
        // No target may get stuck on a mining contradiction.
        for t in &outcome.targets {
            assert!(
                t.stuck.is_none(),
                "{name}: target {:?}[{}] stuck: {:?}",
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
    let mut jobs = Vec::new();
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
        jobs.push((name, module, config));
    }
    let runs = close_all(jobs);
    assert_eq!(runs.len(), names.len());
    for (name, outcome) in &runs {
        assert!(outcome.converged, "{name} failed to converge");
        assert_eq!(outcome.unknown_assumed, 0, "{name} needed unknown-assume");
        assert!(
            (outcome.final_input_space_coverage() - 1.0).abs() < 1e-9,
            "{name}: coverage closure incomplete"
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
