//! End-to-end tests of the refinement loop on the paper's examples.

use gm_mc::{CheckResult, Checker};
use gm_rtl::parse_verilog;
use gm_sim::DirectedStimulus;
use goldmine::{
    assertion_property, fault_campaign, Engine, EngineConfig, SeedStimulus, TargetSelection,
};

const ARBITER2: &str = "
module arbiter2(input clk, input rst, input req0, input req1,
                output reg gnt0, output reg gnt1);
  always @(posedge clk)
    if (rst) begin
      gnt0 <= 0; gnt1 <= 0;
    end else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule";

const CEX_SMALL: &str = "
module cex_small(input a, input b, input c, output z);
  assign z = (a & b) | (~a & c);
endmodule";

#[test]
fn arbiter_converges_and_assertions_are_sound() {
    let m = parse_verilog(ARBITER2).unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let config = EngineConfig {
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        stimulus: SeedStimulus::Random { cycles: 32 },
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    assert!(outcome.converged, "targets: {:?}", outcome.targets);
    assert!(
        outcome.unknown_assumed == 0,
        "explicit engine is exact here"
    );
    assert!(!outcome.assertions.is_empty());

    // Every reported assertion must independently re-verify.
    let mut checker = Checker::new(&m).unwrap();
    for a in &outcome.assertions {
        let prop = assertion_property(a);
        let res = checker.check_batch(std::slice::from_ref(&prop)).unwrap();
        assert_eq!(
            res,
            [CheckResult::Proved],
            "unsound assertion {}",
            a.to_ltl(&m)
        );
    }

    // At convergence the paper's input-space coverage is exactly 100%.
    let last = outcome.iterations.last().unwrap();
    assert!(
        (last.input_space_coverage - 1.0).abs() < 1e-9,
        "coverage closure reached, got {}",
        last.input_space_coverage
    );

    // The full functionality needs gnt0(t-1): the tree must have extended
    // (the paper's third-iteration move in §6).
    assert!(outcome.targets[0].extended, "state extension used");
}

#[test]
fn input_space_coverage_is_monotonic() {
    // The paper's core claim: every iteration increases coverage; no
    // plateaus (§5).
    let m = parse_verilog(ARBITER2).unwrap();
    let outcome = Engine::new(&m, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let series: Vec<f64> = outcome
        .iterations
        .iter()
        .map(|r| r.input_space_coverage)
        .collect();
    for w in series.windows(2) {
        assert!(w[1] >= w[0] - 1e-12, "coverage decreased: {series:?}");
    }
    assert!(outcome.converged);
}

#[test]
fn zero_seed_mode_matches_table1_shape() {
    // §7.2: starting from no patterns at all, the loop bootstraps itself
    // from the "output always 0" hypothesis and still converges to 100%.
    let m = parse_verilog(ARBITER2).unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let config = EngineConfig {
        stimulus: SeedStimulus::None,
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        record_coverage: false,
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    assert!(outcome.converged);
    let series: Vec<f64> = outcome
        .iterations
        .iter()
        .map(|r| r.input_space_coverage)
        .collect();
    assert_eq!(series[0], 0.0, "iteration 0 has no proved assertions");
    assert!((series.last().unwrap() - 1.0).abs() < 1e-9);
    // The suite was built entirely from counterexamples.
    assert!(!outcome.suite.is_empty());
    assert!(outcome
        .suite
        .segments()
        .all(|s| s.label.starts_with("cex-")));
}

#[test]
fn combinational_block_closes_with_window_zero() {
    let m = parse_verilog(CEX_SMALL).unwrap();
    let config = EngineConfig {
        window: 0,
        stimulus: SeedStimulus::Random { cycles: 4 },
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    assert!(outcome.converged);
    // The final tree predicts the output function exactly; verify via
    // the proved assertions' disjoint input-space sum.
    assert!((outcome.final_input_space_coverage() - 1.0).abs() < 1e-9);
}

#[test]
fn directed_seed_reproduces_paper_walkthrough() {
    // §6: seed the arbiter with the paper's 4-row directed test and
    // confirm convergence plus the A11/A12-style state-extended
    // assertions.
    let m = parse_verilog(ARBITER2).unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let directed = DirectedStimulus::from_named(
        &m,
        &[
            &[("req0", 0), ("req1", 0)],
            &[("req0", 1), ("req1", 0)],
            &[("req0", 1), ("req1", 1)],
            &[("req0", 0), ("req1", 1)],
            &[("req0", 1), ("req1", 1)],
        ],
    )
    .unwrap();
    let config = EngineConfig {
        stimulus: SeedStimulus::Directed(directed.vectors().to_vec()),
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    assert!(outcome.converged);
    let ltl: Vec<String> = outcome.assertions.iter().map(|a| a.to_ltl(&m)).collect();
    // A2 family: two idle request cycles keep the grant low.
    assert!(
        ltl.iter()
            .any(|s| s.contains("!req0") && s.contains("!gnt0")),
        "expected an idle-implies-no-grant assertion, got {ltl:#?}"
    );
    // Some assertion must reference the extended state feature gnt0@0.
    assert!(
        outcome
            .assertions
            .iter()
            .any(|a| a.literals.iter().any(|(f, _)| f.signal == gnt0)),
        "expected a gnt0(t-1)-style literal, got {ltl:#?}"
    );
}

#[test]
fn coverage_report_improves_with_iterations() {
    let m = parse_verilog(ARBITER2).unwrap();
    let config = EngineConfig {
        stimulus: SeedStimulus::None,
        record_coverage: true,
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    let first = outcome.iterations.first().unwrap().coverage.unwrap();
    let last = outcome.iterations.last().unwrap().coverage.unwrap();
    assert!(last.expression.covered >= first.expression.covered);
    assert!(last.toggle.covered >= first.toggle.covered);
    assert!(last.line.covered >= first.line.covered);
}

#[test]
fn fault_campaign_detects_stuck_grants() {
    let m = parse_verilog(ARBITER2).unwrap();
    let outcome = Engine::new(&m, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert!(outcome.converged);
    let gnt0 = m.require("gnt0").unwrap();
    let req0 = m.require("req0").unwrap();
    let reports = fault_campaign(&m, &outcome.assertions, &[gnt0, req0]).unwrap();
    assert_eq!(reports.len(), 4);
    for r in &reports {
        assert!(
            r.is_detected(),
            "fault {:?} {} escaped {} assertions",
            m.signal(r.signal).name(),
            r.fault,
            r.checked
        );
    }
}

#[test]
fn generated_suite_detects_faults_by_simulation() {
    // §7.4's closing remark: the generated vector suite itself is an
    // effective regression vehicle, without any assertion checking.
    let m = parse_verilog(ARBITER2).unwrap();
    let outcome = Engine::new(&m, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert!(outcome.converged);
    let req0 = m.require("req0").unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    for (sig, fault) in [
        (req0, goldmine::FaultKind::StuckAt0),
        (req0, goldmine::FaultKind::StuckAt1),
        (gnt0, goldmine::FaultKind::StuckAt0),
        (gnt0, goldmine::FaultKind::StuckAt1),
    ] {
        let hit = goldmine::suite_detects_fault(&m, &outcome.suite, sig, fault).unwrap();
        assert!(
            hit.is_some(),
            "suite missed {} {fault}",
            m.signal(sig).name()
        );
        // The tapes find what the interpreter finds: same first
        // differing (segment, cycle, output).
        let mutant = m.with_stuck_signal(sig, fault.stuck_value(m.signal_width(sig)));
        let golden = outcome.suite.run(&m, &mut gm_sim::NopObserver).unwrap();
        let faulty = outcome
            .suite
            .run(&mutant, &mut gm_sim::NopObserver)
            .unwrap();
        let reference = golden
            .iter()
            .zip(&faulty)
            .enumerate()
            .find_map(|(si, (g, f))| {
                (0..g.len()).find_map(|cycle| {
                    m.outputs()
                        .into_iter()
                        .find(|&out| g.value(cycle, out) != f.value(cycle, out))
                        .map(|out| (si, cycle, out))
                })
            });
        assert_eq!(hit, reference, "{} {fault}", m.signal(sig).name());
    }
}

#[test]
fn iteration_reports_carry_session_stats() {
    // Acceptance: a multi-iteration closure run attributes non-zero
    // verification-session work to its iteration reports.
    let m = parse_verilog(ARBITER2).unwrap();
    let config = EngineConfig {
        stimulus: SeedStimulus::None,
        record_coverage: false,
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    assert!(outcome.converged);
    assert!(outcome.iteration_count() >= 2, "multi-iteration run");
    let total = outcome.verification_total();
    assert!(
        total.engine_queries() > 0,
        "no queries attributed: {total:?}"
    );
    // arbiter2 fits the explicit engine, so Auto decides everything there.
    assert!(total.explicit_queries > 0);
    // At least one post-seed iteration did verification work.
    assert!(outcome
        .iterations
        .iter()
        .skip(1)
        .any(|r| r.verification.engine_queries() > 0));
}

#[test]
fn sat_backend_session_reuses_unrollings_across_iterations() {
    // Force the SAT engines: the whole run must share at most one
    // reset-rooted and one free-init unrolling, reusing frames.
    let m = parse_verilog(ARBITER2).unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let config = EngineConfig {
        backend: gm_mc::Backend::KInduction { max_k: 8 },
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        record_coverage: false,
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    let total = outcome.verification_total();
    assert!(total.sat_queries > 0);
    assert!(total.solver.propagations > 0);
    assert!(
        total.unrollers_built <= 2,
        "session rebuilt unrollings: {total:?}"
    );
    assert!(total.frames_reused > 0, "no frame reuse: {total:?}");
}

#[test]
fn closure_outcomes_byte_identical_across_sim_backends() {
    // The simulation backend feeds every layer of the loop (seed
    // traces, counterexample replay, per-iteration coverage), so this
    // is the outcome-level face of the `sim/compiled_agree` contract:
    // the full ClosureOutcome debug render — suite vectors, iteration
    // reports including coverage, assertions, target summaries — must
    // not depend on the engine.
    for src in [ARBITER2, CEX_SMALL] {
        let m = parse_verilog(src).unwrap();
        let backends = [
            goldmine::SimBackend::Interpreter,
            goldmine::SimBackend::CompiledBatch(1),
            goldmine::SimBackend::CompiledBatch(2),
            goldmine::SimBackend::CompiledBatch(4),
            goldmine::SimBackend::CompiledBatch(8),
        ];
        let outcomes: Vec<String> = backends
            .into_iter()
            .map(|sim_backend| {
                let config = EngineConfig {
                    window: if src == CEX_SMALL { 0 } else { 1 },
                    record_coverage: true,
                    sim_backend,
                    ..EngineConfig::default()
                };
                format!("{:?}", Engine::new(&m, config).unwrap().run().unwrap())
            })
            .collect();
        for (backend, outcome) in backends.iter().zip(&outcomes).skip(1) {
            assert_eq!(&outcomes[0], outcome, "{backend:?} diverged");
        }
    }
}

#[test]
fn a_repeated_target_is_mined_once_where_first_named() {
    // A target listed twice would grow the same tree twice and file
    // every proved assertion twice; the engine mines each bit once, in
    // the place the list first names it, so the outcome is the
    // single-listing one byte for byte.
    let m = parse_verilog(ARBITER2).unwrap();
    let gnt0 = m.require("gnt0").unwrap();
    let gnt1 = m.require("gnt1").unwrap();
    let run = |targets| {
        let config = EngineConfig {
            targets,
            stimulus: SeedStimulus::Random { cycles: 32 },
            ..EngineConfig::default()
        };
        format!("{:?}", Engine::new(&m, config).unwrap().run().unwrap())
    };
    for (repeated, single) in [
        (
            TargetSelection::Bits(vec![(gnt0, 0), (gnt0, 0)]),
            TargetSelection::Bits(vec![(gnt0, 0)]),
        ),
        (
            TargetSelection::Bits(vec![(gnt0, 0), (gnt1, 0), (gnt0, 0)]),
            TargetSelection::Bits(vec![(gnt0, 0), (gnt1, 0)]),
        ),
        (
            TargetSelection::Signals(vec![gnt0, gnt1, gnt0]),
            TargetSelection::Signals(vec![gnt0, gnt1]),
        ),
    ] {
        let label = format!("{repeated:?}");
        assert_eq!(run(repeated), run(single), "{label}");
    }
}
