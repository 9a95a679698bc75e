//! Temporal mining end-to-end: mined next/eventuality/stability
//! templates are proved or falsified by the checker (on the explicit
//! tables for designs this small, re-verified by k-induction), and the
//! outcome is byte-identical across every simulation backend.

use gm_mc::{Backend, CheckResult, Checker};
use gm_rtl::parse_verilog;
use goldmine::{
    assertion_property, Engine, EngineConfig, SeedStimulus, SimBackend, TemporalConfig,
};

/// A sticky bit: once `set` pulses, `q` holds 1 forever — the cleanest
/// source of provable stability windows (`set |-> q & Xq & XXq`).
const STICKY: &str = "
module sticky(input clk, input rst, input set, output reg q);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (set) q <= 1;
endmodule";

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

fn temporal_config(horizon: u32) -> EngineConfig {
    EngineConfig {
        stimulus: SeedStimulus::Random { cycles: 32 },
        temporal: TemporalConfig { horizon },
        ..EngineConfig::default()
    }
}

#[test]
fn sticky_bit_yields_proved_stability_windows() {
    let m = parse_verilog(STICKY).unwrap();
    let outcome = Engine::new(&m, temporal_config(2)).unwrap().run().unwrap();
    assert!(outcome.converged, "targets: {:?}", outcome.targets);
    assert_eq!(outcome.unknown_assumed, 0, "small design decides exactly");
    assert!(
        !outcome.temporal.is_empty(),
        "sticky bit must yield at least one temporal assertion"
    );
    // The signature claim: some proved assertion keeps q high past the
    // target cycle (a stability or next template on q = 1).
    assert!(
        outcome
            .temporal
            .iter()
            .any(|a| a.value && *a.consequent_offsets().end() > a.target.offset),
        "expected a multi-cycle q-stays-high claim, got {:#?}",
        outcome
            .temporal
            .iter()
            .map(|a| a.to_ltl(&m))
            .collect::<Vec<_>>()
    );
}

#[test]
fn proved_temporal_assertions_reverify_on_a_fresh_checker() {
    for src in [STICKY, ARBITER2] {
        let m = parse_verilog(src).unwrap();
        let outcome = Engine::new(&m, temporal_config(2)).unwrap().run().unwrap();
        assert_eq!(outcome.unknown_assumed, 0);
        // The run proved them on the explicit tables; the oracle is an
        // independent engine, not the tables agreeing with themselves.
        let mut checker = Checker::new(&m)
            .unwrap()
            .with_backend(Backend::KInduction { max_k: 8 });
        for a in &outcome.temporal {
            let prop = assertion_property(a);
            let res = checker.check_batch(std::slice::from_ref(&prop)).unwrap();
            assert_eq!(
                res,
                [CheckResult::Proved],
                "unsound temporal assertion {}",
                a.to_ltl(&m)
            );
        }
    }
}

#[test]
fn refuted_temporal_candidates_feed_the_suite() {
    // The arbiter's grants flip as requests change, so stability
    // candidates mined from a short window get refuted — their
    // counterexamples must land in the suite as tcex-* segments and be
    // dispatched exactly once (the decided-set contract).
    let m = parse_verilog(ARBITER2).unwrap();
    let config = EngineConfig {
        // Sparse seed data: the miner overgeneralizes stability from
        // few samples, guaranteeing refutable temporal candidates.
        stimulus: SeedStimulus::Random { cycles: 16 },
        ..temporal_config(2)
    };
    let outcome = Engine::new(&m, config).unwrap().run().unwrap();
    let total_refuted: usize = outcome.iterations.iter().map(|r| r.temporal_refuted).sum();
    let tcex_segments = outcome
        .suite
        .segments()
        .filter(|s| s.label.starts_with("tcex-"))
        .count();
    assert_eq!(total_refuted, tcex_segments);
    assert!(
        total_refuted > 0,
        "arbiter grants are unstable; some temporal candidate must refute"
    );
    // Counters stay coherent: the cumulative proved count in the last
    // report equals the outcome list.
    let last = outcome.iterations.last().unwrap();
    assert_eq!(last.temporal_proved, outcome.temporal.len());
}

#[test]
fn temporal_outcomes_byte_identical_across_sim_backends() {
    for src in [STICKY, ARBITER2] {
        let m = parse_verilog(src).unwrap();
        let backends = [
            SimBackend::Interpreter,
            SimBackend::CompiledBatch(1),
            SimBackend::CompiledBatch(4),
        ];
        let outcomes: Vec<String> = backends
            .into_iter()
            .map(|sim_backend| {
                let config = EngineConfig {
                    sim_backend,
                    ..temporal_config(2)
                };
                format!("{:?}", Engine::new(&m, config).unwrap().run().unwrap())
            })
            .collect();
        for (backend, outcome) in backends.iter().zip(&outcomes).skip(1) {
            assert_eq!(&outcomes[0], outcome, "{backend:?} diverged on {src}");
        }
    }
}

#[test]
fn horizon_zero_reproduces_the_combinational_engine() {
    // The new knobs must default to the old behavior: horizon 0 and
    // the default EngineConfig produce byte-identical outcomes.
    let m = parse_verilog(ARBITER2).unwrap();
    let explicit_zero = format!(
        "{:?}",
        Engine::new(&m, temporal_config(0)).unwrap().run().unwrap()
    );
    // The same run through the old config surface (temporal knob left
    // at its default), with the stimulus matched for fairness.
    let plain = format!(
        "{:?}",
        Engine::new(
            &m,
            EngineConfig {
                stimulus: SeedStimulus::Random { cycles: 32 },
                ..EngineConfig::default()
            }
        )
        .unwrap()
        .run()
        .unwrap()
    );
    assert_eq!(explicit_zero, plain);
}
