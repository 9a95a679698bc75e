//! A property the engine decides is never dispatched again in the run.
//!
//! A temporal verdict never touches its leaf, so a leaf whose lookahead
//! does not change keeps proposing the same temporal candidate
//! iteration after iteration; only the engine's remembered set of
//! decided properties keeps it off later batches. `memo_hits` cannot
//! see such a repeat (it counts duplicates *within* one batch), and a
//! repeated proof files the same assertion again, so this checks the
//! run's books: every dispatched temporal candidate is filed exactly
//! once — proved into `outcome.temporal`, or refuted into one `tcex-*`
//! segment — and the proved list holds no property twice.

use goldmine::{assertion_property, Engine, EngineConfig, SeedStimulus, TemporalConfig};
use std::collections::HashSet;

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

#[test]
fn a_decided_temporal_candidate_is_dispatched_once_per_run() {
    // Whether some proved candidate is proposed again later: without
    // one, this run could not tell a remembered set from none.
    let mut reproposed = 0;
    for src in [STICKY, ARBITER2] {
        for cycles in [16, 32] {
            let m = gm_rtl::parse_verilog(src).unwrap();
            let config = EngineConfig {
                stimulus: SeedStimulus::Random { cycles },
                temporal: TemporalConfig { horizon: 2 },
                ..EngineConfig::default()
            };
            let outcome = Engine::new(&m, config).unwrap().run().unwrap();
            assert_eq!(outcome.unknown_assumed, 0, "small designs decide exactly");
            let reports = &outcome.iterations;
            let dispatched: usize = reports.iter().map(|r| r.temporal_candidates).sum();
            let refuted: usize = reports.iter().map(|r| r.temporal_refuted).sum();
            let tcex = (outcome.suite.segments())
                .filter(|s| s.label.starts_with("tcex-"))
                .count();
            let proved: HashSet<_> = outcome.temporal.iter().map(assertion_property).collect();
            let name = m.name();
            assert_eq!(proved.len(), outcome.temporal.len(), "{name}: proved twice");
            assert_eq!(refuted, tcex, "{name}");
            assert_eq!(
                dispatched,
                outcome.temporal.len() + refuted,
                "{name}: a candidate was dispatched and not filed once"
            );
            // Temporal passes after the first proof: a proved candidate
            // whose leaf is still there is proposed to each of them.
            let first_proof = reports.iter().position(|r| r.temporal_proved > 0);
            reproposed += first_proof.map_or(0, |i| reports.len() - 1 - i);
        }
    }
    assert!(reproposed > 0, "no temporal pass ran after a proof");
}
