//! Counterexamples go into a test suite's lanes as the checker found
//! them — input bits in one buffer — and must come back out as the
//! very vectors the one-shot engines' traces read back to: every
//! segment in its own lane, every cycle in order, past a lane group's
//! 64 segments and across multi-word input rows.

use gm_mc::{blast, bmc, explicit_check, BitAtom, CheckResult, ExplicitLimits, ReachableStates};
use gm_mc::{CexTrace, WindowProperty};
use gm_rtl::{elaborate, Module};
use gm_sim::{SegmentLabel, TestSuite};

/// Window properties over every output bit that are false somewhere:
/// `true |-> out[b]@d == v` for both values `v`, and the same behind
/// one input bit, at depths 0 to 2.
fn properties(m: &Module) -> Vec<WindowProperty> {
    let input = m.data_inputs()[0];
    let mut props = Vec::new();
    for out in m.outputs() {
        for bit in 0..m.signal_width(out) {
            for depth in 0..3 {
                for value in [false, true] {
                    let consequent = BitAtom::new(out, bit, depth, value);
                    let behind = BitAtom::new(input, 0, 0, !value);
                    props.push(WindowProperty::implication(vec![], consequent));
                    props.push(WindowProperty::implication(vec![behind], consequent));
                }
            }
        }
    }
    props
}

/// Writes every trace into one suite through its bits, and checks each
/// segment against the trace's own vectors and against a suite of the
/// same vectors pushed whole.
fn lanes_hold_the_traces(traces: &[CexTrace]) {
    let mut by_bits = TestSuite::new();
    let mut by_vectors = TestSuite::new();
    for (n, cex) in traces.iter().enumerate() {
        let label = SegmentLabel::numbered("cex", 1, n + 1);
        by_bits.push_bits(label.clone(), cex.layout(), cex.bits(), cex.len());
        by_vectors.push(label, cex.inputs());
    }
    for (n, cex) in traces.iter().enumerate() {
        let segment = by_bits.segment(n);
        assert_eq!(segment.label, format!("cex-1-{}", n + 1));
        assert_eq!(segment.vectors, cex.inputs(), "segment {n}");
    }
    assert_eq!(by_bits, by_vectors);
}

#[test]
fn explicit_and_bmc_traces_read_back_from_the_lanes() {
    let limits = ExplicitLimits::default();
    let mut explicit = Vec::new();
    let mut sat = Vec::new();
    for name in ["arbiter2", "arbiter4", "b01", "b12_lite", "decode_stage"] {
        let m = gm_designs::by_name(name).unwrap().module();
        let b = blast(&m, &elaborate(&m).unwrap()).unwrap();
        let reach = ReachableStates::explore(&b, &limits).ok();
        for prop in properties(&m) {
            if let Some(reach) = &reach {
                if let Ok(CheckResult::Violated(cex)) = explicit_check(&b, reach, &prop, &limits) {
                    explicit.push(cex);
                }
            }
            if let CheckResult::Violated(cex) = bmc(&b, &prop, 4) {
                sat.push(cex);
            }
        }
    }
    // More than one lane group each, with traces of several lengths.
    assert!(
        explicit.len() > 64 && sat.len() > 64,
        "{} / {}",
        explicit.len(),
        sat.len()
    );
    let lengths = |traces: &[CexTrace]| {
        let mut lens: Vec<usize> = traces.iter().map(CexTrace::len).collect();
        lens.sort_unstable();
        lens.dedup();
        lens.len()
    };
    assert!(lengths(&explicit) > 2 && lengths(&sat) > 2);
    lanes_hold_the_traces(&explicit);
    lanes_hold_the_traces(&sat);
    let mut both = explicit;
    both.append(&mut sat);
    lanes_hold_the_traces(&both);
}

#[test]
fn rows_of_several_words_read_back_from_the_lanes() {
    // 120 input bits: a row is two words, and `b` straddles them.
    let m = gm_rtl::parse_verilog(
        "module wide(input clk, input [39:0] a, input [39:0] b, input [39:0] c,
                     output reg [7:0] q);
           always @(posedge clk) q <= a[7:0] ^ b[31:24] ^ c[39:32];
         endmodule",
    )
    .unwrap();
    let b = blast(&m, &elaborate(&m).unwrap()).unwrap();
    assert_eq!(b.input_layout.words(), 2);
    let traces: Vec<CexTrace> = (properties(&m).iter())
        .filter_map(|prop| match bmc(&b, prop, 2) {
            CheckResult::Violated(cex) => Some(cex),
            _ => None,
        })
        .collect();
    assert!(traces.len() > 16, "{}", traces.len());
    // Some trace drives an input bit past the first word.
    let second_word = traces
        .iter()
        .any(|cex| cex.bits().chunks(2).any(|row| row[1] != 0));
    assert!(second_word);
    lanes_hold_the_traces(&traces);
}
