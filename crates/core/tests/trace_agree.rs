//! Flight-recorder inertness: the span recorder must never change an
//! engine outcome. The `Debug` render of a [`goldmine::ClosureOutcome`]
//! is the repo's byte-identity artifact (shard/backend/serve agreement
//! all diff it), so these tests run the same closure with the recorder
//! off and on — across every simulation backend — and require identical
//! renders, while also checking the recording itself is structurally
//! sound (nested spans, well-formed Chrome export).

use gm_rtl::parse_verilog;
use goldmine::{
    Engine, EngineConfig, RefineConfig, SeedStimulus, SimBackend, TemporalConfig, UnknownPolicy,
};

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

/// Every optional engine pass enabled, so the recording exercises the
/// full span vocabulary (verify, temporal, refine, coverage).
fn full_config(sim_backend: SimBackend) -> EngineConfig {
    EngineConfig {
        stimulus: SeedStimulus::Random { cycles: 24 },
        record_coverage: true,
        temporal: TemporalConfig { horizon: 2 },
        refine: RefineConfig {
            variants: 4,
            extra_cycles: 8,
            max_absorb: 2,
        },
        sim_backend,
        ..EngineConfig::default()
    }
}

fn run_debug(src: &str, config: EngineConfig) -> String {
    let m = parse_verilog(src).unwrap();
    format!("{:?}", Engine::new(&m, config).unwrap().run().unwrap())
}

#[test]
fn outcomes_byte_identical_recorder_on_and_off_across_backends() {
    for src in [STICKY, ARBITER2] {
        for sim_backend in [
            SimBackend::Interpreter,
            SimBackend::CompiledBatch(1),
            SimBackend::CompiledBatch(4),
        ] {
            let off = run_debug(src, full_config(sim_backend));
            let sink = gm_trace::TraceSink::new();
            let on = {
                let _guard = gm_trace::push_thread_sink(sink.clone());
                run_debug(src, full_config(sim_backend))
            };
            assert_eq!(off, on, "recorder changed the outcome ({sim_backend:?})");
            assert!(
                !sink.is_empty(),
                "the traced run must actually record ({sim_backend:?})"
            );
        }
    }
}

#[test]
fn recorder_captures_nested_engine_spans() {
    // A forced SAT backend: `Auto` decides a design this small on the
    // explicit tables and never opens an `mc.sat_query` span.
    let config = EngineConfig {
        backend: gm_mc::Backend::KInduction { max_k: 4 },
        unknown: UnknownPolicy::AssumeTrue,
        ..full_config(SimBackend::CompiledBatch(1))
    };
    let sink = gm_trace::TraceSink::new();
    {
        let _guard = gm_trace::push_thread_sink(sink.clone());
        run_debug(ARBITER2, config);
    }
    let events = sink.events();
    let find = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
    // The root engine span plus one span per iteration and pass.
    let runs = find("engine.run");
    assert_eq!(runs.len(), 1, "exactly one engine.run root");
    for name in [
        "engine.seed",
        "engine.iteration",
        "engine.verify",
        "engine.temporal",
        "engine.refine",
        "engine.coverage",
        "mc.check_batch",
        "mc.sat_query",
        "sim.batch",
    ] {
        assert!(!find(name).is_empty(), "missing span {name}");
    }
    // Nesting: every iteration span lies inside the root span's window,
    // and every verify pass inside some iteration.
    let root = runs[0];
    let contains = |outer: &gm_trace::TraceEvent, inner: &gm_trace::TraceEvent| {
        outer.ts_ns <= inner.ts_ns && inner.ts_ns + inner.dur_ns() <= outer.ts_ns + outer.dur_ns()
    };
    let iterations = find("engine.iteration");
    for iter in &iterations {
        assert!(contains(root, iter), "iteration span escapes the run span");
    }
    for verify in find("engine.verify") {
        assert!(
            iterations.iter().any(|iter| contains(iter, verify)),
            "verify span outside every iteration span"
        );
    }
}

#[test]
fn chrome_export_is_well_formed() {
    let sink = gm_trace::TraceSink::new();
    {
        let _guard = gm_trace::push_thread_sink(sink.clone());
        run_debug(STICKY, full_config(SimBackend::CompiledBatch(1)));
    }
    let json = sink.export_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with('}'), "{json}");
    assert!(json.contains("\"ph\":\"M\""), "process metadata event");
    assert!(json.contains("\"ph\":\"X\""), "complete events");
    // Delimiters balance outside string literals — the cheap structural
    // check a Perfetto load would fail loudly on.
    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_str = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        assert!(braces >= 0 && brackets >= 0, "unbalanced export");
    }
    assert_eq!(
        (braces, brackets, in_str),
        (0, 0, false),
        "unbalanced export"
    );
}

#[test]
fn timing_breakdown_is_measured_without_the_recorder() {
    // IterTiming rides in the outcome whether or not a sink exists; it
    // is excluded from the Debug/PartialEq identity oracles instead.
    let m = parse_verilog(ARBITER2).unwrap();
    let outcome = Engine::new(&m, full_config(SimBackend::CompiledBatch(1)))
        .unwrap()
        .run()
        .unwrap();
    let total = outcome.timing_total();
    assert!(total.total_ns > 0, "iteration wall time must be measured");
    assert!(
        total.verify_ns > 0,
        "verification happened, its phase time must be non-zero"
    );
    assert!(total.coverage_ns > 0, "coverage was recorded");
    for report in &outcome.iterations {
        assert!(
            report.timing.total_ns
                >= report
                    .timing
                    .verify_ns
                    .saturating_add(report.timing.temporal_ns)
                    .saturating_add(report.timing.refine_ns),
            "pass times exceed the iteration wall time"
        );
    }
}
