//! CI bench smoke for the flight recorder: proves instrumentation is
//! near-free when the recorder is off, and reports what it costs when
//! on.
//!
//! The kernel is the coverage-attached b12_lite batch simulation (the
//! same inner loop `bench_sim` ratchets). Three variants run
//! interleaved, min-of-reps:
//!
//! * **baseline** — the uninstrumented pre-trace entry path
//!   (`observe_compiled_baseline`), i.e. exactly the code that ran
//!   before the recorder existed;
//! * **off** — the instrumented entry (`observe_compiled`) with no
//!   sink installed: one relaxed atomic load + branch per batch call;
//! * **on** — the instrumented entry recording into a thread-local
//!   sink (informational; the recorder is opt-in).
//!
//! The binary asserts the enforced bound: recorder-off stays within
//! `MAX_OFF_OVERHEAD` of the pre-trace baseline. Shared CI runners
//! inject transient multi-percent noise even into min-of-reps floors,
//! so the gate pools: if the bound is not met after one round of reps,
//! further rounds accumulate into the same per-variant minimums (up to
//! `MAX_ROUNDS`). Noise only ever *adds* time, so the pooled minimum
//! converges onto the true floor of each variant — an inert recorder
//! passes within a round or two, while a real systematic cost slows
//! every off rep in every round and still trips the assert.
//!
//! Usage: `bench_trace [OUTPUT_PATH]` (default `BENCH_trace.json`).

use gm_coverage::CoverageSuite;
use gm_sim::{collect_vectors, CompiledModule, RandomStimulus, TestSuite};
use std::fmt::Write as _;
use std::time::Instant;

const SEGMENTS: u64 = 1024;
const CYCLES: u64 = 128;
const LANE_BLOCK: usize = 4;
const REPS_PER_ROUND: u32 = 100;
const MAX_ROUNDS: u32 = 10;

/// The enforced bound: recorder-off wall time must stay within 2% of
/// the pre-trace baseline (ISSUE acceptance; the instrumentation is one
/// relaxed load + branch per batch call, so the real gap is ~0).
const MAX_OFF_OVERHEAD: f64 = 0.02;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace.json".to_string());
    let module = gm_designs::b12_lite();
    let probed = CompiledModule::compile(&module).expect("b12_lite compiles");
    let mut suite = TestSuite::new();
    for seed in 0..SEGMENTS {
        suite.push(
            format!("s{seed}"),
            collect_vectors(&mut RandomStimulus::new(&module, seed, CYCLES)),
        );
    }

    let mut kernel_baseline = || {
        let mut cov = CoverageSuite::new(&module);
        suite.observe_compiled_baseline(&module, &probed, &mut cov, LANE_BLOCK);
        std::hint::black_box(cov.report());
    };
    let mut kernel_off = || {
        let mut cov = CoverageSuite::new(&module);
        suite.observe_compiled(&module, &probed, &mut cov, LANE_BLOCK);
        std::hint::black_box(cov.report());
    };
    let sink = gm_trace::TraceSink::new();
    let mut kernel_on = || {
        let _guard = gm_trace::push_thread_sink(sink.clone());
        let mut cov = CoverageSuite::new(&module);
        suite.observe_compiled(&module, &probed, &mut cov, LANE_BLOCK);
        std::hint::black_box(cov.report());
    };

    // Warm up every variant, then interleave the timed reps so slow
    // drift (thermal, noisy neighbors) hits all three equally; pool
    // per-variant minimums across rounds until the gate is satisfied.
    kernel_baseline();
    kernel_off();
    kernel_on();
    let mut best = [f64::INFINITY; 3];
    let mut rounds = 0;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        for _ in 0..REPS_PER_ROUND {
            for (slot, kernel) in [
                (0usize, &mut kernel_baseline as &mut dyn FnMut()),
                (1, &mut kernel_off),
                (2, &mut kernel_on),
            ] {
                let start = Instant::now();
                kernel();
                best[slot] = best[slot].min(start.elapsed().as_secs_f64());
            }
        }
        let overhead = best[1] / best[0] - 1.0;
        eprintln!(
            "round {rounds}: base {:.3}ms off {:.3}ms on {:.3}ms (off {:+.2}%)",
            best[0] * 1e3,
            best[1] * 1e3,
            best[2] * 1e3,
            overhead * 100.0
        );
        if overhead <= MAX_OFF_OVERHEAD {
            break;
        }
    }
    let [baseline_s, off_s, on_s] = best;
    assert!(!sink.is_empty(), "the recorder-on variant must record");

    let total = (SEGMENTS * CYCLES) as f64;
    let off_overhead = off_s / baseline_s - 1.0;
    let on_overhead = on_s / baseline_s - 1.0;

    // Hand-rolled JSON: the workspace has no JSON dependency.
    let mut json = String::from("{\n  \"bench\": \"trace_recorder\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"design\": \"b12_lite\", \"segments\": {SEGMENTS}, \
         \"cycles_per_segment\": {CYCLES}, \"lane_block\": {LANE_BLOCK}, \
         \"reps\": {}}},",
        rounds * REPS_PER_ROUND
    );
    let _ = writeln!(
        json,
        "  \"baseline_vps\": {:.0},\n  \"recorder_off_vps\": {:.0},\n  \
         \"recorder_on_vps\": {:.0},",
        total / baseline_s,
        total / off_s,
        total / on_s,
    );
    let _ = writeln!(
        json,
        "  \"recorder_off_overhead\": {off_overhead:.4},\n  \
         \"recorder_on_overhead\": {on_overhead:.4},\n  \
         \"max_off_overhead\": {MAX_OFF_OVERHEAD}\n}}"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_trace.json");
    print!("{json}");
    eprintln!(
        "recorder off: {:+.2}% vs pre-trace baseline (bound {:+.0}%); on: {:+.2}%",
        off_overhead * 100.0,
        MAX_OFF_OVERHEAD * 100.0,
        on_overhead * 100.0
    );

    assert!(
        off_overhead <= MAX_OFF_OVERHEAD,
        "recorder-off instrumentation costs {:.2}% over the pre-trace baseline \
         (bound {:.0}%)",
        off_overhead * 100.0,
        MAX_OFF_OVERHEAD * 100.0,
    );
}
