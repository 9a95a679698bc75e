//! `sim/compiled_agree` — the differential contract of the compiled
//! bit-parallel backend: for every design and every stimulus, the
//! compiled tape at every lane-block width W ∈ {1, 2, 4, 8} (64 to 512
//! lanes per pass) must be **trace-identical** and
//! **coverage-identical** (ratios *and* uncovered point sets) to the
//! tree-walking interpreter. The whole design catalog is swept,
//! lane-block boundaries are straddled with segment counts around every
//! 64-lane multiple, the suites the closure engine replays — one lone
//! segment, and ragged batches inside one 64-lane chunk and across its
//! boundary — are checked on the catalog and on random modules, the
//! probe-free tape (`CompileOptions { probes: false }`) is checked
//! against the interpreter's coverage run, and a proptest drives
//! randomly generated modules (case/default overlap, non-blocking
//! swaps, double writes, every operator) under random vector suites at
//! random widths.
//!
//! One section pins what the closure engine's persistent coverage
//! suite leans on: one `CoverageSuite` shown a suite in consecutive
//! batches — empty ones, splits inside a 64-lane chunk — answers every
//! query exactly as after one pass, on either side of the replay seam.
//!
//! The last two are about the tape's stimulus feed. *Partial vectors*:
//! suites whose vectors are randomly thinned (a lane drives a signal in
//! a cycle its neighbours do not), name a signal twice, and first drive
//! one signal mid-suite must replay exactly as on the interpreter —
//! where an unnamed input holds — through the seam and through the
//! suite's own entry, at every W and across lane 63/64 and every `64·W`
//! chunk boundary. *The store follows the suite*: replay → push →
//! replay equals a fresh suite down to the packed words, clones carry
//! the store, and having replayed shows in neither `==` nor `Debug`.
//! `tests/suite_store.rs` checks what the store gives back and how
//! ranges of it replay.

mod support;

use gm_coverage::{CoverageReport, CoverageSuite, UncoveredIndex};
use gm_rtl::{Bv, Module, SignalId, StmtId};
use gm_sim::{
    BranchOutcome, CompileOptions, CompiledModule, NopObserver, Replay, TestSuite, Trace,
};
use gm_trace::ArgValue;
use proptest::prelude::*;
use proptest::TestRng;
use support::{filled, random_module, random_suite, segments_to_fill, thinned_suite, BLOCKS};

/// Everything a backend run produces that must agree.
#[derive(Debug, PartialEq)]
struct RunResult {
    traces: Vec<Trace>,
    report: CoverageReport,
    line_uncovered: Vec<StmtId>,
    branch_uncovered: Vec<(StmtId, BranchOutcome)>,
}

fn result_of(cov: &CoverageSuite<'_>, traces: Vec<Trace>) -> RunResult {
    RunResult {
        traces,
        report: cov.report(),
        line_uncovered: cov.line().uncovered(),
        branch_uncovered: cov.branch().uncovered(),
    }
}

fn run_interpreter(module: &Module, suite: &TestSuite) -> RunResult {
    let mut cov = CoverageSuite::new(module);
    let traces = suite.run(module, &mut cov).expect("interpreter run");
    result_of(&cov, traces)
}

fn run_compiled_batch(module: &Module, suite: &TestSuite, block: usize) -> RunResult {
    let compiled = CompiledModule::compile(module).expect("compiles");
    let mut cov = CoverageSuite::new(module);
    let traces = suite.run_compiled(module, &compiled, &mut cov, block);
    result_of(&cov, traces)
}

/// Asserts the tape at every lane-block width agrees with the
/// interpreter on `suite`, returning the interpreter result for further
/// checks.
fn assert_backends_agree(module: &Module, suite: &TestSuite, label: &str) -> RunResult {
    let interp = run_interpreter(module, suite);
    for block in BLOCKS {
        let batch = run_compiled_batch(module, suite, block);
        assert_eq!(interp, batch, "{label}: compiled batch W={block} diverged");
    }
    interp
}

#[test]
fn whole_catalog_is_trace_and_coverage_identical() {
    for design in gm_designs::catalog() {
        let module = design.module();
        // Ragged lengths, including an empty segment (reset pulse only).
        let suite = random_suite(
            &module,
            0xC0FFEE ^ design.window as u64,
            &[48, 17, 5, 0, 31],
        );
        let got = assert_backends_agree(&module, &suite, design.name);
        assert_eq!(got.traces.len(), suite.len());
    }
}

/// The shapes the closure engine hands the tape: a lone segment (the
/// seed, an iteration's only counterexample), a ragged batch that fits
/// one 64-lane chunk (lanes fall inactive at different cycles, one is
/// the reset pulse alone), and a ragged batch two segments past the
/// chunk boundary.
fn engine_shaped_suites(module: &Module, seed: u64) -> [(&'static str, TestSuite); 3] {
    let across: Vec<u64> = (0..66).map(|i| (i * 5) % 13).collect();
    [
        ("one segment", random_suite(module, seed, &[23])),
        (
            "ragged inside a chunk",
            random_suite(module, seed ^ 1, &[9, 2, 14, 0, 6, 11, 1]),
        ),
        (
            "ragged across a chunk boundary",
            random_suite(module, seed ^ 2, &across),
        ),
    ]
}

#[test]
fn one_segment_and_ragged_suites_agree_across_the_catalog() {
    for design in gm_designs::catalog() {
        let module = design.module();
        for (shape, suite) in engine_shaped_suites(&module, 0xD1CE ^ design.window as u64) {
            let label = format!("{}: {shape}", design.name);
            let got = assert_backends_agree(&module, &suite, &label);
            assert_eq!(got.traces.len(), suite.len());
        }
    }
}

#[test]
fn many_segments_cross_lane_boundaries() {
    let module = gm_designs::arbiter4();
    // 137 segments: three chunks, the last partially filled, lengths
    // ragged so lanes go inactive at different cycles.
    let lengths: Vec<u64> = (0..137).map(|i| (i * 7) % 23).collect();
    let suite = random_suite(&module, 7, &lengths);
    assert_backends_agree(&module, &suite, "arbiter4 x137");
}

#[test]
fn segment_counts_straddle_every_block_boundary() {
    // One under, exactly at, and one over every 64-lane multiple a
    // wide block can ragged-fill: the chunk's last block word goes from
    // partially filled to full to spilling a second chunk. Each count
    // runs at every W (an N-segment suite at W=8 exercises unused tail
    // words; at W=1 it exercises multi-chunk dealing).
    let module = gm_designs::arbiter4();
    for count in [63usize, 64, 65, 127, 128, 129, 255, 256, 257] {
        let lengths: Vec<u64> = (0..count as u64).map(|i| (i * 5) % 11).collect();
        let suite = random_suite(&module, 0x5EED ^ count as u64, &lengths);
        assert_backends_agree(&module, &suite, &format!("arbiter4 x{count}"));
    }
}

/// The lane block each segment count runs at, given W = 1, 2, 4 and 8:
/// the narrowest supported block that holds the range's lane groups, at
/// most the one given.
const BLOCK_RUN: [(usize, [usize; 4]); 10] = [
    (1, [1, 1, 1, 1]),
    (64, [1, 1, 1, 1]),
    (65, [1, 2, 2, 2]),
    (128, [1, 2, 2, 2]),
    (129, [1, 2, 4, 4]),
    (256, [1, 2, 4, 4]),
    (257, [1, 2, 4, 8]),
    (512, [1, 2, 4, 8]),
    (513, [1, 2, 4, 8]),
    (1024, [1, 2, 4, 8]),
];

#[test]
fn a_replay_runs_the_widest_block_its_segments_fill() {
    // Two cycles a segment: every pass runs the reset cycle and two more.
    let module = gm_designs::arbiter4();
    assert!(module.reset().is_some());
    let compiled = CompiledModule::compile(&module).expect("compiles");
    let suite = random_suite(&module, 0x7AB1E, &[2; 1024]);
    for (segments, run) in BLOCK_RUN {
        for (block, want) in BLOCKS.into_iter().zip(run) {
            // What the random-module suites fill to: the fewest segments
            // that run a width.
            assert!(segments >= segments_to_fill(want));
            assert!(want == block || segments < segments_to_fill(2 * want));
            let sink = gm_trace::TraceSink::new();
            {
                let _recording = gm_trace::push_thread_sink(sink.clone());
                let replay = Replay {
                    module: &module,
                    compiled: Some(&compiled),
                    block,
                    cancel: None,
                };
                let done = replay.observe(&suite, 0..segments, &mut NopObserver);
                assert_eq!(done.unwrap(), Some(()));
            }
            let events = sink.events();
            let batch = events.iter().find(|e| e.name == "sim.batch");
            let batch = batch.expect("one sim.batch span");
            let arg = |key: &str| {
                let found = batch.args.iter().find(|(k, _)| *k == key);
                found
                    .unwrap_or_else(|| panic!("sim.batch has no `{key}`"))
                    .1
                    .clone()
            };
            let passes = segments.div_ceil(64 * want) as u64;
            let label = format!("{segments} segments at W={block}");
            assert_eq!(arg("lane_block"), ArgValue::U64(want as u64), "{label}");
            assert_eq!(arg("lanes"), ArgValue::U64(64 * want as u64), "{label}");
            assert_eq!(arg("passes"), ArgValue::U64(passes), "{label}");
            assert_eq!(arg("tape_runs"), ArgValue::U64(3 * passes), "{label}");
        }
    }
}

/// `[tape_len, register_count, probe_count]` per catalog design, with
/// probes and without. A change to how the compiler lowers a design
/// moves a row; both tapes share every register.
const TAPE_SHAPES: [(&str, [usize; 3], [usize; 3]); 12] = [
    ("cex_small", [32, 15, 19], [11, 15, 0]),
    ("arbiter2", [50, 26, 23], [20, 26, 0]),
    ("arbiter4", [98, 70, 22], [55, 70, 0]),
    ("fetch_stage", [51, 28, 5], [24, 28, 0]),
    ("decode_stage", [83, 51, 33], [40, 51, 0]),
    ("wb_stage", [32, 21, 14], [13, 21, 0]),
    ("b01", [193, 83, 48], [90, 83, 0]),
    ("b02", [111, 61, 4], [65, 61, 0]),
    ("b09", [111, 58, 7], [63, 58, 0]),
    ("b12_lite", [168, 79, 18], [92, 79, 0]),
    ("b17_lite", [168, 83, 10], [94, 83, 0]),
    ("b18_lite", [161, 74, 13], [87, 74, 0]),
];

#[test]
fn tape_shapes_match_the_goldens() {
    let catalog = gm_designs::catalog();
    assert_eq!(catalog.len(), TAPE_SHAPES.len(), "one golden per design");
    for (design, (name, probed, bare)) in catalog.iter().zip(TAPE_SHAPES) {
        assert_eq!(design.name, name);
        let module = design.module();
        let shape = |probes| {
            let c =
                CompiledModule::compile_with(&module, CompileOptions { probes }).expect("compiles");
            [c.tape_len(), c.register_count(), c.probe_count()]
        };
        assert_eq!(shape(true), probed, "{name}: probed tape");
        assert_eq!(shape(false), bare, "{name}: probe-free tape");
    }
}

#[test]
fn probe_free_tape_agrees_with_interpreter_coverage_run() {
    // A probe-free tape executes no observation instructions: traces
    // must still be identical at every W, and an attached coverage
    // suite sees only the executor-level cycle events — toggle and FSM
    // ratios match the interpreter's run exactly while the tape-level
    // metrics (line/branch/condition/expression) record nothing.
    for design in gm_designs::catalog() {
        let module = design.module();
        let suite = random_suite(&module, 0xBA5E ^ design.window as u64, &[40, 13, 0, 65]);
        let interp = run_interpreter(&module, &suite);
        let bare = CompiledModule::compile_with(&module, CompileOptions { probes: false })
            .expect("compiles");
        assert_eq!(bare.probe_count(), 0);
        for block in BLOCKS {
            let mut cov = CoverageSuite::new(&module);
            let traces = suite.run_compiled(&module, &bare, &mut cov, block);
            assert_eq!(
                interp.traces, traces,
                "{}: probe-free W={block} trace diverged",
                design.name
            );
            let report = cov.report();
            assert_eq!(
                report.toggle, interp.report.toggle,
                "{}: probe-free W={block} toggle diverged",
                design.name
            );
            assert_eq!(
                report.fsm, interp.report.fsm,
                "{}: probe-free W={block} fsm diverged",
                design.name
            );
            assert_eq!(report.line.covered, 0, "{}", design.name);
            assert_eq!(report.branch.covered, 0, "{}", design.name);
            assert_eq!(report.condition.covered, 0, "{}", design.name);
            assert_eq!(report.expression.covered, 0, "{}", design.name);
        }
        // Bare trace-only replay through the seam (the engine's
        // cex/seed-trace shape) also agrees.
        let replayed = Replay {
            module: &module,
            compiled: Some(&bare),
            block: 1,
            cancel: None,
        }
        .traces(&suite, 0..suite.len(), &mut NopObserver)
        .expect("interpreter not involved");
        assert_eq!(
            replayed.as_ref(),
            Some(&interp.traces),
            "{}: bare replay diverged",
            design.name
        );
    }
}

#[test]
fn case_first_match_and_default_fallthrough_agree() {
    // Overlapping labels (the first arm must win in every lane),
    // multi-label arms, an implicit hold via default, and a partial
    // case without default (sequential hold semantics).
    let src = "
    module casey(input clk, input rst, input [2:0] s, input d,
                 output reg [1:0] y, output reg z);
      always @(posedge clk)
        if (rst) begin y <= 0; z <= 0; end
        else begin
          case (s)
            3'd0: y <= 1;
            3'd1, 3'd2: y <= 2;
            3'd1: y <= 3;
            default: y <= y + 2'd1;
          endcase
          case (s[1:0])
            2'd0: z <= d;
            2'd3: z <= ~d;
          endcase
        end
    endmodule";
    let module = gm_rtl::parse_verilog(src).unwrap();
    let suite = random_suite(&module, 11, &[70, 70, 3]);
    assert_backends_agree(&module, &suite, "casey");
}

#[test]
fn nonblocking_swap_and_double_write_agree() {
    // The classic register swap plus a double non-blocking write where
    // the last statement must win — both depend on exact edge
    // semantics.
    let src = "
    module nb(input clk, input rst, input c, output reg a, output reg b,
              output reg [3:0] r);
      always @(posedge clk)
        if (rst) begin a <= 1; b <= 0; r <= 0; end
        else begin
          a <= b; b <= a;
          r <= r + 4'd1;
          if (c) r <= 4'd9;
        end
    endmodule";
    let module = gm_rtl::parse_verilog(src).unwrap();
    let suite = random_suite(&module, 3, &[64, 9]);
    assert_backends_agree(&module, &suite, "nb");
}

#[test]
fn wide_arithmetic_shifts_and_concats_agree() {
    let src = "
    module wide(input clk, input rst, input [63:0] a, input [63:0] b,
                input [5:0] k, output reg [63:0] acc, output y);
      wire [63:0] m;
      assign m = (a * b) + (a << k) - (b >> k);
      assign y = (a < b) && !(a[63] ^ b[0]) || &k;
      always @(posedge clk)
        if (rst) acc <= 64'd0;
        else acc <= {m[31:0], acc[63:32]} ^ (-a);
    endmodule";
    let module = gm_rtl::parse_verilog(src).unwrap();
    let suite = random_suite(&module, 5, &[80, 33, 1]);
    assert_backends_agree(&module, &suite, "wide");
}

// ---------------------------------------------------------------------------
// Random-module differential proptest
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random modules x random vector suites: the tape and the
    /// interpreter agree on traces, coverage ratios and uncovered point
    /// sets. Short segments fill the suite to the block it names, so
    /// every width's executor runs.
    #[test]
    fn random_modules_and_vectors_agree(
        seed in any::<u64>(),
        nseg in 1usize..6,
        len in 1u64..18,
        block_idx in 0usize..BLOCKS.len(),
    ) {
        let block = BLOCKS[block_idx];
        let module = random_module(seed);
        // Elaboration must accept the generated module; if it does not,
        // the generator (not the backends) is broken.
        gm_rtl::elaborate(&module).expect("generated modules are legal");
        let lengths: Vec<u64> = (0..nseg as u64).map(|i| (len + 3 * i) % 19).collect();
        let suite = random_suite(&module, seed ^ 0x9E37, &lengths);
        let suite = filled(&module, &suite, block, seed ^ 0xF111);
        let interp = run_interpreter(&module, &suite);
        let batch = run_compiled_batch(&module, &suite, block);
        prop_assert_eq!(&interp, &batch, "batch W={} diverged (seed {})", block, seed);
        // The probe-free tape must still be trace-identical.
        let bare = CompiledModule::compile_with(&module, CompileOptions { probes: false })
            .expect("compiles");
        let bare_traces = suite.run_compiled(&module, &bare, &mut NopObserver, block);
        prop_assert_eq!(
            &interp.traces, &bare_traces,
            "probe-free W={} diverged (seed {})", block, seed
        );
    }

    /// Random modules x the engine's replay shapes (one segment, ragged
    /// inside a chunk, ragged across its boundary), at every lane
    /// block: each shape leads a suite short segments fill to the
    /// block, so every width's executor runs it.
    #[test]
    fn random_modules_agree_on_one_segment_and_ragged_suites(seed in any::<u64>()) {
        let module = random_module(seed);
        for (shape, suite) in engine_shaped_suites(&module, seed ^ 0x51DE) {
            for block in BLOCKS {
                let suite = filled(&module, &suite, block, seed ^ 0xF111);
                let interp = run_interpreter(&module, &suite);
                let batch = run_compiled_batch(&module, &suite, block);
                prop_assert_eq!(
                    &interp, &batch,
                    "{}: W={} diverged (seed {})", shape, block, seed
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One coverage suite fed in batches ≡ one pass
// ---------------------------------------------------------------------------

/// Everything a coverage suite can be asked.
#[derive(Debug, PartialEq)]
struct Answers {
    report: CoverageReport,
    line_uncovered: Vec<StmtId>,
    branch_uncovered: Vec<(StmtId, BranchOutcome)>,
    toggle_uncovered: Vec<(SignalId, u32, bool)>,
    fsm_unvisited: Vec<(SignalId, Bv)>,
    /// `UncoveredIndex` is opaque; its `Debug` render shows all of it.
    uncovered_index: String,
}

/// One `CoverageSuite` shown `suite` as the consecutive batches
/// `..cuts[0]`, `cuts[0]..cuts[1]`, …, `cuts[last]..` (`cuts` ascending;
/// equal neighbours make an empty batch), one `Replay::observe` each.
fn answers_fed_in_batches(replay: Replay<'_>, suite: &TestSuite, cuts: &[usize]) -> Answers {
    let mut cov = CoverageSuite::new(replay.module);
    let mut from = 0;
    for &to in cuts.iter().chain([&suite.len()]) {
        let done = replay.observe(suite, from..to, &mut cov).unwrap();
        assert_eq!(done, Some(()), "no token, no cancel");
        from = to;
    }
    Answers {
        report: cov.report(),
        line_uncovered: cov.line().uncovered(),
        branch_uncovered: cov.branch().uncovered(),
        toggle_uncovered: cov.toggle().uncovered(),
        fsm_unvisited: cov.fsm().unvisited(),
        uncovered_index: format!("{:?}", UncoveredIndex::from_suite(&cov)),
    }
}

/// Asserts that, on the interpreter and on the tape at lane blocks 1, 2
/// and 8, feeding `suite` in the batches `cuts` makes gives the answers
/// of one interpreter pass.
fn assert_batches_equal_one_pass(module: &Module, suite: &TestSuite, cuts: &[usize], label: &str) {
    let compiled = CompiledModule::compile(module).expect("compiles");
    let replay = |compiled, block| Replay {
        module,
        compiled,
        block,
        cancel: None,
    };
    let one_pass = answers_fed_in_batches(replay(None, 1), suite, &[]);
    let engines = [
        (None, 1),
        (Some(&compiled), 1),
        (Some(&compiled), 2),
        (Some(&compiled), 8),
    ];
    for (tape, block) in engines {
        let batched = answers_fed_in_batches(replay(tape, block), suite, cuts);
        let engine = if tape.is_some() {
            "tape"
        } else {
            "interpreter"
        };
        assert_eq!(
            batched, one_pass,
            "{label}: {engine} W={block}, cuts {cuts:?}"
        );
    }
}

/// `n` ascending cut points in `0..=len`, repeats allowed.
fn random_cuts(rng: &mut TestRng, n: usize, len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..n)
        .map(|_| rng.below(len as u128 + 1) as usize)
        .collect();
    cuts.sort_unstable();
    cuts
}

#[test]
fn a_coverage_suite_fed_in_batches_equals_one_pass_across_the_catalog() {
    for design in gm_designs::catalog() {
        let module = design.module();
        // 70 ragged segments: one full 64-lane chunk and a bit.
        let lengths: Vec<u64> = (0..70).map(|i| (i * 5) % 13).collect();
        let suite = random_suite(&module, 0xBA7C ^ design.window as u64, &lengths);
        let rng = &mut TestRng::new(design.name.len() as u64);
        // Empty batches first, last and in the middle; the seed alone;
        // a split inside the chunk and one on its boundary.
        let fixed = vec![0, 0, 1, 30, 30, 64, 70];
        for cuts in [fixed, random_cuts(rng, 3, 70), random_cuts(rng, 9, 70)] {
            assert_batches_equal_one_pass(&module, &suite, &cuts, design.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random modules x random suites x random split points.
    #[test]
    fn a_coverage_suite_fed_in_batches_equals_one_pass_on_random_modules(
        seed in any::<u64>(),
        nseg in 1usize..80,
        ncuts in 0usize..7,
    ) {
        let module = random_module(seed);
        let lengths: Vec<u64> = (0..nseg as u64).map(|i| (seed % 7 + 3 * i) % 11).collect();
        let suite = random_suite(&module, seed ^ 0xBA7C, &lengths);
        let cuts = random_cuts(&mut TestRng::new(seed), ncuts, nseg);
        assert_batches_equal_one_pass(&module, &suite, &cuts, &format!("seed {seed}"));
    }
}

// ---------------------------------------------------------------------------
// Partial vectors: an input nobody names holds its value
// ---------------------------------------------------------------------------

/// Asserts that the tape agrees with the interpreter on `suite` at
/// every lane block through both entries: the seam (`Replay::traces`
/// of the whole range) and the suite's own (`run_compiled`), which
/// read the same stored lanes.
fn assert_both_feeds_agree(module: &Module, suite: &TestSuite, label: &str) {
    let interp = run_interpreter(module, suite);
    let compiled = CompiledModule::compile(module).expect("compiles");
    for block in BLOCKS {
        let mut cov = CoverageSuite::new(module);
        let traces = Replay {
            module,
            compiled: Some(&compiled),
            block,
            cancel: None,
        }
        .traces(suite, 0..suite.len(), &mut cov)
        .expect("interpreter not involved")
        .expect("no cancel token");
        assert_eq!(
            interp,
            result_of(&cov, traces),
            "{label}: seam W={block} diverged"
        );
        let owned = run_compiled_batch(module, suite, block);
        assert_eq!(interp, owned, "{label}: suite entry W={block} diverged");
    }
    assert_eq!(suite.packed().segments(), suite.len(), "{label}");
}

#[test]
fn unnamed_inputs_hold_and_the_last_naming_wins() {
    // Directed: every row below is worked out by hand, so this pins the
    // semantics, not just agreement. `acc` adds `a + b` per cycle.
    let src = "
    module hold(input clk, input rst, input a, input [2:0] b, output reg [3:0] acc);
      always @(posedge clk)
        if (rst) acc <= 0;
        else acc <= acc + {3'b0, a} + {1'b0, b};
    endmodule";
    let module = gm_rtl::parse_verilog(src).unwrap();
    let (a, b, acc) = (
        module.require("a").unwrap(),
        module.require("b").unwrap(),
        module.require("acc").unwrap(),
    );
    let mut suite = TestSuite::new();
    suite.push(
        "holds",
        vec![
            vec![(a, Bv::one_bit()), (b, Bv::new(3, 3))],
            vec![],                                        // both held: +4
            vec![(b, Bv::new(1, 3))],                      // a held:    +2
            vec![(a, Bv::zero_bit()), (a, Bv::one_bit())], // last wins: +2
        ],
    );
    // Its neighbours drive other signals in other cycles.
    suite.push("late a", vec![vec![], vec![(a, Bv::one_bit())], vec![]]);
    suite.push(
        "b once",
        vec![vec![], vec![], vec![(b, Bv::new(7, 3))], vec![], vec![]],
    );
    assert_both_feeds_agree(&module, &suite, "hold");
    let compiled = CompiledModule::compile(&module).unwrap();
    let traces = suite.run_compiled(&module, &compiled, &mut NopObserver, 1);
    let acc_rows = |s: usize| -> Vec<u64> {
        (0..traces[s].len())
            .map(|t| traces[s].value(t, acc).bits())
            .collect()
    };
    assert_eq!(acc_rows(0), [0, 4, 8, 10]);
    assert_eq!(acc_rows(1), [0, 0, 1]);
    assert_eq!(acc_rows(2), [0, 0, 0, 7, 14]);
}

#[test]
fn partial_vectors_agree_across_lane_and_block_boundaries() {
    // Thinned suites with counts one under, at and one over lane 63/64
    // and every 64·W chunk boundary (W = 8 → 512), ragged lengths, and
    // the late signal arriving in a second or later lane group whenever
    // there is one.
    let module = gm_designs::arbiter4();
    for count in [
        1usize, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513,
    ] {
        let lengths: Vec<u64> = (0..count as u64).map(|i| (i * 5) % 11).collect();
        let late = if count > 70 { 70 } else { count / 2 };
        let suite = thinned_suite(&module, 0x4011D ^ count as u64, &lengths, late);
        assert_both_feeds_agree(&module, &suite, &format!("arbiter4 thinned x{count}"));
    }
}

#[test]
fn partial_vectors_agree_across_the_catalog() {
    for design in gm_designs::catalog() {
        let module = design.module();
        let lengths: Vec<u64> = (0..67).map(|i| (i * 7) % 19).collect();
        let suite = thinned_suite(&module, 0x7A1E ^ design.window as u64, &lengths, 64);
        assert_both_feeds_agree(&module, &suite, design.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random modules x thinned suites: both feeds agree with the
    /// interpreter at every lane block.
    #[test]
    fn random_modules_agree_on_partial_vectors(
        seed in any::<u64>(),
        nseg in 1usize..140,
        late in 0usize..140,
    ) {
        let module = random_module(seed);
        let lengths: Vec<u64> = (0..nseg as u64).map(|i| (seed % 5 + 3 * i) % 9).collect();
        let suite = thinned_suite(&module, seed ^ 0x401D, &lengths, late % nseg);
        assert_both_feeds_agree(&module, &suite, &format!("seed {seed}"));
    }
}

// ---------------------------------------------------------------------------
// The store follows the suite
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay, push more, replay: the suite answers — traces, coverage
    /// and the packed words themselves — exactly as a fresh suite of
    /// the same segments. A clone carries the store and replays
    /// identically; having replayed changes neither equality, the
    /// `Debug` render nor the store.
    #[test]
    fn the_owned_form_follows_pushes_and_clones(
        seed in any::<u64>(),
        first in 0usize..140,
        more in 1usize..140,
        block_idx in 0usize..BLOCKS.len(),
    ) {
        let block = BLOCKS[block_idx];
        let module = random_module(seed);
        let lengths: Vec<u64> = (0..(first + more) as u64).map(|i| (seed % 3 + 5 * i) % 9).collect();
        let all = thinned_suite(&module, seed ^ 0x57A1E, &lengths, first + more / 2);
        let mut grown = TestSuite::new();
        for segment in all.segments().take(first) {
            grown.push(segment.label, segment.vectors);
        }

        let twin = grown.clone();
        let before = run_compiled_batch(&module, &grown, block);
        prop_assert_eq!(grown.packed(), twin.packed(), "a replay packs nothing");
        prop_assert_eq!(&grown, &twin, "a replay is not a change (seed {})", seed);
        prop_assert_eq!(format!("{grown:?}"), format!("{twin:?}"));
        prop_assert_eq!(&before, &run_interpreter(&module, &twin));

        let early = grown.clone();
        prop_assert_eq!(early.packed(), grown.packed(), "a clone carries the store");

        for segment in all.segments().skip(first) {
            grown.push(segment.label, segment.vectors);
        }
        prop_assert_eq!(&grown, &all);
        let after = run_compiled_batch(&module, &grown, block);
        prop_assert_eq!(&after, &run_compiled_batch(&module, &all, block), "seed {}", seed);
        prop_assert_eq!(&after, &run_interpreter(&module, &all), "seed {}", seed);
        prop_assert_eq!(grown.packed(), all.packed(), "extended in place == packed afresh");

        // The clone taken before the pushes is still the shorter suite.
        prop_assert_eq!(&run_compiled_batch(&module, &early, block), &before);
        prop_assert_eq!(early.packed().segments(), first);
    }
}
