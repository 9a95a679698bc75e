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
//! where an unnamed input holds — through the slice feed and through
//! the packed form the suite owns, at every W and across lane 63/64 and
//! every `64·W` chunk boundary. *Ownership*: replay → push → replay
//! equals a fresh suite down to the packed words, clones carry the
//! form, and having replayed shows in neither `==` nor `Debug`.

use gm_coverage::{CoverageReport, CoverageSuite, UncoveredIndex};
use gm_rtl::{BinaryOp, Bv, Expr, Module, ModuleBuilder, SignalId, StmtId, UnaryOp};
use gm_sim::{
    collect_vectors, BranchOutcome, CompileOptions, CompiledModule, NopObserver, RandomStimulus,
    Replay, Segment, TestSuite, Trace,
};
use proptest::prelude::*;
use proptest::TestRng;

/// Every lane-block width the batch executor supports.
const BLOCKS: [usize; 4] = [1, 2, 4, 8];

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

fn random_suite(module: &Module, base_seed: u64, lengths: &[u64]) -> TestSuite {
    let mut suite = TestSuite::new();
    for (i, &len) in lengths.iter().enumerate() {
        suite.push(
            format!("seg{i}"),
            collect_vectors(&mut RandomStimulus::new(module, base_seed + i as u64, len)),
        );
    }
    suite
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
        .traces(suite.segments(), &mut NopObserver)
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

/// Widths drawn for random signals: mixes the trivial, byte-ish,
/// non-power-of-two and full-word cases.
const WIDTHS: &[u32] = &[1, 2, 3, 4, 7, 8, 13, 16, 31, 32, 33, 64];

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Signals readable at this point, with widths.
    avail: Vec<(SignalId, u32)>,
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n as u128) as u64
    }

    fn width_of(&self, e: &Expr) -> u32 {
        let avail = self.avail.clone();
        e.width_in(&move |s: SignalId| {
            avail
                .iter()
                .find(|(id, _)| *id == s)
                .map(|(_, w)| *w)
                .expect("generated exprs only read declared signals")
        })
    }

    /// A random expression tree of bounded depth over the available
    /// signals, exercising every operator.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.below(6) == 0 {
            return if self.below(4) == 0 {
                let w = WIDTHS[self.below(WIDTHS.len() as u64) as usize];
                Expr::lit(self.rng.next_u64(), w)
            } else {
                let i = self.below(self.avail.len() as u64) as usize;
                Expr::Signal(self.avail[i].0)
            };
        }
        match self.below(12) {
            0 => {
                let ops = [
                    UnaryOp::Not,
                    UnaryOp::Neg,
                    UnaryOp::RedAnd,
                    UnaryOp::RedOr,
                    UnaryOp::RedXor,
                    UnaryOp::LogicNot,
                ];
                let op = ops[self.below(ops.len() as u64) as usize];
                Expr::unary(op, self.expr(depth - 1))
            }
            1..=6 => {
                let ops = [
                    BinaryOp::And,
                    BinaryOp::Or,
                    BinaryOp::Xor,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Eq,
                    BinaryOp::Ne,
                    BinaryOp::Lt,
                    BinaryOp::Le,
                    BinaryOp::Gt,
                    BinaryOp::Ge,
                    BinaryOp::Shl,
                    BinaryOp::Shr,
                    BinaryOp::LogicAnd,
                    BinaryOp::LogicOr,
                ];
                let op = ops[self.below(ops.len() as u64) as usize];
                let a = self.expr(depth - 1);
                let b = if matches!(op, BinaryOp::Shl | BinaryOp::Shr) && self.below(2) == 0 {
                    // Constant shift amounts, in and out of range.
                    Expr::lit(self.below(80), 7)
                } else {
                    self.expr(depth - 1)
                };
                Expr::binary(op, a, b)
            }
            7 => Expr::Mux {
                cond: Box::new(self.expr(depth - 1)),
                then_val: Box::new(self.expr(depth - 1)),
                else_val: Box::new(self.expr(depth - 1)),
            },
            8 => {
                let base = self.expr(depth - 1);
                let w = self.width_of(&base);
                let bit = self.below(u64::from(w)) as u32;
                base.index(bit)
            }
            9 => {
                let base = self.expr(depth - 1);
                let w = self.width_of(&base);
                let lo = self.below(u64::from(w)) as u32;
                let hi = lo + self.below(u64::from(w - lo)) as u32;
                base.slice(hi, lo)
            }
            10 => {
                // Concatenation bounded to 64 bits total.
                let a = self.expr(depth - 1);
                let wa = self.width_of(&a);
                if wa >= 63 {
                    a
                } else {
                    let room = 64 - wa;
                    let wb = 1 + self.below(u64::from(room.min(16))) as u32;
                    Expr::Concat(vec![a, Expr::lit(self.rng.next_u64(), wb)])
                }
            }
            _ => {
                let i = self.below(self.avail.len() as u64) as usize;
                Expr::Signal(self.avail[i].0)
            }
        }
    }
}

/// Builds a random but always-legal module: layered continuous assigns
/// (no comb loops by construction), one sequential process mixing
/// `if`/`case` (overlapping labels, optional `default`), a non-blocking
/// swap pair and a double-write register.
fn random_module(seed: u64) -> Module {
    let mut rng = TestRng::new(seed);
    let mut b = ModuleBuilder::new("fuzz");
    let _clk = b.clock("clk");
    let rst = b.reset("rst");
    let n_inputs = 2 + (rng.below(3) as usize);
    let mut avail: Vec<(SignalId, u32)> = Vec::new();
    for i in 0..n_inputs {
        let w = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
        avail.push((b.input(&format!("in{i}"), w), w));
    }

    // Combinational layer: each wire reads only earlier signals.
    let n_wires = 2 + (rng.below(3) as usize);
    for i in 0..n_wires {
        let expr = {
            let mut g = Gen {
                rng: &mut rng,
                avail: avail.clone(),
            };
            g.expr(3)
        };
        let w = {
            let g = Gen {
                rng: &mut rng,
                avail: avail.clone(),
            };
            g.width_of(&expr)
        };
        let wire = b.wire(&format!("w{i}"), w);
        b.assign(wire, expr);
        avail.push((wire, w));
    }

    // State registers.
    let wa = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
    let ra = b.reg("ra", wa, Bv::new(rng.next_u64(), wa));
    let rb = b.reg("rb", wa, Bv::new(rng.next_u64(), wa));
    let wc = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
    let rc = b.reg("rc", wc, Bv::zeros(wc));
    let state_avail = {
        let mut v = avail.clone();
        v.extend([(ra, wa), (rb, wa), (rc, wc)]);
        v
    };

    let cond = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        g.expr(2)
    };
    let (subj, subj_w) = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        let e = g.expr(2);
        let w = g.width_of(&e);
        (e, w)
    };
    let n_arms = 1 + rng.below(3) as usize;
    let with_default = rng.below(2) == 0;
    let arm_labels: Vec<Vec<Bv>> = (0..n_arms)
        .map(|_| {
            (0..1 + rng.below(2))
                .map(|_| {
                    // Draw labels from a small pool so arms overlap and
                    // some labels repeat across arms (first match wins).
                    let v = rng.below(4) as u64;
                    Bv::new(v, subj_w.clamp(1, 3))
                })
                .collect()
        })
        .collect();
    let mut exprs = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        let mut out = Vec::new();
        for _ in 0..(2 * n_arms + 8) {
            out.push(g.expr(2));
        }
        out
    };
    let mut next_expr = move || exprs.pop().expect("pre-generated pool is large enough");

    b.always_seq(|p| {
        p.if_else(
            Expr::Signal(rst),
            |t| {
                t.assign(ra, Expr::lit(1, 1));
                t.assign(rb, Expr::zero());
                t.assign(rc, Expr::zero());
            },
            |e| {
                // Non-blocking swap.
                e.assign(ra, Expr::Signal(rb));
                e.assign(rb, Expr::Signal(ra));
                // Double write under a branch: the later one must win.
                e.assign(rc, next_expr());
                e.if_(cond, |t| t.assign(rc, next_expr()));
                e.case(subj, |cb| {
                    for labels in &arm_labels {
                        cb.arm(labels, |a| a.assign(rc, next_expr()));
                    }
                    if with_default {
                        cb.default(|d| d.assign(rc, next_expr()));
                    }
                });
            },
        );
    });

    // Output over everything (kept total so elaboration always passes).
    let y = b.output("y", 1);
    let reduce = state_avail
        .iter()
        .map(|&(s, _)| Expr::unary(UnaryOp::RedXor, Expr::Signal(s)))
        .reduce(|a, b| a.xor(b))
        .expect("at least one signal");
    b.assign(y, reduce);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random modules x random vector suites: the tape and the
    /// interpreter agree on traces, coverage ratios and uncovered point
    /// sets.
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
    /// block.
    #[test]
    fn random_modules_agree_on_one_segment_and_ragged_suites(seed in any::<u64>()) {
        let module = random_module(seed);
        for (shape, suite) in engine_shaped_suites(&module, seed ^ 0x51DE) {
            let interp = run_interpreter(&module, &suite);
            for block in BLOCKS {
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

/// One `CoverageSuite` shown `segments` as the consecutive batches
/// `..cuts[0]`, `cuts[0]..cuts[1]`, …, `cuts[last]..` (`cuts` ascending;
/// equal neighbours make an empty batch), one `Replay::observe` each.
fn answers_fed_in_batches(replay: Replay<'_>, segments: &[Segment], cuts: &[usize]) -> Answers {
    let mut cov = CoverageSuite::new(replay.module);
    let mut from = 0;
    for &to in cuts.iter().chain([&segments.len()]) {
        let done = replay.observe(&segments[from..to], &mut cov).unwrap();
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
    let one_pass = answers_fed_in_batches(replay(None, 1), suite.segments(), &[]);
    let engines = [
        (None, 1),
        (Some(&compiled), 1),
        (Some(&compiled), 2),
        (Some(&compiled), 8),
    ];
    for (tape, block) in engines {
        let batched = answers_fed_in_batches(replay(tape, block), suite.segments(), cuts);
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

/// A random suite whose vectors are *thinned*: each `(signal, value)`
/// pair survives with probability 2/3 (so in any cycle a lane drives
/// signals its neighbours leave alone, and some vectors are empty), one
/// vector in eight names a signal a second time with another value —
/// sometimes at another width — and one data input is named by nobody
/// before the middle of segment `late`, so its rows join the packed
/// form mid-suite, mid-group and mid-segment.
fn thinned_suite(module: &Module, seed: u64, lengths: &[u64], late: usize) -> TestSuite {
    let full = random_suite(module, seed, lengths);
    let rng = &mut TestRng::new(seed ^ 0x7415);
    let inputs = module.data_inputs();
    let late_sig = (!inputs.is_empty()).then(|| inputs[rng.below(inputs.len() as u128) as usize]);
    let mut suite = TestSuite::new();
    for (s, segment) in full.segments().iter().enumerate() {
        let cycles = segment.vectors.len();
        let vectors = segment
            .vectors
            .iter()
            .enumerate()
            .map(|(t, vector)| {
                let mut thin: Vec<(SignalId, Bv)> = vector
                    .iter()
                    .filter(|_| rng.below(3) != 0)
                    .filter(|(sig, _)| {
                        Some(*sig) != late_sig || s > late || (s == late && t >= cycles / 2)
                    })
                    .copied()
                    .collect();
                if !thin.is_empty() && rng.below(8) == 0 {
                    let (sig, old) = thin[rng.below(thin.len() as u128) as usize];
                    let width = [old.width(), 1, 64][rng.below(3) as usize];
                    thin.push((sig, Bv::new(rng.next_u64(), width)));
                }
                thin
            })
            .collect();
        suite.push(segment.label.clone(), vectors);
    }
    suite
}

/// Asserts that the tape agrees with the interpreter on `suite` at
/// every lane block through both feeds: the slice path (a scratch form
/// packed per chunk) and the form the suite owns (built by the first
/// `run_compiled`, read by the later ones).
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
        .traces(suite.segments(), &mut cov)
        .expect("interpreter not involved")
        .expect("no cancel token");
        assert_eq!(
            interp,
            result_of(&cov, traces),
            "{label}: slice feed W={block} diverged"
        );
        let owned = run_compiled_batch(module, suite, block);
        assert_eq!(interp, owned, "{label}: owned feed W={block} diverged");
    }
    let packed = suite.packed().expect("run_compiled built the form");
    assert_eq!(packed.segments(), suite.len(), "{label}");
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
// The form a suite owns follows the suite
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay, push more, replay: the suite answers — traces, coverage
    /// and the packed words themselves — exactly as a fresh suite of
    /// the same segments. A clone carries the form and replays
    /// identically; having replayed changes neither equality nor the
    /// `Debug` render.
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
        for segment in &all.segments()[..first] {
            grown.push(segment.label.clone(), segment.vectors.clone());
        }

        let twin = grown.clone();
        let before = run_compiled_batch(&module, &grown, block);
        prop_assert!(grown.packed().is_some() && twin.packed().is_none());
        prop_assert_eq!(&grown, &twin, "a replay is not a change (seed {})", seed);
        prop_assert_eq!(format!("{grown:?}"), format!("{twin:?}"));
        prop_assert_eq!(&before, &run_interpreter(&module, &twin));

        let early = grown.clone();
        prop_assert_eq!(early.packed(), grown.packed(), "a clone carries the form");

        for segment in &all.segments()[first..] {
            grown.push(segment.label.clone(), segment.vectors.clone());
        }
        prop_assert_eq!(&grown, &all);
        let after = run_compiled_batch(&module, &grown, block);
        prop_assert_eq!(&after, &run_compiled_batch(&module, &all, block), "seed {}", seed);
        prop_assert_eq!(&after, &run_interpreter(&module, &all), "seed {}", seed);
        prop_assert_eq!(grown.packed(), all.packed(), "extended in place == packed afresh");

        // The clone taken before the pushes is still the shorter suite.
        prop_assert_eq!(&run_compiled_batch(&module, &early, block), &before);
        prop_assert_eq!(early.packed().map(|p| p.segments()), Some(first));
    }
}
