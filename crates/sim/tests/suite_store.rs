//! `sim/suite_store` — a `TestSuite` stores its stimulus lane-packed
//! only, so three things must hold of the store itself:
//!
//! 1. **It gives back what was pushed.** Every segment decodes to its
//!    pushed label and vectors — regular ones from the lanes, the rest
//!    from the verbatim copy kept beside them — and the suite's `Debug`
//!    render is that of a plain `Vec<Segment>`. The generator covers
//!    empty vectors, zero-cycle segments, duplicate and out-of-order
//!    namings, namings at another width, widths 1 and 64, and a signal
//!    first named in the middle of a lane group.
//! 2. **A range replays like its segments alone.** Every range `[a, b)`
//!    whose ends fall at 0/1/63/64/65/127/128/129 — inside, on and
//!    across lane-group seams — read in place at every lane block gives
//!    the traces and coverage the interpreter gives on a suite of just
//!    those segments.
//! 3. **Learned widths that are not the design's fall back.** A suite
//!    whose first naming of a signal is narrower, or wider, than the
//!    design's signal replays on the tape exactly as on the
//!    interpreter.
//!
//! Mutants these tests kill: the regularity check without its
//! row-order test (1: a reordered vector comes back in row order), a
//! range that ignores its first group's lane mask (2: segments before
//! the range are replayed and observed), and the width-mismatch
//! fallback removed (3: the lanes drive a too-narrow or too-wide row).

mod support;

use gm_coverage::{CoverageReport, CoverageSuite};
use gm_rtl::{Bv, Module, SignalId, StmtId};
use gm_sim::{BranchOutcome, CompiledModule, Replay, Segment, TestSuite, Trace};
use proptest::prelude::*;
use proptest::TestRng;
use support::{random_module, random_suite, thinned_suite, BLOCKS};

/// Cases per property: `tier1` in tier-1; CI's release job raises it
/// through proptest's `PROPTEST_CASES` variable, which an explicit
/// `ProptestConfig::with_cases` would otherwise override. A replay
/// property runs a `1/cost` share of the requested cases.
fn cases(tier1: u32, cost: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(tier1, |cases| (cases / cost).max(1))
}

// ---------------------------------------------------------------------------
// Decoding gives back what was pushed
// ---------------------------------------------------------------------------

/// What `TestSuite`'s `Debug` must render as: a struct of the same name
/// holding the segments as a `Vec`.
mod reference {
    #[derive(Debug)]
    #[allow(dead_code)] // read by the derived `Debug` only
    pub struct TestSuite {
        pub segments: Vec<gm_sim::Segment>,
    }
}

/// Signals of the hand-written stimulus below; the last one is the
/// late signal.
const SIGNALS: u32 = 7;

/// Hand-written-looking segments over raw signal ids `0..SIGNALS`. The
/// first vector of segment 0 names every early signal in index order,
/// so later vectors in index order are regular; one segment in four is
/// messy — its namings reversed, or one repeated at its width or at
/// another — and the late signal is first named halfway through
/// segment `late`.
fn raw_segments(seed: u64, count: usize, late: usize) -> Vec<Segment> {
    let rng = &mut TestRng::new(seed);
    let widths: Vec<u32> = (0..SIGNALS)
        .map(|_| [1, 64, 2, 5, 31, 64, 1][rng.below(7) as usize])
        .collect();
    let mut segments = Vec::with_capacity(count);
    for s in 0..count {
        let cycles = match (s, rng.below(5)) {
            (0, _) => 1 + rng.below(6) as usize,
            (_, 0) => 0,
            _ => rng.below(10) as usize,
        };
        let messy = s > 0 && rng.below(4) == 0;
        let mut vectors = Vec::with_capacity(cycles);
        for t in 0..cycles {
            let mut vector: Vec<(SignalId, Bv)> = Vec::new();
            for i in 0..SIGNALS {
                let named_yet = i < SIGNALS - 1 || s > late || (s == late && t >= cycles / 2);
                if named_yet && ((s == 0 && t == 0) || rng.below(3) != 0) {
                    let width = widths[i as usize];
                    vector.push((SignalId::from_raw(i), Bv::new(rng.next_u64(), width)));
                }
            }
            if messy && !vector.is_empty() {
                let (sig, old) = vector[rng.below(vector.len() as u128) as usize];
                match rng.below(3) {
                    0 => vector.reverse(),
                    1 => vector.push((sig, Bv::new(rng.next_u64(), old.width()))),
                    _ => {
                        let width = if old.width() == 64 { 1 } else { 64 };
                        vector.push((sig, Bv::new(rng.next_u64(), width)));
                    }
                }
            }
            vectors.push(vector);
        }
        segments.push(Segment {
            label: format!("s{s}"),
            vectors,
        });
    }
    segments
}

fn suite_of(segments: &[Segment]) -> TestSuite {
    let mut suite = TestSuite::new();
    for segment in segments {
        suite.push(segment.label.clone(), segment.vectors.clone());
    }
    suite
}

#[test]
fn reordered_and_repeated_namings_come_back_as_pushed() {
    let (a, b) = (SignalId::from_raw(0), SignalId::from_raw(1));
    let segments = vec![
        Segment {
            label: "rows".into(),
            vectors: vec![vec![(a, Bv::one_bit()), (b, Bv::new(9, 64))], vec![]],
        },
        Segment {
            label: "empty".into(),
            vectors: vec![],
        },
        Segment {
            label: "reordered".into(),
            vectors: vec![vec![(b, Bv::new(3, 64)), (a, Bv::zero_bit())]],
        },
        Segment {
            label: "repeated".into(),
            vectors: vec![vec![(a, Bv::one_bit()), (a, Bv::zero_bit())]],
        },
        Segment {
            label: "narrow".into(),
            vectors: vec![vec![(a, Bv::one_bit()), (b, Bv::new(3, 2))]],
        },
    ];
    let suite = suite_of(&segments);
    assert_eq!(suite.segments().collect::<Vec<_>>(), segments);
    assert_eq!(
        format!("{suite:?}"),
        format!("{:?}", reference::TestSuite { segments })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64, 1)))]

    /// Random hand-written stimulus: every segment, the `Debug` render
    /// (plain and pretty), the counts and equality are those of the
    /// pushed segments.
    #[test]
    fn decoding_gives_back_exactly_what_was_pushed(
        seed in any::<u64>(),
        count in 1usize..200,
        late in 0usize..200,
    ) {
        let segments = raw_segments(seed, count, late % count);
        let suite = suite_of(&segments);
        prop_assert_eq!(suite.len(), segments.len());
        prop_assert_eq!(
            suite.total_cycles(),
            segments.iter().map(|s| s.vectors.len()).sum::<usize>()
        );
        for (s, want) in segments.iter().enumerate() {
            prop_assert_eq!(&suite.segment(s), want, "segment {} (seed {})", s, seed);
        }
        prop_assert_eq!(suite.segments().collect::<Vec<_>>(), segments.clone());
        let reference = reference::TestSuite { segments };
        prop_assert_eq!(format!("{suite:?}"), format!("{reference:?}"));
        prop_assert_eq!(format!("{suite:#?}"), format!("{reference:#?}"));
        // Pushed again, piecewise, the store is the same store.
        let mut again = TestSuite::new();
        for segment in suite.segments() {
            again.push(segment.label, segment.vectors);
        }
        prop_assert_eq!(again.packed(), suite.packed());
        prop_assert_eq!(&again, &suite);
    }
}

// ---------------------------------------------------------------------------
// A range replays like its segments alone
// ---------------------------------------------------------------------------

/// Everything a replay produces that must agree.
#[derive(Debug, PartialEq)]
struct Replayed {
    traces: Vec<Trace>,
    report: CoverageReport,
    line_uncovered: Vec<StmtId>,
    branch_uncovered: Vec<(StmtId, BranchOutcome)>,
    toggle_uncovered: Vec<(SignalId, u32, bool)>,
}

/// Segments `range` of `suite` replayed through `replay` into a fresh
/// coverage suite.
fn replayed(replay: Replay<'_>, suite: &TestSuite, range: std::ops::Range<usize>) -> Replayed {
    let mut cov = CoverageSuite::new(replay.module);
    let traces = replay
        .traces(suite, range, &mut cov)
        .expect("elaborates")
        .expect("no cancel token");
    Replayed {
        traces,
        report: cov.report(),
        line_uncovered: cov.line().uncovered(),
        branch_uncovered: cov.branch().uncovered(),
        toggle_uncovered: cov.toggle().uncovered(),
    }
}

fn replay<'a>(
    module: &'a Module,
    compiled: Option<&'a CompiledModule>,
    block: usize,
) -> Replay<'a> {
    Replay {
        module,
        compiled,
        block,
        cancel: None,
    }
}

/// Range ends inside, on and across the seams of the first two lane
/// groups.
const ENDS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

/// Asserts every `[a, b)` over [`ENDS`] replays on the tape, in place,
/// at every lane block, as the interpreter replays a suite of just
/// those segments.
fn assert_ranges_replay_alone(module: &Module, suite: &TestSuite, label: &str) {
    let compiled = CompiledModule::compile(module).expect("compiles");
    for (i, &a) in ENDS.iter().enumerate() {
        for &b in &ENDS[i..] {
            let mut alone = TestSuite::new();
            for segment in (a..b).map(|s| suite.segment(s)) {
                alone.push(segment.label, segment.vectors);
            }
            let want = replayed(replay(module, None, 1), &alone, 0..alone.len());
            assert_eq!(want.traces.len(), b - a);
            let interpreted = replayed(replay(module, None, 1), suite, a..b);
            assert_eq!(interpreted, want, "{label}: interpreter {a}..{b}");
            for block in BLOCKS {
                let got = replayed(replay(module, Some(&compiled), block), suite, a..b);
                assert_eq!(got, want, "{label}: tape W={block} {a}..{b}");
            }
        }
    }
}

#[test]
fn ranges_of_a_catalog_suite_replay_like_their_segments_alone() {
    let module = gm_designs::by_name("b12_lite")
        .expect("in catalog")
        .module();
    let lengths: Vec<u64> = (0..130).map(|i| (i * 5) % 9).collect();
    let suite = thinned_suite(&module, 0x5707E, &lengths, 70);
    assert_ranges_replay_alone(&module, &suite, "b12_lite");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8, 10)))]

    /// Random modules x thinned 130-segment suites.
    #[test]
    fn ranges_replay_like_their_segments_alone(seed in any::<u64>(), late in 0usize..130) {
        let module = random_module(seed);
        let lengths: Vec<u64> = (0..130u64).map(|i| (seed % 5 + 3 * i) % 7).collect();
        let suite = thinned_suite(&module, seed ^ 0x5707E, &lengths, late);
        assert_ranges_replay_alone(&module, &suite, &format!("seed {seed}"));
    }
}

// ---------------------------------------------------------------------------
// Learned widths that are not the design's
// ---------------------------------------------------------------------------

/// A random suite over `module` whose very first vector names `sig`
/// alone, at `width` — the width the store learns for it.
fn first_named_at(module: &Module, seed: u64, sig: SignalId, width: u32) -> TestSuite {
    let lengths: Vec<u64> = (0..70).map(|i| (seed + 3 * i) % 9).collect();
    let mut suite = TestSuite::new();
    for (s, mut segment) in random_suite(module, seed, &lengths).segments().enumerate() {
        if s == 0 {
            segment
                .vectors
                .insert(0, vec![(sig, Bv::new(seed.rotate_left(17), width))]);
        }
        suite.push(segment.label, segment.vectors);
    }
    suite
}

/// Asserts `suite` replays on the tape, whole and from segment 1 on, at
/// every lane block, as on the interpreter.
fn assert_tape_replays_like_the_interpreter(module: &Module, suite: &TestSuite, label: &str) {
    let compiled = CompiledModule::compile(module).expect("compiles");
    for range in [0..suite.len(), 1..suite.len()] {
        let want = replayed(replay(module, None, 1), suite, range.clone());
        for block in BLOCKS {
            let got = replayed(replay(module, Some(&compiled), block), suite, range.clone());
            assert_eq!(got, want, "{label}: tape W={block} {range:?}");
        }
    }
}

#[test]
fn a_narrower_or_wider_first_naming_replays_like_the_interpreter() {
    let src = "
    module hold(input clk, input rst, input a, input [2:0] b, output reg [3:0] acc);
      always @(posedge clk)
        if (rst) acc <= 0;
        else acc <= acc + {3'b0, a} + {1'b0, b};
    endmodule";
    let module = gm_rtl::parse_verilog(src).unwrap();
    let (a, b) = (module.require("a").unwrap(), module.require("b").unwrap());
    let narrower = first_named_at(&module, 7, b, 1);
    assert_tape_replays_like_the_interpreter(&module, &narrower, "b learned at 1 bit");
    let wider = first_named_at(&module, 8, a, 64);
    assert_tape_replays_like_the_interpreter(&module, &wider, "a learned at 64 bits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16, 4)))]

    /// Random modules: each data input in turn learned one bit
    /// narrower and one wider than the design declares it (where the
    /// width allows).
    #[test]
    fn learned_widths_that_are_not_the_designs_fall_back(seed in any::<u64>()) {
        let module = random_module(seed);
        for sig in module.data_inputs() {
            let width = module.signal_width(sig);
            for learned in [width - 1, width + 1] {
                if (1..=64).contains(&learned) {
                    let suite = first_named_at(&module, seed, sig, learned);
                    let label = format!("seed {seed}: {sig:?} learned at {learned} of {width}");
                    assert_tape_replays_like_the_interpreter(&module, &suite, &label);
                }
            }
        }
    }
}
