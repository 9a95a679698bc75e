//! `sim/open_points` — observation costs only what is still open, and
//! dropping it changes no answer.
//!
//! Within a pass — at its start and after 1, 2, 4, … of its cycles — the
//! tape stops observing the points its observer has closed
//! (`BatchObserver::closed`), and the coverage collectors
//! stop gathering the toggle bits and FSM registers they are done with.
//! None of that may show in what a `CoverageSuite` answers — its report
//! and every uncovered list — which must equal the interpreter's over
//! the same segments, and equal those of a suite behind [`NeverClosed`],
//! a forwarder that reports nothing closed and so keeps the full probed
//! tape on every pass.
//!
//! Suites are `64·k + r` segments of a few cycles each; the replayed
//! range starts inside a lane group and is fed to one suite in
//! consecutive pieces (the closure engine's shape), at W ∈ {1, 2, 4, 8}.
//! Designs are the catalog, the random modules of `support`, and random
//! FSMs whose states are entered on rare input conditions, so points
//! close mid-group, mid-range and mid-suite, and some never do; the
//! reach counts check that the cases get there. An observer that closes
//! everything sees no observation event at all — the all-closed
//! residual has no observation instruction — and replays exactly as the
//! probe-free tape. Cases are seeded; CI's release job raises their
//! number through `PROPTEST_CASES`.
//!
//! Mutants these tests kill: a probe closed after one polarity; a
//! toggle bit closed after a rise only; branch closure keyed on the
//! statement alone; an FSM register skipped before its last declared
//! state; the toggle open list compacted without realigning the
//! previous-cycle words.

mod support;

use gm_coverage::{CoverageReport, CoverageSuite};
use gm_rtl::{Bv, Module, SignalId, StmtId};
use gm_sim::{
    BatchObserver, BranchOutcome, CompileOptions, CompiledModule, LaneSet, LaneSnapshot,
    NopObserver, ObsPoint, ProbeHits, Replay, SimObserver, TestSuite,
};
use proptest::TestRng;
use support::{random_module, random_suite, BLOCKS};

/// Cases per sweep: `tier1` in tier-1, `PROPTEST_CASES` when set.
fn cases(tier1: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(tier1, |cases| cases.max(1))
}

/// Everything a coverage suite can be asked.
#[derive(Debug, PartialEq)]
struct Answers {
    report: CoverageReport,
    line: Vec<StmtId>,
    branch: Vec<(StmtId, BranchOutcome)>,
    toggle: Vec<(SignalId, u32, bool)>,
    fsm: Vec<(SignalId, Bv)>,
}

impl Answers {
    fn of(cov: &CoverageSuite<'_>) -> Self {
        Answers {
            report: cov.report(),
            line: cov.line().uncovered(),
            branch: cov.branch().uncovered(),
            toggle: cov.toggle().uncovered(),
            fsm: cov.fsm().unvisited(),
        }
    }
}

/// A `CoverageSuite` that never reports a point closed: the tape keeps
/// every observation instruction on every pass.
struct NeverClosed<'m>(CoverageSuite<'m>);

/// Tape-only: never handed to the interpreter.
impl SimObserver for NeverClosed<'_> {}

impl BatchObserver for NeverClosed<'_> {
    fn on_stmt(&mut self, stmt: StmtId, lanes: &LaneSet<'_>) {
        BatchObserver::on_stmt(&mut self.0, stmt, lanes);
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome, lanes: &LaneSet<'_>) {
        BatchObserver::on_branch(&mut self.0, stmt, outcome, lanes);
    }
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        self.0.drain_probes(hits);
    }
    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        BatchObserver::on_cycle_end(&mut self.0, cycle, lanes, snap);
    }
}

/// Closes every point and counts the observation events that still
/// arrive.
#[derive(Default)]
struct AllClosed {
    events: usize,
}

/// Tape-only: never handed to the interpreter.
impl SimObserver for AllClosed {}

impl BatchObserver for AllClosed {
    fn closed(&self, _point: ObsPoint) -> bool {
        true
    }
    fn on_stmt(&mut self, _stmt: StmtId, _lanes: &LaneSet<'_>) {
        self.events += 1;
    }
    fn on_branch(&mut self, _stmt: StmtId, _outcome: BranchOutcome, _lanes: &LaneSet<'_>) {
        self.events += 1;
    }
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        hits.for_each(|_, _, _, _, _| self.events += 1);
    }
}

/// Shows `obs` the consecutive ranges between `cuts` (ascending), one
/// `Replay::observe` each.
fn feed<O: SimObserver + BatchObserver>(
    replay: Replay<'_>,
    suite: &TestSuite,
    cuts: &[usize],
    obs: &mut O,
) {
    for piece in cuts.windows(2) {
        let done = replay.observe(suite, piece[0]..piece[1], obs);
        assert_eq!(done.expect("elaborates"), Some(()), "no token, no cancel");
    }
}

/// What a case reached, summed over a sweep.
#[derive(Debug, Default)]
struct Reach {
    cases: u32,
    /// Some point first closed past the range's first lane group.
    closed_late: u32,
    /// Every declared state of the FSM registers visited by the end.
    fsm_closed: u32,
    /// ... and not yet after the first lane group.
    fsm_closed_late: u32,
    /// Some point still open at the end of the range.
    open_at_end: u32,
}

/// Checks every claim on `suite` fed in the pieces between `cuts`, and
/// adds what the case reached to `reach`.
fn check(module: &Module, suite: &TestSuite, cuts: &[usize], label: &str, reach: &mut Reach) {
    let probed = CompiledModule::compile(module).expect("compiles");
    let bare =
        CompiledModule::compile_with(module, CompileOptions { probes: false }).expect("compiles");
    let replay = |compiled, block| Replay {
        module,
        compiled,
        block,
        cancel: None,
    };
    let (start, end) = (cuts[0], *cuts.last().expect("a range"));

    let mut interp = CoverageSuite::new(module);
    feed(replay(None, 1), suite, cuts, &mut interp);
    let want = Answers::of(&interp);
    for block in BLOCKS {
        let mut cov = CoverageSuite::new(module);
        feed(replay(Some(&probed), block), suite, cuts, &mut cov);
        assert_eq!(Answers::of(&cov), want, "{label}: W={block}, cuts {cuts:?}");
        let mut full = NeverClosed(CoverageSuite::new(module));
        feed(replay(Some(&probed), block), suite, cuts, &mut full);
        assert_eq!(
            Answers::of(&full.0),
            want,
            "{label}: never-closed W={block}, cuts {cuts:?}"
        );

        let mut none = AllClosed::default();
        let traces = replay(Some(&probed), block).traces(suite, start..end, &mut none);
        assert_eq!(
            none.events, 0,
            "{label}: W={block}: an all-closed replay observed"
        );
        let stripped = replay(Some(&bare), block).traces(suite, start..end, &mut NopObserver);
        assert_eq!(
            traces.expect("elaborates"),
            stripped.expect("elaborates"),
            "{label}: W={block}"
        );
    }

    // Reach: the answers after the range's first lane group alone.
    let group_end = end.min((start / 64 + 1) * 64);
    let mut first = CoverageSuite::new(module);
    feed(replay(None, 1), suite, &[start, group_end], &mut first);
    let early = Answers::of(&first);
    reach.cases += 1;
    reach.closed_late += u32::from(early != want);
    let fsm_closed = want.report.fsm.is_some() && want.fsm.is_empty();
    reach.fsm_closed += u32::from(fsm_closed);
    reach.fsm_closed_late += u32::from(fsm_closed && !early.fsm.is_empty());
    let report = &want.report;
    let ratios = [
        Some(report.line),
        Some(report.branch),
        Some(report.condition),
        Some(report.expression),
        Some(report.toggle),
        report.fsm,
    ];
    reach.open_at_end += u32::from(ratios.iter().flatten().any(|r| !r.is_full()));
}

/// A suite of `segments` segments of 0 to at most 8 cycles each.
fn short_suite(module: &Module, rng: &mut TestRng, segments: usize) -> TestSuite {
    let max_len = 1 + rng.below(8) as u64;
    let lengths: Vec<u64> = (0..segments)
        .map(|_| rng.below(u128::from(max_len) + 1) as u64)
        .collect();
    random_suite(module, rng.next_u64(), &lengths)
}

/// A range that starts inside the first lane group — often near its
/// end, so that group holds few segments — cut into one to four
/// consecutive pieces, empty ones included.
fn random_cuts(rng: &mut TestRng, len: usize) -> Vec<usize> {
    let start = match len.min(64) {
        0 | 1 => 0,
        n if rng.below(2) == 0 => n - 1 - rng.below(n.min(8) as u128 - 1) as usize,
        n => 1 + rng.below(n as u128 - 1) as usize,
    };
    let end = if rng.below(3) == 0 {
        start + rng.below((len - start) as u128 + 1) as usize
    } else {
        len
    };
    let mut cuts: Vec<usize> = (0..rng.below(4))
        .map(|_| start + rng.below((end - start) as u128 + 1) as usize)
        .collect();
    cuts.push(start);
    cuts.push(end);
    cuts.sort_unstable();
    cuts
}

/// A random FSM: a `width`-bit state register (inside the dense guard or
/// wider) stepping through its states mostly in order, each left on an
/// input condition — some common, some rare — so states are entered
/// late, and some never.
fn random_fsm(rng: &mut TestRng) -> Module {
    const CONDITIONS: [&str; 6] = [
        "b",
        "!a[0]",
        "a[1] ^ b",
        "a == 3'd5",
        "&a",
        "a == 3'd0 && b",
    ];
    let width = [3u32, 8][rng.below(2) as usize];
    let states = 2 + rng.below(4) as u32;
    let mut arms = String::new();
    for s in 0..states {
        let cond = CONDITIONS[rng.below(CONDITIONS.len() as u128) as usize];
        let to = if rng.below(3) == 0 {
            rng.below(u128::from(states)) as u32
        } else {
            (s + 1) % states
        };
        let out = rng.below(2);
        arms += &format!("{width}'d{s}: begin if ({cond}) st <= {width}'d{to}; o <= {out}; end\n");
    }
    let src = format!(
        "module rfsm(input clk, input rst, input [2:0] a, input b, output reg o);
           reg [{hi}:0] st;
           always @(posedge clk)
             if (rst) begin st <= {width}'d0; o <= 0; end
             else case (st)
               {arms}
               default: st <= {width}'d0;
             endcase
         endmodule",
        hi = width - 1
    );
    gm_rtl::parse_verilog(&src).expect("generated FSMs parse")
}

#[test]
fn open_points_answer_like_the_interpreter_across_the_catalog() {
    let mut reach = Reach::default();
    for design in gm_designs::catalog() {
        let module = design.module();
        let rng = &mut TestRng::new(0x09E7 ^ design.window as u64 ^ design.name.len() as u64);
        for k in 1..4 {
            let r = rng.below(64) as usize;
            let suite = short_suite(&module, rng, 64 * k + r);
            let cuts = random_cuts(rng, suite.len());
            let label = format!("{} x{}", design.name, suite.len());
            check(&module, &suite, &cuts, &label, &mut reach);
        }
    }
    assert!(reach.closed_late > 0, "{reach:?}");
    assert!(reach.fsm_closed > 0, "{reach:?}");
    assert!(reach.open_at_end > 0, "{reach:?}");
}

#[test]
fn open_points_answer_like_the_interpreter_on_random_modules() {
    let mut reach = Reach::default();
    for case in 0..cases(48) {
        let rng = &mut TestRng::new(0x09E7_5EED ^ u64::from(case));
        let fsm = case % 2 == 1;
        let module = if fsm {
            random_fsm(rng)
        } else {
            random_module(rng.next_u64())
        };
        let segments = 64 * rng.below(5) as usize + rng.below(64) as usize;
        let suite = short_suite(&module, rng, segments);
        let cuts = random_cuts(rng, suite.len());
        let label = format!("case {case} ({}) x{}", module.name(), suite.len());
        check(&module, &suite, &cuts, &label, &mut reach);
    }
    // Most cases close something past their first group.
    assert!(4 * reach.closed_late >= reach.cases, "{reach:?}");
    assert!(reach.fsm_closed_late > 0, "{reach:?}");
    assert!(4 * reach.open_at_end >= reach.cases, "{reach:?}");
}
