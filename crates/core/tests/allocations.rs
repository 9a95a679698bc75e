//! What the closure loop's per-query and per-row steps allocate, read
//! from a counting global allocator: a warm checker session decides an
//! explicit-state property without allocating, and a violated one's
//! counterexample reaches a suite with room for it in one allocation,
//! a warm cone capture rides a replay and several same-layout datasets
//! cut a pass from it without allocating, a tree takes rows that land
//! in pure leaves without allocating, a replay allocates per call, not
//! per pass, and a whole closure run stays under a pinned count.
//! Each thread counts its own allocations, so the harness's other test
//! threads never show up.
//!
//! The benchmark measures an optimised build, so run it there too:
//! `cargo test --release -q -p goldmine --test allocations`.

use gm_mc::{blast, BitAtom, CheckResult, CheckSession, ConsequentKind, ExplicitLimits};
use gm_mc::{ReachableStates, WindowProperty};
use gm_mine::{ConeCapture, Dataset, DecisionTree, Feature, MiningSpec, Row, Target};
use gm_rtl::{cone_of, elaborate, SignalId};
use gm_sim::{collect_vectors, CompiledModule, NopObserver, RandomStimulus, Replay};
use gm_sim::{SegmentLabel, TestSuite};
use goldmine::{Engine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting every allocation and reallocation
/// of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` with its arguments; the
// counter is a const-initialised thread-local with no destructor, so
// reading it never allocates and never fails.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and how many allocations it made on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_session_proves_without_allocating() {
    let m = gm_designs::by_name("arbiter2").unwrap().module();
    let elab = elaborate(&m).unwrap();
    let blasted = Arc::new(blast(&m, &elab).unwrap());
    let limits = ExplicitLimits::default();
    let reach = ReachableStates::explore(&blasted, &limits).unwrap();
    let (gnt0, gnt1) = (m.require("gnt0").unwrap(), m.require("gnt1").unwrap());
    // Mutual exclusion, and a two-cycle window that no grant outlasts
    // both ways: proved on the reachable states only.
    let exclusive = WindowProperty::implication(
        vec![BitAtom::new(gnt0, 0, 0, true)],
        BitAtom::new(gnt1, 0, 0, false),
    );
    let window = WindowProperty::new(
        vec![BitAtom::new(gnt0, 0, 0, true)],
        vec![
            BitAtom::new(gnt1, 0, 0, false),
            BitAtom::new(gnt1, 0, 2, false),
        ],
        ConsequentKind::Any,
    );
    let mut session = CheckSession::new(blasted);
    for prop in [&exclusive, &window] {
        // The first check builds the tables and grows the scratch.
        let cold = session.explicit(&reach, prop, &limits);
        assert_eq!(cold, Ok(CheckResult::Proved), "{}", prop.display(&m));
    }
    for prop in [&exclusive, &window, &exclusive] {
        let (warm, allocations) = allocations_in(|| session.explicit(&reach, prop, &limits));
        assert_eq!(warm, Ok(CheckResult::Proved));
        assert_eq!(allocations, 0, "{}", prop.display(&m));
    }
}

#[test]
fn a_warm_violated_verdict_reaches_the_suite_in_one_allocation() {
    let m = gm_designs::by_name("arbiter2").unwrap().module();
    let elab = elaborate(&m).unwrap();
    let blasted = Arc::new(blast(&m, &elab).unwrap());
    let limits = ExplicitLimits::default();
    let reach = ReachableStates::explore(&blasted, &limits).unwrap();
    let (req1, gnt0) = (m.require("req1").unwrap(), m.require("gnt0").unwrap());
    // `req1@0 |-> gnt0@1` fails from reset with a grant to port 1: a
    // trace with a BFS prefix and a two-cycle window.
    let violated = WindowProperty::implication(
        vec![BitAtom::new(req1, 0, 0, true)],
        BitAtom::new(gnt0, 0, 1, true),
    );
    let mut session = CheckSession::new(blasted);
    let mut suite = TestSuite::new();
    let decide = |session: &mut CheckSession| match session.explicit(&reach, &violated, &limits) {
        Ok(CheckResult::Violated(cex)) => cex,
        other => panic!("{other:?}"),
    };
    // The first check builds the tables and grows the scratch; its
    // segment teaches the suite the input rows and makes its lane group
    // hold the records the warm segments, as long, fill beside it.
    let cold = decide(&mut session);
    suite.push_bits("cold", cold.layout(), cold.bits(), cold.len());
    for n in 1..4 {
        let ((), allocations) = allocations_in(|| {
            let cex = decide(&mut session);
            let label = SegmentLabel::numbered("cex", 1, n);
            suite.push_bits(label, cex.layout(), cex.bits(), cex.len());
        });
        assert!(allocations <= 1, "{allocations} allocations");
    }
    for segment in suite.segments() {
        assert_eq!(segment.vectors, cold.inputs());
    }
    assert_eq!(suite.segment(3).label, "cex-1-3");
}

/// Allocations of the whole `b12_lite` closure below, debug and
/// release builds alike, before counterexamples were written straight
/// into the suite's lanes and a pass's properties were rewritten in
/// place.
const ROUND_BEFORE: u64 = 41_541;

#[test]
fn a_closure_run_allocates_per_pass_not_per_candidate() {
    let m = gm_designs::by_name("b12_lite").unwrap().module();
    let (outcome, allocations) = allocations_in(|| {
        let engine = Engine::new(&m, EngineConfig::default()).unwrap();
        engine.run().unwrap()
    });
    assert!(outcome.converged);
    let bound = ROUND_BEFORE * 65 / 100;
    assert!(
        allocations <= bound,
        "{allocations} allocations, over {bound} (65% of {ROUND_BEFORE})"
    );
}

#[test]
fn rows_that_land_in_pure_leaves_allocate_nothing() {
    // Three features; the target is `f0 & f1 | f2`, so every leaf of
    // the fitted tree is pure and stays pure under more of the same.
    let features: Vec<Feature> = (0..3)
        .map(|i| Feature {
            signal: SignalId::from_raw(i),
            bit: 0,
            offset: 0,
        })
        .collect();
    let spec = MiningSpec {
        features,
        initial_active: 3,
        target: Target {
            signal: SignalId::from_raw(3),
            bit: 0,
            offset: 0,
        },
        window: 0,
    };
    let mut data = gm_mine::Dataset::new();
    let push_all = |data: &mut gm_mine::Dataset| {
        let first = data.len();
        for combo in 0..8u32 {
            let f: Vec<bool> = (0..3).map(|i| combo >> i & 1 == 1).collect();
            let target = f[0] && f[1] || f[2];
            data.push_row(Row {
                features: f,
                target,
            });
        }
        first..data.len()
    };
    push_all(&mut data);
    push_all(&mut data);
    let mut tree = DecisionTree::new(&spec);
    tree.fit(&data).unwrap();
    let nodes = tree.node_count();
    // The first batch grows every leaf's row list and the tree's
    // buffers; the second fits in what the first left.
    let warm = push_all(&mut data);
    assert_eq!(tree.add_rows(&data, warm), Ok(0));
    let batch = push_all(&mut data);
    let (added, allocations) = allocations_in(|| tree.add_rows(&data, batch));
    assert_eq!(added, Ok(0), "no leaf re-split");
    assert_eq!(allocations, 0);
    assert_eq!(tree.node_count(), nodes);
    assert_eq!(tree.candidate_count(), tree.leaves().len());
}

#[test]
fn a_warm_pass_is_captured_and_cut_without_allocating() {
    let m = gm_designs::by_name("b12_lite").unwrap().module();
    let elab = elaborate(&m).unwrap();
    let specs: Vec<MiningSpec> = (m.outputs().into_iter())
        .flat_map(|s| {
            let cone = cone_of(&m, &elab, s);
            (0..m.signal_width(s)).map(move |bit| (cone.clone(), bit))
        })
        .map(|(cone, bit)| MiningSpec::for_output(&m, &elab, &cone, bit, 1))
        .collect();
    // The specs that share the first spec's layout: one cuts, the rest
    // copy its rows.
    let layout: Vec<usize> = (0..specs.len())
        .filter(|&s| {
            let (lead, spec) = (&specs[0], &specs[s]);
            lead.features == spec.features && lead.target.offset == spec.target.offset
        })
        .collect();
    assert!(layout.len() > 2, "{layout:?}");
    let (mut capture, plans) = ConeCapture::new(&m, &specs).unwrap();
    let compiled = CompiledModule::with_elab(&m, &elab);
    let replay = Replay {
        module: &m,
        compiled: Some(&compiled),
        block: 1,
        cancel: None,
    };
    let mut suite = TestSuite::new();
    for seed in 0..12u64 {
        let mut stim = RandomStimulus::new(&m, seed, 8 + seed);
        suite.push(format!("cex-{seed}"), collect_vectors(&mut stim));
    }
    let pass = 0..suite.len();

    // The first replay grows the capture; later ones allocate what the
    // replay itself does, and nothing more.
    let done = capture.replay(&replay, &suite, pass.clone(), &mut NopObserver);
    assert_eq!(done.unwrap(), Some(()));
    let (observed, bare) =
        allocations_in(|| replay.observe(&suite, pass.clone(), &mut NopObserver));
    assert_eq!(observed.unwrap(), Some(()));
    let (captured, allocations) =
        allocations_in(|| capture.replay(&replay, &suite, pass.clone(), &mut NopObserver));
    assert_eq!(captured.unwrap(), Some(()));
    assert_eq!(
        allocations, bare,
        "the capture allocates nothing of its own"
    );

    let cut_pass = |datasets: &mut [Dataset]| {
        let (lead, mates) = datasets.split_first_mut().unwrap();
        for trace in 0..capture.trace_count() {
            let rows = lead.add_windows(&plans[layout[0]], &capture, trace);
            for (mate, &s) in mates.iter_mut().zip(&layout[1..]) {
                mate.add_windows_from(lead, rows.rows.start, &plans[s], &capture, trace);
            }
        }
    };
    // Datasets with room for one more pass: two passes cloned (a clone
    // holds exactly its rows), then a third, which doubles each one's
    // storage.
    let mut datasets = vec![Dataset::with_horizon(2); layout.len()];
    cut_pass(&mut datasets);
    cut_pass(&mut datasets);
    let mut datasets = datasets.clone();
    cut_pass(&mut datasets);
    let rows = datasets[0].len();
    let ((), allocations) = allocations_in(|| cut_pass(&mut datasets));
    assert!(datasets.iter().all(|d| d.len() == rows * 4 / 3));
    assert_eq!(allocations, 0, "cutting a pass allocates nothing");
}

#[test]
fn a_replay_allocates_per_call_not_per_pass() {
    let m = gm_designs::by_name("b12_lite").unwrap().module();
    let compiled = CompiledModule::compile(&m).unwrap();
    let mut suite = TestSuite::new();
    for seed in 0..640u64 {
        let mut stim = RandomStimulus::new(&m, seed, 3);
        suite.push(format!("s{seed}"), collect_vectors(&mut stim));
    }
    let allocations = |block: usize, segments: usize| {
        let replay = Replay {
            module: &m,
            compiled: Some(&compiled),
            block,
            cancel: None,
        };
        let (done, n) = allocations_in(|| replay.observe(&suite, 0..segments, &mut NopObserver));
        assert_eq!(done.unwrap(), Some(()));
        n
    };
    // One pass against ten at one word, one against two at eight: the
    // register file is built once per call.
    let one_pass = allocations(1, 64);
    assert_eq!(allocations(1, 640), one_pass);
    assert_eq!(allocations(8, 512), one_pass);
    assert_eq!(allocations(8, 640), one_pass);
}
