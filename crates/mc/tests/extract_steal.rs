//! The deciding thread drains its extraction queue from the tail once
//! its decisions run out, beside the helper that drains it from the
//! head. The `mc.extract_hold` fault point holds the helper at its
//! first poll until nothing is pending, so the deciding thread extracts
//! every trace but the helper's first: a partition the tests below can
//! count on.
//!
//! * Every trace of such a batch is the one-shot engines' on a fresh
//!   unrolling, in batch order, and `cex_canonicalized` rises by the
//!   batch's violated count, once each.
//! * A warm stolen extraction allocates what a warm helper extraction
//!   does. The counting global allocator below stamps every allocation
//!   with its time and thread, and each `mc.canonical_cex` span's
//!   window is read off a recording: a stolen one and the helper's
//!   make the same allocations, the span's own argument list (the
//!   helper makes none untraced: `extract_allocations`).
//!
//! Fault plans are process-wide, so this binary's tests take turns.
//! The benchmark measures an optimised build, so run it there too:
//! `cargo test --release -q -p gm_mc --test extract_steal`.

use gm_mc::{Backend, BitAtom, CheckResult, Checker, WindowProperty};
use gm_rtl::{Module, SignalId};
use gm_trace::{ArgValue, TraceEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator; while [`LOGGING`] is set, it stamps every
/// allocation with [`gm_trace::now_ns`] and whether the logging thread
/// made it.
struct Stamping;

const LOG_LEN: usize = 1 << 16;
static LOGGING: AtomicBool = AtomicBool::new(false);
static LOGGED: AtomicUsize = AtomicUsize::new(0);
/// `(time << 1) | by the logging thread`, one per allocation.
static LOG: [AtomicU64; LOG_LEN] = [const { AtomicU64::new(0) }; LOG_LEN];

thread_local! {
    static LOGGER: Cell<bool> = const { Cell::new(false) };
}

fn stamp() {
    if LOGGING.load(Ordering::Relaxed) {
        let at = LOGGED.fetch_add(1, Ordering::Relaxed);
        if at < LOG_LEN {
            let mine = LOGGER.with(Cell::get);
            LOG[at].store(gm_trace::now_ns() << 1 | u64::from(mine), Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` with its arguments; the
// log is atomics and a const-initialised thread-local with no
// destructor, and `now_ns` reads a clock whose epoch the test sets
// before logging starts, so stamping never allocates and never fails.
unsafe impl GlobalAlloc for Stamping {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stamp();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        stamp();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stamp();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static STAMPING: Stamping = Stamping;

static TURNS: Mutex<()> = Mutex::new(());

/// A tiny deterministic generator (so the suite needs no RNG dep).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = (self.0)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n.max(1)
    }
}

/// `count` distinct implications over the design's inputs and
/// outputs, antecedent atoms at offsets 0..=1 and the consequent at
/// 1..=2, as `batch_agree` draws them.
fn properties(module: &Module, count: usize) -> Vec<WindowProperty> {
    let outputs = module.outputs();
    let mut pool: Vec<SignalId> = module.data_inputs();
    pool.extend(outputs.iter().copied());
    let mut rng = Lcg(0x57EA_1000 + module.name().len() as u64);
    let atom = |rng: &mut Lcg, pool: &[SignalId], offsets: (u64, u64)| {
        let sig = pool[rng.below(pool.len() as u64) as usize];
        let bit = rng.below(u64::from(module.signal_width(sig))) as u32;
        let offset = (offsets.0 + rng.below(offsets.1 - offsets.0 + 1)) as u32;
        BitAtom::new(sig, bit, offset, rng.below(2) == 1)
    };
    let mut props = Vec::with_capacity(count);
    while props.len() < count {
        let antecedent = (0..rng.below(3))
            .map(|_| atom(&mut rng, &pool, (0, 1)))
            .collect();
        let prop = WindowProperty::implication(antecedent, atom(&mut rng, &outputs, (1, 2)));
        if !props.contains(&prop) {
            props.push(prop);
        }
    }
    props
}

fn one_shot(blasted: &gm_mc::Blasted, backend: Backend, p: &WindowProperty) -> CheckResult {
    match backend {
        Backend::Bmc { bound } => gm_mc::bmc(blasted, p, bound),
        Backend::KInduction { max_k } => gm_mc::k_induction(blasted, p, max_k),
        other => unreachable!("{other:?}"),
    }
}

fn u64_arg(e: &TraceEvent, key: &str) -> u64 {
    match e.args.iter().find(|a| a.0 == key) {
        Some((_, ArgValue::U64(n))) => *n,
        other => panic!("{}: {key} is {other:?}", e.name),
    }
}

/// What one held batch recorded.
struct Held {
    results: Vec<CheckResult>,
    events: Vec<TraceEvent>,
    /// Its `mc.check_batch` span's `stolen` arg.
    stolen: u64,
}

/// Decides `props` on `checker` with the helper held at its first poll
/// until nothing is pending, recording the batch. A batch whose helper
/// never reached a poll (the deciding thread claimed everything before
/// the helper started) is decided again: that is scheduling, not the
/// partition under test.
fn held_batch(checker: &mut Checker, props: &[WindowProperty]) -> Held {
    for _ in 0..5 {
        let before = checker.session_stats().cex_canonicalized;
        let plan = gm_fault::FaultPlan::new(1).point_limited("mc.extract_hold", gm_fault::PPM, 1);
        let hold = gm_fault::arm(plan);
        let sink = gm_trace::TraceSink::new();
        let results = {
            let _sink = gm_trace::push_thread_sink(sink.clone());
            checker.check_batch(props).unwrap()
        };
        let fired = hold.fired("mc.extract_hold");
        drop(hold);
        let violated = (results.iter())
            .filter(|r| matches!(r, CheckResult::Violated(_)))
            .count() as u64;
        assert!(violated >= 2, "{violated} violations: no helper");
        // Once each, whichever thread extracted it.
        let canonicalized = checker.session_stats().cex_canonicalized - before;
        assert_eq!(canonicalized, violated);
        if fired == 0 {
            continue;
        }
        assert_eq!(fired, 1);
        let events = sink.events();
        let batch = (events.iter().find(|e| e.name == "mc.check_batch")).expect("a batch span");
        let stolen = u64_arg(batch, "stolen");
        assert_eq!(
            stolen,
            violated - 1,
            "the deciding thread extracts all but one"
        );
        let here = gm_trace::current_tid();
        let cex = (events.iter()).filter(|e| e.name == "mc.canonical_cex");
        let helper = cex.clone().filter(|e| e.tid != here).count() as u64;
        assert_eq!((helper, cex.count() as u64), (1, violated));
        return Held {
            results,
            events,
            stolen,
        };
    }
    panic!("the helper never reached its first poll in five batches");
}

#[test]
fn stolen_extractions_carry_the_one_shot_traces_once_each() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut stolen = 0;
    for name in ["b17_lite", "b18_lite"] {
        let module = gm_designs::by_name(name).unwrap().module();
        let elab = gm_rtl::elaborate(&module).unwrap();
        let blasted = gm_mc::blast(&module, &elab).unwrap();
        let props = properties(&module, 48);
        for backend in [Backend::Bmc { bound: 4 }, Backend::KInduction { max_k: 3 }] {
            let mut checker = Checker::new(&module).unwrap().with_backend(backend);
            // Cold, then warm: the second batch reuses both scratches.
            for round in 0..2 {
                let held = held_batch(&mut checker, &props);
                for (i, (p, got)) in props.iter().zip(&held.results).enumerate() {
                    let want = one_shot(&blasted, backend, p);
                    assert_eq!(
                        got, &want,
                        "{name} ({backend:?}) round {round}, property {i}"
                    );
                }
                stolen += held.stolen;
            }
        }
    }
    assert!(stolen >= 100, "{stolen} stolen extractions compared");
}

#[test]
fn a_warm_stolen_extraction_allocates_what_the_helpers_does() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let module = gm_designs::b18_lite();
    let props = properties(&module, 48);
    let mut checker =
        (Checker::new(&module).unwrap()).with_backend(Backend::KInduction { max_k: 4 });
    // Both scratches grow to this batch's shapes, each on its own part.
    held_batch(&mut checker, &props);
    held_batch(&mut checker, &props);
    gm_trace::now_ns();
    LOGGER.with(|l| l.set(true));
    LOGGED.store(0, Ordering::Relaxed);
    LOGGING.store(true, Ordering::Relaxed);
    let held = held_batch(&mut checker, &props);
    LOGGING.store(false, Ordering::Relaxed);
    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(logged <= LOG_LEN, "{logged} allocations overflow the log");
    let log: Vec<(u64, bool)> = (LOG[..logged].iter())
        .map(|s| s.load(Ordering::Relaxed))
        .map(|s| (s >> 1, s & 1 == 1))
        .collect();
    // The allocations `mine` made inside `span`'s window.
    let inside = |span: &TraceEvent, mine: bool| {
        let (from, to) = (span.ts_ns, span.ts_ns + span.dur_ns());
        (log.iter())
            .filter(|&&(t, by)| by == mine && (from..=to).contains(&t))
            .count()
    };
    let here = gm_trace::current_tid();
    let spans = (held.events.iter()).filter(|e| e.name == "mc.canonical_cex");
    let (stolen, helper): (Vec<&TraceEvent>, Vec<&TraceEvent>) = spans.partition(|e| e.tid == here);
    let [helper] = helper[..] else {
        panic!("{} helper extractions", helper.len());
    };
    let reference = inside(helper, false);
    assert!(
        reference <= 1,
        "{reference} allocations in a warm helper extraction"
    );
    let counts: Vec<usize> = stolen.iter().map(|span| inside(span, true)).collect();
    assert_eq!(counts.len() as u64, held.stolen);
    assert!(
        counts.iter().all(|&n| n == reference),
        "stolen extractions allocated {counts:?}, the helper's {reference}"
    );
}
