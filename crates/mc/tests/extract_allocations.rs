//! A batch's counterexamples are extracted on a helper thread beside the
//! search (and, once the search is done, on the deciding thread too),
//! and once warm that helper allocates nothing: every buffer it fills
//! was made by the deciding thread.
//!
//! A counting global allocator counts every allocation of the process
//! and, separately, of each thread. While a batch runs, whatever the
//! process allocated beyond what the calling thread did was allocated
//! by the helper, the only other thread. This binary holds one test, so
//! no other test thread allocates meanwhile.
//!
//! The benchmark measures an optimised build, so run it there too:
//! `cargo test --release -q -p gm_mc --test extract_allocations`.

use gm_mc::{Backend, BitAtom, CheckResult, Checker, WindowProperty};
use gm_rtl::Module;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation of
/// the process and of the calling thread.
struct Counting;

static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    THREAD.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` with its arguments; the
// counters are an atomic and a const-initialised thread-local with no
// destructor, so counting never allocates and never fails.
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

/// `f`'s result and the allocations other threads made while it ran.
fn elsewhere<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (process, thread) = (PROCESS.load(Ordering::Relaxed), THREAD.with(Cell::get));
    let out = f();
    let process = PROCESS.load(Ordering::Relaxed) - process;
    (out, process - (THREAD.with(Cell::get) - thread))
}

/// `b18_lite` properties violated in windows of depths 0, 1 and 2, at
/// starts 0 to 4: `variants` of each, all distinct. `fault` rises at
/// cycle 4 at the earliest (W0, W1, XFER, HALT), so `go@0 |-> !fault@d`
/// is violated at start `4 - d`, a scan that encodes frames past the
/// prefix.
fn violated(m: &Module, variants: u32) -> Vec<WindowProperty> {
    let go = m.require("go").unwrap();
    let sel = m.require("sel").unwrap();
    let done = m.require("done").unwrap();
    let fault = m.require("fault").unwrap();
    let a_in = m.require("a_in").unwrap();
    (0..variants)
        .flat_map(|i| {
            let antecedent = vec![
                BitAtom::new(go, 0, 0, true),
                BitAtom::new(a_in, i % 4, 0, i < 4),
            ];
            [
                BitAtom::new(sel, 0, 0, true),
                BitAtom::new(done, 0, 1, true),
                BitAtom::new(done, 0, 2, false),
                BitAtom::new(fault, 0, 0, false),
                BitAtom::new(fault, 0, 1, false),
                BitAtom::new(fault, 0, 2, false),
            ]
            .map(|consequent| WindowProperty::implication(antecedent.clone(), consequent))
        })
        .collect()
}

#[test]
fn a_warm_batch_extracts_beside_the_search_without_allocating_there() {
    // The counter sees a helper's allocation.
    let (_, seen) = elsewhere(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| drop(std::hint::black_box(vec![0u8; 64])));
        })
    });
    assert!(seen >= 1, "{seen} allocations seen on a helper");

    let m = gm_designs::b18_lite();
    let props = violated(&m, 8);
    let mut checker = Checker::new(&m)
        .unwrap()
        .with_backend(Backend::KInduction { max_k: 4 });
    // The first batch builds the prefixes and grows the scratch; the
    // second is traced, to see that the helper extracted.
    let cold = checker.check_batch(&props).unwrap();
    assert!(cold.iter().all(|r| matches!(r, CheckResult::Violated(_))));
    let sink = gm_trace::TraceSink::new();
    {
        let _sink = gm_trace::push_thread_sink(sink.clone());
        assert_eq!(checker.check_batch(&props).unwrap(), cold);
    }
    let here = gm_trace::current_tid();
    let events = sink.events();
    let on = |helper: bool| {
        (events.iter())
            .filter(|e| e.name == "mc.canonical_cex" && (e.tid != here) == helper)
            .count()
    };
    let (helper, deciding) = (on(true), on(false));
    assert_eq!(helper + deciding, props.len(), "every extraction once");
    assert!(helper >= 1, "{helper} extractions on the helper");
    let extracted = checker.session_stats().cex_canonicalized;
    for _ in 0..3 {
        let (warm, allocations) = elsewhere(|| checker.check_batch(&props));
        assert_eq!(warm.unwrap(), cold);
        assert_eq!(allocations, 0, "the helper allocated");
    }
    assert_eq!(
        checker.session_stats().cex_canonicalized,
        extracted + 3 * props.len() as u64
    );
}
