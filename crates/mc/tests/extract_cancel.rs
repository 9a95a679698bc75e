//! A batch's cancel token reaches both threads that extract its
//! counterexamples, the helper beside the search and the deciding
//! thread once its decisions run out: raised while extractions are
//! still queued, it drops them, and the batch fails with
//! `McError::Cancelled` and no partial verdict. The token is raised
//! while the `mc.extract_stall` fault point holds each of the two at
//! its first poll, before its first extraction.
//!
//! Fault plans are process-wide, so this test has a binary of its own.

use gm_mc::{Backend, BitAtom, CheckResult, Checker, McError, WindowProperty};
use gm_rtl::Module;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `b18_lite` properties violated in windows of depths 0, 1 and 2, at
/// starts 0 to 2: `variants` of each, all distinct.
fn violated(m: &Module, variants: u32) -> Vec<WindowProperty> {
    let go = m.require("go").unwrap();
    let sel = m.require("sel").unwrap();
    let done = m.require("done").unwrap();
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
            ]
            .map(|consequent| WindowProperty::implication(antecedent.clone(), consequent))
        })
        .collect()
}

fn checker(m: &Module) -> Checker {
    Checker::new(m)
        .unwrap()
        .with_backend(Backend::KInduction { max_k: 2 })
}

#[test]
fn a_token_raised_with_extractions_queued_cancels_the_batch() {
    let m = gm_designs::b18_lite();
    let props = violated(&m, 8);
    let reference = checker(&m).check_batch(&props).unwrap();
    assert!(reference
        .iter()
        .all(|r| matches!(r, CheckResult::Violated(_))));

    let mut c = checker(&m);
    let token = Arc::new(AtomicBool::new(false));
    c.set_cancel(Some(token.clone()));
    let plan = gm_fault::FaultPlan::new(1).point_limited("mc.extract_stall", gm_fault::PPM, 2);
    let stall = gm_fault::arm(plan);
    let cancelled = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Raise the token once both extracting threads are held;
            // should they never be, the assertion on `fired` below
            // says so.
            let give_up = Instant::now() + Duration::from_secs(30);
            while stall.fired("mc.extract_stall") < 2 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            token.store(true, Ordering::Release);
        });
        c.check_batch(&props)
    });
    assert_eq!(
        stall.fired("mc.extract_stall"),
        2,
        "the helper and the deciding thread did not both stall"
    );
    assert_eq!(cancelled, Err(McError::Cancelled));
    // Both threads stalled before their first extraction and then
    // dropped every extraction still queued.
    assert_eq!(c.session_stats().cex_canonicalized, 0);
    drop(stall);

    // A cancelled batch leaves nothing behind.
    token.store(false, Ordering::Release);
    assert_eq!(c.check_batch(&props).unwrap(), reference);
    assert_eq!(c.session_stats().cex_canonicalized, props.len() as u64);
}
