//! `Engine::step` is the closure loop: `run` and a caller that steps by
//! hand must both see the same run.
//!
//! Over small catalog designs, seeds, iteration caps and passes, a
//! stop index `k` is drawn and checked four ways:
//!
//! * stepping to `Stop` and finishing is `Debug`-identical to `run()`,
//!   report for report, and the `StopReason` matches the outcome;
//! * stopping after report `k` leaves the first `k + 1` reports and no
//!   interruption;
//! * raising the cancel token after report `k` ends the run
//!   `Interrupted` exactly when the outcome is `interrupted`, or not at
//!   all when nothing later polls the token;
//! * every such outcome is a prefix of the full run's: its reports and
//!   suite segments are the full run's first ones, its temporal
//!   assertions a prefix, and its assertions an in-order subsequence
//!   (the list is target-major, and a target proves more leaves later).
//!
//! A token raised after a `Stop` step changes nothing: `finish()` is
//! uninterrupted and equal to `run()`.

use gm_designs::catalog;
use gm_rtl::Module;
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, IterationReport, RefineConfig, SeedStimulus, Step,
    StopReason, TemporalConfig,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DESIGNS: [&str; 6] = ["cex_small", "arbiter2", "b01", "b02", "b09", "b12_lite"];

fn case(
    design: usize,
    seed: u64,
    cap: u32,
    refine: bool,
    temporal: bool,
) -> (Module, EngineConfig) {
    let d = catalog()
        .into_iter()
        .find(|d| d.name == DESIGNS[design])
        .expect("design in catalog");
    let config = EngineConfig {
        window: d.window,
        seed,
        stimulus: SeedStimulus::Random { cycles: 12 },
        max_iterations: cap,
        record_coverage: true,
        refine: RefineConfig {
            variants: if refine { 3 } else { 0 },
            extra_cycles: 8,
            max_absorb: 2,
        },
        temporal: TemporalConfig {
            horizon: if temporal { 2 } else { 0 },
        },
        ..EngineConfig::default()
    };
    (d.module(), config)
}

fn debug<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    items.iter().map(|x| format!("{x:?}")).collect()
}

/// Steps `engine` to its end, calling `after` on every report; `after`
/// returning `false` on a `Continue` stops the stepping there. Returns
/// the reason the run stopped on its own, if it did, and the reports.
fn drive(
    engine: &mut Engine<'_>,
    mut after: impl FnMut(&IterationReport) -> bool,
) -> (Option<StopReason>, Vec<String>) {
    let mut reports = Vec::new();
    loop {
        match engine.step().expect("the run succeeds") {
            Step::Continue(report) => {
                reports.push(format!("{report:?}"));
                if !after(report) {
                    return (None, reports);
                }
            }
            Step::Stop { reason, last } => {
                reports.extend(last.map(|r| format!("{r:?}")));
                return (Some(reason), reports);
            }
        }
    }
}

/// `part` is what `full` was when it had published `part`'s reports.
fn assert_prefix(part: &ClosureOutcome, full: &ClosureOutcome, label: &str) {
    let n = part.iterations.len();
    assert!(n <= full.iterations.len(), "{label}: more reports");
    assert_eq!(part.iterations[..], full.iterations[..n], "{label}");
    let segments: Vec<_> = part.suite.segments().collect();
    let full_segments: Vec<_> = full.suite.segments().take(segments.len()).collect();
    assert_eq!(segments, full_segments, "{label}: suite");
    let temporal = debug(&part.temporal);
    assert_eq!(
        temporal[..],
        debug(&full.temporal)[..temporal.len()],
        "{label}: temporal"
    );
    let mut full_assertions = debug(&full.assertions).into_iter();
    for a in debug(&part.assertions) {
        assert!(
            full_assertions.any(|f| f == a),
            "{label}: assertion {a} out of order or never proved by the full run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stepping_stopping_and_cancelling_agree_with_run(
        design in 0usize..DESIGNS.len(),
        seed in 0u64..1000,
        cap in 1u32..12,
        refine in prop::bool::ANY,
        temporal in prop::bool::ANY,
        pick in 0usize..64,
    ) {
        let (m, config) = case(design, seed, cap, refine, temporal);
        let engine = || Engine::new(&m, config.clone()).expect("engine builds");
        let full = engine().run().expect("the run succeeds");
        // Any report, or past the last one.
        let k = pick % (full.iterations.len() + 1);
        let label = format!(
            "{} seed {seed} cap {cap} refine {refine} temporal {temporal} k {k}",
            DESIGNS[design]
        );
        let full_debug = format!("{full:?}");

        // Stepped to the end: the same run, report for report.
        let mut stepped = engine();
        let (reason, reports) = drive(&mut stepped, |_| true);
        let reason = reason.expect("a run stepped to its end stops");
        let again = matches!(
            stepped.step().expect("stepping a stopped run"),
            Step::Stop { reason: again, last: None } if again == reason
        );
        prop_assert!(again, "{}: a stopped run stops again", label);
        let (outcome, _checker) = stepped.finish();
        prop_assert_eq!(format!("{outcome:?}"), full_debug.clone(), "{}", label);
        prop_assert_eq!(reports, debug(&full.iterations), "{}", label);
        let last = full.iterations.last().expect("a seed report");
        prop_assert!(!full.interrupted && reason != StopReason::Interrupted, "{}", label);
        prop_assert_eq!(
            reason == StopReason::Closed,
            full.converged && last.directed_absorbed == 0,
            "{}: {:?}", label, reason
        );
        match reason {
            StopReason::IterationCap => prop_assert_eq!(last.iteration, cap, "{}", label),
            StopReason::NoProgress => prop_assert_eq!(
                last.refuted + last.temporal_refuted + last.directed_absorbed, 0, "{}", label
            ),
            _ => {}
        }

        // Stopped after report `k`.
        let mut by_hand = engine();
        let (_, reports) = drive(&mut by_hand, |r| r.iteration as usize != k);
        let (stopped, _checker) = by_hand.finish();
        prop_assert_eq!(reports, debug(&stopped.iterations), "{}", label);
        prop_assert_eq!(stopped.iterations.len(), (k + 1).min(full.iterations.len()), "{}", label);
        prop_assert!(!stopped.interrupted, "{}", label);
        assert_prefix(&stopped, &full, &label);

        // The token raised after report `k`, or after the `Stop` when
        // the run ends first.
        let token = Arc::new(AtomicBool::new(false));
        let mut cancelled = engine().with_cancel(token.clone());
        let (reason, _) = drive(&mut cancelled, |r| {
            if r.iteration as usize == k {
                token.store(true, Ordering::Release);
            }
            true
        });
        let raised_before_stop = token.load(Ordering::Acquire);
        token.store(true, Ordering::Release);
        let (cut, _checker) = cancelled.finish();
        let reason = reason.expect("stepped to its end");
        prop_assert_eq!(reason == StopReason::Interrupted, cut.interrupted, "{}", label);
        if cut.interrupted {
            prop_assert!(raised_before_stop, "{}", label);
            prop_assert!(cut.iterations.len() > k, "{}: reports before the token", label);
            assert_prefix(&cut, &full, &label);
        } else {
            // Nothing polled the token after it rose, or it rose after
            // the last report.
            prop_assert_eq!(format!("{cut:?}"), full_debug, "{}", label);
        }
    }
}

#[test]
fn a_zero_cap_stops_at_the_seed_snapshot() {
    let (m, config) = case(1, 7, 0, false, false);
    let full = Engine::new(&m, config.clone()).unwrap().run().unwrap();
    let mut engine = Engine::new(&m, config).unwrap();
    match engine.step().unwrap() {
        Step::Stop {
            reason: StopReason::IterationCap,
            last: Some(report),
        } => assert_eq!(report.iteration, 0),
        other => panic!("the seed snapshot ends a zero-cap run: {other:?}"),
    }
    let (outcome, _checker) = engine.finish();
    assert_eq!(format!("{outcome:?}"), format!("{full:?}"));
    assert_eq!(outcome.iterations.len(), 1);
}
