//! The engine's replays ride the lane-batched tape one *pass* at a
//! time, and a cancel token that lands inside such a batch ends the
//! run cleanly: an `interrupted` outcome whose last report predates the
//! cancelled pass, nothing of the batch absorbed, and a suite that
//! still replays on the interpreter.
//!
//! The checker polls the token at every decision, so a token raised at
//! an iteration boundary lands in the next verification batch — unless
//! that batch is empty. A refinement batch is reached that way without
//! threads or sleeps: after the boundary where every tree has closed
//! while refinement still absorbs, the next iteration asks the checker
//! nothing, and the first poll is the first simulated cycle of the
//! refinement's scoring replay. The recorded `sim.batch` span confirms
//! where the cancel landed.
//!
//! A counterexample replay cannot be reached that way — the checker
//! decides (and polls) right before it — so that test runs on the
//! interpreter, which polls before every segment and records one
//! `sim.segment` span per segment, and raises the token from a second
//! thread that watches the recording for the replay to have begun;
//! where it landed is again read off the recording, never assumed, and
//! a late landing is tried again.
//!
//! Coverage has no pass of its own: the run's coverage suite observes
//! the seed, counterexample and refinement-winner replays, and a report
//! only reads it. So a cancelled counterexample replay is also a
//! cancelled coverage observation, and every cut is checked for what
//! that must leave behind: no report of the cancelled iteration, the
//! published reports (coverage included) equal to the uninterrupted
//! run's, and each report's coverage what a coverage suite of the
//! test's own measures over the suite prefix it was taken at.
//!
//! On the compiled backend a counterexample replay is one batch with
//! no span inside it, so the watcher cannot see it begin; it times the
//! end of the verification batch before it instead. After the checker's
//! last poll the engine pushes the counterexamples and replays them,
//! and nothing polls the token until the replay's first cycle, so a
//! token raised anywhere from the batch's end to the replay's lands in
//! the replay. A reference recording says when that window opens and
//! how long it lasts, counted from the last time the sink grew before
//! it (the recorded run flushes its staged events at every report, so
//! the sink grows at least once an iteration, however few spans a pass
//! records); the watcher raises the token that long after the sink reaches
//! the same length, and the recorded `sim.batch` (`cancelled`, and the
//! pass span around it) says where the cancel landed. An early or late
//! landing moves the delay and is tried again. The refinement case pins
//! the same landing on a refinement's first batch, the replay that
//! scores its variants (inside `engine.refine`). No engine replay
//! materialises traces (`traces: false` on every batch): the miner's
//! rows are captured off the tape.

use gm_coverage::CoverageSuite;
use gm_designs::catalog;
use gm_mc::Checker;
use gm_rtl::{elaborate, Elab, Module};
use gm_sim::{NopObserver, Replay, Segment, SimBackend};
use gm_trace::{ArgValue, TraceEvent, TraceSink};
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, EngineError, IterationReport, RefineConfig, SeedStimulus,
    Step, TargetSelection,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn design(name: &str) -> (Module, EngineConfig) {
    let design = catalog()
        .into_iter()
        .find(|d| d.name == name)
        .expect("design in catalog");
    let config = EngineConfig {
        window: design.window,
        stimulus: SeedStimulus::Random { cycles: 4 },
        record_coverage: true,
        refine: RefineConfig {
            variants: 4,
            extra_cycles: 16,
            max_absorb: 2,
        },
        ..EngineConfig::default()
    };
    (design.module(), config)
}

/// `b12_lite` on the interpreter with a longer seed: its iterations push
/// and replay hundreds of segments, one poll and one `sim.segment` span
/// each.
fn interpreted_b12_lite() -> (Module, EngineConfig) {
    let (m, config) = design("b12_lite");
    let config = EngineConfig {
        stimulus: SeedStimulus::Random { cycles: 64 },
        refine: RefineConfig::default(),
        sim_backend: SimBackend::Interpreter,
        ..config
    };
    (m, config)
}

/// Steps `engine` to its end, handing every report to `on_report`, and
/// finishes it: the outcome (or the error that ended the run) and the
/// checker.
fn run_observed(
    mut engine: Engine<'_>,
    mut on_report: impl FnMut(&IterationReport),
) -> (Result<ClosureOutcome, EngineError>, Checker) {
    let ran = loop {
        match engine.step() {
            Ok(Step::Continue(report)) => on_report(report),
            Ok(Step::Stop { last, .. }) => {
                last.into_iter().for_each(&mut on_report);
                break Ok(());
            }
            Err(e) => break Err(e),
        }
    };
    let (outcome, checker) = engine.finish();
    (ran.map(|()| outcome), checker)
}

fn arg<'e>(event: &'e TraceEvent, key: &str) -> &'e ArgValue {
    let found = event.args.iter().find(|(k, _)| *k == key);
    &found
        .unwrap_or_else(|| panic!("{} has no `{key}`", event.name))
        .1
}

/// Runs the design once to completion, then again with a token raised
/// when the report of the iteration `boundary_of` picks arrives.
/// Returns that iteration, both outcomes and the second run's
/// recording.
fn cancel_in_iteration_after(
    m: &Module,
    config: &EngineConfig,
    boundary_of: impl Fn(&ClosureOutcome) -> u32,
) -> (u32, ClosureOutcome, ClosureOutcome, Vec<TraceEvent>) {
    let full = Engine::new(m, config.clone()).unwrap().run().unwrap();
    assert!(!full.interrupted);
    let boundary = boundary_of(&full);

    let token = Arc::new(AtomicBool::new(false));
    let engine = Engine::new(m, config.clone())
        .unwrap()
        .with_cancel(token.clone());
    let sink = TraceSink::new();
    let cut = {
        let _guard = gm_trace::push_thread_sink(sink.clone());
        let (cut, _checker) = run_observed(engine, |report| {
            if report.iteration == boundary {
                token.store(true, Ordering::Release);
            }
        });
        cut.unwrap()
    };
    (boundary, full, cut, sink.events())
}

/// Recorded runs take turns: another test's recorded runs, each with a
/// spinning watcher, would skew the timing a delayed raise aims with.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One recorded run of `m` on `checker` (the artifacts of an earlier
/// run, so repeated runs agree down to the verification counters). With
/// `raise_past`, a second thread raises the run's cancel token once the
/// sink holds more than that many events.
fn record(
    m: &Module,
    elab: &Elab,
    config: &EngineConfig,
    checker: Checker,
    raise_past: Option<usize>,
) -> (ClosureOutcome, Checker, Vec<TraceEvent>) {
    let _turn = turn();
    let raise = raise_past.map(|events| (events, Duration::ZERO));
    let (outcome, checker, events, _) = record_raising(m, elab, config, checker, raise);
    (outcome, checker, events)
}

/// [`record`], with the token raised `delay` after the sink first holds
/// more than `events` events. Also returns every length the watcher saw
/// the sink grow to: the run's events are visible to another thread
/// only in the batches the recorder flushes — whenever 64 are staged,
/// and here also at every report.
fn record_raising(
    m: &Module,
    elab: &Elab,
    config: &EngineConfig,
    checker: Checker,
    raise: Option<(usize, Duration)>,
) -> (ClosureOutcome, Checker, Vec<TraceEvent>, Vec<usize>) {
    let token = Arc::new(AtomicBool::new(false));
    let engine = Engine::with_artifacts(m, elab, checker, None, config.clone())
        .unwrap()
        .with_cancel(token.clone());
    let sink = TraceSink::with_capacity(1 << 20);
    let done = AtomicBool::new(false);
    let (outcome, checker, lengths) = std::thread::scope(|threads| {
        let watcher = threads.spawn(|| {
            let mut lengths = vec![0];
            let mut seen: Option<Instant> = None;
            while !done.load(Ordering::Acquire) {
                let len = sink.len();
                if lengths.last() != Some(&len) {
                    lengths.push(len);
                }
                if let Some((events, delay)) = raise {
                    if seen.is_none() && len > events {
                        seen = Some(Instant::now());
                    }
                    if seen.is_some_and(|at| at.elapsed() >= delay) {
                        token.store(true, Ordering::Release);
                    }
                }
                std::hint::spin_loop();
            }
            lengths
        });
        let _guard = gm_trace::push_thread_sink(sink.clone());
        let (outcome, checker) = run_observed(engine, |_| gm_trace::flush_thread());
        done.store(true, Ordering::Release);
        (outcome, checker, watcher.join().unwrap())
    });
    (outcome.unwrap(), checker, sink.events(), lengths)
}

/// What every cancelled-replay outcome must satisfy. `pass` is the
/// engine span the cancelled batch ran in: `engine.verify` for a
/// counterexample replay, `engine.refine` for a refinement's batch.
fn assert_cut_cleanly(
    m: &Module,
    full: &ClosureOutcome,
    cut: &ClosureOutcome,
    events: &[TraceEvent],
    boundary: u32,
    pass: &str,
) {
    assert!(cut.interrupted, "the token landed mid-iteration");
    // The last report predates the cancelled pass, and everything up to
    // it is what the uninterrupted run reported, coverage included.
    assert_eq!(cut.iterations.len() as u32, boundary + 1);
    assert!(cut.iterations.iter().all(|r| r.coverage.is_some()));
    assert_eq!(cut.iterations[..], full.iterations[..cut.iterations.len()]);
    // The cancel was seen by a replay batch — not by the checker — and
    // it was the last batch. The interpreter records no batches: there
    // the run's last replay is the segments after its last verification
    // batch, and no coverage report was read after them.
    let last_batch = events
        .iter()
        .filter(|e| e.name == "sim.batch")
        .max_by_key(|e| e.ts_ns);
    match last_batch {
        Some(last_batch) => {
            assert_eq!(arg(last_batch, "cancelled"), &ArgValue::Bool(true));
            assert_eq!(arg(last_batch, "traces"), &ArgValue::Bool(false));
            let around = (events.iter().filter(|e| e.name == pass)).max_by_key(|e| e.ts_ns);
            let around = around.unwrap_or_else(|| panic!("no {pass} span"));
            assert!(
                around.ts_ns <= last_batch.ts_ns
                    && last_batch.ts_ns + last_batch.dur_ns() <= around.ts_ns + around.dur_ns(),
                "the cancelled batch ran in {pass}"
            );
        }
        None => {
            let verified = (events.iter())
                .rposition(|e| e.name == "mc.check_batch")
                .expect("verification recorded");
            let after = &events[verified + 1..];
            assert!(after.iter().any(|e| e.name == "sim.segment"));
            assert!(after.iter().all(|e| e.name != "engine.coverage"));
        }
    }
    // The suite is a prefix of the uninterrupted run's and still
    // replays on the interpreter.
    let kept: Vec<Segment> = cut.suite.segments().collect();
    let full_kept: Vec<Segment> = full.suite.segments().take(kept.len()).collect();
    assert_eq!(kept, full_kept);
    let traces = cut.suite.run(m, &mut NopObserver).unwrap();
    assert_eq!(traces.len(), kept.len());
    // The batch the cancelled replay half-observed is in no report: each
    // one's coverage is what a coverage suite of our own measures over
    // the prefix that holds its `suite_cycles`, grown report by report
    // on the interpreter.
    let interpreter = Replay {
        module: m,
        compiled: None,
        block: 1,
        cancel: None,
    };
    let mut ours = CoverageSuite::new(m);
    let (mut seen, mut cycles) = (0, 0);
    for report in &cut.iterations {
        let from = seen;
        while cycles < report.suite_cycles {
            cycles += kept[seen].vectors.len();
            seen += 1;
        }
        assert_eq!(cycles, report.suite_cycles, "reports end on segment seams");
        let done = interpreter.observe(&cut.suite, from..seen, &mut ours);
        assert_eq!(done.unwrap(), Some(()));
        assert_eq!(report.coverage, Some(ours.report()));
    }
}

#[test]
fn a_cancel_inside_a_counterexample_batch_interrupts_before_absorption() {
    let (m, config) = interpreted_b12_lite();
    let elab = elaborate(&m).unwrap();
    let (cold, checker) = run_observed(Engine::new(&m, config.clone()).unwrap(), |_| {});
    cold.unwrap();
    // Each verification batch of the reference recording: where it
    // ended, and how many counterexample segments were replayed right
    // after it.
    let (full, mut checker, events) = record(&m, &elab, &config, checker, None);
    assert!(!full.interrupted);
    let replays = |events: &[TraceEvent]| -> Vec<(usize, usize)> {
        let batches = events.iter().enumerate();
        (batches.filter(|(_, e)| e.name == "mc.check_batch"))
            .map(|(at, _)| {
                let after = events[at + 1..].iter();
                (at, after.take_while(|e| e.name == "sim.segment").count())
            })
            .collect()
    };
    // Two sink flushes' worth of segments: the watcher sees the replay
    // begun while a flush's worth of polls is still to come.
    let full_replays = replays(&events);
    let n = (full_replays.iter())
        .position(|&(_, cex)| cex >= 128)
        .expect("an iteration with a long counterexample replay");
    let (at, cex) = full_replays[n];

    // The watcher can be late: the token then lands after the replay,
    // or in none — the recording says which, and the run is tried again.
    let mut landed = None;
    for _attempt in 0..20 {
        let (cut, reclaimed, events) = record(&m, &elab, &config, checker, Some(at));
        checker = reclaimed;
        // Inside the aimed-at replay: its verification batch is the
        // run's last, and fewer segments followed it than it refuted.
        let cut_replays = replays(&events);
        let inside = cut_replays.len() == n + 1
            && (1..cex).contains(&cut_replays.last().expect("verified").1);
        if cut.interrupted && inside {
            landed = Some((cut, events));
            break;
        }
    }
    let (cut, events) = landed.expect("the token never landed inside a counterexample replay");
    let boundary = cut.iterations.len() as u32 - 1;
    assert_cut_cleanly(&m, &full, &cut, &events, boundary, "engine.verify");
    assert!(!cut.converged, "the refuted leaves were never re-split");
    // The counterexamples were pushed for replay and nothing else: the
    // suite is the reported prefix, then the batch's `cex-*` segments.
    let labels: Vec<String> = cut.suite.segments().map(|s| s.label).collect();
    let (reported, pushed) = labels.split_at(labels.len() - cex);
    let reported_cycles: usize = (cut.suite.segments().take(reported.len()))
        .map(|s| s.vectors.len())
        .sum();
    assert_eq!(reported_cycles, cut.iterations.last().unwrap().suite_cycles);
    let prefix = format!("cex-{}-", boundary + 1);
    assert!(pushed.iter().all(|l| l.starts_with(&prefix)), "{pushed:?}");
}

#[test]
fn a_cancel_inside_a_compiled_counterexample_batch_interrupts_before_absorption() {
    let (m, config) = interpreted_b12_lite();
    let config = EngineConfig {
        sim_backend: SimBackend::default(),
        ..config
    };
    let elab = elaborate(&m).unwrap();
    let (cold, checker) = run_observed(Engine::new(&m, config.clone()).unwrap(), |_| {});
    cold.unwrap();
    // A counterexample replay is the batch right after a verification
    // batch: with nothing refuted, the next event is the end of
    // `engine.verify`, and a refinement's batches come after that.
    let cex_replay = |events: &[TraceEvent], at: usize| {
        let (verify, replay) = (&events[at], events.get(at + 1));
        verify.name == "mc.check_batch" && replay.is_some_and(|r| r.name == "sim.batch")
    };
    let batches_to = |events: &[TraceEvent], at: usize| {
        (events[..=at].iter())
            .filter(|e| e.name == "mc.check_batch")
            .count()
    };
    let end = |e: &TraceEvent| e.ts_ns + e.dur_ns();

    // Every run below is timed against a reference: no other test's
    // recorded run may come between them. A round takes the quickest
    // of three recordings as its reference — a busy machine stretches
    // the times it is read for — and a round that never lands starts
    // over from a new one.
    let _turn = turn();
    let (mut checker, mut landed) = (checker, None);
    for _round in 0..3 {
        let mut reference = None;
        for _ in 0..3 {
            let (full, reclaimed, events, lengths) =
                record_raising(&m, &elab, &config, checker, None);
            checker = reclaimed;
            let run = events.iter().find(|e| e.name == "engine.run");
            let wall = run.expect("the run span").dur_ns();
            if reference
                .as_ref()
                .is_none_or(|(_, _, _, best)| wall < *best)
            {
                reference = Some((full, events, lengths, wall));
            }
        }
        let (full, events, lengths, _) = reference.expect("three recordings");
        assert!(!full.interrupted);
        // For each verification batch `at` followed by its replay: the
        // last sink length the watcher saw before the batch ended
        // (`visible`), how long after that event the batch ended
        // (`lead`), and the window from there to the replay's end,
        // where the token lands in the replay. The aim is the one whose
        // window is widest against the lead the watcher must time.
        let aims = (0..events.len()).filter(|&at| cex_replay(&events, at));
        let (at, visible, lead, window) = (aims.filter_map(|at| {
            let visible = *lengths
                .iter()
                .filter(|&&len| len > 0 && len <= at + 1)
                .max()?;
            let lead = end(&events[at]) - end(&events[visible - 1]);
            let window = end(&events[at + 1]) - end(&events[at]);
            Some((at, visible, lead, window))
        }))
        .max_by_key(|&(_, _, lead, window)| window * 1000 / (2 * lead + window))
        .expect("a counterexample replay after the first flush");
        let aimed = batches_to(&events, at);

        // The watcher's clock is not the recording's: a landing before
        // the window (in the checker) waits longer next time, one after
        // it (a later pass, or none) shorter, by a step that halves at
        // every turn down to a sixteenth of the window — the delay
        // settles where early and late landings balance, around the
        // window.
        let mut delay = lead + window / 2;
        let mut step = window / 4;
        let mut was_early = None;
        for _attempt in 0..20 {
            let raise = Some((visible - 1, Duration::from_nanos(delay)));
            let (cut, reclaimed, events, _) = record_raising(&m, &elab, &config, checker, raise);
            checker = reclaimed;
            let last = |name: &str| events.iter().rposition(|e| e.name == name);
            let cancelled_replay = last("sim.batch")
                .filter(|&b| b > 0 && arg(&events[b], "cancelled") == &ArgValue::Bool(true));
            if cut.interrupted && cancelled_replay.is_some_and(|b| cex_replay(&events, b - 1)) {
                landed = Some((full, cut, events));
                break;
            }
            let verified = batches_to(&events, events.len() - 1);
            let in_checker = last("sim.batch") < last("mc.check_batch");
            let early = cut.interrupted && (verified < aimed || verified == aimed && in_checker);
            if was_early.is_some_and(|was| was != early) {
                step = (step / 2).max(window / 16);
            }
            was_early = Some(early);
            delay = if early {
                delay + step
            } else {
                delay.saturating_sub(step)
            };
        }
        if landed.is_some() {
            break;
        }
    }
    let (full, cut, events) =
        landed.expect("the token never landed inside a counterexample replay");
    let boundary = cut.iterations.len() as u32 - 1;
    assert_cut_cleanly(&m, &full, &cut, &events, boundary, "engine.verify");
    assert!(!cut.converged, "the refuted leaves were never re-split");
    // The counterexamples were pushed for replay and nothing else: the
    // suite is the reported prefix, then the cancelled batch's `cex-*`
    // segments.
    let cancelled = (events.iter().rev())
        .find(|e| e.name == "sim.batch")
        .expect("the cancelled batch");
    let cex = match arg(cancelled, "segments") {
        ArgValue::U64(n) => *n as usize,
        other => panic!("segments is {other:?}"),
    };
    let labels: Vec<String> = cut.suite.segments().map(|s| s.label).collect();
    let (reported, pushed) = labels.split_at(labels.len() - cex);
    let reported_cycles: usize = (cut.suite.segments().take(reported.len()))
        .map(|s| s.vectors.len())
        .sum();
    assert_eq!(reported_cycles, cut.iterations.last().unwrap().suite_cycles);
    let prefix = format!("cex-{}-", boundary + 1);
    assert!(pushed.iter().all(|l| l.starts_with(&prefix)), "{pushed:?}");
}

#[test]
fn a_cancel_inside_a_refinement_batch_discards_the_pass_whole() {
    // One target bit that closes early, while the design's coverage is
    // still open enough for refinement to keep absorbing.
    let (m, config) = design("b12_lite");
    let config = EngineConfig {
        targets: TargetSelection::Bits(vec![(m.require("win").unwrap(), 0)]),
        ..config
    };
    // An iteration after which every tree has closed while refinement
    // still absorbs: the next one verifies nothing, so its refinement
    // replay is the first place the token is polled.
    let (boundary, full, cut, events) = cancel_in_iteration_after(&m, &config, |full| {
        let closed = full
            .iterations
            .iter()
            .find(|r| r.candidates == 0 && (r.iteration as usize) + 1 < full.iterations.len())
            .expect("an iteration that closes every tree before the run ends");
        assert!(closed.directed_absorbed > 0, "refinement still absorbing");
        closed.iteration
    });
    // The compiled backend: the cut is checked on its recorded batches.
    // The refinement's first poll is its observe-only scoring batch,
    // inside the run's last `engine.refine` span.
    assert!(events.iter().any(|e| e.name == "sim.batch"));
    assert_cut_cleanly(&m, &full, &cut, &events, boundary, "engine.refine");
    let last = |name: &str| (events.iter().filter(|e| e.name == name)).max_by_key(|e| e.ts_ns);
    let (batch, refine) = (last("sim.batch").unwrap(), last("engine.refine").unwrap());
    assert!(
        refine.ts_ns <= batch.ts_ns
            && batch.ts_ns + batch.dur_ns() <= refine.ts_ns + refine.dur_ns(),
        "the cancelled batch is the refinement's"
    );
    // Nothing of the cancelled pass reached the suite: it ends where
    // the previous iteration left it.
    assert_eq!(
        cut.suite.total_cycles(),
        cut.iterations.last().unwrap().suite_cycles
    );
    assert!(boundary > 0, "earlier iterations ran in full");
    // The verification pass before it had completed; its verdicts stand.
    assert!(cut.converged);
}

#[test]
fn compiled_runs_replay_one_batch_per_pass_and_never_per_segment() {
    let (m, config) = design("b01");
    let sink = TraceSink::new();
    let outcome = {
        let _guard = gm_trace::push_thread_sink(sink.clone());
        Engine::new(&m, config).unwrap().run().unwrap()
    };
    let events = sink.events();
    assert!(
        events.iter().all(|e| e.name != "sim.segment"),
        "only the interpreter replays segment by segment"
    );
    // Every absorbing batch — all but a refinement's first, which
    // scores its variants — is the one replay of an engine pass, and no
    // batch materialises traces: the miner captures its rows off the
    // tape.
    let within = |outer: &TraceEvent, inner: &TraceEvent| {
        outer.ts_ns <= inner.ts_ns && inner.ts_ns + inner.dur_ns() <= outer.ts_ns + outer.dur_ns()
    };
    let passes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| ["engine.seed", "engine.verify", "engine.refine"].contains(&e.name))
        .collect();
    let batches = events.iter().filter(|e| e.name == "sim.batch");
    assert!(batches
        .clone()
        .all(|e| arg(e, "traces") == &ArgValue::Bool(false)));
    let scoring = |batch: &TraceEvent| {
        passes.iter().any(|p| {
            p.name == "engine.refine"
                && (events
                    .iter()
                    .filter(|e| e.name == "sim.batch" && within(p, e)))
                .min_by_key(|e| e.ts_ns)
                .is_some_and(|first| std::ptr::eq(first, batch))
        })
    };
    let replays: Vec<&TraceEvent> = batches.filter(|e| !scoring(e)).collect();
    for pass in &passes {
        let inside = replays.iter().filter(|r| within(pass, r)).count();
        assert!(inside <= 1, "{} replayed {inside} batches", pass.name);
    }
    for replay in &replays {
        assert!(
            passes.iter().any(|p| within(p, replay)),
            "a replay outside every pass"
        );
    }
    // Far fewer batches than segments: the suite's counterexamples and
    // directed variants went through iteration-many replays.
    assert!(
        outcome.suite.len() > replays.len(),
        "{} segments",
        outcome.suite.len()
    );
    assert!(replays.len() <= 1 + 2 * outcome.iteration_count() as usize);
    // A refinement pass scores every variant in one observe-only batch
    // and replays into traces only the winners it absorbs.
    let refines = passes.iter().filter(|p| p.name == "engine.refine");
    let mut scored = 0;
    for pass in refines {
        let batches: Vec<&TraceEvent> = (events.iter())
            .filter(|e| e.name == "sim.batch" && within(pass, e))
            .collect();
        let absorbed = match arg(pass, "absorbed") {
            ArgValue::U64(n) => *n,
            other => panic!("absorbed: {other:?}"),
        };
        let segments = |e: &TraceEvent| match arg(e, "segments") {
            ArgValue::U64(n) => *n,
            other => panic!("segments: {other:?}"),
        };
        if let Some(first) = batches.first() {
            scored += 1;
            assert_eq!(arg(first, "traces"), &ArgValue::Bool(false));
        }
        let traced: Vec<u64> = (batches.iter().skip(1)).map(|e| segments(e)).collect();
        assert!(traced.len() <= 1 && traced.iter().all(|&n| n == absorbed && n <= 2));
        assert_eq!(traced.len(), usize::from(absorbed > 0));
    }
    assert!(scored > 0, "some refinement pass scored variants");
    assert!(outcome.iterations.iter().any(|r| r.directed_absorbed > 0));
}
