//! `mine/capture_identity` — rows captured off a replay are the rows
//! cut from its traces.
//!
//! A [`ConeCapture`] of every output bit's spec rides a replay and
//! keeps only the bits those specs read; [`Dataset::add_windows`] cuts
//! each segment's windows from it, and [`Dataset::add_windows_from`]
//! copies a layout-mate's rows and reads only its own target bits. Both
//! must leave every dataset — rows, targets, futures, row ids — exactly
//! as [`Dataset::add_trace`] leaves it over the traces
//! [`Replay::traces`] returns for the same range (compared as `Debug`
//! renders).
//!
//! Cases sweep the catalog on the interpreter and on the tape at
//! W ∈ {1, 2, 4, 8}, over suites of `64·k + r` segments whose replayed
//! range starts inside a lane group, with zero-length segments and
//! segments shorter than a window among them, on designs with and
//! without a reset, at horizon 0 and 2. Cases are seeded; CI's release
//! job raises their number through `PROPTEST_CASES`, and the reach test
//! re-runs the tier-1 seeds and counts the situations they reached.
//!
//! Mutants these tests kill: the reset pulse captured as a trace's
//! first cycle; lanes mapped to segments from the range's start rather
//! than the pass's lowest lane; a lane scattered into its segment's row
//! past the segment's end; a copied layout-mate keeping the cutter's
//! target bits.

use gm_mine::{ConeCapture, Dataset, MiningSpec};
use gm_rtl::{cone_of, elaborate, Module};
use gm_sim::{collect_vectors, CompiledModule, NopObserver, RandomStimulus, Replay, TestSuite};
use proptest::TestRng;

/// Cases per sweep: `tier1` in tier-1, `PROPTEST_CASES` when set.
fn cases(tier1: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(tier1, |cases| cases.max(1))
}

/// Cases in tier-1, and in the reach test at any case count.
const TIER1: u32 = 36;

/// What the cases of a sweep reached.
#[derive(Debug, Default)]
struct Reach {
    cases: u32,
    interpreter: u32,
    /// Tape cases by lane block: W = 1, 2, 4, 8.
    tape: [u32; 4],
    /// Ranges starting inside a lane group.
    interior_start: u32,
    /// Replayed segments with no cycle, and with fewer than a window.
    zero_length: u32,
    short: u32,
    reset: u32,
    reset_free: u32,
    horizon: [u32; 2],
    /// Datasets checked through a layout-mate's copied rows.
    copied: u32,
}

/// Every output bit's spec on `m`.
fn specs(m: &Module, window: u32) -> Vec<MiningSpec> {
    let elab = elaborate(m).unwrap();
    let outputs = m.outputs();
    outputs
        .into_iter()
        .flat_map(|s| {
            let cone = cone_of(m, &elab, s);
            (0..m.signal_width(s))
                .map(|bit| MiningSpec::for_output(m, &elab, &cone, bit, window))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Checks case `case` and adds what it reached to `reach`.
fn check(case: u32, reach: &mut Reach) {
    let rng = &mut TestRng::new(0xCA97_0E5E ^ u64::from(case));
    let catalog = gm_designs::catalog();
    let design = catalog[case as usize % catalog.len()];
    let m = design.module();
    let specs = specs(&m, design.window);
    let span = specs.iter().map(|s| s.span() as usize).max().unwrap_or(1);
    let horizon = 2 * (case / catalog.len() as u32 % 2);

    let segments = 64 * rng.below(3) as usize + rng.below(64) as usize + 2;
    let mut suite = TestSuite::new();
    let mut lens = Vec::with_capacity(segments);
    for s in 0..segments {
        let len = match rng.below(4) {
            0 => 0,
            1 => rng.below(span as u128) as u64,
            _ => rng.below(12) as u64,
        };
        let stim = &mut RandomStimulus::new(&m, rng.next_u64(), len);
        suite.push(format!("s{s}"), collect_vectors(stim));
        lens.push(len as usize);
    }
    let start = rng.below(segments as u128) as usize;
    let range = start..start + 1 + rng.below((segments - start) as u128) as usize;

    let block = [0, 1, 2, 4, 8][rng.below(5) as usize];
    let compiled = CompiledModule::compile(&m).unwrap();
    let replay = Replay {
        module: &m,
        compiled: (block > 0).then_some(&compiled),
        block,
        cancel: None,
    };
    let label = format!(
        "case {case}: {} x{segments} {range:?} W{block} h{horizon}",
        design.name
    );
    let traces = replay.traces(&suite, range.clone(), &mut NopObserver);
    let traces = traces.unwrap().expect("no cancel token");
    let (mut capture, plans) = ConeCapture::new(&m, &specs).unwrap();
    let done = capture.replay(&replay, &suite, range.clone(), &mut NopObserver);
    assert_eq!(done.unwrap(), Some(()), "{label}");
    assert_eq!(capture.trace_count(), traces.len(), "{label}");
    for (i, trace) in traces.iter().enumerate() {
        assert_eq!(capture.trace_len(i), trace.len(), "{label}: trace {i}");
    }

    // Each layout's first spec cuts; the rest copy its rows.
    let mut cut: Vec<(usize, Dataset, Vec<usize>)> = Vec::new();
    for (s, spec) in specs.iter().enumerate() {
        let mut want = Dataset::with_horizon(horizon);
        want.add_traces(spec, &traces);
        let mut got = Dataset::with_horizon(horizon);
        let lead = cut.iter().find(|(l, _, _)| {
            let lead = &specs[*l];
            lead.features == spec.features && lead.target.offset == spec.target.offset
        });
        match lead {
            Some((_, lead, firsts)) => {
                for (i, &first) in firsts.iter().enumerate() {
                    got.add_windows_from(lead, first, &plans[s], &capture, i);
                }
                reach.copied += 1;
            }
            None => {
                let firsts = (0..traces.len())
                    .map(|i| got.add_windows(&plans[s], &capture, i).rows.start)
                    .collect();
                cut.push((s, got.clone(), firsts));
            }
        }
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}: spec {s}");
    }

    reach.cases += 1;
    match block {
        0 => reach.interpreter += 1,
        w => reach.tape[w.trailing_zeros() as usize] += 1,
    }
    reach.interior_start += u32::from(range.start % 64 != 0);
    let replayed = &lens[range];
    reach.zero_length += replayed.iter().filter(|&&l| l == 0).count() as u32;
    reach.short += replayed.iter().filter(|&&l| l > 0 && l < span).count() as u32;
    match m.reset() {
        Some(_) => reach.reset += 1,
        None => reach.reset_free += 1,
    }
    reach.horizon[(horizon / 2) as usize] += 1;
}

fn sweep(cases: u32) -> Reach {
    let mut reach = Reach::default();
    for case in 0..cases {
        check(case, &mut reach);
    }
    reach
}

#[test]
fn captured_rows_are_the_rows_cut_from_replayed_traces() {
    let reach = sweep(cases(TIER1));
    assert_eq!(reach.cases, cases(TIER1));
}

/// The tier-1 seeds reach every situation the module docs name.
#[test]
fn the_capture_sweep_reaches_every_situation() {
    let reach = sweep(TIER1);
    assert!(reach.interpreter >= 3, "{reach:?}");
    assert!(reach.tape.iter().all(|&n| n >= 3), "{reach:?}");
    assert!(2 * reach.interior_start >= reach.cases, "{reach:?}");
    assert!(reach.zero_length >= 20 && reach.short >= 20, "{reach:?}");
    assert!(reach.reset >= 6 && reach.reset_free >= 6, "{reach:?}");
    assert!(reach.horizon.iter().all(|&n| n >= 12), "{reach:?}");
    assert!(reach.copied >= 12, "{reach:?}");
}
