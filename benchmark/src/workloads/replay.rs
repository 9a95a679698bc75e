//! `suite_replay`: no model checking at all. Simulation, coverage and
//! mining get under 1% of any closure run, so nothing done to them can
//! show on a closure workload; here they are all there is.
//!
//! Per design, two random suites and three kinds of item:
//!
//! * **A** replays a [`SEGMENTS`] × [`CYCLES`] suite coverage-attached
//!   through the engine's own data path (`observe_compiled` +
//!   `CoverageSuite`) → `vectors_per_s`;
//! * **T** materialises the traces of a [`MINE_SEGMENTS`]-segment suite
//!   (`run_compiled`, the per-lane transpose);
//! * **M**, one per output bit, extracts a dataset from that suite and
//!   fits a tree (`Dataset::add_suite`, `DecisionTree::fit`,
//!   `temporal_candidates`) → with T, `rows_per_s`.
//!
//! A's suite is drawn from `--seed`; replay cost does not depend on the
//! data. T's and M's suite is fixed: the tree a fit grows, and so its
//! cost, does (ten seeds moved `wall_s` by 5%, twice the box's noise).
//!
//! A and T use the tape two ways (observe-only vs transpose), so a gain
//! for one that costs the other shows in its own metric. `wall_s` is
//! [`A_PASSES`] × A plus T plus every M, each at its fastest: sizes that
//! give replay and mining comparable shares, so neither can regress
//! unseen.

use super::{fastest_setup, peak_rss_mb, Ctx, Fastest, Phase, Tracer};
use crate::api::{self, Coverage, Design, MineNumbers, Specs, Stimulus, Traces};
use crate::fold::Folded;
use crate::metrics::Report;
use crate::stats::{fnv1a, Rng};
use std::time::Instant;

const DESIGNS: [&str; 4] = ["arbiter4", "b12_lite", "b18_lite", "fetch_stage"];
const SEGMENTS: u64 = 1024;
const CYCLES: u64 = 128;
/// How many A passes `wall_s` counts, and a round repeats (a pass over
/// all four suites is only ~25 ms).
const A_PASSES: u32 = 32;
/// Segments of the suite T and M work on (a tree fit over the full
/// suite's 600 000 rows per design would be ~1.3 s per design).
const MINE_SEGMENTS: u64 = 256;
/// Root of the mining suites' fixed seeds.
const MINING_SEEDS: u64 = 0xC0FFEE;
/// Mining window (with a lookahead horizon of 2).
const WINDOW: u32 = 2;
/// Traces compared against the interpreter's, per design.
const TRACES_CHECKED: usize = 8;

struct Prepared {
    design: Design,
    /// A's suite.
    replay: Stimulus,
    /// T's and M's suite.
    mining: Stimulus,
    specs: Specs,
}

#[derive(Clone, Copy)]
enum Kind {
    A,
    T,
    /// Mining the `n`-th output bit.
    M(usize),
}

/// What the fastest repeat of an item produced.
enum Done {
    A(Coverage),
    T(Traces),
    M(MineNumbers),
}

/// The round's items: per design, A, T and one M per output bit.
fn item_list(prepared: &[Prepared]) -> Vec<(usize, Kind)> {
    let mut items = Vec::new();
    for (d, p) in prepared.iter().enumerate() {
        items.push((d, Kind::A));
        items.push((d, Kind::T));
        items.extend((0..p.specs.len()).map(|n| (d, Kind::M(n))));
    }
    items
}

fn rounds(
    ctx: &Ctx,
    prepared: &[Prepared],
    items: &[(usize, Kind)],
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> (Fastest<(Done, Folded)>, u32) {
    let mut fastest = Fastest::new(items.len());
    let mut phase = Phase::start(ctx);
    loop {
        for (i, &(d, kind)) in items.iter().enumerate() {
            let p = &prepared[d];
            // Every A pass is a repeat in its own right.
            let repeats = match kind {
                Kind::A if !ctx.smoke => A_PASSES,
                _ => 1,
            };
            for _ in 0..repeats {
                let start = Instant::now();
                let done = match kind {
                    Kind::A => Ok(Done::A(api::replay_coverage(&p.design, &p.replay))),
                    Kind::T => Ok(Done::T(api::replay_traces(&p.design, &p.mining))),
                    Kind::M(n) => api::mine(&p.design, &p.mining, &p.specs, n).map(Done::M),
                };
                let seconds = start.elapsed().as_secs_f64();
                let folded = tracer.as_mut().map(|t| t.take()).unwrap_or_default();
                match done {
                    Ok(done) => fastest.offer(i, seconds, || (done, folded)),
                    Err(e) => report.fail(e),
                }
            }
        }
        if !phase.another(ctx) {
            return (fastest, phase.rounds);
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (segments, mine_segments, cycles) = if ctx.smoke {
        (128, 32, 32)
    } else {
        (SEGMENTS, MINE_SEGMENTS, CYCLES)
    };
    let a_passes = f64::from(if ctx.smoke { 1 } else { A_PASSES });

    // Set-up: front end, stimulus build, mining specs.
    let root = Rng::new(ctx.seed);
    let built = fastest_setup(&mut report, || {
        DESIGNS
            .iter()
            .map(|name| {
                let design = Design::catalog(name)?;
                let replay_seed = root.fork(name).next_u64();
                let mining_seed = Rng::new(MINING_SEEDS).fork(name).next_u64();
                let replay = api::random_suite(&design, replay_seed, segments, cycles);
                let mining = api::random_suite(&design, mining_seed, mine_segments, cycles);
                let specs = api::output_specs(&design, WINDOW);
                Ok(Prepared {
                    design,
                    replay,
                    mining,
                    specs,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let prepared = match built {
        Ok(prepared) => prepared,
        Err(e) => {
            report.attempted = 1;
            report.fail(e);
            return report;
        }
    };
    report.set(
        "rtl.parse_s",
        prepared.iter().map(|p| p.design.parse_s).sum(),
    );
    report.set(
        "rtl.elaborate_s",
        prepared.iter().map(|p| p.design.elaborate_s).sum(),
    );
    report.set(
        "sim.compile_s",
        prepared.iter().map(|p| p.design.compile_s).sum(),
    );
    let replay_vectors: f64 = prepared.iter().map(|p| p.replay.vectors as f64).sum();
    let mining_vectors: f64 = prepared.iter().map(|p| p.mining.vectors as f64).sum();
    let items = item_list(&prepared);

    // Untraced rounds.
    let (fastest, n) = rounds(ctx, &prepared, &items, &mut report, None);
    report.attempted = items.len() as u64 * u64::from(n);
    report.note(format!(
        "{} items per round, {n} untraced rounds; per design, {a_passes} coverage passes over \
         {segments}x{cycles} vectors, traces and one mining pass per output bit over {mine_segments}x{cycles}",
        items.len()
    ));
    // Seconds of the fastest repeats, by kind: (A, T, M).
    let split = |f: &Fastest<(Done, Folded)>| -> (f64, f64, f64) {
        let of = |want: fn(&Kind) -> bool| -> f64 {
            (0..items.len())
                .filter(|&i| want(&items[i].1))
                .map(|i| f.seconds(i))
                .sum()
        };
        (
            of(|k| matches!(k, Kind::A)),
            of(|k| matches!(k, Kind::T)),
            of(|k| matches!(k, Kind::M(_))),
        )
    };
    let (a_s, t_s, m_s) = split(&fastest);
    let wall_s = a_passes * a_s + t_s + m_s;
    report.set("wall_s", wall_s);
    report.set("peak_rss_mb", peak_rss_mb());
    let mut mined = MineNumbers::default();
    let mut coverage = Vec::new();
    let mut traces = Vec::new();
    for (done, _) in fastest.values() {
        match done {
            Done::A(c) => coverage.push(*c),
            Done::T(t) => traces.push(t),
            Done::M(m) => {
                mined.rows += m.rows;
                mined.tree_nodes += m.tree_nodes;
                mined.temporal_candidates += m.temporal_candidates;
                mined.extract_s += m.extract_s;
                mined.fit_s += m.fit_s;
                mined.temporal_s += m.temporal_s;
            }
        }
    }
    report.set("vectors_per_s", replay_vectors / a_s);
    report.set("rows_per_s", mined.rows as f64 / (t_s + m_s));
    report.set("sim.trace_vps", mining_vectors / t_s);
    report.set("mine.extract_s", mined.extract_s);
    report.set("mine.rows", mined.rows as f64);
    report.set("mine.fit_s", mined.fit_s);
    report.set("mine.tree_nodes", mined.tree_nodes as f64);
    report.set("mine.temporal_s", mined.temporal_s);
    report.set("mine.temporal_candidates", mined.temporal_candidates as f64);
    let pcts: Vec<f64> = coverage.iter().map(Coverage::pct).collect();
    report.set(
        "coverage_pct",
        pcts.iter().sum::<f64>() / pcts.len().max(1) as f64,
    );
    report.set(
        "coverage.points",
        coverage.iter().map(|c| c.points() as f64).sum(),
    );

    // Oracle: the interpreter, over the same suites.
    let mut interp_s = 0.0;
    let mut hash_input = Vec::new();
    for (d, p) in prepared.iter().enumerate() {
        match api::replay_interpreter(&p.design, &p.replay) {
            Ok((reference, _, s)) => {
                interp_s += s;
                if coverage.get(d) != Some(&reference) {
                    report.fail(format!(
                        "{}: compiled coverage differs from the interpreter's",
                        p.design.name
                    ));
                }
                hash_input.extend(reference.pct().to_le_bytes());
            }
            Err(e) => report.fail(e),
        }
        match api::replay_interpreter(&p.design, &p.mining) {
            Ok((_, reference, _)) => {
                if !traces
                    .get(d)
                    .is_some_and(|t| t.prefix_eq(&reference, TRACES_CHECKED))
                {
                    report.fail(format!(
                        "{}: compiled traces differ from the interpreter's",
                        p.design.name
                    ));
                }
            }
            Err(e) => report.fail(e),
        }
    }
    hash_input.extend(mined.rows.to_le_bytes());
    hash_input.extend(mined.tree_nodes.to_le_bytes());
    report.outcome_hash = fnv1a(&hash_input);
    report.set("sim.interp_vps", replay_vectors / interp_s);

    if ctx.traced {
        // Direct: the tape with nothing attached, narrow and wide; the
        // fastest pass over the four suites, as everywhere.
        let bare = |block: usize| {
            (0..if ctx.smoke { 1 } else { 8 })
                .map(|_| {
                    let start = Instant::now();
                    for p in &prepared {
                        api::replay_bare(&p.design, &p.replay, block);
                    }
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (w1, w8) = (bare(1), bare(8));
        report.set("sim.bare_vps", replay_vectors / w1);
        report.set("sim.wide8_over_w1", w1 / w8);
        // What attaching coverage costs, per pass over the four suites.
        report.set("coverage.observer_s", a_s - w1);

        match Tracer::install() {
            Ok(mut tracer) => {
                let (traced, n) = rounds(ctx, &prepared, &items, &mut report, Some(&mut tracer));
                report.attempted += items.len() as u64 * u64::from(n);
                report.note(format!("{n} traced rounds"));
                let mut folded = Folded::default();
                for (done, part) in traced.values() {
                    folded.merge(part);
                    if let Done::A(c) = done {
                        if !coverage.contains(c) {
                            report.fail("coverage differs with the recorder on");
                        }
                    }
                }
                let (a, t, m) = split(&traced);
                tracer.report(&mut report, &folded, wall_s, a_passes * a + t + m);
            }
            Err(e) => report.fail(e),
        }
    }
    report
}
