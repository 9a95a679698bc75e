//! The three closure workloads: one engine loop, three ways of leaning
//! on the model checker.
//!
//! A workload is a list of legs (design × config × repeats on distinct
//! engine seeds); a round runs every item of the list once, in an order
//! shuffled from `--seed`.
//!
//! The engine seeds are a fixed palette, not drawn from `--seed`:
//! closure work is chaotic in the engine seed (measured here: b12_lite
//! default closure 85–128 ms over ten seeds, decode_stage 10–105 ms,
//! b17_lite's bounded run 8× apart), so drawing them per run would make
//! the *input* move `wall_s` by more than the regression bound the
//! benchmark is supposed to resolve. Eight palette seeds per small
//! design average over that instead, and every run does identical work.

use super::{fastest_setup, peak_rss_mb, Ctx, Fastest, Phase, Tracer};
use crate::api::{self, ClosureRun, Design, RunConfig};
use crate::fold::Folded;
use crate::metrics::Report;
use crate::stats::{fnv1a, Rng};

/// Root of the engine-seed palette.
const PALETTE: u64 = 0xC0FFEE;

#[derive(Clone, Copy)]
struct Leg {
    design: &'static str,
    /// Items per round, each on its own palette seed.
    seeds: u32,
    max_iterations: Option<u32>,
    kind2_outputs: Option<usize>,
    temporal: bool,
    /// A tighter iteration cap for `gmbench check`.
    smoke_cap: Option<u32>,
}

const fn leg(design: &'static str, seeds: u32, temporal: bool) -> Leg {
    Leg {
        design,
        seeds,
        max_iterations: None,
        kind2_outputs: None,
        temporal,
        smoke_cap: None,
    }
}

/// Default config on the explicit-state designs: the paper's loop where
/// the explicit engine and its lazy reachable-set build decide
/// everything and SAT does nothing. (fetch_stage is the natural heavy
/// member, and is left out: one closure is ~13.3 s here, ~11 s of it
/// building the reachable set — see the module docs of `workloads`.)
const EXPLICIT: [Leg; 7] = [
    leg("arbiter4", 8, false),
    leg("b12_lite", 8, false),
    leg("b01", 8, false),
    leg("b02", 8, false),
    leg("b09", 8, false),
    leg("arbiter2", 8, false),
    leg("cex_small", 8, false),
];

/// Latch-free designs (one-window BMC under `Backend::Auto`) and the
/// two big blocks under k-induction on their first one-bit outputs, the
/// way `tests/pipeline.rs` and Fig. 16 bound them. Full closure of
/// b17/b18 does not finish in ten minutes, and even the Fig. 16 bound
/// (7 and 9 iterations: ~7.5 s and ~3.9 s) is too long to repeat, so
/// the iteration cap is tighter still and `input_space_pct` says how
/// far a run got.
const SAT: [Leg; 4] = [
    leg("decode_stage", 6, false),
    leg("wb_stage", 6, false),
    Leg {
        design: "b18_lite",
        seeds: 3,
        max_iterations: Some(4),
        kind2_outputs: Some(2),
        temporal: false,
        smoke_cap: Some(3),
    },
    Leg {
        design: "b17_lite",
        seeds: 3,
        max_iterations: Some(5),
        kind2_outputs: Some(4),
        temporal: false,
        smoke_cap: Some(4),
    },
];

/// Temporal mining + coverage-ranked refinement: `check_temporal_batch`
/// BMC-window scanning instead of k-induction. b12_lite's full temporal
/// closure is ~11 s (17 516 SAT queries); its first iteration is
/// ~0.2 s and already ~500 of them, through the same path.
const TEMPORAL: [Leg; 5] = [
    Leg {
        design: "b12_lite",
        seeds: 6,
        max_iterations: Some(1),
        kind2_outputs: None,
        temporal: true,
        smoke_cap: None,
    },
    leg("arbiter4", 4, true),
    leg("b01", 4, true),
    leg("b02", 4, true),
    leg("b09", 4, true),
];

/// One closure run of the round: which leg's design, under which config.
struct Item {
    leg: usize,
    config: RunConfig,
}

fn work_list(legs: &[Leg], ctx: &Ctx) -> Vec<Item> {
    let palette = Rng::new(PALETTE);
    let mut items = Vec::new();
    for (i, leg) in legs.iter().enumerate() {
        let mut rng = palette.fork(leg.design);
        for _ in 0..if ctx.smoke { 1 } else { leg.seeds } {
            items.push(Item {
                leg: i,
                config: RunConfig {
                    max_iterations: if ctx.smoke {
                        leg.smoke_cap.or(leg.max_iterations)
                    } else {
                        leg.max_iterations
                    },
                    kind2_outputs: leg.kind2_outputs,
                    temporal: leg.temporal,
                    ..RunConfig::default_with_seed(rng.next_u64())
                },
            });
        }
    }
    items
}

/// Fisher–Yates from `rng`: the order is an input too.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// One phase of rounds. Keeps each item's fastest run (and, under the
/// recorder, that run's folded spans) and checks that every repeat of
/// an item renders identically.
fn rounds(
    ctx: &Ctx,
    designs: &[Design],
    items: &[Item],
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> (Fastest<(ClosureRun, Folded)>, u32) {
    let mut fastest = Fastest::new(items.len());
    let mut first_hash: Vec<Option<u64>> = vec![None; items.len()];
    let mut order_rng = Rng::new(ctx.seed).fork("order");
    let mut phase = Phase::start(ctx);
    loop {
        for i in shuffled(items.len(), &mut order_rng) {
            let item = &items[i];
            let design = &designs[item.leg];
            let mut run = match api::run_closure(design, &item.config) {
                Ok(run) => run,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            let folded = tracer.as_mut().map(|t| t.take()).unwrap_or_default();
            match first_hash[i] {
                // The render excludes timing: a repeat must be identical.
                Some(hash) if hash != run.debug_hash => report.fail(format!(
                    "{}: the same config rendered differently on a repeat",
                    design.name
                )),
                Some(_) => {}
                None => {
                    first_hash[i] = Some(run.debug_hash);
                    check_output(report, design, item, &run);
                }
            }
            run.release();
            let seconds = run.wall_s;
            fastest.offer(i, seconds, || (run, folded));
        }
        if !phase.another(ctx) {
            return (fastest, phase.rounds);
        }
    }
}

/// The per-run oracles (outside every timed interval).
fn check_output(report: &mut Report, design: &Design, item: &Item, run: &ClosureRun) {
    // A capped run must respect its cap; an uncapped one must end by
    // closing or by running out of progress, never by the default
    // budget; nothing interrupts a benchmark run.
    let ended_well = match item.config.max_iterations {
        Some(cap) => run.iterations <= cap,
        None => run.converged || run.iterations < run.max_iterations,
    };
    if !ended_well || run.interrupted {
        report.fail(format!(
            "{}: ended converged={} after {} iterations (interrupted={})",
            design.name, run.converged, run.iterations, run.interrupted
        ));
    } else if let Err(e) = api::closure_resim_agrees(design, run) {
        report.fail(e);
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Report {
    let legs: &[Leg] = match name {
        "closure_explicit" => &EXPLICIT,
        "closure_sat" => &SAT,
        _ => &TEMPORAL,
    };
    let mut report = Report::default();
    let items = work_list(legs, ctx);

    // Set-up: every leg's design through parse, elaborate and tape
    // compile. (The engine repeats that work inside `Engine::new`; that
    // copy is part of `wall_s`.)
    let built = fastest_setup(&mut report, || {
        legs.iter()
            .map(|leg| Design::catalog(leg.design))
            .collect::<Result<Vec<_>, _>>()
    });
    let designs = match built {
        Ok(designs) => designs,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    report.set("rtl.parse_s", designs.iter().map(|d| d.parse_s).sum());
    report.set(
        "rtl.elaborate_s",
        designs.iter().map(|d| d.elaborate_s).sum(),
    );
    report.set("sim.compile_s", designs.iter().map(|d| d.compile_s).sum());

    // Untraced rounds: the end-to-end numbers and every reported counter.
    let (fastest, n) = rounds(ctx, &designs, &items, &mut report, None);
    report.attempted = items.len() as u64 * u64::from(n);
    report.note(format!(
        "{} items per round, {n} untraced rounds",
        items.len()
    ));
    report.set("wall_s", fastest.total_seconds());
    report.set("peak_rss_mb", peak_rss_mb());
    summarize(&mut report, &fastest);
    let shares: Vec<String> = legs
        .iter()
        .enumerate()
        .map(|(l, leg)| {
            let seconds: f64 = (0..items.len())
                .filter(|&i| items[i].leg == l)
                .map(|i| fastest.seconds(i))
                .sum();
            format!("{} {seconds:.3} s", leg.design)
        })
        .collect();
    report.note(format!("wall_s by leg: {}", shares.join(", ")));

    if ctx.traced {
        layer_probes(name, ctx, &mut report, legs, &designs);
        match Tracer::install() {
            Ok(mut tracer) => {
                let (traced, n) = rounds(ctx, &designs, &items, &mut report, Some(&mut tracer));
                report.attempted += items.len() as u64 * u64::from(n);
                report.note(format!("{n} traced rounds"));
                // The recorder must be inert: same outcomes, traced or not.
                for ((a, _), (b, _)) in fastest.values().zip(traced.values()) {
                    if a.debug_hash != b.debug_hash {
                        report.fail("an outcome differs with the recorder on");
                    }
                }
                let mut folded = Folded::default();
                for (_, part) in traced.values() {
                    folded.merge(part);
                }
                tracer.report(
                    &mut report,
                    &folded,
                    fastest.total_seconds(),
                    traced.total_seconds(),
                );
            }
            Err(e) => report.fail(e),
        }
    }
    report
}

/// Sums the fastest runs' public reports into the workload's metrics.
fn summarize(report: &mut Report, fastest: &Fastest<(ClosureRun, Folded)>) {
    let runs: Vec<&ClosureRun> = fastest.values().map(|(run, _)| run).collect();
    let sum = |f: &dyn Fn(&ClosureRun) -> f64| -> f64 { runs.iter().map(|r| f(r)).sum() };
    let mean = |f: &dyn Fn(&ClosureRun) -> f64| -> f64 { sum(f) / runs.len().max(1) as f64 };
    report.set("iterations", sum(&|r| f64::from(r.iterations)));
    report.set("coverage_pct", mean(&|r| r.coverage_pct.unwrap_or(0.0)));
    report.set("input_space_pct", mean(&|r| r.input_space_pct));

    let verify = sum(&|r| r.verify_s);
    let temporal = sum(&|r| r.temporal_s);
    let refine = sum(&|r| r.refine_s);
    let coverage = sum(&|r| r.coverage_s);
    let iter_total = sum(&|r| r.iter_total_s);
    report.set("core.verify_s", verify);
    report.set("core.temporal_s", temporal);
    report.set("core.refine_s", refine);
    report.set("core.coverage_s", coverage);
    // What the iterations spent outside the four phases: reported, not
    // hidden, so the phases plus this equal the summed iteration totals.
    report.set(
        "core.iter_residual_s",
        iter_total - (verify + temporal + refine + coverage),
    );
    report.set("core.engine_new_s", sum(&|r| r.engine_new_s));
    let wall = sum(&|r| r.wall_s);
    if wall > 0.0 {
        report.note(format!(
            "iteration totals {iter_total:.6} s are {:.2}% of wall_s {wall:.6} s \
             (the rest is Engine::new and assembling the outcome)",
            100.0 * iter_total / wall
        ));
    }

    let sat_queries = sum(&|r| r.sat_queries as f64);
    report.set("sat.queries", sat_queries);
    report.set("sat.conflicts", sum(&|r| r.conflicts as f64));
    report.set("sat.decisions", sum(&|r| r.decisions as f64));
    report.set("sat.propagations", sum(&|r| r.propagations as f64));
    let sat_decided = sum(&|r| r.sat_decided as f64);
    report.set("mc.explicit_queries", sum(&|r| r.explicit_queries as f64));
    report.set("mc.sat_decided", sat_decided);
    report.set("mc.memo_hits", sum(&|r| r.memo_hits as f64));
    let encoded = sum(&|r| r.frames_encoded as f64);
    let reused = sum(&|r| r.frames_reused as f64);
    report.set("mc.frames_encoded", encoded);
    report.set("mc.frames_reused", reused);
    if encoded + reused > 0.0 {
        report.set("mc.frame_reuse_ratio", reused / (encoded + reused));
    }
    report.set("mc.cex_canonicalized", sum(&|r| r.cex_canonicalized as f64));
    if sat_decided > 0.0 {
        report.set("mc.queries_per_decision", sat_queries / sat_decided);
    }

    let proved = sum(&|r| r.proved as f64);
    let refuted = sum(&|r| r.refuted as f64);
    report.set("core.candidates", sum(&|r| r.candidates as f64));
    report.set("core.refuted", refuted);
    report.set("core.proved", proved);
    if proved + refuted > 0.0 {
        report.set("core.proved_ratio", proved / (proved + refuted));
    }
    report.set("core.temporal_proved", sum(&|r| r.temporal_proved as f64));
    report.set(
        "core.directed_absorbed",
        sum(&|r| r.directed_absorbed as f64),
    );
    report.set("core.suite_cycles", sum(&|r| r.suite_cycles as f64));
    report.set("core.unknown_assumed", sum(&|r| r.unknown_assumed as f64));

    let bytes: Vec<u8> = runs
        .iter()
        .flat_map(|r| r.debug_hash.to_le_bytes())
        .collect();
    report.outcome_hash = fnv1a(&bytes);
}

/// Layers measured directly, in the traced run only (they cost time the
/// untraced run should not spend).
fn layer_probes(name: &str, ctx: &Ctx, report: &mut Report, legs: &[Leg], designs: &[Design]) {
    for (leg, design) in legs.iter().zip(designs) {
        match api::checker_build_s(design) {
            Ok(s) => report.add("mc.checker_build_s", s),
            Err(e) => report.fail(e),
        }
        // The lazy reachable-set build, where the explicit engine runs.
        if leg.kind2_outputs.is_none() {
            match api::reachable_s(design) {
                Ok(s) => report.add("mc.reachable_s", s),
                Err(e) => report.fail(e),
            }
        }
    }
    if name == "closure_sat" {
        // One session vs two shards, on the b18_lite leg.
        let Some((leg, b18)) = legs
            .iter()
            .zip(designs)
            .find(|(l, _)| l.design == "b18_lite")
        else {
            return;
        };
        let config = |shards| RunConfig {
            max_iterations: if ctx.smoke {
                leg.smoke_cap
            } else {
                leg.max_iterations
            },
            kind2_outputs: leg.kind2_outputs,
            shards,
            ..RunConfig::default_with_seed(PALETTE)
        };
        match (
            api::run_closure(b18, &config(0)),
            api::run_closure(b18, &config(2)),
        ) {
            (Ok(one), Ok(two)) => {
                // Sharding moves work counters between sessions (they
                // are in the render), never the artifacts.
                let artifacts =
                    |r: &ClosureRun| (r.iterations, r.converged, r.proved, r.suite_cycles);
                if artifacts(&one) != artifacts(&two) {
                    report.fail("b18_lite: sharding changed the outcome");
                }
                report.set("core.shard2_speedup", one.wall_s / two.wall_s);
            }
            (Err(e), _) | (_, Err(e)) => report.fail(e),
        }
    }
}
