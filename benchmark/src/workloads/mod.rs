//! The five workloads, and how all of them measure.
//!
//! Each workload is a fixed, repeatable unit of work — a *round* — made
//! of items (a closure run, a replay pass, a chunk of served jobs). A
//! run sets up several times, then repeats the round for `--seconds`,
//! checks every output, and reports every timing — set-up included — at
//! the **fastest of its repeats**; `wall_s` is the sum over the round's
//! items: the round's time with the box's interference taken out.
//!
//! Why the fastest and not the mean or median: the 2-core reference box
//! is a shared VM whose host steals 20–25% of the CPU for a minute or
//! so every few minutes. Over ten 15-second windows of one fixed
//! CPU-bound kernel the window means differ by 12% (quartile distance
//! over median) and the window medians by 11% — wider than the
//! regression bound — while the window minima differ by 1.2%; inside a
//! steal episode the median 10 ms sample is 60% slow and the fastest 8%.
//! Interference only ever adds time, so the fastest repeat of a
//! deterministic item is the estimate that converges on what the code
//! costs. For the same reason items are kept to a few hundred
//! milliseconds at most: a 13 s closure run cannot be repeated inside a
//! run, so it cannot be told apart from the box's mood (see
//! `benchmark/README.md`, "Sizing").
//!
//! With `--trace 1` the time is split: untraced rounds first (the
//! end-to-end numbers and every counter the program reports), then the
//! layers measured directly, then the same rounds under the recorder.

mod closure;
mod replay;
mod serve;

use crate::api;
use crate::fold::{fold, Folded};
use crate::metrics::Report;
use crate::stats::median;
use std::time::Instant;

/// `BENCHMARK.json`'s `run_seconds`: the run length the rounds are
/// sized for (a handful of rounds each).
pub const RUN_SECONDS: u64 = 20;

/// Every item is measured at least this often.
const MIN_ROUNDS: u32 = 3;

/// Set-up is repeated at least this often, and then until
/// [`SETUP_SECONDS`] are spent or [`MAX_SETUPS`] are done; `setup_s`
/// is the fastest.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// Follow the untraced rounds with the layer probes and the
    /// recorder rounds.
    pub traced: bool,
    /// `gmbench check`: one round of everything at a reduced size, all
    /// oracles on.
    pub smoke: bool,
}

/// One measuring phase: repeats rounds until its share of `--seconds`
/// is used, and at least [`MIN_ROUNDS`] times.
struct Phase {
    start: Instant,
    seconds: f64,
    min_rounds: u32,
    rounds: u32,
}

impl Phase {
    fn start(ctx: &Ctx) -> Phase {
        Phase {
            start: Instant::now(),
            // A traced run splits its time between the two phases.
            seconds: if ctx.traced {
                ctx.seconds / 2.0
            } else {
                ctx.seconds
            },
            min_rounds: if ctx.smoke { 1 } else { MIN_ROUNDS },
            rounds: 0,
        }
    }

    /// Call after each round: whether to run another.
    fn another(&mut self, ctx: &Ctx) -> bool {
        self.rounds += 1;
        self.rounds < self.min_rounds
            || (!ctx.smoke && self.start.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    let mut report = match name {
        "closure_explicit" | "closure_sat" | "closure_temporal" => closure::run(name, ctx),
        "suite_replay" => replay::run(ctx),
        "serve_mix" => serve::run(ctx),
        _ => return None,
    };
    // The benchmark measures the fault-free program.
    let armed = api::faults_armed();
    report.set("fault.armed", if armed { 1.0 } else { 0.0 });
    if armed {
        report.fail("a fault plan is armed in the benchmark process");
    }
    let failed_share = report.failed() as f64 / report.attempted.max(1) as f64;
    report.set("failed_share", failed_share);
    Some(report)
}

/// Runs `build` repeatedly, keeps the last result, and records the
/// fastest time as `setup_s`.
fn fastest_setup<T>(
    report: &mut Report,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let begun = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && begun.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Drop the previous set-up first, so peak memory is one set-up.
        drop(last.take());
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    report.set(
        "setup_s",
        times.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.note(format!(
        "setup_s is the fastest of {} set-ups (median {:.6} s)",
        times.len(),
        median(&times)
    ));
    Ok(last.expect("MIN_SETUPS > 0"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Keeps, per item, the fastest repeat seen so far.
struct Fastest<T> {
    best: Vec<Option<(f64, T)>>,
}

impl<T> Fastest<T> {
    fn new(items: usize) -> Self {
        Fastest {
            best: (0..items).map(|_| None).collect(),
        }
    }

    /// Offers one repeat of `item` that took `seconds`; `value` is only
    /// built when it is the fastest so far.
    fn offer(&mut self, item: usize, seconds: f64, value: impl FnOnce() -> T) {
        if self.best[item]
            .as_ref()
            .is_none_or(|(best, _)| seconds < *best)
        {
            self.best[item] = Some((seconds, value()));
        }
    }

    fn seconds(&self, item: usize) -> f64 {
        self.best[item].as_ref().map_or(0.0, |(s, _)| *s)
    }

    fn total_seconds(&self) -> f64 {
        self.best.iter().flatten().map(|(s, _)| s).sum()
    }

    fn values(&self) -> impl Iterator<Item = &T> {
        self.best.iter().flatten().map(|(_, v)| v)
    }
}

/// The recorder, drained after every item so the ring never wraps.
struct Tracer {
    recorder: api::Recorder,
    dropped: u64,
}

impl Tracer {
    fn install() -> Result<Tracer, String> {
        Ok(Tracer {
            recorder: api::install_recorder()?,
            dropped: 0,
        })
    }

    /// Folds what was recorded since the last call. Call at a point
    /// where no span is open on any thread.
    fn take(&mut self) -> Folded {
        let (spans, dropped) = self.recorder.drain();
        self.dropped += dropped;
        fold(&spans, "engine.run")
    }

    /// Writes every span-sourced metric from `folded` (the fastest
    /// traced repeat of every item, merged) and the recorder's own.
    fn report(&self, report: &mut Report, folded: &Folded, untraced_s: f64, traced_s: f64) {
        let f = folded;
        let s = |ns: u64| ns as f64 / 1e9;
        report.set("sim.batch_s", s(f.of("sim.batch").total_ns));
        report.set("sim.batch_n", f.of("sim.batch").count as f64);
        report.set("sim.segment_s", s(f.of("sim.segment").total_ns));
        report.set("sim.segment_n", f.of("sim.segment").count as f64);
        let query_s = s(f.of("mc.sat_query").total_ns);
        report.set("sat.query_s", query_s);
        if query_s > 0.0 {
            report.set("sat.props_per_s", report.get("sat.propagations") / query_s);
        }
        report.set("mc.check_batch_s", s(f.of("mc.check_batch").total_ns));
        report.set("mc.check_batch_self_s", s(f.of("mc.check_batch").self_ns));
        report.set(
            "mc.check_temporal_batch_s",
            s(f.of("mc.check_temporal_batch").total_ns),
        );
        report.set(
            "mc.check_temporal_batch_self_s",
            s(f.of("mc.check_temporal_batch").self_ns),
        );
        report.set("mc.bmc_window_self_s", s(f.of("mc.bmc_window").self_ns));
        report.set("mc.bmc_window_n", f.of("mc.bmc_window").count as f64);
        report.set("mc.kind_depth_self_s", s(f.of("mc.kind_depth").self_ns));
        report.set("mc.kind_depth_n", f.of("mc.kind_depth").count as f64);
        report.set("core.verify_self_s", s(f.of("engine.verify").self_ns));
        report.set("serve.job_self_s", s(f.of("serve.job").self_ns));
        report.set(
            "serve.build_checker_s",
            s(f.of("serve.build_checker").total_ns),
        );
        report.set(
            "serve.compile_tape_s",
            s(f.of("serve.compile_tape").total_ns),
        );
        // How much of `engine.run` the recorder can pin on a span that
        // names real work — a SAT query, an unrolling step, a
        // simulation pass — rather than on one that merely contains.
        let attributed: u64 = [
            "mc.sat_query",
            "mc.bmc_window",
            "mc.kind_depth",
            "sim.batch",
            "sim.segment",
        ]
        .iter()
        .map(|name| f.of(name).self_ns)
        .sum();
        if f.scope_total_ns > 0 {
            report.set(
                "core.attributed_share",
                attributed as f64 / f.scope_total_ns as f64,
            );
            report.note(format!(
                "engine.run spans total {:.6} s; self times inside them sum to {:.6} s (fold residual {:+.9} s)",
                s(f.scope_total_ns),
                s(f.scope_self_ns),
                s(f.scope_total_ns) - s(f.scope_self_ns),
            ));
        }
        report.set("trace.events", f.spans as f64);
        report.set("trace.dropped", self.dropped as f64);
        if self.dropped > 0 {
            report.fail(format!("the recorder dropped {} events", self.dropped));
        }
        if untraced_s > 0.0 {
            report.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
        }
    }
}
