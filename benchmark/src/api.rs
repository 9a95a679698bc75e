//! The only file that calls into the program's crates.
//!
//! Everything the benchmark does to the program goes through the
//! functions below, and everything they return is plain data (numbers,
//! strings, opaque handles), so the rest of the benchmark cannot come
//! to depend on a program type. The entry points used are the ones the
//! roadmap's API consolidation keeps — `Engine::new(..).run()` with
//! `EngineConfig` struct-update, `ServeClient` over the socket,
//! `TestSuite`/`CompiledModule`/`CoverageSuite`, a `gm_trace` sink —
//! and they are listed in `benchmark/README.md`: that list is the
//! surface a later API-collapsing change has to keep or port.
//!
//! Nothing here adds a span, counter, switch or environment variable to
//! the program: layers are measured from outside, by timing public
//! calls, by reading the reports the program already returns, and (in
//! the traced pass) by installing a recorder sink.

use crate::fold::Span;
use crate::stats::fnv1a;
use gm_coverage::{CoverageReport, CoverageSuite};
use gm_mc::{Backend, Checker};
use gm_mine::{temporal_candidates, Dataset, DecisionTree, MiningSpec};
use gm_rtl::{cone_of, elaborate, parse_verilog, Elab, Module};
use gm_serve::json as wire_json;
use gm_serve::{
    bind_unix, serve_unix, ClosureService, ClosureSummary, Request, Response, ServeClient,
    ServeConfig, WireConfig,
};
use gm_sim::{
    collect_vectors, CompileOptions, CompiledModule, NopBatchObserver, RandomStimulus, SimBackend,
    TestSuite, Trace,
};
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, RefineConfig, ShardPolicy, TargetSelection,
    TemporalConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// Designs: parse + elaborate + tape compile (rtl, sim front ends)
// ---------------------------------------------------------------------

/// A design taken through the program's front end, with the time each
/// step took.
pub struct Design {
    pub name: String,
    pub source: String,
    /// The catalog's suggested mining window.
    pub window: u32,
    pub parse_s: f64,
    pub elaborate_s: f64,
    /// Both tapes: probed (coverage) and probe-free (trace-only).
    pub compile_s: f64,
    module: Module,
    elab: Elab,
    probed: CompiledModule,
    bare: CompiledModule,
}

impl Design {
    /// Parses, elaborates and compiles `source`.
    pub fn build(name: &str, source: &str, window: u32) -> Result<Design, String> {
        let start = Instant::now();
        let module = parse_verilog(source).map_err(|e| format!("{name}: parse: {e}"))?;
        let parse_s = secs(start);
        let start = Instant::now();
        let elab = elaborate(&module).map_err(|e| format!("{name}: elaborate: {e}"))?;
        let elaborate_s = secs(start);
        let start = Instant::now();
        let probed =
            CompiledModule::compile(&module).map_err(|e| format!("{name}: compile: {e}"))?;
        let bare = CompiledModule::compile_with(&module, CompileOptions { probes: false })
            .map_err(|e| format!("{name}: compile: {e}"))?;
        let compile_s = secs(start);
        Ok(Design {
            name: name.to_string(),
            source: source.to_string(),
            window,
            parse_s,
            elaborate_s,
            compile_s,
            module,
            elab,
            probed,
            bare,
        })
    }

    /// A bundled catalog design, at its suggested mining window.
    pub fn catalog(name: &str) -> Result<Design, String> {
        let info = gm_designs::by_name(name).ok_or(format!("`{name}` is not in the catalog"))?;
        Design::build(name, info.source, info.window)
    }
}

// ---------------------------------------------------------------------
// Closure runs (core, and through it mc, sat, mine, sim, coverage)
// ---------------------------------------------------------------------

/// The knobs a benchmark leg turns; everything else stays at
/// `EngineConfig::default()`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunConfig {
    pub seed: u64,
    /// `None` = the engine's default budget.
    pub max_iterations: Option<u32>,
    /// `Some(n)`: k-induction (`max_k` 2) on the first `n` one-bit
    /// outputs — how `tests/pipeline.rs` and Fig. 16 bound the two big
    /// blocks.
    pub kind2_outputs: Option<usize>,
    /// Temporal mining (horizon 2) with coverage-ranked refinement
    /// (4 variants).
    pub temporal: bool,
    /// `0` = one session on the engine thread; `n` = `n` fixed shards.
    pub shards: usize,
    pub record_coverage: bool,
}

impl RunConfig {
    pub fn default_with_seed(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            max_iterations: None,
            kind2_outputs: None,
            temporal: false,
            shards: 0,
            record_coverage: true,
        }
    }
}

/// `rc` over `EngineConfig::default()`, mining every output.
fn base_config(window: u32, rc: &RunConfig) -> EngineConfig {
    let default = EngineConfig::default();
    EngineConfig {
        window,
        seed: rc.seed,
        max_iterations: rc.max_iterations.unwrap_or(default.max_iterations),
        temporal: TemporalConfig {
            horizon: if rc.temporal { 2 } else { 0 },
        },
        refine: RefineConfig {
            variants: if rc.temporal { 4 } else { 0 },
            ..default.refine
        },
        shards: match rc.shards {
            0 => ShardPolicy::Off,
            n => ShardPolicy::Fixed(n),
        },
        record_coverage: rc.record_coverage,
        ..default
    }
}

fn engine_config(design: &Design, rc: &RunConfig) -> EngineConfig {
    let config = base_config(design.window, rc);
    let Some(n) = rc.kind2_outputs else {
        return config;
    };
    let module = &design.module;
    EngineConfig {
        backend: Backend::KInduction { max_k: 2 },
        targets: TargetSelection::Bits(
            module
                .outputs()
                .into_iter()
                .filter(|&s| module.signal_width(s) == 1)
                .take(n)
                .map(|s| (s, 0))
                .collect(),
        ),
        ..config
    }
}

/// What one `Engine::new(..).run()` returned, as plain numbers, plus
/// the outcome itself for the oracles.
pub struct ClosureRun {
    /// `Engine::new` + `run`, wall clock.
    pub wall_s: f64,
    pub engine_new_s: f64,
    // `IterTiming`, summed over iterations.
    pub verify_s: f64,
    pub temporal_s: f64,
    pub refine_s: f64,
    pub coverage_s: f64,
    pub iter_total_s: f64,
    pub iterations: u32,
    pub max_iterations: u32,
    pub converged: bool,
    pub interrupted: bool,
    /// Final `input_space_coverage`, in percent.
    pub input_space_pct: f64,
    /// Mean of the final coverage report's percents (`None` when the
    /// run recorded no coverage).
    pub coverage_pct: Option<f64>,
    // `SessionStats`, summed over iterations.
    pub sat_queries: u64,
    pub sat_decided: u64,
    pub explicit_queries: u64,
    pub memo_hits: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub frames_encoded: u64,
    pub frames_reused: u64,
    pub cex_canonicalized: u64,
    // `IterationReport` counters.
    pub candidates: u64,
    pub refuted: u64,
    pub proved: u64,
    pub temporal_proved: u64,
    pub directed_absorbed: u64,
    pub suite_cycles: u64,
    pub unknown_assumed: u64,
    /// FNV-1a of the outcome's `Debug` render, which excludes timing.
    pub debug_hash: u64,
    /// The outcome itself, for the oracles, until [`ClosureRun::release`].
    outcome: Option<ClosureOutcome>,
}

impl ClosureRun {
    /// Drops the retained outcome (suite, assertions, reports), keeping
    /// the numbers: what a run holds on to must not depend on how many
    /// repeats it did.
    pub fn release(&mut self) {
        self.outcome = None;
    }
}

/// Mean of a coverage report's line/branch/condition/expression/toggle
/// (/fsm) percents.
fn coverage_pct(report: &CoverageReport) -> f64 {
    let mut percents = vec![
        report.line.percent(),
        report.branch.percent(),
        report.condition.percent(),
        report.expression.percent(),
        report.toggle.percent(),
    ];
    percents.extend(report.fsm.map(|r| r.percent()));
    percents.iter().sum::<f64>() / percents.len() as f64
}

/// Every coverage point a report instruments.
fn coverage_points(report: &CoverageReport) -> u64 {
    let fsm = report.fsm.map_or(0, |r| r.total);
    (report.line.total
        + report.branch.total
        + report.condition.total
        + report.expression.total
        + report.toggle.total
        + fsm) as u64
}

/// One closure run: `Engine::new(&module, config)?.run()?`.
pub fn run_closure(design: &Design, rc: &RunConfig) -> Result<ClosureRun, String> {
    let config = engine_config(design, rc);
    let max_iterations = config.max_iterations;
    let start = Instant::now();
    let engine =
        Engine::new(&design.module, config).map_err(|e| format!("{}: {e}", design.name))?;
    let engine_new_s = secs(start);
    let outcome = engine.run().map_err(|e| format!("{}: {e}", design.name))?;
    let wall_s = secs(start);
    let timing = outcome.timing_total();
    let stats = outcome.verification_total();
    let last = outcome.iterations.last();
    let sum = |f: fn(&goldmine::IterationReport) -> usize| -> u64 {
        outcome.iterations.iter().map(|r| f(r) as u64).sum()
    };
    Ok(ClosureRun {
        wall_s,
        engine_new_s,
        verify_s: timing.verify_ns as f64 / 1e9,
        temporal_s: timing.temporal_ns as f64 / 1e9,
        refine_s: timing.refine_ns as f64 / 1e9,
        coverage_s: timing.coverage_ns as f64 / 1e9,
        iter_total_s: timing.total_ns as f64 / 1e9,
        iterations: outcome.iteration_count(),
        max_iterations,
        converged: outcome.converged,
        interrupted: outcome.interrupted,
        input_space_pct: 100.0 * outcome.final_input_space_coverage(),
        coverage_pct: outcome.final_coverage().as_ref().map(coverage_pct),
        sat_queries: stats.sat_queries,
        sat_decided: stats.sat_decided,
        explicit_queries: stats.explicit_queries,
        memo_hits: stats.memo_hits,
        conflicts: stats.solver.conflicts,
        decisions: stats.solver.decisions,
        propagations: stats.solver.propagations,
        frames_encoded: stats.frames_encoded,
        frames_reused: stats.frames_reused,
        cex_canonicalized: stats.cex_canonicalized,
        // Iteration 0 reports what mining the seed proposed; later
        // iterations report what was pending when they started.
        candidates: sum(|r| r.candidates),
        refuted: sum(|r| r.refuted + r.temporal_refuted),
        proved: last.map_or(0, |r| r.proved_total as u64),
        temporal_proved: last.map_or(0, |r| r.temporal_proved as u64),
        directed_absorbed: sum(|r| r.directed_absorbed),
        suite_cycles: outcome.suite.total_cycles() as u64,
        unknown_assumed: outcome.unknown_assumed as u64,
        debug_hash: fnv1a(format!("{outcome:?}").as_bytes()),
        outcome: Some(outcome),
    })
}

/// Oracle: the run's final suite, re-simulated on the *interpreter*
/// with a fresh `CoverageSuite`, reproduces the coverage the engine
/// reported from its compiled tape.
pub fn closure_resim_agrees(design: &Design, run: &ClosureRun) -> Result<(), String> {
    let outcome = run
        .outcome
        .as_ref()
        .ok_or("the outcome was already released")?;
    let Some(reported) = outcome.final_coverage() else {
        return Ok(());
    };
    let mut cov = CoverageSuite::new(&design.module);
    outcome
        .suite
        .run(&design.module, &mut cov)
        .map_err(|e| format!("{}: interpreter: {e}", design.name))?;
    if cov.report() == reported {
        Ok(())
    } else {
        Err(format!(
            "{}: interpreter coverage of the final suite differs from final_coverage()",
            design.name
        ))
    }
}

/// The run's `Debug` render — what a served job's `outcome_debug` must
/// equal.
pub fn closure_render(run: &ClosureRun) -> Option<String> {
    run.outcome.as_ref().map(|outcome| format!("{outcome:?}"))
}

// ---------------------------------------------------------------------
// mc, measured directly
// ---------------------------------------------------------------------

/// `Checker::new` (elaborate + bit-blast), seconds.
pub fn checker_build_s(design: &Design) -> Result<f64, String> {
    let start = Instant::now();
    let checker = Checker::new(&design.module).map_err(|e| format!("{}: {e}", design.name))?;
    let s = secs(start);
    std::hint::black_box(checker);
    Ok(s)
}

/// `Checker::reachable_count` on a fresh checker — the lazy
/// reachable-set build the explicit engine pays on its first query.
pub fn reachable_s(design: &Design) -> Result<f64, String> {
    let mut checker = Checker::new(&design.module).map_err(|e| format!("{}: {e}", design.name))?;
    let start = Instant::now();
    std::hint::black_box(checker.reachable_count());
    Ok(secs(start))
}

// ---------------------------------------------------------------------
// Suite replay and mining (sim, coverage, mine)
// ---------------------------------------------------------------------

/// A random reset-rooted test suite for one design.
pub struct Stimulus {
    suite: TestSuite,
    pub vectors: u64,
}

pub fn random_suite(design: &Design, seed: u64, segments: u64, cycles: u64) -> Stimulus {
    let mut suite = TestSuite::new();
    for k in 0..segments {
        let mut stim = RandomStimulus::new(&design.module, seed.wrapping_add(k), cycles);
        suite.push(format!("s{k}"), collect_vectors(&mut stim));
    }
    Stimulus {
        suite,
        vectors: segments * cycles,
    }
}

/// A coverage report, opaque but comparable.
#[derive(Clone, Copy, PartialEq)]
pub struct Coverage(CoverageReport);

impl Coverage {
    pub fn pct(&self) -> f64 {
        coverage_pct(&self.0)
    }

    pub fn points(&self) -> u64 {
        coverage_points(&self.0)
    }
}

/// The engine's own coverage data path: `observe_compiled` on the
/// probed tape into a fresh `CoverageSuite`, at the default backend's
/// lane block.
pub fn replay_coverage(design: &Design, stim: &Stimulus) -> Coverage {
    let mut cov = CoverageSuite::new(&design.module);
    stim.suite.observe_compiled(
        &design.module,
        &design.probed,
        &mut cov,
        SimBackend::default().lane_block(),
    );
    Coverage(cov.report())
}

/// Observe-only pass with nothing attached: probe-free tape,
/// `NopBatchObserver`, `block` words per lane block.
pub fn replay_bare(design: &Design, stim: &Stimulus, block: usize) {
    stim.suite
        .observe_compiled(&design.module, &design.bare, &mut NopBatchObserver, block);
}

/// Materialised traces, opaque but comparable.
pub struct Traces(Vec<Trace>);

impl Traces {
    /// Whether the first `n` traces of both sets are equal.
    pub fn prefix_eq(&self, other: &Traces, n: usize) -> bool {
        let n = n.min(self.0.len()).min(other.0.len());
        n > 0 && self.0[..n] == other.0[..n]
    }
}

/// The trace-materialising pass (`run_compiled`, per-lane transpose).
pub fn replay_traces(design: &Design, stim: &Stimulus) -> Traces {
    Traces(stim.suite.run_compiled(
        &design.module,
        &design.bare,
        &mut NopBatchObserver,
        SimBackend::default().lane_block(),
    ))
}

/// The reference: the whole suite on the interpreter with coverage
/// attached. Returns the report, the traces and the seconds it took.
pub fn replay_interpreter(
    design: &Design,
    stim: &Stimulus,
) -> Result<(Coverage, Traces, f64), String> {
    let mut cov = CoverageSuite::new(&design.module);
    let start = Instant::now();
    let traces = stim
        .suite
        .run(&design.module, &mut cov)
        .map_err(|e| format!("{}: interpreter: {e}", design.name))?;
    let s = secs(start);
    Ok((Coverage(cov.report()), Traces(traces), s))
}

/// The mining specs of every output bit at `window`.
pub struct Specs(Vec<MiningSpec>);

pub fn output_specs(design: &Design, window: u32) -> Specs {
    let module = &design.module;
    let mut specs = Vec::new();
    for out in module.outputs() {
        let cone = cone_of(module, &design.elab, out);
        for bit in 0..module.signal_width(out) {
            specs.push(MiningSpec::for_output(
                module,
                &design.elab,
                &cone,
                bit,
                window,
            ));
        }
    }
    Specs(specs)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct MineNumbers {
    pub rows: u64,
    pub tree_nodes: u64,
    pub temporal_candidates: u64,
    pub extract_s: f64,
    pub fit_s: f64,
    pub temporal_s: f64,
}

impl Specs {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Trace → dataset → fitted tree → temporal candidates for the
/// `index`-th output bit: `Dataset::add_suite` (horizon 2, default
/// backend), `DecisionTree::fit`, `temporal_candidates`.
pub fn mine(
    design: &Design,
    stim: &Stimulus,
    specs: &Specs,
    index: usize,
) -> Result<MineNumbers, String> {
    let spec = &specs.0[index];
    let mut data = Dataset::with_horizon(2);
    let start = Instant::now();
    data.add_suite(spec, &design.module, &stim.suite, SimBackend::default())
        .map_err(|e| format!("{}: add_suite: {e}", design.name))?;
    let extract_s = secs(start);
    let mut tree = DecisionTree::new(spec);
    let start = Instant::now();
    // A contradictory window is a property of random data at this
    // window length, not a failure: the partial tree still counts.
    let _ = tree.fit(&data);
    let fit_s = secs(start);
    let start = Instant::now();
    let temporal_candidates = temporal_candidates(&tree, spec, &data).len() as u64;
    Ok(MineNumbers {
        rows: data.len() as u64,
        tree_nodes: tree.node_count() as u64,
        temporal_candidates,
        extract_s,
        fit_s,
        temporal_s: secs(start),
    })
}

// ---------------------------------------------------------------------
// The closure service over its socket (serve, and through it cache)
// ---------------------------------------------------------------------

/// A `ClosureService` hosted in this process behind `serve_unix`.
pub struct Hosted {
    socket: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Starts a service (`workers` workers, 8 cached designs, everything
/// else default) listening on `socket`.
pub fn host_service(socket: &Path, workers: usize) -> Result<Hosted, String> {
    let listener = bind_unix(socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers,
        cache_capacity: 8,
        ..ServeConfig::default()
    }));
    let thread = std::thread::spawn(move || serve_unix(service, listener));
    Ok(Hosted {
        socket: socket.to_path_buf(),
        thread,
    })
}

impl Hosted {
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Asks the service to shut down and waits until the accept loop,
    /// every connection thread and every worker has ended.
    pub fn stop(self) -> Result<(), String> {
        let mut client = ServeClient::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let served = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let _ = std::fs::remove_file(&self.socket);
        served.map_err(|e| format!("serve_unix: {e}"))
    }
}

/// One submission, ready for the wire.
#[derive(Clone)]
pub struct Job {
    pub name: String,
    pub source: String,
    config: WireConfig,
}

/// A job for `source` under `rc`, mining every output at `window` —
/// the wire form of the `EngineConfig` a standalone run of the same
/// design would use.
pub fn job_for(name: &str, source: &str, window: u32, rc: &RunConfig) -> Result<Job, String> {
    assert!(rc.kind2_outputs.is_none(), "served jobs mine every output");
    Ok(Job {
        name: name.to_string(),
        source: source.to_string(),
        config: WireConfig::from_engine(&base_config(window, rc))
            .map_err(|e| format!("{name}: wire config: {}", e.0))?,
    })
}

pub struct JobResult {
    pub iterations: u32,
    pub outcome_debug: String,
}

/// The service's counters, as plain numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeNumbers {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub steals: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub compiled_built: u64,
    pub compiled_reused: u64,
    pub jobs_retried: u64,
    pub requests_shed: u64,
    pub queue_sum_s: f64,
    pub queue_count: u64,
    pub wall_sum_s: f64,
    pub wall_count: u64,
}

pub struct Client(ServeClient);

impl Client {
    pub fn connect(socket: &Path) -> Result<Client, String> {
        ServeClient::connect(socket)
            .map(Client)
            .map_err(|e| format!("connect {}: {e}", socket.display()))
    }

    /// Submit, then block until the job is done.
    pub fn submit_wait(&mut self, job: &Job) -> Result<JobResult, String> {
        let (id, _cached) = self
            .0
            .submit(&job.name, &job.source, &job.config)
            .map_err(|e| format!("{}: submit: {e}", job.name))?;
        let summary = self
            .0
            .wait(id)
            .map_err(|e| format!("{}: wait: {e}", job.name))?;
        Ok(JobResult {
            iterations: summary.iterations,
            outcome_debug: summary.outcome_debug,
        })
    }

    pub fn stats(&mut self) -> Result<ServeNumbers, String> {
        let s = self.0.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(ServeNumbers {
            submitted: s.submitted,
            completed: s.completed,
            failed: s.failed,
            cancelled: s.cancelled,
            steals: s.steals,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            compiled_built: s.compiled_built,
            compiled_reused: s.compiled_reused,
            jobs_retried: s.jobs_retried,
            requests_shed: s.requests_shed,
            queue_sum_s: s.queue_seconds.sum_seconds(),
            queue_count: s.queue_seconds.count(),
            wall_sum_s: s.wall_seconds.sum_seconds(),
            wall_count: s.wall_seconds.count(),
        })
    }
}

/// The wire codec alone: each job's `Submit` request and a `Done`
/// response carrying `render`, through `to_json` → text → `json::parse`
/// → `from_json`. Returns the seconds for one pass over `jobs`.
pub fn codec_round_trip_s(jobs: &[(&Job, &str)]) -> Result<f64, String> {
    let messages: Vec<(Request, Response)> = jobs
        .iter()
        .enumerate()
        .map(|(i, (job, render))| {
            (
                Request::Submit {
                    name: job.name.clone(),
                    source: job.source.clone(),
                    config: job.config.clone(),
                    trace: false,
                    deadline_ms: None,
                },
                Response::Done {
                    job: i as u64,
                    summary: ClosureSummary {
                        converged: true,
                        iterations: 1,
                        assertions: Vec::new(),
                        suite_cycles: 64,
                        unknown_assumed: 0,
                        outcome_debug: (*render).to_string(),
                    },
                },
            )
        })
        .collect();
    let start = Instant::now();
    for (request, response) in &messages {
        let text = request.to_json().to_string();
        let parsed = wire_json::parse(&text).map_err(|e| format!("codec: {e:?}"))?;
        let back = Request::from_json(&parsed).map_err(|e| format!("codec: {}", e.0))?;
        let text = response.to_json().to_string();
        let parsed = wire_json::parse(&text).map_err(|e| format!("codec: {e:?}"))?;
        let done = Response::from_json(&parsed).map_err(|e| format!("codec: {}", e.0))?;
        if back != *request || done != *response {
            return Err("codec: a message did not round-trip".to_string());
        }
    }
    Ok(secs(start))
}

// ---------------------------------------------------------------------
// The recorder (trace) and the fault injector (fault)
// ---------------------------------------------------------------------

/// The recorder's ring, sized so one pass never wraps; `drain` empties
/// it between passes.
const SINK_CAPACITY: usize = 1 << 22;

pub struct Recorder(gm_trace::TraceSink);

/// Installs a process-global recorder sink. From here on every span
/// site in the process records — worker threads of a hosted service
/// included — so this is called once, after every untraced measurement.
pub fn install_recorder() -> Result<Recorder, String> {
    let sink = gm_trace::TraceSink::with_capacity(SINK_CAPACITY);
    if gm_trace::install_global(sink.clone()) {
        Ok(Recorder(sink))
    } else {
        Err("a global trace sink is already installed".to_string())
    }
}

impl Recorder {
    /// Takes every complete span recorded so far and the number the
    /// ring dropped, and empties the ring.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        gm_trace::flush_thread();
        let spans = self
            .0
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                gm_trace::EventKind::Complete { dur_ns } => Some(Span {
                    name: e.name,
                    tid: e.tid,
                    ts_ns: e.ts_ns,
                    dur_ns,
                }),
                gm_trace::EventKind::Instant => None,
            })
            .collect();
        let dropped = self.0.dropped();
        self.0.clear();
        (spans, dropped)
    }
}

/// Whether any fault plan is armed in this process. The benchmark
/// measures the fault-free program; an armed injector voids the run.
pub fn faults_armed() -> bool {
    gm_fault::enabled()
}
