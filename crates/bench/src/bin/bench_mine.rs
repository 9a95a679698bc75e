//! CI bench smoke for the mining layer: measures (a) the trace-to-
//! dataset extraction pipeline (simulate + `Dataset::add_trace` with a
//! temporal horizon) in rows/second through both simulation engines,
//! and (b) the coverage-ranked refinement loop's iterations-to-closure
//! against the random-only engine on the catalog designs, emitting a
//! `BENCH_mine.json` record for the performance trajectory.
//!
//! The refinement section doubles as an effectiveness ratchet: the
//! ranked loop must never need *more* iterations than random-only
//! stimulus, and must be strictly faster in aggregate.
//!
//! Usage: `bench_mine [OUTPUT_PATH]` (default `BENCH_mine.json`).

use gm_mine::{Dataset, MiningSpec};
use gm_rtl::{cone_of, elaborate, Module};
use gm_sim::{collect_vectors, CompiledModule, NopObserver, RandomStimulus, Replay, TestSuite};
use goldmine::{ClosureOutcome, Engine, EngineConfig, RefineConfig, SeedStimulus};
use std::fmt::Write as _;
use std::time::Instant;

const SEGMENTS: u64 = 64;
const CYCLES: u64 = 256;
const WINDOW: u32 = 2;
const HORIZON: u32 = 2;

struct ExtractRecord {
    name: &'static str,
    backend: &'static str,
    rows: usize,
    rows_per_sec: f64,
}

/// Times one warm-up plus `reps` timed runs of `f`, which must return
/// the number of dataset rows it extracted.
fn rows_per_sec(reps: u32, mut f: impl FnMut() -> usize) -> (usize, f64) {
    let mut rows = f();
    let start = Instant::now();
    for _ in 0..reps {
        rows = f();
    }
    let per_run = start.elapsed().as_secs_f64() / f64::from(reps);
    (rows, rows as f64 / per_run)
}

/// Measures the simulate-then-extract pipeline on every output bit of
/// `module`, with the dataset recording a temporal lookahead horizon.
fn measure_extraction(name: &'static str, module: &Module) -> Vec<ExtractRecord> {
    let elab = elaborate(module).expect("catalog designs elaborate");
    let mut specs: Vec<MiningSpec> = Vec::new();
    for out in module.outputs() {
        let cone = cone_of(module, &elab, out);
        for bit in 0..module.signal(out).width() {
            specs.push(MiningSpec::for_output(module, &elab, &cone, bit, WINDOW));
        }
    }
    let mut suite = TestSuite::new();
    for seed in 0..SEGMENTS {
        suite.push(
            format!("s{seed}"),
            collect_vectors(&mut RandomStimulus::new(module, seed, CYCLES)),
        );
    }
    let compiled = CompiledModule::compile(module).expect("catalog designs compile");

    // The engine's own path: one replay of the whole suite through the
    // seam (the interpreter without a tape, one lane batch with it),
    // then every trace into every target's dataset.
    let extract = |compiled: Option<&CompiledModule>| {
        let replay = Replay {
            module,
            compiled,
            block: 1,
            cancel: None,
        };
        rows_per_sec(3, || {
            let mut datasets: Vec<Dataset> = specs
                .iter()
                .map(|_| Dataset::with_horizon(HORIZON))
                .collect();
            let traces = replay
                .traces(&suite, 0..suite.len(), &mut NopObserver)
                .expect("catalog designs elaborate")
                .expect("no cancel token");
            for trace in &traces {
                for (spec, data) in specs.iter().zip(&mut datasets) {
                    data.add_trace(spec, trace);
                }
            }
            datasets.iter().map(|d| d.len()).sum()
        })
    };
    let interp = extract(None);
    let comp = extract(Some(&compiled));
    vec![
        ExtractRecord {
            name,
            backend: "interpreter",
            rows: interp.0,
            rows_per_sec: interp.1,
        },
        ExtractRecord {
            name,
            backend: "compiled",
            rows: comp.0,
            rows_per_sec: comp.1,
        },
    ]
}

struct RefineRecord {
    name: &'static str,
    base_iters: u32,
    refined_iters: u32,
    base_covered: usize,
    refined_covered: usize,
    refined_secs: f64,
}

fn covered(outcome: &ClosureOutcome) -> usize {
    let r = outcome.iterations.last().unwrap().coverage.unwrap();
    r.toggle.covered + r.fsm.map_or(0, |f| f.covered)
}

fn run_engine(module: &Module, window: u32, refine: RefineConfig) -> (ClosureOutcome, f64) {
    let config = EngineConfig {
        window,
        stimulus: SeedStimulus::Random { cycles: 4 },
        record_coverage: true,
        refine,
        ..EngineConfig::default()
    };
    let start = Instant::now();
    let outcome = Engine::new(module, config).unwrap().run().unwrap();
    (outcome, start.elapsed().as_secs_f64())
}

fn measure_refinement(name: &'static str) -> RefineRecord {
    let design = gm_designs::by_name(name).expect("catalog design");
    let module = design.module();
    let (base, _) = run_engine(&module, design.window, RefineConfig::default());
    let refined_cfg = RefineConfig {
        variants: 4,
        extra_cycles: 16,
        max_absorb: 2,
    };
    let (refined, refined_secs) = run_engine(&module, design.window, refined_cfg);
    assert!(base.converged && refined.converged, "{name}: must converge");
    RefineRecord {
        name,
        base_iters: base.iteration_count(),
        refined_iters: refined.iteration_count(),
        base_covered: covered(&base),
        refined_covered: covered(&refined),
        refined_secs,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_mine.json".to_string());

    let extract: Vec<ExtractRecord> = [
        ("arbiter4", gm_designs::arbiter4()),
        ("b12_lite", gm_designs::b12_lite()),
    ]
    .iter()
    .flat_map(|(name, module)| measure_extraction(name, module))
    .collect();
    let refine: Vec<RefineRecord> = ["b01", "b02", "b09"]
        .into_iter()
        .map(measure_refinement)
        .collect();

    // Hand-rolled JSON: the workspace has no JSON dependency.
    let mut json = String::from("{\n  \"bench\": \"mine\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"segments\": {SEGMENTS}, \"cycles_per_segment\": {CYCLES}, \
         \"window\": {WINDOW}, \"horizon\": {HORIZON}}},"
    );
    json.push_str("  \"extraction\": [\n");
    for (i, r) in extract.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"backend\": \"{}\", \"rows\": {}, \"rows_per_sec\": {:.0}}}",
            r.name, r.backend, r.rows, r.rows_per_sec
        );
        json.push_str(if i + 1 < extract.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"refinement\": [\n");
    for (i, r) in refine.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"base_iterations\": {}, \"refined_iterations\": {}, \
             \"base_covered\": {}, \"refined_covered\": {}, \"refined_secs\": {:.3}}}",
            r.name,
            r.base_iters,
            r.refined_iters,
            r.base_covered,
            r.refined_covered,
            r.refined_secs
        );
        json.push_str(if i + 1 < refine.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_mine.json");
    print!("{json}");

    for r in &refine {
        eprintln!(
            "{}: {} -> {} iterations, {} -> {} covered",
            r.name, r.base_iters, r.refined_iters, r.base_covered, r.refined_covered
        );
    }
    // Effectiveness ratchet: ranked refinement never costs iterations
    // or coverage on any design, and wins iterations in aggregate.
    for r in &refine {
        assert!(
            r.refined_iters <= r.base_iters,
            "{}: refinement regressed to {} iterations (random-only: {})",
            r.name,
            r.refined_iters,
            r.base_iters
        );
        assert!(
            r.refined_covered >= r.base_covered,
            "{}: refinement lost coverage ({} < {})",
            r.name,
            r.refined_covered,
            r.base_covered
        );
    }
    let (base_total, refined_total): (u32, u32) = refine.iter().fold((0, 0), |(b, r), rec| {
        (b + rec.base_iters, r + rec.refined_iters)
    });
    assert!(
        refined_total < base_total,
        "refinement must win iterations in aggregate ({refined_total} vs {base_total})"
    );
}
