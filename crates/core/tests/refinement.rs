//! Effectiveness of the coverage-ranked refinement loop: directed
//! stimulus synthesized from counterexample prefixes and ranked against
//! the uncovered-point index must beat random-only stimulus — closure
//! in fewer engine iterations, or strictly more simulation coverage —
//! on the catalog designs.

use gm_designs::catalog;
use goldmine::{ClosureOutcome, Engine, EngineConfig, RefineConfig, SeedStimulus, SimBackend};

/// Toggle + FSM points covered by the final report (the two metrics the
/// uncovered index ranks against), plus the iterations used.
fn score(outcome: &ClosureOutcome) -> (usize, u32) {
    let r = outcome.iterations.last().unwrap().coverage.unwrap();
    let fsm = r.fsm.map_or(0, |f| f.covered);
    (r.toggle.covered + fsm, outcome.iteration_count())
}

fn run(name: &str, refine: RefineConfig) -> ClosureOutcome {
    let design = catalog()
        .into_iter()
        .find(|d| d.name == name)
        .expect("design in catalog");
    let m = design.module();
    let config = EngineConfig {
        window: design.window,
        // A deliberately thin seed: random-only stimulus leaves
        // coverage on the table, giving refinement room to matter.
        stimulus: SeedStimulus::Random { cycles: 4 },
        record_coverage: true,
        refine,
        ..EngineConfig::default()
    };
    Engine::new(&m, config).unwrap().run().unwrap()
}

#[test]
fn ranked_refinement_beats_random_only_stimulus() {
    let refine = RefineConfig {
        variants: 4,
        extra_cycles: 16,
        max_absorb: 2,
    };
    let mut strictly_better = 0usize;
    for name in ["b01", "b02", "b09"] {
        let base = run(name, RefineConfig::default());
        let refined = run(name, refine);
        assert!(base.converged, "{name}: random-only run must converge");
        assert!(refined.converged, "{name}: refined run must converge");
        let (base_cov, base_iters) = score(&base);
        let (ref_cov, ref_iters) = score(&refined);
        // Refinement must never cost coverage...
        assert!(
            ref_cov >= base_cov,
            "{name}: refined covered {ref_cov} < random-only {base_cov}"
        );
        // ...and must win outright on iterations or coverage.
        if ref_iters < base_iters || ref_cov > base_cov {
            strictly_better += 1;
        }
        // The win is attributable: directed segments were absorbed and
        // reported.
        let dir_segments = refined
            .suite
            .segments()
            .filter(|s| s.label.starts_with("dir-"))
            .count();
        let reported: usize = refined.iterations.iter().map(|r| r.directed_absorbed).sum();
        assert_eq!(dir_segments, reported, "{name}: dir-* bookkeeping");
    }
    assert!(
        strictly_better >= 2,
        "refinement must strictly beat random-only on at least two designs, won {strictly_better}"
    );
}

#[test]
fn refinement_disabled_is_byte_identical_to_the_old_engine() {
    // variants: 0 (the default) must not perturb anything — same
    // outcome debug render as a config that never heard of refinement.
    let design = catalog().into_iter().find(|d| d.name == "b02").unwrap();
    let m = design.module();
    let base = EngineConfig {
        window: design.window,
        stimulus: SeedStimulus::Random { cycles: 4 },
        record_coverage: true,
        ..EngineConfig::default()
    };
    let with_knob = EngineConfig {
        refine: RefineConfig {
            variants: 0,
            extra_cycles: 99,
            max_absorb: 7,
        },
        ..base.clone()
    };
    let a = format!("{:?}", Engine::new(&m, base).unwrap().run().unwrap());
    let b = format!("{:?}", Engine::new(&m, with_knob).unwrap().run().unwrap());
    assert_eq!(a, b);
}

#[test]
fn refined_outcomes_byte_identical_across_sim_backends() {
    // The refinement pass simulates and ranks through the configured
    // backend; the outcome must not depend on which one.
    let design = catalog().into_iter().find(|d| d.name == "b09").unwrap();
    let m = design.module();
    let backends = [
        SimBackend::Interpreter,
        SimBackend::CompiledBatch(1),
        SimBackend::CompiledBatch(4),
    ];
    let outcomes: Vec<String> = backends
        .into_iter()
        .map(|sim_backend| {
            let config = EngineConfig {
                window: design.window,
                stimulus: SeedStimulus::Random { cycles: 4 },
                record_coverage: true,
                refine: RefineConfig {
                    variants: 4,
                    extra_cycles: 16,
                    max_absorb: 2,
                },
                sim_backend,
                ..EngineConfig::default()
            };
            format!("{:?}", Engine::new(&m, config).unwrap().run().unwrap())
        })
        .collect();
    for (backend, outcome) in backends.iter().zip(&outcomes).skip(1) {
        assert_eq!(&outcomes[0], outcome, "{backend:?} diverged");
    }
}
