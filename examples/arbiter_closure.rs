//! The paper's §6 walkthrough: counterexample-guided refinement on the
//! two-port arbiter, starting from a small directed test.
//!
//! Prints the per-iteration progress table (the shape of the paper's
//! Figure 12) and the final proved assertion set — compare with the
//! paper's A2/A3/A6–A9/A11/A12.
//!
//! Run with: `cargo run --example arbiter_closure`

use gm_sim::DirectedStimulus;
use goldmine::{Engine, EngineConfig, SeedStimulus, TargetSelection};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = gm_designs::arbiter2();
    let gnt0 = module.require("gnt0")?;

    // A directed test a validation engineer might write (paper Fig. 7).
    let directed = DirectedStimulus::from_named(
        &module,
        &[
            &[("req0", 0), ("req1", 0)],
            &[("req0", 1), ("req1", 0)],
            &[("req0", 1), ("req1", 1)],
            &[("req0", 0), ("req1", 1)],
            &[("req0", 1), ("req1", 1)],
        ],
    )?;

    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Directed(directed.vectors().to_vec()),
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&module, config)?.run()?;

    println!("== counterexample iterations (paper Fig. 12 shape) ==");
    println!(
        "{:<10} {:>11} {:>8} {:>8} {:>14} {:>12} {:>8}",
        "iteration", "candidates", "proved", "refuted", "input-space %", "expr cov %", "queries"
    );
    for r in &outcome.iterations {
        let expr = r
            .coverage
            .map(|c| format!("{:.1}", c.expression.percent()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:>11} {:>8} {:>8} {:>14.2} {:>12} {:>8}",
            r.iteration,
            r.candidates,
            r.proved_total,
            r.refuted,
            100.0 * r.input_space_coverage,
            expr,
            r.verification.engine_queries()
        );
    }
    let verif = outcome.verification_total();
    println!();
    println!(
        "session totals: {} queries ({} explicit, {} SAT / {} solver calls), \
         {} unrollers, {} frames encoded / {} reused, {} conflicts",
        verif.engine_queries(),
        verif.explicit_queries,
        verif.sat_decided,
        verif.sat_queries,
        verif.unrollers_built,
        verif.frames_encoded,
        verif.frames_reused,
        verif.solver.conflicts
    );

    println!();
    println!("== final decision tree ==");
    for t in &outcome.targets {
        println!(
            "target {}[{}]: converged={} nodes={} proved={} state-extended={}",
            module.signal(t.signal).name(),
            t.bit,
            t.converged,
            t.tree_nodes,
            t.proved,
            t.extended
        );
    }

    println!();
    println!("== proved assertions ==");
    for a in &outcome.assertions {
        println!("  {}", a.to_ltl(&module));
    }

    println!();
    println!("== accumulated validation stimulus ==");
    // Decoded from the suite's lane-packed store as the iterator reaches it.
    for seg in outcome.suite.segments() {
        println!("  segment {:<10} {} cycles", seg.label, seg.vectors.len());
    }
    println!(
        "coverage closure: {} (input space {:.1}%)",
        outcome.converged,
        100.0 * outcome.final_input_space_coverage()
    );
    Ok(())
}
