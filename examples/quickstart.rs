//! Quickstart: mine proved assertions and coverage-closing stimulus for
//! a small design in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use goldmine::{Engine, EngineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Any synthesizable-subset Verilog works; see gm-designs for more.
    let module = gm_rtl::parse_verilog(
        "module majority(input a, input b, input c, output y);
           assign y = (a & b) | (b & c) | (a & c);
         endmodule",
    )?;

    let config = EngineConfig {
        window: 0, // combinational design: single-cycle window
        ..EngineConfig::default()
    };
    let outcome = Engine::new(&module, config)?.run()?;

    let verif = outcome.verification_total();
    println!("design      : {}", module.name());
    println!("converged   : {}", outcome.converged);
    println!("iterations  : {}", outcome.iteration_count());
    println!("suite cycles: {}", outcome.suite.total_cycles());
    println!(
        "verification: {} queries ({} explicit, {} SAT)",
        verif.engine_queries(),
        verif.explicit_queries,
        verif.sat_decided
    );
    println!();
    println!("proved assertions (LTL):");
    for a in &outcome.assertions {
        println!("  {}", a.to_ltl(&module));
    }
    println!();
    println!("proved assertions (SVA):");
    for a in &outcome.assertions {
        println!("  {}", a.to_sva(&module));
    }
    if let Some(cov) = outcome.final_coverage() {
        println!();
        println!("final stimulus coverage: {cov}");
    }
    Ok(())
}
