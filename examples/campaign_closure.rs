//! Close coverage on the whole benchmark catalog concurrently: an
//! in-process [`gm_serve::ClosureService`] runs one closure engine per
//! design on a per-core worker pool, while each engine shards its own
//! verification worklist ([`goldmine::ShardPolicy::PerCore`]) — the two
//! levels of parallelism this reproduction layers on the paper's
//! Figure 3 loop.
//!
//! Run with: `cargo run --release --example campaign_closure`

use gm_mc::{Backend, SessionStats};
use gm_rtl::SignalId;
use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
use goldmine::{EngineConfig, SeedStimulus, ShardPolicy, TargetSelection, UnknownPolicy};

fn one_bit_targets(m: &gm_rtl::Module) -> Vec<(SignalId, u32)> {
    m.outputs()
        .into_iter()
        .filter(|&s| m.signal_width(s) == 1)
        .map(|s| (s, 0))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = ClosureService::new(ServeConfig::default());
    let workers = std::thread::available_parallelism().map(|n| n.get())?;
    let catalog = gm_designs::catalog();
    println!(
        "closing {} designs on {workers} workers, per-core shard sessions\n",
        catalog.len()
    );
    let t0 = std::time::Instant::now();
    let mut jobs = Vec::new();
    for d in &catalog {
        let module = d.module();
        // Bound the two big lite blocks like the integration suite does.
        let (backend, max_iterations, targets) = match d.name {
            "b17_lite" | "b18_lite" => (
                Backend::KInduction { max_k: 1 },
                2,
                vec![one_bit_targets(&module)[0]],
            ),
            _ => (Backend::Auto, 32, one_bit_targets(&module)),
        };
        let config = EngineConfig {
            window: d.window,
            stimulus: SeedStimulus::Random { cycles: 48 },
            targets: TargetSelection::Bits(targets),
            backend,
            max_iterations,
            unknown: UnknownPolicy::AssumeTrue,
            shards: ShardPolicy::PerCore,
            record_coverage: false,
            ..EngineConfig::default()
        };
        let (id, _) = service.submit_module(d.name, module, config, SubmitOptions::default())?;
        jobs.push((d.name, id));
    }
    let (mut converged, mut assertions) = (0, 0);
    let mut verification = SessionStats::default();
    for (name, id) in jobs {
        service.wait(id);
        match service.take_outcome(id).expect("a finished job") {
            Ok(o) => {
                println!(
                    "{name:<14} converged={:<5} iterations={:<3} proved={:<4} coverage={:.1}% cycles={}",
                    o.converged,
                    o.iteration_count(),
                    o.assertions.len(),
                    100.0 * o.final_input_space_coverage(),
                    o.suite.total_cycles(),
                );
                converged += usize::from(o.converged);
                assertions += o.assertions.len();
                verification += o.verification_total();
            }
            Err(e) => println!("{name:<14} error: {e}"),
        }
    }
    service.shutdown();
    println!(
        "total: {converged}/{} converged, {assertions} assertions, {} queries ({} explicit, {} SAT)",
        catalog.len(),
        verification.engine_queries(),
        verification.explicit_queries,
        verification.sat_decided,
    );
    println!("wall time: {:.2?}", t0.elapsed());
    Ok(())
}
