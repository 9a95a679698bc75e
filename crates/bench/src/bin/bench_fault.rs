//! CI bench smoke for fault injection: proves the fault points compiled
//! into the verification hot path are free when disarmed and near-free
//! even when a plan is armed but idle.
//!
//! The kernel is a cancellable batched BMC run on `arbiter2` — the same
//! decision dispatch the closure service drives — so every rep crosses
//! the `sat.stall` / `sat.flaky` poll sites once per property decision
//! and once per window start. Two variants run interleaved,
//! min-of-reps:
//!
//! * **fault-free** — no plan armed: the production default, where each
//!   poll site costs one relaxed atomic load;
//! * **armed idle** — a zero-rate plan declaring both SAT points is
//!   armed for the rep: every poll takes the full slow path (registry
//!   lookup, evaluation counting) but never fires, so the work is
//!   byte-identical to the fault-free run.
//!
//! The binary asserts the enforced bound: armed-but-idle wall time must
//! stay within `MAX_IDLE_OVERHEAD` of fault-free, which bounds the
//! *disarmed* production cost a fortiori (disarmed polls skip the slow
//! path entirely; their per-call cost is also measured directly and
//! reported as `disarmed_fire_ns`). Shared CI runners inject transient
//! noise even into min-of-reps floors, so the gate pools rounds into
//! the same per-variant minimums (up to `MAX_ROUNDS`), exactly like
//! `bench_trace`. A falsification check rides along: the armed variant
//! must *count* poll-site evaluations, proving the instrumentation the
//! chaos suite relies on is actually live in this build.
//!
//! Usage: `bench_fault [OUTPUT_PATH]` (default `BENCH_fault.json`).

use gm_fault::FaultPlan;
use gm_mc::{Backend, BitAtom, Checker, WindowProperty};
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

const BOUND: u32 = 24;
const REPS_PER_ROUND: u32 = 50;
const MAX_ROUNDS: u32 = 10;
const DISARMED_PROBE_CALLS: u64 = 10_000_000;

/// The enforced bound: armed-but-idle wall time must stay within 2% of
/// the fault-free run (ISSUE acceptance; the slow path is one mutex
/// lock per SAT query, so the real gap drowns in solver time).
const MAX_IDLE_OVERHEAD: f64 = 0.02;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fault.json".to_string());
    let module = gm_designs::arbiter2();
    let req0 = module.require("req0").unwrap();
    let gnt0 = module.require("gnt0").unwrap();
    // Four distinct window properties so the batch exercises the full
    // decision dispatch; outcomes are irrelevant as long as both
    // variants do byte-identical work.
    let props: Vec<WindowProperty> = (0..4)
        .map(|i| {
            WindowProperty::implication(
                vec![
                    BitAtom::new(req0, 0, 0, i % 2 == 0),
                    BitAtom::new(req0, 0, 1, false),
                ],
                BitAtom::new(gnt0, 0, 2, i >= 2),
            )
        })
        .collect();

    // Fresh checker per rep: every rep starts from the same cold
    // session, so both variants do the same work. The cancel token
    // stays low; it exists because the fault sites only engage on the
    // cancellable path the closure service uses.
    let cancel = Arc::new(AtomicBool::new(false));
    let run = |cancel: &Arc<AtomicBool>| {
        let mut checker = Checker::new(&module)
            .expect("arbiter2 blasts")
            .with_backend(Backend::Bmc { bound: BOUND });
        checker.set_cancel(Some(cancel.clone()));
        let results = checker
            .check_batch(&props)
            .expect("idle plans never inject a fault");
        std::hint::black_box(results);
    };
    let idle_plan = FaultPlan::new(0)
        .point("sat.stall", 0)
        .point("sat.flaky", 0);
    let mut idle_evals = 0u64;

    // Warm up both variants, then interleave the timed reps so slow
    // drift (thermal, noisy neighbors) hits both equally; pool
    // per-variant minimums across rounds until the gate is satisfied.
    // Arming sits *outside* the timed region — the gate measures what
    // the poll sites cost per query, not the per-test cost of arming.
    run(&cancel);
    {
        let _guard = gm_fault::arm(idle_plan.clone());
        run(&cancel);
    }
    let mut best = [f64::INFINITY; 2];
    let mut rounds = 0;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        for _ in 0..REPS_PER_ROUND {
            let start = Instant::now();
            run(&cancel);
            best[0] = best[0].min(start.elapsed().as_secs_f64());

            let guard = gm_fault::arm(idle_plan.clone());
            let start = Instant::now();
            run(&cancel);
            best[1] = best[1].min(start.elapsed().as_secs_f64());
            idle_evals += guard.report().iter().map(|p| p.evaluated).sum::<u64>();
        }
        let overhead = best[1] / best[0] - 1.0;
        eprintln!(
            "round {rounds}: fault-free {:.3}ms armed-idle {:.3}ms ({:+.2}%)",
            best[0] * 1e3,
            best[1] * 1e3,
            overhead * 100.0
        );
        if overhead <= MAX_IDLE_OVERHEAD {
            break;
        }
    }
    let [fault_free_s, armed_idle_s] = best;
    let reps = u64::from(rounds * REPS_PER_ROUND);
    assert!(
        idle_evals > 0,
        "armed reps must count poll-site evaluations — the chaos suite's \
         falsification gate depends on this instrumentation being live"
    );
    let polls_per_rep = idle_evals / reps;

    // The production state: fault points compiled in, nothing armed.
    // One relaxed load per call; measured directly for the report.
    let start = Instant::now();
    let mut fired = 0u64;
    for _ in 0..DISARMED_PROBE_CALLS {
        fired += u64::from(gm_fault::fire("sat.flaky"));
    }
    let disarmed_fire_ns = start.elapsed().as_secs_f64() * 1e9 / DISARMED_PROBE_CALLS as f64;
    assert_eq!(fired, 0, "disarmed fire must never inject");

    let idle_overhead = armed_idle_s / fault_free_s - 1.0;

    // Hand-rolled JSON: the workspace has no JSON dependency.
    let mut json = String::from("{\n  \"bench\": \"fault_points\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"design\": \"arbiter2\", \"backend\": \"bmc\", \
         \"bound\": {BOUND}, \"props\": {}, \"reps\": {reps}}},",
        props.len()
    );
    let _ = writeln!(
        json,
        "  \"fault_free_ms\": {:.4},\n  \"armed_idle_ms\": {:.4},\n  \
         \"fault_polls_per_rep\": {polls_per_rep},\n  \
         \"disarmed_fire_ns\": {disarmed_fire_ns:.2},",
        fault_free_s * 1e3,
        armed_idle_s * 1e3,
    );
    let _ = writeln!(
        json,
        "  \"armed_idle_overhead\": {idle_overhead:.4},\n  \
         \"max_idle_overhead\": {MAX_IDLE_OVERHEAD}\n}}"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_fault.json");
    print!("{json}");
    eprintln!(
        "armed idle: {:+.2}% vs fault-free (bound {:+.0}%); disarmed poll {:.1}ns",
        idle_overhead * 100.0,
        MAX_IDLE_OVERHEAD * 100.0,
        disarmed_fire_ns
    );

    assert!(
        idle_overhead <= MAX_IDLE_OVERHEAD,
        "an armed-but-idle plan costs {:.2}% over the fault-free path (bound {:.0}%)",
        idle_overhead * 100.0,
        MAX_IDLE_OVERHEAD * 100.0,
    );
}
