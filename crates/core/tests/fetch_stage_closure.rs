//! The paper's own Rigel fetch stage, closed under the default config.
//!
//! Eight input bits make `fetch_stage` the catalog's widest explicit
//! design: 256 input words per reachable state. Its default closure is
//! decided entirely by the explicit engine, so its wall time is that
//! engine's cost per candidate — a depth-first window walk took 13–16 s
//! here in release; the tabled live-set pass takes ~0.1 s. The budget
//! below fails long before the walk's cost could come back.

use goldmine::{Engine, EngineConfig};
use std::time::{Duration, Instant};

#[test]
fn fetch_stage_default_closure_converges_inside_its_budget() {
    let m = gm_designs::fetch_stage();
    let started = Instant::now();
    let outcome = Engine::new(&m, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let elapsed = started.elapsed();
    assert!(outcome.converged, "targets: {:?}", outcome.targets);
    assert_eq!(outcome.unknown_assumed, 0, "the explicit engine is exact");
    let total = outcome.verification_total();
    assert_eq!(
        total.sat_queries, 0,
        "explicit decided everything: {total:?}"
    );
    assert_eq!(total.explicit_queries, 7308);
    assert_eq!(outcome.iteration_count(), 13, "as before the tables");
    assert!(
        elapsed < Duration::from_secs(5),
        "fetch_stage closure took {elapsed:?}"
    );
}
