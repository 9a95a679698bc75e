//! Differential suite: everything the service returns must be
//! *byte-identical* to a standalone [`Engine`] run of the same module
//! and config — across the whole design catalog, through concurrent
//! clients, across cache eviction and rebuild, and over the Unix-socket
//! wire.

use gm_rtl::{Module, SignalId};
use gm_serve::{ClosureService, JobState, ServeClient, ServeConfig, SubmitOptions, WireConfig};
use goldmine::{
    ClosureOutcome, Engine, EngineConfig, SeedStimulus, TargetSelection, UnknownPolicy,
};
use std::sync::{Arc, OnceLock};

fn one_bit_targets(m: &Module) -> Vec<(SignalId, u32)> {
    m.outputs()
        .into_iter()
        .filter(|&s| m.signal_width(s) == 1)
        .map(|s| (s, 0))
        .collect()
}

/// A bounded config per catalog design (the differential property does
/// not need the full pipeline budgets; the two big lite blocks are
/// bounded exactly like `tests/pipeline.rs` bounds them).
fn catalog_jobs() -> Vec<(String, Module, EngineConfig)> {
    gm_designs::catalog()
        .into_iter()
        .map(|d| {
            let module = d.module();
            let (backend, max_iterations, targets) = match d.name {
                // fetch_stage's full Auto-backend closure costs ~6 s
                // alone — the differential property only needs the
                // served run to mirror the standalone run, so it gets
                // the same hard bound as the big lite blocks.
                "b17_lite" | "b18_lite" | "fetch_stage" => (
                    gm_mc::Backend::KInduction { max_k: 1 },
                    1,
                    vec![one_bit_targets(&module)[0]],
                ),
                _ => {
                    let mut t = one_bit_targets(&module);
                    t.truncate(2);
                    (gm_mc::Backend::Auto, 10, t)
                }
            };
            let config = EngineConfig {
                window: d.window,
                stimulus: SeedStimulus::Random { cycles: 32 },
                targets: TargetSelection::Bits(targets),
                backend,
                max_iterations,
                unknown: UnknownPolicy::AssumeTrue,
                record_coverage: false,
                ..EngineConfig::default()
            };
            (d.name.to_string(), module, config)
        })
        .collect()
}

/// One catalog job plus its standalone baseline outcome.
struct Baseline {
    name: String,
    module: Module,
    config: EngineConfig,
    outcome: ClosureOutcome,
}

/// The shared fixture: every test in this binary compares served
/// outcomes against the same standalone `Engine` baselines, so they are
/// computed once per process instead of once per test (the catalog
/// sweep dominated this suite's wall time).
fn baselines() -> &'static [Baseline] {
    static BASELINES: OnceLock<Vec<Baseline>> = OnceLock::new();
    BASELINES.get_or_init(|| {
        catalog_jobs()
            .into_iter()
            .map(|(name, module, config)| {
                let outcome = Engine::new(&module, config.clone()).unwrap().run().unwrap();
                Baseline {
                    name,
                    module,
                    config,
                    outcome,
                }
            })
            .collect()
    })
}

fn baselines_for(names: &[&str]) -> Vec<&'static Baseline> {
    let all = baselines();
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|b| b.name == *n)
                .expect("fixture covers the whole catalog")
        })
        .collect()
}

#[test]
fn served_outcomes_match_standalone_across_the_catalog() {
    let jobs: Vec<&Baseline> = baselines().iter().collect();
    let expected: Vec<String> = jobs.iter().map(|b| format!("{:?}", b.outcome)).collect();
    let service = ClosureService::new(ServeConfig {
        workers: 3,
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    let ids: Vec<u64> = jobs
        .iter()
        .map(|b| {
            service
                .submit_module(
                    &b.name,
                    b.module.clone(),
                    b.config.clone(),
                    SubmitOptions::default(),
                )
                .unwrap()
                .0
        })
        .collect();
    for ((id, expect), b) in ids.into_iter().zip(&expected).zip(&jobs) {
        assert_eq!(service.wait(id), Some(JobState::Done), "{}", b.name);
        let outcome = service.take_outcome(id).unwrap().unwrap();
        assert_eq!(
            format!("{outcome:?}"),
            *expect,
            "{}: served outcome diverged from standalone",
            b.name
        );
    }
    let stats = service.stats();
    assert_eq!(stats.completed, jobs.len() as u64);
    service.shutdown();
}

#[test]
fn concurrent_multi_client_submissions_agree_with_standalone() {
    let jobs = baselines_for(&["arbiter2", "b01", "b02", "b09"]);
    let expected: Vec<String> = jobs.iter().map(|b| format!("{:?}", b.outcome)).collect();
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    }));
    // Four clients, each submitting the full set concurrently: the same
    // design runs in parallel with itself, exercising the parked-checker
    // pool and the cache hit path under contention.
    std::thread::scope(|scope| {
        for client in 0..4 {
            let service = service.clone();
            let jobs = &jobs;
            let expected = &expected;
            scope.spawn(move || {
                for (b, expect) in jobs.iter().zip(expected) {
                    let (id, _) = service
                        .submit_module(
                            &format!("{}-client{client}", b.name),
                            b.module.clone(),
                            b.config.clone(),
                            SubmitOptions::default(),
                        )
                        .unwrap();
                    assert_eq!(service.wait(id), Some(JobState::Done));
                    let outcome = service.take_outcome(id).unwrap().unwrap();
                    assert_eq!(
                        format!("{outcome:?}"),
                        *expect,
                        "client {client}: {} diverged",
                        b.name
                    );
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.cache_misses, 4, "one miss per distinct design");
    assert_eq!(stats.cache_hits, 12, "every repeat submission hits");
    service.shutdown();
}

#[test]
fn cache_eviction_and_rebuild_never_change_outcomes() {
    let jobs = baselines_for(&["cex_small", "arbiter2", "b01"]);
    let expected: Vec<String> = jobs.iter().map(|b| format!("{:?}", b.outcome)).collect();
    // Capacity 2 with 3 designs cycled twice: every design gets evicted
    // and rebuilt at least once along the way.
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    for round in 0..2 {
        for (b, expect) in jobs.iter().zip(&expected) {
            let (id, _) = service
                .submit_module(
                    &b.name,
                    b.module.clone(),
                    b.config.clone(),
                    SubmitOptions::default(),
                )
                .unwrap();
            assert_eq!(service.wait(id), Some(JobState::Done));
            let outcome = service.take_outcome(id).unwrap().unwrap();
            assert_eq!(
                format!("{outcome:?}"),
                *expect,
                "round {round}: {} diverged after eviction churn",
                b.name
            );
        }
    }
    let stats = service.stats();
    assert!(
        stats.cache_evictions > 0,
        "the churn must actually evict: {stats:?}"
    );
    assert_eq!(stats.completed, 6);
    service.shutdown();
}

#[test]
fn traced_served_runs_agree_and_export_loadable_recordings() {
    // A traced submission must produce the same bytes as the untraced
    // standalone baseline — the flight recorder is pure observation —
    // and its export must be parseable JSON carrying the span
    // vocabulary of every layer the job crossed.
    let jobs = baselines_for(&["arbiter2", "b01"]);
    let service = ClosureService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for b in &jobs {
        let (id, _) = service
            .submit_module(
                &b.name,
                b.module.clone(),
                b.config.clone(),
                SubmitOptions {
                    trace: true,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(service.wait(id), Some(JobState::Done), "{}", b.name);
        let outcome = service.take_outcome(id).unwrap().unwrap();
        assert_eq!(
            format!("{outcome:?}"),
            format!("{:?}", b.outcome),
            "{}: tracing changed the served outcome",
            b.name
        );
        let trace = service.trace_json(id).unwrap();
        let parsed = gm_serve::json::parse(&trace).expect("trace export parses as JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "{}: empty recording", b.name);
        let names: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(gm_serve::json::Json::as_str))
            .collect();
        for name in [
            "serve.queue",
            "serve.job",
            "engine.run",
            "engine.iteration",
            "engine.verify",
            "mc.check_batch",
        ] {
            assert!(names.contains(name), "{}: span {name} missing", b.name);
        }
    }
    // Both claims and retirements landed in the latency histograms.
    let stats = service.stats();
    assert_eq!(stats.queue_seconds.count(), 2);
    assert_eq!(stats.wall_seconds.count(), 2);
    service.shutdown();
}

#[test]
fn traces_and_histograms_travel_the_socket() {
    let path = std::env::temp_dir().join(format!("gm-serve-trace-{}.sock", std::process::id()));
    let listener = gm_serve::bind_unix(&path).unwrap();
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = {
        let service = service.clone();
        std::thread::spawn(move || gm_serve::serve_unix(service, listener))
    };
    let wire = WireConfig {
        random_cycles: Some(32),
        max_iterations: 10,
        record_coverage: false,
        ..WireConfig::default()
    }
    .with_bit_targets(vec![("gnt0".into(), 0), ("gnt1".into(), 0)]);
    let b = baselines_for(&["arbiter2"])[0];

    let mut client = ServeClient::connect(&path).unwrap();
    let (job, _) = client
        .submit_with(
            "arbiter2",
            gm_designs::sources::ARBITER2,
            &wire,
            SubmitOptions {
                trace: true,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    // Traces are refused until the job is terminal or when it was
    // submitted untraced.
    let summary = client.wait(job).unwrap();
    assert_eq!(
        summary.outcome_debug,
        format!("{:?}", b.outcome),
        "traced wire run diverged from the standalone baseline"
    );
    let trace = client.trace(job).unwrap();
    assert!(trace.contains("\"name\":\"serve.job\""), "{trace}");
    assert!(gm_serve::json::parse(&trace).is_ok());
    assert!(client.trace(job + 7).is_err(), "unknown jobs error");
    let (untraced, _) = client
        .submit("arbiter2-plain", gm_designs::sources::ARBITER2, &wire)
        .unwrap();
    client.wait(untraced).unwrap();
    assert!(client.trace(untraced).is_err(), "untraced jobs error");
    // The scrape endpoint exposes the histograms and build gauge.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("# TYPE gmserve_job_queue_seconds histogram"));
    assert!(metrics.contains("gmserve_job_wall_seconds_count 2"));
    assert!(metrics.contains("# TYPE gmserve_build_info gauge"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.wall_seconds.count(), 2);
    assert!(stats.wall_seconds.sum > 0);
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_returns_even_with_an_idle_connection_open() {
    let path = std::env::temp_dir().join(format!("gm-serve-idle-{}.sock", std::process::id()));
    let listener = gm_serve::bind_unix(&path).unwrap();
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = {
        let service = service.clone();
        std::thread::spawn(move || gm_serve::serve_unix(service, listener))
    };
    // An idle client that never sends a frame and never hangs up…
    let idle = ServeClient::connect(&path).unwrap();
    // …must not pin the accept loop's connection join after a shutdown
    // request from someone else.
    let mut closer = ServeClient::connect(&path).unwrap();
    closer.shutdown().unwrap();
    drop(closer);
    server.join().unwrap().unwrap();
    drop(idle);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn socket_round_trip_is_byte_identical_and_shuts_down_cleanly() {
    let path = std::env::temp_dir().join(format!("gm-serve-agree-{}.sock", std::process::id()));
    let listener = gm_serve::bind_unix(&path).unwrap();
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let server = {
        let service = service.clone();
        std::thread::spawn(move || gm_serve::serve_unix(service, listener))
    };

    let module = gm_designs::arbiter2();
    let wire = WireConfig {
        random_cycles: Some(32),
        max_iterations: 10,
        record_coverage: false,
        ..WireConfig::default()
    }
    .with_bit_targets(vec![("gnt0".into(), 0), ("gnt1".into(), 0)]);
    let config = wire.to_engine(&module).unwrap();
    // The wire config resolves to exactly the catalog job's engine
    // config, so the shared fixture baseline applies here too.
    let b = baselines_for(&["arbiter2"])[0];
    assert_eq!(config, b.config, "wire round-trip matches the fixture");
    let expect = format!("{:?}", b.outcome);

    let mut client = ServeClient::connect(&path).unwrap();
    let (job, cached) = client
        .submit("arbiter2", gm_designs::sources::ARBITER2, &wire)
        .unwrap();
    assert!(!cached);
    let summary = client.wait(job).unwrap();
    assert_eq!(
        summary.outcome_debug, expect,
        "the wire summary must carry the standalone outcome byte-for-byte"
    );
    assert!(summary.converged);
    let (events, terminal) = client.progress(job, 0).unwrap();
    assert!(terminal);
    assert_eq!(events.len(), summary.iterations as usize + 1);
    let stats = client.stats().unwrap();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    // A second client sees the same server state.
    let mut second = ServeClient::connect(&path).unwrap();
    assert_eq!(second.stats().unwrap().completed, 1);
    second.shutdown().unwrap();
    // The accept loop joins every connection thread before returning,
    // so both clients must hang up first.
    drop(client);
    drop(second);
    server.join().unwrap().unwrap();
    assert!(!path.exists() || std::fs::remove_file(&path).is_ok());
}
