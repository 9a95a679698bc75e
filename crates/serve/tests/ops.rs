//! Operational guarantees of the closure service: cancellation frees a
//! worker *mid-iteration* (not at the next iteration boundary), the
//! design cache honors its byte budget with LRU-first victims, and
//! concurrent metrics scrapes always see an internally consistent
//! snapshot.

use gm_mc::Checker;
use gm_serve::cache::{canonical_form, DesignCache};
use gm_serve::{ClosureService, JobState, Request, Response, ServeConfig, SubmitOptions};
use goldmine::{Engine, EngineConfig, SeedStimulus, ShardPolicy, TargetSelection};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny fast-converging job for worker-liveness probes.
fn tiny_job() -> (gm_rtl::Module, EngineConfig) {
    let m = gm_rtl::parse_verilog(
        "module and2(input a, input b, output y); assign y = a & b; endmodule",
    )
    .unwrap();
    let config = EngineConfig {
        window: 0,
        stimulus: SeedStimulus::Random { cycles: 4 },
        max_iterations: 4,
        record_coverage: false,
        shards: ShardPolicy::Off,
        ..EngineConfig::default()
    };
    (m, config)
}

/// Polls `status` until `pred` holds (or panics after `timeout`).
fn poll_until(
    service: &ClosureService,
    job: u64,
    timeout: Duration,
    pred: impl Fn(&gm_serve::JobStatus) -> bool,
) {
    let start = Instant::now();
    loop {
        let status = service.status(job).expect("job exists");
        if pred(&status) {
            return;
        }
        assert!(
            start.elapsed() < timeout,
            "job {job} never reached the polled state (stuck at {:?})",
            status.state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Cancelling a job whose single iteration would run for minutes must
/// free the worker within the SAT-query poll interval, not at the next
/// iteration boundary — and the truncated outcome must say so.
#[test]
fn cancellation_frees_the_worker_mid_iteration() {
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    // A 16-bit counter whose random traces never raise q[15]: mining
    // yields "q[15] stays 0" candidates whose sole counterexample sits
    // ~32768 frames deep, so one BMC dispatch scans tens of thousands
    // of window starts. Uncancelled, this iteration runs for minutes.
    let m = gm_rtl::parse_verilog(
        "module cnt16(input clk, input rst, output reg [15:0] q);
           always @(posedge clk) if (rst) q <= 0; else q <= q + 1;
         endmodule",
    )
    .unwrap();
    let q = m.require("q").unwrap();
    let config = EngineConfig {
        window: 1,
        stimulus: SeedStimulus::Random { cycles: 32 },
        targets: TargetSelection::Bits(vec![(q, 15)]),
        backend: gm_mc::Backend::Bmc { bound: 50_000 },
        max_iterations: 2,
        record_coverage: false,
        shards: ShardPolicy::Off,
        ..EngineConfig::default()
    };
    let (job, _) = service
        .submit_module("cnt16", m, config, SubmitOptions::default())
        .unwrap();

    // Wait for the slow verification pass: the iteration-0 snapshot has
    // been reported (progress_len >= 1) and the worker is inside the
    // BMC dispatch of iteration 1.
    poll_until(&service, job, Duration::from_secs(30), |s| {
        s.state == JobState::Running && s.progress_len >= 1
    });
    std::thread::sleep(Duration::from_millis(300));

    let cancelled_at = Instant::now();
    assert!(service.cancel(job), "running jobs are cancellable");
    assert_eq!(service.wait(job), Some(JobState::Cancelled));
    let latency = cancelled_at.elapsed();
    assert!(
        latency < Duration::from_secs(15),
        "cancel took {latency:?} — the worker waited for the iteration instead of \
         stopping at the next in-iteration poll point"
    );

    // The truncated outcome is still a valid outcome, and it records
    // that the run was interrupted mid-iteration (a plain boundary
    // stop leaves `interrupted` false).
    let outcome = service
        .take_outcome(job)
        .expect("outcome recorded")
        .expect("cancelled runs produce a truncated Ok outcome");
    assert!(outcome.interrupted, "cancel landed mid-iteration");
    assert!(!outcome.converged);

    // The freed worker picks up new work immediately.
    let (m, config) = tiny_job();
    let (next, _) = service
        .submit_module("and2", m, config, SubmitOptions::default())
        .unwrap();
    assert_eq!(service.wait(next), Some(JobState::Done));
    service.shutdown();
}

/// The byte budget is enforced after every growing operation, victims
/// leave LRU-first, and a sole oversized entry sheds its warm extras
/// instead of thrashing.
#[test]
fn byte_budget_evicts_lru_first_and_never_exceeds_budget() {
    const A: &str = "module a(input x, output y); assign y = x; endmodule";
    const B: &str = "module b(input x, output y); assign y = ~x; endmodule";
    const C: &str = "module c(input x, input z, output y); assign y = x ^ z; endmodule";
    const D: &str = "module d(input x, input z, output y); assign y = x & z; endmodule";
    let canon = |src: &str| canonical_form(&gm_rtl::parse_verilog(src).unwrap());
    let build = |src: &'static str| {
        move || {
            let m = gm_rtl::parse_verilog(src).unwrap();
            let e = gm_rtl::elaborate(&m).unwrap();
            Ok::<_, ()>((Arc::new(m), Arc::new(e)))
        }
    };

    // Room for two resident sources but never three.
    let budget = canon(A).len() + canon(B).len() + canon(C).len() - 1;
    let mut cache = DesignCache::with_max_bytes(8, budget);
    cache.checkout("a", &canon(A), true, build(A)).unwrap();
    cache.checkout("b", &canon(B), true, build(B)).unwrap();
    assert!(cache.stats().approx_bytes <= budget);
    assert_eq!(cache.stats().evictions_bytes, 0);

    // Touch A so B is the LRU victim when C overflows the budget.
    assert!(cache.checkout("a", &canon(A), true, build(A)).unwrap().hit);
    cache.checkout("c", &canon(C), true, build(C)).unwrap();
    let stats = cache.stats();
    assert!(stats.approx_bytes <= budget, "budget violated after insert");
    assert_eq!(stats.evictions_bytes, 1);
    assert!(cache.matches("a", &canon(A)), "recently used entry kept");
    assert!(!cache.matches("b", &canon(B)), "LRU entry evicted first");
    assert!(cache.matches("c", &canon(C)));

    // Touch C so A is next out when D arrives.
    assert!(cache.checkout("c", &canon(C), true, build(C)).unwrap().hit);
    cache.checkout("d", &canon(D), true, build(D)).unwrap();
    assert!(!cache.matches("a", &canon(A)), "victim order follows LRU");
    assert!(cache.matches("c", &canon(C)));
    assert!(cache.matches("d", &canon(D)));
    assert!(cache.stats().approx_bytes <= budget);
    assert_eq!(cache.stats().evictions_bytes, 2);
    assert_eq!(cache.stats().evictions, 2, "sum counter tracks the split");

    // A sole entry larger than the whole budget sheds its parked
    // checkers rather than evicting itself. Budget sits strictly
    // between the bare entry and the entry with a *warm* parked
    // checker (one decided property builds its reachable set).
    let module_a = gm_rtl::parse_verilog(A).unwrap();
    let x = module_a.require("x").unwrap();
    let y = module_a.require("y").unwrap();
    let mut parked = Checker::new(&module_a).unwrap();
    parked
        .check_batch(&[gm_mc::WindowProperty {
            antecedent: vec![gm_mc::BitAtom::new(x, 0, 0, true)],
            consequent: gm_mc::BitAtom::new(y, 0, 0, true),
        }])
        .unwrap();
    assert!(parked.approx_bytes() > 0, "warm checkers account bytes");
    let sole_budget = canon(A).len() + parked.approx_bytes() - 1;
    let mut small = DesignCache::with_max_bytes(8, sole_budget);
    small.checkout("a", &canon(A), true, build(A)).unwrap();
    small.park("a", &canon(A), parked);
    assert!(
        small.stats().approx_bytes <= sole_budget,
        "oversized warm state was shed"
    );
    assert!(
        small.matches("a", &canon(A)),
        "the design itself stays resident"
    );
    let warm = small.checkout("a", &canon(A), true, build(A)).unwrap();
    assert!(warm.hit && warm.checker.is_none());
}

/// A design has one parked tape: a coverage-off job builds and parks
/// it, a coverage-on job of the same design after it runs on that same
/// tape, and both outcomes are a standalone engine run's.
#[test]
fn coverage_off_and_on_jobs_share_one_parked_tape() {
    let design = gm_designs::catalog()
        .into_iter()
        .find(|d| d.name == "b01")
        .expect("b01 in the catalog");
    let module = design.module();
    let config = |record_coverage| EngineConfig {
        window: design.window,
        stimulus: SeedStimulus::Random { cycles: 32 },
        max_iterations: 10,
        record_coverage,
        ..EngineConfig::default()
    };
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for record_coverage in [false, true] {
        let config = config(record_coverage);
        let standalone = Engine::new(&module, config.clone()).unwrap().run().unwrap();
        assert_eq!(standalone.iterations[0].coverage.is_some(), record_coverage);
        let (id, _) = service
            .submit_module("b01", module.clone(), config, SubmitOptions::default())
            .unwrap();
        assert_eq!(service.wait(id), Some(JobState::Done));
        let served = service.take_outcome(id).unwrap().unwrap();
        assert_eq!(format!("{served:?}"), format!("{standalone:?}"));
    }
    let stats = service.stats();
    assert_eq!(stats.compiled_built, 1, "{stats:?}");
    assert_eq!(stats.compiled_reused, 1, "{stats:?}");
    service.shutdown();
}

/// Parses a Prometheus exposition page into name → value, keeping the
/// integer-valued series (the histogram `_sum` lines carry fractional
/// seconds and are not part of the lifecycle invariant).
fn parse_scrape(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next().expect("metric name").to_string();
            let value = parts.next().expect("metric value").parse().ok()?;
            Some((name, value))
        })
        .collect()
}

/// Four clients scraping the metrics endpoint while jobs flow through
/// submit/complete/cancel must always observe
/// `submitted == queued + running + completed + failed + cancelled` —
/// the snapshot is taken under one lock, never stitched from counters
/// in motion.
#[test]
fn concurrent_metrics_scrapes_are_internally_consistent() {
    let service = Arc::new(ClosureService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    // Scrapers that have taken their first snapshot: the jobs start
    // only once all four are scraping, so the snapshots race the job
    // flow however the host schedules the threads.
    let scraping = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                let service = service.clone();
                let stop = stop.clone();
                let scraping = scraping.clone();
                s.spawn(move || {
                    let mut scrapes = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let Response::Metrics { text } = service.handle_request(&Request::Metrics)
                        else {
                            panic!("metrics request answered with the wrong response")
                        };
                        let m = parse_scrape(&text);
                        let lifecycle = m["gmserve_jobs_queued"]
                            + m["gmserve_jobs_running"]
                            + m["gmserve_jobs_completed_total"]
                            + m["gmserve_jobs_failed_total"]
                            + m["gmserve_jobs_cancelled_total"];
                        assert_eq!(
                            m["gmserve_jobs_submitted_total"], lifecycle,
                            "scrape caught counters mid-transition"
                        );
                        // The resilience families render in every
                        // scrape (zeros included) so dashboards can
                        // rely on them, and the retry histogram is
                        // internally consistent: +Inf is the count,
                        // and only worker-retired jobs are observed.
                        for counter in [
                            "gmserve_worker_panics_total",
                            "gmserve_jobs_retried_total",
                            "gmserve_jobs_deadline_exceeded_total",
                            "gmserve_requests_shed_total",
                            "gmserve_workers_respawned_total",
                        ] {
                            assert!(m.contains_key(counter), "{counter} missing from scrape");
                        }
                        let retired = m["gmserve_jobs_completed_total"]
                            + m["gmserve_jobs_failed_total"]
                            + m["gmserve_jobs_cancelled_total"];
                        assert_eq!(
                            m["gmserve_job_retries_bucket{le=\"+Inf\"}"],
                            m["gmserve_job_retries_count"],
                            "+Inf bucket must equal the histogram count"
                        );
                        assert!(
                            m["gmserve_job_retries_count"] <= retired,
                            "retry observations outnumber retired jobs"
                        );
                        scrapes += 1;
                        if scrapes == 1 {
                            scraping.fetch_add(1, Ordering::Release);
                        }
                    }
                    scrapes
                })
            })
            .collect();
        // (A scraper that panicked shows up at the join below.)
        while scraping.load(Ordering::Acquire) < 4 && !scrapers.iter().any(|h| h.is_finished()) {
            std::thread::yield_now();
        }

        let mut jobs = Vec::new();
        for i in 0..24 {
            let (m, config) = tiny_job();
            let (job, _) = service
                .submit_module("and2", m, config, SubmitOptions::default())
                .unwrap();
            // Cancel a third of them so every lifecycle counter moves.
            if i % 3 == 0 {
                service.cancel(job);
            }
            jobs.push(job);
        }
        for job in jobs {
            service.wait(job);
        }
        stop.store(true, Ordering::Release);
        let total: u64 = scrapers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "scrapers observed at least one snapshot");
    });
    service.shutdown();
}
