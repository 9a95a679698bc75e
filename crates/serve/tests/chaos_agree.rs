//! Chaos-agreement suite: under seeded fault injection every served
//! job either completes with a [`goldmine::ClosureOutcome`]
//! *byte-identical* to a fault-free run, or fails with a typed,
//! documented [`JobError`] — never a hang, never a corrupted result.
//!
//! Each test doubles as the falsification-power gate: it asserts that
//! every fault point it armed actually *fired* (`FaultGuard::fired`),
//! so a refactor that silently unwires an injection site fails CI here
//! instead of making the chaos sweep vacuously green.
//!
//! Fault arming is process-global, so every test in this binary holds
//! the `CHAOS` mutex for its whole body (CI additionally runs this
//! binary with `--test-threads=1`, and with `GM_TEST_SHARDS=<n>` to
//! put the sweep's engines on a fixed shard count, so faults land on
//! shard workers too).

use gm_serve::{
    ClosureService, JobError, JobState, Request, Response, RetryPolicy, ServeConfig, ServeError,
    SubmitOptions, WireConfig,
};
use goldmine::{Engine, EngineConfig, SeedStimulus, ShardPolicy, TargetSelection, UnknownPolicy};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the whole suite: fault plans are process-global.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Immediate retries with headroom for every capped fault in a sweep
/// landing on the same job.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_ms: 0,
        max_ms: 0,
    }
}

/// The shard policy under test: `GM_TEST_SHARDS=<n>` forces
/// `Fixed(n)` (the CI chaos leg), otherwise the default `Off`.
fn shard_policy_under_test() -> ShardPolicy {
    match std::env::var("GM_TEST_SHARDS") {
        Ok(v) => ShardPolicy::Fixed(v.parse().expect("GM_TEST_SHARDS must be a number")),
        Err(_) => ShardPolicy::Off,
    }
}

/// Fast bounded catalog designs for the sweep (the agreement property
/// needs real engine runs, not big ones).
fn sweep_jobs() -> Vec<(String, gm_rtl::Module, EngineConfig)> {
    ["cex_small", "arbiter2", "b01", "b02", "b09"]
        .iter()
        .map(|name| {
            let d = gm_designs::by_name(name).expect("bundled design");
            let module = d.module();
            let targets: Vec<_> = module
                .outputs()
                .into_iter()
                .filter(|&s| module.signal_width(s) == 1)
                .map(|s| (s, 0))
                .take(2)
                .collect();
            let config = EngineConfig {
                window: d.window,
                stimulus: SeedStimulus::Random { cycles: 32 },
                targets: TargetSelection::Bits(targets),
                backend: gm_mc::Backend::Auto,
                max_iterations: 10,
                unknown: UnknownPolicy::AssumeTrue,
                shards: shard_policy_under_test(),
                record_coverage: false,
                ..EngineConfig::default()
            };
            (d.name.to_string(), module, config)
        })
        .collect()
}

fn tiny_module() -> gm_rtl::Module {
    gm_rtl::parse_verilog("module t(input a, input b, output y); assign y = a & b; endmodule")
        .unwrap()
}

fn tiny_config() -> EngineConfig {
    EngineConfig {
        window: 0,
        stimulus: SeedStimulus::Random { cycles: 8 },
        record_coverage: false,
        ..EngineConfig::default()
    }
}

/// A job that holds its worker until it is cancelled, and the guard of
/// the one-shot `sat.stall` plan that wedges it: a 16-bit counter whose
/// q[15] candidates go to BMC, where the first SAT dispatch stalls until
/// the token rises. Left to run, the counter's own closure ends in
/// ~0.3 s — too short to outlive a drain or a deadline reliably, so the
/// stall, not the design, is what makes the job slow. Deadlines, drains
/// and cancels must still cut it loose *mid-iteration*; callers assert
/// that the stall fired.
fn slow_job() -> (gm_rtl::Module, EngineConfig, gm_fault::FaultGuard) {
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
    let stall =
        gm_fault::arm(gm_fault::FaultPlan::new(7).point_limited("sat.stall", gm_fault::PPM, 1));
    (m, config, stall)
}

fn poll_until(
    service: &ClosureService,
    job: u64,
    timeout: Duration,
    pred: impl Fn(&gm_serve::JobStatus) -> bool,
) {
    let start = Instant::now();
    loop {
        if let Some(status) = service.status(job) {
            if pred(&status) {
                return;
            }
        }
        assert!(
            start.elapsed() < timeout,
            "condition not reached within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole property: ≥8 seeded fault plans over a catalog of real
/// designs, with worker panics, poisoned cache checkouts and transient
/// SAT faults all armed — every job must retire `Done` with an outcome
/// byte-identical to its fault-free baseline, and every armed point
/// must have fired at least once across the sweep.
#[test]
fn seeded_fault_sweeps_preserve_outcomes_byte_for_byte() {
    let _guard = chaos_lock();
    let jobs = sweep_jobs();
    // Fault-free baselines, computed while nothing is armed.
    let baselines: Vec<String> = jobs
        .iter()
        .map(|(_, module, config)| {
            let outcome = Engine::new(module, config.clone()).unwrap().run().unwrap();
            format!("{outcome:?}")
        })
        .collect();

    let (mut panics, mut checkouts, mut flakies) = (0u64, 0u64, 0u64);
    let mut total_retried = 0u64;
    for seed in 0..8u64 {
        // Full-rate capped points fire deterministically on their first
        // evaluations; the seed varies the plan's budgets, so different
        // sweeps exercise different fault mixes. Worst case every fire
        // lands on one job: 2 + 1 + 3 = 6 retries, within the budget.
        let plan = gm_fault::FaultPlan::new(seed)
            .point_limited("worker.panic", gm_fault::PPM, 1 + seed % 2)
            .point_limited("cache.checkout_fail", gm_fault::PPM, 1)
            .point_limited("sat.flaky", gm_fault::PPM, 1 + seed % 3);
        let guard = gm_fault::arm(plan);
        let service = ClosureService::new(ServeConfig {
            workers: 2,
            retry: chaos_retry(),
            ..ServeConfig::default()
        });
        let ids: Vec<u64> = jobs
            .iter()
            .map(|(name, module, config)| {
                service
                    .submit_module(
                        name,
                        module.clone(),
                        config.clone(),
                        SubmitOptions::default(),
                    )
                    .unwrap()
                    .0
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                service.wait(*id),
                Some(JobState::Done),
                "seed {seed}: job {} must survive the fault plan",
                jobs[i].0
            );
            let outcome = service.take_outcome(*id).unwrap().unwrap();
            assert_eq!(
                format!("{outcome:?}"),
                baselines[i],
                "seed {seed}: job {} diverged from its fault-free baseline",
                jobs[i].0
            );
        }
        let stats = service.stats();
        let fired_this_seed = guard.fired("worker.panic")
            + guard.fired("cache.checkout_fail")
            + guard.fired("sat.flaky");
        assert!(
            stats.jobs_retried >= fired_this_seed.min(1),
            "seed {seed}: fired faults must show up as retries"
        );
        assert_eq!(
            stats.worker_panics,
            guard.fired("worker.panic"),
            "seed {seed}: every injected panic is counted"
        );
        total_retried += stats.jobs_retried;
        panics += guard.fired("worker.panic");
        checkouts += guard.fired("cache.checkout_fail");
        flakies += guard.fired("sat.flaky");
        service.shutdown();
    }

    // Falsification power: a sweep in which a declared point never
    // fired proves nothing about that fault path.
    assert!(panics >= 1, "worker.panic never fired across the sweep");
    assert!(
        checkouts >= 1,
        "cache.checkout_fail never fired across the sweep"
    );
    assert!(flakies >= 1, "sat.flaky never fired across the sweep");
    assert!(total_retried >= 1, "no job was ever retried");
}

/// `sat.stall` wedges a SAT dispatch until the cancel token rises: the
/// per-job deadline must cut the stalled run loose mid-iteration with
/// the typed error, and the worker must come back healthy.
#[test]
fn deadlines_cut_stalled_jobs_loose_with_the_typed_error() {
    let _guard = chaos_lock();
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let d = gm_designs::by_name("arbiter2").unwrap();
    let module = d.module();
    let gnt0 = module.require("gnt0").unwrap();
    let config = EngineConfig {
        window: d.window,
        stimulus: SeedStimulus::Random { cycles: 32 },
        targets: TargetSelection::Bits(vec![(gnt0, 0)]),
        record_coverage: false,
        ..EngineConfig::default()
    };

    let fault =
        gm_fault::arm(gm_fault::FaultPlan::new(7).point_limited("sat.stall", gm_fault::PPM, 1));
    let submitted_at = Instant::now();
    let (job, _) = service
        .submit_module(
            "stalled",
            module,
            config,
            SubmitOptions {
                deadline_ms: Some(500),
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert_eq!(service.wait(job), Some(JobState::Failed));
    let latency = submitted_at.elapsed();
    assert!(
        latency < Duration::from_secs(15),
        "deadline enforcement took {latency:?}"
    );
    match service.take_outcome(job).unwrap() {
        Err(JobError::DeadlineExceeded { deadline_ms: 500 }) => {}
        other => panic!("expected the typed deadline error, got {other:?}"),
    }
    let status = service.status(job).unwrap();
    assert_eq!(
        status.error.as_deref(),
        Some("deadline exceeded after 500ms")
    );
    assert_eq!(service.stats().jobs_deadline_exceeded, 1);
    assert_eq!(fault.fired("sat.stall"), 1, "the stall must have fired");
    drop(fault);

    // The worker survived the stalled job and keeps serving.
    let (next, _) = service
        .submit_module(
            "after-stall",
            tiny_module(),
            tiny_config(),
            SubmitOptions::default(),
        )
        .unwrap();
    assert_eq!(service.wait(next), Some(JobState::Done));
    service.shutdown();
}

/// A queued job whose deadline expires before any worker claims it is
/// retired by the supervisor with the same typed error — no worker
/// time is spent on work nobody can use.
#[test]
fn queued_jobs_expire_at_their_deadline_without_running() {
    let _guard = chaos_lock();
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (slow_module, slow_config, stall) = slow_job();
    let (slow, _) = service
        .submit_module("hog", slow_module, slow_config, SubmitOptions::default())
        .unwrap();
    poll_until(&service, slow, Duration::from_secs(30), |s| {
        s.state == JobState::Running
    });
    let (victim, _) = service
        .submit_module(
            "expiring",
            tiny_module(),
            tiny_config(),
            SubmitOptions {
                deadline_ms: Some(200),
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert_eq!(service.wait(victim), Some(JobState::Failed));
    match service.take_outcome(victim).unwrap() {
        Err(JobError::DeadlineExceeded { deadline_ms: 200 }) => {}
        other => panic!("expected the typed deadline error, got {other:?}"),
    }
    assert_eq!(service.stats().jobs_deadline_exceeded, 1);
    assert!(service.cancel(slow));
    assert_eq!(service.wait(slow), Some(JobState::Cancelled));
    assert_eq!(stall.fired("sat.stall"), 1, "the stall must have fired");
    service.shutdown();
}

/// Admission control: past the queue bound, submissions are shed with
/// the explicit typed refusal — in-process and over the wire — and the
/// shed counter moves. Shed requests never become jobs.
#[test]
fn overload_sheds_submissions_with_the_typed_refusal() {
    let _guard = chaos_lock();
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        max_queued: 1,
        ..ServeConfig::default()
    });
    let (slow_module, slow_config, stall) = slow_job();
    let (slow, _) = service
        .submit_module("hog", slow_module, slow_config, SubmitOptions::default())
        .unwrap();
    poll_until(&service, slow, Duration::from_secs(30), |s| {
        s.state == JobState::Running
    });
    // The queue takes exactly one job; the next submission is shed.
    let (queued, _) = service
        .submit_module(
            "queued",
            tiny_module(),
            tiny_config(),
            SubmitOptions::default(),
        )
        .unwrap();
    match service.submit_module(
        "shed",
        tiny_module(),
        tiny_config(),
        SubmitOptions::default(),
    ) {
        Err(ServeError::Overloaded {
            queued: 1,
            limit: 1,
        }) => {}
        other => panic!("expected the typed overload refusal, got {other:?}"),
    }
    // The wire dispatcher maps the refusal to its own response tag.
    match service.handle_request(&Request::Submit {
        name: "shed-wire".into(),
        source: "module w(input a, output y); assign y = ~a; endmodule".into(),
        config: WireConfig::default(),
        trace: false,
        deadline_ms: None,
    }) {
        Response::Overloaded {
            queued: 1,
            limit: 1,
        } => {}
        other => panic!("expected the wire overload response, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.requests_shed, 2);
    assert_eq!(
        stats.submitted, 2,
        "shed requests are never counted as submitted"
    );
    assert!(service.cancel(slow));
    assert_eq!(service.wait(slow), Some(JobState::Cancelled));
    assert_eq!(stall.fired("sat.stall"), 1, "the stall must have fired");
    assert_eq!(service.wait(queued), Some(JobState::Done));
    service.shutdown();
}

/// `worker.exit` kills a worker thread outright; the supervisor must
/// respawn the slot and the queued work must still complete.
#[test]
fn the_supervisor_respawns_dead_workers() {
    let _guard = chaos_lock();
    let fault =
        gm_fault::arm(gm_fault::FaultPlan::new(3).point_limited("worker.exit", gm_fault::PPM, 1));
    // The single worker dies on its first loop pass, before it can
    // claim anything; the job below completes only if the supervisor
    // brings the slot back.
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (job, _) = service
        .submit_module(
            "survivor",
            tiny_module(),
            tiny_config(),
            SubmitOptions::default(),
        )
        .unwrap();
    assert_eq!(service.wait(job), Some(JobState::Done));
    assert_eq!(fault.fired("worker.exit"), 1, "the exit must have fired");
    assert!(
        service.stats().workers_respawned >= 1,
        "the supervisor must have respawned the dead worker"
    );
    drop(fault);
    service.shutdown();
}

/// Graceful drain is *bounded*: with a drain timeout configured,
/// shutdown cancels whatever outlives it instead of hanging on a job
/// with minutes left to run.
#[test]
fn shutdown_drain_is_bounded_by_the_drain_timeout() {
    let _guard = chaos_lock();
    let service = ClosureService::new(ServeConfig {
        workers: 1,
        drain_timeout_ms: 300,
        ..ServeConfig::default()
    });
    let (slow_module, slow_config, stall) = slow_job();
    let (slow, _) = service
        .submit_module("hog", slow_module, slow_config, SubmitOptions::default())
        .unwrap();
    poll_until(&service, slow, Duration::from_secs(30), |s| {
        s.state == JobState::Running
    });
    let shutdown_at = Instant::now();
    service.shutdown();
    let elapsed = shutdown_at.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "bounded drain took {elapsed:?}"
    );
    assert_eq!(
        service.status(slow).unwrap().state,
        JobState::Cancelled,
        "the job that outlived the drain is cancelled, not lost"
    );
    assert_eq!(stall.fired("sat.stall"), 1, "the stall must have fired");
}

/// Network faults stay scoped to one connection: an injected abrupt
/// disconnect or a torn response frame surfaces as a clean client
/// error (never a hang or a desynced stream), and the next connection
/// is served normally.
#[test]
fn net_faults_end_one_connection_cleanly_and_spare_the_rest() {
    let _guard = chaos_lock();
    let path = std::env::temp_dir().join(format!("gm-serve-chaos-{}.sock", std::process::id()));
    let listener = gm_serve::bind_unix(&path).unwrap();
    let service = std::sync::Arc::new(ClosureService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = {
        let service = service.clone();
        std::thread::spawn(move || gm_serve::serve_unix(service, listener))
    };

    // Abrupt disconnect: the server drops the connection between a
    // request and its response; the client sees a clean EOF error.
    let fault = gm_fault::arm(gm_fault::FaultPlan::new(11).point_limited(
        "net.disconnect",
        gm_fault::PPM,
        1,
    ));
    let mut victim = gm_serve::ServeClient::connect(&path).unwrap();
    let err = victim
        .stats()
        .expect_err("the injected disconnect must error out");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert_eq!(fault.fired("net.disconnect"), 1);
    drop(fault);

    // Torn response frame: the length prefix promises more bytes than
    // arrive; the client's frame reader reports the truncation instead
    // of waiting forever.
    let fault = gm_fault::arm(gm_fault::FaultPlan::new(12).point_limited(
        "net.frame_truncate",
        gm_fault::PPM,
        1,
    ));
    let mut victim = gm_serve::ServeClient::connect(&path).unwrap();
    let err = victim
        .stats()
        .expect_err("the injected truncation must error out");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert_eq!(fault.fired("net.frame_truncate"), 1);
    drop(fault);

    // Fresh connections are untouched: a full submit→wait round trip.
    let mut client = gm_serve::ServeClient::connect(&path).unwrap();
    let (job, _) = client
        .submit(
            "after-faults",
            "module a(input x, output y); assign y = ~x; endmodule",
            &WireConfig::default(),
        )
        .unwrap();
    let summary = client.wait(job).unwrap();
    assert!(summary.converged);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}
