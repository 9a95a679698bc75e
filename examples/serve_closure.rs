//! Drive the persistent closure service over its Unix-socket protocol
//! with several concurrent clients.
//!
//! Two modes:
//!
//! * `GM_SERVE_SOCKET=/path/to.sock cargo run --example serve_closure`
//!   — connect to an already-running `gmserved` (this is what the CI
//!   smoke test does: launch the daemon, run this client, assert a
//!   clean shutdown);
//! * `cargo run --example serve_closure` — no socket given: spawn the
//!   service in-process on a temporary socket first, then run the same
//!   scenario against it.
//!
//! Three clients submit the small catalog designs concurrently (with
//! deliberate repeats, so the content-addressed cache gets hits), poll
//! per-iteration progress, and print the merged results plus the
//! server's scheduler/cache counters.
//!
//! Before any of that, one submission carries a size above its wire
//! bound; the server must answer with a typed refusal and keep serving.
//!
//! Afterwards one job is re-submitted with the flight recorder on and
//! its Chrome trace is fetched over the wire; set `GM_SERVE_TRACE_OUT`
//! to a path to save it (load the file in Perfetto / `chrome://tracing`
//! to see the queue/engine/solver span tree).

use gm_serve::{ClosureService, ServeClient, ServeConfig, SubmitOptions, WireConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DESIGNS: [&str; 5] = ["cex_small", "arbiter2", "b01", "b02", "b09"];

fn wire_config(design: &gm_designs::DesignInfo) -> WireConfig {
    let module = design.module();
    let targets: Vec<(String, u32)> = module
        .outputs()
        .into_iter()
        .filter(|&s| module.signal_width(s) == 1)
        .map(|s| (module.signal(s).name().to_string(), 0))
        .collect();
    WireConfig {
        window: design.window,
        random_cycles: Some(32),
        max_iterations: 12,
        record_coverage: false,
        ..WireConfig::default()
    }
    .with_bit_targets(targets)
}

fn client_scenario(path: &Path, client: usize) -> std::io::Result<Vec<String>> {
    let mut conn = ServeClient::connect(path)?;
    let mut lines = Vec::new();
    // Each client walks the design list from its own offset, so the
    // same designs arrive from different clients at different times.
    for step in 0..DESIGNS.len() {
        let name = DESIGNS[(client + step) % DESIGNS.len()];
        let design = gm_designs::by_name(name).expect("catalog design");
        let (job, cached) = conn.submit(name, design.source, &wire_config(&design))?;
        // Stream progress until the job goes terminal, then collect the
        // summary.
        let mut seen = 0u64;
        loop {
            let (events, terminal) = conn.progress(job, seen)?;
            seen += events.len() as u64;
            if terminal {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let summary = conn.wait(job)?;
        lines.push(format!(
            "client {client} {name:<10} job {job:<3} cached={cached:<5} converged={:<5} iterations={:<2} proved={:<3} cycles={}",
            summary.converged,
            summary.iterations,
            summary.assertions.len(),
            summary.suite_cycles,
        ));
    }
    Ok(lines)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (path, local_server) = match std::env::var("GM_SERVE_SOCKET") {
        Ok(p) => (PathBuf::from(p), None),
        Err(_) => {
            let path =
                std::env::temp_dir().join(format!("gm-serve-example-{}.sock", std::process::id()));
            let listener = gm_serve::bind_unix(&path)?;
            let service = Arc::new(ClosureService::new(ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            }));
            println!(
                "no GM_SERVE_SOCKET: serving in-process on {}",
                path.display()
            );
            let handle = std::thread::spawn(move || gm_serve::serve_unix(service, listener));
            (path, Some(handle))
        }
    };

    // Counters are daemon-lifetime: snapshot them first so the checks
    // below hold against an external server with prior traffic too.
    let baseline = ServeClient::connect(&path)?.stats()?;

    // A hostile config first: a window that would size a multi-gigabyte
    // feature table. The server must refuse it with a typed error
    // before it becomes a job — and keep serving everything below.
    let design = gm_designs::by_name("arbiter2").expect("catalog design");
    let hostile = WireConfig {
        window: u32::MAX,
        ..wire_config(&design)
    };
    let refusal = ServeClient::connect(&path)?
        .submit("hostile", design.source, &hostile)
        .expect_err("an over-bound window must be refused");
    assert!(
        refusal.to_string().contains("field 'window'") && refusal.to_string().contains("bound"),
        "unexpected refusal: {refusal}"
    );
    println!("hostile config refused: {refusal}");

    let results: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|client| {
                let path = &path;
                scope.spawn(move || client_scenario(path, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<_, _>>()
    })?;
    for lines in results {
        for line in lines {
            println!("{line}");
        }
    }

    let mut conn = ServeClient::connect(&path)?;

    // One traced job: the recorder rides along only for submissions
    // that ask for it, and the trace is served once the job is
    // terminal.
    let (traced_job, _) = conn.submit_with(
        "arbiter2-traced",
        design.source,
        &wire_config(&design),
        SubmitOptions {
            trace: true,
            ..SubmitOptions::default()
        },
    )?;
    conn.wait(traced_job)?;
    let trace = conn.trace(traced_job)?;
    let spans = trace.matches("\"ph\":\"X\"").count();
    match std::env::var_os("GM_SERVE_TRACE_OUT") {
        Some(out) => {
            std::fs::write(&out, &trace)?;
            println!(
                "\ntraced job {traced_job}: {spans} spans, {} bytes -> {}",
                trace.len(),
                Path::new(&out).display()
            );
        }
        None => println!(
            "\ntraced job {traced_job}: {spans} spans, {} bytes (set GM_SERVE_TRACE_OUT to save)",
            trace.len()
        ),
    }

    let stats = conn.stats()?;
    println!(
        "\nserver: {} submitted, {} completed on {} workers; cache {} hits / {} misses / {} evictions ({} KiB resident)",
        stats.submitted,
        stats.completed,
        stats.workers,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_bytes / 1024,
    );
    // The three scenario clients plus the traced re-submission; the
    // refused config never counted as submitted.
    let jobs = (DESIGNS.len() * 3 + 1) as u64;
    assert_eq!(stats.completed - baseline.completed, jobs);
    assert_eq!(stats.submitted - baseline.submitted, jobs);
    assert!(
        stats.cache_hits - baseline.cache_hits >= (DESIGNS.len() * 2) as u64,
        "repeats must hit the cache"
    );
    // In-process servers always get shut down; an external `gmserved`
    // only when the caller asks (the CI smoke test sets this to assert
    // the daemon's clean-shutdown path).
    if local_server.is_some() || std::env::var_os("GM_SERVE_SHUTDOWN").is_some() {
        conn.shutdown()?;
        println!("sent shutdown");
    } else {
        println!("leaving the external server running (set GM_SERVE_SHUTDOWN=1 to stop it)");
    }
    // The accept loop joins connection threads before returning: hang
    // up before waiting on it.
    drop(conn);
    if let Some(handle) = local_server {
        handle.join().expect("server thread")?;
        let _ = std::fs::remove_file(&path);
    }
    println!("done");
    Ok(())
}
