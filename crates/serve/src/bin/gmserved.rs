//! `gmserved` — the closure-service daemon.
//!
//! ```text
//! gmserved <socket-path> [--workers N] [--cache N] [--cache-bytes N]
//!          [--deadline-ms N] [--max-retries N] [--retry-backoff-ms N]
//!          [--max-queued N] [--max-queued-bytes N] [--drain-timeout-ms N]
//! ```
//!
//! Binds a Unix-domain socket (replacing a stale file), serves closure
//! requests until a client sends `shutdown`, drains accepted work, and
//! exits 0. Drive it with `gm_serve::ServeClient` or the
//! `serve_closure` example.

use gm_serve::{bind_unix, serve_unix, ClosureService, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gmserved <socket-path> [--workers N] [--cache N] [--cache-bytes N] \
         [--deadline-ms N] [--max-retries N] \
         [--retry-backoff-ms N] [--max-queued N] [--max-queued-bytes N] \
         [--drain-timeout-ms N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next().map(PathBuf::from) else {
        return usage();
    };
    let mut config = ServeConfig::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage(),
            },
            "--cache" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.cache_capacity = n,
                None => return usage(),
            },
            "--cache-bytes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.cache_max_bytes = n,
                None => return usage(),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.default_deadline_ms = n,
                None => return usage(),
            },
            "--max-retries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.retry.max_retries = n,
                None => return usage(),
            },
            "--retry-backoff-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.retry.base_ms = n,
                None => return usage(),
            },
            "--max-queued" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_queued = n,
                None => return usage(),
            },
            "--max-queued-bytes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_queued_bytes = n,
                None => return usage(),
            },
            "--drain-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.drain_timeout_ms = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let listener = match bind_unix(&path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gmserved: cannot bind {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let service = Arc::new(ClosureService::new(config.clone()));
    println!(
        "gmserved: listening on {} ({} workers, cache {})",
        path.display(),
        service.stats().workers,
        config.cache_capacity,
    );
    let result = serve_unix(service.clone(), listener);
    let _ = std::fs::remove_file(&path);
    match result {
        Ok(()) => {
            let stats = service.stats();
            println!(
                "gmserved: clean shutdown — {} submitted, {} completed, {} failed, {} cancelled, cache {}/{} hits",
                stats.submitted,
                stats.completed,
                stats.failed,
                stats.cancelled,
                stats.cache_hits,
                stats.cache_hits + stats.cache_misses,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gmserved: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
