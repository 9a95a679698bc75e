//! `serve_mix`: the closure service behind its Unix socket, driven the
//! way a client drives it. Jobs are small on purpose — 0.2 to 2 ms of
//! engine time — so the queue, the wire codec, cache checkout/park and
//! tape reuse are most of each job; the closure workloads bypass all of
//! that.
//!
//! Closed loop: [`CONNECTIONS`] clients, each submitting and waiting
//! back to back, over a chunk of [`CHUNK`] jobs — the round's one item.
//! Three jobs in four cycle a pool of six tiny catalog designs (cache
//! hits); every fourth is a generated design that never repeats, in
//! this chunk or any other (a miss, and with eight cache slots an
//! eviction). `--seed` derives the generated designs' shapes and engine
//! seeds. The pool's engine seeds and order are fixed: a pool design's
//! outcome — and with it the size of the render each of its jobs sends
//! back — varies several-fold with its engine seed, and which two pool
//! jobs meet on the two connections moved `wall_s` by 4% between
//! orders; with both fixed, ten seeds agree within 1.5%.

use super::{fastest_setup, peak_rss_mb, Ctx, Fastest, Phase, Tracer};
use crate::api::{self, Client, Design, Hosted, Job, RunConfig, ServeNumbers};
use crate::fold::Folded;
use crate::metrics::Report;
use crate::stats::{fnv1a, median, tail_percentile, Rng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

const POOL: [&str; 6] = ["cex_small", "arbiter2", "b01", "b02", "b09", "wb_stage"];
/// Client connections, and service workers: the box has two cores.
const CONNECTIONS: usize = 2;
/// Jobs per chunk: 6 cycles of the pool and 12 misses, ~0.6 s here.
const CHUNK: usize = 48;
/// Root of the pool's fixed engine seeds.
const POOL_SEEDS: u64 = 0xC0FFEE;
/// Every `MISS_EVERY`-th job is a never-repeating design.
const MISS_EVERY: usize = 4;

/// A running service with its clients connected and the pool warm.
/// Dropping it shuts the service down and joins its threads.
struct Running {
    hosted: Option<Hosted>,
    clients: Vec<Client>,
    /// Counters after the warm round: the baseline for deltas.
    warm: ServeNumbers,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(hosted) = self.hosted.take() {
            if let Err(e) = hosted.stop() {
                eprintln!("gmbench: stopping the service: {e}");
            }
        }
    }
}

fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from("benchmark/out");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!(
        "serve-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Service start, connect, and one warm round over the pool.
fn start(pool_jobs: &[Job]) -> Result<Running, String> {
    let hosted = api::host_service(&socket_path(), CONNECTIONS)?;
    let socket = hosted.socket().to_path_buf();
    // From here on, an early return drops `running` and stops the service.
    let mut running = Running {
        hosted: Some(hosted),
        clients: Vec::new(),
        warm: ServeNumbers::default(),
    };
    for _ in 0..CONNECTIONS {
        running.clients.push(Client::connect(&socket)?);
    }
    for job in pool_jobs {
        running.clients[0].submit_wait(job)?;
    }
    running.warm = running.clients[0].stats()?;
    Ok(running)
}

/// A small random combinational design: `y = <expression over a, b, c,
/// d>`. The `slot`-th miss of every chunk has the same shape (drawn
/// from `--seed`), so all chunks are the same work; the module name
/// carries the chunk, so no two jobs of a run are the same design to the
/// cache.
fn generated_design(seed: u64, chunk: usize, slot: usize) -> (String, String) {
    fn expr(rng: &mut Rng, depth: u32) -> String {
        if depth == 0 || rng.below(5) == 0 {
            return ["a", "b", "c", "d"][rng.below(4) as usize].to_string();
        }
        match rng.below(5) {
            0 => format!("~({})", expr(rng, depth - 1)),
            1 => format!("({} & {})", expr(rng, depth - 1), expr(rng, depth - 1)),
            2 => format!("({} | {})", expr(rng, depth - 1), expr(rng, depth - 1)),
            3 => format!("({} ^ {})", expr(rng, depth - 1), expr(rng, depth - 1)),
            _ => format!(
                "({} ? {} : {})",
                expr(rng, depth - 1),
                expr(rng, depth - 1),
                expr(rng, depth - 1)
            ),
        }
    }
    let mut rng = Rng::new(seed).fork("generated");
    let mut rng = Rng::new(rng.next_u64() ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let name = format!("g{:08x}_{chunk}_{slot}", seed as u32);
    let body = expr(&mut rng, 3);
    let source = format!(
        "module {name}(input a, input b, input c, input d, output y); assign y = {body}; endmodule"
    );
    (name, source)
}

/// The pool, in [`POOL`]'s order, on its fixed engine seeds.
struct Pool {
    jobs: Vec<Job>,
    designs: Vec<Design>,
    configs: Vec<RunConfig>,
}

fn small(seed: u64) -> RunConfig {
    RunConfig {
        record_coverage: false,
        ..RunConfig::default_with_seed(seed)
    }
}

fn pool() -> Result<Pool, String> {
    let mut pool = Pool {
        jobs: Vec::new(),
        designs: Vec::new(),
        configs: Vec::new(),
    };
    for name in POOL {
        let design = Design::catalog(name)?;
        let config = small(Rng::new(POOL_SEEDS).fork(name).next_u64());
        pool.jobs.push(api::job_for(
            &design.name,
            &design.source,
            design.window,
            &config,
        )?);
        pool.designs.push(design);
        pool.configs.push(config);
    }
    Ok(pool)
}

/// The `index`-th chunk's job list: the pool cycled, every
/// [`MISS_EVERY`]-th job a design no other job of the run uses. Every
/// chunk is the same work: same pool order, same generated shapes and
/// engine seeds.
fn chunk_jobs(ctx: &Ctx, pool: &Pool, index: usize, len: usize) -> Result<Vec<Job>, String> {
    let mut seeds = Rng::new(ctx.seed).fork("generated-seeds");
    let mut jobs = Vec::with_capacity(len);
    let mut hits = 0;
    for k in 0..len {
        if k % MISS_EVERY == MISS_EVERY - 1 {
            let (name, source) = generated_design(ctx.seed, index, k / MISS_EVERY);
            jobs.push(api::job_for(&name, &source, 0, &small(seeds.next_u64()))?);
        } else {
            jobs.push(pool.jobs[hits % pool.jobs.len()].clone());
            hits += 1;
        }
    }
    Ok(jobs)
}

/// What a load thread brings back per job: its index in the chunk, its
/// latency in ms, and the result.
type Answer = (usize, f64, Result<api::JobResult, String>);

/// One served chunk.
struct Served {
    latencies_ms: Vec<f64>,
    /// Σ `iterations` over the chunk's distinct configs (each pool job
    /// once, every generated job).
    iterations: u64,
    /// Counter deltas over the chunk.
    before: ServeNumbers,
    after: ServeNumbers,
    /// FNV-1a of each job's rendered outcome, in list order.
    render_hashes: Vec<u64>,
    /// The pool designs' renders (the first time each was served).
    pool_renders: Vec<Option<String>>,
}

/// The timed interval: every job of the chunk, over the connections.
/// Returns the wall time and what came back.
fn serve_chunk(
    running: &mut Running,
    pool: &Pool,
    jobs: &[Job],
    report: &mut Report,
) -> (f64, Served) {
    let before = running.clients[0].stats().unwrap_or(running.warm);
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = running
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(job) = jobs.get(k) else { return done };
                        let sent = Instant::now();
                        let result = client.submit_wait(job);
                        done.push((k, sent.elapsed().as_secs_f64() * 1e3, result));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = match running.clients[0].stats() {
        Ok(stats) => stats,
        Err(e) => {
            report.fail(e);
            before
        }
    };
    let mut served = Served {
        latencies_ms: Vec::with_capacity(jobs.len()),
        iterations: 0,
        before,
        after,
        render_hashes: vec![0; jobs.len()],
        pool_renders: vec![None; pool.jobs.len()],
    };
    let mut done: Vec<_> = per_client.into_iter().flatten().collect();
    done.sort_by_key(|(k, _, _)| *k);
    for (k, ms, result) in done {
        served.latencies_ms.push(ms);
        match result {
            Ok(r) => {
                served.render_hashes[k] = fnv1a(r.outcome_debug.as_bytes());
                match pool.jobs.iter().position(|j| j.name == jobs[k].name) {
                    Some(p) if served.pool_renders[p].is_none() => {
                        served.iterations += u64::from(r.iterations);
                        served.pool_renders[p] = Some(r.outcome_debug);
                    }
                    Some(_) => {}
                    None => served.iterations += u64::from(r.iterations),
                }
            }
            Err(e) => report.fail(e),
        }
    }
    if after.completed - before.completed != jobs.len() as u64 {
        report.fail(format!(
            "{} of {} jobs ended done",
            after.completed - before.completed,
            jobs.len()
        ));
    }
    if after.submitted != after.completed + after.failed + after.cancelled {
        report.fail(format!(
            "service counters do not add up: submitted {} != completed {} + failed {} + cancelled {}",
            after.submitted, after.completed, after.failed, after.cancelled
        ));
    }
    (wall_s, served)
}

/// A phase of chunks against `running`. Chunk indices start at `first`
/// so no generated design is ever served twice in the process's life.
fn rounds(
    ctx: &Ctx,
    running: &mut Running,
    pool: &Pool,
    first: usize,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> (Fastest<(Served, Folded)>, Vec<f64>, usize) {
    let len = if ctx.smoke { 24 } else { CHUNK };
    let mut fastest = Fastest::new(1);
    let mut all_latencies = Vec::new();
    let mut index = first;
    let mut phase = Phase::start(ctx);
    loop {
        match chunk_jobs(ctx, pool, index, len) {
            Ok(jobs) => {
                let (wall_s, served) = serve_chunk(running, pool, &jobs, report);
                let folded = tracer.as_mut().map(|t| t.take()).unwrap_or_default();
                all_latencies.extend_from_slice(&served.latencies_ms);
                fastest.offer(0, wall_s, || (served, folded));
            }
            Err(e) => report.fail(e),
        }
        index += 1;
        if !phase.another(ctx) {
            return (fastest, all_latencies, index);
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();

    // Generating the inputs is the benchmark's work, not set-up.
    let pool = match pool() {
        Ok(pool) => pool,
        Err(e) => {
            report.attempted = 1;
            report.fail(e);
            return report;
        }
    };
    report.set("rtl.parse_s", pool.designs.iter().map(|d| d.parse_s).sum());
    report.set(
        "rtl.elaborate_s",
        pool.designs.iter().map(|d| d.elaborate_s).sum(),
    );
    report.set(
        "sim.compile_s",
        pool.designs.iter().map(|d| d.compile_s).sum(),
    );

    let mut running = match fastest_setup(&mut report, || start(&pool.jobs)) {
        Ok(running) => running,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };

    // Untraced chunks.
    let (fastest, latencies, next_chunk) = rounds(ctx, &mut running, &pool, 0, &mut report, None);
    drop(running);
    let Some((best, _)) = fastest.values().next() else {
        report.fail("no chunk was served");
        return report;
    };
    let wall_s = fastest.total_seconds();
    report.attempted = latencies.len() as u64;
    report.note(format!(
        "{next_chunk} untraced chunks of {} jobs",
        best.latencies_ms.len()
    ));
    report.set("wall_s", wall_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("jobs_per_s", best.latencies_ms.len() as f64 / wall_s);
    let p50 = median(&best.latencies_ms);
    report.set("job_p50_ms", p50);
    report.note(format!(
        "job_p50_ms is the median of the fastest chunk's {} jobs",
        best.latencies_ms.len()
    ));
    let (tail, tail_ms) = tail_percentile(&latencies, 99.0);
    report.set("serve.job_p99_ms", tail_ms);
    report.note(format!(
        "serve.job_p99_ms is p{tail} of all {} untraced jobs (the highest percentile with ten samples beyond it)",
        latencies.len()
    ));
    report.set("iterations", best.iterations as f64);
    let run_mean_ms = serve_stats(&mut report, &best.before, &best.after);
    report.set("serve.overhead_ms", p50 - run_mean_ms);

    // Oracle: each pool design's served render equals a standalone
    // engine run's.
    let mut standalone = Vec::new();
    for ((design, config), served) in pool
        .designs
        .iter()
        .zip(&pool.configs)
        .zip(&best.pool_renders)
    {
        match api::run_closure(design, config) {
            Ok(run) => {
                let render = api::closure_render(&run).unwrap_or_default();
                if served.as_ref() != Some(&render) {
                    report.fail(format!(
                        "{}: the served outcome differs from a standalone run",
                        design.name
                    ));
                }
                standalone.push((run.wall_s, render));
            }
            Err(e) => report.fail(e),
        }
    }
    let sizes: Vec<String> = pool
        .designs
        .iter()
        .zip(&standalone)
        .map(|(d, (s, render))| {
            format!(
                "{} {} B / {:.2} ms standalone",
                d.name,
                render.len(),
                s * 1e3
            )
        })
        .collect();
    report.note(format!("pool renders: {}", sizes.join(", ")));
    let bytes: Vec<u8> = best
        .render_hashes
        .iter()
        .flat_map(|h| h.to_le_bytes())
        .collect();
    report.outcome_hash = fnv1a(&bytes);

    if ctx.traced {
        layer_probes(&mut report, &pool, &standalone, run_mean_ms);
        traced_rounds(ctx, &mut report, &pool, next_chunk, wall_s);
    }
    report
}

/// The service's own counters over one chunk. Returns the mean run
/// time per job, ms.
fn serve_stats(report: &mut Report, before: &ServeNumbers, after: &ServeNumbers) -> f64 {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.set("serve.cache_hits", hits);
    report.set("serve.cache_misses", misses);
    report.set(
        "serve.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    if hits + misses > 0.0 {
        report.set("serve.cache_hit_ratio", hits / (hits + misses));
    }
    report.set(
        "serve.compiled_built",
        (after.compiled_built - before.compiled_built) as f64,
    );
    report.set(
        "serve.compiled_reused",
        (after.compiled_reused - before.compiled_reused) as f64,
    );
    report.set("serve.steals", (after.steals - before.steals) as f64);
    report.set(
        "serve.jobs_retried",
        (after.jobs_retried - before.jobs_retried) as f64,
    );
    report.set(
        "serve.requests_shed",
        (after.requests_shed - before.requests_shed) as f64,
    );
    report.set("serve.failed", (after.failed - before.failed) as f64);
    let mean_ms = |sum_s: f64, n: u64| if n > 0 { 1e3 * sum_s / n as f64 } else { 0.0 };
    report.set(
        "serve.queue_mean_ms",
        mean_ms(
            after.queue_sum_s - before.queue_sum_s,
            after.queue_count - before.queue_count,
        ),
    );
    let run_mean_ms = mean_ms(
        after.wall_sum_s - before.wall_sum_s,
        after.wall_count - before.wall_count,
    );
    report.set("serve.run_mean_ms", run_mean_ms);
    run_mean_ms
}

fn layer_probes(report: &mut Report, pool: &Pool, standalone: &[(f64, String)], run_mean_ms: f64) {
    for design in &pool.designs {
        match api::checker_build_s(design) {
            Ok(s) => report.add("mc.checker_build_s", s),
            Err(e) => report.fail(e),
        }
    }
    if standalone.is_empty() {
        return;
    }
    // Served vs standalone: what a job costs inside the service
    // (generated designs included) against the bare engine run of a
    // pool design.
    let standalone_ms =
        1e3 * standalone.iter().map(|(s, _)| s).sum::<f64>() / standalone.len() as f64;
    if standalone_ms > 0.0 {
        report.set("serve.standalone_ratio", run_mean_ms / standalone_ms);
    }
    // The codec alone, over one request/response pair per pool design;
    // the fastest of a few passes, as everywhere.
    let messages: Vec<(&Job, &str)> = pool
        .jobs
        .iter()
        .zip(standalone)
        .map(|(job, (_, render))| (job, render.as_str()))
        .collect();
    let mut codec_s = f64::INFINITY;
    for _ in 0..20 {
        match api::codec_round_trip_s(&messages) {
            Ok(s) => codec_s = codec_s.min(s),
            Err(e) => return report.fail(e),
        }
    }
    report.set("serve.codec_s", codec_s);
}

/// More chunks against a fresh service, recorder on.
fn traced_rounds(ctx: &Ctx, report: &mut Report, pool: &Pool, first_chunk: usize, untraced_s: f64) {
    let mut tracer = match Tracer::install() {
        Ok(tracer) => tracer,
        Err(e) => return report.fail(e),
    };
    let mut running = match start(&pool.jobs) {
        Ok(running) => running,
        Err(e) => return report.fail(e),
    };
    // The warm round is set-up: its spans are not a chunk's.
    tracer.take();
    let (traced, _, next_chunk) = rounds(
        ctx,
        &mut running,
        pool,
        first_chunk,
        report,
        Some(&mut tracer),
    );
    drop(running);
    report.note(format!("{} traced chunks", next_chunk - first_chunk));
    let traced_s = traced.total_seconds();
    let best = traced.values().next();
    if let Some((best, folded)) = best {
        // `serve.queue` is only recorded into a per-job sink; the
        // service observes the same interval into its queue histogram.
        report.set(
            "serve.queue_s",
            best.after.queue_sum_s - best.before.queue_sum_s,
        );
        tracer.report(report, folded, untraced_s, traced_s);
    }
}
