//! The persistent closure service.
//!
//! A [`ClosureService`] owns a pool of long-lived workers running the
//! work-stealing queue discipline (`scheduler.rs`), a job table, and the
//! content-addressed [`crate::DesignCache`]. Requests arrive through the typed
//! API ([`ClosureService::submit_module`] & co., used in-process) or
//! through [`ClosureService::handle_request`] (the wire dispatcher the
//! Unix-socket server calls); both paths share all state, so a design
//! submitted over the socket warms the cache for in-process callers and
//! vice versa.
//!
//! ## Determinism
//!
//! A served job's [`ClosureOutcome`] is byte-identical to a standalone
//! [`Engine`] run of the same module and config, regardless of worker
//! count, scheduling policy, cache state, or what else the service is
//! doing: jobs never share mutable state, artifact reuse is
//! stats-invisible ([`gm_mc::Checker::reset_for_reuse`]), and the
//! engine's own determinism contract covers everything inside the run.
//! The differential suite (`tests/serve_agree.rs`) enforces this across
//! the whole design catalog.
//!
//! ## Resilience
//!
//! The lifecycle survives faults without giving up the contract above:
//!
//! * every attempt runs under panic isolation
//!   ([`std::panic::catch_unwind`]), so a panicking job fails *that
//!   job*, not the service; a supervisor thread respawns any worker
//!   whose thread died anyway (e.g. the injected `worker.exit` fault);
//! * retryable failures (injected transient faults — see [`gm_fault`] —
//!   and worker panics) are retried under the bounded, deterministic
//!   [`RetryPolicy`], with the design's possibly-poisoned cache entry
//!   invalidated first so the retry rebuilds from source; a retried
//!   job's outcome is byte-identical to a fault-free run
//!   (`tests/chaos_agree.rs`);
//! * per-job deadlines ([`SubmitOptions::deadline_ms`], defaulting to
//!   [`ServeConfig::default_deadline_ms`]) ride the same cooperative
//!   mid-iteration cancel token as [`ClosureService::cancel`], ending
//!   with the typed [`JobError::DeadlineExceeded`];
//! * admission control ([`ServeConfig::max_queued`] /
//!   [`ServeConfig::max_queued_bytes`]) sheds excess submissions with
//!   the explicit [`ServeError::Overloaded`] instead of letting the
//!   queue grow without bound;
//! * [`ClosureService::shutdown`] drains gracefully, bounded by
//!   [`ServeConfig::drain_timeout_ms`].
//!
//! The job table itself is a pure state machine (`lifecycle.rs`): this
//! module only drives it — submission, the workers' retry loop, the
//! supervisor tick and shutdown each call one transition under the
//! state lock. The README's *Resilience* section has the transition
//! table: which event ends a job how, and which counter it moves.

use crate::lifecycle::{terminal, Claim, Ending, JobTable, Reclaimed, Refusal, Submission};
use crate::protocol::{
    ClosureSummary, JobState, ProgressEvent, Request, Response, ServeStats, WireConfig,
};
use crate::retry::RetryPolicy;
use crate::scheduler::StealQueues;
use gm_mc::Checker;
use gm_rtl::Module;
use goldmine::{
    ClosureOutcome, CompiledModule, Engine, EngineConfig, EngineError, IterationReport, SimBackend,
    Step, StopReason,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker-pool size; 0 = one per available core.
    pub workers: usize,
    /// Design-cache capacity (distinct designs kept warm).
    pub cache_capacity: usize,
    /// Design-cache byte budget (0 = unbounded). When resident warm
    /// state exceeds it, entries are evicted LRU-first until back under
    /// budget — so a handful of huge designs can no longer hold ~all
    /// memory while tiny warm designs are evicted by the entry count.
    /// See [`crate::DesignCache::with_max_bytes`].
    pub cache_max_bytes: usize,
    /// How many *finished* job records (progress, summary, any
    /// untaken outcome) the table retains; the oldest finished records
    /// are dropped past the bound, so a long-lived daemon's memory
    /// stays bounded. Queued/running jobs are never dropped. A client
    /// polling a dropped job sees "unknown job".
    pub retain_jobs: usize,
    /// Default per-job deadline in milliseconds, applied to
    /// submissions that don't carry their own
    /// [`SubmitOptions::deadline_ms`]. 0 = no deadline. Enforced by
    /// the supervisor through the job's cooperative cancel token; an
    /// expired job fails with [`JobError::DeadlineExceeded`].
    pub default_deadline_ms: u64,
    /// Bounded retry/backoff for retryable failures (injected
    /// transient faults and worker panics); see [`RetryPolicy`].
    pub retry: RetryPolicy,
    /// Admission bound on queue *depth*: a submission that would leave
    /// more than this many jobs queued is shed with
    /// [`ServeError::Overloaded`]. 0 = unbounded.
    pub max_queued: usize,
    /// Admission bound on queued *bytes* (the canonical source text
    /// held by queued jobs). 0 = unbounded.
    pub max_queued_bytes: usize,
    /// How long [`ClosureService::shutdown`] waits for in-flight and
    /// queued jobs to drain before cancelling whatever is left. 0 =
    /// wait forever (the pre-resilience behavior).
    pub drain_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_capacity: 8,
            cache_max_bytes: 0,
            retain_jobs: 1024,
            default_deadline_ms: 0,
            retry: RetryPolicy::default(),
            max_queued: 0,
            max_queued_bytes: 0,
            drain_timeout_ms: 0,
        }
    }
}

/// A submission-time failure: the request never became a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request was malformed (parse, elaboration or
    /// target-resolution errors).
    Rejected(String),
    /// Admission control shed the request: the queue is at its
    /// configured bound ([`ServeConfig::max_queued`] /
    /// [`ServeConfig::max_queued_bytes`]). Retryable by the client
    /// once the backlog drains.
    Overloaded {
        /// Jobs queued at the time of the refusal.
        queued: u64,
        /// The bound that was hit (depth or bytes, whichever tripped).
        limit: u64,
    },
    /// The service no longer accepts submissions.
    ShutDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(msg) => write!(f, "serve: {msg}"),
            ServeError::Overloaded { queued, limit } => write!(
                f,
                "serve: overloaded ({queued} jobs queued, limit {limit}); retry later"
            ),
            ServeError::ShutDown => write!(f, "serve: service is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a job ended in [`JobState::Failed`] — the typed half of
/// [`ClosureService::take_outcome`].
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The engine failed deterministically (elaboration/simulation
    /// errors, model-checking resource limits). Never retried: an
    /// identical rerun reproduces the failure.
    Engine(EngineError),
    /// The job's deadline expired before it finished. The run was
    /// stopped through the cooperative cancel token, mid-iteration.
    DeadlineExceeded {
        /// The deadline that expired, in milliseconds from submission.
        deadline_ms: u64,
    },
    /// A retryable failure (injected transient fault or worker panic)
    /// survived the whole retry budget.
    RetriesExhausted {
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// The last attempt's failure, as text.
        last: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Engine failures keep their pre-resilience status text.
            JobError::Engine(e) => write!(f, "{e}"),
            JobError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline exceeded after {deadline_ms}ms")
            }
            JobError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for JobError {
    fn from(e: EngineError) -> Self {
        JobError::Engine(e)
    }
}

/// Per-submission options for [`ClosureService::submit_module`] /
/// [`ClosureService::submit_source`] and, over the socket,
/// [`crate::ServeClient::submit_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Capture a per-job flight recording: structured spans for the
    /// job's whole claim→retire window (engine iterations, SAT queries,
    /// simulation batches, cache interactions), retrievable as Chrome
    /// trace-event JSON via [`ClosureService::trace_json`] once
    /// terminal. Tracing never changes the outcome — the `trace_agree`
    /// suite proves byte-identity recorder on/off.
    pub trace: bool,
    /// Per-job deadline in milliseconds from submission. `None` falls
    /// back to [`ServeConfig::default_deadline_ms`]; an explicit
    /// `Some(0)` opts *out* of any deadline even when the server has a
    /// default.
    pub deadline_ms: Option<u64>,
}

/// A status snapshot of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Job label.
    pub name: String,
    /// Progress events recorded so far.
    pub progress_len: usize,
    /// The engine error, for failed jobs.
    pub error: Option<String>,
    /// Whether the design's artifacts were cached at submission.
    pub cached: bool,
}

/// Locks the service state, recovering from poisoning. Job execution —
/// the only panic-prone code — runs under `catch_unwind` *outside* this
/// lock, and every critical section leaves the table consistent before
/// unlocking, so a poisoned lock (a panicking progress callback, say)
/// carries no torn state worth wedging the whole service over.
fn lock_state(state: &Mutex<JobTable>) -> MutexGuard<'_, JobTable> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    config: ServeConfig,
    queues: StealQueues<u64>,
    state: Mutex<JobTable>,
    /// Notified (with the state mutex) whenever a job reaches a
    /// terminal state.
    done_cv: Condvar,
    open: AtomicBool,
    /// Worker thread slots, indexed by worker id. The supervisor joins
    /// and respawns any slot whose thread died (`worker.exit` faults,
    /// or a panic that escaped the attempt isolation).
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
}

/// The persistent closure service (see the module docs).
///
/// # Examples
///
/// ```
/// use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
/// use goldmine::{EngineConfig, SeedStimulus};
///
/// let service = ClosureService::new(ServeConfig { workers: 2, ..ServeConfig::default() });
/// let module = gm_rtl::parse_verilog(
///     "module m(input a, input b, output y); assign y = a & b; endmodule")?;
/// let config = EngineConfig {
///     window: 0,
///     stimulus: SeedStimulus::Random { cycles: 8 },
///     record_coverage: false,
///     ..EngineConfig::default()
/// };
/// let (job, cached) =
///     service.submit_module("andgate", module, config, SubmitOptions::default())?;
/// assert!(!cached, "first submission is a cache miss");
/// service.wait(job);
/// let outcome = service.take_outcome(job).unwrap()?;
/// assert!(outcome.converged);
/// service.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ClosureService {
    shared: Arc<Shared>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ClosureService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ClosureService({} workers)",
            self.shared.queues.worker_count()
        )
    }
}

/// How often the supervisor checks deadlines and dead workers.
const SUPERVISOR_TICK: Duration = Duration::from_millis(10);

impl ClosureService {
    /// Starts the service: spawns the worker pool and the supervisor,
    /// and returns the handle. Workers idle until submissions arrive.
    pub fn new(config: ServeConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            queues: StealQueues::new(workers),
            state: Mutex::new(JobTable::new(config.clone())),
            done_cv: Condvar::new(),
            open: AtomicBool::new(true),
            workers: Mutex::new(Vec::new()),
            config,
        });
        {
            let mut slots = shared
                .workers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for w in 0..workers {
                slots.push(Some(spawn_worker(&shared, w)));
            }
        }
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gmserve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn service supervisor")
        };
        ClosureService {
            shared,
            supervisor: Mutex::new(Some(supervisor)),
        }
    }

    fn state(&self) -> MutexGuard<'_, JobTable> {
        lock_state(&self.shared.state)
    }

    /// Submits Verilog source with a wire config (the socket path);
    /// `opts` as for [`ClosureService::submit_module`].
    ///
    /// # Errors
    ///
    /// Fails on parse, elaboration or target-resolution errors, when
    /// admission control sheds the request, or after shutdown.
    pub fn submit_source(
        &self,
        name: &str,
        source: &str,
        wire: &WireConfig,
        opts: SubmitOptions,
    ) -> Result<(u64, bool), ServeError> {
        let module = gm_rtl::parse_verilog(source)
            .map_err(|e| ServeError::Rejected(format!("parse error: {e}")))?;
        let config = wire
            .to_engine(&module)
            .map_err(|e| ServeError::Rejected(e.to_string()))?;
        self.submit_module(name, module, config, opts)
    }

    /// Submits a parsed module with a resolved engine config (the
    /// in-process path). Returns the job id and whether the design's
    /// artifacts were already cached. `opts` carries the
    /// per-submission extras — a flight recording, a deadline — and
    /// [`SubmitOptions::default`] asks for neither.
    ///
    /// # Errors
    ///
    /// Fails on elaboration errors, when admission control sheds the
    /// request, or after shutdown.
    pub fn submit_module(
        &self,
        name: &str,
        module: Module,
        config: EngineConfig,
        opts: SubmitOptions,
    ) -> Result<(u64, bool), ServeError> {
        let deadline_ms = opts
            .deadline_ms
            .unwrap_or(self.shared.config.default_deadline_ms);
        let canonical = crate::cache::canonical_form(&module);
        let mut sub = Box::new(Submission {
            name: name.to_string(),
            key: crate::cache::key_of(&canonical),
            canonical,
            config,
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            trace: opts.trace.then(gm_trace::TraceSink::new),
            built: None,
        });
        // Elaboration is the expensive part of a cold submission; do it
        // *outside* the state lock so a big design never stalls status
        // polls, progress streams or running jobs' iteration callbacks.
        // The loop handles the races: another submitter may insert the
        // design while we build (our build is discarded), or evict it
        // between our peek and our checkout (we build and retry).
        let mut module = Some(module);
        loop {
            let mut st = self.state();
            if !self.shared.open.load(Ordering::Acquire) {
                return Err(ServeError::ShutDown);
            }
            match st.admit(sub, gm_trace::now_ns()) {
                Ok((id, cached)) => {
                    // Deal to the owning worker's local queue (still
                    // under the state lock: `shutdown`'s post-join drain
                    // takes the same lock, so a submission racing
                    // shutdown either saw `open` false above or its id
                    // is visible to the drain); idle peers steal.
                    let worker = (id - 1) as usize % self.shared.queues.worker_count();
                    self.shared.queues.push(worker, id);
                    return Ok((id, cached));
                }
                Err(Refusal::Shed(e)) => return Err(e),
                Err(Refusal::Build(back)) => {
                    drop(st);
                    let module = module.take().expect("module consumed at most once");
                    let elab = gm_rtl::elaborate(&module)
                        .map_err(|e| ServeError::Rejected(format!("elaboration error: {e}")))?;
                    sub = back;
                    sub.built = Some((Arc::new(module), Arc::new(elab)));
                }
            }
        }
    }

    /// A job's current status.
    pub fn status(&self, job: u64) -> Option<JobStatus> {
        let st = self.state();
        st.job(job).map(|j| JobStatus {
            state: j.state,
            name: j.name.clone(),
            progress_len: j.progress.len(),
            error: j.error.clone(),
            cached: j.cached,
        })
    }

    /// Progress events from index `from` on, plus whether the job is
    /// terminal (polling `progress` with the last seen index streams
    /// per-iteration updates). A retried job's progress restarts: the
    /// failed attempt's events are cleared before the retry runs.
    pub fn progress(&self, job: u64, from: usize) -> Option<(Vec<ProgressEvent>, bool)> {
        let st = self.state();
        st.job(job).map(|j| {
            let events = j.progress.get(from..).unwrap_or(&[]).to_vec();
            (events, terminal(j.state))
        })
    }

    /// Requests cancellation. Queued jobs are dropped before they run;
    /// running jobs stop cooperatively *mid-iteration* — the token is
    /// polled between the checker's SAT queries and once per simulated
    /// cycle of every replay (see [`Engine::with_cancel`]), so a
    /// stuck job frees its worker without waiting for the iteration
    /// boundary. The partial outcome stays valid and is retrievable via
    /// [`ClosureService::take_outcome`]. Returns whether the job
    /// existed and was still cancellable.
    pub fn cancel(&self, job: u64) -> bool {
        let state = self.state().cancel(job);
        if state == Some(JobState::Queued) {
            // A worker's claim ends the job; wake any parked one.
            self.shared.queues.notify_all();
        }
        state.is_some()
    }

    /// Blocks until `job` reaches a terminal state; returns it (`None`
    /// for unknown jobs).
    pub fn wait(&self, job: u64) -> Option<JobState> {
        let mut st = self.state();
        loop {
            match st.job(job) {
                None => return None,
                Some(j) if terminal(j.state) => return Some(j.state),
                Some(_) => {
                    st = self
                        .shared
                        .done_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// A finished job's wire summary (`None` until it is `Done`, or
    /// after [`ClosureService::take_outcome`] — cancelled jobs' partial
    /// outcomes stay accessible through `take_outcome` only). Rendered
    /// on demand — the table stores one copy of the outcome, not a
    /// duplicate multi-KB debug string per retained job — and rendered
    /// *outside* the state lock: the lock is held for two `Arc` clones,
    /// so a large reply never stalls the workers' claim/retire or
    /// another connection.
    pub fn summary(&self, job: u64) -> Option<ClosureSummary> {
        let (outcome, module) = {
            let st = self.state();
            let j = st.job(job)?;
            match (&j.state, &j.outcome) {
                (JobState::Done, Some(Ok(outcome))) => (outcome.clone(), j.module.clone()),
                _ => return None,
            }
        };
        Some(ClosureSummary::from_outcome(&outcome, &module))
    }

    /// Removes and returns a finished job's full outcome — the
    /// in-process form the differential tests compare against
    /// standalone engine runs. Failed jobs carry the typed [`JobError`]
    /// (engine failure, deadline, exhausted retries).
    pub fn take_outcome(&self, job: u64) -> Option<Result<ClosureOutcome, JobError>> {
        let taken = self.state().take_outcome(job)?;
        // Cloned only when a concurrent `summary` is still rendering it.
        Some(taken.map(|shared| Arc::try_unwrap(shared).unwrap_or_else(|o| (*o).clone())))
    }

    /// A terminal traced job's flight recording as Chrome trace-event
    /// JSON (see [`SubmitOptions::trace`]). Exported on
    /// demand from the job's sink; repeat calls re-export the same
    /// recording.
    ///
    /// # Errors
    ///
    /// Fails for unknown jobs, jobs still queued or running, and jobs
    /// that were not submitted with tracing.
    pub fn trace_json(&self, job: u64) -> Result<String, ServeError> {
        let st = self.state();
        let Some(j) = st.job(job) else {
            return Err(ServeError::Rejected(format!("unknown job {job}")));
        };
        if !terminal(j.state) {
            return Err(ServeError::Rejected(format!(
                "job {job} is still {}; traces are exported once terminal",
                j.state.as_str()
            )));
        }
        match &j.trace {
            Some(sink) => Ok(sink.export_chrome_json()),
            None => Err(ServeError::Rejected(format!(
                "job {job} was not submitted with tracing"
            ))),
        }
    }

    /// Aggregate service counters. Internally consistent: every field
    /// is read under one acquisition of the state lock, and all job
    /// state transitions update their counters under the same lock, so
    /// `submitted == queued + running + completed + failed + cancelled`
    /// holds in every snapshot (shed requests are refused before they
    /// count as submitted).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            workers: self.shared.queues.worker_count() as u64,
            steals: self.shared.queues.steals(),
            ..self.state().snapshot()
        }
    }

    /// `job`'s status as a wire response.
    fn status_response(&self, job: u64) -> Response {
        match self.status(job) {
            Some(s) => Response::Status {
                job,
                state: s.state,
                name: s.name,
                progress_len: s.progress_len as u64,
                error: s.error,
            },
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        }
    }

    /// Dispatches one wire request — the single entry point the socket
    /// server (and any in-process framing user) calls.
    pub fn handle_request(&self, request: &Request) -> Response {
        match request {
            Request::Submit {
                name,
                source,
                config,
                trace,
                deadline_ms,
            } => {
                let opts = SubmitOptions {
                    trace: *trace,
                    deadline_ms: *deadline_ms,
                };
                match self.submit_source(name, source, config, opts) {
                    Ok((job, cached)) => Response::Submitted { job, cached },
                    Err(ServeError::Overloaded { queued, limit }) => {
                        Response::Overloaded { queued, limit }
                    }
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Status { job } => self.status_response(*job),
            Request::Progress { job, from } => match self.progress(*job, *from as usize) {
                Some((events, terminal)) => Response::Progress {
                    job: *job,
                    from: *from,
                    events,
                    terminal,
                },
                None => Response::Error {
                    message: format!("unknown job {job}"),
                },
            },
            Request::Wait { job } => match self.wait(*job) {
                Some(JobState::Done) => match self.summary(*job) {
                    Some(summary) => Response::Done { job: *job, summary },
                    // The record can be retired (the `retain_jobs`
                    // bound) between wait() and summary().
                    None => Response::Error {
                        message: format!("job {job} finished but its record was retired"),
                    },
                },
                Some(state) => {
                    let error = self.status(*job).and_then(|s| s.error);
                    Response::Error {
                        message: match error {
                            Some(e) => format!("job {job} {}: {e}", state.as_str()),
                            None => format!("job {job} {}", state.as_str()),
                        },
                    }
                }
                None => Response::Error {
                    message: format!("unknown job {job}"),
                },
            },
            Request::Cancel { job } => {
                if self.cancel(*job) {
                    self.status_response(*job)
                } else {
                    Response::Error {
                        message: format!("job {job} is unknown or already finished"),
                    }
                }
            }
            Request::Trace { job } => match self.trace_json(*job) {
                Ok(trace) => Response::Trace { job: *job, trace },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Request::Stats => Response::Stats {
                stats: Box::new(self.stats()),
            },
            Request::Metrics => Response::Metrics {
                text: self.stats().to_prometheus(),
            },
            Request::Shutdown => {
                // Begin the shutdown here so the wire path is
                // transport-agnostic: submissions are refused and the
                // workers start draining immediately. The *blocking*
                // half (joining workers) stays with whoever owns the
                // service — the socket loop or Drop calls
                // [`ClosureService::shutdown`] after this response.
                self.begin_shutdown();
                Response::ShuttingDown
            }
        }
    }

    /// Non-blocking first half of [`ClosureService::shutdown`]: stop
    /// accepting submissions and let the workers drain. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.open.store(false, Ordering::Release);
        self.shared.queues.notify_all();
    }

    /// Stops accepting submissions, drains queued and running jobs, and
    /// joins the supervisor and workers. With a nonzero
    /// [`ServeConfig::drain_timeout_ms`] the drain is *bounded*: jobs
    /// still live when the timeout expires are cancelled through their
    /// cooperative tokens, so shutdown cannot hang on a stuck job.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let supervisor = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = supervisor {
            let _ = h.join();
        }
        let drain_ms = self.shared.config.drain_timeout_ms;
        if drain_ms > 0 {
            let deadline = Instant::now() + Duration::from_millis(drain_ms);
            let mut st = self.state();
            while !st.live_ids().is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    // Timed out: cancel everything still live. Running
                    // jobs stop mid-iteration; queued ones end here so
                    // the joins below never wait on them.
                    let now_ns = gm_trace::now_ns();
                    for id in st.live_ids() {
                        abandon(&mut st, id, now_ns);
                    }
                    break;
                }
                st = self
                    .shared
                    .done_cv
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            drop(st);
            self.shared.done_cv.notify_all();
            self.shared.queues.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self
                .shared
                .workers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slots.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // A submission that raced the close can have pushed after the
        // workers exited; end anything left in the queues as cancelled
        // so no waiter blocks on a job nobody will run.
        let mut st = self.state();
        let now_ns = gm_trace::now_ns();
        for w in 0..self.shared.queues.worker_count() {
            while let Some(id) = self.shared.queues.pop(w) {
                abandon(&mut st, id, now_ns);
            }
        }
        drop(st);
        self.shared.done_cv.notify_all();
    }
}

impl Drop for ClosureService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shutdown's drain: raises `id`'s token and, while it is still queued,
/// ends it `Cancelled` on the spot — no worker will claim it.
fn abandon(st: &mut JobTable, id: u64, now_ns: u64) {
    if st.cancel(id) == Some(JobState::Queued) {
        st.end(id, Ending::Cancelled, Reclaimed::default(), now_ns);
    }
}

fn spawn_worker(shared: &Arc<Shared>, w: usize) -> JoinHandle<()> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("gmserve-worker-{w}"))
        .spawn(move || worker_loop(&shared, w))
        .expect("spawn service worker")
}

fn worker_loop(shared: &Arc<Shared>, w: usize) {
    loop {
        // Injected worker death: return without touching the queue —
        // unclaimed jobs stay queued for stealers and for the slot's
        // supervisor-respawned replacement.
        if gm_fault::fire("worker.exit") {
            return;
        }
        match shared.queues.pop(w) {
            Some(id) => run_job(shared, id),
            None => {
                if !shared.open.load(Ordering::Acquire) {
                    break;
                }
                shared.queues.park(|| !shared.open.load(Ordering::Acquire));
            }
        }
    }
}

/// The supervisor: enforces deadlines and respawns dead workers on a
/// fixed tick until shutdown begins.
fn supervisor_loop(shared: &Arc<Shared>) {
    while shared.open.load(Ordering::Acquire) {
        if lock_state(&shared.state).expire(gm_trace::now_ns()) {
            shared.done_cv.notify_all();
        }
        respawn_dead_workers(shared);
        std::thread::sleep(SUPERVISOR_TICK);
    }
}

/// Joins and respawns any worker slot whose thread has died. The queue
/// structure outlives the thread, so the replacement resumes exactly
/// where the dead worker stopped.
fn respawn_dead_workers(shared: &Arc<Shared>) {
    let mut slots = shared
        .workers
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for w in 0..slots.len() {
        let dead = slots[w].as_ref().is_some_and(JoinHandle::is_finished);
        if !dead || !shared.open.load(Ordering::Acquire) {
            continue;
        }
        if let Some(old) = slots[w].take() {
            let _ = old.join();
        }
        slots[w] = Some(spawn_worker(shared, w));
        lock_state(&shared.state).stats.workers_respawned += 1;
    }
}

/// One attempt's result, handed back to the retry loop.
struct Attempt {
    /// The run's outcome, and whether the job's token stopped it.
    outcome: Result<(ClosureOutcome, bool), AttemptError>,
    /// The checker reclaimed from the engine and any tape the attempt
    /// built, to park back warm.
    reclaimed: Reclaimed,
}

/// Why one attempt failed — the retry loop's classification input.
enum AttemptError {
    /// A real engine failure; retried only when
    /// [`EngineError::retryable`] says a rerun could differ.
    Engine(EngineError),
    /// A serve-layer injected fault (always retryable).
    Fault(&'static str),
}

/// Renders a caught panic payload (`&str` / `String` are what `panic!`
/// produces; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sleeps the backoff delay in short slices, polling the cancel token
/// so a cancellation or deadline never waits out a long backoff.
/// Timing only — the retry *decision* and the delay itself were fixed
/// by the pure [`RetryPolicy::backoff_ms`] before this call.
fn wait_backoff(cancel: &AtomicBool, ms: u64) {
    if ms == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(ms);
    loop {
        if cancel.load(Ordering::Acquire) {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
}

/// Executes one job end to end on the claiming worker: a bounded retry
/// loop of panic-isolated attempts, then a single end.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let started_ns = gm_trace::now_ns();
    let claim = lock_state(&shared.state).claim(id, started_ns);
    let Some(mut claim) = claim else {
        // No longer queued, or ended on the spot for a raised token.
        shared.done_cv.notify_all();
        return;
    };

    // Install the per-job flight recorder (when the submission asked
    // for one) for the whole claim→end window: every span the engine,
    // checker, and simulator open on this thread records into the
    // job's sink. The queue phase predates the claim, so it is recorded
    // retroactively from the stored submission timestamp.
    let trace_guard = claim.trace.take().map(|sink| {
        let queued_ns = started_ns.saturating_sub(claim.submitted_ns);
        let queue =
            gm_trace::TraceEvent::complete("serve", "serve.queue", claim.submitted_ns, queued_ns);
        sink.record(queue.with_arg("job", id));
        gm_trace::push_thread_sink(sink)
    });
    let mut job_span = gm_trace::span("serve", "serve.job");
    if job_span.is_active() {
        job_span.arg("job", id);
    }

    // The attempt loop. The first attempt consumes the warm artifacts
    // checked out at submission; retries run from scratch (`restart`
    // invalidates the cache entry, so a poisoned checker or tape cannot
    // carry a fault into the retry).
    let policy = shared.config.retry;
    let mut retries: u32 = 0;
    let (ending, reclaimed) = loop {
        // Between attempts, a raised token (a client cancel or an
        // expired deadline) ends the job without another engine run.
        // The first attempt is covered by the claim's check.
        if retries > 0 && claim.cancel.load(Ordering::Acquire) {
            break (Ending::Cancelled, Reclaimed::default());
        }
        let warm = std::mem::take(&mut claim.warm);
        let caught = catch_unwind(AssertUnwindSafe(|| run_attempt(shared, id, &claim, warm)));
        // Every break is terminal; falling through means one retryable
        // failure, described by `failure`.
        let failure = match caught {
            Ok(attempt) => match attempt.outcome {
                Ok((outcome, cancelled)) => {
                    let outcome = Box::new(outcome);
                    break (Ending::Ran { outcome, cancelled }, attempt.reclaimed);
                }
                Err(AttemptError::Engine(e)) if !e.retryable() => {
                    break (Ending::Failed(JobError::Engine(e)), attempt.reclaimed);
                }
                Err(AttemptError::Engine(e)) => e.to_string(),
                Err(AttemptError::Fault(point)) => format!("injected fault at {point}"),
            },
            Err(payload) => {
                // The attempt panicked; the job fails or retries, the
                // worker survives.
                let message = panic_message(payload);
                lock_state(&shared.state).stats.worker_panics += 1;
                format!("worker panic: {message}")
            }
        };
        if claim.cancel.load(Ordering::Acquire) {
            break (Ending::Cancelled, Reclaimed::default());
        }
        if !policy.allows(retries + 1) {
            let attempts = retries + 1;
            let error = JobError::RetriesExhausted {
                attempts,
                last: failure,
            };
            break (Ending::Failed(error), Reclaimed::default());
        }
        retries += 1;
        lock_state(&shared.state).restart(id);
        wait_backoff(&claim.cancel, policy.backoff_ms(id, retries));
    };

    // Close the job span and detach the recorder *before* taking the
    // end lock: the trace must be fully flushed into the sink before
    // any client can observe the terminal state (and fetch the export).
    if job_span.is_active() {
        let cancelled = matches!(
            ending,
            Ending::Ran {
                cancelled: true,
                ..
            } | Ending::Cancelled
        );
        job_span.arg("cancelled", cancelled);
        job_span.arg("failed", matches!(ending, Ending::Failed(_)));
        job_span.arg("retries", u64::from(retries));
    }
    drop(job_span);
    drop(trace_guard);
    lock_state(&shared.state).end(id, ending, reclaimed, gm_trace::now_ns());
    shared.done_cv.notify_all();
}

/// One panic-isolated attempt: build (or reuse) the artifacts, run the
/// engine, hand everything back for the retry loop to classify.
fn run_attempt(shared: &Arc<Shared>, id: u64, claim: &Claim, warm: Reclaimed) -> Attempt {
    let inert = |outcome| Attempt {
        outcome,
        reclaimed: Reclaimed::default(),
    };
    if gm_fault::fire("worker.panic") {
        panic!("injected fault at worker.panic");
    }
    if gm_fault::fire("cache.checkout_fail") {
        // Simulated checkout corruption: the checked-out warm artifacts
        // are dropped, the retry invalidates the cache entry and
        // rebuilds the design from source.
        return inert(Err(AttemptError::Fault("cache.checkout_fail")));
    }
    let (module, elab, config) = (&claim.module, &claim.elab, &claim.config);

    // Build (or reuse) the checker and run the engine outside the lock.
    let checker_result = match warm.checker {
        Some(c) => Ok(c),
        None => {
            let _span = gm_trace::span("serve", "serve.build_checker");
            Checker::from_elab(module, elab)
        }
    };
    // Reuse the design's parked compiled tape, or build (and later
    // park) one — per canonical design, not per engine. Compilation is
    // deterministic, so reuse never changes the outcome, and there is
    // one tape per design whether or not the job records coverage.
    let mut built_compiled: Option<Arc<CompiledModule>> = None;
    let compiled = (config.sim_backend != SimBackend::Interpreter).then(|| {
        warm.compiled.unwrap_or_else(|| {
            let _span = gm_trace::span("serve", "serve.compile_tape");
            let c = Arc::new(CompiledModule::with_elab(module, elab));
            built_compiled = Some(c.clone());
            c
        })
    });
    let (outcome, reclaimed) = match checker_result {
        Err(e) => (Err(EngineError::from(e)), None),
        Ok(checker) => {
            let cancel = &claim.cancel;
            let mut engine =
                Engine::with_artifacts(module, elab, checker, compiled, config.clone())
                    .with_cancel(cancel.clone());
            let progress = |report: &IterationReport| {
                lock_state(&shared.state).progress(id, ProgressEvent::from_report(report));
            };
            // The job is cancelled when its token stopped the run: seen
            // after a `Continue`, or landed mid-pass (`Interrupted`). A
            // `Stop` never consults the token — a run that did all its
            // work stays `Done`, however late a cancel arrives.
            let ran = loop {
                match engine.step() {
                    Ok(Step::Continue(report)) => {
                        progress(report);
                        if cancel.load(Ordering::Acquire) {
                            break Ok(true);
                        }
                    }
                    Ok(Step::Stop { reason, last }) => {
                        if let Some(report) = last {
                            progress(report);
                        }
                        break Ok(reason == StopReason::Interrupted);
                    }
                    Err(e) => break Err(e),
                }
            };
            let (outcome, checker) = engine.finish();
            (ran.map(|cancelled| (outcome, cancelled)), Some(checker))
        }
    };
    Attempt {
        outcome: outcome.map_err(AttemptError::Engine),
        reclaimed: Reclaimed {
            checker: reclaimed,
            compiled: built_compiled,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldmine::SeedStimulus;

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            window: 0,
            stimulus: SeedStimulus::Random { cycles: 8 },
            record_coverage: false,
            ..EngineConfig::default()
        }
    }

    fn parse(src: &str) -> Module {
        gm_rtl::parse_verilog(src).unwrap()
    }

    #[test]
    fn serves_a_job_and_reuses_the_design_cache() {
        let service = ClosureService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let src = "module m(input a, input b, output y); assign y = a ^ b; endmodule";
        let (first, cached) = service
            .submit_module("m", parse(src), tiny_config(), SubmitOptions::default())
            .unwrap();
        assert!(!cached);
        assert_eq!(service.wait(first), Some(JobState::Done));
        let first_outcome = service.take_outcome(first).unwrap().unwrap();
        assert!(first_outcome.converged);

        // Same design again: a cache hit, with an identical outcome.
        let (second, cached) = service
            .submit_module(
                "m-again",
                parse(src),
                tiny_config(),
                SubmitOptions::default(),
            )
            .unwrap();
        assert!(cached);
        service.wait(second);
        let second_outcome = service.take_outcome(second).unwrap().unwrap();
        assert_eq!(
            format!("{first_outcome:?}"),
            format!("{second_outcome:?}"),
            "warm artifacts must not change the outcome"
        );
        let stats = service.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.completed, 2);
        service.shutdown();
    }

    #[test]
    fn progress_streams_and_summary_matches_outcome() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let module = gm_designs::arbiter2();
        let gnt0 = module.require("gnt0").unwrap();
        let config = EngineConfig {
            targets: goldmine::TargetSelection::Bits(vec![(gnt0, 0)]),
            record_coverage: false,
            ..EngineConfig::default()
        };
        let (job, _) = service
            .submit_module("arbiter2", module, config, SubmitOptions::default())
            .unwrap();
        service.wait(job);
        let (events, terminal) = service.progress(job, 0).unwrap();
        assert!(terminal);
        assert!(!events.is_empty(), "iteration 0 snapshot always streams");
        assert_eq!(events[0].iteration, 0);
        let summary = service.summary(job).unwrap();
        assert!(summary.converged);
        let outcome = service.take_outcome(job).unwrap().unwrap();
        assert_eq!(summary.outcome_debug, format!("{outcome:?}"));
        assert_eq!(events.len(), outcome.iterations.len());
    }

    #[test]
    fn queued_jobs_cancel_before_running() {
        // One worker, first job slow enough that a queued second job
        // can be cancelled before a worker claims it.
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let module = gm_designs::arbiter4();
        let (slow, _) = service
            .submit_module(
                "slow",
                module,
                EngineConfig::default(),
                SubmitOptions::default(),
            )
            .unwrap();
        let (victim, _) = service
            .submit_module(
                "victim",
                parse("module v(input a, output y); assign y = a; endmodule"),
                tiny_config(),
                SubmitOptions::default(),
            )
            .unwrap();
        assert!(service.cancel(victim));
        assert_eq!(service.wait(victim), Some(JobState::Cancelled));
        assert_eq!(service.wait(slow), Some(JobState::Done));
        assert!(!service.cancel(victim), "terminal jobs are not cancellable");
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn finished_jobs_are_retained_up_to_the_bound() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            retain_jobs: 2,
            ..ServeConfig::default()
        });
        let src = "module r(input a, output y); assign y = a; endmodule";
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                let (id, _) = service
                    .submit_module(
                        &format!("r{i}"),
                        parse(src),
                        tiny_config(),
                        SubmitOptions::default(),
                    )
                    .unwrap();
                service.wait(id);
                id
            })
            .collect();
        // The two oldest finished records were dropped; the newest two
        // remain queryable.
        assert!(service.status(ids[0]).is_none());
        assert!(service.status(ids[1]).is_none());
        assert!(service.take_outcome(ids[2]).is_some());
        assert_eq!(service.status(ids[3]).unwrap().state, JobState::Done);
        assert_eq!(service.stats().completed, 4, "counters outlive records");
        service.shutdown();
    }

    #[test]
    fn finished_records_release_evicted_design_artifacts() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            cache_capacity: 2,
            ..ServeConfig::default()
        });
        let src = "module pin(input a, input b, output y); assign y = a & b; endmodule";
        let (ran, _) = service
            .submit_module("pin", parse(src), tiny_config(), SubmitOptions::default())
            .unwrap();
        assert_eq!(service.wait(ran), Some(JobState::Done));
        // Weak handles on the design's elaboration and the tape the job
        // parked, taken through a cache checkout.
        let canonical = crate::cache::canonical_form(&parse(src));
        let key = crate::cache::key_of(&canonical);
        let (elab, tape) = {
            let mut st = service.state();
            let out = st
                .cache
                .checkout(&key, &canonical, true, || -> Result<_, ServeError> {
                    unreachable!("the design is resident")
                })
                .unwrap();
            let tape = out.compiled.expect("the first job parked its tape");
            (Arc::downgrade(&out.elab), Arc::downgrade(&tape))
        };
        assert!(elab.upgrade().is_some() && tape.upgrade().is_some());
        // A second job of the design retires without running: cancelled
        // while queued behind a slow job, holding the tape it checked
        // out at submission.
        let (slow, _) = service
            .submit_module(
                "slow",
                gm_designs::arbiter4(),
                EngineConfig::default(),
                SubmitOptions::default(),
            )
            .unwrap();
        let (unclaimed, cached) = service
            .submit_module(
                "pin-again",
                parse(src),
                tiny_config(),
                SubmitOptions::default(),
            )
            .unwrap();
        assert!(cached);
        assert!(service.cancel(unclaimed));
        assert_eq!(service.wait(unclaimed), Some(JobState::Cancelled));
        assert_eq!(service.wait(slow), Some(JobState::Done));
        // Two other designs push `pin` out of the two-entry cache.
        for (name, op) in [("evict1", "|"), ("evict2", "^")] {
            let src = format!(
                "module {name}(input a, input b, output y); assign y = a {op} b; endmodule"
            );
            let (id, _) = service
                .submit_module(name, parse(&src), tiny_config(), SubmitOptions::default())
                .unwrap();
            assert_eq!(service.wait(id), Some(JobState::Done));
        }
        assert!(service.stats().cache_evictions >= 1);
        // Both records are still retained and still answer queries...
        assert_eq!(
            service.status(unclaimed).unwrap().state,
            JobState::Cancelled
        );
        assert!(service.summary(ran).unwrap().converged);
        // ...but no longer keep the evicted design's artifacts alive.
        assert!(elab.upgrade().is_none(), "a finished record pins the Elab");
        assert!(
            tape.upgrade().is_none(),
            "a finished record pins the compiled tape"
        );
        service.shutdown();
    }

    #[test]
    fn failed_jobs_report_the_engine_error() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // Force a failure: explicit backend on a design over the input
        // limits.
        let module = parse(
            "module wide(input clk, input [15:0] d, output reg [15:0] q);
               always @(posedge clk) q <= d;
             endmodule",
        );
        let config = EngineConfig {
            backend: gm_mc::Backend::Explicit,
            ..tiny_config()
        };
        let (job, _) = service
            .submit_module("wide", module, config, SubmitOptions::default())
            .unwrap();
        assert_eq!(service.wait(job), Some(JobState::Failed));
        let status = service.status(job).unwrap();
        assert!(status.error.is_some(), "{status:?}");
        assert!(service.summary(job).is_none());
        // Deterministic engine failures are typed and never retried.
        match service.take_outcome(job).unwrap() {
            Err(JobError::Engine(_)) => {}
            other => panic!("expected a typed engine error, got {other:?}"),
        }
        assert_eq!(service.stats().jobs_retried, 0);
    }

    #[test]
    fn traced_jobs_capture_a_flight_recording() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let src = "module t(input a, input b, output y); assign y = a & b; endmodule";
        let (traced, _) = service
            .submit_module(
                "traced",
                parse(src),
                tiny_config(),
                SubmitOptions {
                    trace: true,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let (plain, _) = service
            .submit_module("plain", parse(src), tiny_config(), SubmitOptions::default())
            .unwrap();
        service.wait(traced);
        service.wait(plain);

        let json = service.trace_json(traced).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        for name in ["serve.queue", "serve.job", "engine.run", "engine.verify"] {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "span {name} missing from the recording"
            );
        }
        // Untraced and unknown jobs have no recording to export.
        assert!(service.trace_json(plain).is_err());
        assert!(service.trace_json(u64::MAX).is_err());

        // Tracing never changes the outcome.
        let traced_outcome = service.take_outcome(traced).unwrap().unwrap();
        let plain_outcome = service.take_outcome(plain).unwrap().unwrap();
        assert_eq!(
            format!("{traced_outcome:?}"),
            format!("{plain_outcome:?}"),
            "the recorder must be inert"
        );

        // Both claims and both retirements were sampled.
        let stats = service.stats();
        assert_eq!(stats.queue_seconds.count(), 2);
        assert_eq!(stats.wall_seconds.count(), 2);
        assert!(stats.wall_seconds.sum > 0);
        // Fault-free runs still populate the retry histogram's zero
        // bucket: one observation per retired job.
        assert_eq!(stats.job_retries.count(), 2);
        assert_eq!(stats.job_retries.sum, 0);
        service.shutdown();
    }

    #[test]
    fn trace_requests_flow_through_the_wire_dispatcher() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let response = service.handle_request(&Request::Submit {
            name: "wired".into(),
            source: "module w(input a, output y); assign y = ~a; endmodule".into(),
            config: WireConfig::default(),
            trace: true,
            deadline_ms: None,
        });
        let Response::Submitted { job, .. } = response else {
            panic!("unexpected response {response:?}");
        };
        service.wait(job);
        match service.handle_request(&Request::Trace { job }) {
            Response::Trace { job: id, trace } => {
                assert_eq!(id, job);
                assert!(trace.contains("\"name\":\"serve.job\""));
            }
            other => panic!("unexpected response {other:?}"),
        }
        match service.handle_request(&Request::Trace { job: job + 100 }) {
            Response::Error { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn an_over_bound_wire_config_is_refused_before_it_becomes_a_job() {
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let submit = |config: WireConfig| Request::Submit {
            name: "hostile".into(),
            source: "module h(input a, output y); assign y = a; endmodule".into(),
            config,
            trace: false,
            deadline_ms: None,
        };
        for hostile in [
            WireConfig {
                window: u32::MAX,
                ..WireConfig::default()
            },
            WireConfig {
                random_cycles: Some(u64::MAX),
                ..WireConfig::default()
            },
            WireConfig {
                shards: Some(u32::MAX),
                ..WireConfig::default()
            },
        ] {
            match service.handle_request(&submit(hostile)) {
                Response::Error { message } => {
                    assert!(message.contains("above its bound"), "{message}")
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.queued, stats.running), (0, 0, 0));
        // The service keeps serving.
        match service.handle_request(&submit(WireConfig::default())) {
            Response::Submitted { job, .. } => assert_eq!(service.wait(job), Some(JobState::Done)),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(service.stats().submitted, 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let service = ClosureService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let ids: Vec<u64> = (0..6)
            .map(|i| {
                service
                    .submit_module(
                        &format!("job{i}"),
                        parse("module d(input a, input b, output y); assign y = a | b; endmodule"),
                        tiny_config(),
                        SubmitOptions::default(),
                    )
                    .unwrap()
                    .0
            })
            .collect();
        service.shutdown();
        for id in ids {
            assert_eq!(
                service.status(id).unwrap().state,
                JobState::Done,
                "shutdown must finish accepted work"
            );
        }
        assert_eq!(
            service.submit_module(
                "late",
                parse("module z(input a, output y); assign y = a; endmodule"),
                tiny_config(),
                SubmitOptions::default()
            ),
            Err(ServeError::ShutDown),
            "submissions after shutdown are rejected"
        );
    }

    #[test]
    fn explicit_zero_deadline_opts_out_of_the_server_default() {
        // A server default deadline generous enough that a tiny job
        // can't trip it; the point here is the resolution logic.
        let service = ClosureService::new(ServeConfig {
            workers: 1,
            default_deadline_ms: 120_000,
            ..ServeConfig::default()
        });
        let src = "module o(input a, output y); assign y = a; endmodule";
        let (defaulted, _) = service
            .submit_module(
                "defaulted",
                parse(src),
                tiny_config(),
                SubmitOptions::default(),
            )
            .unwrap();
        let (opted_out, _) = service
            .submit_module(
                "opted-out",
                parse(src),
                tiny_config(),
                SubmitOptions {
                    deadline_ms: Some(0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(service.wait(defaulted), Some(JobState::Done));
        assert_eq!(service.wait(opted_out), Some(JobState::Done));
        assert_eq!(service.stats().jobs_deadline_exceeded, 0);
        service.shutdown();
    }
}
