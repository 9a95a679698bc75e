//! The job table as a pure lifecycle state machine.
//!
//! [`JobTable`] holds every job record, the queue (a FIFO of job ids in
//! admission order, which the workers claim from), the finished-record
//! FIFO, the [`DesignCache`] and the service's own counters. Every
//! change to it is a transition method that takes the clock reading
//! (`now_ns`, on the `gm_trace` clock) as an argument and never locks,
//! sleeps or spawns, so the whole lifecycle is unit-testable without
//! threads or clocks, like `retry.rs`. The service drives it, calling
//! one transition under its one state lock; a worker claims the oldest
//! job still queued ([`JobTable::claim_next`]):
//!
//! ```text
//! admit ─→ Queued ─claim─→ Running ─(progress | restart)*─→ end ─→ Done | Failed | Cancelled
//!            └──── claim with the token raised, expire, shutdown ──→ end
//! ```
//!
//! [`JobTable::end`] is the only place a job turns terminal; the README
//! (*Resilience*) tabulates which event ends a job how, and which
//! counter it moves.

use crate::cache::DesignCache;
use crate::protocol::{JobState, ProgressEvent, ServeStats};
use crate::service::{JobError, ServeConfig, ServeError};
use gm_mc::Checker;
use gm_rtl::{Elab, Module};
use goldmine::{ClosureOutcome, CompiledModule, EngineConfig, SimBackend};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A request on its way into the table: everything but the artifacts
/// the design cache supplies.
pub(crate) struct Submission {
    pub(crate) name: String,
    pub(crate) key: String,
    pub(crate) canonical: String,
    pub(crate) config: EngineConfig,
    /// Milliseconds from submission; `None` = no deadline.
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) trace: Option<gm_trace::TraceSink>,
    /// The module and its elaboration, built outside the lock after
    /// [`JobTable::admit`] found the design uncached.
    pub(crate) built: Option<(Arc<Module>, Arc<Elab>)>,
}

/// Why [`JobTable::admit`] did not admit a submission.
pub(crate) enum Refusal {
    /// The design is not cached: fill [`Submission::built`] outside the
    /// lock and admit again.
    Build(Box<Submission>),
    /// Admission control shed it ([`ServeError::Overloaded`]).
    Shed(ServeError),
}

/// What a job needs only while it is queued or running. [`JobTable::end`]
/// drops it, so the up to [`ServeConfig::retain_jobs`] finished records
/// keep no design artifact alive that the cache has already evicted.
struct LiveJob {
    key: String,
    /// The design's canonical form — required to park artifacts back
    /// safely (see [`DesignCache::park`]).
    canonical: Arc<str>,
    config: EngineConfig,
    elab: Arc<Elab>,
    /// Artifacts checked out of the cache at submission, until a claim
    /// takes them: a warm checker (absent on cold entries or when every
    /// parked one is busy) and the parked tape (an `Arc` clone).
    warm: Reclaimed,
    cancel: Arc<AtomicBool>,
    /// The deadline in milliseconds from submission, and its absolute
    /// expiry on the trace clock.
    deadline_ms: Option<u64>,
    deadline_ns: Option<u64>,
    /// Set (with the cancel token) by [`JobTable::expire`] — what lets
    /// [`JobTable::end`] tell a deadline stop from a client cancel,
    /// which share the token.
    deadline_hit: bool,
    /// The claim's clock reading; `None` while the job is unclaimed.
    started_ns: Option<u64>,
    /// Restarts so far: the job's sample in the retry histogram.
    retries: u32,
}

/// One job's table entry: what `status`, `progress`, `summary`,
/// `take_outcome` and `trace_json` read, for as long as the record is
/// retained, plus the [`LiveJob`] half until the job ends.
pub(crate) struct JobRecord {
    pub(crate) name: String,
    /// Renders the summary's assertions.
    pub(crate) module: Arc<Module>,
    /// `Some` exactly while the job is queued or running. Boxed: the
    /// config and checker are over a kilobyte inline, which the job
    /// table would otherwise carry in every bucket, retired or empty.
    live: Option<Box<LiveJob>>,
    pub(crate) state: JobState,
    pub(crate) progress: Vec<ProgressEvent>,
    /// Shared so that the service can render a summary without holding
    /// the state lock.
    pub(crate) outcome: Option<Result<Arc<ClosureOutcome>, JobError>>,
    pub(crate) error: Option<String>,
    pub(crate) cached: bool,
    /// Submission timestamp: the base of the queue-latency histogram
    /// and the retroactive `serve.queue` span.
    submitted_ns: u64,
    /// The per-job flight recorder, when the submission asked for one.
    pub(crate) trace: Option<gm_trace::TraceSink>,
}

/// What a worker takes out of a record when it claims the job.
pub(crate) struct Claim {
    pub(crate) module: Arc<Module>,
    pub(crate) elab: Arc<Elab>,
    /// The artifacts checked out at submission, for the first attempt.
    pub(crate) warm: Reclaimed,
    pub(crate) config: EngineConfig,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) trace: Option<gm_trace::TraceSink>,
    pub(crate) submitted_ns: u64,
}

/// Warm artifacts on their way back to the cache.
#[derive(Default)]
pub(crate) struct Reclaimed {
    /// A checker (reclaimed from an engine run, or checked out).
    pub(crate) checker: Option<Checker>,
    /// A compiled tape (built by an attempt, or checked out).
    pub(crate) compiled: Option<Arc<CompiledModule>>,
}

/// How a job ends: [`JobTable::end`]'s input, before the deadline
/// reclassification.
pub(crate) enum Ending {
    /// The engine returned an outcome; `cancelled` when the run stopped
    /// early on the job's token.
    Ran {
        outcome: Box<ClosureOutcome>,
        cancelled: bool,
    },
    /// A typed failure.
    Failed(JobError),
    /// Stopped with no outcome: before a claim, or between attempts.
    Cancelled,
}

/// Whether `state` is one only [`JobTable::end`] assigns.
pub(crate) fn terminal(state: JobState) -> bool {
    matches!(
        state,
        JobState::Done | JobState::Failed | JobState::Cancelled
    )
}

/// The job table (see the module docs).
pub(crate) struct JobTable {
    config: ServeConfig,
    jobs: HashMap<u64, JobRecord>,
    /// Admitted job ids, oldest first: the queue the workers claim
    /// from. An id that ended while queued stays until a claim skips it.
    queue: VecDeque<u64>,
    /// Finished job ids in completion order — the FIFO behind
    /// [`ServeConfig::retain_jobs`].
    finished: VecDeque<u64>,
    pub(crate) cache: DesignCache,
    next_id: u64,
    /// Every counter the service accumulates itself, updated where the
    /// event happens. The gauges stay zero here; [`JobTable::snapshot`]
    /// fills the table's and the cache's in.
    pub(crate) stats: ServeStats,
}

impl JobTable {
    /// An empty table under `config`'s retention, admission and cache
    /// settings.
    pub(crate) fn new(config: ServeConfig) -> Self {
        JobTable {
            cache: DesignCache::with_max_bytes(config.cache_capacity, config.cache_max_bytes),
            config,
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            finished: VecDeque::new(),
            next_id: 1,
            stats: ServeStats::default(),
        }
    }

    /// A retained job's record.
    pub(crate) fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// The ids of every queued or running job.
    pub(crate) fn live_ids(&self) -> Vec<u64> {
        let live = self.jobs.iter().filter(|(_, j)| j.live.is_some());
        live.map(|(id, _)| *id).collect()
    }

    /// The counters with the job-state gauges and the cache's values
    /// filled in (`workers` stays zero: the service fills it in). Read
    /// under one lock, so
    /// `submitted == queued + running + completed + failed + cancelled`.
    pub(crate) fn snapshot(&self) -> ServeStats {
        let cache = self.cache.stats();
        let in_state = |state| self.jobs.values().filter(|j| j.state == state).count() as u64;
        ServeStats {
            queued: in_state(JobState::Queued),
            running: in_state(JobState::Running),
            cache_entries: cache.entries as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_evictions_capacity: cache.evictions_capacity,
            cache_evictions_bytes: cache.evictions_bytes,
            cache_evictions_collision: cache.evictions_collision,
            cache_bytes: cache.approx_bytes as u64,
            cache_max_bytes: cache.max_bytes as u64,
            compiled_built: cache.compiled_built,
            compiled_reused: cache.compiled_reused,
            ..self.stats.clone()
        }
    }

    /// Admits a submission as a new `Queued` job at the back of the
    /// queue, returning its id and whether the design was cached.
    /// Admission control runs first, before any build work: past
    /// [`ServeConfig::max_queued`] or [`ServeConfig::max_queued_bytes`]
    /// the request is shed. An uncached design comes back as
    /// [`Refusal::Build`] until its artifacts are built; the cache
    /// checkout then hands the job the design's warm checker and tape.
    pub(crate) fn admit(
        &mut self,
        sub: Box<Submission>,
        now_ns: u64,
    ) -> Result<(u64, bool), Refusal> {
        let (max_depth, max_bytes) = (self.config.max_queued, self.config.max_queued_bytes);
        if max_depth > 0 || max_bytes > 0 {
            // Recomputed from the table on every pass (O(live jobs)), so
            // the bound can never drift from the truth.
            let queued = self.jobs.values().filter(|j| j.state == JobState::Queued);
            let (depth, bytes) = queued
                .filter_map(|j| j.live.as_ref())
                .fold((0usize, 0usize), |(n, b), live| {
                    (n + 1, b + live.canonical.len())
                });
            let limit = if max_depth > 0 && depth >= max_depth {
                max_depth
            } else if max_bytes > 0 && bytes.saturating_add(sub.canonical.len()) > max_bytes {
                max_bytes
            } else {
                0
            };
            if limit > 0 {
                self.stats.requests_shed += 1;
                return Err(Refusal::Shed(ServeError::Overloaded {
                    queued: depth as u64,
                    limit: limit as u64,
                }));
            }
        }
        if sub.built.is_none() && !self.cache.matches(&sub.key, &sub.canonical) {
            return Err(Refusal::Build(sub));
        }
        let Submission {
            name,
            key,
            canonical,
            config,
            deadline_ms,
            trace,
            mut built,
        } = *sub;
        // An interpreter job takes no tape; every other job takes the
        // design's one parked tape, if there is one.
        let want_tape = config.sim_backend != SimBackend::Interpreter;
        let out = self
            .cache
            .checkout(&key, &canonical, want_tape, || built.take().ok_or(()))
            .expect("a miss is admitted only with its artifacts built");
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        let live = LiveJob {
            key,
            canonical: Arc::from(canonical),
            config,
            elab: out.elab,
            warm: Reclaimed {
                checker: out.checker,
                compiled: out.compiled,
            },
            cancel: Arc::default(),
            deadline_ms,
            deadline_ns: deadline_ms.map(|ms| now_ns.saturating_add(ms.saturating_mul(1_000_000))),
            deadline_hit: false,
            started_ns: None,
            retries: 0,
        };
        let record = JobRecord {
            name,
            module: out.module,
            live: Some(Box::new(live)),
            state: JobState::Queued,
            progress: Vec::new(),
            outcome: None,
            error: None,
            cached: out.hit,
            submitted_ns: now_ns,
            trace,
        };
        self.jobs.insert(id, record);
        self.queue.push_back(id);
        Ok((id, out.hit))
    }

    /// `Queued → Running`: hands the worker the job's artifacts and
    /// samples the queue-latency histogram. A job whose token is
    /// already raised ends `Cancelled` instead (`None`, as for a job no
    /// longer queued).
    fn claim(&mut self, id: u64, now_ns: u64) -> Option<Claim> {
        let job = self
            .jobs
            .get_mut(&id)
            .filter(|j| j.state == JobState::Queued)?;
        let live = job.live.as_mut().expect("queued jobs are live");
        if live.cancel.load(Ordering::Acquire) {
            self.end(id, Ending::Cancelled, Reclaimed::default(), now_ns);
            return None;
        }
        job.state = JobState::Running;
        live.started_ns = Some(now_ns);
        let queued_ns = now_ns.saturating_sub(job.submitted_ns);
        self.stats.queue_seconds.observe(queued_ns);
        Some(Claim {
            module: job.module.clone(),
            elab: live.elab.clone(),
            warm: std::mem::take(&mut live.warm),
            config: live.config.clone(),
            cancel: live.cancel.clone(),
            trace: job.trace.clone(),
            submitted_ns: job.submitted_ns,
        })
    }

    /// Claims the oldest job still queued, popping the ids before it
    /// that ended while queued. A job whose token is raised ends
    /// `Cancelled` at its claim and the next one is taken. Returns the
    /// claim (`None` once the queue is empty) and whether a job ended
    /// at its claim on the way.
    pub(crate) fn claim_next(&mut self, now_ns: u64) -> (Option<(u64, Claim)>, bool) {
        let mut ended = false;
        while let Some(id) = self.queue.pop_front() {
            let queued = self.is_queued(id);
            match self.claim(id, now_ns) {
                Some(claim) => return (Some((id, claim)), ended),
                None => ended |= queued,
            }
        }
        (None, ended)
    }

    /// Shutdown's drain: empties the queue, ending every job still
    /// queued `Cancelled` — no worker will claim it.
    pub(crate) fn abandon_queued(&mut self, now_ns: u64) {
        for id in std::mem::take(&mut self.queue) {
            if self.is_queued(id) {
                self.end(id, Ending::Cancelled, Reclaimed::default(), now_ns);
            }
        }
    }

    fn is_queued(&self, id: u64) -> bool {
        self.jobs
            .get(&id)
            .is_some_and(|j| j.state == JobState::Queued)
    }

    /// Appends one iteration's progress event.
    pub(crate) fn progress(&mut self, id: u64, event: ProgressEvent) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.progress.push(event);
        }
    }

    /// Readies running job `id` for a retry: its progress restarts, the
    /// design's possibly-poisoned cache entry is dropped so the retry
    /// rebuilds from source, and the retry is counted.
    pub(crate) fn restart(&mut self, id: u64) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let Some(live) = job.live.as_mut() else {
            return;
        };
        self.cache.invalidate(&live.key);
        self.stats.jobs_retried += 1;
        live.retries += 1;
        job.progress.clear();
    }

    /// Raises live job `id`'s cancel token and returns its state (`None`
    /// for unknown or finished jobs). A running job stops at its next
    /// poll; a queued one ends at its claim.
    pub(crate) fn cancel(&self, id: u64) -> Option<JobState> {
        let job = self.jobs.get(&id)?;
        job.live.as_ref()?.cancel.store(true, Ordering::Release);
        Some(job.state)
    }

    /// Marks every live job whose deadline has passed at `now_ns` and
    /// raises its token: a running job stops at its next poll, and a
    /// queued one ends on the spot — either way as
    /// [`JobError::DeadlineExceeded`]. Returns whether a job ended.
    pub(crate) fn expire(&mut self, now_ns: u64) -> bool {
        let mut queued = Vec::new();
        for (&id, job) in &mut self.jobs {
            let Some(live) = job.live.as_mut() else {
                continue;
            };
            if live.deadline_hit || live.deadline_ns.is_none_or(|d| now_ns < d) {
                continue;
            }
            live.deadline_hit = true;
            live.cancel.store(true, Ordering::Release);
            if job.state == JobState::Queued {
                queued.push(id);
            }
        }
        for &id in &queued {
            self.end(id, Ending::Cancelled, Reclaimed::default(), now_ns);
        }
        !queued.is_empty()
    }

    /// Ends live job `id` — the only place a job turns terminal. A
    /// cancel after the deadline hit is reclassified as
    /// `Failed(DeadlineExceeded)`, discarding any partial outcome.
    /// Moves exactly one of `completed`/`cancelled`/`failed`, parks the
    /// warm artifacts, folds the outcome's verification totals, samples
    /// the wall and retry histograms if the job was claimed, drops the
    /// live half and applies [`ServeConfig::retain_jobs`]. Returns
    /// `false`, changing nothing, for unknown or finished jobs.
    pub(crate) fn end(
        &mut self,
        id: u64,
        ending: Ending,
        artifacts: Reclaimed,
        now_ns: u64,
    ) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        let Some(live) = job.live.take() else {
            return false;
        };
        // A reclaimed checker has run: reset it. An unclaimed checkout
        // goes back as is.
        if let Some(mut checker) = artifacts.checker {
            checker.reset_for_reuse();
            self.cache.park(&live.key, &live.canonical, checker);
        }
        if let Some(checker) = live.warm.checker {
            self.cache.park(&live.key, &live.canonical, checker);
        }
        if let Some(compiled) = artifacts.compiled {
            self.cache
                .park_compiled(&live.key, &live.canonical, compiled);
        }
        if let Some(started_ns) = live.started_ns {
            let wall_ns = now_ns.saturating_sub(started_ns);
            self.stats.wall_seconds.observe(wall_ns);
            self.stats.job_retries.observe(u64::from(live.retries));
        }
        if let Ending::Ran { outcome, .. } = &ending {
            // The service-level view of verification work: every ended
            // run's per-session totals, summed.
            let verify = outcome.verification_total();
            let stats = &mut self.stats;
            stats.verify_sat_queries += verify.sat_queries;
            stats.verify_sat_decided += verify.sat_decided;
            stats.verify_explicit_queries += verify.explicit_queries;
            stats.verify_memo_hits += verify.memo_hits;
            stats.verify_frames_encoded += verify.frames_encoded;
            stats.verify_frames_reused += verify.frames_reused;
            stats.verify_cex_canonicalized += verify.cex_canonicalized;
        }
        let (state, outcome) = match ending {
            Ending::Ran {
                cancelled: true, ..
            }
            | Ending::Cancelled
                if live.deadline_hit =>
            {
                let deadline_ms = live.deadline_ms.unwrap_or(0);
                let error = JobError::DeadlineExceeded { deadline_ms };
                (JobState::Failed, Some(Err(error)))
            }
            Ending::Ran { outcome, cancelled } => {
                let state = if cancelled {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                (state, Some(Ok(Arc::from(outcome))))
            }
            Ending::Failed(error) => (JobState::Failed, Some(Err(error))),
            Ending::Cancelled => (JobState::Cancelled, None),
        };
        match (&outcome, state) {
            (Some(Err(error)), _) => {
                self.stats.failed += 1;
                if matches!(error, JobError::DeadlineExceeded { .. }) {
                    self.stats.jobs_deadline_exceeded += 1;
                }
                job.error = Some(error.to_string());
            }
            (_, JobState::Done) => self.stats.completed += 1,
            _ => self.stats.cancelled += 1,
        }
        job.state = state;
        job.outcome = outcome;
        job.progress.shrink_to_fit();
        self.finished.push_back(id);
        while self.finished.len() > self.config.retain_jobs.max(1) {
            let oldest = self
                .finished
                .pop_front()
                .expect("guarded by the length check");
            self.jobs.remove(&oldest);
        }
        true
    }

    /// Removes and returns a finished job's outcome.
    pub(crate) fn take_outcome(
        &mut self,
        id: u64,
    ) -> Option<Result<Arc<ClosureOutcome>, JobError>> {
        self.jobs.get_mut(&id)?.outcome.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldmine::{Engine, SeedStimulus};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    const MS: u64 = 1_000_000;
    const SRC: &str = "module m(input a, input b, output y); assign y = a & b; endmodule";

    fn table(retain_jobs: usize, max_queued: usize) -> JobTable {
        JobTable::new(ServeConfig {
            retain_jobs,
            max_queued,
            ..ServeConfig::default()
        })
    }

    /// Admits one job of the test design the way the service submits:
    /// building the artifacts whenever `admit` asks for them. `None`
    /// when admission control sheds it.
    fn admit(t: &mut JobTable, deadline_ms: Option<u64>, now_ns: u64) -> Option<u64> {
        let module = gm_rtl::parse_verilog(SRC).unwrap();
        let canonical = crate::cache::canonical_form(&module);
        let mut sub = Box::new(Submission {
            name: "job".into(),
            key: crate::cache::key_of(&canonical),
            canonical,
            config: EngineConfig::default(),
            deadline_ms,
            trace: None,
            built: None,
        });
        loop {
            match t.admit(sub, now_ns) {
                Ok((id, _)) => return Some(id),
                Err(Refusal::Shed(_)) => return None,
                Err(Refusal::Build(mut back)) => {
                    let elab = gm_rtl::elaborate(&module).unwrap();
                    back.built = Some((Arc::new(module.clone()), Arc::new(elab)));
                    sub = back;
                }
            }
        }
    }

    /// A real outcome of the test design (one engine run per process).
    fn outcome() -> Box<ClosureOutcome> {
        static OUTCOME: OnceLock<ClosureOutcome> = OnceLock::new();
        let outcome = OUTCOME.get_or_init(|| {
            let module = gm_rtl::parse_verilog(SRC).unwrap();
            let config = EngineConfig {
                window: 0,
                stimulus: SeedStimulus::Random { cycles: 8 },
                record_coverage: false,
                ..EngineConfig::default()
            };
            Engine::new(&module, config).unwrap().run().unwrap()
        });
        Box::new(outcome.clone())
    }

    #[test]
    fn a_deadline_during_a_retry_backoff_fails_the_job_once() {
        let mut t = table(8, 0);
        let id = admit(&mut t, Some(100), 0).unwrap();
        let claim = t.claim(id, MS).expect("queued, token down");
        // The first attempt failed retryably: the worker restarts the
        // job and sleeps out its backoff.
        t.restart(id);
        assert!(!t.expire(99 * MS), "not due yet");
        assert!(!t.expire(100 * MS), "a running job is marked, not ended");
        assert!(claim.cancel.load(Ordering::Acquire), "the token is raised");
        // The worker wakes to the raised token and ends the job bare.
        assert!(t.end(id, Ending::Cancelled, Reclaimed::default(), 101 * MS));
        let job = t.job(id).unwrap();
        assert_eq!(job.state, JobState::Failed);
        assert!(matches!(
            job.outcome,
            Some(Err(JobError::DeadlineExceeded { deadline_ms: 100 }))
        ));
        assert_eq!(job.error.as_deref(), Some("deadline exceeded after 100ms"));
        // Later ticks and a second end change nothing.
        assert!(!t.expire(200 * MS));
        assert!(!t.end(id, Ending::Cancelled, Reclaimed::default(), 201 * MS));
        let s = t.snapshot();
        assert_eq!(
            (s.failed, s.jobs_deadline_exceeded, s.cancelled, s.completed),
            (1, 1, 0, 0)
        );
        assert_eq!(s.jobs_retried, 1);
        assert_eq!((s.job_retries.count(), s.job_retries.sum), (1, 1));
        assert_eq!((s.wall_seconds.count(), s.wall_seconds.sum), (1, 100 * MS));
    }

    #[test]
    fn a_client_cancel_between_attempts_ends_cancelled_without_an_outcome() {
        let mut t = table(8, 0);
        let id = admit(&mut t, None, 0).unwrap();
        let _claim = t.claim(id, MS).unwrap();
        t.restart(id);
        assert_eq!(t.cancel(id), Some(JobState::Running));
        assert!(t.end(id, Ending::Cancelled, Reclaimed::default(), 2 * MS));
        let job = t.job(id).unwrap();
        assert_eq!(job.state, JobState::Cancelled);
        assert!(job.outcome.is_none() && job.error.is_none());
        assert_eq!(t.cancel(id), None, "finished jobs are not cancellable");
        let s = t.snapshot();
        assert_eq!(
            (s.cancelled, s.failed, s.completed, s.jobs_deadline_exceeded),
            (1, 0, 0, 0)
        );
        assert_eq!((s.job_retries.count(), s.job_retries.sum), (1, 1));
    }

    #[test]
    fn a_queued_job_expires_without_running_and_a_raised_claim_ends_it() {
        let mut t = table(8, 0);
        let expiring = admit(&mut t, Some(5), 0).unwrap();
        let cancelled = admit(&mut t, None, 0).unwrap();
        assert!(t.expire(5 * MS), "a queued job ends at its deadline");
        assert!(t.claim(expiring, 6 * MS).is_none());
        assert_eq!(t.job(expiring).unwrap().state, JobState::Failed);
        assert_eq!(t.cancel(cancelled), Some(JobState::Queued));
        assert!(
            t.claim(cancelled, 7 * MS).is_none(),
            "a raised claim ends the job"
        );
        assert_eq!(t.job(cancelled).unwrap().state, JobState::Cancelled);
        let s = t.snapshot();
        assert_eq!((s.failed, s.jobs_deadline_exceeded, s.cancelled), (1, 1, 1));
        // Neither job was claimed: no latency or retry samples.
        assert_eq!(s.queue_seconds.count() + s.wall_seconds.count(), 0);
        assert_eq!(s.job_retries.count(), 0);
    }

    #[test]
    fn a_run_stopped_by_its_deadline_keeps_no_partial_outcome() {
        let mut t = table(8, 0);
        let id = admit(&mut t, Some(10), 0).unwrap();
        let claim = t.claim(id, 0).unwrap();
        t.expire(10 * MS);
        let ran = Ending::Ran {
            outcome: outcome(),
            cancelled: true,
        };
        assert!(t.end(id, ran, claim.warm, 11 * MS));
        let job = t.job(id).unwrap();
        assert!(matches!(
            job.outcome,
            Some(Err(JobError::DeadlineExceeded { deadline_ms: 10 }))
        ));
        let s = t.snapshot();
        assert_eq!((s.failed, s.jobs_deadline_exceeded, s.cancelled), (1, 1, 0));
        let verify = outcome().verification_total();
        assert_eq!(
            s.verify_sat_queries, verify.sat_queries,
            "the run's work still counts"
        );
    }

    #[test]
    fn claims_follow_admission_order_and_hand_each_job_out_once() {
        let mut t = table(8, 0);
        let ids: Vec<u64> = (0..5).map(|_| admit(&mut t, None, 0).unwrap()).collect();
        let mut claimed = Vec::new();
        while let (Some((id, _claim)), ended) = t.claim_next(MS) {
            assert!(!ended);
            assert_eq!(t.job(id).unwrap().state, JobState::Running);
            claimed.push(id);
        }
        assert_eq!(claimed, ids);
        assert!(
            t.claim(ids[0], 2 * MS).is_none(),
            "a running job is not claimed again"
        );
        let later = admit(&mut t, None, 3 * MS).unwrap();
        assert_eq!(t.claim_next(4 * MS).0.map(|(id, _)| id), Some(later));
        assert_eq!(t.snapshot().queue_seconds.count(), 6);
    }

    #[test]
    fn claims_skip_jobs_that_ended_while_queued() {
        let mut t = table(8, 0);
        let expired = admit(&mut t, Some(5), 0).unwrap();
        let next = admit(&mut t, None, 0).unwrap();
        assert!(t.expire(5 * MS));
        let (claim, ended) = t.claim_next(6 * MS);
        assert_eq!(claim.map(|(id, _)| id), Some(next));
        assert!(
            !ended,
            "the expired job ended at its deadline, not at a claim"
        );
        assert_eq!(t.job(expired).unwrap().state, JobState::Failed);
        // Shutdown's drain ends what is still queued and leaves the
        // running job to its worker.
        let abandoned = admit(&mut t, None, 7 * MS).unwrap();
        t.abandon_queued(8 * MS);
        assert_eq!(t.job(abandoned).unwrap().state, JobState::Cancelled);
        assert_eq!(t.job(next).unwrap().state, JobState::Running);
        assert!(t.claim_next(9 * MS).0.is_none() && t.queue.is_empty());
        let s = t.snapshot();
        assert_eq!((s.failed, s.cancelled, s.running), (1, 1, 1));
    }

    #[test]
    fn a_raised_token_ends_its_job_at_the_claim_and_the_next_one_is_claimed() {
        let mut t = table(8, 0);
        let cancelled = admit(&mut t, None, 0).unwrap();
        let next = admit(&mut t, None, 0).unwrap();
        assert_eq!(t.cancel(cancelled), Some(JobState::Queued));
        let (claim, ended) = t.claim_next(MS);
        assert_eq!(claim.map(|(id, _)| id), Some(next));
        assert!(ended, "the cancelled job ended at its claim");
        assert_eq!(t.job(cancelled).unwrap().state, JobState::Cancelled);
        let s = t.snapshot();
        assert_eq!((s.cancelled, s.running, s.queue_seconds.count()), (1, 1, 1));
    }

    #[test]
    fn an_empty_queue_hands_out_nothing() {
        let mut t = table(8, 0);
        assert!(matches!(t.claim_next(0), (None, false)));
        let id = admit(&mut t, None, 0).unwrap();
        t.cancel(id);
        assert!(
            matches!(t.claim_next(MS), (None, true)),
            "only a cancelled job was queued"
        );
        assert!(matches!(t.claim_next(2 * MS), (None, false)));
        assert_eq!(t.snapshot().queue_seconds.count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        /// Random sequences of every transition keep the table's books.
        /// Workers are modelled by the claims the sequence holds: only a
        /// claim's holder restarts or ends a running job, as in the
        /// service. After every step: the counters add up, each job ends
        /// exactly once (and `end` lands exactly on the first try),
        /// finished records hold no live half, live records are never
        /// dropped, and the retention bound holds.
        #[test]
        fn random_transition_sequences_keep_the_books(
            retain in 1usize..5,
            max_queued in 0usize..4,
            steps in prop::collection::vec((0u8..7, any::<u8>()), 1..48),
        ) {
            let mut t = table(retain, max_queued);
            let (mut now, mut admitted, mut ended) = (0, Vec::new(), BTreeSet::new());
            let mut running: Vec<(u64, Claim)> = Vec::new();
            // Ended jobs by the state they were first seen in (done,
            // failed, cancelled), and those evicted before being seen.
            let (mut seen, mut unseen) = ([0u64; 3], 0);
            for (op, arg) in steps {
                now += u64::from(arg) * MS / 16;
                let at = usize::from(arg);
                match op {
                    0 => {
                        let deadline = (arg % 3 == 0).then_some(u64::from(arg % 32));
                        admitted.extend(admit(&mut t, deadline, now));
                    }
                    1 if !admitted.is_empty() => {
                        let id = admitted[at % admitted.len()];
                        running.extend(t.claim(id, now).map(|claim| (id, claim)));
                    }
                    2 if !admitted.is_empty() => {
                        let id = admitted[at % admitted.len()];
                        prop_assert_eq!(t.cancel(id).is_some(), !ended.contains(&id));
                    }
                    3 => {
                        t.expire(now);
                    }
                    4 if !running.is_empty() => t.restart(running[at % running.len()].0),
                    5 if !running.is_empty() => {
                        let (id, claim) = running.swap_remove(at % running.len());
                        let hit = t.jobs[&id].live.as_ref().unwrap().deadline_hit;
                        let (ending, want) = match arg % 4 {
                            0 => (Ending::Ran { outcome: outcome(), cancelled: false }, JobState::Done),
                            1 => (Ending::Ran { outcome: outcome(), cancelled: true }, JobState::Cancelled),
                            2 => {
                                let error = JobError::RetriesExhausted { attempts: 1, last: "fault".into() };
                                (Ending::Failed(error), JobState::Failed)
                            }
                            _ => (Ending::Cancelled, JobState::Cancelled),
                        };
                        let want = if hit && want == JobState::Cancelled { JobState::Failed } else { want };
                        prop_assert!(t.end(id, ending, claim.warm, now), "a worker's end lands");
                        prop_assert_eq!(t.job(id).unwrap().state, want);
                    }
                    // Shutdown's drain: end any job no worker holds.
                    6 if !admitted.is_empty() => {
                        let id = admitted[at % admitted.len()];
                        if running.iter().all(|(held, _)| *held != id) {
                            let landed = t.end(id, Ending::Cancelled, Reclaimed::default(), now);
                            prop_assert_eq!(landed, !ended.contains(&id));
                        }
                    }
                    _ => {}
                }

                let s = t.snapshot();
                prop_assert_eq!(s.submitted, s.queued + s.running + s.completed + s.failed + s.cancelled);
                prop_assert_eq!(s.submitted, admitted.len() as u64);
                prop_assert_eq!(s.running, running.len() as u64);
                for &id in &admitted {
                    match t.job(id) {
                        // Only an ended job's record is ever dropped; the
                        // counter check below catches a dropped live one.
                        None => unseen += u64::from(ended.insert(id)),
                        Some(job) if terminal(job.state) => {
                            prop_assert!(job.live.is_none(), "job {} finished with its live half", id);
                            if ended.insert(id) {
                                seen[match job.state { JobState::Done => 0, JobState::Failed => 1, _ => 2 }] += 1;
                            }
                        }
                        Some(job) => {
                            prop_assert!(job.live.is_some(), "live job {} lost its live half", id);
                            prop_assert!(!ended.contains(&id), "job {} came back to life", id);
                        }
                    }
                }
                // Each ended job moved exactly one counter, the one its
                // state names.
                let counted = [s.completed, s.failed, s.cancelled];
                prop_assert!((0..3).all(|k| counted[k] >= seen[k]), "{:?} < {:?}", counted, seen);
                prop_assert_eq!(counted.iter().sum::<u64>(), seen.iter().sum::<u64>() + unseen);
                prop_assert!(s.jobs_deadline_exceeded <= s.failed);
                let retained = t.jobs.values().filter(|j| j.live.is_none()).count();
                prop_assert_eq!(retained, t.finished.len());
                prop_assert!(retained <= retain, "{} finished records kept, bound {}", retained, retain);
            }
        }
    }
}
