//! The work-stealing scheduler.
//!
//! Each worker owns a local deque; jobs are dealt round-robin at
//! submission, owners pop oldest-first from their own queue, and an
//! idle worker scans its peers in a fixed ring order and steals from
//! the *back* of the first non-empty queue it finds — so a few
//! expensive designs bunched onto one worker never leave the rest idle
//! (see the `serve` bench kernels).
//!
//! Scheduling never changes results: jobs are independent, results are
//! merged back in submission order, and each job's outcome is identical
//! to a standalone run — the engine's own determinism contract. Only
//! *where* a job ran (and the [`SchedStats`] steal counters) varies.
//!
//! [`run_jobs`] is the batch entry point used by [`run_campaign`] and
//! the bench kernels; the persistent [`crate::ClosureService`] runs the
//! same queue discipline with long-lived workers.

use goldmine::{CampaignJob, CampaignRun, CampaignSummary, Engine};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Counters from one scheduler run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs a worker claimed from a peer's queue.
    pub steals: u64,
    /// Jobs executed per worker (index = worker).
    pub per_worker: Vec<u64>,
}

/// The shared queue set: one mutex-guarded deque per worker plus the
/// blocking/steal discipline. Used by both the batch [`run_jobs`] and
/// the persistent service pool.
#[derive(Debug)]
pub(crate) struct StealQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    steals: AtomicU64,
    /// Wakes parked workers on new work or shutdown. Guarded by its own
    /// mutex: waiters re-check the queues after every wake.
    signal: Mutex<()>,
    cv: Condvar,
}

impl<T> StealQueues<T> {
    pub(crate) fn new(workers: usize) -> Self {
        StealQueues {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            steals: AtomicU64::new(0),
            signal: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.queues.len()
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Enqueues onto `worker`'s local queue and wakes parked workers.
    pub(crate) fn push(&self, worker: usize, item: T) {
        self.queues[worker % self.queues.len()]
            .lock()
            .expect("queue poisoned")
            .push_back(item);
        self.cv.notify_all();
    }

    /// Claims the next item for `worker`: oldest from its own queue,
    /// else from the back of the first non-empty peer queue in ring
    /// order.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        if let Some(item) = self.queues[worker]
            .lock()
            .expect("queue poisoned")
            .pop_front()
        {
            return Some(item);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (worker + step) % n;
            if let Some(item) = self.queues[victim]
                .lock()
                .expect("queue poisoned")
                .pop_back()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(item);
            }
        }
        None
    }

    /// Parks `worker` until new work may be available or `closed`
    /// becomes true. Spurious wakes are fine — callers loop on
    /// [`StealQueues::pop`].
    pub(crate) fn park(&self, closed: impl Fn() -> bool) {
        let guard = self.signal.lock().expect("signal poisoned");
        if closed() {
            return;
        }
        // Re-check under the signal lock happens in the caller's next
        // pop; a short timeout bounds the lost-wakeup window.
        let _unused = self
            .cv
            .wait_timeout(guard, std::time::Duration::from_millis(50))
            .expect("signal poisoned");
    }

    /// Wakes every parked worker (shutdown or new-work broadcast).
    pub(crate) fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// Runs `jobs` on `workers` threads, returning results in submission
/// order plus the scheduler counters.
///
/// The deal is deterministic (job `i` lands on worker `i % workers`);
/// idle workers then rebalance dynamically. Each job runs exactly once,
/// so the result vector never depends on who stole what — only wall
/// time and the steal counters do.
pub fn run_jobs_stats<T, R, F>(jobs: Vec<T>, workers: usize, run: F) -> (Vec<R>, SchedStats)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.max(1).min(jobs.len().max(1));
    let queues: StealQueues<(usize, T)> = StealQueues::new(workers);
    let total = jobs.len();
    for (i, job) in jobs.into_iter().enumerate() {
        queues.push(i % workers, (i, job));
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    let per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|scope| {
        for (w, counter) in per_worker.iter().enumerate() {
            let queues = &queues;
            let results = &results;
            let run = &run;
            scope.spawn(move || {
                while let Some((i, job)) = queues.pop(w) {
                    let r = run(job);
                    counter.fetch_add(1, Ordering::Relaxed);
                    results.lock().expect("results poisoned")[i] = Some(r);
                }
            });
        }
    });
    let stats = SchedStats {
        steals: queues.steals(),
        per_worker: per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
    };
    (
        results
            .into_inner()
            .expect("results poisoned")
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect(),
        stats,
    )
}

/// [`run_jobs_stats`] without the counters.
pub fn run_jobs<T, R, F>(jobs: Vec<T>, workers: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    run_jobs_stats(jobs, workers, run).0
}

/// Runs a batch of closure jobs — [`goldmine::Campaign`] jobs, e.g.
/// from [`goldmine::Campaign::into_jobs`] — on the work-stealing pool,
/// producing the same submission-ordered [`CampaignSummary`] the
/// campaign runner would.
///
/// # Examples
///
/// ```
/// use gm_serve::run_campaign;
/// use goldmine::{Campaign, EngineConfig, SeedStimulus};
///
/// let mut campaign = Campaign::new();
/// let module = gm_rtl::parse_verilog(
///     "module m(input a, output y); assign y = a; endmodule")?;
/// let config = EngineConfig {
///     window: 0,
///     stimulus: SeedStimulus::Random { cycles: 8 },
///     record_coverage: false,
///     ..EngineConfig::default()
/// };
/// campaign.push("m", module, config);
/// let summary = run_campaign(campaign.into_jobs(), 2);
/// assert!(summary.all_converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_campaign(jobs: Vec<CampaignJob>, workers: usize) -> CampaignSummary {
    let runs = run_jobs(jobs, workers, |job: CampaignJob| {
        let outcome = Engine::new(&job.module, job.config.clone()).and_then(|engine| engine.run());
        CampaignRun {
            name: job.name,
            outcome,
        }
    });
    CampaignSummary { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_jobs_run_once_in_submission_order() {
        let jobs: Vec<u64> = (0..23).collect();
        let (results, stats) = run_jobs_stats(jobs, 4, |j| j * 2);
        assert_eq!(results, (0..23).map(|j| j * 2).collect::<Vec<_>>());
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 23);
    }

    #[test]
    fn stealing_rebalances_a_skewed_deal() {
        // Worker 0 gets every slow job under the static deal; with
        // stealing, its peers must take some of them.
        let jobs: Vec<u64> = (0..12).collect();
        let slow = |j: u64| {
            if j.is_multiple_of(4) {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            j
        };
        let (_, stats) = run_jobs_stats(jobs, 4, slow);
        assert!(
            stats.steals > 0,
            "idle workers must steal the skewed tail: {stats:?}"
        );
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let (results, stats) = run_jobs_stats(vec![1, 2, 3], 1, |j| j + 1);
        assert_eq!(results, vec![2, 3, 4]);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.per_worker, vec![3]);
    }
}
