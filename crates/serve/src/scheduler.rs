//! The work-stealing queues of the persistent [`crate::ClosureService`].
//!
//! Each long-lived worker owns a local deque; jobs are dealt
//! round-robin at submission, owners pop oldest-first from their own
//! queue, and an idle worker scans its peers in a fixed ring order and
//! steals from the *back* of the first non-empty queue it finds — so a
//! few expensive designs bunched onto one worker never leave the rest
//! idle. These queues are the workspace's one batch runner: a one-shot
//! batch of designs runs on an in-process service as well.
//!
//! Scheduling never changes results: jobs are independent and each
//! job's outcome is identical to a standalone run — the engine's own
//! determinism contract. Only *where* a job ran (and the steal counter)
//! varies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// The shared queue set: one mutex-guarded deque per worker plus the
/// blocking/steal discipline.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued item, claimed by `worker` until nothing is left.
    fn drain(queues: &StealQueues<u64>, worker: usize) -> Vec<u64> {
        std::iter::from_fn(|| queues.pop(worker)).collect()
    }

    #[test]
    fn all_jobs_run_once_in_submission_order() {
        // The round-robin deal: `push` wraps the worker index, so job i
        // lands on queue i % 4. Every job is claimed exactly once, each
        // owner seeing its own share oldest-first.
        let queues = StealQueues::new(4);
        assert_eq!(queues.worker_count(), 4);
        for job in 0..23u64 {
            queues.push(job as usize, job);
        }
        let mut claimed = Vec::new();
        for worker in 0..4u64 {
            let own: Vec<u64> = (0..23).filter(|j| j % 4 == worker).collect();
            let got: Vec<u64> = (0..own.len())
                .map(|_| queues.pop(worker as usize).expect("own share queued"))
                .collect();
            assert_eq!(got, own, "worker {worker} pops its own queue oldest-first");
            claimed.extend(got);
        }
        assert_eq!(queues.steals(), 0, "own-queue pops are not steals");
        assert_eq!(queues.pop(0), None, "nothing is handed out twice");
        claimed.sort_unstable();
        assert_eq!(claimed, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_rebalances_a_skewed_deal() {
        // Everything lands on worker 0; an idle peer takes the *newest*
        // job from the back while the owner keeps the oldest, and only
        // the peer's claims count as steals.
        let queues = StealQueues::new(4);
        for job in 0..6u64 {
            queues.push(0, job);
        }
        assert_eq!(queues.pop(2), Some(5));
        assert_eq!(queues.pop(0), Some(0));
        assert_eq!(queues.pop(3), Some(4));
        assert_eq!(queues.steals(), 2);
        assert_eq!(drain(&queues, 0), [1, 2, 3]);
        assert_eq!(queues.steals(), 2);
        assert_eq!(queues.pop(1), None, "nothing left to steal");
    }

    #[test]
    fn idle_workers_scan_their_peers_in_ring_order() {
        // Worker 2's ring is 3, 0, 1: it empties queue 3 before touching
        // queue 0, and queue 0 before queue 1.
        let queues = StealQueues::new(4);
        queues.push(1, 10);
        queues.push(0, 20);
        queues.push(3, 30);
        queues.push(3, 31);
        assert_eq!(drain(&queues, 2), [31, 30, 20, 10]);
        assert_eq!(queues.steals(), 4);
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        // Zero workers is clamped to one; its only queue is a FIFO and
        // there is nobody to steal from.
        let queues = StealQueues::new(0);
        assert_eq!(queues.worker_count(), 1);
        for job in [1u64, 2, 3] {
            queues.push(job as usize, job);
        }
        assert_eq!(drain(&queues, 0), [1, 2, 3]);
        assert_eq!(queues.steals(), 0);
    }
}
