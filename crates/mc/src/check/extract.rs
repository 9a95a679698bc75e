//! Canonical counterexamples extracted beside the deciding search.
//!
//! A violated SAT verdict's trace is a function of the design, the
//! property and the violating window start alone: the canonical scan on
//! a pristine prefix ([`crate::bmc::canonical_cex`]). Nothing the
//! deciding thread does next can change it. So on a design with latches
//! the single-session path of [`crate::Checker::check_batch`] hands each
//! `(property, start)` to [`Extractions`] and goes on to the next
//! property. The second hand-over starts a helper thread in the batch's
//! scope, which takes the session's helper scratch unrolling and
//! extracts the oldest pending extraction, then the next, while the
//! session decides. Once the batch's decisions run out, the deciding
//! thread drains the queue from the other end, the newest first, on the
//! session's own scratch; it then joins the helper and takes its scratch
//! back. A batch with one violated verdict starts no helper: the
//! deciding thread extracts it.
//!
//! Every extraction keeps its hand-over index, its slot in the queue,
//! whichever thread takes it, so the batch gets them back in hand-over
//! order.
//!
//! The helper allocates nothing once its scratch is warm, and frees
//! nothing. The deciding thread builds each prefix, sizes the helper's
//! scratch before the helper starts, allocates each extraction's
//! input-bit buffer and its slot before handing it over
//! ([`CheckSession::extraction`]), and takes every extraction back,
//! buffer and prefix handle included; the buffer becomes the trace as
//! it is, on this thread. (A
//! helper thread that allocates gets an allocator arena of its own, and
//! with it a higher peak resident size.) Its own scratch is the one
//! [`CheckSession`] extracts on everywhere else, kept across batches.
//!
//! Both threads poll the batch's cancel token between extractions. Once
//! the token is raised, every extraction still pending comes back
//! unextracted, and the batch fails with [`crate::McError::Cancelled`].

use crate::bmc::Unroller;
use crate::prop::WindowProperty;
use crate::session::{cancel_requested, CheckSession, Extraction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// The queue between the deciding thread and its helper. It lives
/// outside the scope the helper runs in, which borrows it.
#[derive(Debug, Default)]
pub(super) struct Handoff<'p> {
    queue: Mutex<Queue<'p>>,
    /// Signalled when work arrives or the queue closes.
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Queue<'p> {
    /// Every extraction handed over, at its hand-over index. A slot is
    /// empty while a thread extracts it; the deciding thread makes the
    /// slot when it hands the extraction over, so putting one back
    /// never grows the list.
    slots: Vec<Option<Extraction<'p>>>,
    /// The pending extractions are `slots[head..tail]`. The helper
    /// takes them from `head`, the deciding thread from `tail`.
    head: usize,
    tail: usize,
    /// No more work will arrive.
    closed: bool,
}

impl<'p> Handoff<'p> {
    /// The queue is consistent between any two statements, so a panic
    /// on either side leaves it usable.
    fn lock(&self) -> MutexGuard<'_, Queue<'p>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's next extraction, the oldest pending, with its
    /// index; `None` once the queue is closed and drained.
    fn next(&self) -> Option<(usize, Extraction<'p>)> {
        let mut queue = self.lock();
        loop {
            if queue.head < queue.tail {
                let at = queue.head;
                queue.head += 1;
                return Some((at, queue.slots[at].take().expect("a pending slot is full")));
            }
            if queue.closed {
                return None;
            }
            queue = (self.wake.wait(queue)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The deciding thread's next extraction, the newest pending, with
    /// its index; `None` once nothing is pending.
    fn steal(&self) -> Option<(usize, Extraction<'p>)> {
        let mut queue = self.lock();
        if queue.head == queue.tail {
            return None;
        }
        queue.tail -= 1;
        let at = queue.tail;
        Some((at, queue.slots[at].take().expect("a pending slot is full")))
    }

    /// Returns `extraction` to its slot, `at`, done with.
    fn put_back(&self, at: usize, extraction: Extraction<'p>) {
        self.lock().slots[at] = Some(extraction);
    }

    /// Queues `extraction`.
    fn submit(&self, extraction: Extraction<'p>) {
        let mut queue = self.lock();
        queue.slots.push(Some(extraction));
        queue.tail = queue.slots.len();
        drop(queue);
        self.wake.notify_one();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Waits until nothing is pending or the queue is closed.
    fn drained(&self) {
        loop {
            let queue = self.lock();
            if queue.head == queue.tail || queue.closed {
                return;
            }
            drop(queue);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A batch's violated verdicts on their way to traces, from the
/// deciding thread's side.
pub(super) struct Extractions<'scope, 'env, 'p> {
    scope: &'scope Scope<'scope, 'env>,
    handoff: &'scope Handoff<'p>,
    cancel: Option<&'scope AtomicBool>,
    helper: Option<ScopedJoinHandle<'scope, Unroller>>,
    handed_over: usize,
}

impl<'scope, 'env, 'p: 'scope> Extractions<'scope, 'env, 'p> {
    /// No extraction yet. A helper will run in `scope`, queue through
    /// `handoff`, and both threads poll `cancel` between extractions.
    pub(super) fn new(
        scope: &'scope Scope<'scope, 'env>,
        handoff: &'scope Handoff<'p>,
        cancel: Option<&'scope AtomicBool>,
    ) -> Self {
        Extractions {
            scope,
            handoff,
            cancel,
            helper: None,
            handed_over: 0,
        }
    }

    /// Hands over the extraction of `prop`'s violation at `start`,
    /// starting the helper on `session`'s helper scratch at the second.
    pub(super) fn push(
        &mut self,
        session: &mut CheckSession,
        prop: &'p WindowProperty,
        start: usize,
    ) {
        let extraction = session.extraction(prop, start);
        if self.handed_over == 1 {
            // Sized here, so that a cold scratch grows on this thread
            // rather than on the helper.
            let mut scratch = session.take_helper_scratch();
            scratch.clone_from(extraction.prefix());
            self.helper = Some(self.spawn(scratch));
        }
        self.handoff.submit(extraction);
        self.handed_over += 1;
    }

    /// Starts the helper on `scratch`; its spans record into the
    /// calling thread's sink.
    fn spawn(&self, mut scratch: Unroller) -> ScopedJoinHandle<'scope, Unroller> {
        let (handoff, cancel) = (self.handoff, self.cancel);
        let sink = gm_trace::thread_sink();
        self.scope.spawn(move || {
            let _sink = sink.map(gm_trace::push_thread_sink);
            while let Some((at, mut extraction)) = handoff.next() {
                if gm_fault::fire("mc.extract_hold") {
                    handoff.drained();
                }
                if !stalled_or_cancelled(cancel) {
                    extraction.run(&mut scratch);
                }
                handoff.put_back(at, extraction);
            }
            scratch
        })
    }

    /// Drains what is still pending, the newest first, on `session`'s
    /// scratch, then joins the helper: every extraction handed over,
    /// back in hand-over order, with both scratches back in `session`,
    /// and how many of them this thread extracted.
    pub(super) fn finish(
        mut self,
        session: &mut CheckSession,
    ) -> (impl Iterator<Item = Extraction<'p>>, u64) {
        let (mut scratch, mut stolen) = (None, 0);
        while let Some((at, mut extraction)) = self.handoff.steal() {
            let cancelled = stalled_or_cancelled(self.cancel);
            if !cancelled {
                extraction.run(scratch.get_or_insert_with(|| session.take_scratch()));
                stolen += 1;
            }
            self.handoff.put_back(at, extraction);
            if cancelled {
                break;
            }
        }
        if let Some(scratch) = scratch {
            session.restore_scratch(scratch, stolen);
        }
        let helper = self.helper.take().map(|helper| {
            self.handoff.close();
            (helper.join()).unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        let slots = std::mem::take(&mut self.handoff.lock().slots);
        if let Some(scratch) = helper {
            let extracted = (slots.iter().flatten()).filter(|e| e.extracted()).count() as u64;
            session.restore_helper_scratch(scratch, extracted - stolen);
        }
        let extractions = (slots.into_iter()).map(|e| e.expect("every extraction came back"));
        (extractions, stolen)
    }
}

/// A deciding thread that unwinds past a running helper still lets it
/// stop, so the scope around both can join it.
impl Drop for Extractions<'_, '_, '_> {
    fn drop(&mut self) {
        if self.helper.is_some() {
            self.handoff.close();
        }
    }
}

/// Either thread's poll site: whether the batch's token is raised. The
/// `mc.extract_stall` fault point (armed by tests only, and only with a
/// token present) wedges the thread here until the token rises, so a
/// test can raise it with extractions still pending. The helper also
/// evaluates `mc.extract_hold` just before, which holds it until
/// nothing is pending, so that a test sees the deciding thread extract
/// all but the helper's first.
fn stalled_or_cancelled(cancel: Option<&AtomicBool>) -> bool {
    if let Some(token) = cancel {
        if gm_fault::fire("mc.extract_stall") {
            while !token.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    cancel_requested(cancel)
}
