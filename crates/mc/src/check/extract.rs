//! Canonical counterexamples extracted beside the deciding search.
//!
//! A violated SAT verdict's trace is a function of the design, the
//! property and the violating window start alone: the canonical scan on
//! a pristine prefix ([`crate::bmc::canonical_cex`]). Nothing the
//! deciding thread does next can change it. So on a design with latches
//! the single-session path of [`crate::Checker::check_batch`] hands each
//! `(property, start)` to [`Extractions`] and goes on to the next
//! property. The first hand-over starts a helper thread in the batch's
//! scope, which takes the session's scratch unrolling and extracts, in
//! hand-over order, while the session decides. The batch joins it once
//! it is decided and takes the scratch back.
//!
//! The helper allocates nothing once the scratch is warm, and frees
//! nothing. The deciding thread builds each prefix, sizes the scratch
//! before the helper starts, and allocates each extraction's input-bit
//! buffer before handing it over ([`CheckSession::extraction`]). It
//! takes every extraction back, buffer and prefix handle included, and
//! assembles the traces itself. (A helper thread that allocates gets an
//! allocator arena of its own, and with it a higher peak resident size.)
//!
//! The helper polls the batch's cancel token between extractions. Once
//! the token is raised, every extraction still queued comes back
//! unextracted, and the batch fails with [`crate::McError::Cancelled`].

use crate::bmc::Unroller;
use crate::prop::WindowProperty;
use crate::session::{cancel_requested, CheckSession, Extraction};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

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
    pending: VecDeque<Extraction<'p>>,
    /// Extractions the helper is done with, in hand-over order. The
    /// deciding thread keeps room for every pending one and the one in
    /// flight, so the helper's push never grows it.
    done: Vec<Extraction<'p>>,
    /// No more work will arrive.
    closed: bool,
}

impl<'p> Handoff<'p> {
    /// The queue is consistent between any two statements, so a panic
    /// on either side leaves it usable.
    fn lock(&self) -> MutexGuard<'_, Queue<'p>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's next extraction, the oldest queued; `None` once the
    /// queue is closed and drained.
    fn next(&self) -> Option<Extraction<'p>> {
        let mut queue = self.lock();
        loop {
            if let Some(extraction) = queue.pending.pop_front() {
                return Some(extraction);
            }
            if queue.closed {
                return None;
            }
            queue = (self.wake.wait(queue)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Queues `extraction` for the helper.
    fn submit(&self, extraction: Extraction<'p>) {
        let mut queue = self.lock();
        queue.pending.push_back(extraction);
        let in_flight = queue.pending.len() + 1;
        queue.done.reserve(in_flight);
        drop(queue);
        self.wake.notify_one();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }
}

/// A batch's violated verdicts on their way to traces, from the
/// deciding thread's side.
pub(super) struct Extractions<'scope, 'env, 'p> {
    scope: &'scope Scope<'scope, 'env>,
    handoff: &'scope Handoff<'p>,
    cancel: Option<&'scope AtomicBool>,
    helper: Option<ScopedJoinHandle<'scope, Unroller>>,
}

impl<'scope, 'env, 'p: 'scope> Extractions<'scope, 'env, 'p> {
    /// No extraction yet. A helper will run in `scope`, queue through
    /// `handoff`, and poll `cancel` between extractions.
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
        }
    }

    /// Hands over the extraction of `prop`'s violation at `start`,
    /// starting the helper on `session`'s scratch at the first.
    pub(super) fn push(
        &mut self,
        session: &mut CheckSession,
        prop: &'p WindowProperty,
        start: usize,
    ) {
        let extraction = session.extraction(prop, start);
        if self.helper.is_none() {
            // Sized here, so that a cold scratch grows on this thread
            // rather than on the helper.
            let mut scratch = session.take_scratch();
            scratch.clone_from(extraction.prefix());
            self.helper = Some(self.spawn(scratch));
        }
        self.handoff.submit(extraction);
    }

    /// Starts the helper on `scratch`; its spans record into the
    /// calling thread's sink.
    fn spawn(&self, mut scratch: Unroller) -> ScopedJoinHandle<'scope, Unroller> {
        let (handoff, cancel) = (self.handoff, self.cancel);
        let sink = gm_trace::thread_sink();
        self.scope.spawn(move || {
            let _sink = sink.map(gm_trace::push_thread_sink);
            while let Some(mut extraction) = handoff.next() {
                if !stalled_or_cancelled(cancel) {
                    extraction.run(&mut scratch);
                }
                handoff.lock().done.push(extraction);
            }
            scratch
        })
    }

    /// Every extraction handed over, back in hand-over order, with the
    /// scratch back in `session`.
    pub(super) fn finish(mut self, session: &mut CheckSession) -> Vec<Extraction<'p>> {
        let Some(helper) = self.helper.take() else {
            return Vec::new();
        };
        self.handoff.close();
        let scratch = (helper.join()).unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let extractions = std::mem::take(&mut self.handoff.lock().done);
        let extracted = extractions.iter().filter(|e| e.extracted()).count();
        session.restore_scratch(scratch, extracted as u64);
        extractions
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

/// The helper's poll site: whether the batch's token is raised. The
/// `mc.extract_stall` fault point (armed by tests only, and only with a
/// token present) wedges the helper here until the token rises, so a
/// test can raise it with extractions still queued.
fn stalled_or_cancelled(cancel: Option<&AtomicBool>) -> bool {
    if let Some(token) = cancel {
        if gm_fault::fire("mc.extract_stall") {
            while !token.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    cancel_requested(cancel)
}
