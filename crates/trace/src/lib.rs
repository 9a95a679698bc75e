//! # gm-trace — structured span/event flight recorder
//!
//! A low-overhead tracing layer for the closure pipeline. Call sites in
//! the hot crates (`gm_sim`, `gm_mine`, `gm_mc`, `goldmine`, `gm_serve`)
//! open [`span`]s around meaningful units of work — a simulation batch
//! pass, a tree fit, a SAT query, an engine iteration, a served job —
//! and the recorder collects them into a bounded per-sink ring that
//! exports as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`).
//!
//! ## Design
//!
//! - **No-op when off.** When no sink is installed anywhere in the
//!   process, [`span`] costs one relaxed atomic load and a branch. The
//!   closure engine's byte-identity suites prove outcomes are identical
//!   with the recorder on and off; a bench kernel bounds the off-cost.
//! - **Sink resolution.** A span records into the calling thread's
//!   sink if one was installed with [`push_thread_sink`] (the serving
//!   daemon installs a per-job sink around each job it runs), else into
//!   the process-global sink from [`install_global`] (standalone traced
//!   runs), else nowhere. A thread sink *shadows* the global sink; it
//!   does not tee.
//! - **Thread-local staging.** Finished events are staged in a
//!   thread-local buffer and flushed to the sink's ring in chunks (at a
//!   size threshold, whenever the thread's span depth returns to zero,
//!   and when the thread sink is uninstalled), so the ring mutex is not
//!   taken per event on the hot path.
//! - **Bounded ring.** Each [`TraceSink`] keeps at most `capacity`
//!   events, dropping the *oldest* beyond that (flight-recorder
//!   semantics: the tail of a run is what you usually want) and
//!   counting the drops, which the export surfaces.
//! - **Monotonic timestamps.** All timestamps are nanoseconds since a
//!   lazily-initialized process epoch, so events recorded by different
//!   threads and different sinks in one process share a timeline.
//!
//! Span names are `&'static str` by construction — dynamic data goes in
//! args — which keeps recording allocation-light and makes the span-name
//! vocabulary a stable, documentable surface (see the README ops
//! runbook).

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events) for [`TraceSink::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 15;

/// Staged events are flushed to the sink ring once this many pile up
/// (they are also flushed whenever the thread's span depth returns to
/// zero and when the thread sink is uninstalled).
const STAGE_FLUSH_LEN: usize = 64;

// ---------------------------------------------------------------------
// Process epoch and activity flag
// ---------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use wins; the
/// first caller observes ~0).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Count of installed sinks (thread sinks + the global sink). The
/// disabled fast path is one relaxed load of this.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);

/// True if any sink is installed anywhere in the process. A cheap
/// pre-filter: a `true` here does not guarantee *this* thread resolves
/// to a sink (another thread's sink keeps it hot), but `false`
/// guarantees every span site is a no-op.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SINKS.load(Ordering::Relaxed) > 0
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A span/event argument value (rendered into the Chrome trace `args`
/// object).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (allocates; prefer numeric args on hot paths).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Event kind, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`"ph": "X"`) with a duration.
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration instant (`"ph": "i"`, thread scope).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span/event name (static: the stable vocabulary).
    pub name: &'static str,
    /// Category (the emitting layer: `"engine"`, `"mc"`, `"sim"`,
    /// `"serve"`).
    pub cat: &'static str,
    /// Start timestamp, nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u32,
    /// Complete-with-duration or instant.
    pub kind: EventKind,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Builds a complete (duration) event with explicit timestamps,
    /// for retroactive spans such as a job's queue wait. The thread id
    /// is taken from the calling thread.
    pub fn complete(cat: &'static str, name: &'static str, ts_ns: u64, dur_ns: u64) -> Self {
        TraceEvent {
            name,
            cat,
            ts_ns,
            tid: current_tid(),
            kind: EventKind::Complete { dur_ns },
            args: Vec::new(),
        }
    }

    /// Builds an instant event stamped now.
    pub fn instant(cat: &'static str, name: &'static str) -> Self {
        TraceEvent {
            name,
            cat,
            ts_ns: now_ns(),
            tid: current_tid(),
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    /// Appends an argument (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// Duration in nanoseconds (0 for instants).
    pub fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Complete { dur_ns } => dur_ns,
            EventKind::Instant => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------

struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

struct SinkInner {
    capacity: usize,
    state: Mutex<Ring>,
}

/// A bounded ring of trace events. Cloning shares the ring; install a
/// clone per thread ([`push_thread_sink`]) or process-wide
/// ([`install_global`]) to start recording into it.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A sink with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink holding at most `capacity` events (oldest dropped, and
    /// counted, beyond that).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            inner: Arc::new(SinkInner {
                capacity,
                state: Mutex::new(Ring {
                    events: VecDeque::new(),
                    dropped: 0,
                }),
            }),
        }
    }

    fn same_sink(&self, other: &TraceSink) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Records one event directly (takes the ring lock; span call
    /// sites go through the thread-local staging path instead).
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.inner.state.lock().unwrap();
        push_bounded(&mut ring, self.inner.capacity, event);
    }

    fn record_batch(&self, events: impl Iterator<Item = TraceEvent>) {
        let mut ring = self.inner.state.lock().unwrap();
        for event in events {
            push_bounded(&mut ring, self.inner.capacity, event);
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().unwrap().dropped
    }

    /// Snapshot of the held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .state
            .lock()
            .unwrap()
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Discards all held events (the dropped counter is reset too).
    pub fn clear(&self) {
        let mut ring = self.inner.state.lock().unwrap();
        ring.events.clear();
        ring.dropped = 0;
    }

    /// Renders the held events as Chrome trace-event JSON — an object
    /// with a `traceEvents` array of `"X"`/`"i"` phase events
    /// (timestamps/durations in microseconds), loadable in Perfetto or
    /// `chrome://tracing`. If the ring overflowed, the drop count is
    /// reported under `otherData.droppedEvents`.
    pub fn export_chrome_json(&self) -> String {
        let ring = self.inner.state.lock().unwrap();
        let mut out = String::with_capacity(64 + ring.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,");
        out.push_str("\"args\":{\"name\":\"goldmine\"}}");
        for ev in &ring.events {
            out.push(',');
            out.push_str("{\"name\":");
            let _ = write_json_string(ev.name, &mut out);
            out.push_str(",\"cat\":");
            let _ = write_json_string(ev.cat, &mut out);
            match ev.kind {
                EventKind::Complete { dur_ns } => {
                    out.push_str(",\"ph\":\"X\",\"dur\":");
                    write_us(&mut out, dur_ns);
                }
                EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            }
            out.push_str(",\"pid\":1,\"tid\":");
            let _ = write!(out, "{}", ev.tid);
            out.push_str(",\"ts\":");
            write_us(&mut out, ev.ts_ns);
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write_json_string(key, &mut out);
                    out.push(':');
                    match value {
                        ArgValue::U64(v) => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::I64(v) => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::F64(v) if v.is_finite() => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::F64(_) => out.push_str("null"),
                        ArgValue::Bool(v) => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::Str(v) => {
                            let _ = write_json_string(v, &mut out);
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');
        if ring.dropped > 0 {
            let _ = write!(
                out,
                ",\"otherData\":{{\"droppedEvents\":\"{}\"}}",
                ring.dropped
            );
        }
        out.push('}');
        out
    }

    /// Aggregates complete spans by name: (name, count, total duration
    /// ns), sorted by total descending. A quick where-did-time-go view
    /// without leaving the terminal.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64)> {
        let ring = self.inner.state.lock().unwrap();
        let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
        for ev in &ring.events {
            if let EventKind::Complete { dur_ns } = ev.kind {
                match agg.iter_mut().find(|(name, _, _)| *name == ev.name) {
                    Some((_, count, total)) => {
                        *count += 1;
                        *total += dur_ns;
                    }
                    None => agg.push((ev.name, 1, dur_ns)),
                }
            }
        }
        agg.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        agg
    }
}

fn push_bounded(ring: &mut Ring, capacity: usize, event: TraceEvent) {
    if ring.events.len() >= capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(event);
}

/// Writes `ns` as microseconds with nanosecond precision (`123.456`),
/// exactly, without a float round trip.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that
/// need no escape in one piece. Every byte that does need one is ASCII,
/// so run boundaries are always char boundaries. The program's one JSON
/// string escaper: the Chrome exporter and `gm_serve`'s wire codec both
/// write through it.
///
/// # Errors
///
/// Propagates `out`'s write failures.
pub fn write_json_string(s: &str, out: &mut impl std::fmt::Write) -> std::fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

// ---------------------------------------------------------------------
// Thread state: current sink, staging buffer, span depth, tid
// ---------------------------------------------------------------------

struct ThreadState {
    sink: Option<TraceSink>,
    staged_for: Option<TraceSink>,
    staged: Vec<TraceEvent>,
    depth: u32,
    tid: u32,
}

impl ThreadState {
    fn flush(&mut self) {
        if let Some(sink) = &self.staged_for {
            if !self.staged.is_empty() {
                sink.record_batch(self.staged.drain(..));
            }
        }
        self.staged.clear();
    }

    fn stage(&mut self, sink: &TraceSink, event: TraceEvent) {
        let same = self
            .staged_for
            .as_ref()
            .is_some_and(|staged| staged.same_sink(sink));
        if !same {
            self.flush();
            self.staged_for = Some(sink.clone());
        }
        self.staged.push(event);
        if self.depth == 0 || self.staged.len() >= STAGE_FLUSH_LEN {
            self.flush();
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState {
        sink: None,
        staged_for: None,
        staged: Vec::new(),
        depth: 0,
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
    });
}

/// Small sequential id of the calling thread (stable for its
/// lifetime; used as the Chrome trace `tid`).
pub fn current_tid() -> u32 {
    THREAD.with(|t| t.borrow().tid)
}

static GLOBAL: OnceLock<TraceSink> = OnceLock::new();

/// Installs `sink` as the process-global recorder — the fallback for
/// threads without a thread sink. Can succeed once per process;
/// returns `false` (and records nothing new) if a global sink was
/// already installed. Intended for traced standalone runs and tools;
/// tests and the serving daemon should prefer the scoped
/// [`push_thread_sink`].
pub fn install_global(sink: TraceSink) -> bool {
    let installed = GLOBAL.set(sink).is_ok();
    if installed {
        ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    }
    installed
}

/// The process-global sink, if one was installed.
pub fn global() -> Option<TraceSink> {
    GLOBAL.get().cloned()
}

/// Installs `sink` as the calling thread's recorder until the returned
/// guard drops (restoring the previous thread sink, if any). Spans
/// opened by this thread while the guard lives record into `sink`,
/// shadowing the global sink.
#[must_use = "the thread sink is uninstalled when the guard drops"]
pub fn push_thread_sink(sink: TraceSink) -> ThreadSinkGuard {
    let prev = THREAD.with(|t| t.borrow_mut().sink.replace(sink));
    ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    ThreadSinkGuard { prev }
}

/// Guard from [`push_thread_sink`]; restores the previous thread sink
/// and flushes staged events on drop.
pub struct ThreadSinkGuard {
    prev: Option<TraceSink>,
}

impl Drop for ThreadSinkGuard {
    fn drop(&mut self) {
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            t.flush();
            t.sink = self.prev.take();
        });
        ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The calling thread's own sink, as [`push_thread_sink`] installed it
/// (not the global fallback). A span records into the sink of the
/// thread that opens it, so a thread that hands work to a helper
/// thread passes this along, and the helper pushes it, to keep the
/// helper's spans in the same recording.
pub fn thread_sink() -> Option<TraceSink> {
    THREAD.with(|t| t.borrow().sink.clone())
}

/// Flushes the calling thread's staged events to their sink.
pub fn flush_thread() {
    THREAD.with(|t| t.borrow_mut().flush());
}

fn current_sink() -> Option<TraceSink> {
    thread_sink().or_else(|| GLOBAL.get().cloned())
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct ActiveSpan {
    sink: TraceSink,
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    kind_instant: bool,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII span handle from [`span`]/[`instant`]. Records a trace event
/// when dropped; inert (a `None`) when the recorder is off.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// True when this span will record (use to skip building costly
    /// args, e.g. strings, on the disabled path).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches an annotation. Values may be added any time before the
    /// guard drops — stats deltas are typically known only after the
    /// work completes. No-op when inactive, but `value` is converted
    /// eagerly: guard string-building call sites with [`Self::is_active`].
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(active) = &mut self.active {
            active.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let (ts_ns, kind) = if active.kind_instant {
            (active.start_ns, EventKind::Instant)
        } else {
            let end = now_ns();
            (
                active.start_ns,
                EventKind::Complete {
                    dur_ns: end.saturating_sub(active.start_ns),
                },
            )
        };
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            if !active.kind_instant {
                t.depth = t.depth.saturating_sub(1);
            }
            let event = TraceEvent {
                name: active.name,
                cat: active.cat,
                ts_ns,
                tid: t.tid,
                kind,
                args: active.args,
            };
            t.stage(&active.sink, event);
        });
    }
}

/// Opens a span; the event is recorded (with its duration) when the
/// returned guard drops. One relaxed atomic load + branch when the
/// recorder is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    span_slow(cat, name, false)
}

/// Records an instant event, stamped at this call. Args can be added
/// on the returned guard before it drops.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    span_slow(cat, name, true)
}

#[cold]
fn span_slow(cat: &'static str, name: &'static str, kind_instant: bool) -> SpanGuard {
    let Some(sink) = current_sink() else {
        return SpanGuard { active: None };
    };
    if !kind_instant {
        THREAD.with(|t| t.borrow_mut().depth += 1);
    }
    SpanGuard {
        active: Some(ActiveSpan {
            sink,
            cat,
            name,
            start_ns: now_ns(),
            kind_instant,
            args: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_sink() {
        // (Other tests in the process may have sinks installed on
        // their own threads; this thread resolves to none as long as
        // no global sink is installed by this test binary.)
        let mut guard = span("test", "noop");
        guard.arg("k", 1u64);
        assert!(!guard.is_active());
        drop(guard);
    }

    #[test]
    fn thread_sink_records_nested_spans_with_args() {
        let sink = TraceSink::new();
        {
            let _install = push_thread_sink(sink.clone());
            let mut outer = span("test", "outer");
            outer.arg("design", "b12");
            {
                let mut inner = span("test", "inner");
                inner.arg("queries", 3u64);
                assert!(inner.is_active());
            }
            instant("test", "tick");
        }
        let events = sink.events();
        assert_eq!(events.len(), 3, "inner, tick, outer");
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "tick");
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].name, "outer");
        // Containment: outer starts before inner and ends after.
        let outer = &events[2];
        let inner = &events[0];
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns() >= inner.ts_ns + inner.dur_ns());
        assert_eq!(
            outer.args,
            vec![("design", ArgValue::Str("b12".to_string()))]
        );
        assert_eq!(inner.args, vec![("queries", ArgValue::U64(3))]);
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn guard_restores_previous_thread_sink() {
        let first = TraceSink::new();
        let second = TraceSink::new();
        let _a = push_thread_sink(first.clone());
        {
            let _b = push_thread_sink(second.clone());
            drop(span("test", "into_second"));
        }
        drop(span("test", "into_first"));
        flush_thread();
        assert_eq!(second.events().len(), 1);
        assert_eq!(second.events()[0].name, "into_second");
        assert_eq!(first.events().len(), 1);
        assert_eq!(first.events()[0].name, "into_first");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = TraceSink::with_capacity(4);
        {
            let _install = push_thread_sink(sink.clone());
            for _ in 0..7 {
                drop(span("test", "s"));
            }
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 3);
        assert!(sink.export_chrome_json().contains("droppedEvents"));
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn staging_flushes_at_threshold_even_inside_a_span() {
        let sink = TraceSink::new();
        let _install = push_thread_sink(sink.clone());
        let _outer = span("test", "outer");
        for _ in 0..STAGE_FLUSH_LEN {
            drop(span("test", "child"));
        }
        // Depth never returned to zero, but the threshold flushed.
        assert!(sink.len() >= STAGE_FLUSH_LEN);
    }

    #[test]
    fn export_is_wellformed_chrome_json() {
        let sink = TraceSink::new();
        {
            let _install = push_thread_sink(sink.clone());
            let mut g = span("mc", "mc.sat_query");
            g.arg("conflicts", 12u64);
            g.arg("label", "quote\" slash\\ tab\t");
            g.arg("ratio", 0.5f64);
            g.arg("sat", true);
            drop(g);
            instant("serve", "serve.cache_hit");
        }
        let json = sink.export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"mc.sat_query\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"conflicts\":12"));
        assert!(json.contains("\"label\":\"quote\\\" slash\\\\ tab\\t\""));
        assert!(json.contains("\"ratio\":0.5"));
        assert!(json.contains("\"sat\":true"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        // Timestamps are rendered in microseconds with ns precision.
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
    }

    #[test]
    fn retroactive_complete_events_record_directly() {
        let sink = TraceSink::new();
        let start = now_ns();
        sink.record(
            TraceEvent::complete("serve", "serve.queue", start, 1_500).with_arg("job", 7u64),
        );
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_ns(), 1_500);
        assert_eq!(events[0].args, vec![("job", ArgValue::U64(7))]);
    }

    #[test]
    fn summary_aggregates_by_name_sorted_by_total() {
        let sink = TraceSink::new();
        sink.record(TraceEvent::complete("a", "short", 0, 10));
        sink.record(TraceEvent::complete("a", "long", 0, 100));
        sink.record(TraceEvent::complete("a", "short", 0, 20));
        sink.record(TraceEvent::instant("a", "blip"));
        let summary = sink.summary();
        assert_eq!(summary, vec![("long", 1, 100), ("short", 2, 30)]);
    }

    #[test]
    fn sink_is_shared_across_threads() {
        let sink = TraceSink::new();
        let clone = sink.clone();
        std::thread::spawn(move || {
            let _install = push_thread_sink(clone);
            drop(span("test", "worker"));
        })
        .join()
        .unwrap();
        {
            let _install = push_thread_sink(sink.clone());
            drop(span("test", "main"));
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        let tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        assert_ne!(tids[0], tids[1], "distinct threads get distinct tids");
    }

    #[test]
    fn a_helper_thread_records_where_its_spawner_does() {
        let sink = TraceSink::new();
        assert!(thread_sink().is_none(), "no thread sink before the push");
        let _install = push_thread_sink(sink.clone());
        let handed = thread_sink().expect("the pushed sink");
        assert!(handed.same_sink(&sink));
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _install = push_thread_sink(handed);
                drop(span("test", "helper"));
            });
        });
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "helper");
        assert_ne!(events[0].tid, current_tid());
    }

    #[test]
    fn microsecond_rendering_is_exact() {
        let mut s = String::new();
        write_us(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        s.clear();
        write_us(&mut s, 42);
        assert_eq!(s, "0.042");
    }
}
