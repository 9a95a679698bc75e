//! Cone capture: the signal bits a set of mining specs read, recorded
//! per cycle of every segment a replay simulates.
//!
//! A [`ConeCapture`] is built once from every spec it serves. It keeps
//! the distinct `(signal, bit)` pairs those specs read — their shared
//! *cone* — and, per replayed segment, one packed *cone word* block per
//! cycle: cone bit `k` is bit `k % 64` of word `k / 64`. Each spec gets
//! a [`WindowPlan`] that reads its features and target out of those
//! words, so one capture feeds every target's windows
//! ([`crate::Dataset::add_windows`]) and no all-signal trace is ever
//! materialised.
//!
//! [`ConeCapture::replay`] fills the capture from a [`Replay`], riding
//! along with the caller's observer: on the compiled tape it reads one
//! [`LaneSnapshot::bit_word`] per cone bit per block word of each
//! cycle and scatters its set lanes into their segments' cycle rows; on
//! the interpreter it reads the cycle's values. Neither engine reports
//! a trace row for the reset pulse, so the capture skips that cycle.

use crate::features::MiningSpec;
use gm_rtl::{Bv, Expr, Module, SignalId, StmtId};
use gm_sim::{
    BatchObserver, BranchOutcome, ExprRole, LaneSet, LaneSnapshot, ObsPoint, ProbeHits, Replay,
    SimObserver, TestSuite, Trace,
};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// A spec reads a bit its signal does not have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitOutOfRange {
    /// The signal's source name.
    pub signal: String,
    /// The bit the spec reads.
    pub bit: u32,
    /// The signal's width.
    pub width: u32,
}

impl fmt::Display for BitOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit {} of `{}` is out of range: the signal is {} bit(s) wide",
            self.bit, self.signal, self.width
        )
    }
}

impl std::error::Error for BitOutOfRange {}

/// Up to 64 consecutive features that read consecutive cone bits at
/// one window offset: a window copies them with two shifts.
#[derive(Clone, Debug)]
pub(crate) struct Run {
    /// Cycle offset within the window.
    pub(crate) offset: usize,
    /// First cone bit read.
    pub(crate) src: usize,
    /// First feature written.
    pub(crate) dst: usize,
    pub(crate) len: usize,
}

/// How one spec's windows are read out of a [`ConeCapture`]: its
/// features as runs of cone bits, and its target's cone bit. Specs with
/// the same features and target offset cut the same feature words.
#[derive(Clone, Debug)]
pub struct WindowPlan {
    pub(crate) span: usize,
    pub(crate) features: usize,
    pub(crate) runs: Vec<Run>,
    /// The target's cone bit, and its cycle offset within the window.
    pub(crate) target: usize,
    pub(crate) target_offset: usize,
}

impl WindowPlan {
    /// The plan of `spec`, numbering each cone bit it reads with
    /// `cone_bit`.
    fn new(spec: &MiningSpec, mut cone_bit: impl FnMut(SignalId, u32) -> usize) -> WindowPlan {
        let mut runs: Vec<Run> = Vec::new();
        for (dst, f) in spec.features.iter().enumerate() {
            let src = cone_bit(f.signal, f.bit);
            let offset = f.offset as usize;
            match runs.last_mut() {
                Some(run)
                    if run.offset == offset
                        && run.src + run.len == src
                        && run.dst + run.len == dst
                        && run.len < 64 =>
                {
                    run.len += 1;
                }
                _ => runs.push(Run {
                    offset,
                    src,
                    dst,
                    len: 1,
                }),
            }
        }
        WindowPlan {
            span: spec.span() as usize,
            features: spec.features.len(),
            runs,
            target: cone_bit(spec.target.signal, spec.target.bit),
            target_offset: spec.target.offset as usize,
        }
    }
}

/// The cone bits of a set of specs, captured per cycle of each segment
/// of the last replay (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct ConeCapture {
    /// The distinct `(signal, bit)` pairs the specs read, in first-use
    /// order: entry `k` is bit `k` of a cycle's cone words.
    bits: Vec<(SignalId, u32)>,
    words: usize,
    /// Trace `i`'s cycles are `starts[i]..starts[i + 1]`.
    starts: Vec<usize>,
    /// `words` cone words per cycle, traces back to back.
    cycles: Vec<u64>,
    /// Whether the replayed design pulses a reset first.
    reset: bool,
    /// The segment the tape pass's lowest lane replays, and that lane.
    pass_first: usize,
    pass_lane: usize,
    /// The segment the interpreter is replaying.
    segment: usize,
}

impl ConeCapture {
    /// Builds the capture of `specs` on `module` and each spec's plan,
    /// in order.
    ///
    /// # Errors
    ///
    /// [`BitOutOfRange`] when a spec reads a bit its signal does not
    /// have — a target bit past its signal's width.
    pub fn new<'s>(
        module: &Module,
        specs: impl IntoIterator<Item = &'s MiningSpec>,
    ) -> Result<(ConeCapture, Vec<WindowPlan>), BitOutOfRange> {
        let (capture, plans) = ConeCapture::of(specs);
        for &(signal, bit) in &capture.bits {
            let width = module.signal_width(signal);
            if bit >= width {
                let signal = module.signal(signal).name().to_string();
                return Err(BitOutOfRange { signal, bit, width });
            }
        }
        Ok((capture, plans))
    }

    /// [`ConeCapture::new`] without a design to check the bits against.
    pub(crate) fn of<'s>(
        specs: impl IntoIterator<Item = &'s MiningSpec>,
    ) -> (ConeCapture, Vec<WindowPlan>) {
        let mut bits: Vec<(SignalId, u32)> = Vec::new();
        let mut index: HashMap<(SignalId, u32), usize> = HashMap::new();
        let plans = specs
            .into_iter()
            .map(|spec| {
                WindowPlan::new(spec, |signal, bit| {
                    *index.entry((signal, bit)).or_insert_with(|| {
                        bits.push((signal, bit));
                        bits.len() - 1
                    })
                })
            })
            .collect();
        let capture = ConeCapture {
            words: bits.len().div_ceil(64),
            bits,
            ..ConeCapture::default()
        };
        (capture, plans)
    }

    /// The number of traces captured.
    pub fn trace_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The cycles of trace `trace`.
    pub fn trace_len(&self, trace: usize) -> usize {
        self.starts[trace + 1] - self.starts[trace]
    }

    /// The cone words of trace `trace`, `words` per cycle.
    pub(crate) fn trace_words(&self, trace: usize) -> &[u64] {
        &self.cycles[self.starts[trace] * self.words..self.starts[trace + 1] * self.words]
    }

    /// Cone words per cycle.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Empties the capture for traces of `lens` cycles, in order.
    fn begin(&mut self, lens: impl IntoIterator<Item = usize>) {
        self.starts.clear();
        self.starts.push(0);
        let mut end = 0;
        for len in lens {
            end += len;
            self.starts.push(end);
        }
        self.cycles.clear();
        self.cycles.resize(end * self.words, 0);
    }

    /// Replays segments `range` of `suite` with `obs` observing, and
    /// captures one trace per segment. A cancelled replay returns
    /// `None` and leaves no trace captured, since it saw part of the
    /// pass. `obs` alone decides which observation points are closed:
    /// the capture needs only cycle events, which always arrive.
    ///
    /// # Errors
    ///
    /// Propagates the interpreter's elaboration errors.
    pub fn replay<O: SimObserver + BatchObserver>(
        &mut self,
        replay: &Replay<'_>,
        suite: &TestSuite,
        range: Range<usize>,
        obs: &mut O,
    ) -> gm_rtl::Result<Option<()>> {
        self.reset = replay.module.reset().is_some();
        self.begin(suite.packed().lens()[range.clone()].iter().copied());
        let mut tap = Tap { capture: self, obs };
        let done = replay.observe(suite, range, &mut tap);
        if !matches!(done, Ok(Some(()))) {
            self.begin([]);
        }
        done
    }

    /// Captures `trace` as the only trace.
    ///
    /// # Panics
    ///
    /// Panics if a spec reads a bit of a signal narrower than that.
    pub(crate) fn load_trace(&mut self, trace: &Trace) {
        for &(signal, bit) in &self.bits {
            assert!(
                bit < trace.widths()[signal.index()],
                "spec reads bit {bit} of `{}`, which is narrower",
                trace.names()[signal.index()]
            );
        }
        self.begin([trace.len()]);
        let words = self.words;
        for (cycle, row) in self.cycles.chunks_exact_mut(words).enumerate() {
            let raw = trace.raw_row(cycle);
            for (k, &(signal, bit)) in self.bits.iter().enumerate() {
                row[k / 64] |= ((raw[signal.index()] >> bit) & 1) << (k % 64);
            }
        }
    }

    /// The stimulus cycle a cycle event reports; `None` for the reset
    /// pulse, which no trace records.
    fn stimulus_cycle(&self, cycle: u64) -> Option<usize> {
        let cycle = cycle as usize;
        if self.reset {
            cycle.checked_sub(1)
        } else {
            Some(cycle)
        }
    }

    /// The tape's cycle event: scatters every cone bit's lanes into
    /// their segments' rows.
    fn on_lanes(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        let Some(t) = self.stimulus_cycle(cycle) else {
            return;
        };
        let mut rows = [0usize; 64];
        for (j, &active) in lanes.words().iter().enumerate() {
            if active == 0 {
                continue;
            }
            let mut left = active;
            while left != 0 {
                let k = left.trailing_zeros() as usize;
                left &= left - 1;
                let segment = self.pass_first + j * 64 + k - self.pass_lane;
                rows[k] = (self.starts[segment] + t) * self.words;
            }
            for (c, &(signal, bit)) in self.bits.iter().enumerate() {
                let (word, mask) = (c / 64, 1u64 << (c % 64));
                let mut set = snap.bit_word(signal, bit, j) & active;
                while set != 0 {
                    let k = set.trailing_zeros() as usize;
                    set &= set - 1;
                    self.cycles[rows[k] + word] |= mask;
                }
            }
        }
    }

    /// The interpreter's cycle event for the current segment.
    fn on_values(&mut self, cycle: u64, values: &[Bv]) {
        let Some(t) = self.stimulus_cycle(cycle) else {
            return;
        };
        let row = (self.starts[self.segment] + t) * self.words;
        let row = &mut self.cycles[row..row + self.words];
        for (k, &(signal, bit)) in self.bits.iter().enumerate() {
            row[k / 64] |= ((values[signal.index()].bits() >> bit) & 1) << (k % 64);
        }
    }
}

/// The capture riding along with a replay's observer: every event goes
/// to `obs`, and the cycle and segment events to the capture too.
struct Tap<'c, 'o, O> {
    capture: &'c mut ConeCapture,
    obs: &'o mut O,
}

impl<O: SimObserver> SimObserver for Tap<'_, '_, O> {
    fn on_stmt(&mut self, stmt: StmtId) {
        self.obs.on_stmt(stmt);
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        self.obs.on_branch(stmt, outcome);
    }
    fn on_expr(&mut self, stmt: StmtId, role: ExprRole, expr: &Expr, values: &[Bv]) {
        self.obs.on_expr(stmt, role, expr, values);
    }
    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        self.capture.on_values(cycle, values);
        self.obs.on_cycle_end(cycle, values);
    }
    fn on_segment_start(&mut self, index: usize) {
        self.capture.segment = index;
        self.obs.on_segment_start(index);
    }
}

impl<O: BatchObserver> BatchObserver for Tap<'_, '_, O> {
    fn closed(&self, point: ObsPoint) -> bool {
        self.obs.closed(point)
    }
    fn on_stmt(&mut self, stmt: StmtId, lanes: &LaneSet<'_>) {
        self.obs.on_stmt(stmt, lanes);
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome, lanes: &LaneSet<'_>) {
        self.obs.on_branch(stmt, outcome, lanes);
    }
    fn drain_probes(&mut self, hits: &ProbeHits<'_>) {
        self.obs.drain_probes(hits);
    }
    fn on_cycle_end(&mut self, cycle: u64, lanes: &LaneSet<'_>, snap: &LaneSnapshot<'_>) {
        self.capture.on_lanes(cycle, lanes, snap);
        self.obs.on_cycle_end(cycle, lanes, snap);
    }
    fn on_pass_start(&mut self, first: usize, lanes: &LaneSet<'_>) {
        let lowest = lanes.words().iter().position(|&w| w != 0);
        self.capture.pass_first = first;
        self.capture.pass_lane =
            lowest.map_or(0, |j| j * 64 + lanes.word(j).trailing_zeros() as usize);
        self.obs.on_pass_start(first, lanes);
    }
}
