//! Test suites: ordered collections of stimulus segments.
//!
//! The paper's refinement loop accumulates a *test suite*: the original
//! seed patterns plus one directed segment per counterexample. Each
//! segment starts from the design's reset state (counterexample traces
//! are reset-rooted), so segments are replayed independently.
//!
//! A suite stores its stimulus lane-packed only ([`PackedStimulus`]):
//! [`TestSuite::push`] packs, [`TestSuite::push_bits`] packs a segment
//! given as per-cycle input bits (a counterexample trace's form, see
//! [`InputLayout`]) without building its vectors, and every tape replay
//! reads the lanes in place. A [`Segment`] is decoded on request — from
//! the lanes when all its vectors were regular, else from a verbatim
//! copy kept of that segment alone — so it is always the segment as
//! pushed, and equality and `Debug` are functions of the pushed
//! segments only.
//!
//! Labels are kept the same way. A [`SegmentLabel`] is free text or a
//! numbered label — `cex-3-12` kept as `("cex", 3, 12)` — rendered when
//! a segment is read, so the closure loop's counterexample and directed
//! segments cost no string each; [`Segment::label`] is the text either
//! way, and two labels are equal when their texts are.

use crate::packed::PackedStimulus;
use crate::sim::{SimObserver, Simulator};
use crate::stim::{InputLayout, InputVector};
use crate::trace::Trace;
use gm_rtl::{Bv, Module, Result};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// A named stimulus segment, run from reset.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Where the segment came from (seed test, counterexample id, ...).
    pub label: String,
    /// One input vector per cycle.
    pub vectors: Vec<InputVector>,
}

/// A segment's label as a suite stores it (see the module docs).
#[derive(Clone, Debug, Eq)]
pub enum SegmentLabel {
    /// Free text, stored as given.
    Text(String),
    /// `{kind}-{iteration}-{n}`, rendered on read.
    Numbered {
        /// The text before the numbers (`cex`, `tcex`, `dir`).
        kind: &'static str,
        /// The first number: the closure iteration.
        iteration: u32,
        /// The second number: the segment's place in its pass.
        n: u32,
    },
}

impl SegmentLabel {
    /// The label `{kind}-{iteration}-{n}`.
    pub fn numbered(kind: &'static str, iteration: u32, n: usize) -> Self {
        let n = u32::try_from(n).expect("a pass numbers fewer than 2^32 segments");
        SegmentLabel::Numbered { kind, iteration, n }
    }
}

impl fmt::Display for SegmentLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentLabel::Text(text) => f.write_str(text),
            SegmentLabel::Numbered { kind, iteration, n } => write!(f, "{kind}-{iteration}-{n}"),
        }
    }
}

/// Equal when the texts are. The numbers after a numbered label's kind
/// hold no `-`, so its parts are equal exactly when its text is.
impl PartialEq for SegmentLabel {
    fn eq(&self, other: &Self) -> bool {
        use SegmentLabel::{Numbered, Text};
        match (self, other) {
            (Text(a), Text(b)) => a == b,
            (
                Numbered { kind, iteration, n },
                Numbered {
                    kind: k,
                    iteration: i,
                    n: m,
                },
            ) => (kind, iteration, n) == (k, i, m),
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl From<String> for SegmentLabel {
    fn from(text: String) -> Self {
        SegmentLabel::Text(text)
    }
}

impl From<&str> for SegmentLabel {
    fn from(text: &str) -> Self {
        SegmentLabel::Text(text.to_string())
    }
}

/// An ordered collection of segments forming the validation stimulus,
/// stored lane-packed (see the module docs).
#[derive(Clone, Default, PartialEq)]
pub struct TestSuite {
    labels: Vec<SegmentLabel>,
    stimulus: PackedStimulus,
    /// The segments with an irregular vector, as pushed, by ascending
    /// index.
    verbatim: Vec<(usize, Vec<InputVector>)>,
}

impl std::fmt::Debug for TestSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let segments: Vec<Segment> = self.segments().collect();
        f.debug_struct("TestSuite")
            .field("segments", &segments)
            .finish()
    }
}

impl TestSuite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        TestSuite::default()
    }

    /// Appends a segment, packing it into the lanes at once.
    pub fn push(&mut self, label: impl Into<SegmentLabel>, vectors: Vec<InputVector>) {
        let index = self.labels.len();
        self.labels.push(label.into());
        if !self.stimulus.push(&vectors) {
            self.verbatim.push((index, vectors));
        }
    }

    /// Appends a segment of `cycles` vectors written straight into the
    /// lanes, one cycle at a time: `fill(t, out)` writes cycle `t`'s
    /// vector into `out`, a scratch buffer reused across cycles (and
    /// across calls, by the caller). The segment is the one
    /// [`TestSuite::push`] of the filled vectors would store — a
    /// verbatim copy is made only from the first irregular vector on —
    /// so a regular segment costs its lane words and nothing else.
    pub(crate) fn push_with(
        &mut self,
        label: impl Into<SegmentLabel>,
        cycles: usize,
        out: &mut InputVector,
        mut fill: impl FnMut(usize, &mut InputVector),
    ) {
        let index = self.open(label.into(), cycles);
        let mut verbatim = None;
        for t in 0..cycles {
            out.clear();
            fill(t, out);
            let regular = self.stimulus.push_cycle(out.iter().copied());
            self.keep(index, t, regular, &mut verbatim, || out.clone());
        }
        self.close(index, verbatim);
    }

    /// Appends a segment of `cycles` cycles given as input bits in
    /// `layout`'s order, cycle `t` in `words[t * layout.words()..]`,
    /// written straight into the lanes: the segment [`TestSuite::push`]
    /// of the cycles' vectors ([`InputLayout::vector`]) would store,
    /// with no vector built unless one is irregular. A regular segment
    /// allocates nothing when its lane group already holds its records
    /// and the suite's lists have room for one more segment.
    ///
    /// # Panics
    ///
    /// When `words` holds fewer than `cycles` cycles.
    pub fn push_bits(
        &mut self,
        label: impl Into<SegmentLabel>,
        layout: &InputLayout,
        words: &[u64],
        cycles: usize,
    ) {
        let stride = layout.words();
        assert!(
            words.len() >= cycles * stride,
            "{cycles} cycles of input bits"
        );
        let index = self.open(label.into(), cycles);
        let mut verbatim = None;
        for t in 0..cycles {
            let cycle = &words[t * stride..][..stride];
            let regular = self.stimulus.push_cycle(layout.values(cycle));
            self.keep(index, t, regular, &mut verbatim, || layout.vector(cycle));
        }
        self.close(index, verbatim);
    }

    /// Labels segment `index`, the next, and opens its lane with room
    /// for `cycles` cycles.
    fn open(&mut self, label: SegmentLabel, cycles: usize) -> usize {
        let index = self.labels.len();
        self.labels.push(label);
        self.stimulus.open(cycles);
        index
    }

    /// Files cycle `t` of segment `index`, just packed, `regular` or
    /// not, into the segment's verbatim copy: begun at the first
    /// irregular cycle with the regular ones before it read back from
    /// the lanes, and `vector()` then asked for each cycle from there.
    fn keep(
        &self,
        index: usize,
        t: usize,
        regular: bool,
        verbatim: &mut Option<Vec<InputVector>>,
        vector: impl FnOnce() -> InputVector,
    ) {
        match verbatim {
            Some(kept) => kept.push(vector()),
            None if !regular => {
                let mut kept: Vec<InputVector> = (0..t)
                    .map(|u| {
                        let mut cycle = Vec::new();
                        self.stimulus.decode_cycle(index, u, &mut cycle);
                        cycle
                    })
                    .collect();
                kept.push(vector());
                *verbatim = Some(kept);
            }
            None => {}
        }
    }

    /// Ends segment `index`, keeping its verbatim copy if it has one.
    fn close(&mut self, index: usize, verbatim: Option<Vec<InputVector>>) {
        if let Some(kept) = verbatim {
            self.verbatim.push((index, kept));
        }
    }

    /// Cycle `t` of segment `s`, exactly as it was pushed, into `out`
    /// (cleared first) — [`TestSuite::segment`] one vector at a time,
    /// without allocating when `out` has room.
    pub(crate) fn vector_into(&self, s: usize, t: usize, out: &mut InputVector) {
        match self.verbatim.binary_search_by_key(&s, |&(index, _)| index) {
            Ok(at) => {
                out.clear();
                out.extend_from_slice(&self.verbatim[at].1[t]);
            }
            Err(_) => self.stimulus.decode_cycle(s, t, out),
        }
    }

    /// The lane-packed stimulus: every segment, in push order.
    pub fn packed(&self) -> &PackedStimulus {
        &self.stimulus
    }

    /// Segment `s`, exactly as it was pushed.
    pub fn segment(&self, s: usize) -> Segment {
        let vectors = match self.verbatim.binary_search_by_key(&s, |&(index, _)| index) {
            Ok(at) => self.verbatim[at].1.clone(),
            Err(_) => self.stimulus.decode(s),
        };
        Segment {
            label: self.labels[s].to_string(),
            vectors,
        }
    }

    /// The segments in insertion order, each decoded as it is reached.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = Segment> + '_ {
        (0..self.len()).map(|s| self.segment(s))
    }

    /// The number of segments.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the suite has no segments.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total stimulus cycles across all segments (excluding reset cycles).
    pub fn total_cycles(&self) -> usize {
        self.stimulus.lens().iter().sum()
    }

    /// What the tape reads for segments `range` on a design with signal
    /// widths `widths`, and where the range lies in it: the stored lanes
    /// when every learned row width is the design's, else (hand-written
    /// vectors only) the range re-packed at the design's widths.
    pub(crate) fn feed(
        &self,
        widths: &[u32],
        range: Range<usize>,
    ) -> (Cow<'_, PackedStimulus>, Range<usize>) {
        if self.stimulus.fits(widths) {
            return (Cow::Borrowed(&self.stimulus), range);
        }
        let mut packed = PackedStimulus::default();
        for s in range.clone() {
            let mut vectors = self.segment(s).vectors;
            for (sig, value) in vectors.iter_mut().flatten() {
                *value = value.resize(widths[sig.index()]);
            }
            packed.push(&vectors);
        }
        (Cow::Owned(packed), 0..range.len())
    }

    /// Runs every segment from reset on `module`, reporting events to
    /// `obs` and returning one trace per segment.
    ///
    /// The reset protocol: if the module designates a reset input, each
    /// segment begins with one cycle of `reset = 1` (observed for
    /// coverage, *not* recorded in the trace) followed by the segment's
    /// vectors with `reset = 0`. Traces therefore start in the reset
    /// state, which is what the miner assumes.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors.
    pub fn run(&self, module: &Module, obs: &mut dyn SimObserver) -> Result<Vec<Trace>> {
        (0..self.len())
            .map(|s| {
                obs.on_segment_start(s);
                run_segment(module, &self.segment(s).vectors, obs)
            })
            .collect()
    }

    /// Runs every segment through the compiled bit-parallel executor
    /// with lane blocks of up to `block` words (narrowed to the lane
    /// groups the suite fills; lane `k` of each pass replays segment
    /// `chunk*64*block + k` from reset), returning one trace per
    /// segment — trace- and coverage-identical to [`TestSuite::run`]
    /// with the interpreter. `block` is normalized to a supported width
    /// (1, 2, 4, 8); pass [`crate::SimBackend::lane_block`] when routing
    /// a config.
    pub fn run_compiled(
        &self,
        module: &Module,
        compiled: &crate::CompiledModule,
        obs: &mut dyn crate::BatchObserver,
        block: usize,
    ) -> Vec<Trace> {
        compiled
            .run_segments_batched(module, self, 0..self.len(), obs, true, None, block)
            .expect("no cancel token")
    }

    /// Like [`TestSuite::run_compiled`] but skips trace materialization
    /// — the fast path for coverage measurement, where the per-lane
    /// transpose would dominate.
    pub fn observe_compiled(
        &self,
        module: &Module,
        compiled: &crate::CompiledModule,
        obs: &mut dyn crate::BatchObserver,
        block: usize,
    ) {
        compiled.run_segments_batched(module, self, 0..self.len(), obs, false, None, block);
    }

    /// Bench-only twin of [`TestSuite::observe_compiled`] that enters
    /// the executor through the uninstrumented pre-trace path, so the
    /// recorder-overhead bench can compare the traced entry against a
    /// true baseline. Not for production callers.
    #[doc(hidden)]
    pub fn observe_compiled_baseline(
        &self,
        module: &Module,
        compiled: &crate::CompiledModule,
        obs: &mut dyn crate::BatchObserver,
        block: usize,
    ) {
        let (stimulus, range) = self.feed(compiled.signal_widths(), 0..self.len());
        compiled.run_segments_batched_untraced(module, &stimulus, range, obs, false, None, block);
    }
}

/// Runs one reset-rooted stimulus segment on a fresh simulator,
/// returning its trace. This is the replay primitive for counterexample
/// traces (the paper's `Ctx_simulation()`); [`TestSuite::run`] uses it
/// for every segment.
///
/// # Errors
///
/// Propagates elaboration errors.
pub fn run_segment(
    module: &Module,
    vectors: &[InputVector],
    obs: &mut dyn SimObserver,
) -> Result<Trace> {
    let mut span = gm_trace::span("sim", "sim.segment");
    if span.is_active() {
        span.arg("engine", "interpreter");
        span.arg("cycles", vectors.len());
    }
    let mut sim = Simulator::new(module)?;
    apply_reset(&mut sim, module, obs);
    Ok(sim.run_vectors(vectors, obs))
}

/// Drives the reset protocol on a fresh simulator: registers are already
/// at their init values; if a reset input exists, pulse it for one
/// observed cycle and deassert it.
pub(crate) fn apply_reset(sim: &mut Simulator<'_>, module: &Module, obs: &mut dyn SimObserver) {
    if let Some(rst) = module.reset() {
        for d in module.data_inputs() {
            sim.set_input(d, Bv::zeros(module.signal_width(d)));
        }
        sim.set_input(rst, Bv::one_bit());
        sim.step_observed(obs);
        sim.set_input(rst, Bv::zero_bit());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NopObserver;
    use crate::stim::{collect_vectors, DirectedStimulus, RandomStimulus};
    use gm_rtl::parse_verilog;

    const COUNTER: &str = "
    module counter(input clk, input rst, input en, output reg [2:0] q);
      always @(posedge clk)
        if (rst) q <= 0;
        else if (en) q <= q + 3'd1;
        else q <= q;
    endmodule";

    #[test]
    fn segments_run_from_reset() {
        let m = parse_verilog(COUNTER).unwrap();
        let en = m.require("en").unwrap();
        let q = m.require("q").unwrap();
        let mut suite = TestSuite::new();
        let seg: Vec<InputVector> = (0..3).map(|_| vec![(en, Bv::one_bit())]).collect();
        suite.push("seed", seg.clone());
        suite.push("cex-1", seg);
        let traces = suite.run(&m, &mut NopObserver).unwrap();
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert_eq!(t.len(), 3);
            // Row 0 is the reset state (q=0 during the first data cycle).
            assert_eq!(t.value(0, q), Bv::new(0, 3));
            assert_eq!(t.value(1, q), Bv::new(1, 3));
            assert_eq!(t.value(2, q), Bv::new(2, 3));
        }
    }

    #[test]
    fn suite_accumulates_counts() {
        let m = parse_verilog(COUNTER).unwrap();
        let mut suite = TestSuite::new();
        let mut r = RandomStimulus::new(&m, 3, 10);
        suite.push("seed", collect_vectors(&mut r));
        let mut d = DirectedStimulus::from_named(&m, &[&[("en", 1)]]).unwrap();
        suite.push("cex", collect_vectors(&mut d));
        assert_eq!(suite.len(), 2);
        assert_eq!(suite.total_cycles(), 11);
        assert_eq!(suite.segment(1).label, "cex");
    }

    #[test]
    fn traces_reflect_directed_content() {
        let m = parse_verilog(COUNTER).unwrap();
        let q = m.require("q").unwrap();
        let mut suite = TestSuite::new();
        let vectors = DirectedStimulus::from_named(
            &m,
            &[&[("en", 1)], &[("en", 0)], &[("en", 1)], &[("en", 1)]],
        )
        .unwrap()
        .vectors()
        .to_vec();
        suite.push("directed", vectors);
        let traces = suite.run(&m, &mut NopObserver).unwrap();
        let t = &traces[0];
        assert_eq!(t.value(1, q), Bv::new(1, 3), "after one enabled cycle");
        assert_eq!(t.value(2, q), Bv::new(1, 3), "hold while disabled");
        assert_eq!(t.value(3, q), Bv::new(2, 3));
    }
}
