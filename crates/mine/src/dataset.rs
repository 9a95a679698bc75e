//! Mining datasets: windowed rows extracted from simulation traces,
//! stored bit-packed.
//!
//! # Layout
//!
//! A row is `ceil(F / 64)` *feature words* for a spec of `F` candidate
//! features: feature `f` is bit `f % 64` of word `f / 64`, bits at and
//! above `F` are zero. All rows live back to back in one flat
//! `Vec<u64>`, so the tree's split search streams over them instead of
//! chasing a pointer per row. Targets are one bit per row; the
//! recorded post-window target values ("futures", for temporal mining)
//! are bits in one shared vector with a per-row end offset, so a row
//! keeps exactly as many as its trace had left — any horizon, nothing
//! stored for cycles that were never simulated.
//!
//! # Extraction
//!
//! Rows are cut from a [`ConeCapture`]: one packed *cone word* block per
//! cycle holding every bit the capture's specs read. A spec's
//! [`WindowPlan`] lists the runs of consecutive features that read
//! consecutive cone bits at one window offset, and
//! [`Dataset::add_windows`] assembles each window's feature words by
//! shifting those runs into place — no per-row allocation, and each
//! simulated bit is probed once per cycle instead of once per window it
//! appears in. Targets whose specs share their features and target
//! offset cut the same feature words, so the closure engine cuts a
//! trace once per such layout and the layout-mates copy the rows
//! ([`Dataset::add_windows_from`]), reading only their own target bits.
//! [`Dataset::add_suite`] captures straight off its replay, and
//! [`Dataset::add_trace`] captures from a [`Trace`] first: one cutter
//! for every entry point.

use crate::bits::{bit, get_bits, put_bits, Bits};
use crate::capture::{ConeCapture, WindowPlan};
use crate::features::MiningSpec;
use gm_rtl::Module;
use gm_sim::{CompiledModule, NopObserver, Replay, SimBackend, TestSuite, Trace};

/// One hand-built training example, for [`Dataset::push_row`]: feature
/// values (aligned with [`MiningSpec::features`]) and the target value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Values of every candidate feature (active and extension).
    pub features: Vec<bool>,
    /// The target bit value.
    pub target: bool,
}

/// What one extraction pass added: the indices of the new rows — one
/// contiguous range, since a dataset only appends — plus the number of
/// traces that were too short to yield even one window.
///
/// The refinement loop treats the two empty cases differently — a
/// short trace means the stimulus was *dropped* (the engine counts it
/// in its iteration report), while zero rows from a long-enough trace
/// set means the stimulus carried no new windows — so extraction
/// surfaces them distinctly instead of returning one empty `Vec` for
/// both.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractedRows {
    /// Indices of the rows added to the dataset.
    pub rows: RowRange,
    /// Traces shorter than the window span, which yielded nothing.
    pub short_traces: usize,
}

impl ExtractedRows {
    /// Whether the pass added no rows (regardless of why).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds the outcome of the next pass over the same dataset into
    /// this one.
    ///
    /// # Panics
    ///
    /// Panics if both added rows and `other`'s do not follow this one's.
    pub fn extend(&mut self, other: ExtractedRows) {
        if self.rows.is_empty() {
            self.rows = other.rows;
        } else if !other.rows.is_empty() {
            assert_eq!(self.rows.end, other.rows.start, "rows of one dataset");
            self.rows.end = other.rows.end;
        }
        self.short_traces += other.short_traces;
    }
}

/// A contiguous range of row indices: what one or more extraction
/// passes over one dataset added. A reference iterates as the indices
/// (what [`crate::DecisionTree::add_rows`] takes), and the range
/// compares equal to a list of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowRange {
    /// The first row.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl RowRange {
    /// The number of rows.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range holds no row.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl IntoIterator for &RowRange {
    type Item = usize;
    type IntoIter = std::ops::Range<usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.start..self.end
    }
}

impl PartialEq<Vec<usize>> for RowRange {
    fn eq(&self, rows: &Vec<usize>) -> bool {
        self.into_iter().eq(rows.iter().copied())
    }
}

/// A growing set of rows for one mining target (see the module docs
/// for the packed layout).
///
/// Rows carry values for *all* candidate features (including extension
/// candidates), so activating an extension feature later never requires
/// revisiting traces — the incremental tree just widens its search.
/// Every row of one dataset has the same number of features, fixed by
/// the first row.
///
/// A dataset built with [`Dataset::with_horizon`] additionally records,
/// per row, the target values up to `horizon` cycles *past* the window
/// end (clipped at the trace boundary). The temporal miner reads these
/// to propose next-cycle, bounded-eventuality and stability templates
/// without re-simulating.
#[derive(Clone, Default)]
pub struct Dataset {
    horizon: u32,
    /// Features per row (0 until the first row arrives).
    features: usize,
    /// `features.div_ceil(64)` words per row, rows back to back.
    feature_words: Vec<u64>,
    /// One bit per row.
    targets: Bits,
    /// Every row's futures, concatenated: row `r`'s are bits
    /// `future_end[r - 1]..future_end[r]`, holding the target at
    /// offsets `target.offset + 1 ..`, as far as the trace went.
    futures: Bits,
    /// One entry per row; left empty by a dataset with no horizon.
    future_end: Vec<usize>,
    /// What [`Dataset::add_trace`] cuts with: the spec it was built
    /// for, a capture of that spec alone and its plan, kept for the
    /// next call with the same spec.
    from_trace: Option<(MiningSpec, ConeCapture, WindowPlan)>,
}

impl std::fmt::Debug for Dataset {
    /// The rows, without the buffers [`Dataset::add_trace`] works in.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("horizon", &self.horizon)
            .field("features", &self.features)
            .field("feature_words", &self.feature_words)
            .field("targets", &self.targets)
            .field("futures", &self.futures)
            .field("future_end", &self.future_end)
            .finish()
    }
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates an empty dataset that records `horizon` cycles of
    /// post-window target values per row (for temporal mining).
    pub fn with_horizon(horizon: u32) -> Self {
        Dataset {
            horizon,
            ..Dataset::default()
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset is empty (the paper's zero-pattern limit study
    /// starts here).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The temporal-lookahead horizon this dataset records (0 = none).
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The number of features every row carries (0 while empty).
    pub fn feature_count(&self) -> usize {
        self.features
    }

    /// The value of feature `f` in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `f` is out of range.
    pub fn feature(&self, row: usize, f: usize) -> bool {
        assert!(f < self.features, "feature {f} out of {}", self.features);
        bit(self.row_words(row), f)
    }

    /// The target value of `row`.
    pub fn target(&self, row: usize) -> bool {
        self.targets.get(row)
    }

    /// How many post-window target values `row` recorded: the horizon,
    /// less where the source trace ended early; 0 for hand-pushed rows.
    pub fn future_len(&self, row: usize) -> usize {
        assert!(row < self.len(), "row {row} out of {}", self.len());
        match self.future_end.get(row) {
            Some(&end) => end - self.future_start(row),
            None => 0,
        }
    }

    /// The target `j + 1` cycles after `row`'s target cycle, or `None`
    /// if the trace ended (or the horizon stopped) before that.
    pub fn future(&self, row: usize, j: usize) -> Option<bool> {
        (j < self.future_len(row)).then(|| self.futures.get(self.future_start(row) + j))
    }

    fn future_start(&self, row: usize) -> usize {
        match row {
            0 => 0,
            _ => self.future_end[row - 1],
        }
    }

    /// Words per row.
    pub(crate) fn words(&self) -> usize {
        self.features.div_ceil(64)
    }

    /// The feature words of `row`.
    pub(crate) fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.len(), "row {row} out of {}", self.len());
        let words = self.words();
        &self.feature_words[row * words..][..words]
    }

    /// How many rows have target 1.
    pub(crate) fn target_ones(&self) -> usize {
        self.targets.count_ones()
    }

    /// Fixes the row width on the first row; checks it on every other.
    fn set_feature_count(&mut self, features: usize) {
        if self.is_empty() {
            self.features = features;
        }
        assert_eq!(
            self.features, features,
            "every row of a dataset has the same features"
        );
    }

    /// Appends a hand-constructed row, returning its index. Intended for
    /// synthetic datasets; simulation data comes via [`Dataset::add_trace`].
    ///
    /// # Panics
    ///
    /// Panics if the row's feature count differs from earlier rows'.
    pub fn push_row(&mut self, row: Row) -> usize {
        self.set_feature_count(row.features.len());
        let start = self.feature_words.len();
        self.feature_words.resize(start + self.words(), 0);
        for (f, _) in row.features.iter().enumerate().filter(|(_, &v)| v) {
            self.feature_words[start + f / 64] |= 1 << (f % 64);
        }
        self.targets.push(row.target);
        if self.horizon > 0 {
            self.future_end.push(self.futures.len());
        }
        self.len() - 1
    }

    /// Extracts every complete window of `trace` as a row.
    ///
    /// A trace of `n` cycles yields `n - span + 1` rows; a trace
    /// shorter than the window span yields none and is counted in
    /// [`ExtractedRows::short_traces`]. Duplicate rows are kept — the
    /// decision tree works on counts, and duplicates mirror the paper's
    /// treatment of simulation data.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has a different number of features than the
    /// rows already present, or reads a bit a signal of the trace does
    /// not have.
    pub fn add_trace(&mut self, spec: &MiningSpec, trace: &Trace) -> ExtractedRows {
        let (kept, mut capture, plan) = match self.from_trace.take() {
            Some(kept) if kept.0 == *spec => kept,
            _ => {
                let (capture, mut plans) = ConeCapture::of([spec]);
                (spec.clone(), capture, plans.remove(0))
            }
        };
        capture.load_trace(trace);
        let out = self.add_windows(&plan, &capture, 0);
        self.from_trace = Some((kept, capture, plan));
        out
    }

    /// Extracts every complete window of trace `trace` of `capture` as
    /// a row, reading it with `plan` (one of the capture's plans). The
    /// rows are those [`Dataset::add_trace`] extracts from the trace
    /// the capture recorded.
    ///
    /// # Panics
    ///
    /// Panics if `plan` has a different number of features than the
    /// rows already present.
    pub fn add_windows(
        &mut self,
        plan: &WindowPlan,
        capture: &ConeCapture,
        trace: usize,
    ) -> ExtractedRows {
        self.cut(plan, capture, trace, None)
    }

    /// [`Dataset::add_windows`] for a plan with the same features and
    /// target offset as the one `cut` took the same trace with, its
    /// rows starting at `first`: the feature words are copied from
    /// `cut`, and only the target bits are read from the capture.
    ///
    /// # Panics
    ///
    /// Panics if `cut` holds fewer rows from `first` on than the trace
    /// has windows, or rows of another width.
    pub fn add_windows_from(
        &mut self,
        cut: &Dataset,
        first: usize,
        plan: &WindowPlan,
        capture: &ConeCapture,
        trace: usize,
    ) -> ExtractedRows {
        self.cut(plan, capture, trace, Some((cut, first)))
    }

    /// The one window cutter: feature words assembled from `plan`'s
    /// runs, or copied from rows `from` already cut, then the targets
    /// and futures.
    fn cut(
        &mut self,
        plan: &WindowPlan,
        capture: &ConeCapture,
        trace: usize,
        from: Option<(&Dataset, usize)>,
    ) -> ExtractedRows {
        let mut out = ExtractedRows::default();
        let len = capture.trace_len(trace);
        if len < plan.span {
            out.short_traces = 1;
            return out;
        }
        self.set_feature_count(plan.features);
        let (cone, cw) = (capture.trace_words(trace), capture.words());
        let cone_at = |cycle: usize| &cone[cycle * cw..][..cw];
        let words = self.words();
        let first = self.len();
        let windows = len - plan.span + 1;
        match from {
            Some((cut, row)) => {
                assert_eq!(cut.features, self.features, "rows of one layout");
                let src = &cut.feature_words[row * words..(row + windows) * words];
                self.feature_words.extend_from_slice(src);
            }
            None => {
                self.feature_words.resize((first + windows) * words, 0);
                for start in 0..windows {
                    let row = &mut self.feature_words[(first + start) * words..][..words];
                    for run in &plan.runs {
                        let bits = get_bits(cone_at(start + run.offset), run.src, run.len);
                        put_bits(row, run.dst, run.len, bits);
                    }
                }
            }
        }
        let target_at = |cycle: usize| bit(cone_at(cycle), plan.target);
        for start in 0..windows {
            let target_cycle = start + plan.target_offset;
            self.targets.push(target_at(target_cycle));
            if self.horizon > 0 {
                let recorded = (len - 1 - target_cycle).min(self.horizon as usize);
                for j in 1..=recorded {
                    self.futures.push(target_at(target_cycle + j));
                }
                self.future_end.push(self.futures.len());
            }
        }
        out.rows = RowRange {
            start: first,
            end: self.len(),
        };
        out
    }

    /// Adds rows from several traces.
    pub fn add_traces<'t>(
        &mut self,
        spec: &MiningSpec,
        traces: impl IntoIterator<Item = &'t Trace>,
    ) -> ExtractedRows {
        let mut all = ExtractedRows::default();
        for t in traces {
            all.extend(self.add_trace(spec, t));
        }
        all
    }

    /// Simulates every segment of `suite` on `module` through the
    /// chosen simulation backend and adds every window of each — the
    /// dataset-extraction path of the paper's data generator. The rows
    /// are captured off the replay ([`ConeCapture::replay`]), no trace
    /// is built, and they are the rows [`Dataset::add_trace`] cuts from
    /// the segments' traces on either backend.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors from simulation.
    ///
    /// # Panics
    ///
    /// Panics if `spec` reads a bit a signal of `module` does not have,
    /// or has a different number of features than the rows already
    /// present.
    pub fn add_suite(
        &mut self,
        spec: &MiningSpec,
        module: &Module,
        suite: &TestSuite,
        backend: SimBackend,
    ) -> gm_rtl::Result<ExtractedRows> {
        let mut span = gm_trace::span("mine", "mine.extract");
        // No coverage is attached here: the `NopObserver` closes every
        // point, so the replay runs the tape's probe-free residual and
        // feature extraction pays nothing for observation.
        let compiled = (backend != SimBackend::Interpreter)
            .then(|| CompiledModule::compile(module))
            .transpose()?;
        let (mut capture, plans) =
            ConeCapture::new(module, [spec]).unwrap_or_else(|e| panic!("{e}"));
        let replay = Replay {
            module,
            compiled: compiled.as_ref(),
            block: backend.lane_block(),
            cancel: None,
        };
        (capture.replay(&replay, suite, 0..suite.len(), &mut NopObserver)?)
            .expect("no cancel token");
        let mut added = ExtractedRows::default();
        for trace in 0..capture.trace_count() {
            added.extend(self.add_windows(&plans[0], &capture, trace));
        }
        span.arg("rows", added.rows.len());
        span.arg("features", spec.features.len());
        span.arg("short_traces", added.short_traces);
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{Feature, Target};
    use gm_rtl::{cone_of, elaborate, parse_verilog, Bv, SignalId};
    use gm_sim::{NopObserver, Simulator};

    /// Every row as `(features, target, futures)`.
    fn unpacked(ds: &Dataset) -> Vec<(Vec<bool>, bool, Vec<bool>)> {
        (0..ds.len())
            .map(|r| {
                (
                    (0..ds.feature_count()).map(|f| ds.feature(r, f)).collect(),
                    ds.target(r),
                    (0..ds.future_len(r))
                        .map(|j| ds.future(r, j).unwrap())
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn windows_slide_over_the_trace() {
        let m = parse_verilog(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 0; else q <= d;
             endmodule",
        )
        .unwrap();
        let e = elaborate(&m).unwrap();
        let q = m.require("q").unwrap();
        let d = m.require("d").unwrap();
        let cone = cone_of(&m, &e, q);
        let spec = crate::features::MiningSpec::for_output(&m, &e, &cone, 0, 0);
        assert_eq!(spec.span(), 2, "d@0 -> q@1");

        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        sim.set_input(rst, Bv::one_bit());
        sim.step();
        sim.set_input(rst, Bv::zero_bit());
        let patterns = [true, false, true, true];
        let vectors: Vec<_> = patterns
            .iter()
            .map(|&v| vec![(d, Bv::from_bool(v))])
            .collect();
        let trace = sim.run_vectors(&vectors, &mut NopObserver);

        let mut ds = Dataset::new();
        let added = ds.add_trace(&spec, &trace);
        assert_eq!(added.rows, vec![0, 1, 2]);
        assert_eq!(added.short_traces, 0);
        // Every row obeys q(t+1) = d(t); feature 0 is d@0.
        let d_idx = spec
            .features
            .iter()
            .position(|f| f.signal == d && f.offset == 0)
            .unwrap();
        for row in 0..ds.len() {
            assert_eq!(ds.target(row), ds.feature(row, d_idx));
        }
    }

    #[test]
    fn horizon_records_post_window_targets() {
        let m = parse_verilog(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 0; else q <= d;
             endmodule",
        )
        .unwrap();
        let e = elaborate(&m).unwrap();
        let q = m.require("q").unwrap();
        let d = m.require("d").unwrap();
        let cone = cone_of(&m, &e, q);
        let spec = crate::features::MiningSpec::for_output(&m, &e, &cone, 0, 0);

        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        sim.set_input(rst, Bv::one_bit());
        sim.step();
        sim.set_input(rst, Bv::zero_bit());
        let patterns = [true, false, true, true];
        let vectors: Vec<_> = patterns
            .iter()
            .map(|&v| vec![(d, Bv::from_bool(v))])
            .collect();
        let trace = sim.run_vectors(&vectors, &mut NopObserver);

        let mut ds = Dataset::with_horizon(2);
        assert_eq!(ds.horizon(), 2);
        let added = ds.add_trace(&spec, &trace);
        assert_eq!(added.rows.len(), 3);
        // Row r's target sits at cycle r+1; its future holds the
        // target at cycles r+2, r+3 where those exist. q tracks d one
        // cycle behind, so targets over cycles 1..=3 are d's pattern.
        let futures: Vec<_> = unpacked(&ds).into_iter().map(|(_, _, f)| f).collect();
        assert_eq!(futures, [vec![false, true], vec![true], vec![]]);
        assert_eq!(ds.future(1, 0), Some(true));
        assert_eq!(ds.future(1, 1), None, "clipped at the trace end");
        // Hand-pushed rows have no recorded future.
        let idx = ds.push_row(Row {
            features: vec![true; spec.features.len()],
            target: true,
        });
        assert_eq!(ds.future_len(idx), 0);
        assert_eq!(ds.future(idx, 0), None);
    }

    #[test]
    fn add_suite_rows_identical_across_backends() {
        let m = parse_verilog(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 0; else q <= d;
             endmodule",
        )
        .unwrap();
        let e = elaborate(&m).unwrap();
        let q = m.require("q").unwrap();
        let cone = cone_of(&m, &e, q);
        let spec = crate::features::MiningSpec::for_output(&m, &e, &cone, 0, 0);
        let mut suite = TestSuite::new();
        for seed in 0..3u64 {
            suite.push(
                format!("s{seed}"),
                gm_sim::collect_vectors(&mut gm_sim::RandomStimulus::new(&m, seed, 12)),
            );
        }
        let mut by_backend = Vec::new();
        for backend in [
            SimBackend::Interpreter,
            SimBackend::CompiledBatch(1),
            SimBackend::CompiledBatch(8),
        ] {
            let mut ds = Dataset::new();
            let added = ds.add_suite(&spec, &m, &suite, backend).unwrap();
            assert_eq!(added.rows.len(), ds.len());
            by_backend.push(unpacked(&ds));
        }
        assert_eq!(by_backend[0], by_backend[1]);
        assert_eq!(by_backend[0], by_backend[2]);
    }

    #[test]
    fn short_traces_are_counted_distinctly() {
        let m = parse_verilog(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk)
                 if (rst) q <= 0; else q <= d;
             endmodule",
        )
        .unwrap();
        let e = elaborate(&m).unwrap();
        let q = m.require("q").unwrap();
        let cone = cone_of(&m, &e, q);
        let spec = crate::features::MiningSpec::for_output(&m, &e, &cone, 0, 1);
        let trace = {
            let mut sim = Simulator::new(&m).unwrap();
            sim.run_vectors(&[vec![]], &mut NopObserver)
        };
        let mut ds = Dataset::new();
        let added = ds.add_trace(&spec, &trace);
        // The old API returned one indistinguishable empty Vec here;
        // now the dropped stimulus is visible.
        assert!(added.is_empty());
        assert_eq!(added.short_traces, 1);
        assert!(ds.is_empty());
        // A long-enough but windowless... every long-enough trace
        // yields rows, so the other empty case is only reachable via
        // an empty trace set.
        let none = ds.add_traces(&spec, std::iter::empty());
        assert!(none.is_empty());
        assert_eq!(none.short_traces, 0);
    }

    /// Packed extraction against the definition — one `Trace::bit`
    /// probe per feature per window — on a spec the planner cannot
    /// treat kindly: 130 features (three words per row, runs capped at
    /// 64 and straddling word boundaries) over wide signals, shuffled
    /// bit order, repeated atoms, offsets out of order, a target that
    /// is no feature, and a horizon longer than what the trace has left.
    #[test]
    fn arbitrary_specs_extract_by_the_definition() {
        let m = parse_verilog(
            "module m(input clk, input [39:0] a, input [39:0] b, output reg [39:0] q);
               always @(posedge clk) q <= (a ^ b) + q;
             endmodule",
        )
        .unwrap();
        let (a, b, q) = (
            m.require("a").unwrap(),
            m.require("b").unwrap(),
            m.require("q").unwrap(),
        );
        let feature = |signal: SignalId, bit: u32, offset: u32| Feature {
            signal,
            bit,
            offset,
        };
        let mut features = Vec::new();
        // 80 in planner-friendly order: one run capped at 64, then 16.
        features.extend((0..40).map(|bit| feature(a, bit, 1)));
        features.extend((0..40).map(|bit| feature(b, bit, 1)));
        // The same atoms at another offset, backwards: 40 runs of one.
        features.extend((0..40).rev().map(|bit| feature(a, bit, 3)));
        // New atoms interleaved with seen ones at a third offset.
        features.extend((0..5).flat_map(|bit| [feature(q, bit, 0), feature(b, bit, 2)]));
        assert_eq!(features.len(), 130);
        let spec = MiningSpec {
            initial_active: 100,
            features,
            target: Target {
                signal: q,
                bit: 17,
                offset: 2,
            },
            window: 3,
        };
        assert_eq!(spec.span(), 4);

        let traces: Vec<Trace> = [9u64, 4, 3, 40]
            .iter()
            .map(|&cycles| {
                let vectors =
                    gm_sim::collect_vectors(&mut gm_sim::RandomStimulus::new(&m, cycles, cycles));
                Simulator::new(&m)
                    .unwrap()
                    .run_vectors(&vectors, &mut NopObserver)
            })
            .collect();
        let mut ds = Dataset::with_horizon(5);
        let added = ds.add_traces(&spec, &traces);
        assert_eq!(added.short_traces, 1, "the 3-cycle trace");
        assert_eq!(added.rows, (0..6 + 1 + 37).collect::<Vec<_>>());
        assert_eq!(ds.words(), 3);

        let mut expected = Vec::new();
        for trace in traces.iter().filter(|t| t.len() >= 4) {
            for start in 0..=trace.len() - 4 {
                let features: Vec<bool> = spec
                    .features
                    .iter()
                    .map(|f| trace.bit(start + f.offset as usize, f.signal, f.bit))
                    .collect();
                let futures: Vec<bool> = (start + 3..trace.len())
                    .take(5)
                    .map(|cycle| trace.bit(cycle, q, 17))
                    .collect();
                expected.push((features, trace.bit(start + 2, q, 17), futures));
            }
        }
        assert_eq!(unpacked(&ds), expected);
        assert!(expected.iter().any(|(_, _, f)| f.len() == 5));
        assert!(expected.iter().any(|(_, _, f)| f.len() == 1));
    }

    #[test]
    fn a_different_spec_gets_its_own_plan() {
        let m = parse_verilog(
            "module m(input clk, input d, input e, output reg q);
               always @(posedge clk) q <= d & e;
             endmodule",
        )
        .unwrap();
        let (d, e, q) = (
            m.require("d").unwrap(),
            m.require("e").unwrap(),
            m.require("q").unwrap(),
        );
        let spec_on = |signal| MiningSpec {
            features: vec![Feature {
                signal,
                bit: 0,
                offset: 0,
            }],
            initial_active: 1,
            target: Target {
                signal: q,
                bit: 0,
                offset: 1,
            },
            window: 0,
        };
        let vectors = gm_sim::collect_vectors(&mut gm_sim::RandomStimulus::new(&m, 3, 16));
        let trace = Simulator::new(&m)
            .unwrap()
            .run_vectors(&vectors, &mut NopObserver);
        let mut ds = Dataset::new();
        ds.add_trace(&spec_on(d), &trace);
        ds.add_trace(&spec_on(e), &trace);
        ds.add_trace(&spec_on(d), &trace);
        for start in 0..15 {
            assert_eq!(ds.feature(start, 0), trace.bit(start, d, 0));
            assert_eq!(ds.feature(15 + start, 0), trace.bit(start, e, 0));
            assert_eq!(ds.feature(30 + start, 0), trace.bit(start, d, 0));
        }
    }
}
