//! The replay seam: how reset-rooted segments are simulated.
//!
//! Everything above the simulator that turns stimulus into traces or
//! coverage — the closure engine's seed, counterexample and refinement
//! replays (which also feed its coverage suite), the miner's suite
//! extraction — asks
//! a [`Replay`] and never names an executor. The decision is the
//! `compiled` field alone:
//!
//! * `None` — the interpreter oracle walks [`crate::run_segment`] one
//!   segment at a time, polling the cancel token between segments;
//! * `Some(tape)` — the segments ride the lane-batched tape together,
//!   up to `64·block` per pass, the token polled once per simulated
//!   cycle.
//!
//! Traces and coverage are identical either way (`sim/compiled_agree`),
//! so the choice never shows in a result. What is replayed is always a
//! range of a [`TestSuite`]: the tape reads the range's lane groups
//! where the suite stores them (a range that starts or ends inside a
//! 64-lane group reads that whole group with the other lanes masked),
//! and the interpreter decodes one segment at a time. Callers hand over
//! *all* the segments of a pass in one call: a tape pass costs the same
//! for one active lane as for 64, so a loop of one-segment replays
//! would pay the whole batch price per segment.
//!
//! Before each pass (each segment, on the interpreter) the observer is
//! told which segments of the range it holds
//! ([`BatchObserver::on_pass_start`],
//! [`SimObserver::on_segment_start`]), so an observer that scores
//! segments apart — the refinement's gain observer — needs no cycle
//! event to tell them apart.
//!
//! Observation cost follows the observer's open points. At the start of
//! each pass and after 1, 2, 4, … of its cycles, the tape drops the
//! observation instructions of every point the observer reports closed
//! ([`BatchObserver::closed`]), so a
//! `CoverageSuite` that has covered most of a design pays for the rest
//! alone, and a [`crate::NopObserver`] on a probed tape runs the
//! probe-free instructions.

use crate::compile::{BatchObserver, CompiledModule};
use crate::sim::SimObserver;
use crate::suite::{run_segment, TestSuite};
use crate::trace::Trace;
use gm_rtl::{Module, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// A borrowed description of how to replay segments on one design.
#[derive(Clone, Copy, Debug)]
pub struct Replay<'a> {
    /// The design.
    pub module: &'a Module,
    /// Its instruction tape, or `None` for the interpreter. A tape
    /// compiled without probes must not be given a coverage observer.
    pub compiled: Option<&'a CompiledModule>,
    /// The widest lane block, in words, the tape may run (normalized to
    /// 1, 2, 4 or 8 — see [`crate::SimBackend::lane_block`]): a replay
    /// narrows it to the lane groups its range fills. Ignored by the
    /// interpreter.
    pub block: usize,
    /// Cooperative cancel token. A raised token ends the replay with
    /// `Ok(None)`; `obs` has then seen a *partial* pass and whatever it
    /// accumulated must be discarded.
    pub cancel: Option<&'a AtomicBool>,
}

impl Replay<'_> {
    /// Replays segments `range` of `suite` from reset, reporting events
    /// to `obs`, and returns one trace per segment — `None` when the
    /// cancel token cut the replay short (no trace of the batch is
    /// returned then).
    ///
    /// # Errors
    ///
    /// Propagates the interpreter's elaboration errors.
    pub fn traces<O: SimObserver + BatchObserver>(
        &self,
        suite: &TestSuite,
        range: Range<usize>,
        obs: &mut O,
    ) -> Result<Option<Vec<Trace>>> {
        self.run(suite, range, obs, true)
    }

    /// [`Replay::traces`] without materializing traces — the coverage
    /// path, where the per-lane transpose would dominate. `None` when
    /// cancelled.
    ///
    /// # Errors
    ///
    /// Propagates the interpreter's elaboration errors.
    pub fn observe<O: SimObserver + BatchObserver>(
        &self,
        suite: &TestSuite,
        range: Range<usize>,
        obs: &mut O,
    ) -> Result<Option<()>> {
        Ok(self.run(suite, range, obs, false)?.map(drop))
    }

    fn run<O: SimObserver + BatchObserver>(
        &self,
        suite: &TestSuite,
        range: Range<usize>,
        obs: &mut O,
        collect_traces: bool,
    ) -> Result<Option<Vec<Trace>>> {
        if range.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let Some(compiled) = self.compiled else {
            let mut traces = Vec::with_capacity(range.len());
            for (index, s) in range.enumerate() {
                if self.cancel.is_some_and(|c| c.load(Ordering::Acquire)) {
                    return Ok(None);
                }
                SimObserver::on_segment_start(obs, index);
                let trace = run_segment(self.module, &suite.segment(s).vectors, obs)?;
                if collect_traces {
                    traces.push(trace);
                }
            }
            return Ok(Some(traces));
        };
        Ok(compiled.run_segments_batched(
            self.module,
            suite,
            range,
            obs,
            collect_traces,
            self.cancel,
            self.block,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{LaneSet, LaneSnapshot};
    use crate::stim::{collect_vectors, RandomStimulus};
    use crate::NopObserver;
    use gm_rtl::{parse_verilog, Bv};

    const COUNTER: &str = "
    module counter(input clk, input rst, input en, output reg [2:0] q);
      always @(posedge clk)
        if (rst) q <= 0;
        else if (en) q <= q + 3'd1;
        else q <= q;
    endmodule";

    fn segments(m: &Module, n: u64) -> TestSuite {
        let mut suite = TestSuite::new();
        for seed in 0..n {
            let mut stim = RandomStimulus::new(m, seed, 4 + seed % 5);
            suite.push(format!("s{seed}"), collect_vectors(&mut stim));
        }
        suite
    }

    /// Raises the token from inside the replay, after `after` cycle-end
    /// events on either engine.
    struct CancelAfter<'a> {
        token: &'a AtomicBool,
        after: usize,
    }

    impl CancelAfter<'_> {
        fn tick(&mut self) {
            if self.after == 0 {
                self.token.store(true, Ordering::Release);
            }
            self.after = self.after.saturating_sub(1);
        }
    }

    impl SimObserver for CancelAfter<'_> {
        fn on_cycle_end(&mut self, _cycle: u64, _values: &[Bv]) {
            self.tick();
        }
    }

    impl BatchObserver for CancelAfter<'_> {
        fn on_cycle_end(&mut self, _cycle: u64, _lanes: &LaneSet<'_>, _snap: &LaneSnapshot<'_>) {
            self.tick();
        }
    }

    #[test]
    fn both_sides_of_the_seam_return_the_same_traces() {
        let m = parse_verilog(COUNTER).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        // Enough segments for every block to run at its own width.
        let n = 257;
        let segs = segments(&m, n as u64);
        let replay = |compiled, block| Replay {
            module: &m,
            compiled,
            block,
            cancel: None,
        };
        let want = replay(None, 1)
            .traces(&segs, 0..n, &mut NopObserver)
            .unwrap();
        assert_eq!(want.as_ref().map(Vec::len), Some(n));
        let want = want.unwrap();
        for block in [1, 2, 8] {
            let got = replay(Some(&c), block).traces(&segs, 0..n, &mut NopObserver);
            assert_eq!(got.unwrap().as_ref(), Some(&want), "block {block}");
            let observed = replay(Some(&c), block).observe(&segs, 0..n, &mut NopObserver);
            assert_eq!(observed.unwrap(), Some(()));
            // A range across the group seam is those segments alone.
            let got = replay(Some(&c), block).traces(&segs, 60..67, &mut NopObserver);
            assert_eq!(
                got.unwrap().as_deref(),
                Some(&want[60..67]),
                "block {block}"
            );
        }
        // Nothing to replay is not a pass: no reset cycle, no trace.
        let none = replay(Some(&c), 1)
            .traces(&segs, 5..5, &mut NopObserver)
            .unwrap();
        assert_eq!(none, Some(Vec::new()));
    }

    #[test]
    fn a_token_raised_inside_the_replay_ends_it_without_traces() {
        let m = parse_verilog(COUNTER).unwrap();
        let c = CompiledModule::compile(&m).unwrap();
        let segs = segments(&m, 3);
        for compiled in [None, Some(&c)] {
            let token = AtomicBool::new(false);
            let replay = Replay {
                module: &m,
                compiled,
                block: 1,
                cancel: Some(&token),
            };
            // Raised during the second stimulus cycle (the first event
            // is the reset pulse): the tape stops at its next cycle,
            // the interpreter before its next segment.
            let mut obs = CancelAfter {
                token: &token,
                after: 2,
            };
            assert_eq!(replay.traces(&segs, 0..3, &mut obs).unwrap(), None);
            // Still raised: the next replay ends at its first poll.
            assert_eq!(replay.observe(&segs, 0..3, &mut NopObserver).unwrap(), None);
        }
    }
}
