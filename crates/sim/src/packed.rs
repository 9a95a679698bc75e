//! Lane-packed stimulus: segments stored the way the tape reads them.
//!
//! A [`crate::Segment`] keeps one `Vec<(SignalId, Bv)>` per cycle — the
//! form stimulus is built, absorbed and printed in. The batch executor
//! wants the transpose: per cycle, one word per input bit carrying 64
//! segments' values. [`PackedStimulus`] is that transpose, built once
//! in a single segment-major walk and append-only afterwards.
//!
//! # Layout
//!
//! Segments are dealt onto **lane groups** of 64, in order: segment `s`
//! is lane `s % 64` of group `s / 64`. Groups do not depend on the
//! executor's lane block `W`: block word `j` of chunk `c` reads group
//! `c·W + j`, so one form feeds every width.
//!
//! A group holds one *cycle record* per cycle of its longest segment:
//!
//! ```text
//! [ active | val₀ drv₀ | val₁ drv₁ | … ]      1 + 2·rows words
//! ```
//!
//! `active` has bit `k` set while lane `k`'s segment is still running.
//! A *row* is one bit of one driven signal; rows are handed out in
//! order of first appearance (all bits of a signal together) and a
//! group carries the rows known when its last lane was packed, which is
//! a prefix of the table. `drv` has bit `k` set when lane `k`'s vector
//! names the signal in that cycle and `val` then carries the bit
//! (`val ⊆ drv`), so the executor's whole feed is
//! `slot = (slot & !drv) | val` per row: a lane whose vector does not
//! name a signal — or whose segment has ended — *holds* what it drove
//! last, and a signal named twice in one vector keeps the later value,
//! exactly as a loop of `set_input` calls would.

use crate::stim::InputVector;
use crate::suite::Segment;
use gm_rtl::SignalId;

/// Segments per lane group: the lanes of one block word.
const GROUP_LANES: usize = 64;

/// `row_of` entry of a signal no vector has named yet.
const NO_ROW: u32 = u32::MAX;

/// One lane group's cycle records inside [`PackedStimulus::words`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct Group {
    /// Offset of the record of cycle 0.
    start: usize,
    /// Records held: the length of the group's longest segment.
    cycles: usize,
    /// Rows per record.
    rows: usize,
}

impl Group {
    fn stride(&self) -> usize {
        1 + 2 * self.rows
    }
}

/// Reset-rooted segments transposed into per-cycle lane words (see the
/// module docs for the layout). Values are resized to the signal
/// widths given at construction, so a form is only meaningful on a
/// design with that signal table; the widths are the key
/// [`crate::TestSuite`] compares before handing its form to a tape.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedStimulus {
    /// Signal widths of the design, by signal index.
    widths: Vec<u32>,
    /// First row of each signal, by signal index.
    row_of: Vec<u32>,
    /// Driven signals in row order.
    driven: Vec<SignalId>,
    /// Rows handed out so far (the driven signals' widths, summed).
    rows: usize,
    groups: Vec<Group>,
    /// Every group's records, back to back; the last group is the tail,
    /// which is what lets it grow in place.
    words: Vec<u64>,
    segments: usize,
}

impl PackedStimulus {
    /// An empty form for a design with the given signal widths.
    pub(crate) fn new(widths: &[u32]) -> Self {
        PackedStimulus {
            widths: widths.to_vec(),
            row_of: vec![NO_ROW; widths.len()],
            driven: Vec::new(),
            rows: 0,
            groups: Vec::new(),
            words: Vec::new(),
            segments: 0,
        }
    }

    /// Packs `segments` in order.
    pub fn pack(widths: &[u32], segments: &[Segment]) -> Self {
        let mut packed = PackedStimulus::new(widths);
        packed.extend(segments);
        packed
    }

    /// The signal widths values were resized to.
    pub(crate) fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Segments packed so far.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Forgets every segment but keeps the row table and the
    /// allocation — the executor's per-chunk scratch.
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.words.clear();
        self.segments = 0;
    }

    /// Appends `segments` as the next lanes.
    pub(crate) fn extend(&mut self, segments: &[Segment]) {
        for segment in segments {
            self.push(&segment.vectors);
        }
    }

    /// Appends one segment as the next lane.
    ///
    /// # Panics
    ///
    /// Panics if a vector names a signal outside the width table.
    pub(crate) fn push(&mut self, vectors: &[InputVector]) {
        let lane = self.segments % GROUP_LANES;
        if lane == 0 {
            self.groups.push(Group {
                start: self.words.len(),
                cycles: 0,
                rows: self.rows,
            });
        }
        self.segments += 1;
        let mut group = self.tail_cycles(vectors.len());
        let bit = 1u64 << lane;
        for (t, vector) in vectors.iter().enumerate() {
            self.words[group.start + t * group.stride()] |= bit;
            for &(sig, value) in vector {
                if self.row_of[sig.index()] == NO_ROW {
                    group = self.add_signal(sig);
                }
                let width = self.widths[sig.index()];
                let bits = value.resize(width).bits();
                let first =
                    group.start + t * group.stride() + 1 + 2 * self.row_of[sig.index()] as usize;
                let pairs = &mut self.words[first..first + 2 * width as usize];
                for (i, pair) in pairs.chunks_exact_mut(2).enumerate() {
                    pair[0] = (pair[0] & !bit) | ((bits >> i & 1) << lane);
                    pair[1] |= bit;
                }
            }
        }
    }

    /// Makes the tail group hold at least `cycles` records (new ones
    /// all-zero: nobody active, nothing driven) and returns it.
    fn tail_cycles(&mut self, cycles: usize) -> Group {
        let group = self.groups.last_mut().expect("a group was opened");
        if cycles > group.cycles {
            group.cycles = cycles;
            self.words.resize(group.start + cycles * group.stride(), 0);
        }
        *group
    }

    /// Hands `sig` its rows and widens the tail group's records to
    /// carry them (earlier groups never drove the signal and keep their
    /// narrower records). Returns the re-strided tail group.
    fn add_signal(&mut self, sig: SignalId) -> Group {
        self.row_of[sig.index()] = u32::try_from(self.rows).expect("rows fit u32");
        self.driven.push(sig);
        self.rows += self.widths[sig.index()] as usize;
        let group = self.groups.last_mut().expect("a group was opened");
        let (old, cycles) = (group.stride(), group.cycles);
        group.rows = self.rows;
        let (start, new) = (group.start, group.stride());
        self.words.resize(start + cycles * new, 0);
        // Back to front, so no record lands on one not yet moved.
        for t in (0..cycles).rev() {
            let (from, to) = (start + t * old, start + t * new);
            self.words.copy_within(from..from + old, to);
            self.words[to + old..to + new].fill(0);
        }
        *group
    }

    /// The design-arena row of every packed row, given where each
    /// signal's bits start (`base`, by signal index), into `out`.
    pub(crate) fn arena_rows(&self, base: &[u32], out: &mut Vec<u32>) {
        out.clear();
        for &sig in &self.driven {
            let first = base[sig.index()];
            out.extend((0..self.widths[sig.index()]).map(|i| first + i));
        }
    }

    /// The longest segment among groups `first..first + n`.
    pub(crate) fn cycles(&self, first: usize, n: usize) -> usize {
        let groups = &self.groups[first.min(self.groups.len())..];
        groups.iter().take(n).map(|g| g.cycles).max().unwrap_or(0)
    }

    /// Group `group`'s record of cycle `t` — `[active, val₀, drv₀, …]`
    /// — or `None` once every segment of the group has ended (or the
    /// group does not exist).
    #[inline]
    pub(crate) fn record(&self, group: usize, t: usize) -> Option<&[u64]> {
        let g = self.groups.get(group)?;
        (t < g.cycles).then(|| &self.words[g.start + t * g.stride()..][..g.stride()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::Bv;

    fn sig(i: u32) -> SignalId {
        SignalId::from_raw(i)
    }

    /// Lane `lane`'s `(driven, value)` of `signal` in cycle `t`, read
    /// back from the records.
    fn read(p: &PackedStimulus, segment: usize, t: usize, signal: SignalId) -> (bool, u64) {
        let (group, lane) = (segment / 64, segment % 64);
        let record = p.record(group, t).expect("cycle is recorded");
        let row = p.row_of[signal.index()];
        if row == NO_ROW || row as usize >= p.groups[group].rows {
            return (false, 0);
        }
        let mut value = 0;
        let mut driven = false;
        for i in 0..p.widths[signal.index()] as usize {
            let at = 1 + 2 * (row as usize + i);
            value |= (record[at] >> lane & 1) << i;
            driven |= record[at + 1] >> lane & 1 == 1;
        }
        (driven, value)
    }

    #[test]
    fn unnamed_signals_are_not_driven_and_the_last_naming_wins() {
        // Signals 0 (1 bit) and 1 (3 bits); 2 is never named.
        let mut p = PackedStimulus::new(&[1, 3, 8]);
        p.push(&[
            vec![(sig(1), Bv::new(5, 3))],
            vec![(sig(0), Bv::one_bit())],
            vec![(sig(1), Bv::new(1, 3)), (sig(1), Bv::new(6, 3))],
        ]);
        assert_eq!(read(&p, 0, 0, sig(1)), (true, 5));
        assert_eq!(read(&p, 0, 0, sig(0)), (false, 0), "not named in cycle 0");
        assert_eq!(read(&p, 0, 1, sig(0)), (true, 1));
        assert_eq!(read(&p, 0, 1, sig(1)), (false, 0), "held, not re-driven");
        assert_eq!(read(&p, 0, 2, sig(1)), (true, 6), "named twice: last wins");
        assert_eq!(p.rows, 4, "signal 2 has no rows");
        // Values are cut to the signal's width, like `set_input`.
        p.push(&[vec![(sig(0), Bv::new(0b10, 2)), (sig(1), Bv::new(1, 1))]]);
        assert_eq!(read(&p, 1, 0, sig(0)), (true, 0));
        assert_eq!(read(&p, 1, 0, sig(1)), (true, 1), "zero-extended");
        assert_eq!(p.record(0, 0).unwrap()[0], 0b11, "both lanes active");
        assert_eq!(p.record(0, 1).unwrap()[0], 0b01, "lane 1 has ended");
        assert!(p.record(0, 3).is_none() && p.record(1, 0).is_none());
    }

    #[test]
    fn a_late_signal_widens_only_the_tail_group() {
        let mut p = PackedStimulus::new(&[1, 2]);
        for s in 0..64u64 {
            p.push(&vec![vec![(sig(0), Bv::new(s & 1, 1))]; 2]);
        }
        // Lane 0 of group 1 runs three cycles before lane 1 names a
        // new signal in its second: the records already written move.
        p.push(&vec![vec![(sig(0), Bv::one_bit())]; 3]);
        p.push(&[vec![], vec![(sig(1), Bv::new(2, 2))]]);
        assert_eq!((p.groups[0].rows, p.groups[1].rows), (1, 3));
        assert_eq!(p.cycles(0, 1), 2);
        assert_eq!(p.cycles(0, 8), 3);
        assert_eq!(p.cycles(2, 8), 0);
        for s in 0..64 {
            for t in 0..2 {
                assert_eq!(read(&p, s, t, sig(0)), (true, s as u64 & 1));
                assert_eq!(read(&p, s, t, sig(1)), (false, 0));
            }
        }
        for t in 0..3 {
            assert_eq!(read(&p, 64, t, sig(0)), (true, 1), "cycle {t}");
            assert_eq!(read(&p, 64, t, sig(1)), (false, 0));
        }
        assert_eq!(read(&p, 65, 0, sig(1)), (false, 0));
        assert_eq!(read(&p, 65, 1, sig(1)), (true, 2));
        assert_eq!(p.record(1, 1).unwrap()[0], 0b11);
        assert_eq!(p.record(1, 2).unwrap()[0], 0b01);
        let mut rows = Vec::new();
        p.arena_rows(&[10, 20], &mut rows);
        assert_eq!(rows, [10, 20, 21]);
    }

    #[test]
    fn appending_equals_packing_afresh() {
        let segments: Vec<Segment> = (0..150u64)
            .map(|s| Segment {
                label: String::new(),
                vectors: (0..s % 7)
                    .map(|t| {
                        let mut v = vec![(sig(0), Bv::new(s ^ t, 1))];
                        if (s + t) % 3 == 0 {
                            v.push((sig(1 + (s % 2) as u32), Bv::new(s + t, 4)));
                        }
                        v
                    })
                    .collect(),
            })
            .collect();
        let widths = [1, 4, 4];
        let whole = PackedStimulus::pack(&widths, &segments);
        for cut in [0, 1, 63, 64, 65, 128, 149] {
            let mut grown = PackedStimulus::pack(&widths, &segments[..cut]);
            grown.extend(&segments[cut..]);
            assert_eq!(grown, whole, "cut at {cut}");
        }
        assert_eq!((whole.segments(), whole.groups.len()), (150, 3));
        // The scratch use: cleared, the rows stay known.
        let mut scratch = whole.clone();
        scratch.clear();
        scratch.extend(&segments[..2]);
        assert_eq!((scratch.segments(), scratch.groups.len()), (2, 1));
        assert_eq!(scratch.groups[0].rows, 9);
    }
}
