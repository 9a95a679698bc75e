//! Lane-packed stimulus: the one form a [`crate::TestSuite`] stores its
//! segments in and the tape reads — per cycle, one word per input bit
//! carrying 64 segments' values, written as each segment is pushed.
//!
//! # Layout
//!
//! Segments are dealt onto **lane groups** of 64: segment `s` is lane
//! `s % 64` of group `s / 64`. A pass over groups `g..g + W` reads group
//! `g + j` into block word `j`, so one form feeds every lane block and
//! any range of segments is read where it lies.
//!
//! A group holds one *cycle record* per cycle of its longest segment:
//!
//! ```text
//! [ active | val₀ drv₀ | val₁ drv₁ | … ]      1 + 2·rows words
//! ```
//!
//! `active` has bit `k` set while lane `k`'s segment is running. A *row*
//! is one bit of one driven signal; rows are handed out in order of
//! first appearance, a signal's width **learned** from its first naming
//! (a form has no design), and a group carries the rows known when its
//! last lane was packed — a prefix of the table. `drv` has bit `k` set
//! when lane `k`'s vector names the signal and `val` then carries the
//! bit, so the executor's whole feed is `slot = (slot & !drv) | val` per
//! row: an unnamed signal (or an ended lane) *holds*, and a signal named
//! twice keeps the later value cut or zero-extended to the row width —
//! exactly as a loop of `set_input` calls.
//!
//! A vector is *regular* when it names each signal at most once, at its
//! row width, in ascending row order — what random stimulus, canonical
//! counterexamples and directed variants build. It is then exactly
//! the driven rows of its record, so [`PackedStimulus::decode`] gives a
//! segment [`PackedStimulus::push`] found regular back from the lanes
//! alone; the suite keeps any other segment verbatim.

use crate::stim::InputVector;
use gm_rtl::{Bv, SignalId};

/// Segments per lane group: the lanes of one block word.
pub(crate) const GROUP_LANES: usize = 64;

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
/// module docs for the layout).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PackedStimulus {
    /// Row width of each signal, by signal index (meaningful once the
    /// signal has rows).
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
    /// Cycles of every segment, in push order.
    lens: Vec<usize>,
}

impl PackedStimulus {
    /// Segments packed so far.
    pub fn segments(&self) -> usize {
        self.lens.len()
    }

    /// Cycles of every segment, in push order.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Whether every driven signal's row width is its width in a
    /// design with signal widths `widths`, so the lanes drive that
    /// design exactly as `set_input` would.
    pub(crate) fn fits(&self, widths: &[u32]) -> bool {
        self.driven
            .iter()
            .all(|sig| widths.get(sig.index()) == Some(&self.widths[sig.index()]))
    }

    /// Appends one segment as the next lane, returning whether every
    /// vector was regular (see the module docs) — then, and only then,
    /// [`PackedStimulus::decode`] gives `vectors` back.
    pub(crate) fn push(&mut self, vectors: &[InputVector]) -> bool {
        self.open(vectors.len());
        let mut regular = true;
        for vector in vectors {
            regular &= self.push_cycle(vector.iter().copied());
        }
        regular
    }

    /// Appends an empty segment as the next lane, with room for
    /// `cycles` cycles, for [`PackedStimulus::push_cycle`] to extend.
    pub(crate) fn open(&mut self, cycles: usize) {
        if self.lens.len().is_multiple_of(GROUP_LANES) {
            self.groups.push(Group {
                start: self.words.len(),
                cycles: 0,
                rows: self.rows,
            });
        }
        self.lens.push(0);
        self.tail_cycles(cycles);
    }

    /// Appends `vector` as the next cycle of the last segment, returning
    /// whether it was regular. This is the one packing core: every lane
    /// word a suite holds was written here, from a stored vector or
    /// straight from a cycle's input bits ([`crate::InputLayout::values`]).
    pub(crate) fn push_cycle(&mut self, vector: impl IntoIterator<Item = (SignalId, Bv)>) -> bool {
        let lane = (self.lens.len() - 1) % GROUP_LANES;
        let len = self.lens.last_mut().expect("a segment was opened");
        let t = *len;
        *len += 1;
        let mut group = self.tail_cycles(t + 1);
        let bit = 1u64 << lane;
        let mut record = group.start + t * group.stride();
        self.words[record] |= bit;
        let mut regular = true;
        let mut prev = None;
        for (sig, value) in vector {
            let row = match self.row_of.get(sig.index()) {
                Some(&row) if row != NO_ROW => row,
                _ => {
                    // The tail is re-strided: this record moves.
                    group = self.add_signal(sig, value.width());
                    record = group.start + t * group.stride();
                    self.row_of[sig.index()]
                }
            };
            let width = self.widths[sig.index()];
            regular &= value.width() == width && prev.is_none_or(|p| p < row);
            prev = Some(row);
            // Bits past the row width are cut, missing ones read 0.
            let bits = value.bits();
            let pairs = &mut self.words[record + 1 + 2 * row as usize..][..2 * width as usize];
            for (b, pair) in pairs.chunks_exact_mut(2).enumerate() {
                pair[0] = (pair[0] & !bit) | ((bits >> b & 1) << lane);
                pair[1] |= bit;
            }
        }
        regular
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

    /// Hands `sig` `width` rows and widens the tail group's records to
    /// carry them (earlier groups never drove the signal and keep their
    /// narrower records). Returns the re-strided tail group.
    fn add_signal(&mut self, sig: SignalId, width: u32) -> Group {
        if sig.index() >= self.row_of.len() {
            self.row_of.resize(sig.index() + 1, NO_ROW);
            self.widths.resize(sig.index() + 1, 0);
        }
        self.widths[sig.index()] = width;
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

    /// Segment `s` read back from its lane: per cycle, every signal the
    /// lane drives, in row order, at its row width. This is the segment
    /// as pushed when [`PackedStimulus::push`] found it regular.
    pub(crate) fn decode(&self, s: usize) -> Vec<InputVector> {
        let signals = self.signals_of(s);
        (0..self.lens[s])
            .map(|t| {
                let mut vector = Vec::new();
                self.decode_record(s, t, signals, &mut vector);
                vector
            })
            .collect()
    }

    /// Cycle `t` of segment `s` read back from its lane into `out`
    /// (cleared first), as [`PackedStimulus::decode`] reads it.
    pub(crate) fn decode_cycle(&self, s: usize, t: usize, out: &mut InputVector) {
        self.decode_record(s, t, self.signals_of(s), out);
    }

    /// The signals segment `s`'s group has rows for: a prefix of the
    /// table.
    fn signals_of(&self, s: usize) -> &[SignalId] {
        let rows = self.groups[s / GROUP_LANES].rows;
        let known = (self.driven).partition_point(|sig| (self.row_of[sig.index()] as usize) < rows);
        &self.driven[..known]
    }

    fn decode_record(&self, s: usize, t: usize, signals: &[SignalId], out: &mut InputVector) {
        let (group, lane) = (self.groups[s / GROUP_LANES], s % GROUP_LANES);
        let record = &self.words[group.start + t * group.stride()..][..group.stride()];
        out.clear();
        out.reserve_exact(signals.len());
        for &sig in signals {
            let at = 1 + 2 * self.row_of[sig.index()] as usize;
            if record[at + 1] >> lane & 1 == 0 {
                continue;
            }
            let width = self.widths[sig.index()];
            let bits = (0..width as usize).fold(0u64, |bits, b| {
                bits | ((record[at + 2 * b] >> lane & 1) << b)
            });
            out.push((sig, Bv::new(bits, width)));
        }
    }

    /// The design-arena row of every packed row, given where each
    /// signal's bits start (`base`, by signal index).
    pub(crate) fn arena_rows(&self, base: &[u32]) -> Vec<u32> {
        let rows = |sig: &SignalId| base[sig.index()]..base[sig.index()] + self.widths[sig.index()];
        self.driven.iter().flat_map(rows).collect()
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

    fn sig(i: u32) -> SignalId {
        SignalId::from_raw(i)
    }

    /// Lane `lane`'s `(driven, value)` of `signal` in cycle `t`, read
    /// back from the records.
    fn read(p: &PackedStimulus, segment: usize, t: usize, signal: SignalId) -> (bool, u64) {
        let (group, lane) = (segment / 64, segment % 64);
        let record = p.record(group, t).expect("cycle is recorded");
        let row = p.row_of.get(signal.index()).copied().unwrap_or(NO_ROW);
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
        // Signal 0 learns 1 bit and signal 1 three; 2 is never named.
        let mut p = PackedStimulus::default();
        let holds = [
            vec![(sig(1), Bv::new(5, 3))],
            vec![(sig(0), Bv::one_bit())],
            vec![(sig(1), Bv::new(1, 3)), (sig(1), Bv::new(6, 3))],
        ];
        assert!(!p.push(&holds), "signal 1 named twice");
        assert_eq!(read(&p, 0, 0, sig(1)), (true, 5));
        assert_eq!(read(&p, 0, 0, sig(0)), (false, 0), "not named in cycle 0");
        assert_eq!(read(&p, 0, 1, sig(0)), (true, 1));
        assert_eq!(read(&p, 0, 1, sig(1)), (false, 0), "held, not re-driven");
        assert_eq!(read(&p, 0, 2, sig(1)), (true, 6), "named twice: last wins");
        assert_eq!(read(&p, 0, 2, sig(2)), (false, 0));
        assert_eq!(p.rows, 4, "signal 2 has no rows");
        // Values are cut to the row width, like `set_input`.
        let cut = [vec![(sig(0), Bv::new(0b10, 2)), (sig(1), Bv::new(1, 1))]];
        assert!(!p.push(&cut), "namings at other widths");
        assert_eq!(read(&p, 1, 0, sig(0)), (true, 0));
        assert_eq!(read(&p, 1, 0, sig(1)), (true, 1), "zero-extended");
        assert_eq!(p.record(0, 0).unwrap()[0], 0b11, "both lanes active");
        assert_eq!(p.record(0, 1).unwrap()[0], 0b01, "lane 1 has ended");
        assert!(p.record(0, 3).is_none() && p.record(1, 0).is_none());
        // Row order, each signal once, at its width: read back as is.
        let regular = [
            vec![(sig(1), Bv::new(2, 3)), (sig(0), Bv::one_bit())],
            vec![],
        ];
        assert!(p.push(&regular));
        assert_eq!(p.decode(2), regular);
        assert!(!p.push(&[vec![(sig(0), Bv::one_bit()), (sig(1), Bv::new(2, 3))]]));
        assert!(p.fits(&[1, 3, 8]) && !p.fits(&[1, 4, 8]) && !p.fits(&[1]));
    }

    #[test]
    fn a_late_signal_widens_only_the_tail_group() {
        let mut p = PackedStimulus::default();
        for s in 0..64u64 {
            assert!(p.push(&vec![vec![(sig(0), Bv::new(s & 1, 1))]; 2]));
        }
        // Lane 0 of group 1 runs three cycles before lane 1 names a
        // new signal in its second: the records already written move.
        p.push(&vec![vec![(sig(0), Bv::one_bit())]; 3]);
        p.push(&[vec![], vec![(sig(1), Bv::new(2, 2))]]);
        assert_eq!((p.groups[0].rows, p.groups[1].rows), (1, 3));
        assert_eq!((p.groups[0].cycles, p.groups[1].cycles), (2, 3));
        assert_eq!(p.lens()[63..], [2, 3, 2]);
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
        assert_eq!(p.decode(64), vec![vec![(sig(0), Bv::one_bit())]; 3]);
        assert_eq!(p.decode(65), [vec![], vec![(sig(1), Bv::new(2, 2))]]);
        assert_eq!(p.arena_rows(&[10, 20]), [10, 20, 21]);
    }

    #[test]
    fn appending_equals_packing_afresh() {
        let segments: Vec<Vec<InputVector>> = (0..150u64)
            .map(|s| {
                (0..s % 7)
                    .map(|t| {
                        let mut v = vec![(sig(0), Bv::new(s ^ t, 1))];
                        if (s + t) % 3 == 0 {
                            v.push((sig(1 + (s % 2) as u32), Bv::new(s + t, 4)));
                        }
                        v
                    })
                    .collect()
            })
            .collect();
        let mut whole = PackedStimulus::default();
        for segment in &segments {
            assert!(whole.push(segment));
        }
        for cut in [0, 1, 63, 64, 65, 128, 149] {
            let mut grown = PackedStimulus::default();
            for segment in &segments[..cut] {
                grown.push(segment);
            }
            let early = grown.clone();
            for segment in &segments[cut..] {
                grown.push(segment);
            }
            assert_eq!(grown, whole, "cut at {cut}");
            assert_eq!(early.segments(), cut, "a clone does not follow");
        }
        assert_eq!((whole.segments(), whole.groups.len()), (150, 3));
        for (s, segment) in segments.iter().enumerate() {
            assert_eq!(&whole.decode(s), segment, "segment {s}");
        }
        assert!(whole.fits(&[1, 4, 4]) && !whole.fits(&[1, 4, 3]));
    }
}
