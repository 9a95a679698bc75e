//! Simulation traces: per-cycle snapshots of every signal.
//!
//! A [`Trace`] is the data-mining substrate of the paper: GoldMine's data
//! generator simulates the design and hands traces to the decision-tree
//! miner. Rows are settled pre-edge snapshots, so a register's row-`t`
//! value is its state *during* cycle `t` (the paper's `gnt0(t)` column)
//! and its row-`t+1` value is the post-edge state (`gnt0(t+1)`).

use gm_rtl::{Bv, Module, SignalId};
use std::io::{self, Write};
use std::sync::Arc;

/// The signal table a trace's rows are read against. One is shared by
/// every trace of a batch replay, so a trace costs its rows alone.
#[derive(Debug, PartialEq)]
pub(crate) struct TraceShape {
    names: Vec<String>,
    widths: Vec<u32>,
}

impl TraceShape {
    pub(crate) fn for_module(module: &Module) -> Arc<Self> {
        Arc::new(TraceShape {
            names: module
                .signals()
                .iter()
                .map(|s| s.name().to_string())
                .collect(),
            widths: module.signals().iter().map(|s| s.width()).collect(),
        })
    }
}

/// A recorded simulation trace: one flat row-major arena, `signal_count`
/// words per cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    shape: Arc<TraceShape>,
    /// Recorded cycles (`rows.len() / signal_count`, kept so a module
    /// without signals still counts its cycles).
    len: usize,
    rows: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace shaped for `module`'s signal table.
    pub fn for_module(module: &Module) -> Self {
        Trace::with_shape(TraceShape::for_module(module), 0)
    }

    /// An empty trace over a shared signal table, with room for
    /// `cycles` rows.
    pub(crate) fn with_shape(shape: Arc<TraceShape>, cycles: usize) -> Self {
        let rows = Vec::with_capacity(cycles * shape.names.len());
        Trace {
            shape,
            len: 0,
            rows,
        }
    }

    /// Appends a snapshot row.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the trace's signal count.
    pub fn push_row(&mut self, values: &[Bv]) {
        assert_eq!(values.len(), self.signal_count(), "snapshot arity mismatch");
        self.rows.extend(values.iter().map(|v| v.bits()));
        self.len += 1;
    }

    /// Appends a pre-extracted raw row (one `u64` of bits per signal).
    /// The compiled executor uses this to skip `Bv` materialization.
    pub(crate) fn push_row_raw(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.signal_count(), "snapshot arity mismatch");
        self.rows.extend_from_slice(row);
        self.len += 1;
    }

    /// The number of recorded cycles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of signals per row.
    pub fn signal_count(&self) -> usize {
        self.shape.names.len()
    }

    /// The value of signal `sig` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `sig` is out of range.
    pub fn value(&self, cycle: usize, sig: SignalId) -> Bv {
        Bv::new(
            self.raw_row(cycle)[sig.index()],
            self.shape.widths[sig.index()],
        )
    }

    /// The value of a single bit of `sig` at `cycle`.
    pub fn bit(&self, cycle: usize, sig: SignalId, bit: u32) -> bool {
        self.value(cycle, sig).bit(bit)
    }

    /// The raw snapshot of `cycle`: one `u64` per signal, indexed by
    /// [`SignalId::index`], bit `i` of the word being bit `i` of the
    /// signal (only bits below the signal's width are meaningful).
    /// Bulk readers — the miner's window extraction — use this to pick
    /// many bits out of a cycle without building a [`Bv`] per probe.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    pub fn raw_row(&self, cycle: usize) -> &[u64] {
        assert!(cycle < self.len, "cycle {cycle} beyond the trace");
        let stride = self.signal_count();
        &self.rows[cycle * stride..(cycle + 1) * stride]
    }

    /// Signal names, indexed by [`SignalId::index`].
    pub fn names(&self) -> &[String] {
        &self.shape.names
    }

    /// Signal widths, indexed by [`SignalId::index`].
    pub fn widths(&self) -> &[u32] {
        &self.shape.widths
    }

    /// Appends all rows of `other` (same shape) to this trace.
    ///
    /// # Panics
    ///
    /// Panics if the traces have different signal tables.
    pub fn extend_from(&mut self, other: &Trace) {
        assert_eq!(self.names(), other.names(), "trace shape mismatch");
        self.rows.extend_from_slice(&other.rows);
        self.len += other.len;
    }

    /// Writes the trace as a minimal VCD (value change dump) document.
    ///
    /// All signals live under one scope named `top`; time advances by one
    /// `#` tick per cycle.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_vcd(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "$timescale 1ns $end")?;
        writeln!(w, "$scope module top $end")?;
        let (names, widths) = (self.names(), self.widths());
        let ids: Vec<String> = (0..names.len()).map(vcd_id).collect();
        for (i, name) in names.iter().enumerate() {
            writeln!(w, "$var wire {} {} {} $end", widths[i], ids[i], name)?;
        }
        writeln!(w, "$upscope $end")?;
        writeln!(w, "$enddefinitions $end")?;
        let mut last: Vec<Option<u64>> = vec![None; names.len()];
        for t in 0..self.len {
            writeln!(w, "#{t}")?;
            for (i, &v) in self.raw_row(t).iter().enumerate() {
                if last[i] != Some(v) {
                    if widths[i] == 1 {
                        writeln!(w, "{}{}", v & 1, ids[i])?;
                    } else {
                        writeln!(w, "b{:b} {}", v, ids[i])?;
                    }
                    last[i] = Some(v);
                }
            }
        }
        writeln!(w, "#{}", self.len)?;
        Ok(())
    }

    /// Renders the VCD document to a `String`.
    pub fn to_vcd_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_vcd(&mut buf)
            .expect("writing to Vec cannot fail");
        String::from_utf8(buf).expect("VCD output is ASCII")
    }
}

/// Generates a short printable VCD identifier for signal index `i`.
fn vcd_id(mut i: usize) -> String {
    // Base-94 over the printable ASCII range used by VCD identifiers.
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::ModuleBuilder;

    fn module() -> Module {
        let mut b = ModuleBuilder::new("t");
        let a = b.input("a", 1);
        let w = b.input("wide", 4);
        let y = b.output("y", 1);
        b.assign(
            y,
            gm_rtl::Expr::Signal(a).and(gm_rtl::Expr::Signal(w).index(0)),
        );
        b.finish()
    }

    #[test]
    fn records_and_reads_values() {
        let m = module();
        let mut t = Trace::for_module(&m);
        t.push_row(&[Bv::one_bit(), Bv::new(0b1010, 4), Bv::zero_bit()]);
        t.push_row(&[Bv::zero_bit(), Bv::new(0b0101, 4), Bv::one_bit()]);
        assert_eq!(t.len(), 2);
        let wide = m.require("wide").unwrap();
        assert_eq!(t.value(0, wide), Bv::new(0b1010, 4));
        assert!(t.bit(1, wide, 0));
        assert!(!t.bit(1, wide, 1));
        // The raw row is the same data, one word per signal.
        assert_eq!(t.raw_row(0), &[1, 0b1010, 0]);
        assert_eq!(t.raw_row(1)[wide.index()], 0b0101);
    }

    #[test]
    fn extend_concatenates_rows() {
        let m = module();
        let mut t1 = Trace::for_module(&m);
        t1.push_row(&[Bv::one_bit(), Bv::new(1, 4), Bv::zero_bit()]);
        let mut t2 = Trace::for_module(&m);
        t2.push_row(&[Bv::zero_bit(), Bv::new(2, 4), Bv::one_bit()]);
        t1.extend_from(&t2);
        assert_eq!(t1.len(), 2);
        let wide = m.require("wide").unwrap();
        assert_eq!(t1.value(1, wide), Bv::new(2, 4));
    }

    #[test]
    fn vcd_output_is_wellformed() {
        let m = module();
        let mut t = Trace::for_module(&m);
        t.push_row(&[Bv::one_bit(), Bv::new(0b1010, 4), Bv::zero_bit()]);
        t.push_row(&[Bv::one_bit(), Bv::new(0b1011, 4), Bv::zero_bit()]);
        let vcd = t.to_vcd_string();
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("b1010"));
        // Unchanged signals are not re-dumped at #1.
        let after_t1 = vcd.split("#1\n").nth(1).unwrap();
        assert!(
            !after_t1.contains("1!"),
            "signal `a` unchanged at #1: {vcd}"
        );
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let ids: Vec<String> = (0..500).map(vcd_id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        for id in ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }
}
