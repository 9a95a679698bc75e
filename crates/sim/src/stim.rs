//! Stimulus sources: the paper's *data generator* inputs.
//!
//! GoldMine seeds mining with either random input patterns or existing
//! directed/regression tests (§2.1 of the paper); counterexample traces
//! are later replayed as additional directed vectors.

use crate::suite::TestSuite;
use gm_rtl::{Bv, Module, SignalId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One cycle's worth of input assignments.
pub type InputVector = Vec<(SignalId, Bv)>;

/// A module's data inputs as one row of bits per cycle: every data
/// input in signal order, each LSB first, packed into `u64` words from
/// bit 0 of the first. It is the order the model checker numbers its
/// AIG inputs in, and so the form of its counterexample traces: a cycle
/// of them reads back here as the vector a [`RandomStimulus`] draw
/// names — every data input once, in signal order, at its width — and
/// [`TestSuite::push_bits`] packs a whole segment of them into the
/// lanes without building one.
///
/// # Examples
///
/// ```
/// use gm_rtl::Bv;
/// use gm_sim::InputLayout;
/// # let m = gm_rtl::parse_verilog(
/// #   "module m(input clk, input a, input [3:0] b, output y); assign y = a ^ b[0]; endmodule")?;
/// let layout = InputLayout::new(&m);
/// assert_eq!((layout.bits(), layout.words()), (5, 1));
/// // `a` = 1 in bit 0, `b` = 0b0110 in bits 1..5.
/// let (a, b) = (m.require("a")?, m.require("b")?);
/// assert_eq!(layout.vector(&[0b01101]), [(a, Bv::one_bit()), (b, Bv::new(6, 4))]);
/// # Ok::<(), gm_rtl::RtlError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputLayout {
    /// Each data input and its width, in signal order.
    signals: Vec<(SignalId, u32)>,
    /// The widths summed: bits per cycle.
    bits: usize,
}

impl InputLayout {
    /// The layout of `module`'s data inputs.
    pub fn new(module: &Module) -> Self {
        let signals: Vec<(SignalId, u32)> = (module.data_inputs().into_iter())
            .map(|s| (s, module.signal_width(s)))
            .collect();
        let bits = signals.iter().map(|&(_, w)| w as usize).sum();
        InputLayout { signals, bits }
    }

    /// Input bits per cycle.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// `u64` words per cycle.
    pub fn words(&self) -> usize {
        self.bits.div_ceil(64)
    }

    /// The vector of the cycle whose bits `cycle` holds, one data input
    /// at a time, read off the words as it is iterated.
    pub fn values<'a>(&'a self, cycle: &'a [u64]) -> impl Iterator<Item = (SignalId, Bv)> + 'a {
        let mut at = 0;
        self.signals.iter().map(move |&(signal, width)| {
            let (word, shift) = (at / 64, at % 64);
            let mut bits = cycle[word] >> shift;
            if shift + width as usize > 64 {
                bits |= cycle[word + 1] << (64 - shift);
            }
            at += width as usize;
            (signal, Bv::new(bits, width))
        })
    }

    /// [`InputLayout::values`], collected.
    pub fn vector(&self, cycle: &[u64]) -> InputVector {
        self.values(cycle).collect()
    }
}

/// A source of per-cycle input vectors.
pub trait Stimulus {
    /// Produces the input vector for the next cycle, or `None` when the
    /// source is exhausted.
    fn next_vector(&mut self) -> Option<InputVector>;
}

/// Uniform random stimulus over the module's data inputs.
///
/// The clock is implicit and the reset input is *not* driven here — the
/// suite runner handles the reset protocol. Reproducible via the seed.
///
/// # Examples
///
/// ```
/// use gm_sim::{RandomStimulus, Stimulus};
/// # let m = gm_rtl::parse_verilog(
/// #   "module m(input a, input b, output y); assign y = a & b; endmodule")?;
/// let mut stim = RandomStimulus::new(&m, 7, 100);
/// let mut n = 0;
/// while let Some(v) = stim.next_vector() {
///     assert_eq!(v.len(), 2);
///     n += 1;
/// }
/// assert_eq!(n, 100);
/// # Ok::<(), gm_rtl::RtlError>(())
/// ```
#[derive(Debug)]
pub struct RandomStimulus {
    inputs: Vec<(SignalId, u32)>,
    rng: SmallRng,
    remaining: u64,
}

impl RandomStimulus {
    /// Creates a random source producing `cycles` vectors over the data
    /// inputs of `module`, seeded with `seed`.
    pub fn new(module: &Module, seed: u64, cycles: u64) -> Self {
        let inputs = module
            .data_inputs()
            .into_iter()
            .map(|s| (s, module.signal_width(s)))
            .collect();
        RandomStimulus {
            inputs,
            rng: SmallRng::seed_from_u64(seed),
            remaining: cycles,
        }
    }

    /// Draws the next vector into `out` (cleared first), or returns
    /// `false` when the source is exhausted — [`Stimulus::next_vector`]
    /// without the allocation, for a caller that reuses one buffer
    /// ([`DirectedVariants`]).
    pub fn draw_into(&mut self, out: &mut InputVector) -> bool {
        let Some(draws) = self.draws() else {
            return false;
        };
        out.clear();
        out.extend(draws);
        true
    }

    /// The next vector, drawn as it is read, or `None` when the source
    /// is exhausted. This is the one definition of a random vector:
    /// [`Stimulus::next_vector`] collects it and
    /// [`RandomStimulus::draw_into`] writes it into a buffer.
    fn draws(&mut self) -> Option<impl Iterator<Item = (SignalId, Bv)> + '_> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rng = &mut self.rng;
        Some((self.inputs.iter()).map(move |&(s, w)| (s, Bv::new(rng.gen::<u64>(), w))))
    }

    /// Starts the stream over as [`RandomStimulus::new`] with `seed` and
    /// `cycles` would, keeping the input table.
    fn restart(&mut self, seed: u64, cycles: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.remaining = cycles;
    }
}

impl Stimulus for RandomStimulus {
    fn next_vector(&mut self) -> Option<InputVector> {
        self.draws().map(Iterator::collect)
    }
}

/// A fixed sequence of input vectors (a directed test).
#[derive(Clone, Debug, Default)]
pub struct DirectedStimulus {
    vectors: Vec<InputVector>,
    pos: usize,
}

impl DirectedStimulus {
    /// Creates a directed test from explicit vectors.
    pub fn new(vectors: Vec<InputVector>) -> Self {
        DirectedStimulus { vectors, pos: 0 }
    }

    /// Builds a directed test from named single-bit assignments:
    /// one inner slice of `(name, value)` pairs per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`gm_rtl::RtlError::UnknownSignal`] for unresolved names.
    pub fn from_named(module: &Module, cycles: &[&[(&str, u64)]]) -> gm_rtl::Result<Self> {
        let mut vectors = Vec::with_capacity(cycles.len());
        for cyc in cycles {
            let mut v = Vec::with_capacity(cyc.len());
            for (name, value) in *cyc {
                let sig = module.require(name)?;
                v.push((sig, Bv::new(*value, module.signal_width(sig))));
            }
            vectors.push(v);
        }
        Ok(DirectedStimulus { vectors, pos: 0 })
    }

    /// The underlying vectors.
    pub fn vectors(&self) -> &[InputVector] {
        &self.vectors
    }
}

impl Stimulus for DirectedStimulus {
    fn next_vector(&mut self) -> Option<InputVector> {
        let v = self.vectors.get(self.pos)?.clone();
        self.pos += 1;
        Some(v)
    }
}

/// Directed stimulus written straight into a suite's lanes.
///
/// Each variant replays a counterexample prefix verbatim — steering the
/// design back into the state the counterexample reached — then appends
/// random data-input vectors so the run explores outward from that
/// state instead of stopping where the witness did. Prefix cycles are
/// read from the suite that holds them and suffix cycles drawn, one at
/// a time, into a reused buffer that the suite packs through the same
/// core as [`TestSuite::push`]: a variant costs its lane words, not a
/// vector allocation per cycle.
///
/// # Examples
///
/// ```
/// use gm_sim::{DirectedVariants, RandomStimulus, TestSuite};
/// # let m = gm_rtl::parse_verilog(
/// #   "module m(input a, input b, output y); assign y = a & b; endmodule")?;
/// let mut source = TestSuite::new();
/// source.push("cex-1", gm_sim::collect_vectors(&mut RandomStimulus::new(&m, 1, 3)));
/// let mut variants = TestSuite::new();
/// let mut writer = DirectedVariants::new(&m, 8);
/// writer.push(&mut variants, Some((&source, 0)), 42, 4);
/// assert_eq!(variants.len(), 4);
/// assert_eq!(variants.segment(3).vectors[..3], source.segment(0).vectors[..]);
/// assert_eq!(variants.total_cycles(), 4 * (3 + 8));
/// # Ok::<(), gm_rtl::RtlError>(())
/// ```
#[derive(Debug)]
pub struct DirectedVariants {
    suffix: RandomStimulus,
    extra_cycles: u64,
    scratch: InputVector,
}

impl DirectedVariants {
    /// A writer appending `extra_cycles` random vectors over the data
    /// inputs of `module` after each prefix.
    pub fn new(module: &Module, extra_cycles: u64) -> Self {
        DirectedVariants {
            suffix: RandomStimulus::new(module, 0, 0),
            extra_cycles,
            scratch: Vec::new(),
        }
    }

    /// Appends `variants` unlabelled segments to `out`, each segment `s`
    /// of `source` for `prefix: Some((source, s))` (nothing for `None`:
    /// a probe outward from reset) followed by the random suffix.
    /// Variant suffixes are seeded from `seed` and the variant index
    /// only, so the result is reproducible across runs and backends.
    pub fn push(
        &mut self,
        out: &mut TestSuite,
        prefix: Option<(&TestSuite, usize)>,
        seed: u64,
        variants: usize,
    ) {
        let held = prefix.map_or(0, |(source, s)| source.packed().lens()[s]);
        for i in 0..variants as u64 {
            self.suffix
                .restart(variant_seed(seed, i), self.extra_cycles);
            let suffix = &mut self.suffix;
            let cycles = held + self.extra_cycles as usize;
            out.push_with("", cycles, &mut self.scratch, |t, vector| match prefix {
                Some((source, s)) if t < held => source.vector_into(s, t, vector),
                _ => {
                    suffix.draw_into(vector);
                }
            });
        }
    }
}

/// The suffix seed of variant `i`. The Weyl-sequence mix keeps variant
/// 0 distinct from a plain `RandomStimulus::new(module, seed, ..)`
/// stream.
fn variant_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Collects every vector a stimulus will produce.
pub fn collect_vectors(stim: &mut dyn Stimulus) -> Vec<InputVector> {
    let mut out = Vec::new();
    while let Some(v) = stim.next_vector() {
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;

    fn module() -> Module {
        parse_verilog(
            "module m(input clk, input rst, input a, input [3:0] b, output y);
               assign y = a & b[0];
             endmodule",
        )
        .unwrap()
    }

    #[test]
    fn random_stimulus_is_reproducible() {
        let m = module();
        let v1 = collect_vectors(&mut RandomStimulus::new(&m, 42, 50));
        let v2 = collect_vectors(&mut RandomStimulus::new(&m, 42, 50));
        let v3 = collect_vectors(&mut RandomStimulus::new(&m, 43, 50));
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
        assert_eq!(v1.len(), 50);
    }

    #[test]
    fn random_stimulus_skips_clock_and_reset() {
        let m = module();
        let v = collect_vectors(&mut RandomStimulus::new(&m, 1, 3));
        let clk = m.require("clk").unwrap();
        let rst = m.require("rst").unwrap();
        for vec in &v {
            assert!(vec.iter().all(|(s, _)| *s != clk && *s != rst));
            assert_eq!(vec.len(), 2);
        }
    }

    #[test]
    fn random_values_respect_width() {
        let m = module();
        let b = m.require("b").unwrap();
        for vec in collect_vectors(&mut RandomStimulus::new(&m, 5, 100)) {
            let (_, v) = vec.iter().find(|(s, _)| *s == b).unwrap();
            assert_eq!(v.width(), 4);
            assert!(v.bits() < 16);
        }
    }

    /// `variants` directed variants of `prefix` (none: from reset),
    /// decoded back out of the suite the writer wrote them into.
    fn written(
        m: &Module,
        prefix: Option<&[InputVector]>,
        seed: u64,
        extra: u64,
        variants: usize,
    ) -> Vec<Vec<InputVector>> {
        let mut source = TestSuite::new();
        source.push("cex", prefix.unwrap_or_default().to_vec());
        let mut out = TestSuite::new();
        let at = prefix.map(|_| (&source, 0));
        DirectedVariants::new(m, extra).push(&mut out, at, seed, variants);
        out.segments().map(|s| s.vectors).collect()
    }

    #[test]
    fn synthesized_variants_share_the_prefix_and_diverge_after() {
        let m = module();
        let a = m.require("a").unwrap();
        let prefix: Vec<InputVector> = vec![vec![(a, Bv::one_bit())], vec![(a, Bv::zero_bit())]];
        let out = written(&m, Some(&prefix), 11, 8, 3);
        assert_eq!(out.len(), 3);
        for v in &out {
            assert_eq!(v.len(), prefix.len() + 8);
            assert_eq!(&v[..prefix.len()], &prefix[..]);
        }
        assert_ne!(out[0][2..], out[1][2..], "variant suffixes must differ");
        // Deterministic: same arguments, same vectors.
        assert_eq!(out, written(&m, Some(&prefix), 11, 8, 3));
        assert_ne!(out, written(&m, Some(&prefix), 12, 8, 3));
        // No prefix: the suffix alone, from reset.
        let probes = written(&m, None, 11, 8, 3);
        for (probe, v) in probes.iter().zip(&out) {
            assert_eq!(probe[..], v[2..]);
        }
    }

    #[test]
    fn the_writer_packs_what_push_packs() {
        let m = module();
        let (a, b) = (m.require("a").unwrap(), m.require("b").unwrap());
        // Regular prefixes, a partial one, an irregular one (b before
        // a: the suite keeps it verbatim) and an empty one.
        let mut source = TestSuite::new();
        for seed in 0..5 {
            source.push(
                "cex",
                collect_vectors(&mut RandomStimulus::new(&m, seed, seed)),
            );
        }
        source.push("partial", vec![vec![(b, Bv::new(3, 4))], vec![]]);
        source.push(
            "irregular",
            vec![vec![(b, Bv::new(9, 4)), (a, Bv::one_bit())]; 3],
        );
        source.push("empty", Vec::new());
        // Enough variants to cross a lane-group seam.
        let (extra, variants) = (6, 11);
        let mut written = TestSuite::new();
        let mut pushed = TestSuite::new();
        let mut writer = DirectedVariants::new(&m, extra);
        let prefixes = (0..source.len()).map(Some).chain([None]);
        for (pi, prefix) in prefixes.enumerate() {
            let seed = 100 + pi as u64;
            writer.push(&mut written, prefix.map(|s| (&source, s)), seed, variants);
            for i in 0..variants as u64 {
                let mut vectors = prefix.map_or_else(Vec::new, |s| source.segment(s).vectors);
                let stim = &mut RandomStimulus::new(&m, variant_seed(seed, i), extra);
                vectors.extend(collect_vectors(stim));
                pushed.push("", vectors);
            }
        }
        assert_eq!(written.len(), (source.len() + 1) * variants);
        assert_eq!(written.packed(), pushed.packed());
        assert_eq!(written, pushed);
        for (w, p) in written.segments().zip(pushed.segments()) {
            assert_eq!(w, p);
        }
    }

    #[test]
    fn directed_from_named() {
        let m = module();
        let d = DirectedStimulus::from_named(&m, &[&[("a", 1), ("b", 9)], &[("a", 0)]]).unwrap();
        assert_eq!(d.vectors().len(), 2);
        let a = m.require("a").unwrap();
        assert_eq!(d.vectors()[0][0], (a, Bv::one_bit()));
        assert!(DirectedStimulus::from_named(&m, &[&[("zz", 1)]]).is_err());
    }
}
