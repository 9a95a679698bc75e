//! Stimulus and module generators shared by the gm_sim differential
//! suites (`compiled_agree`, `suite_store`, `open_points`), each of which
//! uses its own subset.
#![allow(dead_code)]

use gm_rtl::{BinaryOp, Bv, Expr, Module, ModuleBuilder, SignalId, UnaryOp};
use gm_sim::{collect_vectors, RandomStimulus, TestSuite};
use proptest::TestRng;

/// Every lane-block width the batch executor supports.
pub const BLOCKS: [usize; 4] = [1, 2, 4, 8];

/// The fewest segments whose replay at lane block `block` runs the
/// `block`-word executor: a replay narrows its block to the lane groups
/// its segments fill, so 1, 65, 129 and 257 for W = 1, 2, 4 and 8.
pub fn segments_to_fill(block: usize) -> usize {
    64 * (block / 2) + 1
}

/// `suite` followed by short random segments (0–2 cycles, segment `i`
/// of them seeded `seed + i`) up to [`segments_to_fill`]`(block)`, so a
/// replay at `block` runs a block of that width.
pub fn filled(module: &Module, suite: &TestSuite, block: usize, seed: u64) -> TestSuite {
    let short: Vec<u64> = (suite.len()..segments_to_fill(block))
        .map(|i| i as u64 % 3)
        .collect();
    let mut grown = suite.clone();
    for segment in random_suite(module, seed, &short).segments() {
        grown.push(segment.label, segment.vectors);
    }
    grown
}

/// A suite of random segments of the given `lengths` over the data
/// inputs of `module`, segment `i` seeded `base_seed + i`.
pub fn random_suite(module: &Module, base_seed: u64, lengths: &[u64]) -> TestSuite {
    let mut suite = TestSuite::new();
    for (i, &len) in lengths.iter().enumerate() {
        suite.push(
            format!("seg{i}"),
            collect_vectors(&mut RandomStimulus::new(module, base_seed + i as u64, len)),
        );
    }
    suite
}

/// Widths drawn for random signals: mixes the trivial, byte-ish,
/// non-power-of-two and full-word cases.
const WIDTHS: &[u32] = &[1, 2, 3, 4, 7, 8, 13, 16, 31, 32, 33, 64];

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Signals readable at this point, with widths.
    avail: Vec<(SignalId, u32)>,
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n as u128) as u64
    }

    fn width_of(&self, e: &Expr) -> u32 {
        let avail = self.avail.clone();
        e.width_in(&move |s: SignalId| {
            avail
                .iter()
                .find(|(id, _)| *id == s)
                .map(|(_, w)| *w)
                .expect("generated exprs only read declared signals")
        })
    }

    /// A random expression tree of bounded depth over the available
    /// signals, exercising every operator.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.below(6) == 0 {
            return if self.below(4) == 0 {
                let w = WIDTHS[self.below(WIDTHS.len() as u64) as usize];
                Expr::lit(self.rng.next_u64(), w)
            } else {
                let i = self.below(self.avail.len() as u64) as usize;
                Expr::Signal(self.avail[i].0)
            };
        }
        match self.below(12) {
            0 => {
                let ops = [
                    UnaryOp::Not,
                    UnaryOp::Neg,
                    UnaryOp::RedAnd,
                    UnaryOp::RedOr,
                    UnaryOp::RedXor,
                    UnaryOp::LogicNot,
                ];
                let op = ops[self.below(ops.len() as u64) as usize];
                Expr::unary(op, self.expr(depth - 1))
            }
            1..=6 => {
                let ops = [
                    BinaryOp::And,
                    BinaryOp::Or,
                    BinaryOp::Xor,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Eq,
                    BinaryOp::Ne,
                    BinaryOp::Lt,
                    BinaryOp::Le,
                    BinaryOp::Gt,
                    BinaryOp::Ge,
                    BinaryOp::Shl,
                    BinaryOp::Shr,
                    BinaryOp::LogicAnd,
                    BinaryOp::LogicOr,
                ];
                let op = ops[self.below(ops.len() as u64) as usize];
                let a = self.expr(depth - 1);
                let b = if matches!(op, BinaryOp::Shl | BinaryOp::Shr) && self.below(2) == 0 {
                    // Constant shift amounts, in and out of range.
                    Expr::lit(self.below(80), 7)
                } else {
                    self.expr(depth - 1)
                };
                Expr::binary(op, a, b)
            }
            7 => Expr::Mux {
                cond: Box::new(self.expr(depth - 1)),
                then_val: Box::new(self.expr(depth - 1)),
                else_val: Box::new(self.expr(depth - 1)),
            },
            8 => {
                let base = self.expr(depth - 1);
                let w = self.width_of(&base);
                let bit = self.below(u64::from(w)) as u32;
                base.index(bit)
            }
            9 => {
                let base = self.expr(depth - 1);
                let w = self.width_of(&base);
                let lo = self.below(u64::from(w)) as u32;
                let hi = lo + self.below(u64::from(w - lo)) as u32;
                base.slice(hi, lo)
            }
            10 => {
                // Concatenation bounded to 64 bits total.
                let a = self.expr(depth - 1);
                let wa = self.width_of(&a);
                if wa >= 63 {
                    a
                } else {
                    let room = 64 - wa;
                    let wb = 1 + self.below(u64::from(room.min(16))) as u32;
                    Expr::Concat(vec![a, Expr::lit(self.rng.next_u64(), wb)])
                }
            }
            _ => {
                let i = self.below(self.avail.len() as u64) as usize;
                Expr::Signal(self.avail[i].0)
            }
        }
    }
}

/// Builds a random but always-legal module: layered continuous assigns
/// (no comb loops by construction), one sequential process mixing
/// `if`/`case` (overlapping labels, optional `default`), a non-blocking
/// swap pair and a double-write register.
pub fn random_module(seed: u64) -> Module {
    let mut rng = TestRng::new(seed);
    let mut b = ModuleBuilder::new("fuzz");
    let _clk = b.clock("clk");
    let rst = b.reset("rst");
    let n_inputs = 2 + (rng.below(3) as usize);
    let mut avail: Vec<(SignalId, u32)> = Vec::new();
    for i in 0..n_inputs {
        let w = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
        avail.push((b.input(&format!("in{i}"), w), w));
    }

    // Combinational layer: each wire reads only earlier signals.
    let n_wires = 2 + (rng.below(3) as usize);
    for i in 0..n_wires {
        let expr = {
            let mut g = Gen {
                rng: &mut rng,
                avail: avail.clone(),
            };
            g.expr(3)
        };
        let w = {
            let g = Gen {
                rng: &mut rng,
                avail: avail.clone(),
            };
            g.width_of(&expr)
        };
        let wire = b.wire(&format!("w{i}"), w);
        b.assign(wire, expr);
        avail.push((wire, w));
    }

    // State registers.
    let wa = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
    let ra = b.reg("ra", wa, Bv::new(rng.next_u64(), wa));
    let rb = b.reg("rb", wa, Bv::new(rng.next_u64(), wa));
    let wc = WIDTHS[rng.below(WIDTHS.len() as u128) as usize];
    let rc = b.reg("rc", wc, Bv::zeros(wc));
    let state_avail = {
        let mut v = avail.clone();
        v.extend([(ra, wa), (rb, wa), (rc, wc)]);
        v
    };

    let cond = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        g.expr(2)
    };
    let (subj, subj_w) = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        let e = g.expr(2);
        let w = g.width_of(&e);
        (e, w)
    };
    let n_arms = 1 + rng.below(3) as usize;
    let with_default = rng.below(2) == 0;
    let arm_labels: Vec<Vec<Bv>> = (0..n_arms)
        .map(|_| {
            (0..1 + rng.below(2))
                .map(|_| {
                    // Draw labels from a small pool so arms overlap and
                    // some labels repeat across arms (first match wins).
                    let v = rng.below(4) as u64;
                    Bv::new(v, subj_w.clamp(1, 3))
                })
                .collect()
        })
        .collect();
    let mut exprs = {
        let mut g = Gen {
            rng: &mut rng,
            avail: state_avail.clone(),
        };
        let mut out = Vec::new();
        for _ in 0..(2 * n_arms + 8) {
            out.push(g.expr(2));
        }
        out
    };
    let mut next_expr = move || exprs.pop().expect("pre-generated pool is large enough");

    b.always_seq(|p| {
        p.if_else(
            Expr::Signal(rst),
            |t| {
                t.assign(ra, Expr::lit(1, 1));
                t.assign(rb, Expr::zero());
                t.assign(rc, Expr::zero());
            },
            |e| {
                // Non-blocking swap.
                e.assign(ra, Expr::Signal(rb));
                e.assign(rb, Expr::Signal(ra));
                // Double write under a branch: the later one must win.
                e.assign(rc, next_expr());
                e.if_(cond, |t| t.assign(rc, next_expr()));
                e.case(subj, |cb| {
                    for labels in &arm_labels {
                        cb.arm(labels, |a| a.assign(rc, next_expr()));
                    }
                    if with_default {
                        cb.default(|d| d.assign(rc, next_expr()));
                    }
                });
            },
        );
    });

    // Output over everything (kept total so elaboration always passes).
    let y = b.output("y", 1);
    let reduce = state_avail
        .iter()
        .map(|&(s, _)| Expr::unary(UnaryOp::RedXor, Expr::Signal(s)))
        .reduce(|a, b| a.xor(b))
        .expect("at least one signal");
    b.assign(y, reduce);
    b.finish()
}

/// A random suite whose vectors are *thinned*: each `(signal, value)`
/// pair survives with probability 2/3 (so in any cycle a lane drives
/// signals its neighbours leave alone, and some vectors are empty), one
/// vector in eight names a signal a second time with another value —
/// sometimes at another width — and one data input is named by nobody
/// before the middle of segment `late`, so its rows join the packed
/// form mid-suite, mid-group and mid-segment.
pub fn thinned_suite(module: &Module, seed: u64, lengths: &[u64], late: usize) -> TestSuite {
    let full = random_suite(module, seed, lengths);
    let rng = &mut TestRng::new(seed ^ 0x7415);
    let inputs = module.data_inputs();
    let late_sig = (!inputs.is_empty()).then(|| inputs[rng.below(inputs.len() as u128) as usize]);
    let mut suite = TestSuite::new();
    for (s, segment) in full.segments().enumerate() {
        let cycles = segment.vectors.len();
        let vectors = segment
            .vectors
            .iter()
            .enumerate()
            .map(|(t, vector)| {
                let mut thin: Vec<(SignalId, Bv)> = vector
                    .iter()
                    .filter(|_| rng.below(3) != 0)
                    .filter(|(sig, _)| {
                        Some(*sig) != late_sig || s > late || (s == late && t >= cycles / 2)
                    })
                    .copied()
                    .collect();
                if !thin.is_empty() && rng.below(8) == 0 {
                    let (sig, old) = thin[rng.below(thin.len() as u128) as usize];
                    let width = [old.width(), 1, 64][rng.below(3) as usize];
                    thin.push((sig, Bv::new(rng.next_u64(), width)));
                }
                thin
            })
            .collect();
        suite.push(segment.label, vectors);
    }
    suite
}
