//! Random designs and properties for the crate's property tests: small
//! modules of chosen input and register counts, and bounded-window
//! properties over their signals, both drawn from a byte recipe so a
//! proptest case shrinks to a short byte string.

use crate::prop::{BitAtom, ConsequentKind, WindowProperty};
use gm_rtl::{Bv, Expr, Module, ModuleBuilder, SignalId};

/// A byte cursor over a proptest recipe, wrapping around.
pub(crate) struct Recipe<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Recipe<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Recipe { bytes, at: 0 }
    }

    pub(crate) fn next(&mut self) -> usize {
        let byte = self.bytes[self.at % self.bytes.len()];
        self.at += 1;
        usize::from(byte)
    }
}

/// Cases per property: `tier1` by default; CI's release job raises it
/// through proptest's `PROPTEST_CASES` variable, which an explicit
/// `ProptestConfig::with_cases` would otherwise override.
pub(crate) fn cases(tier1: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

/// `len` recipe bytes from a fixed generator, for the deterministic
/// companions of the proptest sweeps.
pub(crate) fn seeded_recipe(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// A random module with `inputs` one-bit inputs and `regs` one-bit
/// registers. Every register's next state and the output `mix` are
/// random and/or/xor chains over inputs and registers; `tied` is a
/// constant-0 output (its literal is the AIG's constant node). Returns
/// the module and the signals a property may observe.
pub(crate) fn random_module(
    inputs: usize,
    regs: usize,
    recipe: &mut Recipe,
) -> (Module, Vec<SignalId>) {
    let mut b = ModuleBuilder::new("rand");
    if regs > 0 {
        b.clock("clk");
    }
    let mut sigs: Vec<SignalId> = (0..inputs).map(|i| b.input(&format!("i{i}"), 1)).collect();
    let qs: Vec<SignalId> = (0..regs)
        .map(|r| b.output_reg(&format!("q{r}"), 1, Bv::from_bool(recipe.next() & 1 == 1)))
        .collect();
    sigs.extend(&qs);
    let leaves = sigs.clone();
    let chain = |recipe: &mut Recipe| -> Expr {
        if leaves.is_empty() {
            return Expr::zero();
        }
        let leaf = |recipe: &mut Recipe| Expr::Signal(leaves[recipe.next() % leaves.len()]);
        let mut acc = leaf(recipe);
        for _ in 0..recipe.next() % 4 {
            let rhs = leaf(recipe);
            acc = match recipe.next() % 4 {
                0 => acc.and(rhs),
                1 => acc.or(rhs),
                2 => acc.xor(rhs),
                _ => acc.not().or(rhs),
            };
        }
        acc
    };
    let nexts: Vec<Expr> = qs.iter().map(|_| chain(recipe)).collect();
    let mix = b.output("mix", 1);
    b.assign(mix, chain(recipe));
    let tied = b.output("tied", 1);
    b.assign(tied, Expr::zero());
    if regs > 0 {
        b.always_seq(|p| {
            for (&q, next) in qs.iter().zip(nexts) {
                p.assign(q, next);
            }
        });
    }
    sigs.extend([mix, tied]);
    (b.finish(), sigs)
}

/// A random property of window depth exactly `depth`: up to three
/// antecedent atoms at any offset, sometimes one of them repeated or
/// contradicted, and either the consequent or one more antecedent atom
/// at the last cycle — so the consequent may sit below the depth.
pub(crate) fn random_property(
    sigs: &[SignalId],
    depth: u32,
    recipe: &mut Recipe,
) -> WindowProperty {
    let atom_at = |offset: u32, recipe: &mut Recipe| {
        let sig = sigs[recipe.next() % sigs.len()];
        BitAtom::new(sig, 0, offset, recipe.next() & 1 == 1)
    };
    let atom = |recipe: &mut Recipe| atom_at(recipe.next() as u32 % (depth + 1), recipe);
    let mut antecedent: Vec<BitAtom> = (0..recipe.next() % 4).map(|_| atom(recipe)).collect();
    if let Some(&first) = antecedent.first() {
        match recipe.next() % 4 {
            0 => antecedent.push(first),
            1 => antecedent.push(BitAtom {
                value: !first.value,
                ..first
            }),
            _ => {}
        }
    }
    let consequent = if recipe.next() & 1 == 1 {
        antecedent.push(atom_at(depth, recipe));
        atom(recipe)
    } else {
        atom_at(depth, recipe)
    };
    WindowProperty::implication(antecedent, consequent)
}

/// A random multi-consequent temporal property of window depth exactly
/// `depth`: [`random_property`]'s antecedent and consequent, one to two
/// more consequent atoms at any offset, and either combination kind.
pub(crate) fn random_temporal_property(
    sigs: &[SignalId],
    depth: u32,
    recipe: &mut Recipe,
) -> WindowProperty {
    let window = random_property(sigs, depth, recipe);
    let mut consequents = vec![window.consequents[0]];
    for _ in 0..1 + recipe.next() % 2 {
        let sig = sigs[recipe.next() % sigs.len()];
        let offset = recipe.next() as u32 % (depth + 1);
        consequents.push(BitAtom::new(sig, 0, offset, recipe.next() & 1 == 1));
    }
    WindowProperty {
        antecedent: window.antecedent,
        consequents,
        kind: if recipe.next() & 1 == 1 {
            ConsequentKind::All
        } else {
            ConsequentKind::Any
        },
    }
}
