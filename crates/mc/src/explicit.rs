//! Explicit-state reachability model checking.
//!
//! For the paper's benchmark-scale designs (a handful of state bits,
//! narrow input vectors) explicit enumeration is *exact*: it computes the
//! reachable state set from reset and checks every property window from
//! every reachable state, so — unlike k-induction — it never answers
//! `Unknown` and never reports violations from unreachable states.
//! The reachable set is computed once per design and shared across all
//! assertion checks of a refinement run. It decides every
//! [`crate::WindowProperty`] — a single-consequent implication or a
//! temporal window over several consequents — through one evaluator,
//! on the property's violation: a conjunction of *must* literals (the
//! antecedent, and under [`ConsequentKind::Any`] every inverted
//! consequent — a single one included, which is always `Any`) plus,
//! under [`ConsequentKind::All`], one disjunction of *fail* literals
//! (the inverted consequents, of which one has to hold).
//!
//! ## Tables and live sets
//!
//! A refinement run decides tens of thousands of properties against one
//! reachable set, so everything about the design is tabulated once and a
//! check is set algebra over the tables. A *pair* is one
//! `(state, input word)`; pairs are numbered `flat = state index ·
//! 2^input_bits + input word`, so bit sets over pairs are plain `u64`
//! words. The [`ReachableStates`] keeps, lazily:
//!
//! * a **successor table** `flat → next state index` (every successor of
//!   a reachable state is reachable, so the index space is closed); and
//! * one **observation bitset** per AIG node a property has mentioned:
//!   the node's value at every pair. A literal's complement is applied
//!   where the bitset is used, so `x` and `!x` share one slot; mining
//!   features are fixed per design, so after the first few checks every
//!   slot a property needs is filled. Slots are `OnceLock`s — shard
//!   workers sharing one `Arc<ReachableStates>` read them lock-free.
//!
//! All three builds (reachability, successors, observations) evaluate
//! the AIG **64 pairs at a time**: one pass over the node table per flat
//! word, bit `j` of every node word being the node's value at pair
//! `64w + j`. Input bit `i < 6` is a fixed lane pattern, higher input
//! bits are constant across the word, and each state's latch bits fill
//! the lanes the state owns. The node words *are* the observation
//! bitset words; the latch-next words, read lane by lane, are the
//! successors.
//!
//! A property with window depth `d` is then decided backwards. For
//! offset `k = d … 0`, `done_k` is the set of pairs at which every must
//! literal of offset `k` holds and (below `d`) whose successor is in
//! `live_done_{k+1}`, the states owning a `done_{k+1}` pair: the pairs
//! from which the rest of the conjunction can still be completed.
//! `done_k` is word-wise AND/ANDN of observation bitsets. Without a
//! disjunction that is the whole check: a state is in `live_done_0` iff
//! a violating window starts there, so an empty set at any offset is
//! `Proved` — `O((d + 1) · pairs / 64)` word operations plus one
//! successor lookup per surviving pair, where a walk over input
//! sequences is exponential in `d`.
//!
//! With a disjunction a window is in one of two conditions at every
//! cycle: a consequent *has already failed*, and only the conjunction is
//! left to complete (`done_k`, as above), or none has yet, and one still
//! must. The second is the subset `open_k ⊆ done_k` of pairs at which a
//! fail literal of offset `k` holds, or whose successor is in
//! `live_open_{k+1}` (nothing is open past `d`: `open_d` is `done_d` ∧
//! "a consequent fails here"). A violating window starts exactly at the
//! states of `live_open_0`; the property is `Proved` as soon as `done_k`
//! is empty, or `open_k` is and no fail literal sits below `k`. An
//! empty disjunction (`All` of no consequents) is never violated; an
//! empty conjunction of inverted consequents (`Any` of none) is
//! violated wherever the antecedent can be completed.
//!
//! **Traversal order.** The direct walk ([`explicit_check_direct`],
//! kept for designs over the table budget and as the reference the
//! tests compare against) is a depth-first search: start states in
//! discovery order, a LIFO stack per start state, children pushed for
//! input words `0, 1, …` — so popped *highest word first* — each
//! carrying whether a consequent has failed on the way to it, and a
//! leaf violating iff one has (or there is no disjunction). A child's
//! subtree holds a violating leaf exactly when its pair is in `done_k`
//! if a consequent has failed by then — at an earlier cycle or at this
//! very pair — and in `open_k` otherwise; for a pair at which one fails,
//! the two memberships coincide. So the first violation the search
//! reaches is: the lowest start state in `live_open_0` (`live_done_0`
//! without a disjunction), then at each offset the highest input word
//! whose pair is in `open_k` until a consequent has failed and in
//! `done_k` from the next cycle on. The live-set pass reports that
//! window, prefixed by the same BFS path from reset, and is
//! byte-identical to the search on verdicts *and* traces. That window
//! *defines* the canonical counterexample of every property the engine
//! decides.
//!
//! **Scratch.** A check's sets live in an [`ExplicitScratch`] its caller
//! keeps: the `done_k`/`open_k` sets back to back as `(depth + 1) ·
//! words` words each, the failing set, the two live-state vectors, the
//! property's literal nodes and their observation bitsets, and the
//! property's terms. A [`crate::CheckSession`] decides every explicit
//! query on its own scratch, so a warm session's check allocates
//! nothing on the tables; the scratch grows to the deepest window and
//! the widest design it has decided and is dropped with the session.
//! Every set is written before it is read, so nothing one check leaves
//! there reaches the next. [`explicit_check`] is the same check on a
//! fresh scratch.
//!
//! **Budgets.** Tables are built only while `states · 2^input_bits`
//! stays within 2^22 pairs (16 MiB of successors, 512 KiB per
//! observation bitset); beyond that every check is the direct walk.
//! [`ExplicitLimits::max_window_bits`] bounds the *walk's* cost, which
//! is exponential in the window, and is checked there only: the tabled
//! pass costs one sweep per cycle however wide the window and refuses
//! nothing.

use crate::aig::{Aig, AigLit, AigNode};
use crate::blast::Blasted;
use crate::error::McError;
use crate::prop::{BitAtom, CexTrace, CheckResult, ConsequentKind, WindowProperty};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Budgets for explicit exploration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExplicitLimits {
    /// Maximum number of state bits (states are packed into a `u64`).
    pub max_state_bits: u32,
    /// Maximum number of free input bits (each state fans out into
    /// `2^input_bits` successors).
    pub max_input_bits: u32,
    /// Maximum number of reachable states to enumerate.
    pub max_states: usize,
    /// Maximum `(depth + 1) * input_bits` for window enumeration — the
    /// direct walk's budget; designs within the table budget never
    /// enumerate windows.
    pub max_window_bits: u32,
}

impl Default for ExplicitLimits {
    fn default() -> Self {
        ExplicitLimits {
            max_state_bits: 24,
            max_input_bits: 12,
            max_states: 1 << 20,
            max_window_bits: 24,
        }
    }
}

/// The reachable state space of a blasted design, with BFS predecessors
/// for counterexample reconstruction and the lazily built successor and
/// observation tables (see the module docs).
#[derive(Debug)]
pub struct ReachableStates {
    /// Packed latch states, in BFS discovery order (index 0 = reset).
    pub states: Vec<u64>,
    /// For each state (by discovery index): the predecessor state index
    /// and the input word that reached it. `None` for the reset state.
    pub parent: Vec<Option<(usize, u64)>>,
    /// Packed state word → discovery index (kept from exploration so
    /// the successor table can be built without re-hashing from
    /// scratch). Emptied when the design is over the table budget —
    /// the table can never be built there, and the map would otherwise
    /// be tens of MB of dead weight on near-limit designs.
    index: HashMap<u64, usize>,
    input_bits: u32,
    state_bits: u32,
    tables: Tables,
}

impl Clone for ReachableStates {
    /// Clones the state set; the tables start empty in the clone (they
    /// are rebuilt on demand and never affect results).
    fn clone(&self) -> Self {
        ReachableStates {
            states: self.states.clone(),
            parent: self.parent.clone(),
            index: self.index.clone(),
            input_bits: self.input_bits,
            state_bits: self.state_bits,
            tables: Tables::new(self.tables.obs.len()),
        }
    }
}

/// Counters describing the explicit engine's per-design tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExplicitCacheStats {
    /// Whether the design fits the table budget at all.
    pub enabled: bool,
    /// `(state, input)` pairs covered by the successor table (0 until
    /// the first tabled check builds it).
    pub entries: usize,
    /// AIG nodes with a filled observation bitset.
    pub obs_nodes: usize,
    /// Passes over every pair performed (one to build the successor
    /// table, plus one per batch of new observation nodes).
    pub eval_passes: u64,
}

/// Largest `(state, input)` pair count the tables will materialize
/// (successor table = 4 bytes per pair, observation bitsets 1 bit per
/// pair per node — 16 MiB + 512 KiB/node at the cap).
const MAX_CACHE_PAIRS: u64 = 1 << 22;

/// The lazily built per-design tables. Write-once slots, so the shard
/// workers and racing threads that share a `ReachableStates` behind an
/// `Arc` read them without locking; two threads racing to fill the same
/// cold slot do bounded duplicate work and store identical contents.
#[derive(Debug)]
struct Tables {
    /// `flat → next state index`.
    successors: OnceLock<Vec<u32>>,
    /// Per AIG node: its value at every pair, bit `flat & 63` of word
    /// `flat >> 6`. Lanes of the last word past the pair count are
    /// unspecified.
    obs: Box<[OnceLock<Box<[u64]>>]>,
    eval_passes: AtomicU64,
}

impl Tables {
    fn new(nodes: usize) -> Self {
        Tables {
            successors: OnceLock::new(),
            obs: (0..nodes).map(|_| OnceLock::new()).collect(),
            eval_passes: AtomicU64::new(0),
        }
    }
}

#[inline]
fn bitset_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 == 1
}

/// The lowest set bit at or above `from`.
fn next_set_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut wi = from >> 6;
    let mut word = *bits.get(wi)? & (!0u64 << (from & 63));
    while word == 0 {
        wi += 1;
        word = *bits.get(wi)?;
    }
    Some((wi << 6) + word.trailing_zeros() as usize)
}

fn unpack(word: u64, bits: u32) -> Vec<bool> {
    (0..bits).map(|i| (word >> i) & 1 == 1).collect()
}

fn pack(bools: &[bool]) -> u64 {
    bools
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// All-ones when `bit` is 1, zero when it is 0.
#[inline]
fn broadcast(bit: u64) -> u64 {
    0u64.wrapping_sub(bit & 1)
}

/// Bit `j` of `LANE_BITS[i]` is bit `i` of `j`: the value of input bit
/// `i < 6` at lane `j` of any flat word (the pair count per state is a
/// power of two, so the low bits of `flat` are the low input bits).
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Evaluates the AIG at the 64 pairs of one flat word per pass.
struct LaneEval<'a> {
    aig: &'a Aig,
    input_bits: u32,
    /// Per node: bit `j` = the node's value at pair `64w + j`.
    vals: Vec<u64>,
    /// Per latch: its current-state bit across the lanes.
    latch: Vec<u64>,
}

impl<'a> LaneEval<'a> {
    fn new(aig: &'a Aig, input_bits: u32) -> Self {
        LaneEval {
            aig,
            input_bits,
            vals: vec![0; aig.len()],
            latch: vec![0; aig.latch_count()],
        }
    }

    /// Evaluates every node at pairs `64w .. 64w + 64` of `states`.
    /// Lanes whose state index is past `states` see an all-zero state.
    fn eval_word(&mut self, states: &[u64], w: usize) {
        let first = w << 6;
        // A state owns 2^input_bits consecutive lanes (the whole word
        // from 6 input bits up): broadcast its latch bits over them.
        let per_state = 1usize << self.input_bits.min(6);
        let group = !0u64 >> (64 - per_state);
        self.latch.fill(0);
        let owners = states.iter().skip(first >> self.input_bits);
        for (g, &state) in owners.take(64 / per_state).enumerate() {
            let lanes = group << (g * per_state);
            let mut rest = state;
            while rest != 0 {
                self.latch[rest.trailing_zeros() as usize] |= lanes;
                rest &= rest - 1;
            }
        }
        for (i, node) in self.aig.nodes().iter().enumerate() {
            self.vals[i] = match *node {
                AigNode::ConstFalse => 0,
                AigNode::Input { index } => match LANE_BITS.get(index as usize) {
                    Some(&lanes) => lanes,
                    None => broadcast((first >> index) as u64),
                },
                AigNode::Latch { index } => self.latch[index as usize],
                AigNode::And(a, b) => self.lit(a) & self.lit(b),
            };
        }
    }

    /// A literal's lane word after [`LaneEval::eval_word`].
    #[inline]
    fn lit(&self, lit: AigLit) -> u64 {
        self.vals[lit.node()] ^ broadcast(u64::from(lit.is_complemented()))
    }

    /// The packed successor state of the pair at `lane`.
    fn next_state(&self, lane: usize) -> u64 {
        let latches = self.aig.latches().iter().enumerate();
        latches.fold(0, |acc, (l, latch)| {
            acc | (self.lit(latch.next) >> lane & 1) << l
        })
    }
}

impl ReachableStates {
    /// Enumerates the reachable states of `blasted` from its reset state.
    ///
    /// # Errors
    ///
    /// Fails when the design exceeds the limits (too many state or input
    /// bits, or more reachable states than budgeted).
    pub fn explore(blasted: &Blasted, limits: &ExplicitLimits) -> Result<Self, McError> {
        let mut span = gm_trace::span("mc", "mc.explicit_reach");
        let aig = &blasted.aig;
        let state_bits = aig.latch_count() as u32;
        let input_bits = aig.input_count() as u32;
        if state_bits > limits.max_state_bits.min(64) {
            return Err(McError::StateTooLarge {
                bits: state_bits,
                limit: limits.max_state_bits.min(64),
            });
        }
        if input_bits > limits.max_input_bits.min(63) {
            return Err(McError::InputTooWide {
                bits: input_bits,
                limit: limits.max_input_bits.min(63),
            });
        }
        let init = pack(&aig.initial_state());
        let mut states = vec![init];
        let mut parent = vec![None];
        let mut index = HashMap::new();
        index.insert(init, 0usize);
        // Breadth-first in flat order: expand pair `flat` once its state
        // is known. A word is evaluated against the states known so
        // far; with fewer than 6 input bits it spans several states and
        // is re-evaluated when the frontier grows into it.
        let mut ev = LaneEval::new(aig, input_bits);
        let mut flat = 0usize;
        while flat >> input_bits < states.len() {
            let w = flat >> 6;
            ev.eval_word(&states, w);
            let end = ((w + 1) << 6).min(states.len() << input_bits);
            while flat < end {
                let next = ev.next_state(flat & 63);
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(next) {
                    if states.len() >= limits.max_states {
                        return Err(McError::StateSpaceExceeded {
                            limit: limits.max_states,
                        });
                    }
                    e.insert(states.len());
                    states.push(next);
                    let word = flat as u64 & ((1u64 << input_bits) - 1);
                    parent.push(Some((flat >> input_bits, word)));
                }
                flat += 1;
            }
        }
        span.arg("states", states.len());
        let mut reach = ReachableStates {
            states,
            parent,
            index,
            input_bits,
            state_bits,
            tables: Tables::new(aig.len()),
        };
        if !reach.cache_enabled() {
            // The successor table can never be built: drop the index
            // map rather than carrying it for the checker's lifetime.
            reach.index = HashMap::new();
        }
        Ok(reach)
    }

    /// `states · 2^input_bits`, saturating.
    fn pairs(&self) -> u64 {
        (self.states.len() as u64).saturating_mul(1u64 << self.input_bits)
    }

    /// Whether the design fits the table budget.
    fn cache_enabled(&self) -> bool {
        self.pairs() <= MAX_CACHE_PAIRS
    }

    /// Table counters (see [`ExplicitCacheStats`]).
    pub fn cache_stats(&self) -> ExplicitCacheStats {
        ExplicitCacheStats {
            enabled: self.cache_enabled(),
            entries: self.tables.successors.get().map_or(0, Vec::len),
            obs_nodes: self.tables.obs.iter().filter(|s| s.get().is_some()).count(),
            eval_passes: self.tables.eval_passes.load(Ordering::Relaxed),
        }
    }

    /// Approximate resident size: the state set, its BFS parents and
    /// index map, and every table built so far. Cache-accounting input
    /// for services that park a checker between runs.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let per_state = size_of::<u64>() + size_of::<Option<(usize, u64)>>();
        let successors = self
            .tables
            .successors
            .get()
            .map_or(0, |t| size_of_val(&t[..]));
        let observations: usize = (self.tables.obs.iter())
            .map(|slot| size_of_val(slot) + slot.get().map_or(0, |bits| size_of_val(&bits[..])))
            .sum();
        self.states.len() * per_state
            + self.index.capacity() * (size_of::<(u64, usize)>() + 1)
            + successors
            + observations
    }

    /// Counts one table-building pass over every pair and opens its span.
    fn begin_pass(&self, nodes: usize) -> gm_trace::SpanGuard {
        self.tables.eval_passes.fetch_add(1, Ordering::Relaxed);
        let mut span = gm_trace::span("mc", "mc.explicit_tables");
        span.arg("pairs", self.pairs());
        span.arg("literals", nodes);
        span
    }

    /// The lazily built successor table: one pass over every pair on
    /// first use, lookups forever after.
    fn successors(&self, aig: &Aig) -> &[u32] {
        self.tables.successors.get_or_init(|| {
            let _span = self.begin_pass(0);
            let pairs = self.pairs() as usize;
            let mut ev = LaneEval::new(aig, self.input_bits);
            let mut table = Vec::with_capacity(pairs);
            for w in 0..pairs.div_ceil(64) {
                ev.eval_word(&self.states, w);
                for lane in 0..(pairs - (w << 6)).min(64) {
                    table.push(self.index[&ev.next_state(lane)] as u32);
                }
            }
            table
        })
    }

    /// Observation bitsets for AIG nodes `nodes`, in order, written over
    /// `out`. Nodes not yet tabled are filled by one shared pass over
    /// every pair — across a refinement run most calls find every slot
    /// filled and evaluate nothing.
    fn observations<'r>(&'r self, aig: &Aig, nodes: &[usize], out: &mut Vec<&'r [u64]>) {
        let slots = &self.tables.obs;
        let mut missing: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&n| slots[n].get().is_none())
            .collect();
        if !missing.is_empty() {
            missing.sort_unstable();
            missing.dedup();
            let _span = self.begin_pass(missing.len());
            let words = (self.pairs() as usize).div_ceil(64);
            let mut fresh = vec![vec![0u64; words]; missing.len()];
            let mut ev = LaneEval::new(aig, self.input_bits);
            for w in 0..words {
                ev.eval_word(&self.states, w);
                for (bits, &n) in fresh.iter_mut().zip(&missing) {
                    bits[w] = ev.vals[n];
                }
            }
            for (n, bits) in missing.into_iter().zip(fresh) {
                // Losing a fill race is fine: the winner stored the
                // same words.
                let _ = slots[n].set(bits.into_boxed_slice());
            }
        }
        out.clear();
        out.extend(
            (nodes.iter()).map(|&n| &**slots[n].get().expect("observation slot filled above")),
        );
    }

    /// The number of reachable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no states were enumerated (impossible after `explore`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Writes over `live` the states owning a pair of `set`, as a bitset
    /// over state indices, and returns whether there is one (`live` is
    /// all zero when `set` is empty). One pass over the words of
    /// `set` from its first non-zero one: a state owns `2^input_bits`
    /// consecutive pairs, so from 6 input bits on it owns whole words
    /// and is live when one of them is non-zero; below that each word
    /// holds `64 >> input_bits` states, and a fold ORs every state's
    /// lane group onto its lowest lane.
    fn owners(&self, set: &[u64], live: &mut Vec<u64>) -> bool {
        live.clear();
        live.resize(self.states.len().div_ceil(64), 0);
        let Some(first) = set.iter().position(|&w| w != 0) else {
            return false;
        };
        let mut mark = |state: usize| live[state >> 6] |= 1u64 << (state & 63);
        if self.input_bits >= 6 {
            let per_state = 1usize << (self.input_bits - 6);
            let from = first / per_state;
            for (state, words) in set.chunks(per_state).enumerate().skip(from) {
                if words.iter().any(|&w| w != 0) {
                    mark(state);
                }
            }
        } else {
            let group = 1usize << self.input_bits;
            // Bit 0 of every lane group.
            let leads = (0..64).step_by(group).fold(0u64, |m, lane| m | 1 << lane);
            for (w, &word) in set.iter().enumerate().skip(first) {
                let mut folded = word;
                let mut shift = 1;
                while shift < group {
                    folded |= folded >> shift;
                    shift <<= 1;
                }
                let mut owned = folded & leads;
                while owned != 0 {
                    let lane = owned.trailing_zeros() as usize;
                    owned &= owned - 1;
                    mark((w << 6 | lane) >> self.input_bits);
                }
            }
        }
        true
    }

    /// The violated verdict for a window of input `words` starting at
    /// state `start`: the BFS path from reset, then the window. An
    /// input word is its cycle's row of the design's input layout
    /// as is — explored designs have at most 63 input bits, so a row
    /// is one word, or none without inputs — so the trace is the words
    /// in one buffer, its only allocation.
    fn violation(&self, blasted: &Blasted, start: usize, words: &[u64]) -> CheckResult {
        let layout = &blasted.input_layout;
        // The BFS hops into `start`, last one first.
        let hops = std::iter::successors(self.parent[start], |&(prev, _)| self.parent[prev]);
        let cycles = hops.clone().count() + words.len();
        let mut bits = Vec::new();
        if layout.words() == 1 {
            bits.reserve_exact(cycles);
            bits.extend(hops.map(|(_, w)| w));
            bits.reverse();
            bits.extend_from_slice(words);
        }
        CheckResult::Violated(CexTrace::new(layout.clone(), cycles, bits))
    }
}

/// A window's violation over AIG literals — the form both the tabled
/// pass and the direct walk evaluate. The window is violated when every
/// `must` literal is true at its offset and, if the property has a
/// disjunction of consequent failures, some `fail` literal is true at
/// its offset too.
#[derive(Debug, Default)]
struct Terms {
    depth: usize,
    /// `(offset, literal)`: the antecedent atoms, and under
    /// [`ConsequentKind::Any`] (every single-consequent property
    /// included) every inverted consequent.
    must: Vec<(usize, AigLit)>,
    /// Whether the violation has a disjunction: under
    /// [`ConsequentKind::All`] one of `fail` has to hold, so an empty
    /// list is never violated. Otherwise the violation is the plain
    /// conjunction.
    disjunctive: bool,
    /// Under [`ConsequentKind::All`], the inverted consequents; empty
    /// otherwise.
    fail: Vec<(usize, AigLit)>,
}

impl Terms {
    /// Writes `prop`'s terms over these.
    fn fill(&mut self, blasted: &Blasted, prop: &WindowProperty) {
        let lit = |a: &BitAtom, value: bool| {
            let lit = blasted.signal_bit(a.signal, a.bit);
            (a.offset as usize, if value { lit } else { !lit })
        };
        self.depth = prop.depth() as usize;
        self.must.clear();
        self.fail.clear();
        let antecedent = prop.antecedent.iter().map(|a| lit(a, a.value));
        self.must.extend(antecedent);
        let failures = prop.consequents.iter().map(|c| lit(c, !c.value));
        self.disjunctive = prop.kind == ConsequentKind::All;
        if self.disjunctive {
            self.fail.extend(failures);
        } else {
            self.must.extend(failures);
        }
    }
}

/// The buffers an explicit check works in (see the module docs'
/// *Scratch*): kept by a [`crate::CheckSession`] across its queries, or
/// made fresh for one check by [`explicit_check`] and by callers that
/// pass `&mut ExplicitScratch::default()` to [`ExplicitScratch::check`].
#[derive(Debug, Default)]
pub struct ExplicitScratch {
    terms: Terms,
    sets: LiveSets,
    /// The AIG node of every literal of `terms`, `must` then `fail`.
    nodes: Vec<usize>,
    /// Their observation bitsets, index for index. Empty between checks:
    /// the slices borrow the reachable set for one check only, and the
    /// list keeps just its allocation (see [`recycle`]).
    obs: Vec<&'static [u64]>,
}

/// The sets of the tabled pass, written before they are read.
#[derive(Debug, Default)]
struct LiveSets {
    /// `done_k` for `k = 0..=depth`, `words` words each, back to back.
    done: Vec<u64>,
    /// `open_k` likewise; used by disjunctive properties only.
    open: Vec<u64>,
    /// The pairs at which a consequent fails at the offset in hand.
    failing: Vec<u64>,
    /// The states owning a pair of `done_{k+1}` / `open_{k+1}`.
    live_done: Vec<u64>,
    live_open: Vec<u64>,
    /// The window's input words, one per cycle.
    window: Vec<u64>,
}

/// An empty list on `list`'s allocation, for slices of another lifetime.
/// The in-place `collect` keeps the allocation: both element types have
/// one layout.
fn recycle<'b>(mut list: Vec<&[u64]>) -> Vec<&'b [u64]> {
    list.clear();
    list.into_iter().map(|_| unreachable!("cleared")).collect()
}

impl ExplicitScratch {
    /// Checks `prop` against every reachable window of the design, in
    /// these buffers.
    ///
    /// Decided on the design's tables when the `(state, input)` space
    /// fits the budget and by the direct walk otherwise (see the module
    /// docs); the verdict and any counterexample trace are the same
    /// either way, and whatever the scratch decided before.
    ///
    /// # Errors
    ///
    /// Fails when the design is over the table budget and `(depth + 1) *
    /// input_bits` exceeds the walk's window budget.
    pub fn check(
        &mut self,
        blasted: &Blasted,
        reach: &ReachableStates,
        prop: &WindowProperty,
        limits: &ExplicitLimits,
    ) -> Result<CheckResult, McError> {
        if reach.cache_enabled() {
            self.terms.fill(blasted, prop);
            return Ok(explicit_check_cached(blasted, reach, self));
        }
        let cycles = prop.depth().saturating_add(1);
        let window_bits = cycles.saturating_mul(reach.input_bits);
        if window_bits > limits.max_window_bits.min(63) {
            return Err(McError::WindowTooWide {
                bits: window_bits,
                limit: limits.max_window_bits.min(63),
            });
        }
        self.terms.fill(blasted, prop);
        Ok(explicit_check_direct(blasted, reach, &self.terms))
    }

    /// Approximate resident size of the buffers: what they have grown to.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let LiveSets {
            done,
            open,
            failing,
            live_done,
            live_open,
            window,
        } = &self.sets;
        let words = [done, open, failing, live_done, live_open, window]
            .iter()
            .map(|v| v.capacity())
            .sum::<usize>();
        let literals = self.terms.must.capacity() + self.terms.fail.capacity();
        words * size_of::<u64>()
            + literals * size_of::<(usize, AigLit)>()
            + self.nodes.capacity() * size_of::<usize>()
            + self.obs.capacity() * size_of::<&[u64]>()
    }
}

/// Checks `prop` against every reachable window of the design: a
/// one-shot [`ExplicitScratch::check`] on a fresh scratch.
///
/// # Errors
///
/// As [`ExplicitScratch::check`].
pub fn explicit_check(
    blasted: &Blasted,
    reach: &ReachableStates,
    prop: &WindowProperty,
    limits: &ExplicitLimits,
) -> Result<CheckResult, McError> {
    ExplicitScratch::default().check(blasted, reach, prop, limits)
}

/// The words of the bitset of pairs at which `lit` is true, given its
/// node's observation bitset.
fn literal_words(bits: &[u64], lit: AigLit) -> impl Iterator<Item = u64> + '_ {
    let flip = broadcast(u64::from(lit.is_complemented()));
    bits.iter().map(move |&b| b ^ flip)
}

/// Removes from `set` every pair outside `exempt` whose successor is not
/// in `live`.
fn retain_live_successors(set: &mut [u64], exempt: Option<&[u64]>, succ: &[u32], live: &[u64]) {
    for (wi, word) in set.iter_mut().enumerate() {
        let mut rest = *word & !exempt.map_or(0, |e| e[wi]);
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if !bitset_get(live, succ[(wi << 6) + lane] as usize) {
                *word &= !(1u64 << lane);
            }
        }
    }
}

/// The tabled check of `scratch.terms`: a backward live-set pass over
/// the observation bitsets (see the module docs for the sets and the
/// traversal-order argument that makes its trace the direct walk's).
fn explicit_check_cached(
    blasted: &Blasted,
    reach: &ReachableStates,
    scratch: &mut ExplicitScratch,
) -> CheckResult {
    let ExplicitScratch {
        terms,
        sets,
        nodes,
        obs,
    } = scratch;
    nodes.clear();
    let literals = terms.must.iter().chain(&terms.fail);
    nodes.extend(literals.map(|&(_, lit)| lit.node()));
    let mut bitsets = recycle(std::mem::take(obs));
    reach.observations(&blasted.aig, nodes, &mut bitsets);
    let result = live_set_pass(blasted, reach, terms, &bitsets, sets);
    *obs = recycle(bitsets);
    result
}

/// The pass itself, given every literal's observation bitset (`must`
/// then `fail`, as in `terms`).
fn live_set_pass(
    blasted: &Blasted,
    reach: &ReachableStates,
    terms: &Terms,
    obs: &[&[u64]],
    sets: &mut LiveSets,
) -> CheckResult {
    let LiveSets {
        done,
        open,
        failing,
        live_done,
        live_open,
        window,
    } = sets;
    let depth = terms.depth;
    let combos = 1usize << reach.input_bits;
    let pairs = reach.states.len() * combos;
    let succ = reach.successors(&blasted.aig);
    let (must_obs, fail_obs) = obs.split_at(terms.must.len());
    // No consequent can fail below this offset.
    let first_fail = terms.fail.iter().map(|&(offset, _)| offset).min();

    let words = pairs.div_ceil(64);
    let tail = !0u64 >> ((64 - pairs % 64) % 64);
    // Per offset: the pairs a window that has already failed a
    // consequent (or has none to fail) can continue through, and the
    // pairs one that has not yet failed can.
    done.resize((depth + 1) * words, 0);
    if terms.disjunctive {
        open.resize((depth + 1) * words, 0);
        failing.resize(words, 0);
    }
    for k in (0..=depth).rev() {
        let set = &mut done[k * words..][..words];
        set.fill(!0);
        set[words - 1] &= tail;
        for (&(offset, lit), bits) in terms.must.iter().zip(must_obs) {
            if offset == k {
                for (word, b) in set.iter_mut().zip(literal_words(bits, lit)) {
                    *word &= b;
                }
            }
        }
        if k < depth {
            retain_live_successors(set, None, succ, live_done);
        }
        if !reach.owners(set, live_done) {
            return CheckResult::Proved;
        }
        if terms.disjunctive {
            // A pair of `done_k` stays open when a consequent fails at
            // it or its successor is still open.
            failing.fill(0);
            for (&(offset, lit), bits) in terms.fail.iter().zip(fail_obs) {
                if offset == k {
                    for (word, b) in failing.iter_mut().zip(literal_words(bits, lit)) {
                        *word |= b;
                    }
                }
            }
            let pending = &mut open[k * words..][..words];
            pending.copy_from_slice(set);
            if k < depth {
                retain_live_successors(pending, Some(failing.as_slice()), succ, live_open);
            } else {
                for (word, &f) in pending.iter_mut().zip(failing.iter()) {
                    *word &= f;
                }
            }
            // Without an open pair `live_open` is all zero: nothing is
            // open at `k` any more.
            if !reach.owners(pending, live_open) && first_fail.is_none_or(|first| first >= k) {
                return CheckResult::Proved;
            }
        }
    }
    // The window the depth-first walk reaches first.
    let mut failed = !terms.disjunctive;
    let starts = if failed { &*live_done } else { &*live_open };
    let start = next_set_bit(starts, 0).expect("the start set is non-empty here");
    let mut state = start;
    window.clear();
    for k in 0..=depth {
        let set = if failed { &*done } else { &*open };
        let set = &set[k * words..][..words];
        let base = state * combos;
        let word = (0..combos)
            .rev()
            .find(|&u| bitset_get(set, base + u))
            .expect("a live state owns an alive pair");
        window.push(word as u64);
        failed = failed
            || (terms.fail.iter().zip(fail_obs)).any(|(&(offset, lit), bits)| {
                offset == k && bitset_get(bits, base + word) != lit.is_complemented()
            });
        state = succ[base + word] as usize;
    }
    reach.violation(blasted, start, window)
}

/// The direct walk for designs over the table budget, and the reference
/// the tabled check is tested against: a depth-first search over input
/// sequences with antecedent pruning, every visited `(state, input)`
/// pair evaluating the AIG.
fn explicit_check_direct(blasted: &Blasted, reach: &ReachableStates, terms: &Terms) -> CheckResult {
    let aig = &blasted.aig;
    let combos = 1u64 << reach.input_bits;
    for (si, &packed) in reach.states.iter().enumerate() {
        // (next offset, latches there, inputs so far, whether a
        // consequent has failed — true from the start when the
        // violation has no disjunction)
        type WindowFrame = (usize, Vec<bool>, Vec<u64>, bool);
        let start = unpack(packed, reach.state_bits);
        let mut stack: Vec<WindowFrame> = vec![(0, start, Vec::new(), !terms.disjunctive)];
        while let Some((offset, latches, words, failed)) = stack.pop() {
            if offset > terms.depth {
                if failed {
                    return reach.violation(blasted, si, &words);
                }
                continue;
            }
            for u in 0..combos {
                let vals = aig.eval(&unpack(u, reach.input_bits), &latches);
                let value = |lit| aig.lit_value(&vals, lit);
                if (terms.must.iter()).any(|&(at, lit)| at == offset && !value(lit)) {
                    continue;
                }
                let fails = |&(at, lit): &(usize, AigLit)| at == offset && value(lit);
                let failed = failed || terms.fail.iter().any(fails);
                let mut w = words.clone();
                w.push(u);
                stack.push((offset + 1, aig.next_state(&vals), w, failed));
            }
        }
    }
    CheckResult::Proved
}

#[cfg(test)]
mod tests;
