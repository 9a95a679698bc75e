//! Explicit-state reachability model checking.
//!
//! For the paper's benchmark-scale designs (a handful of state bits,
//! narrow input vectors) explicit enumeration is *exact*: it computes the
//! reachable state set from reset and checks every property window from
//! every reachable state, so — unlike k-induction — it never answers
//! `Unknown` and never reports violations from unreachable states.
//! The reachable set is computed once per design and shared across all
//! assertion checks of a refinement run.
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
//! offset `k = d … 0`, `alive_k` is the set of pairs at which every
//! antecedent atom of offset `k` holds, the consequent *fails* if it
//! sits at `k`, and (below `d`) whose successor is in `live_{k+1}`;
//! `live_k` is the set of states owning an alive pair. `alive_k` is
//! word-wise AND/ANDN of observation bitsets. A state is in `live_0`
//! iff a violating window starts there, so an empty live set at any
//! offset is `Proved` — `O((d + 1) · pairs / 64)` word operations plus
//! one successor lookup per surviving pair, where a walk over input
//! sequences is exponential in `d`.
//!
//! **Traversal order.** The direct walk ([`explicit_check_direct`],
//! kept for designs over the table budget and as the reference the
//! tests compare against) is a depth-first search: start states in
//! discovery order, a LIFO stack per start state, children pushed for
//! input words `0, 1, …` — so popped *highest word first*. A child's
//! subtree holds a violating leaf exactly when its pair is alive, so
//! the first violation the search reaches is: the lowest start state in
//! `live_0`, then at each offset the highest input word whose pair is
//! in `alive_k`. The live-set pass reports that window, prefixed by the
//! same BFS path from reset, and is byte-identical to the search on
//! verdicts *and* traces.
//!
//! **Budgets.** Tables are built only while `states · 2^input_bits`
//! stays within 2^22 pairs (16 MiB of successors, 512 KiB per
//! observation bitset); beyond that every check is the direct walk.
//! [`ExplicitLimits::max_window_bits`] bounded the *walk's* cost and no
//! longer bounds the tabled path's, but it still routes: a window over
//! the limit is refused here and `Backend::Auto` sends it to the SAT
//! engines, whose counterexamples differ from the explicit ones.
//! Keeping the routing keeps every verdict source — and so every trace
//! — where it was.

use crate::aig::{Aig, AigLit, AigNode};
use crate::blast::Blasted;
use crate::error::McError;
use crate::prop::{assemble_input_vector, BitAtom, CexTrace, CheckResult, WindowProperty};
use gm_rtl::Module;
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
    /// Maximum `(depth + 1) * input_bits` for window enumeration.
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

    /// Observation bitsets for AIG nodes `nodes`, in order. Nodes not
    /// yet tabled are filled by one shared pass over every pair —
    /// across a refinement run most calls find every slot filled and
    /// evaluate nothing.
    fn observations(&self, aig: &Aig, nodes: &[usize]) -> Vec<&[u64]> {
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
        nodes
            .iter()
            .map(|&n| &**slots[n].get().expect("observation slot filled above"))
            .collect()
    }

    /// The number of reachable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no states were enumerated (impossible after `explore`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Reconstructs the input sequence leading from reset to the state at
    /// `state_index`.
    fn path_to(&self, state_index: usize) -> Vec<u64> {
        let mut rev = Vec::new();
        let mut cur = state_index;
        while let Some((prev, word)) = self.parent[cur] {
            rev.push(word);
            cur = prev;
        }
        rev.reverse();
        rev
    }

    /// The violated verdict for a window of input `words` starting at
    /// state `start`: the BFS path from reset, then the window.
    fn violation(
        &self,
        module: &Module,
        blasted: &Blasted,
        start: usize,
        words: &[u64],
    ) -> CheckResult {
        let inputs = self
            .path_to(start)
            .iter()
            .chain(words)
            .map(|&w| assemble_input_vector(module, blasted, |i| (w >> i) & 1 == 1))
            .collect();
        CheckResult::Violated(CexTrace { inputs })
    }
}

/// Checks `prop` against every reachable window of the design.
///
/// Decided on the design's tables when the `(state, input)` space fits
/// the budget and by the direct walk otherwise (see the module docs);
/// the verdict and any counterexample trace are the same either way.
///
/// # Errors
///
/// Fails when `(depth + 1) * input_bits` exceeds the window budget.
pub fn explicit_check(
    module: &Module,
    blasted: &Blasted,
    reach: &ReachableStates,
    prop: &WindowProperty,
    limits: &ExplicitLimits,
) -> Result<CheckResult, McError> {
    let depth = prop.depth();
    let window_bits = (depth + 1) * reach.input_bits;
    if window_bits > limits.max_window_bits.min(63) {
        return Err(McError::WindowTooWide {
            bits: window_bits,
            limit: limits.max_window_bits.min(63),
        });
    }
    if reach.cache_enabled() {
        Ok(explicit_check_cached(module, blasted, reach, prop))
    } else {
        explicit_check_direct(module, blasted, reach, prop)
    }
}

/// The tabled check: a backward live-set pass over the observation
/// bitsets (see the module docs for the sets and the traversal-order
/// argument that makes its trace the direct walk's).
fn explicit_check_cached(
    module: &Module,
    blasted: &Blasted,
    reach: &ReachableStates,
    prop: &WindowProperty,
) -> CheckResult {
    let aig = &blasted.aig;
    let depth = prop.depth() as usize;
    let combos = 1usize << reach.input_bits;
    let pairs = reach.states.len() * combos;
    let succ = reach.successors(aig);
    // Every atom as (offset, node, value the node must take); the
    // consequent inverted, because a violating window fails it.
    let atom = |a: &BitAtom, value: bool| {
        let lit = blasted.signal_bit(a.signal, a.bit);
        let want = value != lit.is_complemented();
        (a.offset as usize, lit.node(), want)
    };
    let antecedent = prop.antecedent.iter().map(|a| atom(a, a.value));
    let consequent = atom(&prop.consequent, !prop.consequent.value);
    let atoms: Vec<(usize, usize, bool)> = antecedent.chain([consequent]).collect();
    let nodes: Vec<usize> = atoms.iter().map(|&(_, node, _)| node).collect();
    let obs = reach.observations(aig, &nodes);

    let tail = !0u64 >> ((64 - pairs % 64) % 64);
    let mut alive: Vec<Vec<u64>> = vec![Vec::new(); depth + 1];
    let mut live: Vec<u64> = Vec::new();
    for k in (0..=depth).rev() {
        let mut set = vec![!0u64; pairs.div_ceil(64)];
        *set.last_mut().expect("at least the reset state's pairs") &= tail;
        for (&(offset, _, want), bits) in atoms.iter().zip(&obs) {
            if offset == k {
                let flip = broadcast(u64::from(!want));
                for (word, &b) in set.iter_mut().zip(bits.iter()) {
                    *word &= b ^ flip;
                }
            }
        }
        if k < depth {
            for (wi, word) in set.iter_mut().enumerate() {
                let mut rest = *word;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if !bitset_get(&live, succ[(wi << 6) + lane] as usize) {
                        *word &= !(1u64 << lane);
                    }
                }
            }
        }
        let mut hit = next_set_bit(&set, 0);
        if hit.is_none() {
            return CheckResult::Proved;
        }
        // live_k: the states owning an alive pair.
        live = vec![0u64; reach.states.len().div_ceil(64)];
        while let Some(flat) = hit {
            let state = flat >> reach.input_bits;
            live[state >> 6] |= 1u64 << (state & 63);
            hit = next_set_bit(&set, (state + 1) << reach.input_bits);
        }
        alive[k] = set;
    }
    // The window the depth-first walk reaches first.
    let start = next_set_bit(&live, 0).expect("live_0 is non-empty here");
    let mut state = start;
    let mut words = Vec::with_capacity(depth + 1);
    for set in &alive {
        let base = state * combos;
        let word = (0..combos)
            .rev()
            .find(|&u| bitset_get(set, base + u))
            .expect("a live state owns an alive pair");
        words.push(word as u64);
        state = succ[base + word] as usize;
    }
    reach.violation(module, blasted, start, &words)
}

/// The direct walk for designs over the table budget, and the reference
/// the tabled check is tested against: a depth-first search over input
/// sequences with antecedent pruning, every visited `(state, input)`
/// pair evaluating the AIG.
fn explicit_check_direct(
    module: &Module,
    blasted: &Blasted,
    reach: &ReachableStates,
    prop: &WindowProperty,
) -> Result<CheckResult, McError> {
    let aig = &blasted.aig;
    let depth = prop.depth();
    // Group atoms by offset for incremental checking during the window walk.
    let mut ant_by_offset: Vec<Vec<&BitAtom>> = vec![Vec::new(); depth as usize + 1];
    for a in &prop.antecedent {
        ant_by_offset[a.offset as usize].push(a);
    }
    let combos = 1u64 << reach.input_bits;

    for (si, &packed) in reach.states.iter().enumerate() {
        let start_latches = unpack(packed, reach.state_bits);
        // Depth-first walk over input sequences with antecedent pruning.
        // (next_offset, latches_at_offset, inputs_so_far, consequent_value)
        type WindowFrame = (u32, Vec<bool>, Vec<u64>, Option<bool>);
        let mut stack: Vec<WindowFrame> = Vec::new();
        stack.push((0, start_latches.clone(), Vec::new(), None));
        while let Some((offset, latches, words, cons_seen)) = stack.pop() {
            if offset > depth {
                // All antecedent atoms held; check the consequent.
                let cons_val = cons_seen.expect("consequent evaluated in-window");
                if cons_val != prop.consequent.value {
                    return Ok(reach.violation(module, blasted, si, &words));
                }
                continue;
            }
            for u in 0..combos {
                let inputs = unpack(u, reach.input_bits);
                let vals = aig.eval(&inputs, &latches);
                // Antecedent atoms at this offset must hold.
                let ant_ok = ant_by_offset[offset as usize]
                    .iter()
                    .all(|a| aig.lit_value(&vals, blasted.signal_bit(a.signal, a.bit)) == a.value);
                if !ant_ok {
                    continue;
                }
                let mut cons = cons_seen;
                if prop.consequent.offset == offset {
                    cons = Some(aig.lit_value(
                        &vals,
                        blasted.signal_bit(prop.consequent.signal, prop.consequent.bit),
                    ));
                }
                let mut w = words.clone();
                w.push(u);
                stack.push((offset + 1, next_latches(aig, &vals), w, cons));
            }
        }
    }
    Ok(CheckResult::Proved)
}

fn next_latches(aig: &Aig, vals: &[bool]) -> Vec<bool> {
    aig.next_state(vals)
}

#[cfg(test)]
mod tests;
