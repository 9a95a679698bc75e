//! The incremental decision tree (the paper's §3, Figure 4).
//!
//! A variance-minimizing binary decision tree over boolean features. The
//! paper's two departures from a textbook tree are both here:
//!
//! * **100% confidence**: only error-0 leaves yield candidate assertions,
//!   and a split must *strictly* reduce the error sum — a single
//!   contradicting example discards a rule (§2.4);
//! * **incrementality** (Definition 6): when a counterexample row lands
//!   in a refuted leaf, the structure above the leaf is preserved and
//!   only the leaf re-splits, possibly after *extending* the feature
//!   search to state registers at the farthest-back offset (§6).
//!
//! Split scoring uses exact integer arithmetic (no float ties): for a
//! binary target, minimizing the summed squared error is equivalent to
//! maximizing `ones0²/count0 + ones1²/count1`.
//!
//! # How a fit runs
//!
//! The rows to split are copied once into a scratch *permutation* of
//! records `[id << 1 | target, feature words...]` ([`Scratch`]). Every
//! node owns a contiguous run of records; splitting a node partitions
//! its run stably in place (zero side first), so the children own the
//! two halves and nothing is allocated per node. A record of two words
//! (up to 64 features, as every benchmark workload's are) moves as one
//! fixed-width `[u64; 2]` copy, and the count pass below runs with the
//! stride a constant; wider records take a strided path. The split
//! search gets the `c1`/`o1` counts of *every* feature from one pass
//! over the node's run per feature word — a bit-sliced positional
//! popcount ([`Planes`]) over only as many planes as the node's row
//! count needs — rather than one walk over the rows per feature, and
//! decodes all 64 positions' counts at once, by transposing the planes
//! in 8×8 bit blocks. Only leaves keep row-id lists.
//!
//! A refinement run calls [`DecisionTree::add_rows`] once per absorbed
//! trace. A row is routed by a compact split table, one word per node
//! (the split feature and the zero child, whose sibling is the next
//! node), rather than by the nodes themselves, which only take the
//! row's counts. The tree keeps what a call works in across calls: its
//! touched leaves (a list, and one bit per node, all clear between
//! calls) and the re-split scratch's open-feature mask. A call whose
//! rows land in pure leaves allocates nothing, unless a leaf's row list
//! outgrows its capacity. A call that re-splits loads its leaves one
//! after another into the scratch's records, which are dropped when it
//! returns, like the initial [`DecisionTree::fit`]'s: kept across
//! calls, they only fragmented the heap (`closure_temporal`'s
//! `peak_rss_mb` read ~4% higher) and saved no measurable time.
//!
//! # The order contract
//!
//! Which tree comes out is pinned bit for bit (`tree/tests.rs` against
//! a scalar reference, `tests/fit_identity.rs` against goldens), because
//! node ids, leaf order and the partial tree left by an error all reach
//! the closure engine's outcome:
//!
//! * the score is the exact integer fraction above, compared by cross
//!   multiplication;
//! * among equal scores the lowest feature index wins (first strictly
//!   better over `0..active`);
//! * a split creates its zero child, then its one child, and recurses
//!   in that order, depth first;
//! * extension activation is *sticky*: once one node had to widen the
//!   search, every later node of the tree searches all features;
//! * on [`MineError::Contradictory`] the recursion stops at once: nodes
//!   created so far stay, the ones not yet visited stay unsplit leaves
//!   holding their rows.

use crate::bits::{bit, set_bits};
use crate::dataset::Dataset;
use crate::features::MiningSpec;
use std::borrow::Borrow;
use std::fmt;

/// Verification status of a leaf's candidate assertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafStatus {
    /// Candidate not yet (or unsuccessfully) checked.
    Open,
    /// Formally proved: a system invariant; never revisited.
    Proved,
}

/// A node of the tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Row indices (into the dataset) at this leaf, in arrival order;
    /// empty on a split.
    rows: Vec<u32>,
    /// Number of rows.
    count: usize,
    /// Number of rows with target = 1.
    ones: usize,
    /// Parent node and which side this node hangs off (`true` = the
    /// feature-is-1 side). `None` at the root.
    parent: Option<(usize, bool)>,
    kind: NodeKind,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf(LeafStatus),
    Split {
        feature: usize,
        zero: usize,
        one: usize,
    },
}

impl Node {
    /// The summed squared error is zero iff the node is pure.
    fn is_pure(&self) -> bool {
        self.ones == 0 || self.ones == self.count
    }

    /// The predicted target value (the mean, which is exact for pure
    /// nodes; an empty node predicts 0, the paper's zero-seed start).
    pub fn prediction(&self) -> bool {
        self.ones * 2 > self.count
    }

    /// Rows currently at this node.
    pub fn row_count(&self) -> usize {
        self.count
    }
}

/// Errors from tree construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MineError {
    /// Rows with identical candidate-feature values disagree on the
    /// target even after extending the search — the mining window is too
    /// short to explain the output.
    Contradictory {
        /// The node where the contradiction surfaced.
        node: usize,
    },
    /// New simulation data contradicted a leaf that formal verification
    /// proved — an internal soundness violation.
    ProvedLeafContradicted {
        /// The offending leaf.
        node: usize,
    },
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::Contradictory { node } => write!(
                f,
                "contradictory rows at node {node}: the mining window cannot explain the output"
            ),
            MineError::ProvedLeafContradicted { node } => {
                write!(f, "simulation contradicted proved leaf {node}")
            }
        }
    }
}

impl std::error::Error for MineError {}

/// The incremental decision tree for one output bit.
#[derive(Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// The split table [`DecisionTree::add_rows`] routes by: one word
    /// per node, 0 on a leaf and `feature << 32 | zero` on a split
    /// (`one` is `zero + 1`; a child is never node 0).
    route: Vec<u64>,
    /// Features `0..active` participate in splits; the rest are
    /// extension candidates.
    active: usize,
    initial_active: usize,
    total_features: usize,
    /// One bit per node: set on the *candidates*, the open leaves whose
    /// rows all agree. Kept current wherever a leaf is created, gets
    /// rows or is proved (see `sync_candidate`), so asking for the
    /// candidates never scans the nodes.
    candidates: Vec<u64>,
    /// Set bits in `candidates`.
    candidate_count: usize,
    /// Leaves not yet proved, pure or not.
    open_leaves: usize,
    /// What [`DecisionTree::add_rows`] works in (see the module docs).
    buffers: AddRowsBuffers,
}

impl fmt::Debug for DecisionTree {
    /// The tree, without the buffers its calls work in.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionTree")
            .field("nodes", &self.nodes)
            .field("active", &self.active)
            .field("initial_active", &self.initial_active)
            .field("total_features", &self.total_features)
            .field("candidates", &self.candidates)
            .field("candidate_count", &self.candidate_count)
            .field("open_leaves", &self.open_leaves)
            .finish()
    }
}

/// The buffers [`DecisionTree::add_rows`] keeps across calls. Not part
/// of the tree: a clone starts with empty ones.
#[derive(Default)]
struct AddRowsBuffers {
    /// The leaves the call's rows reached, in first-touch order.
    touched: Vec<usize>,
    /// The same, one bit per node; all clear between calls.
    is_touched: Vec<u64>,
    /// Where a touched leaf that turned impure is re-split; its
    /// records are empty between calls.
    scratch: Scratch,
}

impl Clone for AddRowsBuffers {
    fn clone(&self) -> Self {
        AddRowsBuffers::default()
    }
}

impl DecisionTree {
    /// Creates a tree with a single empty root leaf for `spec`.
    pub fn new(spec: &MiningSpec) -> Self {
        let mut tree = DecisionTree {
            nodes: vec![Node {
                rows: Vec::new(),
                count: 0,
                ones: 0,
                parent: None,
                kind: NodeKind::Leaf(LeafStatus::Open),
            }],
            route: vec![0],
            active: spec.initial_active,
            initial_active: spec.initial_active,
            total_features: spec.features.len(),
            candidates: Vec::new(),
            candidate_count: 0,
            open_leaves: 1,
            buffers: AddRowsBuffers::default(),
        };
        // The empty root predicts 0 for everything: the paper's
        // zero-seed first candidate.
        tree.sync_candidate(0);
        tree
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the extended (state-register) features have been activated.
    pub fn is_extended(&self) -> bool {
        self.active > self.initial_active
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Whether `idx` is currently a leaf (a refuted leaf turns into a
    /// split when counterexample rows arrive).
    pub fn is_leaf(&self, idx: usize) -> bool {
        matches!(self.nodes[idx].kind, NodeKind::Leaf(_))
    }

    /// Whether the node's rows all agree on the target (zero error).
    pub fn is_pure(&self, idx: usize) -> bool {
        self.nodes[idx].is_pure()
    }

    /// The dataset row indices currently at a leaf, in arrival order
    /// (splits keep none). The temporal miner reads these to inspect a
    /// leaf's post-window target values (via [`crate::Dataset::future`])
    /// without re-classifying.
    pub fn node_rows(&self, idx: usize) -> &[u32] {
        &self.nodes[idx].rows
    }

    /// Indices of all current leaves.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].kind, NodeKind::Leaf(_)))
            .collect()
    }

    /// The status of a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf.
    pub fn leaf_status(&self, leaf: usize) -> LeafStatus {
        match self.nodes[leaf].kind {
            NodeKind::Leaf(s) => s,
            NodeKind::Split { .. } => panic!("node {leaf} is not a leaf"),
        }
    }

    /// Marks a leaf's candidate as formally proved.
    pub fn set_proved(&mut self, leaf: usize) {
        match &mut self.nodes[leaf].kind {
            NodeKind::Leaf(s) => {
                self.open_leaves -= usize::from(*s == LeafStatus::Open);
                *s = LeafStatus::Proved;
            }
            NodeKind::Split { .. } => panic!("node {leaf} is not a leaf"),
        }
        self.sync_candidate(leaf);
    }

    /// Whether every leaf is proved — the convergence condition (the
    /// tree is then the paper's *final decision tree* `F_z`). A read of
    /// the open-leaf count, not a scan.
    pub fn converged(&self) -> bool {
        self.open_leaves == 0
    }

    /// The candidates — open leaves whose rows all agree, the ones worth
    /// a formal check — in ascending node order, without visiting any
    /// other node.
    pub fn candidate_leaves(&self) -> impl Iterator<Item = usize> + '_ {
        self.candidates.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// How many candidates there are (see
    /// [`DecisionTree::candidate_leaves`]).
    pub fn candidate_count(&self) -> usize {
        self.candidate_count
    }

    /// Re-derives `node`'s candidate bit. Called wherever a leaf's
    /// status or row statistics change: creation, new rows, a proof.
    fn sync_candidate(&mut self, node: usize) {
        let n = &self.nodes[node];
        let live = matches!(n.kind, NodeKind::Leaf(LeafStatus::Open)) && n.is_pure();
        let (word, mask) = (node / 64, 1u64 << (node % 64));
        if self.candidates.len() <= word {
            self.candidates.resize(word + 1, 0);
        }
        let was = self.candidates[word] & mask != 0;
        if live && !was {
            self.candidates[word] |= mask;
            self.candidate_count += 1;
        } else if was && !live {
            self.candidates[word] &= !mask;
            self.candidate_count -= 1;
        }
    }

    /// The (feature, value) path from the root to `node`.
    pub fn path(&self, node: usize) -> Vec<(usize, bool)> {
        let mut path: Vec<_> = self.path_up(node).collect();
        path.reverse();
        path
    }

    /// The (feature, value) decisions of [`DecisionTree::path`] in
    /// reverse, from `node` up to the root, read off the parent links:
    /// the path without a list of its own.
    pub fn path_up(&self, node: usize) -> impl Iterator<Item = (usize, bool)> + Clone + '_ {
        let parent = |node: usize| self.nodes[node].parent;
        let decision = |(up, side): (usize, bool)| match self.nodes[up].kind {
            NodeKind::Split { feature, .. } => (feature, side),
            NodeKind::Leaf(_) => unreachable!("parent must be a split"),
        };
        std::iter::successors(parent(node), move |&(up, _)| parent(up)).map(decision)
    }

    /// The depth of `node` (root = 0).
    pub fn depth(&self, node: usize) -> usize {
        self.path_up(node).count()
    }

    /// The maximum leaf depth.
    pub fn max_depth(&self) -> usize {
        self.leaves()
            .into_iter()
            .map(|l| self.depth(l))
            .max()
            .unwrap_or(0)
    }

    /// Classifies a feature vector, returning the leaf it reaches.
    pub fn classify(&self, features: &[bool]) -> usize {
        let mut cur = 0usize;
        loop {
            match self.nodes[cur].kind {
                NodeKind::Leaf(_) => return cur,
                NodeKind::Split { feature, zero, one } => {
                    cur = if features[feature] { one } else { zero };
                }
            }
        }
    }

    /// The predicted target value for a feature vector.
    pub fn predict(&self, features: &[bool]) -> bool {
        self.nodes[self.classify(features)].prediction()
    }

    /// Builds the tree from the whole dataset (initial fit).
    ///
    /// # Errors
    ///
    /// See [`MineError::Contradictory`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset's rows do not have the spec's features.
    pub fn fit(&mut self, data: &Dataset) -> Result<(), MineError> {
        debug_assert_eq!(self.nodes.len(), 1, "fit on a fresh tree");
        let mut span = gm_trace::span("mine", "mine.fit");
        self.check_features(data);
        let root = &mut self.nodes[0];
        root.count = data.len();
        root.ones = data.target_ones();
        self.sync_candidate(0);
        let mut scratch = Scratch::default();
        scratch.load(data, 0..data.len());
        self.open_features(0, &mut scratch.open);
        let fitted = self.grow(&mut scratch, 0, 0, data.len());
        span.arg("rows", data.len());
        span.arg("nodes", self.nodes.len());
        span.arg("extended", self.is_extended());
        fitted
    }

    /// Routes freshly added rows down the tree (updating statistics on
    /// the way) and re-splits any leaf they made impure — the paper's
    /// `Ctx_simulation` + `Recompute_error` + continued splitting.
    /// Leaves re-split in the order the rows first reached them.
    /// Returns how many leaves were re-split. Works in buffers the tree
    /// keeps across calls (see the module docs).
    ///
    /// # Errors
    ///
    /// See [`MineError`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset's rows do not have the spec's features.
    pub fn add_rows<R: Borrow<usize>>(
        &mut self,
        data: &Dataset,
        new_rows: impl IntoIterator<Item = R>,
    ) -> Result<usize, MineError> {
        self.check_features(data);
        let mut buffers = std::mem::take(&mut self.buffers);
        let added = self.add_rows_in(data, new_rows, &mut buffers);
        buffers.scratch.records = Vec::new();
        buffers.scratch.spill = Vec::new();
        self.buffers = buffers;
        added
    }

    fn add_rows_in<R: Borrow<usize>>(
        &mut self,
        data: &Dataset,
        new_rows: impl IntoIterator<Item = R>,
        buffers: &mut AddRowsBuffers,
    ) -> Result<usize, MineError> {
        let AddRowsBuffers {
            touched,
            is_touched,
            scratch,
        } = buffers;
        // Touched leaves in first-touch order, and the same as a bit
        // per node so that a repeat visit costs one probe.
        touched.clear();
        is_touched.resize(self.nodes.len().div_ceil(64), 0);
        for ri in new_rows {
            let ri = *ri.borrow();
            let words = data.row_words(ri);
            let target = usize::from(data.target(ri));
            let mut cur = 0usize;
            loop {
                let node = &mut self.nodes[cur];
                node.count += 1;
                node.ones += target;
                let step = self.route[cur];
                if step == 0 {
                    node.rows.push(row_id(ri));
                    if !bit(is_touched, cur) {
                        set_bits(is_touched, cur..cur + 1);
                        touched.push(cur);
                    }
                    break;
                }
                let feature = (step >> 32) as usize;
                cur = (step as u32) as usize + usize::from(bit(words, feature));
            }
        }
        for &leaf in touched.iter() {
            is_touched[leaf / 64] &= !(1 << (leaf % 64));
        }
        // Before anything can fail: an error below leaves the later
        // touched leaves as they are, new rows included.
        for &leaf in touched.iter() {
            self.sync_candidate(leaf);
        }
        let mut resplit = 0;
        for &leaf in touched.iter() {
            if !self.nodes[leaf].is_pure() {
                if matches!(self.nodes[leaf].kind, NodeKind::Leaf(LeafStatus::Proved)) {
                    return Err(MineError::ProvedLeafContradicted { node: leaf });
                }
                resplit += 1;
                let rows = std::mem::take(&mut self.nodes[leaf].rows);
                scratch.load(data, rows.iter().map(|&r| r as usize));
                self.open_features(leaf, &mut scratch.open);
                self.grow(scratch, leaf, 0, rows.len())?;
            }
        }
        Ok(resplit)
    }

    fn check_features(&self, data: &Dataset) {
        assert!(
            data.is_empty() || data.feature_count() == self.total_features,
            "dataset rows have {} features, the spec {}",
            data.feature_count(),
            self.total_features
        );
    }

    /// Writes over `open` the features a split at or under `node` may
    /// use, one bit each: the active ones not already decided on the
    /// path to `node`.
    fn open_features(&self, node: usize, open: &mut Vec<u64>) {
        open.clear();
        open.resize(self.total_features.div_ceil(64), 0);
        set_bits(open, 0..self.active);
        for (f, _) in self.path_up(node) {
            open[f / 64] &= !(1 << (f % 64));
        }
    }

    /// Splits `node`, which owns records `lo..hi` of the scratch, until
    /// every descendant leaf is pure. A node that stays a leaf takes its
    /// row ids from the scratch.
    fn grow(
        &mut self,
        scratch: &mut Scratch,
        node: usize,
        lo: usize,
        hi: usize,
    ) -> Result<(), MineError> {
        let (count, ones) = (self.nodes[node].count, self.nodes[node].ones);
        if self.nodes[node].is_pure() {
            self.nodes[node].rows = scratch.ids(lo, hi);
            return Ok(());
        }
        let mut best = scratch.best_split(lo, hi, count, ones);
        if best.is_none() && self.active < self.total_features {
            // The paper's §6 extension: let the search see registers
            // and outputs at the farthest-back temporal stage.
            set_bits(&mut scratch.open, self.active..self.total_features);
            self.active = self.total_features;
            best = scratch.best_split(lo, hi, count, ones);
        }
        let Some(split) = best else {
            self.nodes[node].rows = scratch.ids(lo, hi);
            return Err(MineError::Contradictory { node });
        };
        scratch.partition(lo, hi, split.feature);
        let mid = hi - split.c1;
        let zero = self.nodes.len();
        let one = zero + 1;
        for (side, count, ones) in [
            (false, count - split.c1, ones - split.o1),
            (true, split.c1, split.o1),
        ] {
            self.nodes.push(Node {
                rows: Vec::new(),
                count,
                ones,
                parent: Some((node, side)),
                kind: NodeKind::Leaf(LeafStatus::Open),
            });
            self.route.push(0);
            self.sync_candidate(self.nodes.len() - 1);
        }
        // Only an open, impure leaf splits (a proved one that turned
        // impure is an error before it gets here, and impure means it
        // is no candidate): one open leaf becomes two.
        self.open_leaves += 1;
        self.nodes[node].kind = NodeKind::Split {
            feature: split.feature,
            zero,
            one,
        };
        let half = |i: usize| u64::from(u32::try_from(i).expect("indices fit in 32 bits"));
        self.route[node] = half(split.feature) << 32 | half(zero);
        let (word, mask) = (split.feature / 64, 1u64 << (split.feature % 64));
        scratch.open[word] &= !mask;
        let grown = match self.grow(scratch, zero, lo, mid) {
            Ok(()) => self.grow(scratch, one, mid, hi),
            Err(e) => {
                // The one side is never visited: it stays the leaf it
                // was created as, holding its rows.
                self.nodes[one].rows = scratch.ids(mid, hi);
                Err(e)
            }
        };
        scratch.open[word] |= mask;
        grown
    }
}

fn row_id(row: usize) -> u32 {
    u32::try_from(row).expect("row ids fit in 32 bits")
}

/// The winner of a split search and the rows on its one side.
struct BestSplit {
    feature: usize,
    /// Rows with the feature set.
    c1: usize,
    /// Rows with the feature set and target 1.
    o1: usize,
}

/// Counts for 64 bit positions at once, bit-sliced: plane `j` holds bit
/// `j` of each position's count. Adding a word is a ripple-carry over
/// the planes; eight words go in through a carry-save adder tree
/// (Harley–Seal) that touches the upper planes once per eight.
///
/// A split search clears the planes for the node it counts: counts
/// below `2^len` never carry past plane `len - 1`, so a carry ripples
/// that far and no further, and only the groups of eight planes those
/// reach are cleared and decoded (see [`Planes::decode`]).
#[derive(Default)]
struct Planes {
    /// The planes in groups of eight: enough for `2^32` rows (33
    /// planes), the most 32-bit row ids can name.
    groups: [[u64; 8]; 5],
    /// The planes the counts reach.
    len: usize,
}

impl Planes {
    /// Zero counts, for adding fewer than `2^len` words.
    fn clear(&mut self, len: usize) {
        self.len = len;
        self.groups[..len.div_ceil(8)].fill([0; 8]);
    }

    fn add(&mut self, word: u64) {
        self.carry_into(0, word);
    }

    /// Branch-free: the ripple always runs to the top plane.
    fn carry_into(&mut self, plane: usize, mut carry: u64) {
        for p in &mut self.groups.as_flattened_mut()[plane..self.len] {
            (*p, carry) = (*p ^ carry, *p & carry);
        }
        debug_assert_eq!(carry, 0, "a count outgrew its {} planes", self.len);
    }

    /// Adds eight words; needs `len >= 4`, as adding eight words does.
    fn add8(&mut self, x: [u64; 8]) {
        /// `a + b + c` per position: (sum bit, carry bit).
        fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
            let u = a ^ b;
            (u ^ c, (a & b) | (u & c))
        }
        let low = &mut self.groups[0];
        let (ones, twos_a) = csa(low[0], x[0], x[1]);
        let (ones, twos_b) = csa(ones, x[2], x[3]);
        let (twos, fours_a) = csa(low[1], twos_a, twos_b);
        let (ones, twos_a) = csa(ones, x[4], x[5]);
        let (ones, twos_b) = csa(ones, x[6], x[7]);
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights) = csa(low[2], fours_a, fours_b);
        [low[0], low[1], low[2]] = [ones, twos, fours];
        self.carry_into(3, eights);
    }

    /// Decodes all 64 counts at once, in place: each group of eight
    /// planes is transposed as eight 8×8 bit blocks, one per byte, so
    /// that byte `k` of the group's word `i` holds the group's eight
    /// bits of the count at position `8k + i`.
    fn decode(&mut self) -> Counts<'_> {
        let groups = &mut self.groups[..self.len.div_ceil(8)];
        for group in groups.iter_mut() {
            for (shift, mask) in [
                (4, 0x0f0f_0f0f_0f0f_0f0f),
                (2, 0x3333_3333_3333_3333),
                (1, 0x5555_5555_5555_5555),
            ] {
                for j in (0..8).filter(|j| j & shift == 0) {
                    let t = ((group[j] >> shift) ^ group[j + shift]) & mask;
                    group[j + shift] ^= t;
                    group[j] ^= t << shift;
                }
            }
        }
        Counts(groups)
    }
}

/// The counts [`Planes::decode`] left in its planes.
struct Counts<'a>(&'a [[u64; 8]]);

impl Counts<'_> {
    /// The count at bit position `bit`.
    fn get(&self, bit: u32) -> usize {
        let (i, shift) = (bit as usize % 8, bit / 8 * 8);
        (self.0.iter().rev()).fold(0, |count, group| {
            count << 8 | ((group[i] >> shift) & 0xff) as usize
        })
    }
}

/// The rows one fit or re-split works on, as a permutation the
/// recursion sorts in place (see the module docs).
#[derive(Default)]
struct Scratch {
    /// Words per record: the id/target word, then the feature words.
    stride: usize,
    /// Record `i` is `records[i * stride..][..stride]`:
    /// `[row id << 1 | target, feature words...]`.
    records: Vec<u64>,
    /// Where a partition parks the one side.
    spill: Vec<u64>,
    /// The features the node being searched may split on, one bit each.
    open: Vec<u64>,
}

impl Scratch {
    /// Loads `rows` of `data` as the records, in order, over whatever
    /// the scratch held (a call re-splitting several leaves loads each
    /// in turn); `open` is the caller's to write.
    fn load(&mut self, data: &Dataset, rows: impl ExactSizeIterator<Item = usize>) {
        self.stride = 1 + data.words();
        self.records.clear();
        self.records.reserve(rows.len() * self.stride);
        for row in rows {
            (self.records).push(u64::from(row_id(row)) << 1 | u64::from(data.target(row)));
            self.records.extend_from_slice(data.row_words(row));
        }
        if self.spill.len() < self.records.len() {
            // Fresh zeroed memory: a partition writes only as far into
            // the spill as a node has records on its one side, and the
            // pages past that are never touched.
            self.spill = vec![0; self.records.len()];
        }
    }

    /// The row ids of records `lo..hi`, in order.
    fn ids(&self, lo: usize, hi: usize) -> Vec<u32> {
        self.records[lo * self.stride..hi * self.stride]
            .iter()
            .step_by(self.stride)
            .map(|meta| (meta >> 1) as u32)
            .collect()
    }

    /// Finds the open feature whose split of records `lo..hi` (`count`
    /// rows, `ones` of them with target 1) strictly minimizes the
    /// children's summed squared error. Exact integer scoring: maximize
    /// `ones0²·count1 + ones1²·count0` over `count0·count1`, strictly
    /// above the parent's `ones²/count`; the lowest feature wins a tie.
    fn best_split(&self, lo: usize, hi: usize, count: usize, ones: usize) -> Option<BestSplit> {
        let records = &self.records[lo * self.stride..hi * self.stride];
        let planes = (usize::BITS - count.leading_zeros()) as usize;
        let parent_num = (ones as u128) * (ones as u128);
        let parent_den = count as u128;
        // Per feature of a word, the rows that set it (`c1`) and those
        // of them with target 1 (`o1`).
        let (mut c1, mut o1) = (Planes::default(), Planes::default());
        let mut best: Option<(BestSplit, u128, u128)> = None;
        for (word, &open) in self.open.iter().enumerate() {
            if open == 0 {
                continue;
            }
            c1.clear(planes);
            o1.clear(planes);
            // Stride 2 (up to 64 features) inlines its own copy of the
            // pass, with the stride a constant.
            let (any, all) = match self.stride {
                2 => count_column(records, 2, word, open, &mut c1, &mut o1),
                stride => count_column(records, stride, word, open, &mut c1, &mut o1),
            };
            let (c1_at, o1_at) = (c1.decode(), o1.decode());
            // Only a feature that some rows set and some do not can
            // split; ascending order keeps the lowest index on a tie.
            let mut candidates = any & !all;
            while candidates != 0 {
                let b = candidates.trailing_zeros();
                candidates &= candidates - 1;
                let (c1, o1) = (c1_at.get(b), o1_at.get(b));
                let (c0, o0) = (count - c1, ones - o1);
                // score = o0²/c0 + o1²/c1 = (o0²·c1 + o1²·c0) / (c0·c1)
                let num = (o0 as u128).pow(2) * c1 as u128 + (o1 as u128).pow(2) * c0 as u128;
                let den = c0 as u128 * c1 as u128;
                // Strict improvement over the parent: num/den > parent_num/parent_den.
                if num * parent_den <= parent_num * den {
                    continue;
                }
                if best
                    .as_ref()
                    .is_none_or(|(_, best_num, best_den)| num * best_den > best_num * den)
                {
                    let feature = word * 64 + b as usize;
                    best = Some((BestSplit { feature, c1, o1 }, num, den));
                }
            }
        }
        best.map(|(split, _, _)| split)
    }

    /// Stably reorders records `lo..hi` so those with `feature` clear
    /// come first.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize) {
        let stride = self.stride;
        let records = &mut self.records[lo * stride..hi * stride];
        let spill = &mut self.spill[..records.len()];
        let (word, shift) = (1 + feature / 64, feature % 64);
        match stride {
            2 => partition_records::<2>(records, spill, word, shift),
            _ => partition_strided(records, spill, stride, word, shift),
        }
    }
}

/// One pass over `stride`-word records: adds each record's feature word
/// `word` (masked by `open`) to `c1`, and to `o1` as well if its target
/// is 1. Returns the features some and all records set.
#[inline(always)]
fn count_column(
    records: &[u64],
    stride: usize,
    word: usize,
    open: u64,
    c1: &mut Planes,
    o1: &mut Planes,
) -> (u64, u64) {
    let (mut any, mut all) = (0u64, !0u64);
    let column = |record: &[u64]| {
        let x = record[1 + word] & open;
        (x, x & 0u64.wrapping_sub(record[0] & 1))
    };
    let mut blocks = records.chunks_exact(8 * stride);
    for block in &mut blocks {
        let mut x = [0u64; 8];
        let mut t = [0u64; 8];
        for (i, record) in block.chunks_exact(stride).enumerate() {
            (x[i], t[i]) = column(record);
            any |= x[i];
            all &= x[i];
        }
        c1.add8(x);
        o1.add8(t);
    }
    for record in blocks.remainder().chunks_exact(stride) {
        let (x, t) = column(record);
        any |= x;
        all &= x;
        c1.add(x);
        o1.add(t);
    }
    (any, all)
}

/// [`Scratch::partition`] over `W`-word records, `spill` parking the
/// one side: each record moves as one `[u64; W]` copy. Branch-free:
/// every record is written to both sides' next slot, and only the slot
/// of the side it belongs to advances. `zeros <= i` always, so no
/// unread record is overwritten.
fn partition_records<const W: usize>(
    records: &mut [u64],
    spill: &mut [u64],
    word: usize,
    shift: usize,
) {
    let records = records.as_chunks_mut::<W>().0;
    let spill = spill.as_chunks_mut::<W>().0;
    let (mut zeros, mut ones) = (0, 0);
    for i in 0..records.len() {
        let record = records[i];
        let one = ((record[word] >> shift) & 1) as usize;
        records[zeros] = record;
        spill[ones] = record;
        zeros += 1 - one;
        ones += one;
    }
    records[zeros..].copy_from_slice(&spill[..ones]);
}

/// [`partition_records`] for strides it is not compiled for.
fn partition_strided(
    records: &mut [u64],
    spill: &mut [u64],
    stride: usize,
    word: usize,
    shift: usize,
) {
    let (mut zeros, mut ones) = (0, 0);
    for i in (0..records.len()).step_by(stride) {
        let one = ((records[i + word] >> shift) & 1) as usize;
        spill[ones * stride..][..stride].copy_from_slice(&records[i..][..stride]);
        records.copy_within(i..i + stride, zeros * stride);
        zeros += 1 - one;
        ones += one;
    }
    records[zeros * stride..].copy_from_slice(&spill[..ones * stride]);
}

#[cfg(test)]
mod tests;
