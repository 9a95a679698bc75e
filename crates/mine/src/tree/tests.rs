use super::*;
use crate::dataset::Row;
use crate::features::{Feature, MiningSpec, Target};
use gm_rtl::SignalId;
use proptest::prelude::*;
use proptest::TestRng;

/// A spec over `n` synthetic single-bit input features (offset 0) and
/// `ext` extension features.
fn spec(n: usize, ext: usize) -> MiningSpec {
    let features = (0..n + ext)
        .map(|i| Feature {
            signal: SignalId::from_raw(i as u32),
            bit: 0,
            offset: 0,
        })
        .collect();
    MiningSpec {
        features,
        initial_active: n,
        target: Target {
            signal: SignalId::from_raw((n + ext) as u32),
            bit: 0,
            offset: 0,
        },
        window: 0,
    }
}

fn dataset_from(rows: &[(&[bool], bool)]) -> Dataset {
    let mut ds = Dataset::new();
    // Dataset only grows through add_trace normally; build directly
    // through the testing seam.
    for (f, t) in rows {
        ds.push_row(Row {
            features: f.to_vec(),
            target: *t,
        });
    }
    ds
}

#[test]
fn stale_leaf_ids_are_rejected_after_resplit() {
    // Regression for the engine's leaf re-validation: a leaf id
    // captured before counterexample rows arrive may be re-split
    // into an internal node. Consumers must be able to detect that
    // (is_leaf / leaves()) instead of silently reading the internal
    // node's shorter path as if it were the original cube.
    let sp = spec(2, 0);
    let ds = dataset_from(&[(&[true, false], true), (&[false, false], false)]);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    // The pure leaf predicting true under a=1.
    let stale = *tree
        .leaves()
        .iter()
        .find(|&&l| tree.node(l).prediction())
        .unwrap();
    let path_before = tree.path(stale);

    // A counterexample row lands in that leaf and disagrees,
    // forcing a re-split on b.
    let mut ds = ds;
    let cex = ds.push_row(Row {
        features: vec![true, true],
        target: false,
    });
    assert_eq!(tree.add_rows(&ds, [cex]), Ok(1));

    // The id still names a node — but not a leaf, and not the cube
    // it used to be: treating it as one would check a strictly
    // weaker antecedent.
    assert!(
        !tree.is_leaf(stale),
        "re-split leaf must stop reporting as a leaf"
    );
    assert!(!tree.leaves().contains(&stale));
    assert!(tree.node_rows(stale).is_empty(), "splits keep no rows");
    // No surviving leaf carries the stale cube either — the old
    // antecedent is gone, not remapped.
    assert!(
        tree.leaves().iter().all(|l| tree.path(*l) != path_before),
        "a leaf silently inherited the stale cube"
    );
}

#[test]
fn learns_a_conjunction_exactly() {
    // z = a & b over the full truth table.
    let sp = spec(2, 0);
    let table: [(&[bool], bool); 4] = [
        (&[false, false], false),
        (&[false, true], false),
        (&[true, false], false),
        (&[true, true], true),
    ];
    let ds = dataset_from(&table);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    for (features, target) in table {
        assert_eq!(tree.predict(features), target);
    }
    // Tree: root split + one pure side + one further split = 5 nodes.
    assert_eq!(tree.node_count(), 5);
    assert_eq!(tree.leaves().len(), 3);
}

#[test]
fn empty_dataset_predicts_zero() {
    let sp = spec(2, 0);
    let ds = Dataset::new();
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    assert_eq!(tree.leaves(), vec![0]);
    assert!(!tree.node(0).prediction(), "zero-seed: output always 0");
}

#[test]
fn incremental_add_preserves_structure_and_resplits_leaf() {
    // Start with data where z looks like `a`, then add a row showing
    // z = a & b: the a=1 leaf must re-split on b, and the a=0 side
    // must keep its node identity (Definition 6).
    let sp = spec(2, 0);
    let mut ds = dataset_from(&[(&[false, true], false), (&[true, true], true)]);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    let leaves_before = tree.leaves();
    assert_eq!(leaves_before.len(), 2);
    let zero_leaf = leaves_before
        .iter()
        .copied()
        .find(|&l| !tree.node(l).prediction())
        .unwrap();
    tree.set_proved(zero_leaf);

    // Counterexample: a=1, b=0 -> z=0 contradicts the a=1 leaf.
    ds.push_row(Row {
        features: vec![true, false],
        target: false,
    });
    tree.add_rows(&ds, [2]).unwrap();
    assert_eq!(
        tree.leaf_status(zero_leaf),
        LeafStatus::Proved,
        "untouched proved leaf survives"
    );
    assert_eq!(tree.leaves().len(), 3);
    assert!(!tree.predict(&[true, false]));
    assert!(tree.predict(&[true, true]));
}

#[test]
fn extension_features_activate_when_stuck() {
    // Target equals the extension feature; the two active features
    // are pure noise. With identical active values and differing
    // targets, the tree must extend the search (the paper's
    // gnt0(t-1) moment).
    let sp = spec(2, 1);
    let ds = dataset_from(&[(&[true, false, false], false), (&[true, false, true], true)]);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    assert_eq!(tree.leaves().len(), 2);
    assert!(tree.predict(&[true, false, true]));
    assert!(!tree.predict(&[true, false, false]));
}

#[test]
fn contradiction_is_reported() {
    let sp = spec(1, 0);
    let ds = dataset_from(&[(&[true], true), (&[true], false)]);
    let mut tree = DecisionTree::new(&sp);
    assert!(matches!(
        tree.fit(&ds),
        Err(MineError::Contradictory { .. })
    ));
}

#[test]
fn paths_and_depths() {
    let sp = spec(2, 0);
    let ds = dataset_from(&[
        (&[false, false], false),
        (&[false, true], false),
        (&[true, false], false),
        (&[true, true], true),
    ]);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    let deep = tree.classify(&[true, true]);
    let path = tree.path(deep);
    assert_eq!(path.len(), 2);
    assert!(path.iter().all(|(_, v)| *v));
    assert_eq!(tree.max_depth(), 2);
    assert_eq!(tree.depth(0), 0);
}

#[test]
fn converged_only_when_all_leaves_proved() {
    let sp = spec(1, 0);
    let ds = dataset_from(&[(&[false], false), (&[true], true)]);
    let mut tree = DecisionTree::new(&sp);
    tree.fit(&ds).unwrap();
    assert!(!tree.converged());
    for leaf in tree.leaves() {
        tree.set_proved(leaf);
    }
    assert!(tree.converged());
}

#[test]
fn planes_count_every_position() {
    // Position b is set in every word whose index has bit pattern
    // (i * (b + 1)) % 7 < 3: 64 different counts, through the blocked
    // and the single-word path, decoded all at once.
    let words: Vec<u64> = (0..1003u64)
        .map(|i| {
            (0..64)
                .filter(|b| (i * (b + 1)) % 7 < 3)
                .fold(0, |w, b| w | 1 << b)
        })
        .collect();
    let mut planes = Planes::default();
    planes.clear(10);
    let mut blocks = words.chunks_exact(8);
    for block in &mut blocks {
        planes.add8(block.try_into().unwrap());
    }
    for &w in blocks.remainder() {
        planes.add(w);
    }
    let counts = planes.decode();
    for b in 0..64 {
        let expected = words.iter().filter(|w| (*w >> b) & 1 == 1).count();
        assert_eq!(counts.get(b), expected, "position {b}");
    }

    // Every depth a count can need, 1..=33 planes: each position's
    // count is written straight into the planes, the even ones one
    // below the top plane's bit, and one added word carries those into
    // the top plane. The planes past the depth's groups of eight hold
    // junk, which clearing must leave and decoding must not read.
    let rng = &mut TestRng::new(0x5eed);
    for depth in 1..=33 {
        let mut planes = Planes {
            groups: [[!0; 8]; 5],
            len: 0,
        };
        planes.clear(depth);
        let top = 1u64 << (depth - 1);
        let counts: Vec<u64> = (0..64)
            .map(|b| match b % 2 {
                0 => top - 1,
                _ => rng.next_u64() % top,
            })
            .collect();
        let words = planes.groups.as_flattened_mut();
        for (j, plane) in words[..depth].iter_mut().enumerate() {
            *plane = (0..64).fold(0, |w, b| w | ((counts[b] >> j) & 1) << b);
        }
        let added = rng.next_u64() | 0x5555_5555_5555_5555;
        planes.add(added);
        let decoded = planes.decode();
        for (b, &count) in counts.iter().enumerate() {
            let expected = count + ((added >> b) & 1);
            assert_eq!(
                decoded.get(b as u32) as u64,
                expected,
                "depth {depth}, position {b}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The scalar reference
// ---------------------------------------------------------------------

/// Rows the way the reference reads them.
type ScalarRows = Vec<(Vec<bool>, bool)>;

/// The fit this crate ran before rows were bit-packed, kept as it was —
/// one `Vec<bool>` per row, one walk over a node's rows per feature, a
/// row list on every node — as the oracle the packed fit must equal
/// node for node.
struct Reference {
    nodes: Vec<Node>,
    active: usize,
    total_features: usize,
}

impl Reference {
    fn new(spec: &MiningSpec) -> Self {
        Reference {
            nodes: DecisionTree::new(spec).nodes,
            active: spec.initial_active,
            total_features: spec.features.len(),
        }
    }

    fn path_features(&self, node: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = node;
        while let Some((parent, _)) = self.nodes[cur].parent {
            match self.nodes[parent].kind {
                NodeKind::Split { feature, .. } => path.push(feature),
                NodeKind::Leaf(_) => unreachable!("parent must be a split"),
            }
            cur = parent;
        }
        path.reverse();
        path
    }

    fn fit(&mut self, data: &ScalarRows) -> Result<(), MineError> {
        let root = &mut self.nodes[0];
        root.rows = (0..data.len() as u32).collect();
        root.count = data.len();
        root.ones = data.iter().filter(|r| r.1).count();
        self.split_recursive(data, 0)
    }

    fn add_rows(&mut self, data: &ScalarRows, new_rows: &[usize]) -> Result<usize, MineError> {
        let mut touched = Vec::new();
        for &ri in new_rows {
            let row = &data[ri];
            let mut cur = 0usize;
            loop {
                let node = &mut self.nodes[cur];
                node.rows.push(ri as u32);
                node.count += 1;
                node.ones += usize::from(row.1);
                match node.kind {
                    NodeKind::Leaf(_) => {
                        if !touched.contains(&cur) {
                            touched.push(cur);
                        }
                        break;
                    }
                    NodeKind::Split { feature, zero, one } => {
                        cur = if row.0[feature] { one } else { zero };
                    }
                }
            }
        }
        let mut resplit = 0;
        for leaf in touched {
            if !self.nodes[leaf].is_pure() {
                if matches!(self.nodes[leaf].kind, NodeKind::Leaf(LeafStatus::Proved)) {
                    return Err(MineError::ProvedLeafContradicted { node: leaf });
                }
                resplit += 1;
                self.split_recursive(data, leaf)?;
            }
        }
        Ok(resplit)
    }

    fn split_recursive(&mut self, data: &ScalarRows, node: usize) -> Result<(), MineError> {
        if self.nodes[node].is_pure() {
            return Ok(());
        }
        let path_features = self.path_features(node);
        let best = match self.best_split(data, node, &path_features) {
            Some(f) => f,
            None => {
                if self.active < self.total_features {
                    self.active = self.total_features;
                    match self.best_split(data, node, &path_features) {
                        Some(f) => f,
                        None => return Err(MineError::Contradictory { node }),
                    }
                } else {
                    return Err(MineError::Contradictory { node });
                }
            }
        };
        let rows = std::mem::take(&mut self.nodes[node].rows);
        let mut zero_rows = Vec::new();
        let mut one_rows = Vec::new();
        let mut zero_ones = 0usize;
        let mut one_ones = 0usize;
        for &ri in &rows {
            let row = &data[ri as usize];
            if row.0[best] {
                one_ones += usize::from(row.1);
                one_rows.push(ri);
            } else {
                zero_ones += usize::from(row.1);
                zero_rows.push(ri);
            }
        }
        let zero_idx = self.nodes.len();
        self.nodes.push(Node {
            count: zero_rows.len(),
            ones: zero_ones,
            rows: zero_rows,
            parent: Some((node, false)),
            kind: NodeKind::Leaf(LeafStatus::Open),
        });
        let one_idx = self.nodes.len();
        self.nodes.push(Node {
            count: one_rows.len(),
            ones: one_ones,
            rows: one_rows,
            parent: Some((node, true)),
            kind: NodeKind::Leaf(LeafStatus::Open),
        });
        self.nodes[node].rows = rows;
        self.nodes[node].kind = NodeKind::Split {
            feature: best,
            zero: zero_idx,
            one: one_idx,
        };
        self.split_recursive(data, zero_idx)?;
        self.split_recursive(data, one_idx)
    }

    fn best_split(&self, data: &ScalarRows, node: usize, path: &[usize]) -> Option<usize> {
        let n = &self.nodes[node];
        let parent_num = (n.ones as u128) * (n.ones as u128);
        let parent_den = n.count as u128;
        let mut best: Option<(usize, u128, u128)> = None;
        for f in 0..self.active {
            if path.contains(&f) {
                continue;
            }
            let mut c1 = 0usize;
            let mut o1 = 0usize;
            for &ri in &n.rows {
                let row = &data[ri as usize];
                if row.0[f] {
                    c1 += 1;
                    o1 += usize::from(row.1);
                }
            }
            let c0 = n.count - c1;
            let o0 = n.ones - o1;
            if c0 == 0 || c1 == 0 {
                continue;
            }
            let num = (o0 as u128).pow(2) * c1 as u128 + (o1 as u128).pow(2) * c0 as u128;
            let den = c0 as u128 * c1 as u128;
            if num * parent_den <= parent_num * den {
                continue;
            }
            match &best {
                None => best = Some((f, num, den)),
                Some((_, bn, bd)) => {
                    if num * bd > bn * den {
                        best = Some((f, num, den));
                    }
                }
            }
        }
        best.map(|(f, _, _)| f)
    }
}

/// Everything observable about a node; a split's row list is not
/// (the reference keeps one, the packed tree does not).
type NodeView = (
    (usize, usize),
    Option<(usize, bool)>,
    Option<(usize, usize, usize)>,
    Option<(LeafStatus, Vec<u32>)>,
);

fn view(nodes: &[Node]) -> Vec<NodeView> {
    nodes
        .iter()
        .map(|n| {
            let (split, leaf) = match n.kind {
                NodeKind::Split { feature, zero, one } => (Some((feature, zero, one)), None),
                NodeKind::Leaf(status) => (None, Some((status, n.rows.clone()))),
            };
            ((n.count, n.ones), n.parent, split, leaf)
        })
        .collect()
}

/// The two trees and their data, driven in lockstep.
struct Lockstep {
    packed: DecisionTree,
    reference: Reference,
    data: Dataset,
    scalar: ScalarRows,
}

impl Lockstep {
    fn new(spec: &MiningSpec) -> Self {
        Lockstep {
            packed: DecisionTree::new(spec),
            reference: Reference::new(spec),
            data: Dataset::new(),
            scalar: Vec::new(),
        }
    }

    fn push(&mut self, features: Vec<bool>, target: bool) -> usize {
        self.scalar.push((features.clone(), target));
        self.data.push_row(Row { features, target })
    }

    fn assert_same(&self, when: &str) {
        assert_eq!(
            self.packed.active, self.reference.active,
            "{when}: active features"
        );
        let (packed, reference) = (view(&self.packed.nodes), view(&self.reference.nodes));
        for (i, (p, r)) in packed.iter().zip(&reference).enumerate() {
            assert_eq!(p, r, "{when}: node {i}");
        }
        assert_eq!(packed.len(), reference.len(), "{when}: node count");
        for (i, n) in self.packed.nodes.iter().enumerate() {
            assert!(
                self.packed.is_leaf(i) || n.rows.is_empty(),
                "{when}: split {i} holds rows"
            );
        }
        self.assert_tracked(when);
    }

    /// The candidate set and the open-leaf count the packed tree keeps
    /// as it changes equal a scan of its nodes.
    fn assert_tracked(&self, when: &str) {
        let tree = &self.packed;
        let open = |&l: &usize| tree.leaf_status(l) == LeafStatus::Open;
        let scan: Vec<usize> = tree.leaves().into_iter().filter(open).collect();
        let pure: Vec<usize> = scan.iter().copied().filter(|&l| tree.is_pure(l)).collect();
        let tracked: Vec<usize> = tree.candidate_leaves().collect();
        assert_eq!(tracked, pure, "{when}: candidates");
        assert_eq!(
            tree.candidate_count(),
            pure.len(),
            "{when}: candidate count"
        );
        assert_eq!(tree.converged(), scan.is_empty(), "{when}: converged");
    }

    fn fit(&mut self) -> Result<(), MineError> {
        let packed = self.packed.fit(&self.data);
        assert_eq!(packed, self.reference.fit(&self.scalar), "fit result");
        self.assert_same("after fit");
        packed
    }

    fn add_rows(&mut self, rows: &[usize]) -> Result<usize, MineError> {
        let packed = self.packed.add_rows(&self.data, rows);
        assert_eq!(
            packed,
            self.reference.add_rows(&self.scalar, rows),
            "add_rows result"
        );
        self.assert_same("after add_rows");
        packed
    }

    fn set_proved(&mut self, leaf: usize) {
        self.packed.set_proved(leaf);
        self.reference.nodes[leaf].kind = NodeKind::Leaf(LeafStatus::Proved);
        self.assert_tracked("after set_proved");
    }
}

// ---------------------------------------------------------------------
// packed ≡ reference on random data
// ---------------------------------------------------------------------

/// What one random case exercised.
#[derive(Default)]
struct Tally {
    multi_word: usize,
    extensions: usize,
    contradictory: usize,
    /// Fits that stopped at a contradiction, leaving a partial tree.
    partial_fits: usize,
    proved_contradicted: usize,
    resplit: usize,
    /// Splits of nodes with at least 512 rows.
    large_splits: usize,
    /// Cases by feature words: one word, two, three, four (records of
    /// stride 2 to 5).
    strides: [usize; 4],
}

/// What a case draws its feature total and row count from.
#[derive(Clone, Copy)]
enum Shape {
    /// 1, 7, 63, 64, 65 or 130 features, at most 64 rows.
    Small,
    /// One to four feature words, at and around the word boundaries;
    /// every other case holds 512–1023 rows, so that its top nodes'
    /// counts reach ten planes and more, go in through the blocked
    /// adds, and their partitions move hundreds of records.
    Edge,
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u128) as usize
}

/// One random dataset, fitted and then grown by a few batches, packed
/// and reference side by side (panics where they differ).
///
/// The target is a random function of up to four *relevant* features,
/// which may lie in the extension range; rows are a few base patterns
/// with a couple of bits flipped, so duplicates, near-duplicates and —
/// with a flipped target — outright contradictions are all common.
fn run_case(seed: u64, shape: Shape, tally: &mut Tally) {
    let rng = &mut TestRng::new(seed);
    let total = match shape {
        Shape::Small => [1, 7, 63, 64, 65, 130][below(rng, 6)],
        Shape::Edge => [1, 63, 64, 65, 128, 129, 192, 200][below(rng, 8)],
    };
    let initial_active = match below(rng, 3) {
        0 => total,
        _ => below(rng, total + 1),
    };
    let spec = spec(initial_active, total - initial_active);
    tally.multi_word += usize::from(total > 64);
    tally.strides[total.div_ceil(64) - 1] += 1;

    let relevant: Vec<usize> = (0..1 + below(rng, 4)).map(|_| below(rng, total)).collect();
    let truth_table = rng.next_u64();
    let target_of = |features: &[bool]| {
        let key = relevant
            .iter()
            .fold(0, |k, &f| k << 1 | usize::from(features[f]));
        (truth_table >> key) & 1 == 1
    };
    let patterns: Vec<Vec<bool>> = (0..1 + below(rng, 6))
        .map(|_| (0..total).map(|_| below(rng, 2) == 1).collect())
        .collect();
    let random_row = |rng: &mut TestRng| {
        let mut features = patterns[below(rng, patterns.len())].clone();
        for _ in 0..below(rng, 4) {
            // Half the flips land on a relevant feature.
            let f = match below(rng, 2) {
                0 => relevant[below(rng, relevant.len())],
                _ => below(rng, total),
            };
            features[f] ^= true;
        }
        let target = target_of(&features);
        (features, target)
    };

    let mut both = Lockstep::new(&spec);
    let rows = match shape {
        Shape::Edge if below(rng, 2) == 0 => 512 + below(rng, 512),
        _ => below(rng, 65),
    };
    for _ in 0..rows {
        let (features, target) = random_row(rng);
        both.push(features, target);
    }
    if !both.scalar.is_empty() && below(rng, 4) == 0 {
        let (features, target) = both.scalar[below(rng, both.scalar.len())].clone();
        both.push(features, !target);
    }
    let mut extended = false;
    let mut note = |both: &Lockstep, result: Result<usize, MineError>, tally: &mut Tally| {
        if both.packed.is_extended() && !extended {
            extended = true;
            tally.extensions += 1;
        }
        match result {
            Ok(resplit) => tally.resplit += resplit,
            Err(MineError::Contradictory { .. }) => tally.contradictory += 1,
            Err(MineError::ProvedLeafContradicted { .. }) => tally.proved_contradicted += 1,
        }
    };
    let fitted = both.fit().map(|()| 0);
    tally.partial_fits += usize::from(fitted.is_err());
    let tree = &both.packed;
    tally.large_splits += (0..tree.node_count())
        .filter(|&i| !tree.is_leaf(i) && tree.node(i).row_count() >= 512)
        .count();
    note(&both, fitted, tally);

    for leaf in both.packed.leaves() {
        if both.packed.is_pure(leaf) && below(rng, 3) == 0 {
            both.set_proved(leaf);
        }
    }
    for _ in 0..1 + below(rng, 5) {
        let mut batch = Vec::new();
        for _ in 0..1 + below(rng, 12) {
            let (features, target) = match below(rng, 40) {
                // An existing row with the other target: contradicts
                // its leaf, proved or not.
                0 if !both.scalar.is_empty() => {
                    let (features, target) = both.scalar[below(rng, both.scalar.len())].clone();
                    (features, !target)
                }
                _ => random_row(rng),
            };
            batch.push(both.push(features, target));
        }
        let added = both.add_rows(&batch);
        note(&both, added, tally);
    }
}

/// Cases per property: 600 in tier-1; CI's release job raises it
/// through proptest's `PROPTEST_CASES` variable, which an explicit
/// `ProptestConfig::with_cases` would otherwise override.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn packed_fit_equals_the_scalar_reference(seed in any::<u64>()) {
        run_case(seed, Shape::Small, &mut Tally::default());
    }

    #[test]
    fn packed_fit_equals_the_scalar_reference_at_the_edges(seed in any::<u64>()) {
        run_case(seed, Shape::Edge, &mut Tally::default());
    }
}

/// The properties above are only as strong as what their cases reach:
/// over the very same seeds, count the hard paths that were compared.
#[test]
fn the_reference_comparison_is_not_vacuous() {
    let mut tally = Tally::default();
    for case in 0..cases() {
        for (name, shape) in [
            ("packed_fit_equals_the_scalar_reference", Shape::Small),
            (
                "packed_fit_equals_the_scalar_reference_at_the_edges",
                Shape::Edge,
            ),
        ] {
            let mut rng = proptest::rng_for_case(name, case);
            run_case(any::<u64>().generate(&mut rng), shape, &mut tally);
        }
    }
    let floor = cases() as usize / 6;
    assert!(floor >= 100, "run at least 600 cases");
    println!(
        "{} multi-word, {} extensions, {} contradictory ({} in fit), {} proved contradicted, \
         {} re-split, {} splits of 512+ rows, cases by stride 2..=5 {:?}",
        tally.multi_word,
        tally.extensions,
        tally.contradictory,
        tally.partial_fits,
        tally.proved_contradicted,
        tally.resplit,
        tally.large_splits,
        tally.strides
    );
    assert!(tally.multi_word >= floor, "{} multi-word", tally.multi_word);
    assert!(tally.extensions >= floor, "{} extensions", tally.extensions);
    assert!(
        tally.contradictory >= floor,
        "{} contradictory",
        tally.contradictory
    );
    assert!(
        tally.partial_fits >= floor,
        "{} partial fits",
        tally.partial_fits
    );
    assert!(
        tally.proved_contradicted >= floor / 4,
        "{} proved leaves contradicted",
        tally.proved_contradicted
    );
    assert!(tally.resplit >= floor, "{} leaves re-split", tally.resplit);
    assert!(
        tally.large_splits >= floor,
        "{} splits of 512+ rows",
        tally.large_splits
    );
    for (words, &cases) in tally.strides.iter().enumerate() {
        assert!(
            cases >= floor / 4,
            "{cases} cases of {} feature words",
            words + 1
        );
    }
}

// ---------------------------------------------------------------------
// add_rows at size
// ---------------------------------------------------------------------

/// Inputs of the 462-leaf tree: `z` = "at least five of f0..f10 are
/// set" over the full truth table (a monotone function, so every node
/// has an improving split). Features 10..13 are noise the seed rows
/// leave at 0.
fn majority_row(key: u32, noise: [bool; 3]) -> (Vec<bool>, bool) {
    let mut features: Vec<bool> = (0..10).map(|b| (key >> b) & 1 == 1).collect();
    features.extend(noise);
    (features, key.count_ones() >= 5)
}

fn majority_tree() -> Lockstep {
    let mut both = Lockstep::new(&spec(13, 0));
    for key in 0..1024 {
        let (features, target) = majority_row(key, [false; 3]);
        both.push(features, target);
    }
    both.fit().unwrap();
    assert_eq!(both.packed.leaves().len(), 462);
    both
}

#[test]
fn a_large_batch_resplits_in_first_touch_order_and_bills_leaves_only() {
    let mut both = majority_tree();
    let nodes_before = both.packed.node_count();
    // 2 000 rows in one batch, visiting the leaves in a scrambled
    // order; a row with f10 set disagrees with its leaf, which then
    // has to re-split on f10.
    let mut batch = Vec::new();
    let mut touched = Vec::new();
    let mut contradicted = Vec::new();
    for i in 0..2000u32 {
        let flipped = i % 3 == 0;
        let (features, target) = majority_row((i * 331) % 1024, [flipped, i % 5 == 0, i % 7 == 0]);
        let leaf = both.packed.classify(&features);
        if !touched.contains(&leaf) {
            touched.push(leaf);
        }
        if flipped {
            contradicted.push(leaf);
        }
        batch.push(both.push(features, target ^ flipped));
    }
    let first_touch: Vec<usize> = touched
        .into_iter()
        .filter(|leaf| contradicted.contains(leaf))
        .collect();
    // (a) against the reference node for node — new node ids are
    // handed out in re-split order, so equal ids are equal order — and
    // directly: the k-th leaf to be contradicted got the k-th new pair.
    assert_eq!(both.add_rows(&batch), Ok(first_touch.len()));
    assert!(first_touch.len() > 300, "{}", first_touch.len());
    for (k, &leaf) in first_touch.iter().enumerate() {
        match both.packed.nodes[leaf].kind {
            NodeKind::Split { feature, zero, one } => {
                let new = nodes_before + 2 * k;
                assert_eq!((feature, zero, one), (10, new, new + 1));
            }
            NodeKind::Leaf(_) => panic!("leaf {leaf} was contradicted but not re-split"),
        }
    }
    // (b) every node's statistics are the sums over the leaves under
    // it, although only leaves were handed row ids.
    let tree = &both.packed;
    let mut sums = vec![(0usize, 0usize); tree.node_count()];
    for leaf in tree.leaves() {
        let rows = tree.node_rows(leaf);
        let ones = rows
            .iter()
            .filter(|&&r| both.data.target(r as usize))
            .count();
        let mut cur = Some(leaf);
        while let Some(node) = cur {
            sums[node].0 += rows.len();
            sums[node].1 += ones;
            cur = tree.nodes[node].parent.map(|(parent, _)| parent);
        }
    }
    for (i, node) in tree.nodes.iter().enumerate() {
        assert_eq!((node.row_count(), node.ones), sums[i], "node {i}");
    }
    assert_eq!(tree.node(0).row_count(), 1024 + 2000);
}

#[test]
fn the_first_touched_bad_leaf_decides_the_error() {
    // Two leaves go bad in one batch: one is proved and contradicted,
    // the other receives a row identical to one of its own but for the
    // target. Whichever was touched first is the error reported.
    let contradicting = |key: u32| {
        let (features, target) = majority_row(key, [false; 3]);
        (features, !target)
    };
    for proved_first in [true, false] {
        let mut both = majority_tree();
        let (proved_row, stuck_row) = (contradicting(5), contradicting(1000));
        let proved_leaf = both.packed.classify(&proved_row.0);
        let stuck_leaf = both.packed.classify(&stuck_row.0);
        both.set_proved(proved_leaf);
        let mut rows = [proved_row, stuck_row];
        if !proved_first {
            rows.reverse();
        }
        let batch: Vec<usize> = rows
            .into_iter()
            .map(|(features, target)| both.push(features, target))
            .collect();
        // `add_rows` has already checked the result, down to the node
        // named, against the reference's.
        let result = both.add_rows(&batch);
        if proved_first {
            let node = proved_leaf;
            assert_eq!(result, Err(MineError::ProvedLeafContradicted { node }));
        } else {
            // The stuck leaf's rows split as far as they can before
            // the identical pair surfaces, at or under it.
            match result {
                Err(MineError::Contradictory { node }) => {
                    let under = std::iter::successors(Some(node), |&n| {
                        both.packed.nodes[n].parent.map(|(parent, _)| parent)
                    });
                    assert!(under.into_iter().any(|n| n == stuck_leaf));
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
