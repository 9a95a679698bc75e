//! Pins the mining data path bit for bit on the catalog designs.
//!
//! `GOLDEN` was captured on the commit *before* the data path was
//! bit-packed (scalar `Vec<bool>` rows, per-feature split search): for
//! every output bit of four catalog designs it records the extracted
//! dataset, the fitted tree (including the partial tree a
//! `Contradictory` fit leaves behind) and the temporal candidates. A
//! change to `gm_mine` that moves any of these has changed what the
//! closure engine mines — see README "The mining data path" before
//! re-pinning.
//!
//! The second half checks that extraction does not depend on how the
//! traces were produced or fed: every simulation backend, `add_suite`
//! vs per-trace `add_trace`, traces shorter than the span, and futures
//! clipped at the trace end.

use gm_mine::{temporal_candidates, Dataset, DecisionTree, MineError, MiningSpec};
use gm_rtl::{cone_of, elaborate, Module};
use gm_sim::{collect_vectors, NopObserver, RandomStimulus, SimBackend, TestSuite};

const DESIGNS: [&str; 4] = ["arbiter4", "b12_lite", "b18_lite", "fetch_stage"];
const SEGMENTS: u64 = 64;
const CYCLES: u64 = 128;
const SEED: u64 = 0x5E_ED17;
const WINDOW: u32 = 2;
const HORIZON: u32 = 2;

/// What one output bit mined to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    design: &'static str,
    output: usize,
    rows: usize,
    /// FNV-1a over every row's feature bits, target and futures.
    data: u64,
    nodes: usize,
    leaves: usize,
    max_depth: usize,
    extended: bool,
    /// The node a `Contradictory` fit stopped at.
    stuck_at: Option<usize>,
    candidates: usize,
    /// FNV-1a over every leaf's (id, path, prediction, sorted rows) and
    /// every temporal candidate's (leaf, LTL rendering).
    mined: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }
}

fn suite_for(module: &Module, seed: u64, segments: u64, cycles: u64) -> TestSuite {
    let mut suite = TestSuite::new();
    for k in 0..segments {
        let mut stim = RandomStimulus::new(module, seed.wrapping_add(k), cycles);
        suite.push(format!("s{k}"), collect_vectors(&mut stim));
    }
    suite
}

fn output_specs(module: &Module, window: u32) -> Vec<MiningSpec> {
    let elab = elaborate(module).unwrap();
    let mut specs = Vec::new();
    for out in module.outputs() {
        let cone = cone_of(module, &elab, out);
        for bit in 0..module.signal_width(out) {
            specs.push(MiningSpec::for_output(module, &elab, &cone, bit, window));
        }
    }
    specs
}

/// Every row's feature values, target and recorded futures, in order.
fn dataset_digest(spec: &MiningSpec, data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for r in 0..data.len() {
        for f in 0..spec.features.len() {
            h.bytes(&[u8::from(data.feature(r, f))]);
        }
        h.bytes(&[u8::from(data.target(r))]);
        h.num(data.future_len(r));
        for j in 0..data.future_len(r) {
            h.bytes(&[u8::from(data.future(r, j).unwrap())]);
        }
    }
    h.0
}

fn mine(
    design: &'static str,
    output: usize,
    module: &Module,
    spec: &MiningSpec,
    suite: &TestSuite,
) -> Pin {
    let mut data = Dataset::with_horizon(HORIZON);
    data.add_suite(spec, module, suite, SimBackend::default())
        .unwrap();
    let mut tree = DecisionTree::new(spec);
    let stuck_at = match tree.fit(&data) {
        Ok(()) => None,
        Err(MineError::Contradictory { node }) => Some(node),
        Err(e) => panic!("{design}[{output}]: {e}"),
    };
    let mut h = Fnv::new();
    let leaves = tree.leaves();
    for &leaf in &leaves {
        h.num(leaf);
        for (f, v) in tree.path(leaf) {
            h.num(f);
            h.bytes(&[u8::from(v)]);
        }
        h.bytes(&[u8::from(tree.node(leaf).prediction())]);
        let mut rows = tree.node_rows(leaf).to_vec();
        rows.sort_unstable();
        h.num(rows.len());
        for r in rows {
            h.num(r as usize);
        }
    }
    let candidates = temporal_candidates(&tree, spec, &data);
    for (leaf, a) in &candidates {
        h.num(*leaf);
        h.bytes(a.to_ltl(module).as_bytes());
    }
    Pin {
        design,
        output,
        rows: data.len(),
        data: dataset_digest(spec, &data),
        nodes: tree.node_count(),
        leaves: leaves.len(),
        max_depth: tree.max_depth(),
        extended: tree.is_extended(),
        stuck_at,
        candidates: candidates.len(),
        mined: h.0,
    }
}

fn pin(
    design: &'static str,
    output: usize,
    rows: usize,
    data: u64,
    tree: (usize, usize, usize, bool, Option<usize>),
    candidates: usize,
    mined: u64,
) -> Pin {
    let (nodes, leaves, max_depth, extended, stuck_at) = tree;
    Pin {
        design,
        output,
        rows,
        data,
        nodes,
        leaves,
        max_depth,
        extended,
        stuck_at,
        candidates,
        mined,
    }
}

#[rustfmt::skip]
fn golden() -> Vec<Pin> {
    vec![
        pin("arbiter4", 0, 8000, 0xc1c8961d360ad7ed, (305, 153, 14, true, None), 33, 0x3c0727769f81de45),
        pin("arbiter4", 1, 8000, 0x64bdc2a2b4cee37b, (299, 150, 13, true, None), 30, 0xc3d3883c279c64ba),
        pin("arbiter4", 2, 8000, 0x73b3d91de82294a5, (367, 184, 14, true, None), 43, 0x6580ea1c6d51aa8b),
        pin("arbiter4", 3, 8000, 0x77d7379c19d85951, (295, 148, 14, true, None), 35, 0x67fcfe80c2cffe32),
        pin("b12_lite", 0, 8000, 0x1d6eac44a87fdbb1, (1, 1, 0, false, None), 0, 0x983e95f7af2bd7a6),
        pin("b12_lite", 1, 8000, 0xd762c3d3f06c8bcd, (1149, 575, 16, true, Some(1147)), 344, 0x0fb61db2114130ac),
        pin("b12_lite", 2, 8000, 0xf79db6504668375d, (691, 346, 15, true, None), 209, 0xf84fb35ad0be9dd6),
        pin("b12_lite", 3, 8000, 0xb6b5e4ea2ff9ad41, (497, 249, 16, true, None), 116, 0xdab5507d4b0de97d),
        pin("b18_lite", 0, 8000, 0x9eca541adfea0ba6, (4335, 2168, 15, false, None), 1559, 0x4d4820b8f08f214e),
        pin("b18_lite", 1, 8000, 0x238a3b9d650636f2, (4209, 2105, 15, false, None), 1475, 0x9a83945776537759),
        pin("b18_lite", 2, 8000, 0xb38686058c489b58, (4261, 2131, 14, false, None), 1493, 0xd5843f7b82360f0c),
        pin("b18_lite", 3, 8000, 0x30a89e0255128280, (4379, 2190, 15, false, None), 1528, 0xbc93a6fa2af968a1),
        pin("b18_lite", 4, 8000, 0x70d8f5b7ef1c8b0b, (2323, 1162, 15, false, None), 461, 0xf7a0ba2db6d6c3dd),
        pin("b18_lite", 5, 8000, 0xcf757d513e850b65, (3917, 1959, 15, false, None), 1333, 0x660f7ab1c8d75e5b),
        pin("fetch_stage", 0, 8000, 0xd3f3b61a602e7f56, (105, 53, 14, false, None), 14, 0x0f748b3c1f8ae492),
        pin("fetch_stage", 1, 8000, 0x6fd5675691e773a9, (925, 463, 15, true, None), 135, 0x470c45449f2e5f44),
        pin("fetch_stage", 2, 8000, 0x9e929617f37d29cb, (1087, 544, 16, false, None), 224, 0xdc96c4a99975d656),
        pin("fetch_stage", 3, 8000, 0xcf14a3577458b49a, (1021, 511, 16, false, None), 216, 0x15d5a8b50ab5fb60),
        pin("fetch_stage", 4, 8000, 0x79d6bb022fe0f5ff, (535, 268, 15, true, None), 88, 0x8e66296e6622edc2),
    ]
}

#[test]
fn catalog_trees_match_the_pinned_scalar_miner() {
    let mut got = Vec::new();
    for design in DESIGNS {
        let module = gm_designs::by_name(design).unwrap().module();
        let suite = suite_for(&module, SEED, SEGMENTS, CYCLES);
        for (output, spec) in output_specs(&module, WINDOW).iter().enumerate() {
            got.push(mine(design, output, &module, spec, &suite));
        }
    }
    let want = golden();
    if got != want {
        // Paste-ready, for a *deliberate* change of the mined result.
        for p in &got {
            println!(
                "        pin({:?}, {}, {}, {:#018x}, ({}, {}, {}, {}, {:?}), {}, {:#018x}),",
                p.design,
                p.output,
                p.rows,
                p.data,
                p.nodes,
                p.leaves,
                p.max_depth,
                p.extended,
                p.stuck_at,
                p.candidates,
                p.mined
            );
        }
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "mining moved (full paste-ready table printed above)");
        }
        assert_eq!(got.len(), want.len(), "output bits mined");
    }
    // The pins are only worth something if they exercise the hard
    // paths: extension, a partial tree, a clean fit.
    assert!(want.iter().any(|p| p.extended));
    assert!(want.iter().any(|p| p.stuck_at.is_some()));
    assert!(want.iter().any(|p| p.stuck_at.is_none() && p.nodes > 100));
}

#[test]
fn extraction_does_not_depend_on_backend_or_feeding() {
    // Segment lengths around every span in play (3 and 4 at window 2):
    // too short, exactly one window with nothing after it, one and two
    // cycles of future, and comfortably long.
    let lengths = [40u64, 1, 2, 3, 4, 5, 6, 17];
    for design in DESIGNS {
        let module = gm_designs::by_name(design).unwrap().module();
        let mut suite = TestSuite::new();
        for (k, &cycles) in lengths.iter().enumerate() {
            let mut stim = RandomStimulus::new(&module, SEED ^ k as u64, cycles);
            suite.push(format!("s{k}"), collect_vectors(&mut stim));
        }
        let traces = suite.run(&module, &mut NopObserver).unwrap();
        for (output, spec) in output_specs(&module, WINDOW).iter().enumerate() {
            let span = u64::from(spec.span());
            let mut reference = Dataset::with_horizon(HORIZON);
            let added = reference
                .add_suite(spec, &module, &suite, SimBackend::Interpreter)
                .unwrap();
            let short = lengths.iter().filter(|&&n| n < span).count();
            let windows: u64 = lengths.iter().map(|n| (n + 1).saturating_sub(span)).sum();
            assert_eq!(added.short_traces, short, "{design}[{output}]");
            assert_eq!(added.rows, (0..windows as usize).collect::<Vec<_>>());
            let digest = dataset_digest(spec, &reference);
            // The rows that end a trace keep only the futures it had.
            let recorded: Vec<usize> = (0..reference.len())
                .map(|r| reference.future_len(r))
                .collect();
            for clipped in 0..=HORIZON as usize {
                assert!(recorded.contains(&clipped), "{design}[{output}]: {clipped}");
            }

            for backend in [SimBackend::CompiledBatch(1), SimBackend::CompiledBatch(4)] {
                let mut data = Dataset::with_horizon(HORIZON);
                let got = data.add_suite(spec, &module, &suite, backend).unwrap();
                assert_eq!(got, added, "{design}[{output}] {backend:?}");
                assert_eq!(
                    dataset_digest(spec, &data),
                    digest,
                    "{design}[{output}] {backend:?}"
                );
            }
            let mut data = Dataset::with_horizon(HORIZON);
            let mut got = gm_mine::ExtractedRows::default();
            for trace in &traces {
                got.extend(data.add_trace(spec, trace));
            }
            assert_eq!(got, added, "{design}[{output}] per trace");
            assert_eq!(
                dataset_digest(spec, &data),
                digest,
                "{design}[{output}] per trace"
            );
        }
    }
}
