use super::*;
use gm_mine::{BitOutOfRange, MineError};
use gm_rtl::parse_verilog;

/// A target's dataset, tree and stuck state, rendered.
fn render(dataset: &Dataset, tree: &DecisionTree, stuck: &Option<MineError>) -> String {
    format!("{dataset:?}\n{tree:?}\n{stuck:?}")
}

/// How the layout leader is stuck in a scenario.
#[derive(Clone, Copy, Debug)]
enum Leader {
    /// Before the pass: the next live target cuts every trace.
    StuckBefore,
    /// By a proved leaf the pass contradicts: the cutter changes
    /// mid-pass.
    StuckMidPass,
}

/// Three bits of one register: their specs read the same cone, so
/// they share one layout, led by `q[0]`.
const SHIFT: &str = "
module shift(input clk, input rst, input [1:0] a, output reg [2:0] q);
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= {q[1:0], a[0] ^ a[1]};
endmodule";

/// One pass through the shared absorption — captured once, cut once
/// per layout — against per-target `add_trace` + `add_rows` over the
/// replayed traces, on clones of every target taken before the pass.
#[test]
fn a_shared_absorb_leaves_what_per_target_extraction_leaves() {
    let b12 = gm_designs::by_name("b12_lite").unwrap().module();
    let shift = parse_verilog(SHIFT).unwrap();
    for (m, leader, backend) in [
        (&b12, Leader::StuckBefore, SimBackend::default()),
        (&shift, Leader::StuckBefore, SimBackend::CompiledBatch(2)),
        (&shift, Leader::StuckMidPass, SimBackend::default()),
        (&shift, Leader::StuckMidPass, SimBackend::Interpreter),
    ] {
        let label = format!("{} {leader:?} {backend:?}", m.name());
        // A short seed: the trees it fits are young, and the pass
        // contradicts the leaves the leader is told are proved.
        let config = EngineConfig {
            stimulus: SeedStimulus::Random { cycles: 4 },
            sim_backend: backend,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(m, config).unwrap();
        engine.step().unwrap();
        let layout = (engine.layouts.iter().find(|l| l.len() > 2))
            .expect("same-layout targets")
            .clone();
        let lead = &mut engine.targets[layout[0]];
        let seeded = lead.dataset.len();
        match leader {
            Leader::StuckBefore => lead.stuck = Some(MineError::Contradictory { node: 0 }),
            Leader::StuckMidPass => {
                for leaf in lead.tree.leaves() {
                    lead.tree.set_proved(leaf);
                }
            }
        }
        let mut want: Vec<(Dataset, DecisionTree, Option<MineError>)> = (engine.targets.iter())
            .map(|t| (t.dataset.clone(), t.tree.clone(), t.stuck.clone()))
            .collect();

        // A pass of random segments, a short one and an empty one.
        let first = engine.suite.len();
        for seed in 0..8u64 {
            let mut stim = RandomStimulus::new(m, seed, 3 + 5 * seed);
            engine
                .suite
                .push(format!("p{seed}"), collect_vectors(&mut stim));
            if seed == 2 {
                let mut stim = RandomStimulus::new(m, 99, 2);
                engine.suite.push("short", collect_vectors(&mut stim));
                engine.suite.push("empty", Vec::new());
            }
        }
        let range = first..engine.suite.len();
        let traces = (engine.replay())
            .traces(&engine.suite, range.clone(), &mut NopObserver)
            .unwrap()
            .unwrap();
        let span = engine.targets[layout[1]].spec.span() as usize;
        assert!(traces.iter().any(|t| !t.is_empty() && t.len() < span));

        let mut short = 0;
        for (t, (dataset, tree, stuck)) in engine.targets.iter().zip(&mut want) {
            for trace in &traces {
                if stuck.is_some() {
                    break;
                }
                let rows = dataset.add_trace(&t.spec, trace);
                short += rows.short_traces;
                if let Err(e) = tree.add_rows(dataset, &rows.rows) {
                    *stuck = Some(e);
                }
            }
        }
        let short_before = engine.short_traces;
        engine.capture_replay(None, range).unwrap();
        engine.absorb_capture();
        assert_eq!(engine.short_traces - short_before, short, "{label}");
        for (ti, (t, (dataset, tree, stuck))) in engine.targets.iter().zip(&want).enumerate() {
            assert_eq!(
                render(&t.dataset, &t.tree, &t.stuck),
                render(dataset, tree, stuck),
                "{label}: target {ti}"
            );
        }
        // The leader stopped taking traces before the pass ended, and a
        // layout-mate cut the rest.
        let lead = &engine.targets[layout[0]];
        assert!(matches!(
            lead.stuck,
            Some(MineError::Contradictory { .. } | MineError::ProvedLeafContradicted { .. })
        ));
        let mate = &engine.targets[layout[1]];
        assert!(mate.stuck.is_none(), "{label}");
        assert!(mate.dataset.len() > lead.dataset.len(), "{label}");
        if let Leader::StuckMidPass = leader {
            assert!(
                lead.dataset.len() > seeded,
                "{label}: took part of the pass"
            );
        }
    }
}

#[test]
fn a_target_bit_past_its_signal_is_a_typed_error() {
    let m = parse_verilog(
        "module m(input clk, input rst, input d, output reg q);
           always @(posedge clk)
             if (rst) q <= 0; else q <= d;
         endmodule",
    )
    .unwrap();
    let q = m.require("q").unwrap();
    let config = EngineConfig {
        targets: TargetSelection::Bits(vec![(q, 0), (q, 7)]),
        ..EngineConfig::default()
    };
    let want = EngineError::Target(BitOutOfRange {
        signal: "q".to_string(),
        bit: 7,
        width: 1,
    });
    let err = Engine::new(&m, config.clone()).unwrap_err();
    assert_eq!(err, want);
    assert!(!err.retryable());
    let message = err.to_string();
    assert!(
        message.contains("`q`") && message.contains("1 bit"),
        "{message}"
    );
    let elab = elaborate(&m).unwrap();
    let checker = Checker::from_elab(&m, &elab).unwrap();
    let err = Engine::with_artifacts(&m, &elab, checker, None, config).unwrap_err();
    assert_eq!(err, want);
}

/// Every pass numbers its segments `{kind}-{iteration}-{n}` from 1 in
/// decision order — counterexamples, then temporal ones, then directed
/// winners — whatever form the suite keeps the label in: read back as
/// text, the labels of a run of several iterations are exactly that
/// sequence.
#[test]
fn segment_labels_read_back_as_their_iteration_and_place() {
    // A short seed leaves coverage for the directed variants to gain.
    let temporal = |window| EngineConfig {
        window,
        stimulus: SeedStimulus::Random { cycles: 4 },
        temporal: crate::TemporalConfig { horizon: 2 },
        refine: crate::RefineConfig {
            variants: 4,
            ..crate::RefineConfig::default()
        },
        ..EngineConfig::default()
    };
    let mut runs = vec![(
        gm_designs::by_name("b12_lite").unwrap().module(),
        EngineConfig::default(),
    )];
    for name in ["arbiter4", "b01", "b02", "b09"] {
        let info = gm_designs::by_name(name).unwrap();
        runs.push((info.module(), temporal(info.window)));
    }
    let (mut kinds_seen, mut longest) = ([false; 3], 0);
    for (m, config) in &runs {
        let outcome = Engine::new(m, config.clone()).unwrap().run().unwrap();
        longest = longest.max(outcome.iterations.len() - 1);
        let mut expected = vec!["seed".to_string()];
        for report in &outcome.iterations[1..] {
            let i = report.iteration;
            let passes = [
                ("cex", report.refuted),
                ("tcex", report.temporal_refuted),
                ("dir", report.directed_absorbed),
            ];
            for (k, (kind, count)) in passes.into_iter().enumerate() {
                kinds_seen[k] |= count > 0;
                expected.extend((1..=count).map(|n| format!("{kind}-{i}-{n}")));
            }
        }
        let labels: Vec<String> = outcome.suite.segments().map(|s| s.label).collect();
        assert_eq!(labels, expected, "{}", m.name());
    }
    assert!(longest >= 3, "{longest} iterations at most");
    assert_eq!(kinds_seen, [true; 3], "every kind of segment was labelled");
}

/// The window pass writes a leaf's property straight off the tree, and
/// reads a proved leaf's assertion back off that property: they must
/// be the assertion built from the leaf and its property, for every
/// candidate of every pass of a run.
#[test]
fn a_leaf_property_is_its_assertion_property() {
    let m = gm_designs::by_name("b12_lite").unwrap().module();
    let mut engine = Engine::new(&m, EngineConfig::default()).unwrap();
    let mut prop = WindowProperty::new(Vec::new(), Vec::new(), ConsequentKind::Any);
    let mut compared = 0;
    while let Step::Continue(_) = engine.step().unwrap() {
        for t in &engine.targets {
            for leaf in t.tree.candidate_leaves() {
                write_leaf_property(&mut prop, t, leaf);
                let assertion = gm_mine::assertion_at(&t.tree, &t.spec, leaf);
                assert_eq!(prop, assertion_property(&assertion));
                assert_eq!(leaf_assertion(&prop, t.spec.target), assertion);
                compared += 1;
            }
        }
    }
    assert!(compared > 100, "{compared}");
}
