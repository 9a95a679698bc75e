//! Canonical counterexamples from pristine prefixes, replayed on each
//! session's one scratch unrolling: the traces must be those of the
//! one-shot [`bmc`] on a fresh unrolling, under every dispatch, after
//! any session history and whatever the scratch held before, and the
//! prefixes themselves must stay pristine. A session assumes a violation's atom
//! literals where the one-shot engines assume one AND-chain literal;
//! the results must not tell the two apart.

use super::*;
use crate::bmc::{bmc, canonical_cex, k_induction};
use crate::prop::{BitAtom, CexTrace, ConsequentKind};
use crate::testgen::{
    cases, random_module, random_property, random_temporal_property, seeded_recipe, Recipe,
};
use crate::Unroller;
use gm_rtl::SignalId;
use gm_sat::SolverStats;
use proptest::prelude::*;
use std::sync::Barrier;

/// Window starts the SAT backends may scan: enough for the three-register
/// modules below to reach every state.
const BOUND: u32 = 6;

fn checker(module: &Module, backend: Backend) -> Checker {
    Checker::new(module).unwrap().with_backend(backend)
}

/// Decides random window and temporal properties of depth 0–3 on random
/// latch-free and latched modules through both SAT backends, inline and
/// sharded, and requires the two dispatches to agree — results,
/// engine-query totals — and every violated result to be
/// exactly the one-shot [`bmc`] result. Returns how many violations
/// were compared, how many of those sat beyond the first window start
/// (where the scan has to extend the cloned prefix), and how many
/// belonged to multi-consequent temporal properties.
fn canonical_sweep(bytes: &[u8]) -> Result<(usize, usize, usize), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let (mut violated, mut late, mut multi) = (0, 0, 0);
    for (inputs, regs) in [(3usize, 0usize), (1, 1), (2, 3), (4, 3)] {
        let (m, sigs) = random_module(inputs, regs, &mut recipe);
        let windows: Vec<WindowProperty> = (0..6)
            .map(|_| random_property(&sigs, recipe.next() as u32 % 4, &mut recipe))
            .collect();
        let temporals: Vec<WindowProperty> = (0..4)
            .map(|_| random_temporal_property(&sigs, recipe.next() as u32 % 4, &mut recipe))
            .collect();
        for backend in [
            Backend::Bmc { bound: BOUND },
            Backend::KInduction { max_k: BOUND },
        ] {
            let mut off = checker(&m, backend);
            let mut fixed = checker(&m, backend).with_shards(2);
            let sequential = off.check_batch(&windows).unwrap();
            prop_assert_eq!(
                &fixed.check_batch(&windows).unwrap(),
                &sequential,
                "2 shards diverged"
            );
            let temporal = off.check_batch(&temporals).unwrap();
            prop_assert_eq!(
                &fixed.check_batch(&temporals).unwrap(),
                &temporal,
                "2 shards diverged on the temporal batch"
            );
            prop_assert_eq!(
                fixed.session_stats().engine_queries(),
                off.session_stats().engine_queries()
            );
            let blasted = off.blasted();
            let one_shot = windows
                .iter()
                .map(|p| (p.depth(), false, bmc(blasted, p, BOUND)))
                .chain(temporals.iter().map(|p| {
                    let multi = p.consequents.len() > 1;
                    (p.depth(), multi, bmc(blasted, p, BOUND))
                }));
            for (got, (depth, is_multi, want)) in sequential.iter().chain(&temporal).zip(one_shot) {
                if let CheckResult::Violated(cex) = got {
                    prop_assert_eq!(got, &want, "trace differs from the one-shot bmc()");
                    violated += 1;
                    late += usize::from(cex.len() > depth as usize + 1);
                    multi += usize::from(is_multi);
                } else {
                    prop_assert!(!matches!(want, CheckResult::Violated(_)));
                }
            }
        }
    }
    Ok((violated, late, multi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pristine_prefix_traces_match_the_one_shot_bmc(
        bytes in prop::collection::vec(any::<u8>(), 256..1024),
    ) {
        canonical_sweep(&bytes)?;
    }
}

/// Properties one session decides per module in [`history_sweep`], and
/// how many of them count as its history: results are compared from the
/// first, and tallied once the session holds `HISTORY` earlier
/// properties' gates, learnt clauses and saved phases.
const PER_SESSION: usize = 64;
const HISTORY: usize = 50;

/// `prop` through both SAT engines: what `session` answers next to what
/// the one-shot engine answers on a fresh unrolling.
fn session_and_one_shot(
    session: &mut CheckSession,
    blasted: &Blasted,
    prop: &WindowProperty,
) -> [(&'static str, CheckResult, CheckResult); 2] {
    [
        (
            "bmc",
            session.bmc(prop, BOUND, None).unwrap(),
            bmc(blasted, prop, BOUND),
        ),
        (
            "k_induction",
            session.k_induction(prop, BOUND, None).unwrap(),
            k_induction(blasted, prop, BOUND),
        ),
    ]
}

/// One [`CheckSession`] per random module decides `PER_SESSION` random
/// window and temporal properties, each through both SAT engines, and
/// every result — trace included — must be the one-shot engine's.
/// Returns how many results were compared with at least `HISTORY`
/// properties behind them: violated, proved.
fn history_sweep(bytes: &[u8]) -> Result<(usize, usize), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let (mut violated, mut proved) = (0, 0);
    for (inputs, regs) in [(3usize, 0usize), (2, 3), (4, 3)] {
        let (m, sigs) = random_module(inputs, regs, &mut recipe);
        let blasted = Arc::new(checker(&m, Backend::Auto).blasted().clone());
        let mut session = CheckSession::new(blasted.clone());
        let mut traces = 0;
        for i in 0..PER_SESSION {
            let depth = recipe.next() as u32 % 4;
            let compared = if i % 2 == 0 {
                let prop = random_property(&sigs, depth, &mut recipe);
                session_and_one_shot(&mut session, &blasted, &prop)
            } else {
                let prop = random_temporal_property(&sigs, depth, &mut recipe);
                session_and_one_shot(&mut session, &blasted, &prop)
            };
            for (engine, got, want) in compared {
                prop_assert_eq!(&got, &want, "{} after {} properties", engine, i);
                let is_violated = matches!(got, CheckResult::Violated(_));
                traces += u64::from(is_violated);
                if i >= HISTORY {
                    violated += usize::from(is_violated);
                    proved += usize::from(got.is_proved());
                }
            }
        }
        // Every trace handed out was a replay on a pristine prefix.
        prop_assert_eq!(session.stats().cex_canonicalized, traces);
    }
    Ok((violated, proved))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_session_with_history_returns_the_one_shot_results(
        bytes in prop::collection::vec(any::<u8>(), 512..2048),
    ) {
        history_sweep(&bytes)?;
    }
}

#[test]
fn history_sweep_sees_late_violations_and_late_proofs() {
    let (mut violated, mut proved) = (0, 0);
    for seed in 0u64..4 {
        let (v, p) = history_sweep(&seeded_recipe(seed, 1500)).unwrap();
        violated += v;
        proved += p;
    }
    assert!(
        violated >= 100,
        "{violated} violated with history behind them"
    );
    assert!(proved >= 20, "{proved} proved with history behind them");
}

/// Properties one session decides per module in [`scratch_reuse_sweep`].
const PER_SCRATCH_SESSION: usize = 48;

/// What [`scratch_reuse_sweep`] compared: violated traces by window
/// depth, and how many of them sat beyond the first window start.
#[derive(Debug, Default)]
struct ScratchTally {
    by_depth: [usize; 4],
    late: usize,
}

/// `prop`'s canonical trace within [`BOUND`] starts, scanned on
/// `scratch` refilled from `prefixes`' entry for its depth.
fn canonical_trace(
    prefixes: &PristinePrefixes,
    prop: &WindowProperty,
    scratch: &mut Unroller,
) -> Option<CexTrace> {
    let depth = prop.depth() as usize;
    let frames = |start: usize| start + depth + 1;
    let blasted = prefixes.blasted();
    let layout = blasted.input_layout.clone();
    let mut bits = vec![0; frames(BOUND as usize) * layout.words()];
    let start = canonical_cex(&prefixes.get(depth, 0), prop, BOUND, scratch, &mut bits)?;
    bits.truncate(frames(start) * layout.words());
    Some(CexTrace::new(layout, frames(start), bits))
}

/// `prop`'s canonical trace on a fresh prefix and a fresh scratch: what
/// a session's reused scratch must reproduce.
fn fresh_canonical(blasted: &Arc<Blasted>, prop: &WindowProperty) -> Option<CexTrace> {
    let mut scratch = Unroller::new(blasted.clone(), false);
    canonical_trace(&PristinePrefixes::new(blasted.clone()), prop, &mut scratch)
}

/// One session per random latched module decides window and temporal
/// properties of depths 0–3 through BMC, so one scratch unrolling is
/// refilled from prefixes of every depth, after scans that stopped at
/// every start. Every violated trace must be the one [`canonical_trace`]
/// finds on a fresh prefix with a fresh scratch, and the one-shot
/// [`bmc`]'s.
fn scratch_reuse_sweep(bytes: &[u8], tally: &mut ScratchTally) -> Result<(), TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    for (inputs, regs) in [(1usize, 2usize), (2, 3), (3, 3)] {
        let (m, sigs) = random_module(inputs, regs, &mut recipe);
        let blasted = Arc::new(checker(&m, Backend::Auto).blasted().clone());
        let mut session = CheckSession::new(blasted.clone());
        for i in 0..PER_SCRATCH_SESSION {
            let depth = recipe.next() as u32 % 4;
            let prop = if i % 2 == 0 {
                random_property(&sigs, depth, &mut recipe)
            } else {
                random_temporal_property(&sigs, depth, &mut recipe)
            };
            let got = session.bmc(&prop, BOUND, None).unwrap();
            let CheckResult::Violated(cex) = &got else {
                continue;
            };
            let fresh = fresh_canonical(&blasted, &prop);
            prop_assert_eq!(Some(cex), fresh.as_ref(), "property {}", i);
            prop_assert_eq!(&got, &bmc(&blasted, &prop, BOUND), "property {}", i);
            tally.by_depth[prop.depth() as usize] += 1;
            tally.late += usize::from(cex.len() > prop.depth() as usize + 1);
        }
        prop_assert_eq!(
            session.scratch().is_some(),
            session.stats().cex_canonicalized > 0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn a_reused_scratch_returns_the_fresh_prefix_traces(
        bytes in prop::collection::vec(any::<u8>(), 256..1024),
    ) {
        scratch_reuse_sweep(&bytes, &mut ScratchTally::default())?;
    }
}

/// The oracle above reaches every depth and late starts, and `b18_lite`
/// — whose depth-2 properties fail only in the window after reset —
/// refills one scratch from three prefixes in turn.
#[test]
fn a_reused_scratch_sees_every_depth_and_late_starts() {
    let mut tally = ScratchTally::default();
    for seed in 0u64..8 {
        scratch_reuse_sweep(&seeded_recipe(seed, 600), &mut tally).unwrap();
    }
    println!("{tally:?}");
    assert!(
        tally.by_depth.iter().all(|&n| n >= 20),
        "violations by depth: {:?}",
        tally.by_depth
    );
    assert!(
        tally.late >= 20,
        "{} violated beyond the first start",
        tally.late
    );

    let m = gm_designs::b18_lite();
    let blasted = Arc::new(checker(&m, Backend::Auto).blasted().clone());
    let mut session = CheckSession::new(blasted.clone());
    let mut late = 0;
    for prop in b18_violated(&m, 8) {
        let got = session.bmc(&prop, BOUND, None).unwrap();
        let CheckResult::Violated(cex) = &got else {
            panic!("{prop:?} holds");
        };
        assert_eq!(Some(cex), fresh_canonical(&blasted, &prop).as_ref());
        assert_eq!(got, bmc(&blasted, &prop, BOUND));
        late += usize::from(cex.len() > prop.depth() as usize + 1);
    }
    assert_eq!(session.stats().cex_canonicalized, 24);
    assert_eq!(late, 8, "the depth-2 properties fail at start 1");
}

/// Property shapes [`assumed_violation_sweep`] decides, by how a session
/// assumes their violation: a [`WindowProperty`], then temporal
/// properties of kind `Any`, of kind `All` with one consequent and of
/// kind `All` with two or three. Only the last needs a gate.
const SHAPES: usize = 4;

/// Properties one session decides per module in [`assumed_violation_sweep`].
const PER_ASSUMED_SESSION: usize = 40;

/// `prop` with atoms a session must assume as they are, by `kind`: none
/// added (0); `constant` at offset 0 (1) — a register, constant on the
/// reset unrolling's frame 0, or the constant output `tied`; the first
/// antecedent atom repeated (2) or next to its negation (3); no
/// antecedent at all (4).
fn degenerate(
    mut prop: WindowProperty,
    kind: usize,
    constant: SignalId,
    sigs: &[SignalId],
    recipe: &mut Recipe,
) -> WindowProperty {
    let atom = |sig: SignalId, recipe: &mut Recipe| BitAtom::new(sig, 0, 0, recipe.next() & 1 == 1);
    match kind {
        1 => prop.antecedent.push(atom(constant, recipe)),
        2 | 3 => {
            if prop.antecedent.is_empty() {
                prop.antecedent
                    .push(atom(sigs[recipe.next() % sigs.len()], recipe));
            }
            let first = prop.antecedent[0];
            let value = if kind == 2 { first.value } else { !first.value };
            prop.antecedent.push(BitAtom { value, ..first });
        }
        4 => prop.antecedent.clear(),
        _ => {}
    }
    prop
}

/// `window` as a temporal property of shape `shape` (1–3 of [`SHAPES`]),
/// extra consequents at offsets up to `depth`.
fn shaped(
    window: WindowProperty,
    shape: usize,
    sigs: &[SignalId],
    depth: u32,
    recipe: &mut Recipe,
) -> WindowProperty {
    let mut consequents = vec![window.consequents[0]];
    if shape != 2 {
        for _ in 0..1 + recipe.next() % 2 {
            let sig = sigs[recipe.next() % sigs.len()];
            let offset = recipe.next() as u32 % (depth + 1);
            consequents.push(BitAtom::new(sig, 0, offset, recipe.next() & 1 == 1));
        }
    }
    WindowProperty {
        antecedent: window.antecedent,
        consequents,
        kind: if shape == 1 {
            ConsequentKind::Any
        } else {
            ConsequentKind::All
        },
    }
}

/// One [`CheckSession`] per random module decides properties of every
/// shape with [`degenerate`] atoms, each through both SAT engines, and
/// every result — trace included — must be the one-shot engine's, which
/// poses the violation as one activation literal where the session
/// assumes the atoms' literals. The base unrolling's frames are laid
/// down first, so a property whose violation needs no gate (every shape
/// but `All` of several consequents) must leave its variable count
/// where it was. Returns, by shape, how many results were violated and
/// how many proved.
fn assumed_violation_sweep(bytes: &[u8]) -> Result<[[usize; 2]; SHAPES], TestCaseError> {
    let mut recipe = Recipe::new(bytes);
    let mut tally = [[0; 2]; SHAPES];
    for (inputs, regs) in [(3usize, 0usize), (2, 3), (4, 3)] {
        let (m, sigs) = random_module(inputs, regs, &mut recipe);
        let constant = if regs > 0 {
            sigs[inputs]
        } else {
            *sigs.last().expect("`tied` comes last")
        };
        let blasted = Arc::new(checker(&m, Backend::Auto).blasted().clone());
        let mut session = CheckSession::new(blasted.clone());
        // Every window either engine asks about: starts up to BOUND,
        // depths up to 3.
        session.base_unroller().ensure_frame(BOUND as usize + 3);
        for i in 0..PER_ASSUMED_SESSION {
            let depth = recipe.next() as u32 % 4;
            let window = random_property(&sigs, depth, &mut recipe);
            let window = degenerate(window, i % 5, constant, &sigs, &mut recipe);
            let shape = i % SHAPES;
            let vars = session.base_unroller().solver().num_vars();
            let compared = if shape == 0 {
                session_and_one_shot(&mut session, &blasted, &window)
            } else {
                let prop = shaped(window, shape, &sigs, depth, &mut recipe);
                session_and_one_shot(&mut session, &blasted, &prop)
            };
            if shape < 3 {
                prop_assert_eq!(
                    session.base_unroller().solver().num_vars(),
                    vars,
                    "shape {} allocated base-query variables after {} properties",
                    shape,
                    i
                );
            }
            for (engine, got, want) in compared {
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} on shape {} after {} properties",
                    engine,
                    shape,
                    i
                );
                tally[shape][0] += usize::from(matches!(got, CheckResult::Violated(_)));
                tally[shape][1] += usize::from(got.is_proved());
            }
        }
    }
    Ok(tally)
}

/// Recipes for [`assumed_violation_sweep`]: 64 cases in tier-1 (see
/// [`crate::testgen::cases`]).
fn assumed_recipes() -> (u32, impl Strategy<Value = Vec<u8>>) {
    (cases(64), prop::collection::vec(any::<u8>(), 512..2048))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(assumed_recipes().0))]

    #[test]
    fn assumed_violations_return_the_one_shot_results(bytes in assumed_recipes().1) {
        assumed_violation_sweep(&bytes)?;
    }
}

/// The oracle above is only as strong as what its cases reach: over the
/// very same recipes, every shape must have been violated and proved
/// ten times a case.
#[test]
fn assumed_violation_sweep_violates_and_proves_every_shape() {
    let (cases, recipes) = assumed_recipes();
    let mut tally = [[0; 2]; SHAPES];
    for case in 0..cases {
        let mut rng =
            proptest::rng_for_case("assumed_violations_return_the_one_shot_results", case);
        let got = assumed_violation_sweep(&recipes.generate(&mut rng)).unwrap();
        for (total, n) in tally.iter_mut().flatten().zip(got.iter().flatten()) {
            *total += n;
        }
    }
    println!("{tally:?}");
    // Thirty properties of each shape a case, each decided twice.
    let floor = 10 * cases as usize;
    for (shape, [violated, proved]) in tally.into_iter().enumerate() {
        assert!(
            violated >= floor && proved >= floor,
            "shape {shape}: {violated} violated, {proved} proved in {cases} cases"
        );
    }
}

#[test]
fn canonical_sweep_sees_violations_at_and_beyond_the_first_start() {
    let (mut violated, mut late, mut multi) = (0, 0, 0);
    for seed in 0u64..12 {
        let (v, l, t) = canonical_sweep(&seeded_recipe(seed, 300)).unwrap();
        violated += v;
        late += l;
        multi += t;
    }
    assert!(violated >= 200, "{violated} violated");
    assert!(late >= 20, "{late} violated beyond the first window start");
    assert!(multi >= 20, "{multi} violated multi-consequent properties");
}

/// `b18_lite` properties violated at depths 0, 1 and 2, `variants` of
/// each (distinct, so no batch holds a duplicate).
fn b18_violated(m: &Module, variants: u32) -> Vec<WindowProperty> {
    let go = m.require("go").unwrap();
    let sel = m.require("sel").unwrap();
    let done = m.require("done").unwrap();
    let a_in = m.require("a_in").unwrap();
    (0..variants)
        .flat_map(|i| {
            let extra = BitAtom::new(a_in, i % 4, 0, i < 4);
            [
                // Depth 0: go |-> sel.
                WindowProperty::implication(
                    vec![BitAtom::new(go, 0, 0, true), extra],
                    BitAtom::new(sel, 0, 0, true),
                ),
                // Depth 1: go@0 |-> done@1 (done needs two more phases).
                WindowProperty::implication(
                    vec![BitAtom::new(go, 0, 0, true), extra],
                    BitAtom::new(done, 0, 1, true),
                ),
                // Depth 2: go@0 |-> !done@2 holds in the window at
                // reset and fails in the next one (W1 -> XFER -> done).
                WindowProperty::implication(
                    vec![BitAtom::new(go, 0, 0, true), extra],
                    BitAtom::new(done, 0, 2, false),
                ),
            ]
        })
        .collect()
}

#[test]
fn prefixes_are_built_once_per_depth_and_never_solved_on() {
    let m = gm_designs::b18_lite();
    let mut c = checker(&m, Backend::KInduction { max_k: 4 });
    assert!(
        c.prefixes.snapshot().is_empty(),
        "no prefix before a violation"
    );
    let first = c.check_batch(&b18_violated(&m, 1)).unwrap();
    assert!(first.iter().all(|r| matches!(r, CheckResult::Violated(_))));
    let built = c.prefixes.snapshot();
    assert_eq!(
        built.iter().map(|(depth, _)| *depth).collect::<Vec<_>>(),
        [0, 1, 2]
    );
    // More violations — sequential, sharded and after a recycle — keep
    // using the very same prefixes. The first three repeat the batch
    // above and are decided (and canonicalized) again.
    let more = b18_violated(&m, 8);
    c.check_batch(&more[..9]).unwrap();
    let mut c = c.with_shards(4);
    c.check_batch(&more[9..]).unwrap();
    assert_eq!(c.session_stats().cex_canonicalized, 3 + 24);
    c.reset_for_reuse();
    let mut c = c.with_shards(2);
    c.check_batch(&more).unwrap();
    let after = c.prefixes.snapshot();
    assert_eq!(after.len(), built.len());
    for ((depth, before), (_, now)) in built.iter().zip(&after) {
        assert!(Arc::ptr_eq(before, now), "depth {depth} prefix was rebuilt");
        assert_eq!(now.frame_count(), depth + 1);
        // Never solved on: still the solver a fresh unrolling of these
        // frames has (whose one propagation is the constant-true unit).
        let mut fresh = Unroller::new(Arc::new(c.blasted().clone()), false);
        fresh.ensure_frame(*depth);
        let mut copy = Unroller::clone(now);
        let stats = copy.solver().stats();
        assert_eq!(stats, fresh.solver().stats(), "depth {depth}");
        assert_eq!(
            SolverStats {
                propagations: 0,
                ..stats
            },
            SolverStats::default(),
            "depth {depth} prefix was solved on"
        );
        assert_eq!(copy.solver().num_clauses(), fresh.solver().num_clauses());
    }
    // Prefixes belong to no session.
    assert!(c.session_stats().unrollers_built <= 2 * 3);
}

#[test]
fn four_workers_sharing_cold_prefixes_match_the_sequential_results() {
    let m = gm_designs::b18_lite();
    let blasted = Arc::new(checker(&m, Backend::Auto).blasted().clone());
    let props = b18_violated(&m, 8);
    let sequential: Vec<Option<crate::CexTrace>> = props
        .iter()
        .map(|p| {
            let fresh = PristinePrefixes::new(blasted.clone());
            let mut scratch = Unroller::new(blasted.clone(), false);
            canonical_trace(&fresh, p, &mut scratch)
        })
        .collect();
    for (p, cex) in props.iter().zip(&sequential) {
        let one_shot = bmc(&blasted, p, BOUND);
        assert_eq!(cex.clone().map(CheckResult::Violated), Some(one_shot));
    }

    const THREADS: usize = 4;
    let shared = PristinePrefixes::new(blasted.clone());
    let barrier = Barrier::new(THREADS);
    let mut parallel: Vec<Option<crate::CexTrace>> = vec![None; props.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, props, barrier) = (&shared, &props, &barrier);
                scope.spawn(move || {
                    let mut scratch = Unroller::new(shared.blasted().clone(), false);
                    barrier.wait();
                    (t..props.len())
                        .step_by(THREADS)
                        .map(|i| (i, canonical_trace(shared, &props[i], &mut scratch)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, cex) in worker.join().expect("worker panicked") {
                parallel[i] = cex;
            }
        }
    });
    assert_eq!(parallel, sequential);
    assert_eq!(
        shared.snapshot().len(),
        3,
        "one prefix per depth, not per worker"
    );
}

/// A span records into its own thread's sink, so the threads a batch
/// hands work to push the caller's: whether the extractions run on the
/// helper and the deciding thread of the main session or on shard
/// workers, a recording pushed on the calling thread sees every query
/// and every extraction, once.
#[test]
fn spans_follow_the_work_onto_helper_threads() {
    let m = gm_designs::b18_lite();
    let props = b18_violated(&m, 8);
    for shards in [1, 2] {
        let mut c = checker(&m, Backend::KInduction { max_k: 2 }).with_shards(shards);
        let sink = gm_trace::TraceSink::new();
        let results = {
            let _sink = gm_trace::push_thread_sink(sink.clone());
            c.check_batch(&props).unwrap()
        };
        assert!(results
            .iter()
            .all(|r| matches!(r, CheckResult::Violated(_))));
        let here = gm_trace::current_tid();
        let events = sink.events();
        let elsewhere = |name: &str| {
            (events.iter().filter(|e| e.name == name))
                .map(|e| e.tid != here)
                .collect::<Vec<_>>()
        };
        let extractions = elsewhere("mc.canonical_cex");
        assert_eq!(extractions.len(), props.len(), "{shards} shards");
        if shards == 1 {
            // The deciding thread and its one helper share the queue:
            // every extraction is recorded once, on one of the two.
            let cex = || events.iter().filter(|e| e.name == "mc.canonical_cex");
            let tids: std::collections::BTreeSet<u32> = cex().map(|e| e.tid).collect();
            assert!(tids.len() <= 2, "{tids:?}");
            assert!(tids.iter().filter(|&&t| t != here).count() <= 1, "{tids:?}");
            let arg = |e: &gm_trace::TraceEvent, key: &str| match e.args.iter().find(|a| a.0 == key)
            {
                Some((_, gm_trace::ArgValue::U64(n))) => *n as usize,
                other => panic!("{key} is {other:?}"),
            };
            let mut recorded: Vec<(usize, usize)> =
                cex().map(|e| (arg(e, "depth"), arg(e, "starts"))).collect();
            let mut expected: Vec<(usize, usize)> = (props.iter().zip(&results))
                .map(|(p, r)| match r {
                    CheckResult::Violated(t) => {
                        let depth = p.depth() as usize;
                        (depth, t.len() - depth)
                    }
                    other => panic!("{other:?}"),
                })
                .collect();
            recorded.sort_unstable();
            expected.sort_unstable();
            assert_eq!(recorded, expected);
        } else {
            assert!(extractions.iter().all(|&e| e), "{shards} shards");
        }
        let queries = elsewhere("mc.sat_query");
        assert_eq!(queries.len() as u64, c.session_stats().sat_queries);
        assert!(
            queries.iter().all(|&e| e == (shards > 1)),
            "{shards} shards"
        );
    }
}
