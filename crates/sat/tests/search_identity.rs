//! Search-identity goldens: the solver's *search*, not just its answers.
//!
//! `gm_mc` publishes canonical counterexamples extracted from this
//! solver's models, so the exact sequence of decisions, propagations and
//! learnt clauses is observable behaviour: a storage or propagation
//! rewrite that is "equivalent" but visits watchers in another order
//! changes closure trajectories downstream. This suite pins, for a fixed
//! corpus, every [`SolverStats`] counter and an FNV-1a hash of each
//! model. A hot-path change that claims to preserve the search must
//! leave every row untouched.
//!
//! On a *deliberate* search change (a new heuristic, blocker literals,
//! clause-database reduction), re-pin: run
//! `cargo test -p gm_sat --test search_identity`, paste the rows each
//! failing test prints over the constants below, and re-pin whatever
//! depends on canonical traces downstream (see the README's SAT-stack
//! section).

use gm_sat::{Lit, SolveResult, Solver, SolverStats, Var};

/// `(conflicts, decisions, propagations, restarts, learnt, model_fnv)`;
/// `model_fnv` is 0 for an unsatisfiable instance.
type Row = (u64, u64, u64, u64, u64, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over the model bit of every variable, in index order.
fn model_fnv(s: &Solver) -> u64 {
    let mut h = FNV_OFFSET;
    for v in 0..s.num_vars() {
        let bit = s.model_var(Var::from_index(v));
        h = (h ^ u64::from(bit)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn row(stats: SolverStats, model: u64) -> Row {
    (
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.restarts,
        stats.learnt,
        model,
    )
}

/// Compares against the pinned rows; on mismatch prints the full actual
/// table in paste-ready form.
fn assert_rows(name: &str, actual: &[Row], pinned: &[Row]) {
    if actual == pinned {
        return;
    }
    let mut table = String::new();
    for r in actual {
        table.push_str(&format!(
            "    ({}, {}, {}, {}, {}, {:#018x}),\n",
            r.0, r.1, r.2, r.3, r.4, r.5
        ));
    }
    let first = actual
        .iter()
        .zip(pinned)
        .position(|(a, p)| a != p)
        .unwrap_or(actual.len().min(pinned.len()));
    panic!(
        "{name}: the search changed (first differing row: {first}).\n\
         If that is deliberate, re-pin with:\n{table}"
    );
}

/// SplitMix64: the corpus generator (self-contained, so the corpus can
/// never drift with a dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

#[test]
fn pigeonhole_7_into_6() {
    let mut s = Solver::new();
    let holes = 6;
    let p: Vec<Vec<Var>> = (0..=holes)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for pigeon in &p {
        let c: Vec<Lit> = pigeon.iter().map(|v| v.positive()).collect();
        s.add_clause(&c);
    }
    #[allow(clippy::needless_range_loop)] // j spans two rows at once
    for j in 0..holes {
        for i1 in 0..=holes {
            for i2 in (i1 + 1)..=holes {
                s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(s.last_call_stats(), s.stats());
    assert_rows("pigeonhole_7_into_6", &[row(s.stats(), 0)], &PIGEONHOLE);
}

/// 40 uniform random 3-SAT instances at clause/variable ratio 4.26 (the
/// satisfiability threshold, where the search is longest), 50–89
/// variables.
#[test]
fn random_three_sat_at_the_threshold() {
    let mut rows = Vec::new();
    let mut sat = 0;
    for i in 0..40u64 {
        let mut rng = Rng(0x3547_0000 + i);
        let num_vars = 50 + i as usize;
        let num_clauses = (num_vars as f64 * 4.26).round() as usize;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        for _ in 0..num_clauses {
            let mut c = [vars[0].positive(); 3];
            for slot in &mut c {
                *slot = vars[rng.below(num_vars)].lit(rng.coin());
            }
            s.add_clause(&c);
        }
        let model = match s.solve() {
            SolveResult::Sat => {
                assert!(s.model_satisfies_all(), "instance {i}: bad model");
                sat += 1;
                model_fnv(&s)
            }
            SolveResult::Unsat => 0,
        };
        rows.push(row(s.stats(), model));
    }
    assert!(
        (5..=35).contains(&sat),
        "corpus should mix verdicts, got {sat}/40 satisfiable"
    );
    assert!(
        rows.iter().any(|r| r.3 > 0),
        "some instance should be hard enough to restart"
    );
    assert_rows("random_three_sat_at_the_threshold", &rows, &THREE_SAT);
}

/// One incremental session: 240 `solve_with_assumptions` calls
/// interleaved with `new_var` and `add_clause` (units, binaries,
/// ternaries and long clauses), the way an unrolling session drives the
/// solver. Every added clause is satisfied by a hidden planted
/// assignment, so the instance never goes permanently unsatisfiable and
/// every call does real work; random assumptions make roughly half the
/// calls `Unsat`. Each call's verdict, per-call stats and model are
/// folded into one hash; the cumulative stats are pinned next to it.
#[test]
fn incremental_session() {
    let mut rng = Rng(0x1ac5_e55e);
    let mut s = Solver::new();
    let mut vars: Vec<Var> = Vec::new();
    let mut planted: Vec<bool> = Vec::new();
    let mut fold = FNV_OFFSET;
    let (mut sat_calls, mut unsat_calls) = (0u32, 0u32);

    let grow = |s: &mut Solver, vars: &mut Vec<Var>, planted: &mut Vec<bool>, rng: &mut Rng| {
        vars.push(s.new_var());
        planted.push(rng.coin());
    };
    let add = |s: &mut Solver, vars: &[Var], planted: &[bool], rng: &mut Rng, width: usize| {
        let mut c: Vec<Lit> = (0..width)
            .map(|_| vars[rng.below(vars.len())].lit(rng.coin()))
            .collect();
        // Plant: at least one literal agrees with the hidden assignment.
        if !c
            .iter()
            .any(|l| planted[l.var().index()] == l.is_positive())
        {
            let k = rng.below(width);
            c[k] = !c[k];
        }
        s.add_clause(&c);
    };

    for _ in 0..120 {
        grow(&mut s, &mut vars, &mut planted, &mut rng);
    }
    for _ in 0..500 {
        add(&mut s, &vars, &planted, &mut rng, 3);
    }
    for call in 0..240u32 {
        // Grow the instance between calls.
        for _ in 0..rng.below(3) {
            grow(&mut s, &mut vars, &mut planted, &mut rng);
        }
        for _ in 0..(2 + rng.below(5)) {
            let width = match rng.below(10) {
                0 => 1,
                1 | 2 => 2,
                3..=7 => 3,
                _ => 4 + rng.below(6),
            };
            // Units only on recent variables, so they do not collapse
            // the whole instance.
            if width == 1 {
                let v = vars.len() - 1 - rng.below(3);
                s.add_clause(&[vars[v].lit(planted[v])]);
            } else {
                add(&mut s, &vars, &planted, &mut rng, width);
            }
        }
        let assumptions: Vec<Lit> = (0..1 + rng.below(4))
            .map(|_| vars[rng.below(vars.len())].lit(rng.coin()))
            .collect();
        let res = s.solve_with_assumptions(&assumptions);
        let delta = s.last_call_stats();
        fnv_u64(&mut fold, u64::from(call));
        fnv_u64(&mut fold, u64::from(res == SolveResult::Sat));
        for x in [
            delta.conflicts,
            delta.decisions,
            delta.propagations,
            delta.restarts,
            delta.learnt,
        ] {
            fnv_u64(&mut fold, x);
        }
        if res == SolveResult::Sat {
            assert!(s.model_satisfies_all(), "call {call}: bad model");
            for &a in &assumptions {
                assert!(s.model_value(a), "call {call}: assumption {a} not honoured");
            }
            fnv_u64(&mut fold, model_fnv(&s));
            sat_calls += 1;
        } else {
            unsat_calls += 1;
        }
    }
    // The planted assignment keeps the clause set itself satisfiable.
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(
        sat_calls >= 40 && unsat_calls >= 40,
        "session should mix verdicts: {sat_calls} sat / {unsat_calls} unsat"
    );
    assert_rows("incremental_session", &[row(s.stats(), fold)], &INCREMENTAL);
}

// ---------------------------------------------------------------------
// Pinned rows. Captured at commit 8d8db8d (the `Vec<Clause{Vec<Lit>}>`
// solver), before the flat-arena rewrite.
// ---------------------------------------------------------------------

const PIGEONHOLE: [Row; 1] = [(804, 996, 11023, 7, 803, 0x0000000000000000)];

const THREE_SAT: [Row; 40] = [
    (26, 26, 320, 0, 25, 0x0000000000000000),
    (10, 21, 174, 0, 10, 0xbd77a45ce5569c0d),
    (58, 74, 817, 0, 57, 0x0000000000000000),
    (24, 42, 376, 0, 24, 0xe564c823529a2f26),
    (31, 36, 445, 0, 30, 0x0000000000000000),
    (80, 96, 1221, 1, 79, 0x0000000000000000),
    (14, 27, 256, 0, 14, 0x24fa5238a091b876),
    (27, 52, 471, 0, 27, 0x5ccad34d9fe45d55),
    (82, 91, 1310, 1, 82, 0x19fab57d45ead9ee),
    (28, 29, 402, 0, 27, 0x0000000000000000),
    (48, 54, 789, 0, 47, 0x0000000000000000),
    (50, 70, 781, 0, 50, 0x8202778746f17522),
    (69, 85, 1212, 1, 68, 0x0000000000000000),
    (45, 52, 789, 0, 44, 0x0000000000000000),
    (33, 69, 537, 0, 33, 0x34e78f11d8bc40e0),
    (119, 131, 2101, 1, 118, 0x0000000000000000),
    (81, 87, 1480, 1, 80, 0x0000000000000000),
    (133, 165, 2254, 2, 132, 0x0000000000000000),
    (18, 27, 358, 0, 18, 0x41255f9529b4c016),
    (143, 168, 2592, 2, 142, 0x0000000000000000),
    (208, 248, 3775, 2, 207, 0x0000000000000000),
    (61, 71, 1155, 0, 60, 0x0000000000000000),
    (2, 27, 98, 0, 2, 0xb0dd8a19ca296295),
    (33, 64, 635, 0, 33, 0x784b26d9a4a43a12),
    (145, 188, 3050, 2, 145, 0xf2de0ae57edd7edb),
    (92, 99, 1628, 1, 91, 0x0000000000000000),
    (51, 73, 1087, 0, 51, 0x403b255e99efe6e7),
    (132, 145, 2540, 1, 131, 0x0000000000000000),
    (26, 49, 458, 0, 26, 0xcee3c5282b652841),
    (164, 204, 3490, 2, 164, 0x7292ceea09efb47f),
    (133, 161, 2634, 2, 132, 0x0000000000000000),
    (134, 169, 2772, 2, 133, 0x0000000000000000),
    (161, 207, 3511, 2, 161, 0x856bc0cbabbf1563),
    (170, 206, 3738, 2, 169, 0x0000000000000000),
    (258, 302, 5260, 2, 257, 0x0000000000000000),
    (233, 281, 5399, 2, 233, 0xd6c8fdf2f6206db2),
    (250, 300, 5042, 2, 249, 0x0000000000000000),
    (83, 91, 1599, 1, 82, 0x0000000000000000),
    (214, 260, 4529, 2, 213, 0x0000000000000000),
    (212, 234, 5009, 2, 211, 0x0000000000000000),
];

const INCREMENTAL: [Row; 1] = [(1298, 7490, 44648, 6, 1298, 0xbdfc90bf263ebdfc)];
