//! Criterion kernels: the per-component costs behind the refinement loop
//! (the paper's §7 runtime discussion — formal checks at ~1.5 s each on
//! 2010 hardware dominate; these benches show where our time goes).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gm_mc::{
    blast, bmc, explicit_check, k_induction, BitAtom, CheckResult, CheckSession, Checker,
    ConsequentKind, ExplicitLimits, ReachableStates, WindowProperty,
};
use gm_mine::{input_space_coverage, Assertion, Dataset, DecisionTree, MiningSpec};
use gm_rtl::{cone_of, elaborate, parse_verilog};
use gm_sat::{Solver, Var};
use gm_sim::{
    collect_vectors, run_segment, CompileOptions, CompiledModule, InputVector, NopObserver,
    RandomStimulus, Simulator, TestSuite,
};
use goldmine::{Engine, EngineConfig, TargetSelection};

fn bench_simulation(c: &mut Criterion) {
    let module = gm_designs::b12_lite();
    let vectors = collect_vectors(&mut RandomStimulus::new(&module, 3, 1000));
    c.bench_function("sim/b12_lite_1000_cycles", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&module).unwrap();
            sim.run_vectors(&vectors, &mut NopObserver)
        });
    });

    let mut suite = TestSuite::new();
    suite.push("r", vectors);
    c.bench_function("sim/b12_lite_1000_cycles_with_coverage", |b| {
        b.iter(|| {
            let mut cov = gm_coverage::CoverageSuite::new(&module);
            suite.run(&module, &mut cov).unwrap();
            cov.report()
        });
    });
}

/// The compiled-backend kernels behind `BENCH_sim.json`: the same
/// stimulus suite (ragged random segments, enough to fill the widest
/// 512-lane block) through the interpreter and the bit-parallel tape at
/// every lane-block width — with coverage attached, which is how the
/// closure loop simulates.
fn bench_sim_backends(c: &mut Criterion) {
    let module = gm_designs::b12_lite();
    let compiled = CompiledModule::compile(&module).unwrap();
    let mut suite = TestSuite::new();
    for seed in 0..512u64 {
        suite.push(
            format!("s{seed}"),
            collect_vectors(&mut RandomStimulus::new(&module, seed, 64)),
        );
    }
    c.bench_function("sim/backend_interpreter_512x64_coverage", |b| {
        b.iter(|| {
            let mut cov = gm_coverage::CoverageSuite::new(&module);
            suite.run(&module, &mut cov).unwrap();
            cov.report()
        });
    });
    for block in [1usize, 2, 4, 8] {
        c.bench_function(
            &format!("sim/backend_compiled_batch_w{block}_coverage"),
            |b| {
                b.iter(|| {
                    let mut cov = gm_coverage::CoverageSuite::new(&module);
                    suite.observe_compiled(&module, &compiled, &mut cov, block);
                    cov.report()
                });
            },
        );
    }
    // Trace extraction included (the mining data-generation shape).
    c.bench_function("sim/backend_compiled_batch_512x64_traces", |b| {
        b.iter(|| suite.run_compiled(&module, &compiled, &mut NopObserver, 1));
    });
}

/// Coverage-attached vs bare throughput per lane-block width — the
/// direct measure of the fused-probe and probe-free-tape wins. The
/// "cov" kernels run the probed tape under a full `CoverageSuite`; the
/// "bare" kernels run the probe-free tape under a nop observer (the
/// cex-replay / seed-trace shape, paying nothing for observation).
fn bench_observer_overhead(c: &mut Criterion) {
    let module = gm_designs::b12_lite();
    let probed = CompiledModule::compile(&module).unwrap();
    let bare = CompiledModule::compile_with(&module, CompileOptions { probes: false }).unwrap();
    let mut suite = TestSuite::new();
    for seed in 0..512u64 {
        suite.push(
            format!("s{seed}"),
            collect_vectors(&mut RandomStimulus::new(&module, seed, 64)),
        );
    }
    for block in [1usize, 2, 4, 8] {
        c.bench_function(
            &format!("sim/backend_observer_overhead_w{block}_cov"),
            |b| {
                b.iter(|| {
                    let mut cov = gm_coverage::CoverageSuite::new(&module);
                    suite.observe_compiled(&module, &probed, &mut cov, block);
                    cov.report()
                });
            },
        );
        c.bench_function(
            &format!("sim/backend_observer_overhead_w{block}_bare"),
            |b| {
                b.iter(|| suite.observe_compiled(&module, &bare, &mut NopObserver, block));
            },
        );
    }
}

/// What building a suite costs: every vector is packed into the lanes
/// as it is pushed (1024 b18_lite segments × 128 cycles, the
/// `suite_replay` shape). Replaying what was built is the `bare`
/// kernels above.
fn bench_stimulus_feed(c: &mut Criterion) {
    let module = gm_designs::b18_lite();
    let segments: Vec<Vec<InputVector>> = (0..1024u64)
        .map(|seed| collect_vectors(&mut RandomStimulus::new(&module, seed, 128)))
        .collect();
    c.bench_function("sim/suite_push_b18_lite", |b| {
        b.iter_batched(
            || segments.clone(),
            |segments| {
                let mut suite = TestSuite::new();
                for (k, vectors) in segments.into_iter().enumerate() {
                    suite.push(format!("s{k}"), vectors);
                }
                suite
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_parse_blast(c: &mut Criterion) {
    c.bench_function("rtl/parse_b17_lite", |b| {
        b.iter(|| parse_verilog(gm_designs::sources::B17_LITE).unwrap());
    });
    let module = gm_designs::b17_lite();
    let elab = elaborate(&module).unwrap();
    c.bench_function("mc/blast_b17_lite", |b| {
        b.iter(|| blast(&module, &elab).unwrap());
    });
}

fn bench_sat(c: &mut Criterion) {
    // PHP(7,6): a hard UNSAT instance exercising clause learning.
    c.bench_function("sat/pigeonhole_7_6", |b| {
        b.iter_batched(
            || {
                let mut s = Solver::new();
                let n = 6;
                let p: Vec<Vec<Var>> = (0..=n)
                    .map(|_| (0..n).map(|_| s.new_var()).collect())
                    .collect();
                for row in &p {
                    let c: Vec<_> = row.iter().map(|v| v.positive()).collect();
                    s.add_clause(&c);
                }
                #[allow(clippy::needless_range_loop)] // j spans two rows at once
                for j in 0..n {
                    for i1 in 0..=n {
                        for i2 in (i1 + 1)..=n {
                            s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                        }
                    }
                }
                s
            },
            |mut s| s.solve(),
            BatchSize::SmallInput,
        );
    });
}

/// The propagation loop as the closure engine drives it: one warm
/// `CheckSession` on `b18_lite`, a fixed list of 200 properties decided
/// by k-induction per iteration (scoped assumption queries against two
/// shared unrollings, each deciding the fan-in cone of its own
/// assumptions; learnt clauses carried over; violated verdicts replayed
/// on a cloned pristine prefix for their trace). Also prints the cost
/// per propagated literal, the unit the solver's hot path is judged in
/// — since queries are scoped, most of those literals are fan-out
/// propagation out of the cone, not decisions.
fn bench_sat_session(c: &mut Criterion) {
    let module = gm_designs::b18_lite();
    let elab = elaborate(&module).unwrap();
    let blasted = std::sync::Arc::new(blast(&module, &elab).unwrap());
    let bits: Vec<(gm_rtl::SignalId, u32)> = ["go", "sel", "done", "fault", "bus", "a_in", "b_in"]
        .iter()
        .flat_map(|name| {
            let sig = module.require(name).unwrap();
            (0..module.signal_width(sig)).map(move |bit| (sig, bit))
        })
        .collect();
    // 200 distinct two-antecedent properties of depth 1 and 2.
    let props: Vec<WindowProperty> = (0..200usize)
        .map(|i| {
            let (a, abit) = bits[i % bits.len()];
            let (b, bbit) = bits[(i / 3 + 5) % bits.len()];
            let (cons, cbit) = bits[(i * 7 + 2) % bits.len()];
            WindowProperty::implication(
                vec![
                    BitAtom::new(a, abit, 0, i % 2 == 0),
                    BitAtom::new(b, bbit, (i % 3 == 0) as u32, i % 5 < 3),
                ],
                BitAtom::new(cons, cbit, 1 + (i % 4 == 0) as u32, i % 7 < 4),
            )
        })
        .collect();
    let mut session = CheckSession::new(blasted);
    let pass = |session: &mut CheckSession| {
        for p in &props {
            black_box(session.k_induction(p, 2, None).unwrap());
        }
    };
    pass(&mut session);
    c.bench_function("sat/propagate_b18_lite_session", |b| {
        b.iter(|| pass(&mut session));
    });
    let before = session.stats().solver.propagations;
    let start = std::time::Instant::now();
    pass(&mut session);
    let elapsed = start.elapsed();
    let propagations = session.stats().solver.propagations - before;
    println!(
        "{:<44} {:.1} ns/propagation ({propagations} propagations per pass, SAT and encoding time included)",
        "sat/propagate_b18_lite_session",
        elapsed.as_nanos() as f64 / propagations as f64
    );
}

/// Canonical counterexample extraction, one violated property per
/// kernel, decided over and over by one warm checker. The checker keeps
/// no verdicts, so each iteration is one scoped session query (the
/// verdict) plus the session's replay on a cloned pristine prefix (the
/// trace).
fn bench_canonical_cex(c: &mut Criterion) {
    let mut kernel = |name: &str, module: &gm_rtl::Module, prop: WindowProperty| {
        let mut checker = Checker::new(module)
            .unwrap()
            .with_backend(gm_mc::Backend::KInduction { max_k: 2 });
        let prop = std::slice::from_ref(&prop);
        assert!(matches!(
            checker.check_batch(prop).unwrap()[..],
            [CheckResult::Violated(_)]
        ));
        c.bench_function(name, |b| b.iter(|| checker.check_batch(prop).unwrap()));
        let stats = checker.session_stats();
        assert_eq!(stats.cex_canonicalized, stats.sat_decided);
    };
    // Latch-free, 13 input bits: is_alu |-> writes_rd & uses_imm fails
    // for opcode 0 in the single window at reset.
    let decode = gm_designs::decode_stage();
    let sig = |name: &str| decode.require(name).unwrap();
    kernel(
        "mc/canonical_cex_decode_stage",
        &decode,
        WindowProperty::implication(
            vec![
                BitAtom::new(sig("is_alu"), 0, 0, true),
                BitAtom::new(sig("writes_rd"), 0, 0, true),
            ],
            BitAtom::new(sig("uses_imm"), 0, 0, true),
        ),
    );
    // Latched: !fault@0 |-> !done@1 first fails in the window starting
    // two cycles after reset, so the scan extends the prefix twice.
    let b18 = gm_designs::b18_lite();
    let sig = |name: &str| b18.require(name).unwrap();
    kernel(
        "mc/canonical_cex_b18_lite_k2",
        &b18,
        WindowProperty::implication(
            vec![BitAtom::new(sig("fault"), 0, 0, false)],
            BitAtom::new(sig("done"), 0, 1, false),
        ),
    );
}

fn bench_model_checking(c: &mut Criterion) {
    let module = gm_designs::arbiter2();
    let elab = elaborate(&module).unwrap();
    let blasted = blast(&module, &elab).unwrap();
    let req0 = module.require("req0").unwrap();
    let gnt0 = module.require("gnt0").unwrap();
    // The paper's A2 (true) and A0 (false).
    let a2 = WindowProperty::implication(
        vec![
            BitAtom::new(req0, 0, 0, false),
            BitAtom::new(req0, 0, 1, false),
        ],
        BitAtom::new(gnt0, 0, 2, false),
    );
    let a0 = WindowProperty::implication(
        vec![BitAtom::new(req0, 0, 0, false)],
        BitAtom::new(gnt0, 0, 1, true),
    );
    c.bench_function("mc/explicit_reach_arbiter2", |b| {
        b.iter(|| ReachableStates::explore(&blasted, &ExplicitLimits::default()).unwrap());
    });
    c.bench_function("mc/k_induction_prove_a2", |b| {
        b.iter(|| k_induction(&blasted, &a2, 8));
    });
    c.bench_function("mc/bmc_refute_a0", |b| {
        b.iter(|| bmc(&blasted, &a0, 8));
    });
    c.bench_function("mc/checker_amortized_both", |b| {
        b.iter_batched(
            || Checker::new(&module).unwrap(),
            |mut ch| {
                let r1 = ch.check_batch(std::slice::from_ref(&a2)).unwrap();
                let r2 = ch.check_batch(std::slice::from_ref(&a0)).unwrap();
                (r1, r2)
            },
            BatchSize::SmallInput,
        );
    });
}

/// The explicit engine's two inner loops on its widest catalog design
/// (`fetch_stage`, 128 input words per state): building the tables from
/// cold, and one live-set pass over warm tables.
fn bench_explicit_tables(c: &mut Criterion) {
    let module = gm_designs::fetch_stage();
    let elab = elaborate(&module).unwrap();
    let blasted = blast(&module, &elab).unwrap();
    let limits = ExplicitLimits::default();
    let sig = |name: &str| module.require(name).unwrap();
    // branch_mispredict@0 |-> !valid@1: proved, so the pass runs every
    // offset over every pair.
    let proved = WindowProperty::implication(
        vec![BitAtom::new(sig("branch_mispredict"), 0, 0, true)],
        BitAtom::new(sig("valid"), 0, 1, false),
    );
    // Seven input bits and one register bit: eight observation bitsets.
    let mut antecedent = vec![
        BitAtom::new(sig("stall_in"), 0, 0, false),
        BitAtom::new(sig("branch_mispredict"), 0, 0, false),
        BitAtom::new(sig("icache_rdvl_i"), 0, 0, true),
    ];
    antecedent.extend((0..4).map(|bit| BitAtom::new(sig("branch_pc"), bit, 0, false)));
    let eight_literals =
        WindowProperty::implication(antecedent, BitAtom::new(sig("valid"), 0, 1, true));
    let warm = ReachableStates::explore(&blasted, &limits).unwrap();
    let res = explicit_check(&blasted, &warm, &proved, &limits).unwrap();
    assert_eq!(res, CheckResult::Proved);
    explicit_check(&blasted, &warm, &eight_literals, &limits).unwrap();
    assert_eq!(warm.cache_stats().obs_nodes, 8);
    c.bench_function("mc/explicit_check_fetch_stage_proved", |b| {
        b.iter(|| explicit_check(&blasted, &warm, &proved, &limits).unwrap());
    });
    c.bench_function("mc/explicit_tables_fetch_stage", |b| {
        b.iter(|| {
            let cold = ReachableStates::explore(&blasted, &limits).unwrap();
            explicit_check(&blasted, &cold, &eight_literals, &limits).unwrap()
        });
    });
}

/// What `closure_temporal` pays per multi-consequent candidate: a fixed
/// batch of mined-shape properties on `b12_lite` — two antecedent
/// literals over cycles 0 and 1, the target bit held (`All`, a
/// stability window) or reached (`Any`, a bounded eventuality) over
/// cycles 2 and 3 — through a default checker whose design artifacts
/// are warm and whose sessions are reset every iteration.
fn bench_temporal_batch(c: &mut Criterion) {
    let module = gm_designs::b12_lite();
    let sig = |name: &str| module.require(name).unwrap();
    let features = [
        (sig("start"), 0),
        (sig("guess"), 0),
        (sig("guess"), 1),
        (sig("win"), 0),
        (sig("lose"), 0),
        (sig("speaker"), 0),
        (sig("speaker"), 1),
    ];
    let targets = [features[3], features[4], features[5], features[6]];
    for (name, kind) in [("all", ConsequentKind::All), ("any", ConsequentKind::Any)] {
        let mut props = Vec::new();
        for (i, &(first, first_bit)) in features.iter().enumerate() {
            let (second, second_bit) = features[(i + 1) % features.len()];
            for (j, &(target, bit)) in targets.iter().enumerate() {
                for value in [false, true] {
                    props.push(WindowProperty::new(
                        vec![
                            BitAtom::new(first, first_bit, 0, (i + j) % 2 == 0),
                            BitAtom::new(second, second_bit, 1, value),
                        ],
                        (2..=3)
                            .map(|offset| BitAtom::new(target, bit, offset, value))
                            .collect(),
                        kind,
                    ));
                }
            }
        }
        let mut checker = Checker::new(&module).unwrap();
        let verdicts = checker.check_temporal_batch(&props).unwrap();
        assert!(verdicts.iter().any(CheckResult::is_proved));
        assert!(verdicts
            .iter()
            .any(|r| matches!(r, CheckResult::Violated(_))));
        c.bench_function(&format!("mc/temporal_batch_b12_lite_{name}"), |b| {
            b.iter(|| {
                checker.reset_for_reuse();
                checker.check_temporal_batch(&props).unwrap()
            });
        });
    }
}

/// Tentpole comparison: per-query unrollings (the pre-session dispatch,
/// one fresh `Unroller` per property) vs one persistent batched session
/// on the largest catalog design.
fn bench_batched_checking(c: &mut Criterion) {
    let module = gm_designs::b18_lite();
    let elab = elaborate(&module).unwrap();
    let blasted = blast(&module, &elab).unwrap();
    let go = module.require("go").unwrap();
    let done = module.require("done").unwrap();
    let fault = module.require("fault").unwrap();
    let bus = module.require("bus").unwrap();
    let props: Vec<WindowProperty> = (0..4)
        .map(|i| {
            WindowProperty::implication(
                vec![
                    BitAtom::new(go, 0, 0, i % 2 == 0),
                    BitAtom::new(done, 0, 0, false),
                ],
                BitAtom::new(if i < 2 { fault } else { bus }, u32::from(i == 3), 1, false),
            )
        })
        .collect();
    let backend = gm_mc::Backend::KInduction { max_k: 2 };
    c.bench_function("mc/b18_lite_per_query_unrollings", |b| {
        b.iter(|| {
            props
                .iter()
                .map(|p| k_induction(&blasted, p, 2))
                .collect::<Vec<_>>()
        });
    });
    c.bench_function("mc/b18_lite_batched_session", |b| {
        b.iter_batched(
            || Checker::new(&module).unwrap().with_backend(backend),
            |mut ch| ch.check_batch(&props).unwrap(),
            BatchSize::SmallInput,
        );
    });
}

/// Shard-scaling kernel: the same deduped worklist on the largest
/// catalog design, dispatched through 1 / 2 / 4 / 8 shard sessions.
/// On a single-core host the sharded numbers mostly price the scoped
/// thread pool; on multi-core CI they show the scaling headroom of
/// `Engine::iteration_pass`'s dispatch.
fn bench_shard_scaling(c: &mut Criterion) {
    let module = gm_designs::b18_lite();
    let go = module.require("go").unwrap();
    let done = module.require("done").unwrap();
    let fault = module.require("fault").unwrap();
    let bus = module.require("bus").unwrap();
    let props: Vec<WindowProperty> = (0..16u32)
        .map(|i| {
            WindowProperty::implication(
                vec![
                    BitAtom::new(go, 0, 0, i % 2 == 0),
                    BitAtom::new(done, 0, 0, i % 3 == 0),
                ],
                if i % 4 < 2 {
                    BitAtom::new(fault, 0, 1, i % 5 == 0)
                } else {
                    BitAtom::new(bus, i % 2, 1, i % 5 == 0)
                },
            )
        })
        .collect();
    let backend = gm_mc::Backend::KInduction { max_k: 2 };
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("mc/b18_lite_sharded_batch_{shards}"), |b| {
            b.iter_batched(
                || {
                    Checker::new(&module)
                        .unwrap()
                        .with_backend(backend)
                        .with_shards(shards)
                },
                |mut ch| ch.check_batch(&props).unwrap(),
                BatchSize::SmallInput,
            );
        });
    }
}

/// Campaign kernel: the whole small-design catalog closed concurrently
/// on an in-process closure service vs one design at a time. Each
/// iteration starts a fresh service, so every design is a cache miss.
fn bench_campaign(c: &mut Criterion) {
    use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
    let names = ["cex_small", "arbiter2", "b01", "b02", "b09"];
    let jobs: Vec<_> = names
        .iter()
        .map(|n| {
            let d = gm_designs::by_name(n).unwrap();
            let module = d.module();
            let config = EngineConfig {
                window: d.window,
                record_coverage: false,
                ..EngineConfig::default()
            };
            (*n, module, config)
        })
        .collect();
    for workers in [1usize, 4] {
        c.bench_function(
            &format!("engine/campaign_5_designs_{workers}_workers"),
            |b| {
                b.iter(|| {
                    let service = ClosureService::new(ServeConfig {
                        workers,
                        ..ServeConfig::default()
                    });
                    let ids: Vec<u64> = (jobs.iter())
                        .map(|(n, m, cfg)| {
                            let opts = SubmitOptions::default();
                            service
                                .submit_module(n, m.clone(), cfg.clone(), opts)
                                .unwrap()
                                .0
                        })
                        .collect();
                    let converged = (ids.into_iter())
                        .filter(|&id| {
                            service.wait(id);
                            service.take_outcome(id).unwrap().unwrap().converged
                        })
                        .count();
                    service.shutdown();
                    converged
                });
            },
        );
    }
}

/// Server throughput: repeated submissions of a small design mix
/// through the persistent service — the steady-state request path
/// (content-addressed cache hits, parked warm checkers, one shared job
/// queue) rather than a fresh engine per design.
fn bench_serve_throughput(c: &mut Criterion) {
    use gm_serve::{ClosureService, ServeConfig, SubmitOptions};
    let designs: Vec<_> = ["cex_small", "b01", "b02"]
        .iter()
        .map(|n| gm_designs::by_name(n).unwrap())
        .collect();
    let config_for = |d: &gm_designs::DesignInfo| EngineConfig {
        window: d.window,
        stimulus: goldmine::SeedStimulus::Random { cycles: 32 },
        record_coverage: false,
        ..EngineConfig::default()
    };
    let service = ClosureService::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    // Warm the cache once so the kernel measures the steady state.
    for d in &designs {
        let (id, _) = service
            .submit_module(d.name, d.module(), config_for(d), SubmitOptions::default())
            .unwrap();
        service.wait(id);
    }
    c.bench_function("serve/throughput_9_warm_jobs_4_workers", |b| {
        b.iter(|| {
            let ids: Vec<u64> = (0..9)
                .map(|i| {
                    let d = &designs[i % designs.len()];
                    service
                        .submit_module(d.name, d.module(), config_for(d), SubmitOptions::default())
                        .unwrap()
                        .0
                })
                .collect();
            for id in ids {
                service.wait(id);
            }
        });
    });
    let stats = service.stats();
    assert!(stats.cache_hits > stats.cache_misses);
    service.shutdown();
}

fn bench_mining(c: &mut Criterion) {
    let module = gm_designs::arbiter4();
    let elab = elaborate(&module).unwrap();
    let gnt0 = module.require("gnt0").unwrap();
    let cone = cone_of(&module, &elab, gnt0);
    let spec = MiningSpec::for_output(&module, &elab, &cone, 0, 1);
    let mut suite = TestSuite::new();
    suite.push(
        "r",
        collect_vectors(&mut RandomStimulus::new(&module, 5, 2000)),
    );
    let traces = suite.run(&module, &mut NopObserver).unwrap();
    c.bench_function("mine/tree_fit_arbiter4_2000_rows", |b| {
        b.iter(|| {
            let mut ds = Dataset::new();
            ds.add_traces(&spec, &traces);
            let mut tree = DecisionTree::new(&spec);
            tree.fit(&ds).unwrap();
            tree.node_count()
        });
    });

    // The two levers of a `suite_replay` mining item, one at a time, at
    // that workload's size: 256 segments x 128 cycles, window 2,
    // horizon 2 = 32 000 rows. Both fits run the stride-2 record move and
    // count pass. `b18_lite`'s tree (46 features, 17 695 nodes, ~3.6
    // rows a leaf) is mostly small nodes, so it weighs each node's
    // decode and scoring; `fetch_stage`'s (26 features, 1 559 nodes)
    // weighs the passes over large ones.
    for (name, module, output, bit) in [
        ("b18_lite", gm_designs::b18_lite(), "bus", 0),
        ("fetch_stage", gm_designs::fetch_stage(), "pc", 1),
    ] {
        let elab = elaborate(&module).unwrap();
        let cone = cone_of(&module, &elab, module.require(output).unwrap());
        let spec = MiningSpec::for_output(&module, &elab, &cone, bit, 2);
        let mut suite = TestSuite::new();
        for seed in 0..256 {
            suite.push(
                format!("s{seed}"),
                collect_vectors(&mut RandomStimulus::new(&module, seed, 128)),
            );
        }
        let traces = suite.run(&module, &mut NopObserver).unwrap();
        let mut data = Dataset::with_horizon(2);
        data.add_traces(&spec, &traces);
        assert_eq!(data.len(), 32_000);
        c.bench_function(&format!("mine/fit_{name}_32000_rows"), |b| {
            b.iter(|| {
                let mut tree = DecisionTree::new(&spec);
                tree.fit(&data).unwrap();
                tree.node_count()
            });
        });
        if name == "b18_lite" {
            c.bench_function("mine/extract_b18_lite_256x128", |b| {
                b.iter(|| {
                    let mut ds = Dataset::with_horizon(2);
                    ds.add_traces(&spec, &traces);
                    ds.len()
                });
            });
        }
    }

    // The closure loop's per-counterexample cost: one 6-cycle trace
    // into four fitted targets (extraction set-up, routing, re-split).
    // A sample absorbs 64 different such traces one after another into
    // a fresh copy of the fitted state, the way a closure run's
    // datasets grow; the copy is dropped outside the timing.
    let elab = elaborate(&module).unwrap();
    let trace_of = |seed: u64, cycles: u64| {
        let vectors = collect_vectors(&mut RandomStimulus::new(&module, seed, cycles));
        run_segment(&module, &vectors, &mut NopObserver).unwrap()
    };
    let seed_trace = trace_of(7, 500);
    let cexes: Vec<_> = (0..64).map(|k| trace_of(100 + k, 6)).collect();
    let fitted: Vec<(MiningSpec, Dataset, DecisionTree)> = module
        .outputs()
        .into_iter()
        .map(|out| {
            let cone = cone_of(&module, &elab, out);
            let spec = MiningSpec::for_output(&module, &elab, &cone, 0, 1);
            let mut ds = Dataset::with_horizon(2);
            ds.add_trace(&spec, &seed_trace);
            let mut tree = DecisionTree::new(&spec);
            tree.fit(&ds).unwrap();
            (spec, ds, tree)
        })
        .collect();
    assert_eq!(fitted.len(), 4);
    let mut spent = Vec::new();
    c.bench_function("mine/absorb_cex_arbiter4", |b| {
        b.iter_batched(
            || fitted.clone(),
            |mut targets| {
                for cex in &cexes {
                    for (spec, ds, tree) in targets.iter_mut() {
                        let rows = ds.add_trace(spec, cex);
                        tree.add_rows(ds, &rows.rows).unwrap();
                    }
                }
                let nodes: usize = targets.iter().map(|(_, _, t)| t.node_count()).sum();
                spent.push(targets);
                nodes
            },
            BatchSize::LargeInput,
        );
    });

    // The input-space measure at the size a closure report pays for it:
    // every target's proved set at the end of `b12_lite`'s default
    // closure, one exact union measure per target.
    let module = gm_designs::b12_lite();
    let outcome = Engine::new(&module, EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let mut rest = &outcome.assertions[..];
    let proved_sets: Vec<&[Assertion]> = outcome
        .targets
        .iter()
        .map(|t| {
            let (own, others) = rest.split_at(t.proved);
            rest = others;
            own
        })
        .collect();
    assert!(outcome.assertions.len() > 1_000, "a closure-sized set");
    c.bench_function("mine/input_space_coverage_b12_lite_proved_set", |b| {
        b.iter(|| {
            let terms = proved_sets
                .iter()
                .map(|own| input_space_coverage(black_box(own), &module));
            terms.sum::<f64>()
        });
    });
}

fn bench_full_loop(c: &mut Criterion) {
    let module = gm_designs::arbiter2();
    let gnt0 = module.require("gnt0").unwrap();
    c.bench_function("engine/arbiter2_full_closure", |b| {
        b.iter(|| {
            let config = EngineConfig {
                targets: TargetSelection::Bits(vec![(gnt0, 0)]),
                record_coverage: false,
                ..EngineConfig::default()
            };
            Engine::new(&module, config).unwrap().run().unwrap()
        });
    });
}

/// Ablation: incremental tree updates vs rebuilding from scratch on
/// every counterexample (the design choice §3 motivates).
fn bench_ablation_incremental(c: &mut Criterion) {
    let module = gm_designs::arbiter4();
    let elab = elaborate(&module).unwrap();
    let gnt0 = module.require("gnt0").unwrap();
    let cone = cone_of(&module, &elab, gnt0);
    let spec = MiningSpec::for_output(&module, &elab, &cone, 0, 1);
    let mut suite = TestSuite::new();
    suite.push(
        "seed",
        collect_vectors(&mut RandomStimulus::new(&module, 5, 500)),
    );
    for i in 0..20 {
        suite.push(
            format!("extra-{i}"),
            collect_vectors(&mut RandomStimulus::new(&module, 100 + i, 5)),
        );
    }
    let traces = suite.run(&module, &mut NopObserver).unwrap();

    c.bench_function("ablation/incremental_tree_updates", |b| {
        b.iter(|| {
            let mut ds = Dataset::new();
            ds.add_trace(&spec, &traces[0]);
            let mut tree = DecisionTree::new(&spec);
            tree.fit(&ds).unwrap();
            for t in &traces[1..] {
                let rows = ds.add_trace(&spec, t);
                tree.add_rows(&ds, &rows.rows).unwrap();
            }
            tree.node_count()
        });
    });
    c.bench_function("ablation/rebuild_tree_each_time", |b| {
        b.iter(|| {
            let mut ds = Dataset::new();
            ds.add_trace(&spec, &traces[0]);
            let mut tree = DecisionTree::new(&spec);
            tree.fit(&ds).unwrap();
            let mut last = tree.node_count();
            for t in &traces[1..] {
                ds.add_trace(&spec, t);
                let mut tree = DecisionTree::new(&spec);
                tree.fit(&ds).unwrap();
                last = tree.node_count();
            }
            last
        });
    });
}

/// Ablation: explicit-state vs SAT backends on the same mining load.
fn bench_ablation_backends(c: &mut Criterion) {
    let module = gm_designs::arbiter2();
    let outp = module.require("gnt0").unwrap();
    for (label, backend) in [
        ("explicit", gm_mc::Backend::Auto),
        ("k_induction", gm_mc::Backend::KInduction { max_k: 8 }),
    ] {
        c.bench_function(&format!("ablation/backend_{label}_arbiter2"), |b| {
            b.iter(|| {
                let config = EngineConfig {
                    targets: TargetSelection::Bits(vec![(outp, 0)]),
                    backend,
                    record_coverage: false,
                    max_iterations: 16,
                    ..EngineConfig::default()
                };
                Engine::new(&module, config).unwrap().run().unwrap()
            });
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_simulation,
        bench_sim_backends,
        bench_observer_overhead,
        bench_stimulus_feed,
        bench_parse_blast,
        bench_sat,
        bench_sat_session,
        bench_canonical_cex,
        bench_model_checking,
        bench_explicit_tables,
        bench_temporal_batch,
        bench_batched_checking,
        bench_shard_scaling,
        bench_campaign,
        bench_serve_throughput,
        bench_mining,
        bench_full_loop,
        bench_ablation_incremental,
        bench_ablation_backends
);
criterion_main!(kernels);
