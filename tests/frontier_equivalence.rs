//! Differential harness for active-frontier scheduling: on every
//! representation — original CSR, each physical split topology, and both
//! virtual overlay layouts — every frontier mode must reach exactly the
//! full-sweep fixpoint for every monotone program, while never
//! attempting more edge relaxations. The CPU pool is held to the same
//! contract on every representation, direction and thread count.
//!
//! Each proptest below runs 24 random hubbed graphs through *all*
//! program × transform × mode combinations, so every combination sees
//! at least 20 generated cases.

use proptest::collection::vec;
use proptest::prelude::*;

use tigr::engine::{
    run_monotone, BackendKind, CpuOptions, Direction, EdgeOp, Engine, EngineError, ExecutionPlan,
    FrontierMode, MonotoneOutput, MonotoneProgram, PlanError, PushOptions, SyncMode,
};
use tigr::{
    circular_transform, clique_transform, star_transform, udt_transform, Csr, CsrBuilder,
    DumbWeight, Edge, NodeId, Representation, VirtualGraph,
};
use tigr_sim::{GpuConfig, GpuSimulator};

const PROGRAMS: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

const MODES: [FrontierMode; 3] = [
    FrontierMode::Auto,
    FrontierMode::Dense,
    FrontierMode::Sparse,
];

fn opts(worklist: bool, frontier: FrontierMode) -> PushOptions {
    PushOptions {
        worklist,
        frontier,
        sort_frontier_by_degree: false,
        sync: SyncMode::Relaxed,
        max_iterations: 100_000,
    }
}

/// A simulated push run of `prog` under `opts(worklist, frontier)`.
fn simulated(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    worklist: bool,
    frontier: FrontierMode,
) -> MonotoneOutput {
    let plan = ExecutionPlan {
        push: opts(worklist, frontier),
        ..ExecutionPlan::default()
    };
    run_monotone(sim, rep, None, prog, source, &plan).unwrap()
}

/// The dumb weight that keeps `prog` exact on a physically split graph:
/// zero for additive programs (and inert for label copying), infinity
/// for the min-weight bottleneck fold.
fn sound_dumb_weight(prog: MonotoneProgram) -> DumbWeight {
    match prog.edge_op {
        EdgeOp::MinWeight => DumbWeight::Infinity,
        _ => DumbWeight::Zero,
    }
}

/// Strategy: a weighted directed graph with a guaranteed hub so every
/// split transformation actually fires.
fn arb_hubbed_graph(n: usize, m: usize) -> impl Strategy<Value = Csr> {
    (4..n).prop_flat_map(move |nodes| {
        vec((0..nodes as u32, 0..nodes as u32, 1..100u32), 0..m).prop_map(move |edges| {
            let mut b = CsrBuilder::new(nodes);
            for (s, d, w) in edges {
                b.add(Edge::new(NodeId::new(s), NodeId::new(d), w));
            }
            for t in 1..nodes as u32 {
                b.add(Edge::new(NodeId::new(0), NodeId::new(t), 7));
            }
            b.force_weighted(true);
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frontier_matches_full_sweep_on_original_and_virtual(
        g in arb_hubbed_graph(28, 100),
        k in 1u32..8,
        src in 0u32..28,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let plain = VirtualGraph::new(&g, k);
        let coal = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &coal }),
        ];
        for prog in PROGRAMS {
            let source = prog.needs_source().then_some(src);
            for (label, rep) in &reps {
                let full = simulated(&sim, rep, prog, source, false, FrontierMode::Auto);
                for mode in MODES {
                    let out = simulated(&sim, rep, prog, source, true, mode);
                    prop_assert_eq!(
                        &out.values, &full.values,
                        "{}/{}/{} diverged from full sweep", prog.name, label, mode.label()
                    );
                    prop_assert!(out.converged);
                    prop_assert!(
                        out.edges_touched <= full.edges_touched,
                        "{}/{}/{}: frontier touched {} edges, full sweep {}",
                        prog.name, label, mode.label(), out.edges_touched, full.edges_touched
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_matches_full_sweep_on_physical_splits(
        g in arb_hubbed_graph(24, 80),
        k in 2u32..8,
        src in 0u32..24,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        for prog in PROGRAMS {
            let source = prog.needs_source().then_some(src);
            let dumb = sound_dumb_weight(prog);
            for (label, t) in [
                ("udt", udt_transform(&g, k, dumb)),
                ("star", star_transform(&g, k, dumb)),
                ("circular", circular_transform(&g, k, dumb)),
                ("clique", clique_transform(&g, k, dumb)),
            ] {
                let rep = Representation::Physical(&t);
                let full = simulated(&sim, &rep, prog, source, false, FrontierMode::Auto);
                for mode in MODES {
                    let out = simulated(&sim, &rep, prog, source, true, mode);
                    prop_assert_eq!(
                        &out.values, &full.values,
                        "{}/{}/{} diverged from full sweep", prog.name, label, mode.label()
                    );
                    prop_assert!(
                        out.edges_touched <= full.edges_touched,
                        "{}/{}/{}: frontier touched {} edges, full sweep {}",
                        prog.name, label, mode.label(), out.edges_touched, full.edges_touched
                    );
                }
            }
        }
    }

    /// A solo `CpuPool` run over any representation, thread count or
    /// direction reaches the fixpoint of a sequential full sweep.
    #[test]
    fn cpu_schedules_match_sequential_sweep(
        g in arb_hubbed_graph(32, 140),
        src in 0u32..32,
        k in 1u32..8,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let plain = VirtualGraph::new(&g, k);
        let coal = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &coal }),
        ];
        for prog in PROGRAMS {
            let source = prog.needs_source().then_some(src);
            let seq = sequential_full_sweep(&g, prog, source);
            for (label, rep) in &reps {
                for direction in Direction::ALL {
                    for worklist in [false, true] {
                        for threads in THREADS {
                            let out = pool_run(rep, prog, source, direction, worklist, threads);
                            prop_assert_eq!(
                                &out.values, &seq.values,
                                "{}/{}/{}/worklist={}/threads={} diverged from sequential sweep",
                                prog.name, label, direction.label(), worklist, threads
                            );
                            prop_assert!(out.converged && !out.cancelled);
                            // The strict work-saving bound holds only for
                            // the deterministic single-thread push run:
                            // with real threads, a stale value read can
                            // re-activate a settled node and touch a few
                            // edges beyond the full-sweep count.
                            if worklist && threads == 1 && direction == Direction::Push {
                                prop_assert!(
                                    out.edges_touched <= seq.edges_touched,
                                    "{}/{}: worklist touched {} edges, full sweep {}",
                                    prog.name, label, out.edges_touched, seq.edges_touched
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Repeated `CpuPool` runs of the same configuration produce
    /// bit-identical value arrays, whatever the thread count.
    #[test]
    fn cpu_schedules_are_deterministic_across_runs(
        g in arb_hubbed_graph(28, 120),
        src in 0u32..28,
        k in 1u32..8,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let plain = VirtualGraph::new(&g, k);
        let coal = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &coal }),
        ];
        for prog in [MonotoneProgram::SSSP, MonotoneProgram::CC] {
            let source = prog.needs_source().then_some(src);
            for (label, rep) in &reps {
                for direction in Direction::ALL {
                    for threads in THREADS {
                        let first = pool_run(rep, prog, source, direction, true, threads);
                        for _ in 0..2 {
                            let again = pool_run(rep, prog, source, direction, true, threads);
                            prop_assert_eq!(
                                &again.values, &first.values,
                                "{}/{}/{}/threads={} nondeterministic",
                                prog.name, label, direction.label(), threads
                            );
                        }
                    }
                }
            }
        }
    }
}

const THREADS: [usize; 3] = [1, 2, 3];

/// The reference: a sequential full sweep over the original CSR — no
/// simulator, no worklist, no parallelism.
fn sequential_full_sweep(g: &Csr, prog: MonotoneProgram, source: Option<NodeId>) -> MonotoneOutput {
    Engine::new(GpuConfig::tiny())
        .with_backend(BackendKind::Sequential)
        .with_options(opts(false, FrontierMode::Auto))
        .run_program(&Representation::Original(g), prog, source)
        .unwrap()
}

/// One solo run on the `CpuPool` backend.
fn pool_run(
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    direction: Direction,
    worklist: bool,
    threads: usize,
) -> MonotoneOutput {
    Engine::new(GpuConfig::tiny())
        .with_backend(BackendKind::CpuPool)
        .with_direction(direction)
        .with_options(opts(worklist, FrontierMode::Auto))
        .with_cpu_options(CpuOptions { threads })
        .run_program(rep, prog, source)
        .unwrap()
}

proptest! {
    // The full plan matrix multiplies out to a few hundred engine runs
    // per case; fewer cases keep the suite fast while every combination
    // still sees double-digit generated graphs.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Plan-matrix differential: every backend × direction × frontier
    /// mode × CPU thread count × representation must reach exactly the
    /// fixpoint of a sequential push full sweep, and the combinations
    /// the theorems rule out must fail as *typed* plan errors, not
    /// wrong answers.
    #[test]
    fn plan_matrix_matches_sequential_push_sweep(
        g in arb_hubbed_graph(22, 80),
        k in 1u32..8,
        src in 0u32..22,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let plain = VirtualGraph::new(&g, k);
        let coal = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &coal }),
        ];
        for prog in PROGRAMS {
            let source = prog.needs_source().then_some(src);
            for (label, rep) in &reps {
                // Reference: a sequential push full sweep — no simulator,
                // no worklist, no parallelism.
                let reference = sequential_full_sweep(&g, prog, source);

                // Warp simulator: direction × frontier mode.
                for direction in Direction::ALL {
                    for mode in MODES {
                        let out = Engine::new(GpuConfig::tiny())
                            .with_direction(direction)
                            .with_options(opts(true, mode))
                            .run_program(rep, prog, source)
                            .unwrap();
                        prop_assert_eq!(
                            &out.values, &reference.values,
                            "warpsim/{}/{}/{}/{} diverged",
                            prog.name, label, direction.label(), mode.label()
                        );
                    }
                }

                // CPU pool: direction × threads, every run a lane of the
                // batched executor (every program here has an
                // associative combine, so pull is licensed on all three
                // representations).
                for direction in Direction::ALL {
                    for threads in THREADS {
                        let out = pool_run(rep, prog, source, direction, true, threads);
                        prop_assert_eq!(
                            &out.values, &reference.values,
                            "cpupool/{}/{}/{}/t{} diverged",
                            prog.name, label, direction.label(), threads
                        );
                    }
                }

                // Sequential backend: every direction, worklist on.
                for direction in Direction::ALL {
                    let out = Engine::new(GpuConfig::tiny())
                        .with_backend(BackendKind::Sequential)
                        .with_direction(direction)
                        .with_options(opts(true, FrontierMode::Auto))
                        .run_program(rep, prog, source)
                        .unwrap();
                    prop_assert_eq!(
                        &out.values, &reference.values,
                        "sequential/{}/{}/{} diverged",
                        prog.name, label, direction.label()
                    );
                }
            }

            // Theorem 3 boundary: pull over a physically split graph is a
            // typed error on every backend that can express it.
            let t = udt_transform(&g, k.max(2), sound_dumb_weight(prog));
            let rep = Representation::Physical(&t);
            for backend in [BackendKind::WarpSim, BackendKind::Sequential] {
                let err = Engine::new(GpuConfig::tiny())
                    .with_backend(backend)
                    .with_direction(Direction::Pull)
                    .run_program(&rep, prog, source)
                    .unwrap_err();
                prop_assert!(
                    matches!(err, EngineError::InvalidPlan(PlanError::PullOverPhysical)),
                    "{}: expected PullOverPhysical, got {err}", prog.name
                );
            }
        }
    }
}
