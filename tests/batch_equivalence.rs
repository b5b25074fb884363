//! Differential proptest harness for batched multi-source execution,
//! with two equality regimes:
//!
//! - **Byte equality** for the push batch: a K-lane [`BatchProgram`] run
//!   over a random graph must match K independent sequential
//!   single-source runs observable-for-observable — same value arrays,
//!   same per-iteration directions, same convergence and cancellation
//!   flags, same `edges_touched`, same FNV-1a64 checksums. The same
//!   holds between backends: every `CpuPool` cell of the execution
//!   matrix (its lanes dealt across 1–3 threads) is byte-equal to the
//!   `Sequential` cell of the same representation and direction, fewer
//!   or more lanes than threads, duplicate, cancelled and capped lanes
//!   included.
//! - **Value equality** between directions: a `Sequential` pull or auto
//!   cell reaches the push reference's fixpoint values, checksums and
//!   convergence, while its iteration and edge counts are those of the
//!   gather.
//!
//! Duplicate sources inside one batch, the K=1 degenerate batch, arena
//! reuse across batches, and typed plan errors (pull needing
//! associativity) are all part of the property set.
//!
//! The byte-equality properties compare the driver with itself, so they
//! also hold every lane against two loops that share nothing with it
//! (`common`): a plain reference on `values`, `iterations`,
//! `edges_touched` and `converged`, and the simulated push engine on
//! `values` and `converged`. The kernel compiles one relax body per
//! (edge function, combine, BSP or not, weighted or unit row), so the
//! strategies draw every one of them: six programs, four schedules,
//! weighted and unweighted graphs.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;

use common::{assert_lane_is_the_reference_run, reference_push, simulated_push};
use tigr::core::CancelToken;
use tigr::engine::batch::{BatchArena, BatchLane, BatchOutput, BatchProgram};
use tigr::engine::{
    run_batch_push, BackendKind, CpuOptions, Direction, EngineError, MonotoneOutput, PlanError,
};
use tigr::graph::generators::{rmat, with_uniform_weights, RmatConfig};
use tigr::server::checksum;
use tigr::{
    Csr, CsrBuilder, Edge, Engine, MonotoneProgram, NodeId, PushOptions, Representation, SyncMode,
    VirtualGraph,
};

/// Every edge function and both combines: `AddWeight`/min (bfs, sssp),
/// `MinWeight`/max (sswp), `Copy` (cc), `AddUnit` (khop),
/// `AddWeightCapped` (paths).
const PROGRAMS: [MonotoneProgram; 6] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
    MonotoneProgram::KHOP,
    common::paths_program(120),
];

/// The four schedules of the push driver: the served one (worklist,
/// relaxed), `rounds` synchronous full sweeps (`Engine::run_rounds`,
/// i.e. `lp`), worklist under BSP, and relaxed full sweeps.
fn schedule(kind: usize, rounds: usize) -> PushOptions {
    match kind {
        0 => PushOptions::default(),
        1 => common::bsp_rounds(rounds),
        2 => PushOptions {
            sync: SyncMode::Bsp,
            ..PushOptions::default()
        },
        _ => PushOptions {
            worklist: false,
            ..PushOptions::default()
        },
    }
}

/// Strategy: an arbitrary directed graph, weighted or not, with up to
/// `n` nodes and `m` edges (self-loops, parallel edges, and unreachable
/// islands all included — the batch path must not care).
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = Csr> {
    (2..n, any::<bool>()).prop_flat_map(move |(nodes, weighted)| {
        vec((0..nodes as u32, 0..nodes as u32, 1..100u32), 0..m).prop_map(move |edges| {
            let mut b = CsrBuilder::new(nodes);
            for (s, d, w) in edges {
                let w = if weighted { w } else { 1 };
                b.add(Edge::new(NodeId::new(s), NodeId::new(d), w));
            }
            b.force_weighted(weighted);
            b.build()
        })
    })
}

/// The single-source reference: the server's exact deterministic plan.
fn solo(g: &Csr, prog: MonotoneProgram, source: Option<NodeId>) -> MonotoneOutput {
    solo_under(g, prog, source, &PushOptions::default())
}

/// [`solo`] under another push schedule.
fn solo_under(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
) -> MonotoneOutput {
    let out = Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_options(*options)
        .run_pipeline(&Representation::Original(g), &prog.pipeline(), source)
        .unwrap();
    MonotoneOutput {
        values: out.values,
        report: out.report,
        converged: out.converged,
        edges_touched: out.edges_touched,
        directions: out.directions,
        cancelled: out.cancelled,
    }
}

/// One batched run through the engine facade with a caller-owned arena.
fn batched(
    g: &Csr,
    prog: MonotoneProgram,
    sources: &[Option<NodeId>],
    arena: &mut BatchArena,
) -> BatchOutput {
    batched_under(g, prog, sources, &PushOptions::default(), arena)
}

/// [`batched`] under another push schedule.
fn batched_under(
    g: &Csr,
    prog: MonotoneProgram,
    sources: &[Option<NodeId>],
    options: &PushOptions,
    arena: &mut BatchArena,
) -> BatchOutput {
    let batch = BatchProgram {
        prog,
        lanes: sources.iter().map(|&s| BatchLane::new(s)).collect(),
    };
    Engine::default()
        .with_options(*options)
        .run_batch(&Representation::Original(g), &batch, arena)
        .unwrap()
}

/// A lane against everything that can vouch for it: the solo run of the
/// same driver to the byte, and the two independent loops.
fn assert_lane_is_every_reference_run(
    lane: &MonotoneOutput,
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
    label: &str,
) {
    assert_byte_equal(lane, &solo_under(g, prog, source, options), label);
    assert_lane_is_the_reference_run(
        lane,
        &reference_push(g, prog, source, options),
        &simulated_push(g, prog, source, options),
        label,
    );
}

/// Full byte-equality: every observable of the lane matches the solo
/// run, including the serving checksum.
fn assert_byte_equal(lane: &MonotoneOutput, reference: &MonotoneOutput, label: &str) {
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        checksum(&lane.values),
        checksum(&reference.values),
        "{label}: checksum"
    );
    assert_eq!(lane.directions, reference.directions, "{label}: directions");
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert_eq!(lane.cancelled, reference.cancelled, "{label}: cancelled");
    assert_eq!(
        lane.edges_touched, reference.edges_touched,
        "{label}: edges_touched"
    );
}

/// Materializes lane sources for a program: source-free programs (CC)
/// get `None` lanes — deliberately duplicated, since identical lanes
/// are legal batch members.
fn lane_sources(prog: MonotoneProgram, picks: &[u32], nodes: u32) -> Vec<Option<NodeId>> {
    picks
        .iter()
        .map(|&p| prog.needs_source().then(|| NodeId::new(p % nodes)))
        .collect()
}

/// One batched run through a fully specified execution-plan cell of
/// the matrix: representation × backend × direction × thread count ×
/// push schedule.
fn batched_cell(
    rep: &Representation<'_>,
    batch: &BatchProgram,
    backend: BackendKind,
    direction: Direction,
    threads: usize,
    options: &PushOptions,
    arena: &mut BatchArena,
) -> Result<BatchOutput, EngineError> {
    Engine::default()
        .with_backend(backend)
        .with_direction(direction)
        .with_cpu_options(CpuOptions { threads })
        .with_options(*options)
        .run_batch(rep, batch, arena)
}

/// A `CpuPool` batch against the `Sequential` one: every lane byte-equal,
/// and the same number of fused sweeps.
fn assert_batch_byte_equal(pool: &BatchOutput, seq: &BatchOutput, label: &str) {
    assert_eq!(pool.lanes.len(), seq.lanes.len(), "{label}: lanes");
    assert_eq!(pool.sweeps, seq.sweeps, "{label}: sweeps");
    for (i, (lane, want)) in pool.lanes.iter().zip(&seq.lanes).enumerate() {
        assert_byte_equal(lane, want, &format!("{label} lane {i}"));
    }
}

/// Value-level equality: the lane reached the reference fixpoint with
/// the same convergence outcome. Iteration and edge counts are *not*
/// compared — a gather touches other edges in other iterations than the
/// push reference (see [`assert_byte_equal`] for everything else).
fn assert_value_equal(lane: &MonotoneOutput, reference: &MonotoneOutput, label: &str) {
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        checksum(&lane.values),
        checksum(&reference.values),
        "{label}: checksum"
    );
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert_eq!(lane.cancelled, reference.cancelled, "{label}: cancelled");
}

const DIRECTIONS: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: random graph × program × schedule ×
    /// source multiset (up to K = 8; duplicates included by
    /// construction — picks collide mod the node count), batched
    /// K-source run byte-equal to K independent sequential runs, and
    /// each lane the run both independent loops take.
    #[test]
    fn batched_lanes_byte_equal_independent_sequential_runs(
        g in arb_graph(40, 200),
        algo in 0usize..6,
        kind in 0usize..4,
        rounds in 1usize..6,
        picks in vec(0u32..10_000, 1..9),
    ) {
        let prog = PROGRAMS[algo];
        let options = schedule(kind, rounds);
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched_under(&g, prog, &sources, &options, &mut arena);
        prop_assert_eq!(out.lanes.len(), sources.len());
        for (i, (&source, lane)) in sources.iter().zip(&out.lanes).enumerate() {
            let label = format!("{}/{kind} lane {i} src {source:?}", prog.name);
            assert_lane_is_every_reference_run(lane, &g, prog, source, &options, &label);
        }
        let widest = out.lanes.iter().map(|l| l.directions.len()).max().unwrap_or(0);
        prop_assert_eq!(out.sweeps, widest);
    }

    /// The K=1 degenerate batch is exactly the solo run — this is the
    /// path every non-batched server query takes through the arena.
    #[test]
    fn single_lane_batch_is_the_solo_run(
        g in arb_graph(40, 200),
        algo in 0usize..6,
        kind in 0usize..4,
        rounds in 1usize..6,
        pick in 0u32..10_000,
    ) {
        let prog = PROGRAMS[algo];
        let options = schedule(kind, rounds);
        let sources = lane_sources(prog, &[pick], g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched_under(&g, prog, &sources, &options, &mut arena);
        prop_assert_eq!(out.lanes.len(), 1);
        let label = format!("{}/{kind}", prog.name);
        assert_lane_is_every_reference_run(&out.lanes[0], &g, prog, sources[0], &options, &label);
    }

    /// A batch made entirely of one duplicated source yields identical
    /// lanes, each byte-equal to the one solo run.
    #[test]
    fn duplicate_sources_share_nothing_but_the_answer(
        g in arb_graph(30, 120),
        algo in 0usize..6,
        pick in 0u32..10_000,
        k in 2usize..6,
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &vec![pick; k], g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched(&g, prog, &sources, &mut arena);
        let reference = solo(&g, prog, sources[0]);
        for (i, lane) in out.lanes.iter().enumerate() {
            assert_byte_equal(lane, &reference, &format!("{} dup lane {i}", prog.name));
        }
    }

    /// Determinism: the same batch composition re-run through the same
    /// (now warm) arena, and through a fresh arena, produces
    /// byte-identical outputs — recycled lane storage leaks nothing.
    #[test]
    fn repeated_runs_and_arena_reuse_are_byte_identical(
        g in arb_graph(30, 120),
        algo in 0usize..6,
        picks in vec(0u32..10_000, 1..6),
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let mut warm = BatchArena::new();
        // Dirty the arena with a different batch first: wider, other
        // sources, so reuse actually has stale state to clear.
        let dirty = lane_sources(prog, &[3, 1, 4, 1, 5, 9], g.num_nodes() as u32);
        batched(&g, prog, &dirty, &mut warm);
        let first = batched(&g, prog, &sources, &mut warm);
        let second = batched(&g, prog, &sources, &mut warm);
        let fresh = batched(&g, prog, &sources, &mut BatchArena::new());
        prop_assert_eq!(first.sweeps, second.sweeps);
        prop_assert_eq!(first.sweeps, fresh.sweeps);
        for i in 0..sources.len() {
            assert_byte_equal(&second.lanes[i], &first.lanes[i], "rerun/warm");
            assert_byte_equal(&fresh.lanes[i], &first.lanes[i], "rerun/fresh");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The execution matrix: {Sequential, CpuPool} × {push, pull,
    /// auto} × {flat CSR, plain overlay, coalesced overlay} × threads
    /// {1, 2, 3} × random source vectors. Every `Sequential` cell reaches
    /// the sequential push reference fixpoint per lane (values,
    /// checksums, convergence). Every `CpuPool` cell — and its re-run
    /// through a warm arena — is byte-equal to the `Sequential` cell of
    /// the same representation and direction: dealing lanes across
    /// threads changes nothing a lane reports.
    #[test]
    fn execution_matrix_reaches_the_sequential_fixpoint(
        g in arb_graph(30, 120),
        algo in 0usize..4,
        picks in vec(0u32..10_000, 1..6),
        k in 1u32..8,
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let batch = BatchProgram::from_sources(prog, sources.iter().copied());
        let served = PushOptions::default();
        let refs: Vec<MonotoneOutput> = sources.iter().map(|&s| solo(&g, prog, s)).collect();
        let plain = VirtualGraph::new(&g, k);
        let coal = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &coal }),
        ];
        for direction in DIRECTIONS {
            for (label, rep) in &reps {
                // Sequential backend: push and auto take the lockstep
                // batched sweep, pull runs lanes solo.
                let seq = batched_cell(
                    rep, &batch, BackendKind::Sequential, direction, 1, &served,
                    &mut BatchArena::new(),
                ).unwrap();
                for (i, reference) in refs.iter().enumerate() {
                    let label = format!("sequential/{}/{direction:?}/{label} lane {i}", prog.name);
                    assert_value_equal(&seq.lanes[i], reference, &label);
                }
                for threads in [1, 2, 3] {
                    let mut arena = BatchArena::new();
                    let label = format!("cpupool/{}/{direction:?}/{label}/t{threads}", prog.name);
                    for run in ["fresh", "warm"] {
                        let out = batched_cell(
                            rep, &batch, BackendKind::CpuPool, direction, threads, &served,
                            &mut arena,
                        ).unwrap();
                        assert_batch_byte_equal(&out, &seq, &format!("{label} {run}"));
                    }
                }
            }
        }
    }

    /// The dealing edge cases: two to nine lanes against one to three
    /// threads (fewer lanes than threads, and more), a duplicated
    /// source, one lane cancelled before its first iteration, and an
    /// iteration cap of 2 that stops lanes short of their fixpoint. In
    /// every direction each `CpuPool` lane is byte-equal to the
    /// `Sequential` lane, and the cancelled lane reports exactly that.
    #[test]
    fn cpu_pool_deals_lanes_byte_equal_to_sequential(
        g in arb_graph(30, 120),
        algo in 0usize..6,
        mut picks in vec(0u32..10_000, 1..9),
        doomed in 0usize..9,
        capped in any::<bool>(),
    ) {
        let prog = PROGRAMS[algo];
        picks.push(picks[0]);
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let doomed = doomed % sources.len();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let batch = BatchProgram {
            prog,
            lanes: sources
                .iter()
                .enumerate()
                .map(|(i, &s)| match i == doomed {
                    true => BatchLane::with_cancel(s, cancelled.clone()),
                    false => BatchLane::new(s),
                })
                .collect(),
        };
        let mut options = PushOptions::default();
        if capped {
            options.max_iterations = 2;
        }
        let rep = Representation::Original(&g);
        for direction in DIRECTIONS {
            let seq = batched_cell(
                &rep, &batch, BackendKind::Sequential, direction, 1, &options,
                &mut BatchArena::new(),
            ).unwrap();
            let gone = &seq.lanes[doomed];
            prop_assert!(gone.cancelled && !gone.converged && gone.directions.is_empty());
            let mut arena = BatchArena::new();
            for threads in [1, 2, 3] {
                let out = batched_cell(
                    &rep, &batch, BackendKind::CpuPool, direction, threads, &options,
                    &mut arena,
                ).unwrap();
                let label = format!(
                    "{}/{direction:?}/k{}/t{threads}/cap {capped}",
                    prog.name,
                    sources.len()
                );
                assert_batch_byte_equal(&out, &seq, &label);
            }
        }
    }
}

/// Sixteen sources with out-edges, spread over the id range.
fn spread_sources(g: &Csr) -> Vec<NodeId> {
    let stride = g.num_nodes() / 16;
    (0..16)
        .map(|i| {
            (i * stride..g.num_nodes())
                .map(NodeId::from_index)
                .find(|&v| g.out_degree(v) > 0)
                .expect("a node with out-edges")
        })
        .collect()
}

/// What goes on the wire has a reference that shares no code with the
/// engine, on a graph the size of a served one's rows: every program on
/// `rmat:15:16`, weighted and not, lane ≡ plain loop on `values`,
/// `iterations`, `edges_touched`, `converged`. And a cost guard on the
/// same pair: the driver runs the GPU-shaped kernel with one writer, so
/// it may cost what the plain loop costs and little more. Optimized, the
/// ratio is 0.9–1.15 and the bound 1.5 (`scripts/verify.sh` runs this
/// under `--release`); before lane state was plain memory and the program
/// resolved per row it was 2.0–2.2 (a `match` on each operator per edge,
/// three `lock`ed read-modify-writes). The test profile keeps debug
/// assertions and inlines neither `relax_slot` nor `push_relax` into the
/// driver, which the reference has no counterpart of: 1.55–1.65 there
/// (2.65 before), so its bound is 2.0.
#[test]
fn lanes_are_the_plain_reference_run_at_no_more_than_1_5x_its_cost() {
    let unit = rmat(&RmatConfig::graph500(15, 16), 7);
    let weighted = with_uniform_weights(&unit, 1, 32, 3);
    let sources = spread_sources(&unit);
    let served = PushOptions::default();
    let mut arena = BatchArena::new();
    let mut lane = |g: &Csr, prog, source, options: &PushOptions| {
        let batch = BatchProgram::from_sources(prog, [source]);
        run_batch_push(g, &batch, options, 1, &mut arena)
            .lanes
            .remove(0)
    };

    for (g, shape) in [(&weighted, "weighted"), (&unit, "unit")] {
        let mut programs = PROGRAMS;
        programs[5] = common::paths_program(24);
        for prog in programs {
            let picks = if prog.needs_source() { 3 } else { 1 };
            for &s in &sources[..picks] {
                let source = prog.needs_source().then_some(s);
                let label = format!("{shape}/{}/{source:?}", prog.name);
                let got = lane(g, prog, source, &served);
                let want = reference_push(g, prog, source, &served);
                assert_eq!(got.values, want.values, "{label}: values");
                assert_eq!(got.directions.len(), want.iterations, "{label}: iterations");
                assert_eq!(got.edges_touched, want.edges_touched, "{label}: edges");
                assert_eq!(got.converged, want.converged, "{label}: converged");
                assert!(
                    want.converged && want.edges_touched > 0,
                    "{label}: trivial run"
                );
            }
        }
        // BSP, capped before the fixpoint: `lp`'s four rounds.
        let rounds = common::bsp_rounds(4);
        let got = lane(g, MonotoneProgram::CC, None, &rounds);
        let want = reference_push(g, MonotoneProgram::CC, None, &rounds);
        assert_eq!(got.values, want.values, "{shape}/lp: values");
        assert_eq!(got.directions.len(), 4, "{shape}/lp: iterations");
        assert_eq!(got.edges_touched, want.edges_touched, "{shape}/lp: edges");
        assert!(!got.converged && !want.converged, "{shape}/lp: converged");
    }

    // Cost: engine and reference interleaved, per-source minimum of
    // three, medians over the sixteen sources.
    let clock = |run: &mut dyn FnMut() -> u64| {
        let started = std::time::Instant::now();
        let edges = run();
        (started.elapsed().as_secs_f64() * 1e3, edges)
    };
    let (mut engine_ms, mut reference_ms) = (Vec::new(), Vec::new());
    for &s in &sources {
        let (mut engine, mut reference) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            let (ms, edges) = clock(&mut || {
                lane(&weighted, MonotoneProgram::SSSP, Some(s), &served).edges_touched
            });
            engine = engine.min(ms);
            let (ms, same) = clock(&mut || {
                reference_push(&weighted, MonotoneProgram::SSSP, Some(s), &served).edges_touched
            });
            reference = reference.min(ms);
            assert_eq!(edges, same);
        }
        engine_ms.push(engine);
        reference_ms.push(reference);
    }
    let median = |ms: &mut Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let (engine, reference) = (median(&mut engine_ms), median(&mut reference_ms));
    let ratio = engine / reference;
    let bound = if cfg!(debug_assertions) { 2.0 } else { 1.5 };
    println!("lane driver {engine:.2} ms / plain reference loop {reference:.2} ms = {ratio:.2}");
    assert!(
        ratio <= bound,
        "the lane driver took {ratio:.2}x the plain reference loop (bound {bound})"
    );
}

/// Seed corpus: hand-picked compositions that exercise the merge
/// loop's edges — kept as focused tests so they run on every `cargo
/// test` regardless of the random sampler (see the companion
/// `.proptest-regressions` file).
mod seed_corpus {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let mut b = CsrBuilder::new(n);
        for i in 0..n - 1 {
            b.add(Edge::new(
                NodeId::new(i as u32),
                NodeId::new(i as u32 + 1),
                2,
            ));
        }
        b.force_weighted(true);
        b.build()
    }

    /// Lanes that converge at very different iteration counts: sources
    /// at both ends of a long path. The early-finishing lane must drop
    /// out without disturbing the long one.
    #[test]
    fn staggered_convergence_on_a_path() {
        let g = path_graph(64);
        let sources = [
            Some(NodeId::new(0)),
            Some(NodeId::new(62)),
            Some(NodeId::new(31)),
        ];
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::SSSP, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::SSSP, s),
                &format!("path lane {i}"),
            );
        }
        assert_eq!(out.sweeps, out.lanes[0].directions.len());
    }

    /// An edgeless graph: every lane converges after one sweep; CC
    /// lanes keep their own-id labels.
    #[test]
    fn edgeless_graph_converges_immediately() {
        let g = CsrBuilder::new(5).build();
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::CC, &[None, None], &mut arena);
        for lane in &out.lanes {
            assert_byte_equal(lane, &solo(&g, MonotoneProgram::CC, None), "edgeless cc");
            assert_eq!(lane.values, vec![0, 1, 2, 3, 4]);
        }
    }

    /// A source with no outgoing edges: the lane's frontier dies at
    /// iteration one, everyone else stays unreached.
    #[test]
    fn sink_source_lane_finishes_first() {
        let g = path_graph(8);
        let sources = [Some(NodeId::new(7)), Some(NodeId::new(0))];
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::BFS, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::BFS, s),
                &format!("sink lane {i}"),
            );
        }
        assert!(out.lanes[0].values[..7].iter().all(|&v| v == u32::MAX));
    }

    /// Self-loops and parallel edges in one batch (the shrunk shape of
    /// an early random failure candidate: node 0 looping onto itself
    /// with duplicated weights).
    #[test]
    fn self_loops_and_parallel_edges() {
        let mut b = CsrBuilder::new(3);
        b.add(Edge::new(NodeId::new(0), NodeId::new(0), 1));
        b.add(Edge::new(NodeId::new(0), NodeId::new(1), 5));
        b.add(Edge::new(NodeId::new(0), NodeId::new(1), 3));
        b.add(Edge::new(NodeId::new(1), NodeId::new(2), 7));
        b.force_weighted(true);
        let g = b.build();
        let mut arena = BatchArena::new();
        for prog in PROGRAMS {
            let picks: &[u32] = if prog.needs_source() {
                &[0, 1, 2]
            } else {
                &[0]
            };
            let sources = lane_sources(prog, picks, 3);
            let out = batched(&g, prog, &sources, &mut arena);
            for (i, &s) in sources.iter().enumerate() {
                assert_byte_equal(
                    &out.lanes[i],
                    &solo(&g, prog, s),
                    &format!("{} loop lane {i}", prog.name),
                );
            }
        }
    }

    /// Widest supported mix: every node of a small clique as a source
    /// at once, plus duplicates beyond the node count.
    #[test]
    fn full_fanout_with_duplicates() {
        let mut b = CsrBuilder::new(6);
        for s in 0..6u32 {
            for d in 0..6u32 {
                if s != d {
                    b.add(Edge::new(NodeId::new(s), NodeId::new(d), 1 + (s + d) % 4));
                }
            }
        }
        b.force_weighted(true);
        let g = b.build();
        let sources: Vec<Option<NodeId>> = (0..8u32).map(|i| Some(NodeId::new(i % 6))).collect();
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::SSWP, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::SSWP, s),
                &format!("clique lane {i}"),
            );
        }
    }

    /// Pull over a virtual split partitions a node's in-edge fold
    /// across threads; a non-associative combine must be refused with
    /// the Theorem 3 plan error, not silently computed wrong.
    #[test]
    fn pull_over_a_virtual_view_needs_associativity() {
        let g = path_graph(8);
        let overlay = VirtualGraph::new(&g, 2);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &overlay,
        };
        let prog = MonotoneProgram {
            associative: false,
            ..MonotoneProgram::SSSP
        };
        let batch = BatchProgram {
            prog,
            lanes: vec![BatchLane::new(Some(NodeId::new(0)))],
        };
        let err = Engine::default()
            .with_backend(BackendKind::CpuPool)
            .with_direction(Direction::Pull)
            .run_batch(&rep, &batch, &mut BatchArena::new());
        assert!(
            matches!(
                err,
                Err(EngineError::InvalidPlan(
                    PlanError::PullNeedsAssociativity { program: "sssp" }
                ))
            ),
            "{err:?}"
        );
    }
}
