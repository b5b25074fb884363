//! Differential pins for the operator-based frontier API: every
//! analytic re-expressed as an advance/filter/compute [`Pipeline`]
//! must be **byte-equal** to the legacy entry points
//! (`run_program`/`pagerank`/`betweenness`) across the full
//! backend × direction × frontier × thread-count matrix, and each of the
//! four new workloads (khop, bounded paths, label propagation,
//! triangle counting) is checked against an independent in-test
//! oracle rather than against the engine that produced it.

use proptest::collection::vec;
use proptest::prelude::*;

use tigr::engine::{
    pr, BackendKind, CpuOptions, Direction, Engine, EngineError, FrontierMode, MonotoneProgram,
    Pipeline, PlanError, PrMode, PrOptions, PushOptions, SyncMode,
};
use tigr::{
    udt_transform, Csr, CsrBuilder, DumbWeight, Edge, NodeId, Representation, VirtualGraph,
};
use tigr_sim::GpuConfig;

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

/// Strategy: a weighted directed graph with a guaranteed hub so split
/// transforms and the virtual overlay actually fire.
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

/// Unit-weight BFS levels over the out-adjacency, computed without the
/// engine: the oracle for khop.
fn bfs_levels(g: &Csr, src: NodeId) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.num_nodes()];
    level[src.index()] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let next = level[u.index()] + 1;
        for e in g.edge_start(u)..g.edge_end(u) {
            let t = g.edge_target(e);
            if level[t.index()] == u32::MAX {
                level[t.index()] = next;
                queue.push_back(t);
            }
        }
    }
    level
}

/// Shortest distances by exhaustive Bellman-Ford relaxation, computed
/// without the engine: the oracle for bounded paths.
fn shortest_distances(g: &Csr, src: NodeId) -> Vec<u32> {
    let n = g.num_nodes();
    let mut dist = vec![u32::MAX; n];
    dist[src.index()] = 0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            let du = dist[u];
            if du == u32::MAX {
                continue;
            }
            let v = NodeId::from_index(u);
            for e in g.edge_start(v)..g.edge_end(v) {
                let t = g.edge_target(e).index();
                let cand = du.saturating_add(g.weight(e));
                if cand < dist[t] {
                    dist[t] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Per-node triangle counts of the simple undirected closure, by
/// brute-force triple enumeration: the oracle for tc.
fn triangle_oracle(g: &Csr) -> Vec<u32> {
    let n = g.num_nodes();
    let mut adj = vec![false; n * n];
    for u in 0..n {
        let v = NodeId::from_index(u);
        for e in g.edge_start(v)..g.edge_end(v) {
            let t = g.edge_target(e).index();
            if t != u {
                adj[u * n + t] = true;
                adj[t * n + u] = true;
            }
        }
    }
    let mut counts = vec![0u32; n];
    for a in 0..n {
        for b in a + 1..n {
            if !adj[a * n + b] {
                continue;
            }
            for c in b + 1..n {
                if adj[a * n + c] && adj[b * n + c] {
                    counts[a] += 1;
                    counts[b] += 1;
                    counts[c] += 1;
                }
            }
        }
    }
    counts
}

fn float_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Each case multiplies out to a few hundred engine runs; a modest
    // case count keeps the suite fast while every backend × direction
    // × frontier × thread-count combination still sees double-digit
    // graphs.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tentpole pin: the four monotone analytics expressed as operator
    /// pipelines are byte-equal (values, convergence, iteration count)
    /// to the legacy `run_program` entry point under every plan the
    /// engine can execute.
    #[test]
    fn monotone_pipelines_match_legacy_run_program(
        g in arb_hubbed_graph(22, 80),
        k in 1u32..8,
        src in 0u32..22,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let plain = VirtualGraph::new(&g, k);
        let overlay = VirtualGraph::coalesced(&g, k);
        let reps = [
            ("original", Representation::Original(&g)),
            ("virtual", Representation::Virtual { graph: &g, overlay: &plain }),
            ("virtual+", Representation::Virtual { graph: &g, overlay: &overlay }),
        ];
        for prog in PROGRAMS {
            let pipeline = prog.pipeline();
            let source = prog.needs_source().then_some(src);
            for (label, rep) in &reps {
                // Warp simulator: direction × frontier mode.
                for direction in Direction::ALL {
                    for mode in MODES {
                        let engine = Engine::new(GpuConfig::tiny())
                            .with_direction(direction)
                            .with_options(opts(true, mode));
                        let legacy = engine.run_program(rep, prog, source).unwrap();
                        let out = engine.run_pipeline(rep, &pipeline, source).unwrap();
                        prop_assert_eq!(
                            &out.values, &legacy.values,
                            "warpsim/{}/{}/{}/{} pipeline diverged from run_program",
                            prog.name, label, direction.label(), mode.label()
                        );
                        prop_assert_eq!(out.converged, legacy.converged);
                        prop_assert_eq!(out.iterations, legacy.directions.len() as u64);
                    }
                }
                // CPU pool: direction × threads.
                for direction in Direction::ALL {
                    for threads in [1, 2, 3] {
                        let engine = Engine::new(GpuConfig::tiny())
                            .with_backend(BackendKind::CpuPool)
                            .with_direction(direction)
                            .with_cpu_options(CpuOptions { threads });
                        let legacy = engine.run_program(rep, prog, source).unwrap();
                        let out = engine.run_pipeline(rep, &pipeline, source).unwrap();
                        prop_assert_eq!(
                            &out.values, &legacy.values,
                            "cpupool/{}/{}/{}/t{} pipeline diverged from run_program",
                            prog.name, label, direction.label(), threads
                        );
                        prop_assert_eq!(out.converged, legacy.converged);
                    }
                }
                // Sequential backend: every direction.
                for direction in Direction::ALL {
                    let engine = Engine::new(GpuConfig::tiny())
                        .with_backend(BackendKind::Sequential)
                        .with_direction(direction)
                        .with_options(opts(true, FrontierMode::Auto));
                    let legacy = engine.run_program(rep, prog, source).unwrap();
                    let out = engine.run_pipeline(rep, &pipeline, source).unwrap();
                    prop_assert_eq!(
                        &out.values, &legacy.values,
                        "sequential/{}/{}/{} pipeline diverged from run_program",
                        prog.name, label, direction.label()
                    );
                    prop_assert_eq!(out.converged, legacy.converged);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PR and BC pipelines carry their `f32` results as bit patterns:
    /// byte-equal to the legacy float entry points, on both rank
    /// traversal directions.
    #[test]
    fn float_pipelines_match_legacy_entry_points(
        g in arb_hubbed_graph(20, 70),
        src in 0u32..20,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let engine = Engine::new(GpuConfig::tiny());
        let rep = Representation::Original(&g);
        let degrees = pr::out_degrees(&g);

        let push = PrOptions::default();
        let out = engine.run_pipeline(&rep, &Pipeline::pagerank(push), None).unwrap();
        let legacy = engine.pagerank(&rep, &degrees, &push).unwrap();
        prop_assert_eq!(&out.values, &float_bits(&legacy.ranks), "push pr diverged");
        prop_assert_eq!(out.converged, legacy.converged);

        let pull = PrOptions { mode: PrMode::Pull, ..PrOptions::default() };
        let out = engine.run_pipeline(&rep, &Pipeline::pagerank(pull), None).unwrap();
        let rev = tigr_graph::reverse::transpose(&g);
        let legacy = engine.pagerank(&Representation::Original(&rev), &degrees, &pull).unwrap();
        prop_assert_eq!(&out.values, &float_bits(&legacy.ranks), "pull pr diverged");

        let out = engine.run_pipeline(&rep, &Pipeline::betweenness(), Some(src)).unwrap();
        let legacy = engine.betweenness(&rep, src).unwrap();
        prop_assert_eq!(&out.values, &float_bits(&legacy.centrality), "bc diverged");
    }

    /// khop against an engine-free BFS oracle: values are the true hop
    /// counts with everything beyond `k` masked to unreached, and the
    /// result is byte-identical on every backend.
    #[test]
    fn khop_matches_masked_bfs_oracle(
        g in arb_hubbed_graph(24, 90),
        k in 0u32..6,
        src in 0u32..24,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let rep = Representation::Original(&g);
        let mut expect = bfs_levels(&g, src);
        for v in expect.iter_mut() {
            if *v > k {
                *v = u32::MAX;
            }
        }
        let pipeline = Pipeline::khop(k);
        let mut outputs = Vec::new();
        for backend in [BackendKind::WarpSim, BackendKind::CpuPool, BackendKind::Sequential] {
            let engine = Engine::new(GpuConfig::tiny()).with_backend(backend);
            let out = engine.run_pipeline(&rep, &pipeline, Some(src)).unwrap();
            prop_assert_eq!(&out.values, &expect, "khop(k={}) diverged from masked BFS", k);
            outputs.push(out.values);
        }
        prop_assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    /// Bounded paths against an engine-free Bellman-Ford oracle: the
    /// first `n` values are shortest distances clamped at the radius,
    /// the second `n` a valid deterministic predecessor tree.
    #[test]
    fn bounded_paths_match_capped_dijkstra_oracle(
        g in arb_hubbed_graph(24, 90),
        radius in 1u32..60,
        src in 0u32..24,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let n = g.num_nodes();
        let rep = Representation::Original(&g);
        let mut expect = shortest_distances(&g, src);
        for v in expect.iter_mut() {
            if *v > radius {
                *v = u32::MAX;
            }
        }
        let pipeline = Pipeline::bounded_paths(radius);
        let seq = Engine::new(GpuConfig::tiny())
            .with_backend(BackendKind::Sequential)
            .run_pipeline(&rep, &pipeline, Some(src))
            .unwrap();
        prop_assert_eq!(seq.values.len(), 2 * n, "paths must carry distances + predecessors");
        let (dist, pred) = seq.values.split_at(n);
        prop_assert_eq!(dist, &expect[..], "radius={} distances diverged from oracle", radius);
        prop_assert_eq!(pred[src.index()], src.raw(), "source is its own parent");
        for t in 0..n {
            if t == src.index() {
                continue;
            }
            if dist[t] == u32::MAX {
                prop_assert_eq!(pred[t], u32::MAX, "unreached node {} has a parent", t);
                continue;
            }
            let p = pred[t] as usize;
            prop_assert!(p < n && dist[p] != u32::MAX, "node {} parent {} unusable", t, p);
            let pn = NodeId::from_index(p);
            let witnessed = (g.edge_start(pn)..g.edge_end(pn)).any(|e| {
                g.edge_target(e).index() == t && dist[p].saturating_add(g.weight(e)) == dist[t]
            });
            prop_assert!(witnessed, "no tight edge {} -> {} backs the tree", p, t);
        }
        // The 2n layout is scheduling-independent: every backend
        // produces the same bytes.
        for backend in [BackendKind::WarpSim, BackendKind::CpuPool] {
            let out = Engine::new(GpuConfig::tiny())
                .with_backend(backend)
                .run_pipeline(&rep, &pipeline, Some(src))
                .unwrap();
            prop_assert_eq!(&out.values, &seq.values, "{:?} paths diverged", backend);
        }
    }

    /// Label propagation: the round-capped BSP schedule is pinned, so
    /// every backend produces byte-identical sketches at every round
    /// count, and with enough rounds the sketch lands exactly on the
    /// CC fixpoint.
    #[test]
    fn label_propagation_is_deterministic_and_converges_to_cc(
        g in arb_hubbed_graph(20, 70),
        rounds in 1usize..4,
    ) {
        let rep = Representation::Original(&g);
        let n = g.num_nodes();
        let seq = Engine::new(GpuConfig::tiny()).with_backend(BackendKind::Sequential);

        let sketch = seq.run_pipeline(&rep, &Pipeline::label_propagation(rounds), None).unwrap();
        for backend in [BackendKind::WarpSim, BackendKind::CpuPool] {
            let out = Engine::new(GpuConfig::tiny())
                .with_backend(backend)
                .run_pipeline(&rep, &Pipeline::label_propagation(rounds), None)
                .unwrap();
            prop_assert_eq!(
                &out.values, &sketch.values,
                "{:?} lp(rounds={}) diverged from sequential", backend, rounds
            );
        }

        let full = seq.run_pipeline(&rep, &Pipeline::label_propagation(n + 1), None).unwrap();
        let cc = seq.run_program(&rep, MonotoneProgram::CC, None).unwrap();
        prop_assert_eq!(&full.values, &cc.values, "lp({} rounds) missed the CC fixpoint", n + 1);
        prop_assert!(full.converged, "lp with rounds > diameter must report convergence");
    }

    /// Triangle counting against a brute-force O(n^3) oracle over the
    /// simple undirected closure; the per-node sum is three times the
    /// global triangle count.
    #[test]
    fn triangle_counts_match_brute_force_oracle(
        g in arb_hubbed_graph(18, 70),
    ) {
        let rep = Representation::Original(&g);
        let expect = triangle_oracle(&g);
        let out = Engine::new(GpuConfig::tiny())
            .run_pipeline(&rep, &Pipeline::triangle_count(), None)
            .unwrap();
        prop_assert_eq!(&out.values, &expect, "tc diverged from brute-force oracle");
        let sum: u64 = out.values.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(sum % 3, 0, "corner incidences must come in threes");
    }
}

/// The capability checks surface as typed plan errors through the
/// public `Engine::run_pipeline` API, not as wrong answers.
#[test]
fn pipeline_capability_violations_are_typed_errors() {
    let mut b = CsrBuilder::new(4);
    for t in 1..4 {
        b.add(Edge::new(NodeId::new(0), NodeId::new(t), 1));
    }
    b.force_weighted(true);
    let g = b.build();
    let engine = Engine::new(GpuConfig::tiny());

    let err = engine
        .run_pipeline(&Representation::Original(&g), &Pipeline::bfs(), None)
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::InvalidPlan(PlanError::MissingSource { pipeline: "bfs" })
        ),
        "{err}"
    );
    let err = engine
        .run_pipeline(
            &Representation::Original(&g),
            &Pipeline::cc(),
            Some(NodeId::new(0)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::InvalidPlan(PlanError::UnexpectedSource { pipeline: "cc" })
        ),
        "{err}"
    );

    // Theorem 3 boundary for operators: khop's unit-hop relaxation is
    // not split-invariant, and paths/tc recompute over the original
    // adjacency — all three are typed rejections on a physical split.
    let t = udt_transform(&g, 2, DumbWeight::Zero);
    let rep = Representation::Physical(&t);
    for pipeline in [
        Pipeline::khop(2),
        Pipeline::bounded_paths(5),
        Pipeline::triangle_count(),
    ] {
        let source = pipeline.needs_source().then_some(NodeId::new(0));
        let err = engine.run_pipeline(&rep, &pipeline, source).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::InvalidPlan(PlanError::NotSplitInvariant { .. })
            ),
            "{}: expected NotSplitInvariant, got {err}",
            pipeline.name()
        );
    }
}
