//! Property-based tests of the core invariants, across randomly
//! generated graphs.

use proptest::collection::vec;
use proptest::prelude::*;

use tigr::core::{correctness, GraphStore, ViewPlan};
use tigr::engine::batch::{BatchArena, BatchProgram};
use tigr::engine::{BackendKind, CpuOptions, Direction, MonotoneProgram, PipelineOutput};
use tigr::graph::properties as oracle;
use tigr::graph::reverse::transpose;
use tigr::{
    circular_transform, clique_transform, star_transform, udt_transform, Csr, CsrBuilder,
    DumbWeight, Edge, Engine, NodeId, Representation, VirtualGraph,
};

/// Strategy: an arbitrary weighted directed graph with up to `n` nodes
/// and `m` edges.
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = Csr> {
    (2..n).prop_flat_map(move |nodes| {
        vec((0..nodes as u32, 0..nodes as u32, 1..100u32), 0..m).prop_map(move |edges| {
            let mut b = CsrBuilder::new(nodes);
            for (s, d, w) in edges {
                b.add(Edge::new(NodeId::new(s), NodeId::new(d), w));
            }
            b.force_weighted(true);
            b.build()
        })
    })
}

/// Strategy: a graph guaranteed to contain at least one high-degree node
/// (a hub wired to everything) so transformations actually fire.
fn arb_hubbed_graph(n: usize, m: usize) -> impl Strategy<Value = Csr> {
    arb_graph(n, m).prop_map(|g| {
        let nodes = g.num_nodes();
        let mut b = CsrBuilder::new(nodes);
        for e in g.edges() {
            b.add(e);
        }
        for t in 1..nodes as u32 {
            b.add(Edge::new(NodeId::new(0), NodeId::new(t), 7));
        }
        b.force_weighted(true);
        b.build()
    })
}

/// `prog` from `src` on the CPU pool with two workers.
fn cpu_pool(g: &Csr, prog: MonotoneProgram, src: NodeId) -> PipelineOutput {
    Engine::default()
        .with_backend(BackendKind::CpuPool)
        .with_cpu_options(CpuOptions { threads: 2 })
        .run_pipeline(&Representation::Original(g), &prog.pipeline(), Some(src))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn udt_respects_degree_bound(g in arb_hubbed_graph(40, 150), k in 2u32..12) {
        let t = udt_transform(&g, k, DumbWeight::Zero);
        prop_assert!(t.graph().max_out_degree() <= k as usize);
    }

    #[test]
    fn udt_conserves_original_edges(g in arb_hubbed_graph(40, 150), k in 2u32..12) {
        let t = udt_transform(&g, k, DumbWeight::Zero);
        // Original edges are re-attached exactly once: total edges =
        // original + introduced.
        prop_assert_eq!(
            t.graph().num_edges(),
            g.num_edges() + t.num_new_edges()
        );
        prop_assert!(correctness::verify_split_definition(&g, &t).is_ok());
    }

    #[test]
    fn udt_preserves_distances_from_every_source(
        g in arb_hubbed_graph(24, 80),
        k in 2u32..8,
        src in 0u32..24,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let t = udt_transform(&g, k, DumbWeight::Zero);
        prop_assert!(correctness::verify_distance_preservation(&g, &t, src).is_ok());
    }

    #[test]
    fn udt_with_infinity_preserves_bottlenecks(
        g in arb_hubbed_graph(24, 80),
        k in 2u32..8,
        src in 0u32..24,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let t = udt_transform(&g, k, DumbWeight::Infinity);
        prop_assert!(correctness::verify_bottleneck_preservation(&g, &t, src).is_ok());
    }

    #[test]
    fn all_split_topologies_preserve_connectivity(
        g in arb_hubbed_graph(30, 100),
        k in 2u32..8,
    ) {
        for t in [
            udt_transform(&g, k, DumbWeight::Zero),
            star_transform(&g, k, DumbWeight::Zero),
            circular_transform(&g, k, DumbWeight::Zero),
            clique_transform(&g, k, DumbWeight::Zero),
        ] {
            prop_assert!(correctness::verify_connectivity_preservation(&g, &t).is_ok(),
                "{} broke connectivity", t.topology());
            // Corollary 4 (in-degree preservation) is a UDT/star property:
            // the circular and clique constructions route intra-family
            // edges back into the root, adding inert incoming edges.
            if matches!(t.topology(), "udt" | "star") {
                prop_assert!(correctness::verify_indegree_preservation(&g, &t).is_ok(),
                    "{} broke in-degrees", t.topology());
            }
        }
    }

    #[test]
    fn virtual_overlay_covers_every_edge_exactly_once(
        g in arb_graph(60, 300),
        k in 1u32..16,
    ) {
        let plain = VirtualGraph::new(&g, k);
        prop_assert!(plain.validate_against(&g).is_ok());
        let coal = VirtualGraph::coalesced(&g, k);
        prop_assert!(coal.validate_against(&g).is_ok());
        // Same virtual node count in both layouts.
        prop_assert_eq!(plain.num_virtual_nodes(), coal.num_virtual_nodes());
    }

    #[test]
    fn transpose_is_an_involution(g in arb_graph(50, 200)) {
        prop_assert_eq!(transpose(&transpose(&g)), g);
    }

    #[test]
    fn transpose_preserves_edge_multiset(g in arb_graph(50, 200)) {
        let t = transpose(&g);
        let mut fwd: Vec<(u32, u32, u32)> =
            g.edges().map(|e| (e.src.raw(), e.dst.raw(), e.weight)).collect();
        let mut rev: Vec<(u32, u32, u32)> =
            t.edges().map(|e| (e.dst.raw(), e.src.raw(), e.weight)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn cpu_engine_sssp_matches_dijkstra(g in arb_graph(40, 200), src in 0u32..40) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let out = cpu_pool(&g, MonotoneProgram::SSSP, src);
        prop_assert_eq!(out.values, oracle::dijkstra(&g, src));
    }

    #[test]
    fn cpu_engine_sswp_matches_widest_path(g in arb_graph(40, 200), src in 0u32..40) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let out = cpu_pool(&g, MonotoneProgram::SSWP, src);
        prop_assert_eq!(out.values, oracle::widest_path(&g, src));
    }

    /// A solo `CpuPool` run *is* the `K = 1` lane of a `CpuPool` batch,
    /// prepared transpose and overlay included, to the byte.
    #[test]
    fn cpu_pool_solo_run_is_its_one_lane_batch(
        g in arb_graph(40, 200),
        src in 0u32..40,
        k in 1u32..8,
        coalesced in any::<bool>(),
        direction in 0usize..3,
        threads in 1usize..4,
    ) {
        let src = NodeId::new(src % g.num_nodes() as u32);
        let plan = ViewPlan { virtual_k: Some(k), coalesced, transpose: true };
        let prepared = GraphStore::disabled().materialize(g, plan).unwrap();
        let engine = Engine::default()
            .with_backend(BackendKind::CpuPool)
            .with_direction(Direction::ALL[direction])
            .with_cpu_options(CpuOptions { threads });
        let solo = engine.run_prepared(&prepared, MonotoneProgram::SSSP, Some(src)).unwrap();
        let batch = BatchProgram::from_sources(MonotoneProgram::SSSP, [Some(src)]);
        let lane = engine
            .run_prepared_batch(&prepared, &batch, &mut BatchArena::new())
            .unwrap()
            .lanes
            .remove(0);
        prop_assert_eq!(&solo.values, &lane.values);
        prop_assert_eq!(&solo.directions, &lane.directions);
        prop_assert_eq!(solo.edges_touched, lane.edges_touched);
        prop_assert_eq!(solo.converged, lane.converged);
        prop_assert_eq!(solo.cancelled, lane.cancelled);
    }

    #[test]
    fn csr_builder_edge_count_and_degrees_consistent(g in arb_graph(50, 250)) {
        let total: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total, g.num_edges());
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn degree_stats_are_internally_consistent(g in arb_graph(50, 250)) {
        let s = tigr::graph::stats::degree_stats(&g);
        prop_assert_eq!(s.num_edges, g.num_edges());
        prop_assert!(s.median_degree <= s.p99_degree);
        prop_assert!(s.p99_degree <= s.max_degree);
        prop_assert!((0.0..=1.0).contains(&s.frac_below_20));
    }
}

/// Deterministic edge-case regressions for `VirtualGraph::{new, coalesced}`
/// — degenerate inputs the random strategies above rarely hit exactly.
mod virtual_graph_edge_cases {
    use super::*;

    fn both(g: &Csr, k: u32) -> [VirtualGraph; 2] {
        [VirtualGraph::new(g, k), VirtualGraph::coalesced(g, k)]
    }

    #[test]
    fn empty_graph_yields_empty_overlay() {
        let g = CsrBuilder::new(0).build();
        for ov in both(&g, 4) {
            assert_eq!(ov.num_virtual_nodes(), 0);
            assert_eq!(ov.num_physical_nodes(), 0);
            ov.validate_against(&g).unwrap();
            assert!(ov.expand_active(&[]).is_empty());
        }
    }

    #[test]
    fn single_isolated_node_gets_one_empty_family() {
        let g = CsrBuilder::new(1).build();
        for ov in both(&g, 4) {
            // Zero-degree nodes still get a virtual node covering no edges.
            assert_eq!(ov.num_virtual_nodes(), 1);
            assert_eq!(ov.vnode_range(NodeId::new(0)), 0..1);
            assert_eq!(ov.vnode(0).count, 0);
            ov.validate_against(&g).unwrap();
            assert_eq!(ov.expand_active(&[0]), vec![0]);
        }
    }

    #[test]
    fn self_loops_are_covered_like_any_edge() {
        let mut b = CsrBuilder::new(3);
        b.edge(0, 0).edge(0, 1).edge(0, 0).edge(2, 2);
        let g = b.build();
        for ov in both(&g, 2) {
            ov.validate_against(&g).unwrap();
            // Node 0's three edges split into two virtual nodes at K = 2.
            assert_eq!(ov.vnode_range(NodeId::new(0)).len(), 2);
            let covered: usize = ov.vnodes().iter().map(|vn| vn.count as usize).sum();
            assert_eq!(covered, g.num_edges());
        }
    }

    #[test]
    fn k_one_gives_one_virtual_node_per_edge() {
        let mut b = CsrBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(0, 3).edge(1, 2);
        let g = b.build();
        for ov in both(&g, 1) {
            ov.validate_against(&g).unwrap();
            // Every edge-covering family has exactly one edge; zero-degree
            // nodes contribute their placeholder.
            assert!(ov.vnodes().iter().all(|vn| vn.count <= 1));
            let zero_degree = g.nodes().filter(|&v| g.out_degree(v) == 0).count();
            assert_eq!(ov.num_virtual_nodes(), g.num_edges() + zero_degree);
            assert_eq!(ov.max_virtual_degree(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "degree bound K must be at least 1")]
    fn k_zero_rejected() {
        let _ = VirtualGraph::new(&CsrBuilder::new(2).build(), 0);
    }
}
