//! Push and pull drivers must reach identical fixpoints — the
//! cross-scheme differential test over all programs and overlays.

use tigr::engine::{
    run_monotone, Direction, ExecutionPlan, MonotoneOutput, MonotoneProgram, PullSide,
};
use tigr::graph::datasets;
use tigr::graph::generators::{self, RmatConfig};
use tigr::graph::reverse::transpose;
use tigr::{Engine, FrontierMode, GpuConfig, GpuSimulator, NodeId, Representation, VirtualGraph};

fn fixture() -> (tigr::Csr, tigr::Csr) {
    let g = datasets::by_name("pokec")
        .unwrap()
        .generate_weighted(8192, 13);
    let rev = transpose(&g);
    (g, rev)
}

fn plan(direction: Direction) -> ExecutionPlan {
    ExecutionPlan {
        direction,
        ..ExecutionPlan::default()
    }
}

/// A `direction` run on a host-parallel simulator.
fn run(
    rep: &Representation<'_>,
    pull: Option<PullSide<'_>>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    direction: Direction,
) -> MonotoneOutput {
    let sim = GpuSimulator::new_parallel(GpuConfig::default());
    run_monotone(&sim, rep, pull, prog, source, &plan(direction)).unwrap()
}

#[test]
fn push_and_pull_agree_on_every_monotone_program() {
    let (g, rev) = fixture();
    let src = NodeId::new(0);
    let rep = Representation::Original(&g);
    let side = PullSide {
        reverse: &rev,
        overlay: None,
    };

    for prog in [
        MonotoneProgram::SSSP,
        MonotoneProgram::BFS,
        MonotoneProgram::SSWP,
        MonotoneProgram::CC,
    ] {
        let source = prog.needs_source().then_some(src);
        let push = run(&rep, None, prog, source, Direction::Push);
        let pull = run(&rep, Some(side), prog, source, Direction::Pull);
        assert!(push.converged && pull.converged, "{}", prog.name);
        assert_eq!(push.values, pull.values, "{} differs", prog.name);
    }
}

#[test]
fn pull_over_coalesced_overlay_agrees() {
    let (g, rev) = fixture();
    let src = Some(NodeId::new(0));
    let forward = VirtualGraph::coalesced(&g, 10);
    let backward = VirtualGraph::coalesced(&rev, 10);
    let side = PullSide {
        reverse: &rev,
        overlay: Some(&backward),
    };

    let push = run(
        &Representation::Original(&g),
        None,
        MonotoneProgram::SSSP,
        src,
        Direction::Push,
    );
    let rep = Representation::Virtual {
        graph: &g,
        overlay: &forward,
    };
    let pull = run(
        &rep,
        Some(side),
        MonotoneProgram::SSSP,
        src,
        Direction::Pull,
    );
    assert_eq!(push.values, pull.values);
}

#[test]
fn pull_over_otf_mapping_agrees() {
    let (g, rev) = fixture();
    let src = Some(NodeId::new(3));
    let side = PullSide {
        reverse: &rev,
        overlay: None,
    };

    let push = run(
        &Representation::Original(&g),
        None,
        MonotoneProgram::SSWP,
        src,
        Direction::Push,
    );
    let rep = Representation::OnTheFly {
        graph: &g,
        mapper: tigr::core::OnTheFlyMapper::new(&g, 10),
    };
    let pull = run(
        &rep,
        Some(side),
        MonotoneProgram::SSWP,
        src,
        Direction::Pull,
    );
    assert_eq!(push.values, pull.values);
}

#[test]
fn direction_optimizing_bfs_agrees_with_both() {
    let (g, rev) = fixture();
    let src = Some(NodeId::new(0));
    // BFS counts hops: run it on the unweighted topology, where the
    // bottom-up steps may stop at the first parent found.
    let (g, rev) = (g.without_weights(), rev.without_weights());
    let rep = Representation::Original(&g);
    let side = PullSide {
        reverse: &rev,
        overlay: None,
    };

    let push = run(&rep, None, MonotoneProgram::BFS, src, Direction::Push);
    let pull = run(&rep, Some(side), MonotoneProgram::BFS, src, Direction::Pull);
    let hybrid = run(&rep, Some(side), MonotoneProgram::BFS, src, Direction::Auto);
    assert_eq!(push.values, pull.values);
    assert_eq!(push.values, hybrid.values);
}

/// The highest-out-degree node, ties toward the lowest id.
fn hub(g: &tigr::Csr) -> NodeId {
    g.nodes()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v.raw())))
        .unwrap()
}

/// BFS from the hub on the deterministic simulator, worklist on.
fn hub_bfs(g: &tigr::Csr, direction: Direction) -> tigr::engine::PipelineOutput {
    Engine::new(GpuConfig::default())
        .with_frontier(FrontierMode::Auto)
        .with_direction(direction)
        .run_pipeline(
            &Representation::Original(g),
            &MonotoneProgram::BFS.pipeline(),
            Some(hub(g)),
        )
        .unwrap()
}

/// The direction switch's claim as simulator counts: on a power-law
/// graph auto BFS pulls through the dense middle levels and touches
/// over 20× fewer edges than push; on a star, pull gathers the hub's
/// fan-in in coalesced sweeps and costs over 50× fewer simulated cycles.
#[test]
fn direction_switch_cuts_rmat_edges_and_star_cycles() {
    let rmat = generators::rmat(&RmatConfig::graph500(16, 16), 2018);
    let push = hub_bfs(&rmat, Direction::Push);
    let auto = hub_bfs(&rmat, Direction::Auto);
    assert_eq!(auto.values, push.values);
    let pulls = auto.directions.iter().filter(|&&d| d == Direction::Pull);
    assert_eq!((pulls.count(), auto.directions.len()), (3, 5));
    assert_eq!(
        (push.edges_touched, auto.edges_touched),
        (1_039_090, 46_994)
    );

    let star = generators::star_graph(65_537);
    let push = hub_bfs(&star, Direction::Push);
    let pull = hub_bfs(&star, Direction::Pull);
    assert_eq!(pull.values, push.values);
    let (push_cycles, pull_cycles) = (push.report.total_cycles(), pull.report.total_cycles());
    eprintln!("star push/pull sim cycles: {push_cycles}/{pull_cycles}");
    assert!(push_cycles >= 50 * pull_cycles);
}
