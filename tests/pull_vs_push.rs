//! Push and pull drivers must reach identical fixpoints — the
//! cross-scheme differential test over all programs and overlays.

use tigr::engine::{
    run_monotone, Direction, ExecutionPlan, MonotoneOutput, MonotoneProgram, PullSide,
};
use tigr::graph::datasets;
use tigr::graph::reverse::transpose;
use tigr::{GpuConfig, GpuSimulator, NodeId, Representation, VirtualGraph};

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
