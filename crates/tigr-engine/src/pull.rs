//! The pull (gather) sweep shape of the monotone driver (§2.1 footnote
//! 3, Theorem 3).
//!
//! The pull scheme gathers values along *incoming* edges: each node folds
//! candidates from its in-neighbors into its own slot. [`pull_step`] runs
//! over a **transpose** view, optionally with a virtual overlay built on
//! the transpose — in which case each virtual node folds a *subset* of
//! the in-edges and the partial results combine at the shared physical
//! slot. Theorem 3 guarantees correctness exactly when the fold is
//! associative, which every [`MonotoneProgram`] combine (min/max) is;
//! updates use atomics as §4.2 requires.
//!
//! Compared to push, pull issues at most **one atomic per (virtual)
//! node** per iteration instead of one per improving edge — the property
//! that makes gather-style frameworks strong on all-active workloads.
//! Every (virtual) node is scheduled each iteration — a gathering node
//! cannot be compacted away without knowing its inputs changed — but
//! under a worklist each gather folds only candidates from sources
//! active in the previous iteration, consulting a dense frontier bitmap
//! per in-edge. Monotone programs make this sound: a candidate from a
//! source that did not change this round was already offered the round
//! after that source last improved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tigr_graph::Csr;
use tigr_sim::KernelMetrics;

use crate::addr::{frontier_bit_addr, FLAG_ADDR};
use crate::frontier::{Frontier, FrontierBuilder};
use crate::kernel::{csr_edges, pull_gather, AccessMirror, GatherFilter, Launcher};
use crate::mapping::{search_compute, Mapping};
use crate::program::MonotoneProgram;
use crate::state::AtomicValues;

/// Per-iteration state of a gather sweep.
pub(crate) struct GatherCtx<'a> {
    /// The transpose view whose in-edges are gathered.
    pub(crate) graph: &'a Csr,
    pub(crate) prog: MonotoneProgram,
    pub(crate) values: &'a AtomicValues,
    /// Fold only candidates from these active sources.
    pub(crate) frontier: Option<&'a Frontier>,
    pub(crate) next: Option<&'a FrontierBuilder>,
    pub(crate) changed: &'a AtomicBool,
    pub(crate) edges_touched: &'a AtomicU64,
    /// Bottom-up BFS shape (see [`GatherFilter::early_exit`]).
    pub(crate) early_exit: bool,
}

/// One gather sweep over every thread of `mapping`, which must map a
/// transpose view: each thread folds in-edge candidates through the
/// shared relax loop and issues at most one atomic on its slot. An edge
/// block's binary search is charged as 2 compute per probe.
pub(crate) fn pull_step<L: Launcher>(
    launcher: &L,
    mapping: &Mapping<'_>,
    ctx: &GatherCtx<'_>,
) -> KernelMetrics {
    mapping.sweep(launcher, search_compute, |lane, slot, edges| {
        let touched = pull_gather(
            lane,
            ctx.prog,
            ctx.values,
            slot,
            csr_edges(ctx.graph, edges),
            GatherFilter {
                active: ctx.frontier,
                early_exit: ctx.early_exit,
            },
            |m, slot| {
                m.store(FLAG_ADDR, 1);
                ctx.changed.store(true, Ordering::Relaxed);
                if let Some(next) = ctx.next {
                    if next.activate(slot) {
                        m.atomic(frontier_bit_addr(slot), 4);
                    }
                }
            },
        );
        ctx.edges_touched.fetch_add(touched, Ordering::Relaxed);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monotone::{run_monotone, MonotoneOutput, PullSide};
    use crate::plan::{Direction, ExecutionPlan, PlanError};
    use crate::push::PushOptions;
    use crate::representation::Representation;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, widest_path};
    use tigr_graph::reverse::transpose;
    use tigr_graph::NodeId;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn fixture() -> (Csr, Csr) {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 123), 1, 32, 5);
        let rev = transpose(&g);
        (g, rev)
    }

    fn pull_plan(worklist: bool) -> ExecutionPlan {
        ExecutionPlan {
            direction: Direction::Pull,
            push: PushOptions {
                worklist,
                ..PushOptions::default()
            },
            ..ExecutionPlan::default()
        }
    }

    /// A forced-pull run over `rep`'s transpose side `side`.
    fn pull(
        rep: &Representation<'_>,
        side: PullSide<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        worklist: bool,
    ) -> MonotoneOutput {
        let sim = GpuSimulator::new(GpuConfig::default());
        run_monotone(&sim, rep, Some(side), prog, source, &pull_plan(worklist)).unwrap()
    }

    fn plain(rev: &Csr) -> PullSide<'_> {
        PullSide {
            reverse: rev,
            overlay: None,
        }
    }

    #[test]
    fn pull_sssp_matches_dijkstra() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let rep = Representation::Original(&g);
        let out = pull(&rep, plain(&rev), MonotoneProgram::SSSP, Some(src), false);
        assert!(out.converged);
        assert_eq!(out.values, dijkstra(&g, src));
        assert!(out.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn pull_over_virtual_overlay_matches_theorem_3() {
        // The associative-fold case: virtual nodes gather disjoint
        // in-edge subsets and combine at the physical slot.
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        for (fwd, bwd) in [
            (VirtualGraph::new(&g, 4), VirtualGraph::new(&rev, 4)),
            (
                VirtualGraph::coalesced(&g, 4),
                VirtualGraph::coalesced(&rev, 4),
            ),
        ] {
            let rep = Representation::Virtual {
                graph: &g,
                overlay: &fwd,
            };
            let side = PullSide {
                reverse: &rev,
                overlay: Some(&bwd),
            };
            for worklist in [false, true] {
                let out = pull(&rep, side, MonotoneProgram::SSSP, Some(src), worklist);
                assert!(out.converged);
                assert_eq!(out.values, expect, "coalesced={}", fwd.is_coalesced());
            }
        }
    }

    #[test]
    fn pull_sswp_matches_oracle() {
        let (g, rev) = fixture();
        let src = NodeId::new(2);
        let rep = Representation::Original(&g);
        let out = pull(&rep, plain(&rev), MonotoneProgram::SSWP, Some(src), false);
        assert_eq!(out.values, widest_path(&g, src));
    }

    #[test]
    fn pull_uses_at_most_one_atomic_per_node_per_iteration() {
        let (g, rev) = fixture();
        let rep = Representation::Original(&g);
        let out = pull(
            &rep,
            plain(&rev),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            false,
        );
        let total = out.report.total();
        let bound = (g.num_nodes() * out.report.num_iterations()) as u64;
        assert!(
            total.atomic_ops <= bound,
            "{} atomics > {} node-iterations",
            total.atomic_ops,
            bound
        );
    }

    #[test]
    fn pull_cc_converges_to_min_labels() {
        let mut b = tigr_graph::CsrBuilder::new(5);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(3, 4);
        let g = b.build();
        // No transpose supplied: the driver builds its own.
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let rep = Representation::Original(&g);
        let out = run_monotone(
            &sim,
            &rep,
            None,
            MonotoneProgram::CC,
            None,
            &pull_plan(false),
        );
        assert_eq!(
            out.unwrap().values,
            tigr_graph::properties::connected_components(&g)
        );
    }

    #[test]
    fn frontier_pull_matches_full_pull_and_cuts_folds() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let rep = Representation::Original(&g);
        let full = pull(&rep, plain(&rev), MonotoneProgram::SSSP, Some(src), false);
        let frontier = pull(&rep, plain(&rev), MonotoneProgram::SSSP, Some(src), true);
        assert!(frontier.converged);
        assert_eq!(frontier.values, expect);
        assert_eq!(full.values, expect);
        assert!(
            frontier.edges_touched < full.edges_touched,
            "frontier {} folds vs full {}",
            frontier.edges_touched,
            full.edges_touched
        );
    }

    #[test]
    fn physical_representation_is_a_typed_plan_error() {
        let (g, _) = fixture();
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let err = run_monotone(
            &sim,
            &Representation::Physical(&t),
            None,
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &pull_plan(true),
        )
        .unwrap_err();
        assert_eq!(err, PlanError::PullOverPhysical);
    }
}
