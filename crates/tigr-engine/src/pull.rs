//! Pull-based monotone driver (§2.1 footnote 3, Theorem 3).
//!
//! The pull scheme gathers values along *incoming* edges: each node folds
//! candidates from its in-neighbors into its own slot. The engine runs it
//! over the **transpose** CSR, optionally with a virtual overlay built on
//! the transpose — in which case each virtual node folds a *subset* of
//! the in-edges and the partial results combine at the shared physical
//! slot. Theorem 3 guarantees correctness exactly when the fold is
//! associative, which every [`MonotoneProgram`] combine (min/max) is;
//! updates use atomics as §4.2 requires.
//!
//! Compared to push, pull issues at most **one atomic per (virtual)
//! node** per iteration instead of one per improving edge — the property
//! that makes gather-style frameworks strong on all-active workloads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tigr_core::CancelToken;
use tigr_graph::NodeId;
use tigr_sim::{GpuSimulator, KernelMetrics, SimReport};

use crate::addr::{frontier_bit_addr, row_ptr_addr, vnode_addr, FLAG_ADDR};
use crate::frontier::{Frontier, FrontierBuilder, FrontierMode};
use crate::kernel::{csr_edges, pull_gather, walk_segments, GatherFilter};
use crate::plan::Direction;
use crate::program::MonotoneProgram;
use crate::push::MonotoneOutput;
use crate::representation::Representation;
use crate::state::AtomicValues;

/// Options of a pull run.
#[derive(Clone, Copy, Debug)]
pub struct PullOptions {
    /// Fold only candidates from *active* sources (nodes whose value
    /// changed last iteration), tracked in a dense bitmap each gather
    /// consults per in-edge. Every node is still scheduled every
    /// iteration — pull cannot compact its launch the way push does —
    /// but inactive edges skip the source-value load and candidate fold,
    /// which is where all-active gather engines burn their bandwidth.
    pub worklist: bool,
    /// Safety cap on iterations.
    pub max_iterations: usize,
}

impl Default for PullOptions {
    fn default() -> Self {
        PullOptions {
            worklist: false,
            max_iterations: 100_000,
        }
    }
}

/// Per-iteration state of a gather sweep, shared between the standalone
/// pull driver below and the `Auto` direction driver in
/// [`crate::backend`].
pub(crate) struct GatherCtx<'a> {
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

/// One gather sweep over every (virtual) node of `rep`, which must wrap
/// a transpose view: each node folds in-edge candidates through the
/// shared relax loop and issues at most one atomic on its slot.
pub(crate) fn pull_step(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    ctx: &GatherCtx<'_>,
) -> KernelMetrics {
    let graph = rep.graph();
    let gather =
        |lane: &mut tigr_sim::Lane, slot: usize, edges: &mut dyn Iterator<Item = usize>| {
            let touched = pull_gather(
                lane,
                ctx.prog,
                ctx.values,
                slot,
                csr_edges(graph, edges),
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
        };

    match rep {
        Representation::Original(g) => sim.launch(g.num_nodes(), |tid, lane| {
            lane.load(row_ptr_addr(tid), 8);
            let v = NodeId::from_index(tid);
            gather(lane, tid, &mut (g.edge_start(v)..g.edge_end(v)));
        }),
        Representation::Virtual { overlay, .. } => {
            sim.launch(overlay.num_virtual_nodes(), |tid, lane| {
                lane.load(vnode_addr(tid), 8);
                let vn = overlay.vnode(tid);
                gather(
                    lane,
                    vn.physical.index(),
                    &mut tigr_core::EdgeCursor::new(&vn),
                )
            })
        }
        Representation::OnTheFly { graph: g, mapper } => {
            sim.launch(mapper.num_threads(), |tid, lane| {
                let (range, first, probes) = mapper.resolve(g, tid);
                lane.compute(probes as u64 * 2);
                // Process the block per owning node so folds stay within
                // one slot.
                walk_segments(lane, g, range, first, |lane, src, seg| {
                    gather(lane, src, &mut { seg });
                });
            })
        }
        Representation::Physical(_) => panic!(
            "pull-based processing over a physically split graph is not meaningful; \
             Theorem 3 covers the virtual transformation"
        ),
    }
}

/// Runs `prog` in pull mode over `rep`, which must wrap the **transpose**
/// of the graph being analyzed (edges lead from a node to its
/// in-neighbors). Results are indexed by the original node ids, which
/// transposition preserves.
///
/// Every (virtual) node is scheduled each iteration — a gathering node
/// cannot be compacted away without knowing its inputs changed — but
/// with [`PullOptions::worklist`] each gather folds only candidates from
/// sources active in the previous iteration, consulting a dense frontier
/// bitmap per in-edge. Monotone programs make this sound: a candidate
/// from a source that did not change this round was already offered the
/// round after that source last improved.
///
/// # Panics
///
/// Panics if the program needs a source and none is given, if the source
/// is out of range, or if `rep` is a physical transformation (pull over
/// split *out*-edge families mixes up in-edge ownership; use the virtual
/// overlay instead, as §4.2 prescribes).
pub fn run_monotone_pull(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PullOptions,
) -> MonotoneOutput {
    run_monotone_pull_cancellable(sim, rep, prog, source, options, &CancelToken::never())
}

/// [`run_monotone_pull`] with a cooperative cancellation hook polled
/// once per iteration before the gather launches (see
/// [`crate::push::run_monotone_cancellable`] for the contract).
///
/// # Panics
///
/// See [`run_monotone_pull`].
pub fn run_monotone_pull_cancellable(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PullOptions,
    cancel: &CancelToken,
) -> MonotoneOutput {
    assert!(
        !matches!(rep, Representation::Physical(_)),
        "pull-based processing over a physically split graph is not meaningful; \
         Theorem 3 covers the virtual transformation"
    );
    let n = rep.num_value_slots();
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let mut report = SimReport::new();
    let mut converged = false;
    let edges_touched = AtomicU64::new(0);

    // `n` here counts value slots = original nodes (physical reps are
    // rejected), so source ids index the bitmap directly.
    let next = options.worklist.then(|| FrontierBuilder::new(n));
    let mut frontier: Option<Frontier> = options
        .worklist
        .then(|| Frontier::from_active(n, prog.initial_frontier(n, source), FrontierMode::Dense));

    let mut cancelled = false;
    for _ in 0..options.max_iterations {
        if let Some(f) = &frontier {
            if f.is_empty() {
                converged = true;
                break;
            }
        }
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let changed = AtomicBool::new(false);
        let ctx = GatherCtx {
            prog,
            values: &values,
            frontier: frontier.as_ref(),
            next: next.as_ref(),
            changed: &changed,
            edges_touched: &edges_touched,
            early_exit: false,
        };
        let metrics = pull_step(sim, rep, &ctx);
        report.push(rep.full_threads(), metrics);

        if let Some(next) = &next {
            frontier = Some(next.take(FrontierMode::Dense));
        }
        if !changed.load(Ordering::Relaxed) {
            converged = true;
            break;
        }
    }

    let directions = vec![Direction::Pull; report.num_iterations()];
    MonotoneOutput {
        values: values.snapshot(),
        report,
        converged,
        edges_touched: edges_touched.into_inner(),
        directions,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, widest_path};
    use tigr_graph::reverse::transpose;
    use tigr_sim::GpuConfig;

    fn fixture() -> (tigr_graph::Csr, tigr_graph::Csr) {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 123), 1, 32, 5);
        let rev = transpose(&g);
        (g, rev)
    }

    #[test]
    fn pull_sssp_matches_dijkstra() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone_pull(
            &sim,
            &Representation::Original(&rev),
            MonotoneProgram::SSSP,
            Some(src),
            &PullOptions::default(),
        );
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    fn pull_over_virtual_overlay_matches_theorem_3() {
        // The associative-fold case: virtual nodes gather disjoint
        // in-edge subsets and combine at the physical slot.
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        for overlay in [VirtualGraph::new(&rev, 4), VirtualGraph::coalesced(&rev, 4)] {
            let out = run_monotone_pull(
                &sim,
                &Representation::Virtual {
                    graph: &rev,
                    overlay: &overlay,
                },
                MonotoneProgram::SSSP,
                Some(src),
                &PullOptions::default(),
            );
            assert_eq!(out.values, expect, "coalesced={}", overlay.is_coalesced());
        }
    }

    #[test]
    fn pull_sswp_matches_oracle() {
        let (g, rev) = fixture();
        let src = NodeId::new(2);
        let expect = widest_path(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone_pull(
            &sim,
            &Representation::Original(&rev),
            MonotoneProgram::SSWP,
            Some(src),
            &PullOptions::default(),
        );
        assert_eq!(out.values, expect);
    }

    #[test]
    fn pull_uses_at_most_one_atomic_per_node_per_iteration() {
        let (g, rev) = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let pull = run_monotone_pull(
            &sim,
            &Representation::Original(&rev),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &PullOptions::default(),
        );
        let total = pull.report.total();
        let bound = (g.num_nodes() * pull.report.num_iterations()) as u64;
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
        let rev = transpose(&g); // symmetric, so identical topology
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run_monotone_pull(
            &sim,
            &Representation::Original(&rev),
            MonotoneProgram::CC,
            None,
            &PullOptions::default(),
        );
        assert_eq!(out.values, tigr_graph::properties::connected_components(&g));
    }

    #[test]
    fn frontier_pull_matches_full_pull_and_cuts_folds() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let run = |worklist: bool| {
            run_monotone_pull(
                &sim,
                &Representation::Original(&rev),
                MonotoneProgram::SSSP,
                Some(src),
                &PullOptions {
                    worklist,
                    max_iterations: 100_000,
                },
            )
        };
        let full = run(false);
        let frontier = run(true);
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
    fn frontier_pull_over_virtual_overlay_matches() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let overlay = VirtualGraph::coalesced(&rev, 4);
        let out = run_monotone_pull(
            &sim,
            &Representation::Virtual {
                graph: &rev,
                overlay: &overlay,
            },
            MonotoneProgram::SSSP,
            Some(src),
            &PullOptions {
                worklist: true,
                max_iterations: 100_000,
            },
        );
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    #[should_panic(expected = "pull-based processing over a physically split graph")]
    fn physical_representation_rejected() {
        let (g, _) = fixture();
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let _ = run_monotone_pull(
            &sim,
            &Representation::Physical(&t),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &PullOptions::default(),
        );
    }
}
