//! The push (scatter) sweep shapes of the monotone driver (Figure 2,
//! Algorithm 2, Algorithm 3), and the options that configure them.
//!
//! [`crate::run_monotone`] launches one of these per push iteration, on
//! any [`Launcher`], over any [`Representation`], with the two engine
//! optimizations of §5:
//!
//! * **worklist** — only active nodes are processed per iteration;
//! * **synchronization relaxation** — values written in the current
//!   iteration are visible immediately ([`SyncMode::Relaxed`], the
//!   default, matching Algorithm 2's single value array); the strict
//!   double-buffered alternative ([`SyncMode::Bsp`]) is kept for
//!   deterministic tests and ablations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tigr_core::EdgeCursor;
use tigr_graph::{Csr, NodeId};
use tigr_sim::KernelMetrics;

use crate::addr::{frontier_addr, frontier_bit_addr, row_ptr_addr, value_addr, FLAG_ADDR};
use crate::frontier::{Frontier, FrontierBuilder, FrontierMode, FrontierRep};
use crate::kernel::{csr_edges, push_relax, walk_segments, AccessMirror, Launcher};
use crate::program::MonotoneProgram;
use crate::representation::Representation;
use crate::state::AtomicValues;

/// Value-visibility discipline across an iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Updates are visible within the iteration (single value array +
    /// atomics — the paper's engine). Converges in fewer iterations.
    #[default]
    Relaxed,
    /// Classic BSP double buffering: reads see only the previous
    /// iteration's values. Deterministic regardless of schedule.
    Bsp,
}

/// Options of a push run.
#[derive(Clone, Copy, Debug)]
pub struct PushOptions {
    /// Track and process only active nodes (§5 "worklist").
    pub worklist: bool,
    /// How the active set is represented and scheduled (dense bitmap,
    /// sparse compacted list, or density-based auto switching). Only
    /// meaningful with `worklist`.
    pub frontier: FrontierMode,
    /// Order each worklist by node degree so warps receive
    /// similar-sized work items — the frontier-batching that lifts even
    /// the *untransformed* graph's warp efficiency in the paper's
    /// Table 8 (original + worklist: 60.53%). Only meaningful with
    /// `worklist`; irrelevant for virtual representations, whose work
    /// items are already bounded by `K`.
    pub sort_frontier_by_degree: bool,
    /// Visibility discipline.
    pub sync: SyncMode,
    /// Safety cap on iterations.
    pub max_iterations: usize,
}

impl Default for PushOptions {
    fn default() -> Self {
        PushOptions {
            worklist: true,
            frontier: FrontierMode::Auto,
            sort_frontier_by_degree: false,
            sync: SyncMode::Relaxed,
            max_iterations: 100_000,
        }
    }
}

/// Shared per-iteration state threaded through the kernels.
pub(crate) struct IterCtx<'a> {
    pub(crate) graph: &'a Csr,
    pub(crate) prog: MonotoneProgram,
    pub(crate) values: &'a AtomicValues,
    /// Previous-iteration snapshot in BSP mode.
    pub(crate) prev: Option<&'a [u32]>,
    pub(crate) changed: &'a AtomicBool,
    pub(crate) next_frontier: Option<&'a FrontierBuilder>,
    pub(crate) edges_touched: &'a AtomicU64,
}

/// Scatter body shared by every representation: reads the slot's value
/// and routes its edge range through the [`crate::kernel`] relax loop
/// (Algorithm 2 lines 3, 6–10; Algorithm 3 for strided cursors), with
/// each memory access mirrored onto the launcher's lane.
#[inline]
fn process_slot<M: AccessMirror>(
    lane: &mut M,
    ctx: &IterCtx<'_>,
    slot: usize,
    edges: impl Iterator<Item = usize>,
) {
    // d = distance[nodeId] (Algorithm 2, line 3).
    lane.load(value_addr(slot), 4);
    let d = match ctx.prev {
        Some(p) => p[slot],
        None => ctx.values.load(slot),
    };
    let touched = push_relax(
        lane,
        ctx.prog,
        ctx.values,
        ctx.prev,
        d,
        csr_edges(ctx.graph, edges),
        |m, nbr| {
            // finished flag (line 10).
            m.store(FLAG_ADDR, 1);
            ctx.changed.store(true, Ordering::Relaxed);
            if let Some(next) = ctx.next_frontier {
                if next.activate(nbr) {
                    m.atomic(frontier_bit_addr(nbr), 4);
                }
            }
        },
    );
    ctx.edges_touched.fetch_add(touched, Ordering::Relaxed);
}

/// One full (non-worklist) sweep over all nodes of the representation.
pub(crate) fn full_sweep<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    ctx: &IterCtx<'_>,
) -> KernelMetrics {
    match rep {
        Representation::Original(g) => launcher.launch(g.num_nodes(), |tid, lane| {
            lane.load(row_ptr_addr(tid), 8);
            let v = NodeId::from_index(tid);
            process_slot(lane, ctx, tid, g.edge_start(v)..g.edge_end(v));
        }),
        Representation::Physical(t) => {
            let g = t.graph();
            launcher.launch(g.num_nodes(), |tid, lane| {
                lane.load(row_ptr_addr(tid), 8);
                let v = NodeId::from_index(tid);
                process_slot(lane, ctx, tid, g.edge_start(v)..g.edge_end(v));
            })
        }
        Representation::Virtual { overlay, .. } => {
            launcher.launch(overlay.num_virtual_nodes(), |tid, lane| {
                // nodeId = virtualNodes[tid].physicalNodeId (Alg. 2 line 2).
                lane.load(crate::addr::vnode_addr(tid), 8);
                let vn = overlay.vnode(tid);
                process_slot(lane, ctx, vn.physical.index(), EdgeCursor::new(&vn));
            })
        }
        Representation::OnTheFly { graph, mapper } => {
            launcher.launch(mapper.num_threads(), |tid, lane| {
                otf_block(lane, ctx, graph, mapper, tid);
            })
        }
    }
}

/// Dynamic-mapping kernel: thread `tid` resolves its edge block and
/// walks it segment by segment through the shared relax loop.
fn otf_block<M: AccessMirror>(
    lane: &mut M,
    ctx: &IterCtx<'_>,
    graph: &Csr,
    mapper: &tigr_core::OnTheFlyMapper,
    tid: usize,
) {
    let (range, first_src, probes) = mapper.resolve(graph, tid);
    // Binary-search probes: scattered row_ptr loads plus compare/branch.
    let n = graph.num_nodes().max(1);
    for i in 0..probes {
        let probe = (tid.wrapping_mul(2654435761) ^ (i as usize * 40503)) % n;
        lane.load(row_ptr_addr(probe), 4);
        lane.compute(2);
    }
    walk_segments(lane, graph, range, first_src, |lane, src, seg| {
        process_slot(lane, ctx, src, seg);
    });
}

/// One worklist sweep over the active nodes, scheduled per the
/// frontier's representation: sparse launches one thread per active
/// (virtual) node off the compacted list; dense launches one thread per
/// (virtual) node, each exiting after a bitmap-word load when inactive.
pub(crate) fn worklist_sweep<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    ctx: &IterCtx<'_>,
    frontier: &Frontier,
) -> KernelMetrics {
    match rep {
        Representation::Original(g) => sweep_csr(launcher, g, ctx, frontier),
        Representation::Physical(t) => sweep_csr(launcher, t.graph(), ctx, frontier),
        Representation::Virtual { overlay, .. } => match frontier.rep() {
            FrontierRep::Sparse => {
                // Expand active physical nodes into their virtual
                // families and charge the compaction pass that a GPU
                // implementation pays.
                let active = overlay.expand_active(frontier.nodes());
                let mut metrics = launcher.launch(frontier.len(), |tid, lane| {
                    lane.load(frontier_addr(tid), 4);
                    lane.compute(2);
                    lane.store(frontier_addr(tid), 4);
                });
                let work = launcher.launch(active.len(), |tid, lane| {
                    let vid = active[tid] as usize;
                    lane.load(frontier_addr(tid), 4);
                    lane.load(crate::addr::vnode_addr(vid), 8);
                    let vn = overlay.vnode(vid);
                    process_slot(lane, ctx, vn.physical.index(), EdgeCursor::new(&vn));
                });
                metrics.merge(&work);
                metrics
            }
            FrontierRep::Dense => launcher.launch(overlay.num_virtual_nodes(), |tid, lane| {
                // No expansion or compaction: every virtual node checks
                // its physical node's bit and exits when inactive.
                lane.load(crate::addr::vnode_addr(tid), 8);
                let vn = overlay.vnode(tid);
                lane.load(frontier_bit_addr(vn.physical.index()), 4);
                if frontier.contains(vn.physical.index()) {
                    process_slot(lane, ctx, vn.physical.index(), EdgeCursor::new(&vn));
                }
            }),
        },
        Representation::OnTheFly { .. } => {
            // Dynamic mapping has no stored node identity to enqueue on:
            // fall back to full sweeps (documented limitation).
            full_sweep(launcher, rep, ctx)
        }
    }
}

/// Worklist sweep over a plain CSR (original or physically split).
fn sweep_csr<L: Launcher>(
    launcher: &L,
    g: &Csr,
    ctx: &IterCtx<'_>,
    frontier: &Frontier,
) -> KernelMetrics {
    match frontier.rep() {
        FrontierRep::Sparse => {
            let nodes = frontier.nodes();
            launcher.launch(nodes.len(), |tid, lane| {
                lane.load(frontier_addr(tid), 4);
                let v = NodeId::new(nodes[tid]);
                lane.load(row_ptr_addr(v.index()), 8);
                process_slot(lane, ctx, v.index(), g.edge_start(v)..g.edge_end(v));
            })
        }
        FrontierRep::Dense => launcher.launch(g.num_nodes(), |tid, lane| {
            lane.load(frontier_bit_addr(tid), 4);
            if frontier.contains(tid) {
                let v = NodeId::from_index(tid);
                lane.load(row_ptr_addr(tid), 8);
                process_slot(lane, ctx, tid, g.edge_start(v)..g.edge_end(v));
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monotone::{run_monotone, MonotoneOutput};
    use crate::plan::ExecutionPlan;
    use tigr_core::{
        circular_transform, star_transform, udt_transform, DumbWeight, OnTheFlyMapper, VirtualGraph,
    };
    use tigr_graph::generators::{barabasi_albert, with_uniform_weights, BarabasiAlbertConfig};
    use tigr_graph::properties::{dijkstra, widest_path};
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn fixture() -> Csr {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 300,
                edges_per_node: 3,
                symmetric: true,
            },
            9,
        );
        with_uniform_weights(&g, 1, 32, 2)
    }

    /// A push run on a fresh sequential simulator.
    fn run(
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        options: &PushOptions,
    ) -> MonotoneOutput {
        let sim = GpuSimulator::new(GpuConfig::default());
        let plan = ExecutionPlan {
            push: *options,
            ..ExecutionPlan::default()
        };
        run_monotone(&sim, rep, None, prog, source, &plan).unwrap()
    }

    fn opts(worklist: bool, sync: SyncMode) -> PushOptions {
        PushOptions {
            worklist,
            frontier: FrontierMode::Auto,
            sort_frontier_by_degree: false,
            sync,
            max_iterations: 10_000,
        }
    }

    #[test]
    fn sssp_on_original_matches_dijkstra_all_modes() {
        // The second graph leaves two nodes unreachable: they stay at ∞.
        let unreachable = tigr_graph::CsrBuilder::new(4)
            .weighted_edge(0, 1, 3)
            .build();
        for g in [fixture(), unreachable] {
            let expect = dijkstra(&g, NodeId::new(0));
            for worklist in [false, true] {
                for sync in [SyncMode::Relaxed, SyncMode::Bsp] {
                    let out = run(
                        &Representation::Original(&g),
                        MonotoneProgram::SSSP,
                        Some(NodeId::new(0)),
                        &opts(worklist, sync),
                    );
                    assert!(out.converged);
                    assert_eq!(out.values, expect, "worklist={worklist} sync={sync:?}");
                }
            }
        }
    }

    #[test]
    fn sssp_on_virtual_matches_dijkstra() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        for overlay in [VirtualGraph::new(&g, 4), VirtualGraph::coalesced(&g, 4)] {
            for worklist in [false, true] {
                let out = run(
                    &Representation::Virtual {
                        graph: &g,
                        overlay: &overlay,
                    },
                    MonotoneProgram::SSSP,
                    Some(NodeId::new(0)),
                    &opts(worklist, SyncMode::Relaxed),
                );
                assert!(out.converged);
                assert_eq!(out.values, expect, "coalesced={}", overlay.is_coalesced());
            }
        }
    }

    #[test]
    fn sssp_on_physical_splits_matches_dijkstra() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        for t in [
            udt_transform(&g, 4, DumbWeight::Zero),
            star_transform(&g, 4, DumbWeight::Zero),
            circular_transform(&g, 4, DumbWeight::Zero),
        ] {
            assert!(t.num_split_nodes() > 0);
            let out = run(
                &Representation::Physical(&t),
                MonotoneProgram::SSSP,
                Some(NodeId::new(0)),
                &opts(true, SyncMode::Relaxed),
            );
            assert!(out.converged);
            assert_eq!(t.project_values(&out.values), expect, "{}", t.topology());
        }
    }

    #[test]
    fn sssp_on_the_fly_matches_dijkstra() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        let out = run(
            &Representation::OnTheFly {
                graph: &g,
                mapper: OnTheFlyMapper::new(&g, 4),
            },
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &opts(false, SyncMode::Relaxed),
        );
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    fn physical_needs_more_iterations_than_virtual() {
        // Table 8's core observation: physical splitting increases hop
        // distances -> more iterations; virtual does not.
        let g = fixture();
        let t = udt_transform(&g, 3, DumbWeight::Zero);
        assert!(t.num_split_nodes() > 0);
        let overlay = VirtualGraph::new(&g, 3);
        let o = opts(false, SyncMode::Bsp);
        let run = |rep: &Representation<'_>| {
            run(rep, MonotoneProgram::SSSP, Some(NodeId::new(0)), &o)
                .report
                .num_iterations()
        };
        let orig_iters = run(&Representation::Original(&g));
        let phys_iters = run(&Representation::Physical(&t));
        let virt_iters = run(&Representation::Virtual {
            graph: &g,
            overlay: &overlay,
        });
        assert!(
            phys_iters > orig_iters,
            "physical {phys_iters} vs original {orig_iters}"
        );
        assert_eq!(virt_iters, orig_iters, "implicit sync: no extra iterations");
    }

    #[test]
    fn virtual_raises_warp_efficiency() {
        let g = fixture();
        let overlay = VirtualGraph::new(&g, 4);
        let o = opts(false, SyncMode::Bsp);
        let orig = run(
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &o,
        );
        let virt = run(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &o,
        );
        assert!(
            virt.report.warp_efficiency() > orig.report.warp_efficiency(),
            "virtual {} should beat original {}",
            virt.report.warp_efficiency(),
            orig.report.warp_efficiency()
        );
    }

    #[test]
    fn worklist_cuts_instructions() {
        let g = fixture();
        let o_full = opts(false, SyncMode::Relaxed);
        let o_wl = opts(true, SyncMode::Relaxed);
        let full = run(
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &o_full,
        );
        let wl = run(
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &o_wl,
        );
        assert!(
            wl.report.total().instructions < full.report.total().instructions,
            "worklist {} vs full {}",
            wl.report.total().instructions,
            full.report.total().instructions
        );
    }

    #[test]
    fn cc_labels_match_components() {
        let g = fixture(); // symmetric -> weak components meaningful
        let expect = tigr_graph::properties::connected_components(&g);
        let out = run(
            &Representation::Original(&g),
            MonotoneProgram::CC,
            None,
            &opts(true, SyncMode::Relaxed),
        );
        assert_eq!(out.values, expect);
    }

    #[test]
    fn sswp_matches_oracle_on_every_representation() {
        let g = fixture();
        let src = Some(NodeId::new(0));
        let expect = widest_path(&g, NodeId::new(0));
        let overlay = VirtualGraph::coalesced(&g, 4);
        let options = opts(true, SyncMode::Relaxed);
        for rep in [
            Representation::Original(&g),
            Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
        ] {
            let out = run(&rep, MonotoneProgram::SSWP, src, &options);
            assert_eq!(out.values, expect, "{}", rep.label());
        }
        // Physical splits need infinite dumb weights (Corollary 3); zero
        // ones tighten the bottleneck of every split path.
        let sound = udt_transform(&g, 4, DumbWeight::Infinity);
        let out = run(
            &Representation::Physical(&sound),
            MonotoneProgram::SSWP,
            src,
            &options,
        );
        assert_eq!(sound.project_values(&out.values), expect);
        let unsound = udt_transform(&g, 4, DumbWeight::Zero);
        let out = run(
            &Representation::Physical(&unsound),
            MonotoneProgram::SSWP,
            src,
            &options,
        );
        assert_ne!(unsound.project_values(&out.values), expect);
    }

    #[test]
    fn bfs_levels_match_oracle_on_every_representation() {
        let g = fixture().without_weights();
        let src = NodeId::new(5);
        let expect: Vec<u32> = tigr_graph::properties::bfs_levels(&g, src)
            .into_iter()
            .map(|l| if l == usize::MAX { u32::MAX } else { l as u32 })
            .collect();
        let options = opts(true, SyncMode::Relaxed);
        let overlay = VirtualGraph::coalesced(&g, 10);
        for rep in [
            Representation::Original(&g),
            Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
        ] {
            let out = run(&rep, MonotoneProgram::BFS, Some(src), &options);
            assert_eq!(out.values, expect, "{}", rep.label());
        }
        // Physical: unit weights + zero dumb weights preserve levels.
        let t = udt_transform(&g.with_weights_from(|_| 1), 4, DumbWeight::Zero);
        let out = run(
            &Representation::Physical(&t),
            MonotoneProgram::BFS,
            Some(src),
            &options,
        );
        assert_eq!(t.project_values(&out.values), expect);
    }

    #[test]
    fn bfs_iterations_track_eccentricity_with_worklist() {
        // With a worklist the frontier advances exactly one level per
        // iteration, plus the final iteration that improves nothing.
        let g = tigr_graph::generators::grid_2d(5, 5);
        let src = NodeId::new(0);
        let out = run(
            &Representation::Original(&g),
            MonotoneProgram::BFS,
            Some(src),
            &PushOptions::default(),
        );
        let ecc = tigr_graph::stats::eccentricity(&g, src);
        assert_eq!(out.report.num_iterations(), ecc + 1);
    }

    #[test]
    fn degree_sorted_frontier_raises_baseline_efficiency() {
        // The Table 8 effect on the *untransformed* graph: batching
        // similar degrees into warps lifts efficiency without any
        // transformation.
        let g = fixture();
        let src = NodeId::new(0);
        let run = |sort: bool| {
            run(
                &Representation::Original(&g),
                MonotoneProgram::SSSP,
                Some(src),
                &PushOptions {
                    worklist: true,
                    // Degree batching reorders the compacted list, so it
                    // only bites under sparse scheduling.
                    frontier: FrontierMode::Sparse,
                    sort_frontier_by_degree: sort,
                    sync: SyncMode::Bsp,
                    max_iterations: 10_000,
                },
            )
        };
        let plain = run(false);
        let sorted = run(true);
        assert_eq!(plain.values, sorted.values);
        assert!(
            sorted.report.warp_efficiency() > plain.report.warp_efficiency(),
            "sorted {} vs plain {}",
            sorted.report.warp_efficiency(),
            plain.report.warp_efficiency()
        );
    }

    #[test]
    fn max_iterations_caps_run() {
        let g = fixture();
        let out = run(
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &PushOptions {
                worklist: false,
                frontier: FrontierMode::Auto,
                sort_frontier_by_degree: false,
                sync: SyncMode::Bsp,
                max_iterations: 1,
            },
        );
        assert!(!out.converged);
        assert_eq!(out.report.num_iterations(), 1);
    }

    #[test]
    fn frontier_modes_agree_and_cut_edges_touched() {
        let g = fixture();
        let src = NodeId::new(0);
        let run = |worklist: bool, mode: FrontierMode| {
            run(
                &Representation::Original(&g),
                MonotoneProgram::SSSP,
                Some(src),
                &PushOptions {
                    worklist,
                    frontier: mode,
                    ..PushOptions::default()
                },
            )
        };
        let full = run(false, FrontierMode::Auto);
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            let out = run(true, mode);
            assert!(out.converged);
            assert_eq!(out.values, full.values, "mode={mode:?}");
            assert!(
                out.edges_touched < full.edges_touched,
                "mode={mode:?}: frontier {} should touch fewer edges than full {}",
                out.edges_touched,
                full.edges_touched
            );
        }
    }

    #[test]
    fn dense_frontier_matches_sparse_on_virtual_overlay() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        for overlay in [VirtualGraph::new(&g, 4), VirtualGraph::coalesced(&g, 4)] {
            for mode in [FrontierMode::Dense, FrontierMode::Sparse] {
                let out = run(
                    &Representation::Virtual {
                        graph: &g,
                        overlay: &overlay,
                    },
                    MonotoneProgram::SSSP,
                    Some(src),
                    &PushOptions {
                        frontier: mode,
                        ..PushOptions::default()
                    },
                );
                assert!(out.converged);
                assert_eq!(
                    out.values,
                    expect,
                    "mode={mode:?} coalesced={}",
                    overlay.is_coalesced()
                );
            }
        }
    }

    #[test]
    fn full_sweep_counts_every_edge_every_iteration() {
        let g = fixture();
        let out = run(
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &opts(false, SyncMode::Bsp),
        );
        assert_eq!(
            out.edges_touched,
            g.num_edges() as u64 * out.report.num_iterations() as u64
        );
    }

    #[test]
    fn coalesced_overlay_reduces_memory_transactions() {
        // The §4.4 effect: same work, fewer transactions per iteration.
        let g = tigr_graph::generators::star_graph(20_001); // one huge hub
        let plain = VirtualGraph::new(&g, 10);
        let coal = VirtualGraph::coalesced(&g, 10);
        let o = opts(false, SyncMode::Bsp);
        let run = |ov: &VirtualGraph| {
            run(
                &Representation::Virtual {
                    graph: &g,
                    overlay: ov,
                },
                MonotoneProgram::BFS,
                Some(NodeId::new(0)),
                &o,
            )
            .report
            .total()
            .mem_transactions
        };
        let plain_tx = run(&plain);
        let coal_tx = run(&coal);
        assert!(
            coal_tx < plain_tx,
            "coalesced {coal_tx} should be below strided {plain_tx}"
        );
    }
}
