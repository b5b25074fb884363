//! The one single-run monotone driver (§5, Figure 2 / Algorithm 2).
//!
//! [`run_monotone`] runs a [`MonotoneProgram`] to its fixpoint over any
//! [`Representation`] on any [`Launcher`]: replayed warp by warp on the
//! [`tigr_sim::GpuSimulator`] — the paper's meter, the report fills — or
//! as plain loops on [`crate::HostLoop`]. Each iteration is one sweep,
//! and its direction is a per-iteration choice: a scatter along
//! out-edges ([`crate::push`]) or a gather over the transpose
//! ([`crate::pull`]). The plan's [`Direction`] says how the choice is
//! made — Beamer's α/β density switch for [`Direction::Auto`], generalized
//! from BFS to any monotone program; forced push and forced pull are the
//! switch's two degenerate cases, not loops of their own.
//!
//! A gather runs over the forward representation mirrored onto the
//! transpose: the plain transpose, a virtual overlay of the same layout
//! and `K` over it (Theorem 3), or the same on-the-fly block size. A
//! caller holding prepared views passes them as a [`PullSide`]; anything
//! missing is built on the first pull step.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64};

use tigr_core::{OnTheFlyMapper, PreparedGraph, VirtualGraph};
use tigr_graph::{Csr, NodeId};
use tigr_sim::SimReport;

use crate::batch::build_transpose;
use crate::frontier::{Frontier, FrontierBuilder, FrontierMode, FrontierRep};
use crate::kernel::Launcher;
use crate::mapping::Mapping;
use crate::plan::{Direction, DirectionSwitch, ExecutionPlan, PlanError};
use crate::program::{EdgeOp, InitKind, MonotoneProgram};
use crate::pull::{pull_step, GatherCtx};
use crate::push::{push_sweep, IterCtx, SyncMode};
use crate::representation::Representation;
use crate::state::{AtomicValues, Combine};

/// Result of a monotone run.
#[derive(Clone, Debug)]
pub struct MonotoneOutput {
    /// Final per-slot values (length = `rep.num_value_slots()`). For
    /// physical representations, project with
    /// [`tigr_core::TransformedGraph::project_values`].
    pub values: Vec<u32>,
    /// Per-iteration simulator metrics; empty when the launcher is not
    /// the simulator.
    pub report: SimReport,
    /// `false` if the run hit `max_iterations` before converging.
    pub converged: bool,
    /// Total edges whose relaxation was attempted across all iterations
    /// — the work-efficiency metric frontier scheduling reduces.
    pub edges_touched: u64,
    /// Direction each iteration ran in, one entry per iteration (on the
    /// simulator, as many as the report's iterations).
    pub directions: Vec<Direction>,
    /// `true` if a [`tigr_core::CancelToken`] fired at an iteration
    /// boundary before the run converged. The values then hold the
    /// consistent monotone prefix reached so far (never a torn write),
    /// and `converged` is `false`.
    pub cancelled: bool,
}

/// Prebuilt transpose-side views for the gather sweeps: a caller that
/// already holds the reverse CSR (and possibly its overlay) skips their
/// construction.
///
/// The pairing is the caller's to keep, as it is for a forward overlay
/// in [`Representation::Virtual`]: `reverse` must be the transpose of the
/// forward graph, and `overlay` a virtual overlay over `reverse`.
#[derive(Clone, Copy, Debug)]
pub struct PullSide<'a> {
    /// The transpose of the forward graph.
    pub reverse: &'a Csr,
    /// Virtual overlay built over `reverse`, used when the forward
    /// representation is virtual.
    pub overlay: Option<&'a VirtualGraph>,
}

impl<'a> PullSide<'a> {
    /// The prepared transpose views of `prepared`, if it has any.
    pub(crate) fn of(prepared: &'a PreparedGraph) -> Option<Self> {
        prepared.transpose().map(|reverse| PullSide {
            reverse,
            overlay: prepared.rev_overlay(),
        })
    }
}

/// The view a gather over `rep` sweeps: `rep` mirrored onto the
/// transpose. What `side` supplies is used; anything missing is built
/// into `built` / `built_overlay` (an overlay of the forward overlay's
/// layout and `K`).
pub(crate) fn pull_view<'a>(
    rep: &Representation<'a>,
    side: Option<PullSide<'a>>,
    built: &'a OnceCell<Csr>,
    built_overlay: &'a OnceCell<VirtualGraph>,
) -> Representation<'a> {
    let reverse = match side {
        Some(side) => side.reverse,
        None => built.get_or_init(|| build_transpose(rep.graph())),
    };
    match rep {
        Representation::Original(_) => Representation::Original(reverse),
        Representation::Virtual { overlay, .. } => Representation::Virtual {
            graph: reverse,
            overlay: match side.and_then(|side| side.overlay) {
                Some(overlay) => overlay,
                None => built_overlay.get_or_init(|| {
                    if overlay.is_coalesced() {
                        VirtualGraph::coalesced(reverse, overlay.k())
                    } else {
                        VirtualGraph::new(reverse, overlay.k())
                    }
                }),
            },
        },
        Representation::OnTheFly { mapper, .. } => Representation::OnTheFly {
            graph: reverse,
            mapper: OnTheFlyMapper::new(reverse, mapper.k()),
        },
        Representation::Physical(_) => {
            unreachable!("plan validation rejects pull over a physical split")
        }
    }
}

/// Whether an auto run's gathers may early-exit per slot (the bottom-up
/// BFS shape): level-synchronous unweighted single-source min-plus runs
/// set each value exactly once to its final level, so skipping claimed
/// slots and stopping at the first improving parent is exact.
fn bottom_up_exact(prog: &MonotoneProgram, g: &Csr) -> bool {
    let unit_distance = match prog.edge_op {
        // Unweighted min-plus: every edge contributes 1.
        EdgeOp::AddWeight => g.weights().is_none(),
        // Hop counting ignores weights entirely.
        EdgeOp::AddUnit => true,
        _ => false,
    };
    unit_distance && prog.combine == Combine::Min && prog.init == InitKind::SourceZero
}

/// Runs `prog` over `rep` to convergence under `plan`, on `launcher`.
///
/// The plan is validated first ([`ExecutionPlan::validate`]): a pull
/// over a physical split, or over a split view with a non-associative
/// combine, is a typed [`PlanError`]. Then the direction degrades as
/// [`Direction::Auto`] documents — no worklist, BSP, physical or
/// on-the-fly views, non-associative programs over virtual views, and
/// `alpha <= 0` all run push. A forced pull gathers every (virtual) node
/// each iteration; under a worklist it folds only candidates from the
/// previous iteration's sources, kept as a dense bitmap. `pull` feeds
/// prebuilt transpose views to the gathers (see [`PullSide`]).
///
/// The plan's cancellation token is polled once per iteration, before
/// the sweep launches, so a fired token stops the run at the last
/// completed iteration with a consistent monotone prefix.
///
/// # Errors
///
/// [`PlanError`] when the plan is not licensed for `rep`/`prog`.
///
/// # Panics
///
/// Panics if the program needs a source and none is given, or the source
/// is out of range for the representation's value slots.
///
/// # Example
///
/// ```
/// use tigr_engine::{run_monotone, ExecutionPlan, MonotoneProgram, Representation};
/// use tigr_graph::{CsrBuilder, NodeId};
/// use tigr_sim::{GpuConfig, GpuSimulator};
///
/// let g = CsrBuilder::new(3)
///     .weighted_edge(0, 1, 5)
///     .weighted_edge(1, 2, 7)
///     .build();
/// let sim = GpuSimulator::new(GpuConfig::default());
/// let rep = Representation::Original(&g);
/// let plan = ExecutionPlan::default();
/// let out = run_monotone(&sim, &rep, None, MonotoneProgram::SSSP, Some(NodeId::new(0)), &plan)?;
/// assert_eq!(out.values, vec![0, 5, 12]);
/// # Ok::<(), tigr_engine::PlanError>(())
/// ```
pub fn run_monotone<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    pull: Option<PullSide<'_>>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> Result<MonotoneOutput, PlanError> {
    plan.validate(rep, &prog)?;
    let options = &plan.push;
    // A forced pull stays pull (validation licensed it); auto runs push
    // when the hybrid has nothing to optimize or the theorems license no
    // pull side — no worklist, BSP double buffering, a physical split or
    // on-the-fly mapping, a non-associative program over a virtual view
    // (Theorem 3), or `alpha <= 0`.
    let can_pull = match rep {
        Representation::Original(_) => true,
        Representation::Virtual { .. } => prog.associative,
        Representation::Physical(_) | Representation::OnTheFly { .. } => false,
    };
    let direction = match plan.direction {
        Direction::Auto
            if options.worklist
                && options.sync != SyncMode::Bsp
                && can_pull
                && plan.auto.alpha > 0.0 =>
        {
            Direction::Auto
        }
        Direction::Auto => Direction::Push,
        forced => forced,
    };
    let g = rep.graph();
    let mapping = Mapping::of(rep);
    let n = rep.num_value_slots();
    let mode = match direction {
        Direction::Pull => FrontierMode::Dense,
        _ => options.frontier,
    };
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let next = options.worklist.then(|| FrontierBuilder::new(n));
    let mut frontier = Frontier::from_active(n, prog.initial_frontier(n, source), mode);
    // Only a push run double-buffers: auto degrades to push under BSP,
    // and a gather reads live values.
    let mut prev =
        (direction == Direction::Push && options.sync == SyncMode::Bsp).then(|| values.snapshot());
    let mut switch = (direction == Direction::Auto).then(|| DirectionSwitch::new(g, plan.auto));
    let early_exit = direction == Direction::Auto && bottom_up_exact(&prog, g);
    // The transpose side, resolved on the first pull step.
    let (built, built_overlay) = (OnceCell::new(), OnceCell::new());
    let mut pull_rep = None;
    let edges_touched = AtomicU64::new(0);
    let mut out = MonotoneOutput {
        values: Vec::new(),
        report: SimReport::new(),
        converged: false,
        edges_touched: 0,
        directions: Vec::new(),
        cancelled: false,
    };

    for _ in 0..options.max_iterations {
        if options.worklist && frontier.is_empty() {
            out.converged = true;
            break;
        }
        if plan.cancel.is_cancelled() {
            out.cancelled = true;
            break;
        }
        let step = match &switch {
            Some(switch) if switch.pull_now(frontier.nodes(), n) => Direction::Pull,
            Some(_) => Direction::Push,
            None => direction,
        };
        let changed = AtomicBool::new(false);
        let (threads, metrics) = if step == Direction::Pull {
            let view = pull_rep.get_or_insert_with(|| pull_view(rep, pull, &built, &built_overlay));
            let ctx = GatherCtx {
                graph: view.graph(),
                prog,
                values: &values,
                frontier: options.worklist.then_some(&frontier),
                next: next.as_ref(),
                changed: &changed,
                edges_touched: &edges_touched,
                early_exit,
            };
            let mapping = Mapping::of(view);
            (mapping.full_threads(), pull_step(launcher, &mapping, &ctx))
        } else {
            let ctx = IterCtx {
                graph: g,
                prog,
                values: &values,
                prev: prev.as_deref(),
                changed: &changed,
                next_frontier: next.as_ref(),
                edges_touched: &edges_touched,
            };
            let threads = match (options.worklist, frontier.rep()) {
                (true, FrontierRep::Sparse) => frontier.len(),
                _ => mapping.full_threads(),
            };
            let active = options.worklist.then_some(&frontier);
            (threads, push_sweep(launcher, &mapping, &ctx, active))
        };
        out.directions.push(step);
        if L::METERED {
            out.report.push(threads, metrics);
        }

        if let Some(next) = &next {
            frontier = next.take(mode);
            if let Some(switch) = &mut switch {
                switch.retire(frontier.nodes());
            }
            if options.sort_frontier_by_degree && direction != Direction::Pull {
                // Batch similar degrees into the same warps; ties broken
                // by id for determinism.
                frontier.sort_by_degree(g);
            }
        }
        if !changed.into_inner() {
            out.converged = true;
            break;
        }
        if let Some(prev) = &mut prev {
            *prev = values.snapshot();
        }
    }

    out.values = values.snapshot();
    out.edges_touched = edges_touched.into_inner();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AutoOptions, BackendKind};
    use crate::push::PushOptions;
    use crate::runner::Engine;
    use tigr_graph::generators::{
        barabasi_albert, grid_2d, rmat, with_uniform_weights, BarabasiAlbertConfig, RmatConfig,
    };
    use tigr_graph::properties::{bfs_levels, dijkstra};
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn fixture() -> Csr {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 250,
                edges_per_node: 3,
                symmetric: true,
            },
            11,
        );
        with_uniform_weights(&g, 1, 24, 3)
    }

    fn plan(direction: Direction, frontier: FrontierMode) -> ExecutionPlan {
        ExecutionPlan {
            direction,
            push: PushOptions {
                frontier,
                ..PushOptions::default()
            },
            ..ExecutionPlan::default()
        }
    }

    /// A run on a fresh sequential simulator.
    fn simulate(
        rep: &Representation<'_>,
        pull: Option<PullSide<'_>>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> MonotoneOutput {
        let sim = GpuSimulator::new(GpuConfig::default());
        run_monotone(&sim, rep, pull, prog, source, plan).unwrap()
    }

    fn levels(g: &Csr, src: NodeId) -> Vec<u32> {
        bfs_levels(g, src)
            .into_iter()
            .map(|l| if l == usize::MAX { u32::MAX } else { l as u32 })
            .collect()
    }

    #[test]
    fn every_backend_agrees_on_sssp_in_every_direction() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let rep = Representation::Original(&g);
        for backend in [
            BackendKind::WarpSim,
            BackendKind::CpuPool,
            BackendKind::Sequential,
        ] {
            for direction in Direction::ALL {
                for worklist in [false, true] {
                    let out = Engine::default()
                        .with_backend(backend)
                        .with_direction(direction)
                        .with_options(PushOptions {
                            worklist,
                            ..PushOptions::default()
                        })
                        .run_pipeline(&rep, &MonotoneProgram::SSSP.pipeline(), Some(src))
                        .unwrap();
                    let label = format!("{}/{}/{worklist}", backend.label(), direction.label());
                    assert!(out.converged, "{label}");
                    assert_eq!(out.values, expect, "{label}");
                }
            }
        }
    }

    #[test]
    fn pull_builds_its_own_transpose_from_the_forward_representation() {
        let g = fixture();
        let src = NodeId::new(2);
        let out = simulate(
            &Representation::Original(&g),
            None,
            MonotoneProgram::SSSP,
            Some(src),
            &plan(Direction::Pull, FrontierMode::Auto),
        );
        assert_eq!(out.values, dijkstra(&g, src));
        assert!(out.directions.iter().all(|&d| d == Direction::Pull));
        assert_eq!(out.directions.len(), out.report.num_iterations());
    }

    #[test]
    fn auto_matches_push_and_mixes_directions() {
        let g = fixture().without_weights();
        let src = Some(NodeId::new(0));
        let rep = Representation::Original(&g);
        let push = simulate(
            &rep,
            None,
            MonotoneProgram::BFS,
            src,
            &ExecutionPlan::default(),
        );
        let auto = simulate(
            &rep,
            None,
            MonotoneProgram::BFS,
            src,
            &plan(Direction::Auto, FrontierMode::Auto),
        );
        assert_eq!(push.values, auto.values);
        assert_eq!(auto.directions.len(), auto.report.num_iterations());
        assert!(
            auto.directions.contains(&Direction::Pull),
            "dense symmetric BA graph should engage pull: {:?}",
            auto.directions
        );
    }

    #[test]
    fn auto_over_virtual_overlay_matches() {
        let g = fixture();
        let src = NodeId::new(0);
        let ov = VirtualGraph::coalesced(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        let out = simulate(
            &rep,
            None,
            MonotoneProgram::SSSP,
            Some(src),
            &plan(Direction::Auto, FrontierMode::Sparse),
        );
        assert!(out.converged);
        assert_eq!(out.values, dijkstra(&g, src));
    }

    /// Direction-optimizing BFS (Beamer et al.) is the BFS program under
    /// an auto plan: exact levels, bottom-up steps on a dense RMAT.
    #[test]
    fn auto_bfs_matches_oracle_levels_and_engages_bottom_up() {
        for seed in [77, 78] {
            let g = rmat(&RmatConfig::graph500(10, 16), seed);
            let src = NodeId::new(0);
            let out = simulate(
                &Representation::Original(&g),
                None,
                MonotoneProgram::BFS,
                Some(src),
                &plan(Direction::Auto, FrontierMode::Sparse),
            );
            assert_eq!(out.values, levels(&g, src), "seed {seed}");
            assert_eq!(out.directions.len(), out.report.num_iterations());
            assert!(
                out.directions.contains(&Direction::Pull),
                "dense RMAT should trigger the switch: {:?}",
                out.directions
            );
        }
    }

    #[test]
    fn auto_bfs_stays_top_down_on_high_diameter_grids() {
        // Large enough that frontier edges never dominate the remainder.
        let g = grid_2d(60, 60);
        let src = NodeId::new(0);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run_monotone(
            &sim,
            &Representation::Original(&g),
            None,
            MonotoneProgram::BFS,
            Some(src),
            &plan(Direction::Auto, FrontierMode::Sparse),
        )
        .unwrap();
        assert!(out.directions.iter().all(|&d| d == Direction::Push));
        assert_eq!(out.values, levels(&g, src));
    }

    #[test]
    fn auto_bfs_composes_with_virtual_overlays() {
        let g = rmat(&RmatConfig::graph500(9, 12), 79);
        let rev = tigr_graph::reverse::transpose(&g);
        let forward = VirtualGraph::coalesced(&g, 10);
        let backward = VirtualGraph::coalesced(&rev, 10);
        let side = PullSide {
            reverse: &rev,
            overlay: Some(&backward),
        };
        let src = NodeId::new(0);
        let out = simulate(
            &Representation::Virtual {
                graph: &g,
                overlay: &forward,
            },
            Some(side),
            MonotoneProgram::BFS,
            Some(src),
            &plan(Direction::Auto, FrontierMode::Sparse),
        );
        assert_eq!(out.values, levels(&g, src));
    }

    #[test]
    fn bottom_up_steps_cost_fewer_instructions_than_pure_push() {
        let g = rmat(&RmatConfig::graph500(10, 16), 80);
        let rep = Representation::Original(&g);
        let src = Some(NodeId::new(0));
        let hybrid = plan(Direction::Auto, FrontierMode::Sparse);
        // `alpha = 0` never switches: auto degrades to pure push.
        let pure = ExecutionPlan {
            auto: AutoOptions {
                alpha: 0.0,
                ..AutoOptions::default()
            },
            ..hybrid.clone()
        };
        let hybrid = simulate(&rep, None, MonotoneProgram::BFS, src, &hybrid);
        let pure = simulate(&rep, None, MonotoneProgram::BFS, src, &pure);
        assert_eq!(hybrid.values, pure.values);
        assert!(pure.directions.iter().all(|&d| d == Direction::Push));
        assert!(
            hybrid.report.total().instructions < pure.report.total().instructions,
            "hybrid {} vs pure {}",
            hybrid.report.total().instructions,
            pure.report.total().instructions
        );
    }
}
