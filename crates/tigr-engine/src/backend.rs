//! Executors that run an [`ExecutionPlan`]: the warp-lockstep simulator,
//! the work-stealing CPU pool, and a deterministic sequential sweep.
//!
//! The [`Backend`] trait closes the Plan → Kernel → Backend loop: a plan
//! describes *what* to run (direction, frontier, sync, worker count),
//! the [`crate::kernel`] module owns the single per-edge relax
//! loop, and a backend decides *where* the iterations execute. All three
//! backends validate the plan against the paper's theorems before
//! launching and produce the same [`MonotoneOutput`] shape, so
//! differential tests can pit any cell of the plan matrix against the
//! sequential reference.
//!
//! This module also hosts the generalized direction-optimizing driver
//! ([`Direction::Auto`]): Beamer's α/β density switch, lifted from the
//! bespoke BFS implementation to any monotone program (pull steps over
//! split views are taken only when Theorem 3 licenses them).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tigr_core::VirtualGraph;
use tigr_graph::reverse::transpose;
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuConfig, GpuSimulator, SimReport};

use crate::batch::{run_batch_cpu_pool, run_solo_sequential_push, BatchArena, BatchProgram};
use crate::frontier::{Frontier, FrontierBuilder, FrontierRep};
use crate::kernel::{csr_edges, pull_gather, GatherFilter, NoMirror};
use crate::plan::{BackendKind, Direction, ExecutionPlan};
use crate::program::{EdgeOp, InitKind, MonotoneProgram};
use crate::pull::{pull_step, run_monotone_pull_cancellable, GatherCtx, PullOptions};
use crate::push::{run_monotone_cancellable, worklist_sweep, IterCtx, MonotoneOutput, SyncMode};
use crate::representation::Representation;
use crate::runner::EngineError;
use crate::state::{AtomicValues, Combine};

/// An executor capable of running a validated [`ExecutionPlan`].
pub trait Backend: fmt::Debug {
    /// Stable backend label (matches [`BackendKind::label`]).
    fn name(&self) -> &'static str;

    /// Runs `prog` over `rep` according to `plan`, validating the plan
    /// first (invalid combinations return
    /// [`EngineError::InvalidPlan`]).
    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError>;
}

/// Prebuilt transpose-side structures for the auto driver: callers that
/// already hold the reverse CSR (and possibly its overlay) skip the lazy
/// construction.
pub(crate) struct PullSide<'a> {
    /// The transpose of the forward graph.
    pub(crate) reverse: &'a Csr,
    /// Virtual overlay built over `reverse`, when the forward
    /// representation is virtual.
    pub(crate) overlay: Option<&'a VirtualGraph>,
}

/// Runs `plan` on the simulator, dispatching on direction. Pull runs
/// over a transpose view mirroring the forward representation (Theorem 3
/// overlays included) — supplied via `pull_side` when the caller holds
/// prepared views, built internally otherwise; auto interleaves both.
pub(crate) fn run_sim_plan(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    pull_side: Option<PullSide<'_>>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let cancel = &plan.cancel;
    match plan.direction {
        Direction::Push => run_monotone_cancellable(sim, rep, prog, source, &plan.push, cancel),
        Direction::Pull => {
            let options = PullOptions {
                worklist: plan.push.worklist,
                max_iterations: plan.push.max_iterations,
            };
            match rep {
                // Let the pull driver reject the split with its canonical
                // message.
                Representation::Physical(_) => {
                    run_monotone_pull_cancellable(sim, rep, prog, source, &options, cancel)
                }
                Representation::Original(g) => {
                    let rev_owned;
                    let rev = match &pull_side {
                        Some(ps) => ps.reverse,
                        None => {
                            rev_owned = transpose(g);
                            &rev_owned
                        }
                    };
                    run_monotone_pull_cancellable(
                        sim,
                        &Representation::Original(rev),
                        prog,
                        source,
                        &options,
                        cancel,
                    )
                }
                Representation::Virtual { graph, overlay } => {
                    let rev_owned;
                    let rev = match &pull_side {
                        Some(ps) => ps.reverse,
                        None => {
                            rev_owned = transpose(graph);
                            &rev_owned
                        }
                    };
                    let rov_owned;
                    let rov = match &pull_side {
                        Some(PullSide {
                            overlay: Some(o), ..
                        }) => *o,
                        _ => {
                            rov_owned = transpose_overlay(rev, overlay);
                            &rov_owned
                        }
                    };
                    run_monotone_pull_cancellable(
                        sim,
                        &Representation::Virtual {
                            graph: rev,
                            overlay: rov,
                        },
                        prog,
                        source,
                        &options,
                        cancel,
                    )
                }
                Representation::OnTheFly { graph, mapper } => {
                    let rev = transpose(graph);
                    let m = tigr_core::OnTheFlyMapper::new(&rev, mapper.k());
                    run_monotone_pull_cancellable(
                        sim,
                        &Representation::OnTheFly {
                            graph: &rev,
                            mapper: m,
                        },
                        prog,
                        source,
                        &options,
                        cancel,
                    )
                }
            }
        }
        Direction::Auto => run_monotone_auto(sim, rep, pull_side, prog, source, plan),
    }
}

/// Builds the transpose-side overlay matching the forward overlay's
/// layout (stride coalescing) and chunk size.
fn transpose_overlay(rev: &Csr, forward: &VirtualGraph) -> VirtualGraph {
    if forward.is_coalesced() {
        VirtualGraph::coalesced(rev, forward.k())
    } else {
        VirtualGraph::new(rev, forward.k())
    }
}

/// Whether a pull step may early-exit per slot (the bottom-up BFS
/// shape): level-synchronous unweighted single-source min-plus runs set
/// each value exactly once to its final level, so skipping claimed slots
/// and stopping at the first improving parent is exact.
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

/// The generalized direction-optimizing driver: worklist push iterations
/// with Beamer's α/β density switch into gather (pull) iterations over
/// the transpose, falling back to push as the frontier thins.
///
/// Degrades to plain push when the hybrid has nothing to optimize or the
/// theorems do not license a pull side: no worklist, BSP double
/// buffering, physical splits, on-the-fly mapping, non-associative
/// programs over virtual views, or `alpha <= 0`.
pub(crate) fn run_monotone_auto(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    pull_side: Option<PullSide<'_>>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let can_pull = match rep {
        Representation::Original(_) => true,
        // Theorem 3: split folds need an associative combine.
        Representation::Virtual { .. } => prog.associative,
        Representation::Physical(_) | Representation::OnTheFly { .. } => false,
    };
    if !plan.push.worklist || plan.push.sync == SyncMode::Bsp || !can_pull || plan.auto.alpha <= 0.0
    {
        return run_monotone_cancellable(sim, rep, prog, source, &plan.push, &plan.cancel);
    }

    let g = rep.graph();
    let n = rep.num_value_slots();
    let early_exit = bottom_up_exact(&prog, g);
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let mut report = SimReport::new();
    let mut directions = Vec::new();
    let mut converged = false;
    let edges_touched = AtomicU64::new(0);
    let next = FrontierBuilder::new(n);
    let mut frontier =
        Frontier::from_active(n, prog.initial_frontier(n, source), plan.push.frontier);
    // Out-edges not yet owned by any frontier: the denominator of the
    // density switch.
    let mut remaining = g.num_edges() as u64;
    let out_edges = |nodes: &[u32]| -> u64 {
        nodes
            .iter()
            .map(|&v| g.out_degree(NodeId::new(v)) as u64)
            .sum()
    };

    // Transpose side, built on the first pull step unless supplied.
    let mut rev_owned: Option<Csr> = None;
    let mut rev_ov_owned: Option<VirtualGraph> = None;

    let mut cancelled = false;
    for _ in 0..plan.push.max_iterations {
        if frontier.is_empty() {
            converged = true;
            break;
        }
        if plan.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let frontier_edges = out_edges(frontier.nodes());
        let pull_now = frontier_edges as f64 * plan.auto.alpha > remaining as f64
            && frontier.len() > n.div_ceil(plan.auto.beta.max(1.0) as usize).max(1);

        let changed = AtomicBool::new(false);
        let (threads, metrics) = if pull_now {
            let reverse: &Csr = match &pull_side {
                Some(ps) => ps.reverse,
                None => rev_owned.get_or_insert_with(|| transpose(g)),
            };
            let pull_rep = match rep {
                Representation::Virtual { overlay, .. } => {
                    let rov: &VirtualGraph = match &pull_side {
                        Some(PullSide {
                            overlay: Some(o), ..
                        }) => o,
                        _ => {
                            rev_ov_owned.get_or_insert_with(|| transpose_overlay(reverse, overlay))
                        }
                    };
                    Representation::Virtual {
                        graph: reverse,
                        overlay: rov,
                    }
                }
                _ => Representation::Original(reverse),
            };
            let ctx = GatherCtx {
                prog,
                values: &values,
                frontier: Some(&frontier),
                next: Some(&next),
                changed: &changed,
                edges_touched: &edges_touched,
                early_exit,
            };
            directions.push(Direction::Pull);
            (pull_rep.full_threads(), pull_step(sim, &pull_rep, &ctx))
        } else {
            let ctx = IterCtx {
                graph: g,
                prog,
                values: &values,
                prev: None,
                changed: &changed,
                next_frontier: Some(&next),
                edges_touched: &edges_touched,
            };
            let threads = match frontier.rep() {
                FrontierRep::Sparse => frontier.len(),
                FrontierRep::Dense => rep.full_threads(),
            };
            directions.push(Direction::Push);
            (threads, worklist_sweep(sim, rep, &ctx, &frontier))
        };
        report.push(threads, metrics);

        frontier = next.take(plan.push.frontier);
        remaining = remaining.saturating_sub(out_edges(frontier.nodes()));
        if plan.push.sort_frontier_by_degree {
            frontier.sort_by_degree(g);
        }
        if !changed.load(Ordering::Relaxed) {
            converged = true;
            break;
        }
    }

    MonotoneOutput {
        values: values.snapshot(),
        report,
        converged,
        edges_touched: edges_touched.into_inner(),
        directions,
        cancelled,
    }
}

/// The warp-lockstep simulator backend: architectural metrics per
/// iteration, every direction supported.
pub struct WarpSim {
    sim: GpuSimulator,
}

impl WarpSim {
    /// Simulator backend over a fresh sequential simulator.
    pub fn new(config: GpuConfig) -> Self {
        WarpSim {
            sim: GpuSimulator::new(config),
        }
    }

    /// Simulator backend over the host-parallel simulator.
    pub fn parallel(config: GpuConfig) -> Self {
        WarpSim {
            sim: GpuSimulator::new_parallel(config),
        }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &GpuSimulator {
        &self.sim
    }
}

impl fmt::Debug for WarpSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpSim").finish_non_exhaustive()
    }
}

impl Backend for WarpSim {
    fn name(&self) -> &'static str {
        BackendKind::WarpSim.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        plan.validate(rep, &prog)?;
        Ok(run_sim_plan(&self.sim, rep, None, prog, source, plan))
    }
}

/// The wall-clock CPU backend over the persistent work-stealing pool.
/// Every run — push, pull or auto — is the one-lane case of the pooled
/// batched executor, which carries the pool's gather side and the
/// Beamer density switch. Architectural metrics are absent, so the
/// returned report is empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuPool;

/// A solo `CpuPool` run: the `K = 1` batch of
/// [`run_batch_cpu_pool`], fed the caller's prebuilt transpose when it
/// holds one (prepared graphs), so a pull sweep builds none.
pub(crate) fn run_pool_solo(
    rep: &Representation<'_>,
    pull: Option<&Csr>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let batch = BatchProgram::solo(prog, source, plan.cancel.clone());
    let mut out = run_batch_cpu_pool(rep, pull, &batch, plan, &mut BatchArena::new());
    out.lanes.pop().expect("one lane in, one lane out")
}

impl Backend for CpuPool {
    fn name(&self) -> &'static str {
        BackendKind::CpuPool.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        plan.validate(rep, &prog)?;
        Ok(run_pool_solo(rep, None, prog, source, plan))
    }
}

/// Deterministic single-threaded backend: nodes processed in id order,
/// no atomics at all on the push path (a lane's values are plain memory
/// with one writer), no simulator accounting. The reference executor the
/// plan-matrix differential tests compare against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl Backend for Sequential {
    fn name(&self) -> &'static str {
        BackendKind::Sequential.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        plan.validate(rep, &prog)?;
        Ok(match plan.direction {
            // Auto's fixpoint equals push's; the sequential reference
            // keeps the simpler schedule. A solo push run is the lane
            // driver's K = 1 case, over the representation's CSR
            // (virtual overlays share the fixpoint and are ignored;
            // physical splits use their split CSR and slots).
            Direction::Push | Direction::Auto => {
                run_solo_sequential_push(rep.graph(), prog, source, plan.cancel.clone(), &plan.push)
            }
            Direction::Pull => sequential_pull(rep, prog, source, plan),
        })
    }
}

/// Sequential gather sweeps over an internally built transpose.
fn sequential_pull(
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let g = rep.graph();
    let n = rep.num_value_slots();
    let rev = transpose(g);
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let next = FrontierBuilder::new(n);
    let mut frontier: Option<Frontier> = plan.push.worklist.then(|| {
        Frontier::from_active(
            n,
            prog.initial_frontier(n, source),
            crate::frontier::FrontierMode::Dense,
        )
    });
    let mut edges_touched = 0u64;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut cancelled = false;
    for _ in 0..plan.push.max_iterations {
        if let Some(f) = &frontier {
            if f.is_empty() {
                converged = true;
                break;
            }
        }
        if plan.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        iterations += 1;
        let mut changed = false;
        for slot in 0..n {
            let v = NodeId::from_index(slot);
            edges_touched += pull_gather(
                &mut NoMirror,
                prog,
                &values,
                slot,
                csr_edges(&rev, rev.edge_start(v)..rev.edge_end(v)),
                GatherFilter {
                    active: frontier.as_ref(),
                    early_exit: false,
                },
                |_, s| {
                    changed = true;
                    next.activate(s);
                },
            );
        }
        if frontier.is_some() {
            frontier = Some(next.take(crate::frontier::FrontierMode::Dense));
        }
        if !changed {
            converged = true;
            break;
        }
    }
    MonotoneOutput {
        values: values.snapshot(),
        report: SimReport::new(),
        converged,
        edges_touched,
        directions: vec![Direction::Pull; iterations],
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FrontierMode;
    use crate::push::PushOptions;
    use tigr_graph::generators::{barabasi_albert, with_uniform_weights, BarabasiAlbertConfig};
    use tigr_graph::properties::dijkstra;

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

    #[test]
    fn every_backend_agrees_on_sssp() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let rep = Representation::Original(&g);
        let plan = ExecutionPlan::default();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(WarpSim::new(GpuConfig::default())),
            Box::new(CpuPool),
            Box::new(Sequential),
        ];
        for b in &backends {
            let out = b
                .run_monotone(&rep, MonotoneProgram::SSSP, Some(src), &plan)
                .unwrap();
            assert_eq!(out.values, expect, "backend {}", b.name());
        }
    }

    #[test]
    fn sequential_pull_matches_push() {
        let g = fixture();
        let src = NodeId::new(4);
        let rep = Representation::Original(&g);
        for worklist in [false, true] {
            let plan = |direction| ExecutionPlan {
                direction,
                push: PushOptions {
                    worklist,
                    ..PushOptions::default()
                },
                ..ExecutionPlan::default()
            };
            let push = Sequential
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &plan(Direction::Push),
                )
                .unwrap();
            let pull = Sequential
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &plan(Direction::Pull),
                )
                .unwrap();
            assert!(push.converged && pull.converged);
            assert_eq!(push.values, pull.values, "worklist={worklist}");
        }
    }

    #[test]
    fn auto_matches_push_and_mixes_directions() {
        let g = fixture().without_weights();
        let src = NodeId::new(0);
        let rep = Representation::Original(&g);
        let sim = WarpSim::new(GpuConfig::default());
        let push = sim
            .run_monotone(
                &rep,
                MonotoneProgram::BFS,
                Some(src),
                &ExecutionPlan::default(),
            )
            .unwrap();
        let auto = sim
            .run_monotone(
                &rep,
                MonotoneProgram::BFS,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Auto,
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
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
        let expect = dijkstra(&g, src);
        let ov = VirtualGraph::coalesced(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        let out = WarpSim::new(GpuConfig::default())
            .run_monotone(
                &rep,
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Auto,
                    push: PushOptions {
                        frontier: FrontierMode::Sparse,
                        ..PushOptions::default()
                    },
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    fn sim_pull_plan_builds_its_own_transpose() {
        let g = fixture();
        let src = NodeId::new(2);
        let expect = dijkstra(&g, src);
        // NOTE: the pull plan takes the *forward* representation and
        // transposes internally — unlike run_monotone_pull's raw API.
        let out = WarpSim::new(GpuConfig::default())
            .run_monotone(
                &Representation::Original(&g),
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Pull,
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
        assert_eq!(out.values, expect);
        assert!(out.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn cpu_pool_pull_and_auto_match_sequential_values() {
        let g = fixture();
        let src = NodeId::new(0);
        let rep = Representation::Original(&g);
        let reference = Sequential
            .run_monotone(
                &rep,
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan::default(),
            )
            .unwrap();
        for direction in [Direction::Pull, Direction::Auto] {
            let out = CpuPool
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &ExecutionPlan {
                        direction,
                        ..ExecutionPlan::default()
                    },
                )
                .unwrap();
            assert_eq!(out.values, reference.values, "{direction:?}");
            assert!(out.converged && !out.cancelled, "{direction:?}");
            if direction == Direction::Pull {
                assert!(out.directions.iter().all(|&d| d == Direction::Pull));
            }
        }
    }
}
