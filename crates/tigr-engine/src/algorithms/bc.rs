//! Betweenness centrality (single-source Brandes, level-synchronous).
//!
//! BC depends only on shortest-path structure, which UDT with zero dumb
//! weights and the virtual transformation both preserve (Corollary 2).
//! The GPU formulation follows the standard two-phase scheme the paper's
//! comparisons (Gunrock, McLaughlin & Bader) use: a forward
//! level-synchronous BFS accumulating path counts σ, then a backward
//! dependency sweep accumulating δ per level.
//!
//! Like [`super::pr`], the driver is generic over the [`Launcher`] that
//! runs its level kernels: the simulator meters them, the host loop just
//! runs them, and because both visit a level's threads in the same order
//! σ and δ agree to the bit.

use std::sync::{Mutex, PoisonError};

use tigr_core::CancelToken;
use tigr_graph::NodeId;
use tigr_sim::{KernelMetrics, SimReport};

use crate::addr::{aux_addr, value_addr};
use crate::kernel::{csr_targets, relax_kernel, AccessMirror, EdgeFlow, Launcher};
use crate::mapping::{Active, EdgeWalk, Mapping};
use crate::representation::Representation;
use crate::state::{AtomicFloats, AtomicValues, Combine};

/// Betweenness-centrality result for one source.
#[derive(Clone, Debug)]
pub struct BcOutput {
    /// Dependency scores δ_source(v): the contribution of this source to
    /// each node's betweenness centrality. All zero when `cancelled` — a
    /// partial dependency sum is a prefix of nothing.
    pub centrality: Vec<f32>,
    /// BFS levels from the source (`u32::MAX` = unreachable).
    pub levels: Vec<u32>,
    /// Shortest-path counts σ from the source.
    pub sigma: Vec<f32>,
    /// Per-kernel simulator metrics (forward + backward phases); empty
    /// when the launcher is not the simulator.
    pub report: SimReport,
    /// Level kernels launched, forward plus backward (on the simulator,
    /// `report.num_iterations()`).
    pub iterations: usize,
    /// `true` if a [`CancelToken`] fired between two levels of either
    /// phase.
    pub cancelled: bool,
}

/// Runs single-source BC from `source` over `rep` on `launcher` (a
/// [`tigr_sim::GpuSimulator`] or [`crate::kernel::HostLoop`]).
///
/// For a physical representation, build it with
/// [`tigr_core::DumbWeight::Zero`] **over a unit-weight graph** and read
/// only the original nodes' scores; levels of split nodes are
/// intermediate. Virtual representations need no care (Theorem 2).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run<L: Launcher>(launcher: &L, rep: &Representation<'_>, source: NodeId) -> BcOutput {
    run_cancellable(launcher, rep, source, &CancelToken::never())
}

/// [`run`] with a cooperative cancellation hook polled before every
/// forward and every backward level: a fired token stops the run with
/// `cancelled = true` and the partial scores discarded.
///
/// # Panics
///
/// See [`run`].
pub fn run_cancellable<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    source: NodeId,
    cancel: &CancelToken,
) -> BcOutput {
    let n = rep.num_value_slots();
    assert!(source.index() < n, "source out of range");
    let g = rep.graph();
    // Edge blocks have no node to schedule a frontier on: BC runs them
    // as a row per active node (see [`Mapping::sweep_active`]).
    let mapping = Mapping::of(rep);

    let levels = AtomicValues::new(n, u32::MAX);
    let sigma = AtomicFloats::new(n, 0.0);
    levels.store(source.index(), 0);
    sigma.store(source.index(), 1.0);

    let mut report = SimReport::new();
    let mut iterations = 0usize;
    let mut record = |threads: usize, metrics: KernelMetrics| {
        iterations += 1;
        if L::METERED {
            report.push(threads, metrics);
        }
    };

    // ---- Forward phase: level-synchronous BFS with σ accumulation. ----
    let mut frontier: Vec<u32> = vec![source.raw()];
    let mut level_buckets: Vec<Vec<u32>> = vec![frontier.clone()];
    let mut level = 0u32;
    let mut cancelled = false;
    while !frontier.is_empty() {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let next = Mutex::new(Vec::new());
        let kernel = |m: &mut L::Mirror, slot: usize, edges: EdgeWalk| {
            m.load(aux_addr(2, slot), 4); // sigma[v]
            let sig_v = sigma.load(slot);
            relax_kernel(m, csr_targets(g, edges), |m, edge| {
                let nbr = edge.target;
                m.load(value_addr(nbr), 4); // level[nbr]
                                            // Unvisited? claim it for level+1 (atomic CAS).
                if levels.load(nbr) == u32::MAX && levels.try_improve(nbr, level + 1, Combine::Min)
                {
                    m.atomic(value_addr(nbr), 4);
                    next.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(nbr as u32);
                }
                if levels.load(nbr) == level + 1 {
                    sigma.add(nbr, sig_v);
                    m.atomic(aux_addr(2, nbr), 4);
                }
                m.compute(2);
                EdgeFlow::Continue
            });
        };
        let metrics = mapping.sweep_active(launcher, Active::List(&frontier), kernel);
        record(frontier.len(), metrics);

        let mut nf: Vec<u32> = next.into_inner().unwrap_or_else(PoisonError::into_inner);
        nf.sort_unstable();
        nf.dedup();
        frontier = nf;
        if !frontier.is_empty() {
            level_buckets.push(frontier.clone());
        }
        level += 1;
    }

    // ---- Backward phase: dependency accumulation per level. ----
    let delta = AtomicFloats::new(n, 0.0);
    for l in (0..level_buckets.len().saturating_sub(1)).rev() {
        if cancelled || cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let bucket = &level_buckets[l];
        let target_level = (l + 1) as u32;
        let kernel = |m: &mut L::Mirror, slot: usize, edges: EdgeWalk| {
            m.load(aux_addr(2, slot), 4); // sigma[v]
            let sig_v = sigma.load(slot);
            let mut partial = 0.0f32;
            relax_kernel(m, csr_targets(g, edges), |m, edge| {
                let nbr = edge.target;
                m.load(value_addr(nbr), 4); // level[nbr]
                if levels.load(nbr) == target_level {
                    m.load(aux_addr(2, nbr), 4); // sigma[nbr]
                    m.load(aux_addr(3, nbr), 4); // delta[nbr]
                    let sig_w = sigma.load(nbr);
                    if sig_w > 0.0 {
                        partial += sig_v / sig_w * (1.0 + delta.load(nbr));
                    }
                    m.compute(4);
                } else {
                    m.compute(1);
                }
                EdgeFlow::Continue
            });
            if partial != 0.0 {
                delta.add(slot, partial);
                m.atomic(aux_addr(3, slot), 4);
            }
        };
        let metrics = mapping.sweep_active(launcher, Active::List(bucket), kernel);
        record(bucket.len(), metrics);
    }

    let mut centrality = if cancelled {
        vec![0.0; n]
    } else {
        delta.snapshot()
    };
    centrality[source.index()] = 0.0;

    BcOutput {
        centrality,
        levels: levels.snapshot(),
        sigma: sigma.snapshot(),
        report,
        iterations,
        cancelled,
    }
}

/// Approximate betweenness centrality by accumulating the single-source
/// dependencies of `sources` (Brandes sampling): the standard way GPU
/// frameworks amortize BC over large graphs.
///
/// Returns the accumulated scores and the merged per-kernel report.
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn run_sampled<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    sources: &[NodeId],
) -> (Vec<f64>, SimReport) {
    let n = rep.num_value_slots();
    let mut total = vec![0.0f64; n];
    let mut report = SimReport::new();
    for &s in sources {
        let out = run(launcher, rep, s);
        for (acc, &d) in total.iter_mut().zip(&out.centrality) {
            *acc += d as f64;
        }
        for it in out.report.iterations {
            report.push(it.threads, it.metrics);
        }
    }
    (total, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::{barabasi_albert, BarabasiAlbertConfig};
    use tigr_graph::properties::brandes_accumulate;
    use tigr_graph::CsrBuilder;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn oracle(g: &tigr_graph::Csr, s: NodeId) -> Vec<f64> {
        let mut bc = vec![0.0; g.num_nodes()];
        brandes_accumulate(g, s, &mut bc);
        bc
    }

    fn assert_close(got: &[f32], expect: &[f64]) {
        for (i, (&g, &e)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g as f64 - e).abs() < 1e-3 * (1.0 + e.abs()),
                "delta[{i}]: got {g}, expected {e}"
            );
        }
    }

    #[test]
    fn path_graph_dependencies() {
        // 0 <-> 1 <-> 2 <-> 3: from source 0, delta(1)=2, delta(2)=1.
        let mut b = CsrBuilder::new(4);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        let g = b.build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(&sim, &Representation::Original(&g), NodeId::new(0));
        assert_close(&out.centrality, &oracle(&g, NodeId::new(0)));
        assert_eq!(out.levels, vec![0, 1, 2, 3]);
        assert_eq!(out.sigma, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn diamond_splits_sigma() {
        // 0->1, 0->2, 1->3, 2->3: two shortest paths to 3.
        let g = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(&sim, &Representation::Original(&g), NodeId::new(0));
        assert_eq!(out.sigma, vec![1.0, 1.0, 1.0, 2.0]);
        assert_close(&out.centrality, &oracle(&g, NodeId::new(0)));
    }

    #[test]
    fn matches_brandes_on_power_law_graph() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 150,
                edges_per_node: 2,
                symmetric: true,
            },
            51,
        );
        let sim = GpuSimulator::new(GpuConfig::default());
        let src = NodeId::new(0);
        let expect = oracle(&g, src);
        let out = run(&sim, &Representation::Original(&g), src);
        assert_close(&out.centrality, &expect);
    }

    #[test]
    fn virtual_representation_matches_original() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 150,
                edges_per_node: 2,
                symmetric: true,
            },
            52,
        );
        let sim = GpuSimulator::new(GpuConfig::default());
        let src = NodeId::new(3);
        let expect = oracle(&g, src);
        for ov in [VirtualGraph::new(&g, 4), VirtualGraph::coalesced(&g, 4)] {
            let out = run(
                &sim,
                &Representation::Virtual {
                    graph: &g,
                    overlay: &ov,
                },
                src,
            );
            assert_close(&out.centrality, &expect);
        }
    }

    #[test]
    fn sampled_bc_over_all_sources_equals_exact_brandes() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 60,
                edges_per_node: 2,
                symmetric: true,
            },
            53,
        );
        let sim = GpuSimulator::new(GpuConfig::default());
        let sources: Vec<NodeId> = g.nodes().collect();
        let (got, report) = run_sampled(&sim, &Representation::Original(&g), &sources);
        let expect = tigr_graph::properties::betweenness_centrality(&g);
        for (i, (&a, &b)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-2 * (1.0 + b.abs()),
                "bc[{i}]: {a} vs {b}"
            );
        }
        assert!(report.num_iterations() > sources.len());
    }

    #[test]
    fn unreachable_nodes_have_zero_centrality() {
        let g = CsrBuilder::new(3).edge(0, 1).build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(&sim, &Representation::Original(&g), NodeId::new(0));
        assert_eq!(out.levels[2], u32::MAX);
        assert_eq!(out.centrality[2], 0.0);
        assert_eq!(out.sigma[2], 0.0);
    }
}
