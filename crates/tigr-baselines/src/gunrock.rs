//! Gunrock-style frontier engine (Wang et al., PPoPP 2016).
//!
//! Gunrock expresses analytics as *advance* (expand every out-edge of
//! the frontier, load-balanced so each thread gets one edge) and
//! *filter* (deduplicate/compact the advance output into the next
//! frontier). The advance is edge-parallel — immune to degree skew, like
//! Tigr — but each iteration pays two kernel launches, the filter pass,
//! and large frontier buffers (whose footprint OOMs on the paper's
//! largest graphs; see [`crate::Baseline::footprint_bytes`]).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

use tigr_core::CancelToken;
use tigr_engine::addr::{aux_addr, edge_addr, frontier_addr, row_ptr_addr, value_addr};
use tigr_engine::{pr, MonotoneProgram, PrOptions, PrOutput};
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuSimulator, KernelMetrics, Lane, SimReport};

use crate::common::{fixpoint, FrameworkRun};

/// Work unit of one advance: a (source node, flat edge index) pair, the
/// product of Gunrock's load-balanced partitioning.
fn expand_frontier(g: &Csr, frontier: &[u32]) -> Vec<(u32, u32)> {
    let mut work = Vec::new();
    for &v in frontier {
        let node = NodeId::new(v);
        for e in g.edge_start(node)..g.edge_end(node) {
            work.push((v, e as u32));
        }
    }
    work
}

/// The advance, one thread per work unit: each loads its load-balance
/// lookup table entry, its source's value and its edge, then hands
/// `per_edge` the source, the edge and its target.
fn advance(
    sim: &GpuSimulator,
    g: &Csr,
    work: &[(u32, u32)],
    per_edge: impl Fn(&mut Lane, usize, usize, usize),
) -> KernelMetrics {
    sim.launch(work.len(), |tid, lane| {
        let (src, e) = (work[tid].0 as usize, work[tid].1 as usize);
        lane.load(frontier_addr(tid), 4);
        lane.load(value_addr(src), 4);
        lane.load(edge_addr(e), 8);
        per_edge(lane, src, e, g.edge_target(e).index());
    })
}

/// Runs a monotone analytic with the advance/filter strategy: an
/// iteration is due while the frontier is not empty.
pub fn run_monotone(
    sim: &GpuSimulator,
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
) -> FrameworkRun {
    let n = g.num_nodes();
    let mut frontier: Vec<u32> = prog.initial_frontier(n, source);
    if frontier.is_empty() {
        return FrameworkRun {
            values: prog.initial_values(n, source),
            report: SimReport::new(),
        };
    }
    let enqueued: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();

    fixpoint(n, prog, source, |values, changed| {
        let work = expand_frontier(g, &frontier);
        let next = Mutex::new(Vec::new());

        // Load-balancing scan: Gunrock's advance is preceded by a
        // degree-gather plus prefix-sum over the frontier to give each
        // thread exactly one edge (two extra kernel launches).
        let mut metrics = sim.launch(frontier.len(), |tid, lane| {
            lane.load(frontier_addr(tid), 4);
            lane.load(row_ptr_addr(frontier[tid] as usize), 8);
            lane.compute(2);
            lane.store(frontier_addr(tid), 4);
        });
        let scan = sim.launch(frontier.len(), |tid, lane| {
            lane.load(frontier_addr(tid), 4);
            lane.compute(3); // up-sweep + down-sweep amortized
            lane.store(frontier_addr(tid), 4);
        });
        metrics.merge(&scan);

        let relax = advance(sim, g, &work, |lane, src, e, nbr| {
            let cand = prog.edge_op.apply(values.load(src), g.weight(e));
            lane.compute(2);
            lane.load(value_addr(nbr), 4);
            if prog.combine.improves(cand, values.load(nbr))
                && values.try_improve(nbr, cand, prog.combine)
            {
                lane.atomic(value_addr(nbr), 4);
                if enqueued[nbr].swap(1, Ordering::Relaxed) == 0 {
                    next.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(nbr as u32);
                    lane.atomic(frontier_addr(nbr), 4);
                }
            }
        });
        metrics.merge(&relax);

        // Filter: compact and reset the dedup flags.
        let mut nf: Vec<u32> = next.into_inner().unwrap_or_else(PoisonError::into_inner);
        let filter = sim.launch(nf.len(), |tid, lane| {
            lane.load(frontier_addr(tid), 4);
            lane.compute(2);
            lane.store(frontier_addr(tid), 4);
        });
        metrics.merge(&filter);

        for &v in &nf {
            enqueued[v as usize].store(0, Ordering::Relaxed);
        }
        nf.sort_unstable();
        changed.store(!nf.is_empty(), Ordering::Relaxed);
        frontier = nf;
        (work.len(), metrics)
    })
}

/// Gunrock PageRank: an all-active advance per iteration plus the
/// finalize pass (PR's frontier never shrinks, so filter is trivial).
pub fn run_pagerank(sim: &GpuSimulator, g: &Csr, options: &PrOptions) -> PrOutput {
    // Every node is active: the flat (src, edge) table, built once.
    let work = expand_frontier(g, &g.nodes().map(NodeId::raw).collect::<Vec<_>>());
    pr::power_iterate(
        sim,
        &pr::out_degrees(g),
        options,
        &CancelToken::never(),
        |shares, accum| {
            let metrics = advance(sim, g, &work, |lane, src, _, nbr| {
                accum.add(nbr, shares.load(src));
                lane.compute(2);
                lane.atomic(aux_addr(0, nbr), 4);
            });
            (work.len(), metrics)
        },
        |lane, v| lane.load(aux_addr(0, v), 4),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, pagerank};
    use tigr_sim::GpuConfig;

    fn fixture() -> Csr {
        with_uniform_weights(&rmat(&RmatConfig::graph500(7, 6), 91), 1, 32, 9)
    }

    #[test]
    fn gunrock_sssp_matches_dijkstra() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone(&sim, &g, MonotoneProgram::SSSP, Some(NodeId::new(0)));
        assert_eq!(out.values, expect);
    }

    #[test]
    fn gunrock_cc_matches_oracle() {
        let mut b = tigr_graph::CsrBuilder::new(7);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(3, 4).edge(5, 6);
        let g = b.build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run_monotone(&sim, &g, MonotoneProgram::CC, None);
        assert_eq!(out.values, tigr_graph::properties::connected_components(&g));
    }

    #[test]
    fn gunrock_pagerank_matches_oracle() {
        let g = rmat(&RmatConfig::graph500(7, 6), 92);
        let expect = pagerank(&g, 0.85, 50);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_pagerank(
            &sim,
            &g,
            &PrOptions {
                max_iterations: 50,
                tolerance: 1e-7,
                ..PrOptions::default()
            },
        );
        for (i, (&got, &want)) in out.ranks.iter().zip(&expect).enumerate() {
            assert!((got as f64 - want).abs() < 1e-4, "rank[{i}]");
        }
    }

    #[test]
    fn advance_is_edge_balanced_even_on_stars() {
        let g = tigr_graph::generators::star_graph(2001);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone(&sim, &g, MonotoneProgram::BFS, Some(NodeId::new(0)));
        assert!(
            out.report.warp_efficiency() > 0.9,
            "edge-parallel advance stays balanced: {}",
            out.report.warp_efficiency()
        );
    }

    #[test]
    fn frontier_work_expansion() {
        let g = tigr_graph::CsrBuilder::new(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .build();
        let work = expand_frontier(&g, &[0]);
        assert_eq!(work, vec![(0, 0), (0, 1)]);
        assert_eq!(expand_frontier(&g, &[2]), vec![]);
    }
}
