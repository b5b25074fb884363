//! "Hardwired" single-algorithm GPU implementations (§6.1).
//!
//! Besides the general frameworks, the paper cites specialized
//! implementations — Davidson et al.'s work-efficient SSSP
//! (Δ-stepping) and ECL-CC's hooking/shortcutting connected
//! components — and defers the comparison to its project site. This
//! module provides both on the shared simulator so the comparison can
//! run here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use tigr_engine::addr::{edge_addr, frontier_addr, row_ptr_addr, value_addr};
use tigr_engine::{AtomicValues, Combine};
use tigr_graph::{Csr, NodeId, Weight, INFINITE_WEIGHT};
use tigr_sim::{GpuSimulator, SimReport};

use crate::common::FrameworkRun;

/// Δ-stepping SSSP (Meyer & Sanders; Davidson et al.'s GPU variant):
/// tentative distances are settled bucket by bucket of width `delta`,
/// with light edges (w < delta) relaxed iteratively inside a bucket and
/// heavy edges once per bucket.
///
/// `delta = 0` selects a heuristic bucket width (average edge weight).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn delta_stepping_sssp(
    sim: &GpuSimulator,
    g: &Csr,
    source: NodeId,
    delta: Weight,
) -> FrameworkRun {
    let n = g.num_nodes();
    assert!(source.index() < n, "source out of range");
    let delta = if delta == 0 {
        let m = g.num_edges();
        if m == 0 {
            1
        } else {
            let total: u64 = (0..m).map(|e| g.weight(e) as u64).sum();
            ((total / m as u64) as Weight).max(1)
        }
    } else {
        delta
    };

    let dist = AtomicValues::new(n, INFINITE_WEIGHT);
    dist.store(source.index(), 0);
    let mut report = SimReport::new();
    let mut bucket_index = 0u32;

    loop {
        // Collect the current bucket: nodes with d ∈ [b·Δ, (b+1)·Δ).
        let lo = bucket_index.saturating_mul(delta);
        let hi = lo.saturating_add(delta);
        let mut bucket: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                let d = dist.load(v as usize);
                d >= lo && d < hi
            })
            .collect();
        if bucket.is_empty() {
            // Find the next non-empty bucket, or finish.
            let next = (0..n)
                .map(|v| dist.load(v))
                .filter(|&d| d != INFINITE_WEIGHT && d >= hi)
                .min();
            match next {
                Some(d) => {
                    bucket_index = d / delta;
                    continue;
                }
                None => break,
            }
        }

        // Light-edge phase: relax within the bucket to a fixpoint.
        loop {
            let changed = AtomicBool::new(false);
            let reinsert = Mutex::new(Vec::new());
            let metrics = sim.launch(bucket.len(), |tid, lane| {
                let v = bucket[tid] as usize;
                lane.load(frontier_addr(tid), 4);
                lane.load(row_ptr_addr(v), 8);
                lane.load(value_addr(v), 4);
                let d = dist.load(v);
                let node = NodeId::from_index(v);
                for e in g.edge_start(node)..g.edge_end(node) {
                    lane.load(edge_addr(e), 8);
                    let w = g.weight(e);
                    if w >= delta {
                        continue; // heavy edges wait for bucket settlement
                    }
                    let nbr = g.edge_target(e).index();
                    let cand = d.saturating_add(w);
                    lane.compute(2);
                    lane.load(value_addr(nbr), 4);
                    if cand < dist.load(nbr) && dist.try_improve(nbr, cand, Combine::Min) {
                        lane.atomic(value_addr(nbr), 4);
                        changed.store(true, Ordering::Relaxed);
                        if cand < hi {
                            reinsert
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(nbr as u32);
                        }
                    }
                }
            });
            report.push(bucket.len(), metrics);
            if !changed.load(Ordering::Relaxed) {
                break;
            }
            let mut extra: Vec<u32> = reinsert
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            extra.retain(|&v| {
                let d = dist.load(v as usize);
                d >= lo && d < hi
            });
            bucket.extend(extra);
            bucket.sort_unstable();
            bucket.dedup();
        }

        // Heavy-edge phase: one relaxation of the settled bucket.
        let metrics = sim.launch(bucket.len(), |tid, lane| {
            let v = bucket[tid] as usize;
            lane.load(frontier_addr(tid), 4);
            lane.load(row_ptr_addr(v), 8);
            lane.load(value_addr(v), 4);
            let d = dist.load(v);
            let node = NodeId::from_index(v);
            for e in g.edge_start(node)..g.edge_end(node) {
                lane.load(edge_addr(e), 8);
                let w = g.weight(e);
                if w < delta {
                    continue;
                }
                let nbr = g.edge_target(e).index();
                let cand = d.saturating_add(w);
                lane.compute(2);
                lane.load(value_addr(nbr), 4);
                if cand < dist.load(nbr) && dist.try_improve(nbr, cand, Combine::Min) {
                    lane.atomic(value_addr(nbr), 4);
                }
            }
        });
        report.push(bucket.len(), metrics);
        bucket_index += 1;
    }

    FrameworkRun {
        values: dist.snapshot(),
        report,
    }
}

/// ECL-CC-style connected components: *hooking* (every edge hooks the
/// higher representative under the lower) alternating with pointer-
/// jumping *shortcutting*, treating edges as undirected. Converges in
/// O(log n) rounds — the hardwired CC that beats general frameworks in
/// the paper's own citations.
pub fn hooking_cc(sim: &GpuSimulator, g: &Csr) -> FrameworkRun {
    let n = g.num_nodes();
    let parent = AtomicValues::from_values(0..n as u32);
    let mut report = SimReport::new();

    loop {
        // Hooking pass over edges.
        let changed = AtomicBool::new(false);
        let m = g.num_edges();
        let hook = sim.launch(m, |e, lane| {
            lane.load(edge_addr(e), 8);
            // Find both endpoints' representatives (bounded chase).
            let mut a = edge_src(g, e);
            let mut b = g.edge_target(e).raw();
            lane.load(value_addr(a as usize), 4);
            lane.load(value_addr(b as usize), 4);
            while parent.load(a as usize) != a {
                a = parent.load(a as usize);
                lane.load(value_addr(a as usize), 4);
            }
            while parent.load(b as usize) != b {
                b = parent.load(b as usize);
                lane.load(value_addr(b as usize), 4);
            }
            lane.compute(2);
            if a != b {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if parent.try_improve(hi as usize, lo, Combine::Min) {
                    lane.atomic(value_addr(hi as usize), 4);
                    changed.store(true, Ordering::Relaxed);
                }
            }
        });
        report.push(m, hook);

        // Shortcutting pass over nodes (pointer jumping).
        let shortcut = sim.launch(n, |v, lane| {
            lane.load(value_addr(v), 4);
            let p = parent.load(v);
            let gp = parent.load(p as usize);
            lane.load(value_addr(p as usize), 4);
            lane.compute(1);
            if gp != p {
                parent.try_improve(v, gp, Combine::Min);
                lane.store(value_addr(v), 4);
            }
        });
        report.push(n, shortcut);

        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }

    // Final flattening so every node points at its root.
    let values: Vec<u32> = (0..n)
        .map(|v| {
            let mut x = v as u32;
            while parent.load(x as usize) != x {
                x = parent.load(x as usize);
            }
            x
        })
        .collect();

    FrameworkRun { values, report }
}

/// Source of flat edge `e`: the last row starting at or before it
/// (binary search over `row_ptr`).
fn edge_src(g: &Csr, e: usize) -> u32 {
    (g.row_ptr().partition_point(|&start| start <= e) - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{connected_components, dijkstra};
    use tigr_sim::GpuConfig;

    fn fixture() -> Csr {
        with_uniform_weights(&rmat(&RmatConfig::graph500(8, 6), 101), 1, 50, 3)
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        let sim = GpuSimulator::new(GpuConfig::default());
        for delta in [0u32, 4, 16, 64, 1000] {
            let out = delta_stepping_sssp(&sim, &g, NodeId::new(0), delta);
            assert_eq!(out.values, expect, "delta={delta}");
        }
    }

    #[test]
    fn delta_stepping_on_disconnected_graph() {
        let g = tigr_graph::CsrBuilder::new(4)
            .weighted_edge(0, 1, 5)
            .build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = delta_stepping_sssp(&sim, &g, NodeId::new(0), 2);
        assert_eq!(out.values, vec![0, 5, INFINITE_WEIGHT, INFINITE_WEIGHT]);
    }

    #[test]
    fn hooking_cc_matches_union_find() {
        let mut b = tigr_graph::CsrBuilder::new(9);
        b.symmetric(true);
        b.edge(0, 1)
            .edge(1, 2)
            .edge(3, 4)
            .edge(5, 6)
            .edge(6, 7)
            .edge(7, 5);
        let g = b.build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = hooking_cc(&sim, &g);
        assert_eq!(out.values, connected_components(&g));
    }

    #[test]
    fn hooking_cc_handles_directed_edges_as_undirected() {
        // One-way edge still merges components, like the oracle.
        let g = tigr_graph::CsrBuilder::new(3).edge(2, 0).build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = hooking_cc(&sim, &g);
        assert_eq!(out.values, connected_components(&g));
    }

    #[test]
    fn hooking_cc_converges_in_logarithmic_rounds() {
        // A long path is the worst case for propagation-based CC
        // (O(n) iterations) but hooking + shortcutting needs O(log n).
        let n = 1024;
        let mut b = tigr_graph::CsrBuilder::new(n);
        b.symmetric(true);
        for i in 0..(n as u32 - 1) {
            b.edge(i, i + 1);
        }
        let g = b.build();
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = hooking_cc(&sim, &g);
        assert!(out.values.iter().all(|&l| l == 0));
        // Each round = 2 report entries (hook + shortcut).
        let rounds = out.report.num_iterations() / 2;
        assert!(rounds <= 24, "rounds = {rounds}");
    }
}
