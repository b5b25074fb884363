//! Graph partitioning utilities.
//!
//! The paper positions split transformations *against* the vertex
//! partitioning of distributed engines (§7.1): "vertex partitioning
//! requires to synchronize the partitioned vertices explicitly; more
//! critically, \[it\] often has to replicate both high-degree and
//! low-degree vertices (called mirroring)." This module implements the
//! two classic partitioning families so that the comparison is
//! executable: how many mirrors does a partitioning create where a
//! split transformation creates none?

use crate::csr::Csr;
use crate::edge::NodeId;

/// A partitioning of a graph's edges (or nodes) into `k` parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    /// Part id per *edge* (flat edge order).
    pub edge_part: Vec<u32>,
    /// Number of parts.
    pub num_parts: u32,
}

impl Partitioning {
    /// Number of edges in each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts as usize];
        for &p in &self.edge_part {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Load imbalance: largest part over the mean part size (1.0 =
    /// perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.edge_part.len() as f64 / self.num_parts.max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Replication factor of a vertex-cut partitioning (PowerGraph's
    /// metric): the average number of parts each node appears in — the
    /// "mirroring" cost §7.1 contrasts with split transformations.
    pub fn replication_factor(&self, g: &Csr) -> f64 {
        let n = g.num_nodes();
        if n == 0 {
            return 0.0;
        }
        // For each node, the set of parts among its incident edges.
        let mut parts_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut push = |v: usize, p: u32| {
            let list = &mut parts_of[v];
            if !list.contains(&p) {
                list.push(p);
            }
        };
        for (e, edge) in g.edges().enumerate() {
            let p = self.edge_part[e];
            push(edge.src.index(), p);
            push(edge.dst.index(), p);
        }
        let total: usize = parts_of.iter().map(|l| l.len().max(1)).sum();
        total as f64 / n as f64
    }
}

/// Edge-balanced *vertex cut* (PowerGraph-style greedy): edges are
/// assigned to the currently least-loaded part among those already
/// hosting either endpoint, falling back to the globally least-loaded
/// part. High-degree nodes end up replicated across many parts.
pub fn vertex_cut(g: &Csr, num_parts: u32) -> Partitioning {
    assert!(num_parts >= 1, "need at least one part");
    let k = num_parts as usize;
    let mut load = vec![0usize; k];
    // parts seen per node, small-vec style (most nodes touch few parts).
    let mut node_parts: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes()];
    let mut edge_part = Vec::with_capacity(g.num_edges());

    for (assigned, edge) in g.edges().enumerate() {
        let (s, d) = (edge.src.index(), edge.dst.index());
        // Candidate parts: intersection first, then union, then global —
        // but overriding locality when the candidate is overloaded, which
        // is what forces hub replication (the greedy's balance rule).
        let pick = {
            let sp = &node_parts[s];
            let dp = &node_parts[d];
            let inter: Vec<u32> = sp.iter().copied().filter(|p| dp.contains(p)).collect();
            let candidates: Vec<u32> = if !inter.is_empty() {
                inter
            } else if !sp.is_empty() || !dp.is_empty() {
                sp.iter().chain(dp.iter()).copied().collect()
            } else {
                (0..num_parts).collect()
            };
            let local = candidates
                .into_iter()
                .min_by_key(|&p| load[p as usize])
                .expect("candidates non-empty");
            let cap = assigned / k + k; // mean load plus slack
            if load[local as usize] > cap {
                (0..num_parts)
                    .min_by_key(|&p| load[p as usize])
                    .expect("at least one part")
            } else {
                local
            }
        };
        load[pick as usize] += 1;
        if !node_parts[s].contains(&pick) {
            node_parts[s].push(pick);
        }
        if !node_parts[d].contains(&pick) {
            node_parts[d].push(pick);
        }
        edge_part.push(pick);
    }

    Partitioning {
        edge_part,
        num_parts,
    }
}

/// Node-hash *edge cut*: every edge goes to the part of its source node
/// (`hash(src) % k`) — the Pregel-style 1D partitioning whose load
/// imbalance under power-law degrees motivated vertex cuts in the first
/// place.
pub fn edge_cut_by_source(g: &Csr, num_parts: u32) -> Partitioning {
    assert!(num_parts >= 1, "need at least one part");
    let part_of = |v: NodeId| (v.raw().wrapping_mul(2654435761) >> 8) % num_parts;
    Partitioning {
        edge_part: g.edges().map(|e| part_of(e.src)).collect(),
        num_parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, star_graph, RmatConfig};

    #[test]
    fn vertex_cut_balances_edges() {
        let g = rmat(&RmatConfig::graph500(10, 8), 11);
        let p = vertex_cut(&g, 8);
        assert_eq!(p.edge_part.len(), g.num_edges());
        assert!(p.imbalance() < 1.05, "imbalance {}", p.imbalance());
    }

    #[test]
    fn edge_cut_is_imbalanced_on_power_law_graphs() {
        // The 1D partitioning puts a hub's whole edge list in one part.
        let g = star_graph(10_000);
        let one_d = edge_cut_by_source(&g, 8);
        assert!(one_d.imbalance() > 4.0, "imbalance {}", one_d.imbalance());
        let cut = vertex_cut(&g, 8);
        assert!(cut.imbalance() < 1.1);
    }

    #[test]
    fn vertex_cut_replicates_hubs() {
        // The §7.1 contrast: a vertex cut mirrors the hub across all
        // parts; Tigr's (virtual) splitting replicates nothing.
        let g = star_graph(10_000);
        let p = vertex_cut(&g, 8);
        // Hub node 0 appears in every part.
        let hub_parts: std::collections::HashSet<u32> = g
            .edges()
            .enumerate()
            .filter(|(_, e)| e.src == NodeId::new(0))
            .map(|(i, _)| p.edge_part[i])
            .collect();
        assert_eq!(hub_parts.len(), 8);
        assert!(p.replication_factor(&g) > 1.0);
    }

    #[test]
    fn replication_factor_is_one_for_single_part() {
        let g = rmat(&RmatConfig::graph500(8, 4), 5);
        let p = vertex_cut(&g, 1);
        assert!((p.replication_factor(&g) - 1.0).abs() < 1e-12);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn part_sizes_sum_to_edge_count() {
        let g = rmat(&RmatConfig::graph500(9, 6), 7);
        for p in [vertex_cut(&g, 5), edge_cut_by_source(&g, 5)] {
            assert_eq!(p.part_sizes().iter().sum::<usize>(), g.num_edges());
        }
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let _ = vertex_cut(&star_graph(3), 0);
    }
}
