//! Barabási–Albert preferential-attachment generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::CsrBuilder;
use crate::csr::Csr;

/// Parameters for the Barabási–Albert preferential-attachment model.
///
/// Every arriving node attaches `edges_per_node` edges to existing nodes
/// with probability proportional to their current degree, yielding a
/// power-law degree distribution with exponent ≈ 3 — the mechanism behind
/// the "rich get richer" hubs in real social graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarabasiAlbertConfig {
    /// Total number of nodes.
    pub num_nodes: usize,
    /// Edges attached by each arriving node.
    pub edges_per_node: usize,
    /// When `true`, each attachment also adds the reverse arc, making the
    /// output effectively undirected (as social friendship graphs are).
    pub symmetric: bool,
}

/// Generates a Barabási–Albert graph. Deterministic per `(config, seed)`.
///
/// Attachment sampling uses the classic "repeated endpoints" trick: pick a
/// uniformly random endpoint of an already-placed edge, which is exactly
/// degree-proportional sampling.
///
/// # Panics
///
/// Panics if `edges_per_node == 0` or `num_nodes < 2`.
///
/// # Example
///
/// ```
/// use tigr_graph::generators::{barabasi_albert, BarabasiAlbertConfig};
///
/// let g = barabasi_albert(
///     &BarabasiAlbertConfig { num_nodes: 500, edges_per_node: 3, symmetric: false },
///     7,
/// );
/// assert_eq!(g.num_nodes(), 500);
/// assert!(g.max_out_degree() >= 3);
/// ```
pub fn barabasi_albert(config: &BarabasiAlbertConfig, seed: u64) -> Csr {
    assert!(config.edges_per_node > 0, "edges_per_node must be positive");
    assert!(config.num_nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_nodes;
    let m = config.edges_per_node;

    // `endpoints` holds every endpoint of every placed edge; sampling a
    // uniform element is degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut b = CsrBuilder::new(n).with_edge_capacity(n * m * if config.symmetric { 2 } else { 1 });
    b.symmetric(config.symmetric);

    // Seed with a single edge 0 -> 1.
    b.edge(0, 1);
    endpoints.push(0);
    endpoints.push(1);

    for v in 2..n as u32 {
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        let attempts = m.min(v as usize);
        while chosen.len() < attempts {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_stats, power_law_alpha};
    use crate::NodeId;

    fn cfg(n: usize, m: usize) -> BarabasiAlbertConfig {
        BarabasiAlbertConfig {
            num_nodes: n,
            edges_per_node: m,
            symmetric: false,
        }
    }

    #[test]
    fn node_and_edge_counts() {
        let g = barabasi_albert(&cfg(100, 2), 1);
        assert_eq!(g.num_nodes(), 100);
        // 1 seed edge + 2 per node for nodes 2.. (node 2 can only attach 2 distinct).
        assert_eq!(g.num_edges(), 1 + 98 * 2);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            barabasi_albert(&cfg(200, 3), 4),
            barabasi_albert(&cfg(200, 3), 4)
        );
        assert_ne!(
            barabasi_albert(&cfg(200, 3), 4),
            barabasi_albert(&cfg(200, 3), 5)
        );
    }

    #[test]
    fn early_nodes_become_hubs() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 2000,
                edges_per_node: 2,
                symmetric: true,
            },
            11,
        );
        let deg0 = g.out_degree(NodeId::new(0)) + g.out_degree(NodeId::new(1));
        let avg = g.avg_out_degree();
        assert!(
            deg0 as f64 > 5.0 * avg,
            "seed nodes should be hubs: deg {deg0} vs avg {avg}"
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 3000,
                edges_per_node: 3,
                symmetric: true,
            },
            13,
        );
        let s = degree_stats(&g);
        assert!(s.coefficient_of_variation > 0.5);
        let alpha = power_law_alpha(&g, 6).expect("tail exists");
        assert!(
            (2.0..4.5).contains(&alpha),
            "BA exponent should be near 3, got {alpha}"
        );
    }

    #[test]
    fn symmetric_doubles_arcs() {
        let directed = barabasi_albert(&cfg(50, 2), 2);
        let undirected = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 50,
                edges_per_node: 2,
                symmetric: true,
            },
            2,
        );
        assert_eq!(undirected.num_edges(), 2 * directed.num_edges());
    }

    #[test]
    #[should_panic(expected = "edges_per_node must be positive")]
    fn zero_attachment_panics() {
        let _ = barabasi_albert(&cfg(10, 0), 0);
    }
}
