//! Analytic split-transformation properties (Table 1).
//!
//! For a high-degree node of degree `d` and bound `K`, these functions
//! evaluate the paper's closed-form cost columns. The unit tests — and
//! the `table1_properties` benchmark binary — check the formulas against
//! graphs actually produced by the transformations.

/// Closed-form properties of splitting one node of degree `d` with bound
/// `K` (one row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitProperties {
    /// Nodes the split adds.
    pub new_nodes: usize,
    /// Edges the split adds.
    pub new_edges: usize,
    /// Maximum out-degree within the resulting family.
    pub new_degree: usize,
    /// Maximum hops to propagate a value from the node holding the
    /// incoming edges to any original outgoing edge's source within the
    /// family.
    pub max_hops: usize,
}

fn b(d: usize, k: usize) -> usize {
    d.div_ceil(k)
}

/// Table 1 row `T_cliq`: `⌈d/K⌉−1` nodes, `(⌈d/K⌉−1)·⌈d/K⌉` edges, degree
/// `K+⌈d/K⌉−1`, 1 hop.
///
/// # Panics
///
/// Panics unless `d > k ≥ 1` (only high-degree nodes are split).
pub fn clique_properties(d: usize, k: usize) -> SplitProperties {
    check(d, k);
    let b = b(d, k);
    SplitProperties {
        new_nodes: b - 1,
        new_edges: (b - 1) * b,
        new_degree: k + b - 1,
        max_hops: 1,
    }
}

/// Table 1 row `T_circ`: `⌈d/K⌉−1` nodes, `⌈d/K⌉−1` ring edges to new
/// nodes (the paper's count; our construction also closes the ring with
/// one more edge back to the root), degree `K+1`, `⌈d/K⌉−1` hops.
///
/// # Panics
///
/// Panics unless `d > k ≥ 1`.
pub fn circular_properties(d: usize, k: usize) -> SplitProperties {
    check(d, k);
    let b = b(d, k);
    SplitProperties {
        new_nodes: b - 1,
        new_edges: b - 1,
        new_degree: k + 1,
        max_hops: b - 1,
    }
}

/// Table 1 row `T_star`: `⌈d/K⌉` boundary nodes, `⌈d/K⌉` hub edges,
/// degree `max(K+1, ⌈d/K⌉)` (the paper counts the hub's fan-out against
/// the family, plus one for the hub link), 1 hop.
///
/// # Panics
///
/// Panics unless `d > k ≥ 1`.
pub fn star_properties(d: usize, k: usize) -> SplitProperties {
    check(d, k);
    let b = b(d, k);
    SplitProperties {
        new_nodes: b,
        new_edges: b,
        new_degree: (k + 1).max(b),
        max_hops: 1,
    }
}

/// Properties of `T_udt` (§3.2): node/edge counts follow the queue
/// recurrence (each split node removes `K` entries and adds one), the
/// family degree is exactly `K`, and hops equal the uniform-degree tree
/// height `≈ ⌈log_K d⌉`.
///
/// # Panics
///
/// Panics unless `d > k ≥ 1` and `k ≥ 2` (a K=1 tree is a chain whose
/// height is `d`, handled separately by the implementation).
pub fn udt_properties(d: usize, k: usize) -> SplitProperties {
    check(d, k);
    assert!(k >= 2, "closed form requires K >= 2");
    // Queue recurrence: start with d entries; each new node nets -(K-1).
    let mut remaining = d;
    let mut new_nodes = 0usize;
    while remaining > k {
        remaining -= k - 1;
        new_nodes += 1;
    }
    // Tree height: the BFS distance from the root to the deepest
    // re-attached original edge. The FIFO construction yields height
    // ⌈log_K d⌉ up to one level of slack.
    let height = (d as f64).log(k as f64).ceil() as usize;
    SplitProperties {
        new_nodes,
        new_edges: new_nodes,
        new_degree: k,
        max_hops: height,
    }
}

fn check(d: usize, k: usize) {
    assert!(k >= 1, "degree bound must be at least 1");
    assert!(d > k, "only high-degree nodes (d > K) are split");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{circular_transform, clique_transform, star_transform, udt_transform, DumbWeight};
    use tigr_graph::generators::star_graph;
    use tigr_graph::properties::bfs_levels;
    use tigr_graph::NodeId;

    /// Measured (new_nodes, new_edges, family_degree, max_hops) from an
    /// actual transformation of a degree-`d` star hub.
    fn measure(
        transform: impl Fn(&tigr_graph::Csr, u32, DumbWeight) -> crate::TransformedGraph,
        d: usize,
        k: u32,
    ) -> SplitProperties {
        let g = star_graph(d + 1);
        let t = transform(&g, k, DumbWeight::Zero);
        let levels = bfs_levels(t.graph(), NodeId::new(0));
        // Hops within the family = (max level of an original target) - 1,
        // because the final hop leaves the family along an original edge.
        let max_target_level = (1..=d).map(|v| levels[v]).max().unwrap();
        SplitProperties {
            new_nodes: t.num_split_nodes(),
            new_edges: t.num_new_edges(),
            new_degree: t.graph().max_out_degree(),
            max_hops: max_target_level - 1,
        }
    }

    #[test]
    fn clique_formula_matches_construction() {
        for (d, k) in [(40usize, 10u32), (99, 10), (12, 5)] {
            let expect = clique_properties(d, k as usize);
            let got = measure(clique_transform, d, k);
            assert_eq!(got.new_nodes, expect.new_nodes, "d={d} k={k}");
            assert_eq!(got.new_edges, expect.new_edges, "d={d} k={k}");
            assert_eq!(got.new_degree, expect.new_degree, "d={d} k={k}");
            assert_eq!(got.max_hops, expect.max_hops, "d={d} k={k}");
        }
    }

    #[test]
    fn circular_formula_matches_construction() {
        for (d, k) in [(40usize, 10u32), (99, 10), (12, 5)] {
            let expect = circular_properties(d, k as usize);
            let got = measure(circular_transform, d, k);
            assert_eq!(got.new_nodes, expect.new_nodes, "d={d} k={k}");
            // Our ring closes back to the root: one extra edge vs. paper.
            assert_eq!(got.new_edges, expect.new_edges + 1, "d={d} k={k}");
            assert_eq!(got.new_degree, expect.new_degree, "d={d} k={k}");
            assert_eq!(got.max_hops, expect.max_hops, "d={d} k={k}");
        }
    }

    #[test]
    fn star_formula_matches_construction() {
        for (d, k) in [(40usize, 10u32), (99, 10), (12, 5)] {
            let expect = star_properties(d, k as usize);
            let got = measure(star_transform, d, k);
            assert_eq!(got.new_nodes, expect.new_nodes, "d={d} k={k}");
            assert_eq!(got.new_edges, expect.new_edges, "d={d} k={k}");
            // Family degree: hub fan-out ⌈d/K⌉ vs boundary K.
            assert_eq!(
                got.new_degree,
                (d.div_ceil(k as usize)).max(k as usize),
                "d={d} k={k}"
            );
            assert_eq!(got.max_hops, expect.max_hops, "d={d} k={k}");
        }
    }

    #[test]
    fn udt_formula_matches_construction() {
        for (d, k) in [(40usize, 10u32), (99, 10), (1000, 10), (12, 5)] {
            let expect = udt_properties(d, k as usize);
            let got = measure(udt_transform, d, k);
            assert_eq!(got.new_nodes, expect.new_nodes, "d={d} k={k}");
            assert_eq!(got.new_edges, expect.new_edges, "d={d} k={k}");
            assert_eq!(got.new_degree, expect.new_degree, "d={d} k={k}");
            assert!(
                got.max_hops <= expect.max_hops + 1 && got.max_hops + 1 >= expect.max_hops,
                "d={d} k={k}: got {} expected ≈{}",
                got.max_hops,
                expect.max_hops
            );
        }
    }

    #[test]
    fn table1_tradeoff_ordering_holds() {
        // The qualitative Table 1 story at d=1000, K=10.
        let (d, k) = (1000, 10);
        let cliq = clique_properties(d, k);
        let circ = circular_properties(d, k);
        let star = star_properties(d, k);
        let udt = udt_properties(d, k);
        // Space: clique is worst.
        assert!(cliq.new_edges > circ.new_edges * 10);
        assert!(cliq.new_edges > star.new_edges * 10);
        // Irregularity: circ and udt have the tightest degree bound.
        assert!(circ.new_degree <= k + 1);
        assert_eq!(udt.new_degree, k);
        assert!(cliq.new_degree > 10 * udt.new_degree);
        // Propagation: circ is slowest; udt is logarithmic.
        assert!(circ.max_hops > 50);
        assert!(udt.max_hops <= 3);
        assert_eq!(cliq.max_hops, 1);
        assert_eq!(star.max_hops, 1);
    }

    #[test]
    #[should_panic(expected = "only high-degree nodes")]
    fn low_degree_input_rejected() {
        let _ = clique_properties(5, 10);
    }
}
