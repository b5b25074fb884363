//! Incremental CSR construction.

use crate::csr::Csr;
use crate::edge::{Edge, NodeId, Weight};
use crate::error::GraphError;
use crate::Result;

/// Builder assembling a [`Csr`] from an edge stream.
///
/// The builder follows the non-consuming builder pattern: configuration
/// methods return `&mut Self`, and [`CsrBuilder::build`] consumes nothing,
/// so a builder can be reused or extended after building.
///
/// # Example
///
/// ```
/// use tigr_graph::CsrBuilder;
///
/// // An undirected, deduplicated star around node 0.
/// let g = CsrBuilder::new(4)
///     .symmetric(true)
///     .dedup(true)
///     .edge(0, 1)
///     .edge(0, 1) // duplicate, removed
///     .edge(0, 2)
///     .edge(0, 3)
///     .build();
/// assert_eq!(g.num_edges(), 6); // 3 undirected edges = 6 arcs
/// ```
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    num_nodes: usize,
    edges: Vec<Edge>,
    weighted: bool,
    symmetric: bool,
    dedup: bool,
    sort_neighbors: bool,
}

impl CsrBuilder {
    /// Creates a builder for a graph over nodes `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        CsrBuilder {
            num_nodes,
            edges: Vec::new(),
            weighted: false,
            symmetric: false,
            dedup: false,
            sort_neighbors: true,
        }
    }

    /// Pre-allocates capacity for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// When `true`, every added edge also adds its reverse
    /// (undirected-graph emulation; the paper treats undirected graphs as
    /// directed graphs with both directions, §2.1).
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// When `true`, parallel edges (same source, destination, and weight
    /// rank) are collapsed, keeping the smallest weight.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// When `true` (default), each node's neighbor list is sorted by
    /// destination. Deterministic layouts make the simulator's memory
    /// traces reproducible.
    pub fn sort_neighbors(&mut self, yes: bool) -> &mut Self {
        self.sort_neighbors = yes;
        self
    }

    /// Adds an unweighted edge `src → dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn edge(&mut self, src: u32, dst: u32) -> &mut Self {
        self.push(Edge::unweighted(NodeId::new(src), NodeId::new(dst)));
        self
    }

    /// Adds a weighted edge `src → dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn weighted_edge(&mut self, src: u32, dst: u32, weight: Weight) -> &mut Self {
        self.weighted = true;
        self.push(Edge::new(NodeId::new(src), NodeId::new(dst), weight));
        self
    }

    /// Adds a pre-built [`Edge`]. Marks the graph weighted if the edge
    /// weight differs from `1`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add(&mut self, e: Edge) -> &mut Self {
        if e.weight != 1 {
            self.weighted = true;
        }
        self.push(e);
        self
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = Edge>) -> &mut Self {
        for e in edges {
            self.add(e);
        }
        self
    }

    /// Forces the output to carry a weight array even if all weights are 1.
    pub fn force_weighted(&mut self, yes: bool) -> &mut Self {
        self.weighted = yes;
        self
    }

    fn push(&mut self, e: Edge) {
        assert!(
            e.src.index() < self.num_nodes && e.dst.index() < self.num_nodes,
            "edge {e} out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push(e);
        if self.symmetric {
            self.edges.push(e.reversed());
        }
    }

    /// Validates an edge without panicking; used by loaders.
    pub fn try_add(&mut self, e: Edge) -> Result<&mut Self> {
        if e.src.index() >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: e.src.raw() as u64,
                num_nodes: self.num_nodes,
            });
        }
        if e.dst.index() >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: e.dst.raw() as u64,
                num_nodes: self.num_nodes,
            });
        }
        Ok(self.add(e))
    }

    /// Builds the CSR. The builder remains usable afterwards.
    pub fn build(&self) -> Csr {
        let mut edges = self.edges.clone();
        if self.sort_neighbors || self.dedup {
            edges.sort_unstable_by_key(|e| (e.src, e.dst, e.weight));
        } else {
            // CSR requires grouping by source regardless; use a stable sort
            // to preserve user-specified neighbor order.
            edges.sort_by_key(|e| e.src);
        }
        if self.dedup {
            edges.dedup_by_key(|e| (e.src, e.dst));
        }

        let mut row_ptr = vec![0usize; self.num_nodes + 1];
        for e in &edges {
            row_ptr[e.src.index() + 1] += 1;
        }
        for i in 0..self.num_nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<NodeId> = edges.iter().map(|e| e.dst).collect();
        let weights = if self.weighted {
            Some(edges.iter().map(|e| e.weight).collect())
        } else {
            None
        };
        Csr::from_parts(row_ptr, col_idx, weights)
    }

    /// Builds from a complete edge list in one call.
    ///
    /// # Example
    ///
    /// ```
    /// use tigr_graph::{CsrBuilder, Edge, NodeId};
    ///
    /// let edges = vec![Edge::unweighted(NodeId::new(0), NodeId::new(1))];
    /// let g = CsrBuilder::from_edges(2, edges).build();
    /// assert_eq!(g.num_edges(), 1);
    /// ```
    pub fn from_edges(num_nodes: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut b = CsrBuilder::new(num_nodes);
        b.extend_edges(edges);
        b
    }
}

impl Extend<Edge> for CsrBuilder {
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        self.extend_edges(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_neighbor_lists() {
        let g = CsrBuilder::new(3).edge(0, 2).edge(0, 1).build();
        assert_eq!(
            g.neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn unsorted_preserves_insertion_order() {
        let mut b = CsrBuilder::new(3);
        b.sort_neighbors(false).edge(0, 2).edge(0, 1);
        let g = b.build();
        assert_eq!(
            g.neighbors(NodeId::new(0)),
            &[NodeId::new(2), NodeId::new(1)]
        );
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = CsrBuilder::new(2);
        b.dedup(true).edge(0, 1).edge(0, 1).edge(0, 1);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn dedup_keeps_minimum_weight() {
        let mut b = CsrBuilder::new(2);
        b.dedup(true)
            .weighted_edge(0, 1, 9)
            .weighted_edge(0, 1, 3)
            .weighted_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0), 3);
    }

    #[test]
    fn symmetric_adds_reverse_arcs() {
        let mut b = CsrBuilder::new(3);
        b.symmetric(true).edge(0, 1).edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(NodeId::new(2)), &[NodeId::new(1)]);
    }

    #[test]
    fn weighted_flag_tracks_explicit_weights() {
        assert!(!CsrBuilder::new(2).edge(0, 1).build().is_weighted());
        assert!(CsrBuilder::new(2)
            .weighted_edge(0, 1, 2)
            .build()
            .is_weighted());
        let mut b = CsrBuilder::new(2);
        b.force_weighted(true).edge(0, 1);
        assert!(b.build().is_weighted());
    }

    #[test]
    fn try_add_reports_out_of_range() {
        let mut b = CsrBuilder::new(2);
        let err = b
            .try_add(Edge::unweighted(NodeId::new(0), NodeId::new(5)))
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_panics_out_of_range() {
        CsrBuilder::new(1).edge(0, 1);
    }

    #[test]
    fn builder_is_reusable_after_build() {
        let mut b = CsrBuilder::new(3);
        b.edge(0, 1);
        let g1 = b.build();
        b.edge(1, 2);
        let g2 = b.build();
        assert_eq!(g1.num_edges(), 1);
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn extend_trait_works() {
        let mut b = CsrBuilder::new(2);
        b.extend(vec![Edge::unweighted(NodeId::new(0), NodeId::new(1))]);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn from_edges_one_shot() {
        let g = CsrBuilder::from_edges(
            3,
            vec![
                Edge::unweighted(NodeId::new(0), NodeId::new(1)),
                Edge::unweighted(NodeId::new(2), NodeId::new(0)),
            ],
        )
        .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_are_allowed() {
        let g = CsrBuilder::new(1).edge(0, 0).build();
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(0)]);
    }
}
