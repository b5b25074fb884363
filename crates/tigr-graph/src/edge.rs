//! Core identifier and edge types shared across the workspace.

use std::fmt;

/// Edge weight type used by the weighted analytics (SSSP, SSWP).
///
/// Weights are unsigned integers so that the engine can propagate them with
/// single hardware `atomicMin`/`atomicMax` operations, exactly like the
/// paper's CUDA kernels (Algorithm 2, line 9). Unweighted analytics (BFS,
/// CC, PR) treat every edge as weight `1`.
pub type Weight = u32;

/// A weight larger than any real path length: the "dumb weight" of
/// Corollary 3 and the initial distance value (`dist = ∞`) of Figure 2.
///
/// The value is `u32::MAX`, which is also an *absorbing* value for the
/// saturating additions used by the engine, so `∞ + w = ∞` holds.
pub const INFINITE_WEIGHT: Weight = u32::MAX;

/// Identifier of a node (vertex) in a graph.
///
/// The paper's graphs reach 59M nodes, so a `u32` index is sufficient while
/// keeping CSR arrays compact — identical to the layout the original CUDA
/// implementation uses. `NodeId` is `#[repr(transparent)]`, so slices of
/// `NodeId` have the same layout as slices of `u32`.
///
/// # Example
///
/// ```
/// use tigr_graph::NodeId;
///
/// let v = NodeId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(v.raw(), 7u32);
/// assert_eq!(format!("{v}"), "7");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw `u32` index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Creates a node identifier from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }

    /// Returns the identifier as a `usize`, suitable for slice indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// A directed, weighted edge `src → dst` used during graph construction.
///
/// Inside [`crate::Csr`] edges are stored column-compressed; `Edge` is the
/// exploded form produced by loaders and generators.
///
/// # Example
///
/// ```
/// use tigr_graph::{Edge, NodeId};
///
/// let e = Edge::new(NodeId::new(0), NodeId::new(1), 5);
/// assert_eq!(e.reversed().src, NodeId::new(1));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Edge weight (`1` for unweighted graphs).
    pub weight: Weight,
}

impl Edge {
    /// Creates a weighted edge.
    pub const fn new(src: NodeId, dst: NodeId, weight: Weight) -> Self {
        Edge { src, dst, weight }
    }

    /// Creates an unweighted edge (weight `1`).
    pub const fn unweighted(src: NodeId, dst: NodeId) -> Self {
        Edge::new(src, dst, 1)
    }

    /// Returns the same edge with endpoints swapped.
    pub const fn reversed(self) -> Self {
        Edge::new(self.dst, self.src, self.weight)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} (w={})", self.src, self.dst, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(NodeId::from(42u32), v);
        assert_eq!(u32::from(v), 42);
        assert_eq!(NodeId::from_index(42), v);
    }

    #[test]
    fn node_id_ordering_matches_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32 range")]
    fn node_id_from_oversized_index_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn edge_reversal_swaps_endpoints_and_keeps_weight() {
        let e = Edge::new(NodeId::new(3), NodeId::new(9), 17);
        let r = e.reversed();
        assert_eq!(r.src, NodeId::new(9));
        assert_eq!(r.dst, NodeId::new(3));
        assert_eq!(r.weight, 17);
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn unweighted_edge_has_weight_one() {
        assert_eq!(Edge::unweighted(NodeId::new(0), NodeId::new(1)).weight, 1);
    }

    #[test]
    fn infinite_weight_is_absorbing_under_saturating_add() {
        assert_eq!(INFINITE_WEIGHT.saturating_add(123), INFINITE_WEIGHT);
    }

    #[test]
    fn display_formats() {
        let e = Edge::new(NodeId::new(1), NodeId::new(2), 3);
        assert_eq!(e.to_string(), "1 -> 2 (w=3)");
    }

    #[test]
    fn node_id_layout_is_transparent() {
        // Guarantees the CSR can expose `&[NodeId]` views over raw u32 data.
        assert_eq!(std::mem::size_of::<NodeId>(), std::mem::size_of::<u32>());
        assert_eq!(std::mem::align_of::<NodeId>(), std::mem::align_of::<u32>());
    }
}
