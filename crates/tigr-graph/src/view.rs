//! Row access over "some graph shape".
//!
//! The host push driver needs exactly one thing from a graph: the
//! out-adjacency of a node as contiguous slices. [`RowView`] names that,
//! so the driver is written once and monomorphised per implementor — a
//! plain [`Csr`], where a row is a range of `col_idx`/weights, or the
//! mutation layer's base+delta view, where a patched row is a frozen
//! slice and every other row is the base's. Nothing here is called
//! through `dyn`: the per-row and per-edge paths inline.

use crate::csr::Csr;
use crate::edge::{NodeId, Weight};

/// Read-only out-adjacency access, one contiguous row at a time.
pub trait RowView {
    /// Number of nodes (row targets are `< num_nodes()`).
    fn num_nodes(&self) -> usize;

    /// Out-neighbors of `u` and the weights parallel to them (`None`
    /// means every edge weighs 1, matching [`Csr::weight`]).
    fn row(&self, u: NodeId) -> (&[NodeId], Option<&[Weight]>);

    /// Outgoing degree of `u` as seen through this view.
    fn out_degree(&self, u: NodeId) -> usize {
        self.row(u).0.len()
    }
}

impl RowView for Csr {
    fn num_nodes(&self) -> usize {
        Csr::num_nodes(self)
    }

    #[inline]
    fn row(&self, u: NodeId) -> (&[NodeId], Option<&[Weight]>) {
        let span = self.edge_start(u)..self.edge_end(u);
        (
            &self.col_idx()[span.clone()],
            self.weights().map(|w| &w[span]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CsrBuilder;

    #[test]
    fn csr_rows_match_direct_access() {
        let g = CsrBuilder::new(4)
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(3, 0, 9)
            .build();
        assert_eq!(RowView::num_nodes(&g), 4);
        for u in g.nodes() {
            assert_eq!(g.row(u), (g.neighbors(u), g.neighbor_weights(u)));
            assert_eq!(RowView::out_degree(&g, u), g.out_degree(u));
        }
        assert_eq!(g.row(NodeId::new(2)), (&[][..], Some(&[][..])));
    }

    #[test]
    fn unweighted_rows_carry_no_weight_slice() {
        let g = CsrBuilder::new(3).edge(0, 1).edge(1, 2).build();
        assert_eq!(g.row(NodeId::new(0)), (&[NodeId::new(1)][..], None));
    }
}
