//! Graph transposition for pull-based processing.
//!
//! The pull-based scheme (§2.1, §3.1 footnote 3) propagates values along
//! *incoming* edges, so the engine needs the transpose of the push CSR.

use crate::chunked;
use crate::csr::Csr;
use crate::edge::NodeId;

/// Returns the transpose of `g`: an edge `u → v` (weight `w`) becomes
/// `v → u` (weight `w`).
///
/// The transpose preserves weights, and each node's in-neighbors appear
/// sorted by source, giving deterministic memory traces.
///
/// # Example
///
/// ```
/// use tigr_graph::{CsrBuilder, NodeId, reverse::transpose};
///
/// let g = CsrBuilder::new(3).edge(0, 2).edge(1, 2).build();
/// let t = transpose(&g);
/// assert_eq!(t.neighbors(NodeId::new(2)), &[NodeId::new(0), NodeId::new(1)]);
/// ```
pub fn transpose(g: &Csr) -> Csr {
    transpose_chunked(g, chunked::edge_chunks(g.num_edges()))
}

/// [`transpose`] over at most `chunks` destination ranges holding about
/// as many in-edges each. Every range's rows are filled by one job (the
/// first on the calling thread) that scans all edges in source order
/// and keeps those landing in its range, so each in-neighbor list comes
/// out sorted by source — the same bytes at any chunk count.
pub(crate) fn transpose_chunked(g: &Csr, chunks: usize) -> Csr {
    let n = g.num_nodes();
    let m = g.num_edges();

    // Counting sort by destination: O(|V| + |E|).
    let mut row_ptr = vec![0usize; n + 1];
    for dst in g.col_idx() {
        row_ptr[dst.index() + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }

    let mut cursor = row_ptr[..n].to_vec();
    let mut col_idx = vec![NodeId::default(); m];
    let mut weights = g.is_weighted().then(|| vec![0u32; m]);

    let rows = chunked::row_bounds(&row_ptr, chunks);
    let edges: Vec<usize> = rows.iter().map(|&v| row_ptr[v]).collect();
    let weight_pieces: Vec<Option<&mut [u32]>> = match &mut weights {
        Some(w) => chunked::split_at_bounds(w, &edges)
            .into_iter()
            .map(Some)
            .collect(),
        None => (1..rows.len()).map(|_| None).collect(),
    };
    let jobs: Vec<_> = rows
        .iter()
        .zip(&edges)
        .zip(chunked::split_at_bounds(&mut cursor, &rows))
        .zip(chunked::split_at_bounds(&mut col_idx, &edges))
        .zip(weight_pieces)
        .map(|((((&lo, &base), cursor), cols), weights)| (lo, base, cursor, cols, weights))
        .collect();
    chunked::run(jobs, |(lo, base, cursor, cols, mut weights)| {
        let (sources, targets, edge_weights) = (g.row_ptr(), g.col_idx(), g.weights());
        for (src, row) in sources.windows(2).enumerate() {
            for e in row[0]..row[1] {
                let d = targets[e].index().wrapping_sub(lo);
                if d < cursor.len() {
                    let slot = cursor[d] - base;
                    cursor[d] += 1;
                    cols[slot] = NodeId::new(src as u32);
                    if let (Some(w), Some(from)) = (weights.as_deref_mut(), edge_weights) {
                        w[slot] = from[e];
                    }
                }
            }
        }
    });

    Csr::from_parts(row_ptr, col_idx, weights)
}

/// Per-node incoming degrees of `g` — `O(|E|)`, without materializing the
/// transpose.
pub fn in_degrees(g: &Csr) -> Vec<usize> {
    let mut deg = vec![0usize; g.num_nodes()];
    for e in 0..g.num_edges() {
        deg[g.edge_target(e).index()] += 1;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    #[test]
    fn transpose_reverses_edges_and_weights() {
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 5)
            .weighted_edge(0, 2, 7)
            .weighted_edge(2, 1, 9)
            .build();
        let t = transpose(&g);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(
            t.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(t.neighbor_weights(NodeId::new(1)).unwrap(), &[5, 9]);
        assert_eq!(t.neighbors(NodeId::new(0)), &[] as &[NodeId]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let g = CsrBuilder::new(5)
            .weighted_edge(0, 3, 1)
            .weighted_edge(3, 4, 2)
            .weighted_edge(4, 0, 3)
            .weighted_edge(1, 1, 4)
            .build();
        let tt = transpose(&transpose(&g));
        assert_eq!(tt, g);
    }

    #[test]
    fn in_degrees_match_transpose_out_degrees() {
        let g = CsrBuilder::new(4)
            .edge(0, 3)
            .edge(1, 3)
            .edge(2, 3)
            .edge(3, 0)
            .build();
        let deg = in_degrees(&g);
        let t = transpose(&g);
        for v in g.nodes() {
            assert_eq!(deg[v.index()], t.out_degree(v));
        }
    }

    #[test]
    fn transpose_of_empty_graph() {
        let g = CsrBuilder::new(0).build();
        let t = transpose(&g);
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_edges(), 0);
    }

    /// The transpose the plain way: every edge reversed, stably sorted
    /// by its new source.
    fn reference_transpose(g: &Csr) -> Csr {
        let mut reversed: Vec<(NodeId, NodeId, u32)> = g
            .nodes()
            .flat_map(|src| (g.edge_start(src)..g.edge_end(src)).map(move |e| (src, e)))
            .map(|(src, e)| (g.edge_target(e), src, g.weight(e)))
            .collect();
        reversed.sort_by_key(|&(dst, _, _)| dst);
        let mut row_ptr = vec![0usize; g.num_nodes() + 1];
        for &(dst, _, _) in &reversed {
            row_ptr[dst.index() + 1] += 1;
        }
        for i in 0..g.num_nodes() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = reversed.iter().map(|&(_, src, _)| src).collect();
        let weights = g
            .is_weighted()
            .then(|| reversed.iter().map(|&(_, _, w)| w).collect());
        Csr::from_parts(row_ptr, col_idx, weights)
    }

    #[test]
    fn chunk_count_never_changes_the_transpose() {
        let rmat = crate::generators::rmat(&crate::generators::RmatConfig::graph500(10, 8), 3);
        let weighted = crate::generators::with_uniform_weights(&rmat, 1, 64, 5);
        let star = crate::generators::star_graph(300);
        let empty = CsrBuilder::new(0).build();
        let isolated = CsrBuilder::new(6).edge(4, 1).build();
        for g in [&rmat, &weighted, &star, &empty, &isolated] {
            let want = reference_transpose(g);
            for chunks in [1, 2, 3, 7] {
                assert_eq!(transpose_chunked(g, chunks), want, "{chunks} chunks");
            }
            assert_eq!(transpose(g), want);
        }
    }

    #[test]
    fn transpose_unweighted_stays_unweighted() {
        let g = CsrBuilder::new(2).edge(0, 1).build();
        assert!(!transpose(&g).is_weighted());
    }
}
