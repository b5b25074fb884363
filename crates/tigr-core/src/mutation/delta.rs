//! The in-memory delta overlay: per-node adjacency patches over an
//! immutable base CSR.
//!
//! The overlay never copies the base. Added edges live in small
//! per-source vectors, removed base edges are a set of flat edge
//! indices, and weight changes are an index-keyed override map, so the
//! memory cost is proportional to the *delta*, not the graph. Those
//! hash structures are the **write side**: [`DeltaOverlay::install`]
//! (behind [`DeltaOverlay::apply`]) and its helpers are the only code that
//! probes them per edge.
//!
//! Readers get the merged adjacency two ways. [`DeltaOverlay::freeze`]
//! builds the **read side** once per snapshot: [`PatchedRows`], a bitmap
//! of the rows the delta touches plus each such row's whole effective
//! adjacency, sorted by `(dst, weight)`. [`OverlayView`] pairs it with
//! the base as a [`RowView`] — an untouched row costs one bit test and
//! is the base's own slice, a patched row is a frozen slice — so the
//! host push driver runs over base+delta exactly as it runs over a CSR.
//! [`OverlayView::merged_csr`] materializes that view into a standalone
//! CSR by walking its rows — byte-identical to building the merged edge
//! list from scratch through `CsrBuilder`, which is what makes
//! compaction's differential guarantee hold: the builder's canonical
//! order is `(src, dst, weight)`, a walk over rows `0..n` is already
//! `src` order, frozen rows are sorted by `(dst, weight)`, and a base row
//! that is not (weights assigned by position to parallel edges) is
//! sorted on its own. Equal keys are equal edges, so any sort yields the
//! same bytes.

use std::collections::{HashMap, HashSet};

use tigr_graph::{Csr, Edge, NodeId, RowView, Weight};

use super::{MutationError, MutationOp};

/// An in-memory patch over an immutable base [`Csr`].
#[derive(Clone, Debug)]
pub struct DeltaOverlay {
    base_nodes: usize,
    extra_nodes: usize,
    weighted: bool,
    /// Added edges per source, each list sorted by `(dst, weight)`.
    added: HashMap<u32, Vec<(u32, Weight)>>,
    /// Flat base edge indices hidden by `RemoveEdge`.
    removed: HashSet<u64>,
    /// Flat base edge index → overridden weight (weighted bases only).
    overrides: HashMap<u64, Weight>,
    added_edges: usize,
    removed_edges: usize,
}

impl DeltaOverlay {
    /// An empty overlay for `base`.
    pub fn new(base: &Csr) -> Self {
        DeltaOverlay {
            base_nodes: base.num_nodes(),
            extra_nodes: 0,
            weighted: base.is_weighted(),
            added: HashMap::new(),
            removed: HashSet::new(),
            overrides: HashMap::new(),
            added_edges: 0,
            removed_edges: 0,
        }
    }

    /// `true` when the overlay changes nothing about the base.
    pub fn is_empty(&self) -> bool {
        self.added_edges == 0
            && self.removed_edges == 0
            && self.overrides.is_empty()
            && self.extra_nodes == 0
    }

    /// Size of the delta: added + removed edges + weight overrides (the
    /// compaction-pressure metric surfaced as `delta_edges` in stats).
    pub fn delta_edges(&self) -> usize {
        self.added_edges + self.removed_edges + self.overrides.len()
    }

    /// Nodes visible through the overlay (base nodes + grown nodes).
    pub fn num_nodes(&self) -> usize {
        self.base_nodes + self.extra_nodes
    }

    /// Edges visible through the overlay.
    pub fn num_edges(&self, base: &Csr) -> usize {
        base.num_edges() - self.removed_edges + self.added_edges
    }

    /// Applies one mutation. `Ok(true)` means the op changed the graph;
    /// `Ok(false)` means it was a well-formed no-op (duplicate add,
    /// remove of an absent edge, ...) — the distinction `ingest` reports
    /// as applied vs skipped. [`DeltaOverlay::validate`] then
    /// [`DeltaOverlay::install`].
    ///
    /// # Errors
    ///
    /// [`MutationError::Invalid`] for out-of-range endpoints or weighted
    /// ops on unweighted graphs; the overlay is unchanged on error.
    pub fn apply(&mut self, base: &Csr, op: MutationOp) -> Result<bool, MutationError> {
        self.validate(&[op])?;
        Ok(self.install(base, op))
    }

    /// Checks a batch without changing the overlay: `Ok` exactly when
    /// applying the ops in order would succeed for every one of them.
    /// Whether an op is well-formed depends on the overlay only through
    /// its node count, which an `AddNode` earlier in the batch grows, so
    /// that growth is all this tracks.
    ///
    /// # Errors
    ///
    /// See [`DeltaOverlay::apply`]: the first malformed op's error.
    pub fn validate(&self, ops: &[MutationOp]) -> Result<(), MutationError> {
        let mut nodes = self.num_nodes();
        for &op in ops {
            match op {
                MutationOp::AddEdge { u, v, w } => {
                    check_endpoints(nodes, u, v)?;
                    if !self.weighted && w != 1 {
                        return Err(MutationError::Invalid(format!(
                            "edge weight {w} on an unweighted graph (only 1 is allowed)"
                        )));
                    }
                }
                MutationOp::RemoveEdge { u, v } => check_endpoints(nodes, u, v)?,
                MutationOp::AddNode { nodes: to } => nodes = nodes.max(to as usize),
                MutationOp::SetWeight { u, v, .. } => {
                    check_endpoints(nodes, u, v)?;
                    if !self.weighted {
                        return Err(MutationError::Invalid(
                            "set-weight on an unweighted graph".into(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Installs one op that [`DeltaOverlay::validate`] accepted (as part
    /// of a batch whose earlier ops are installed first); returns whether
    /// it changed the graph.
    pub fn install(&mut self, base: &Csr, op: MutationOp) -> bool {
        debug_assert_eq!(base.num_nodes(), self.base_nodes);
        match op {
            MutationOp::AddEdge { u, v, w } => {
                if self.edge_visible(base, u, v) {
                    return false;
                }
                let list = self.added.entry(u).or_default();
                let pos = list.partition_point(|&(d, dw)| (d, dw) <= (v, w));
                list.insert(pos, (v, w));
                self.added_edges += 1;
                true
            }
            MutationOp::RemoveEdge { u, v } => {
                if let Some(e) = self.visible_base_edge(base, u, v) {
                    self.removed.insert(e);
                    self.overrides.remove(&e);
                    self.removed_edges += 1;
                    return true;
                }
                if let Some(list) = self.added.get_mut(&u) {
                    if let Some(pos) = list.iter().position(|&(d, _)| d == v) {
                        list.remove(pos);
                        if list.is_empty() {
                            self.added.remove(&u);
                        }
                        self.added_edges -= 1;
                        return true;
                    }
                }
                false
            }
            MutationOp::AddNode { nodes } => {
                if nodes as usize <= self.num_nodes() {
                    return false;
                }
                self.extra_nodes = nodes as usize - self.base_nodes;
                true
            }
            MutationOp::SetWeight { u, v, w } => {
                if let Some(e) = self.visible_base_edge(base, u, v) {
                    let changed = self.effective_weight(base, e) != w;
                    if changed {
                        if base.weight(e as usize) == w {
                            self.overrides.remove(&e);
                        } else {
                            self.overrides.insert(e, w);
                        }
                    }
                    return changed;
                }
                if let Some(list) = self.added.get_mut(&u) {
                    if let Some(pos) = list.iter().position(|&(d, _)| d == v) {
                        if list[pos].1 == w {
                            return false;
                        }
                        list.remove(pos);
                        let at = list.partition_point(|&(d, dw)| (d, dw) <= (v, w));
                        list.insert(at, (v, w));
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Weight of base edge `e` as seen through the overlay.
    pub fn effective_weight(&self, base: &Csr, e: u64) -> Weight {
        match self.overrides.get(&e) {
            Some(&w) => w,
            None => base.weight(e as usize),
        }
    }

    /// Whether the directed edge `u → v` is visible (base not-removed,
    /// or added).
    pub fn edge_visible(&self, base: &Csr, u: u32, v: u32) -> bool {
        self.visible_base_edge(base, u, v).is_some()
            || self
                .added
                .get(&u)
                .is_some_and(|l| l.iter().any(|&(d, _)| d == v))
    }

    /// First not-removed base edge `u → v`, as a flat edge index.
    fn visible_base_edge(&self, base: &Csr, u: u32, v: u32) -> Option<u64> {
        if u as usize >= self.base_nodes {
            return None;
        }
        let node = NodeId::new(u);
        (base.edge_start(node)..base.edge_end(node)).find_map(|e| {
            (base.edge_target(e).raw() == v && !self.removed.contains(&(e as u64)))
                .then_some(e as u64)
        })
    }

    /// Freezes the read-side index over `base`: which rows the delta
    /// touches, and each such row's effective adjacency (base edges
    /// minus removed, overrides applied, added edges merged) sorted by
    /// `(dst, weight)`. Costs the delta plus the degrees of the patched
    /// rows; grown nodes are always patched (they have no base row).
    pub fn freeze(&self, base: &Csr) -> PatchedRows {
        debug_assert_eq!(base.num_nodes(), self.base_nodes);
        let n = self.num_nodes();
        let mut bits = vec![0u64; n.div_ceil(64)];
        let mut mark = |u: usize| bits[u / 64] |= 1 << (u % 64);
        self.added.keys().for_each(|&u| mark(u as usize));
        let row_ptr = base.row_ptr();
        for &e in self.removed.iter().chain(self.overrides.keys()) {
            // Owner of flat edge `e`: the last row starting at or
            // before it.
            mark(row_ptr.partition_point(|&start| start as u64 <= e) - 1);
        }
        (self.base_nodes..n).for_each(&mut mark);

        let mut rank = Vec::with_capacity(bits.len());
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        let mut weights = self.weighted.then(Vec::new);
        let mut row: Vec<(NodeId, Weight)> = Vec::new();
        for (word_idx, &word) in bits.iter().enumerate() {
            rank.push(offsets.len() as u32 - 1);
            let mut rest = word;
            while rest != 0 {
                let u = word_idx * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                row.clear();
                if u < self.base_nodes {
                    let node = NodeId::from_index(u);
                    for e in base.edge_start(node)..base.edge_end(node) {
                        if !self.removed.contains(&(e as u64)) {
                            row.push((base.edge_target(e), self.effective_weight(base, e as u64)));
                        }
                    }
                }
                if let Some(list) = self.added.get(&(u as u32)) {
                    row.extend(list.iter().map(|&(v, w)| (NodeId::new(v), w)));
                }
                row.sort_unstable();
                targets.extend(row.iter().map(|&(v, _)| v));
                if let Some(ws) = &mut weights {
                    ws.extend(row.iter().map(|&(_, w)| w));
                }
                offsets.push(targets.len());
            }
        }
        PatchedRows {
            num_nodes: n,
            bits,
            rank,
            offsets,
            targets,
            weights,
        }
    }

    /// The full visible edge list (order unspecified; a builder
    /// canonicalizes), read off the frozen rows.
    pub fn merged_edges(&self, base: &Csr) -> Vec<Edge> {
        let frozen = self.freeze(base);
        let view = frozen.view(base);
        let mut edges = Vec::with_capacity(self.num_edges(base));
        for src in (0..self.num_nodes()).map(NodeId::from_index) {
            let (targets, weights) = view.row(src);
            edges.extend(
                targets
                    .iter()
                    .enumerate()
                    .map(|(i, &dst)| Edge::new(src, dst, weights.map_or(1, |w| w[i]))),
            );
        }
        edges
    }

    /// Freezes and materializes in one call (see
    /// [`OverlayView::merged_csr`]); a caller that already holds the
    /// frozen rows materializes its view instead.
    pub fn merged_csr(&self, base: &Csr) -> Csr {
        self.freeze(base).view(base).merged_csr()
    }
}

/// The read side of a frozen [`DeltaOverlay`]: a bitmap of the rows the
/// delta touches and, for those rows only, their effective adjacency as
/// one compact CSR. Immutable once built ([`DeltaOverlay::freeze`]).
#[derive(Clone, Debug)]
pub struct PatchedRows {
    num_nodes: usize,
    /// Bit `u` set ⇔ row `u` is served from `targets`, not the base.
    bits: Vec<u64>,
    /// Patched rows below word `i` of `bits` (the rank prefix).
    rank: Vec<u32>,
    /// The `r`-th patched row spans `offsets[r]..offsets[r + 1]`.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Option<Vec<Weight>>,
}

impl PatchedRows {
    /// Rows served from the index rather than the base.
    pub fn num_patched(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Borrows `base` + this index as a [`RowView`]. `base` must be the
    /// CSR the overlay was frozen over.
    pub fn view<'a>(&'a self, base: &'a Csr) -> OverlayView<'a> {
        OverlayView { base, rows: self }
    }
}

/// Base+delta as a zero-copy [`RowView`]: a patched row is a frozen
/// slice of the [`PatchedRows`] index, every other row is the base's.
#[derive(Clone, Copy, Debug)]
pub struct OverlayView<'a> {
    base: &'a Csr,
    rows: &'a PatchedRows,
}

impl OverlayView<'_> {
    /// Materializes base+delta into a standalone CSR, byte-identical to
    /// building the merged edge list through `CsrBuilder`'s canonical
    /// `(src, dst, weight)` order: rows are copied in node order, a
    /// patched row from the index and every other row from the base, and
    /// the rare row not already sorted by `(dst, weight)` is sorted on
    /// its own. No edge list, no hash probe, no global sort.
    pub fn merged_csr(&self) -> Csr {
        let nodes = || (0..self.num_nodes()).map(NodeId::from_index);
        let mut row_ptr = Vec::with_capacity(self.num_nodes() + 1);
        row_ptr.push(0);
        let mut m = 0;
        for u in nodes() {
            m += self.out_degree(u);
            row_ptr.push(m);
        }
        let mut col_idx = Vec::with_capacity(m);
        let mut weights = self.base.is_weighted().then(|| Vec::with_capacity(m));
        let mut unsorted: Vec<(NodeId, Weight)> = Vec::new();
        for u in nodes() {
            let (targets, row_weights) = self.row(u);
            let sorted = match row_weights {
                None => targets.is_sorted(),
                Some(w) => {
                    (1..targets.len()).all(|i| (targets[i - 1], w[i - 1]) <= (targets[i], w[i]))
                }
            };
            if sorted {
                col_idx.extend_from_slice(targets);
                if let (Some(out), Some(w)) = (&mut weights, row_weights) {
                    out.extend_from_slice(w);
                }
                continue;
            }
            unsorted.clear();
            unsorted
                .extend((0..targets.len()).map(|i| (targets[i], row_weights.map_or(1, |w| w[i]))));
            unsorted.sort_unstable();
            col_idx.extend(unsorted.iter().map(|&(v, _)| v));
            if let Some(out) = &mut weights {
                out.extend(unsorted.iter().map(|&(_, w)| w));
            }
        }
        Csr::from_parts(row_ptr, col_idx, weights)
    }
}

impl RowView for OverlayView<'_> {
    fn num_nodes(&self) -> usize {
        self.rows.num_nodes
    }

    #[inline]
    fn row(&self, u: NodeId) -> (&[NodeId], Option<&[Weight]>) {
        let rows = self.rows;
        let word = rows.bits[u.index() / 64];
        let bit = 1u64 << (u.index() % 64);
        if word & bit == 0 {
            return self.base.row(u);
        }
        let r = rows.rank[u.index() / 64] as usize + (word & (bit - 1)).count_ones() as usize;
        let span = rows.offsets[r]..rows.offsets[r + 1];
        (
            &rows.targets[span.clone()],
            rows.weights.as_deref().map(|w| &w[span]),
        )
    }
}

/// `Ok` when both endpoints name one of `n` nodes.
fn check_endpoints(n: usize, u: u32, v: u32) -> Result<(), MutationError> {
    for node in [u, v] {
        if node as usize >= n {
            return Err(MutationError::Invalid(format!(
                "node {node} out of range for {n} nodes (add-node first)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::CsrBuilder;

    /// Every row of `view` as `(src, dst, weight)` triples, in row
    /// order.
    fn rows(view: &impl RowView) -> Vec<(u32, u32, Weight)> {
        (0..view.num_nodes() as u32)
            .flat_map(|u| {
                let (targets, weights) = view.row(NodeId::new(u));
                assert_eq!(view.out_degree(NodeId::new(u)), targets.len());
                (0..targets.len())
                    .map(move |i| (u, targets[i].raw(), weights.map_or(1, |w| w[i])))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn weighted_base() -> Csr {
        CsrBuilder::new(4)
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(3, 0, 9)
            .build()
    }

    #[test]
    fn add_remove_setweight_round_trip() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d.is_empty());

        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 2, v: 3, w: 5 })
            .unwrap());
        // Duplicate of a base edge and of an added edge both skip.
        assert!(!d
            .apply(&base, MutationOp::AddEdge { u: 0, v: 1, w: 6 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::AddEdge { u: 2, v: 3, w: 8 })
            .unwrap());

        assert!(d
            .apply(&base, MutationOp::RemoveEdge { u: 0, v: 2 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::RemoveEdge { u: 0, v: 2 })
            .unwrap());

        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 2 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 2 })
            .unwrap());
        // Setting a missing edge's weight is a skip.
        assert!(!d
            .apply(&base, MutationOp::SetWeight { u: 1, v: 3, w: 2 })
            .unwrap());

        assert_eq!(d.delta_edges(), 3); // 1 added + 1 removed + 1 override
        let frozen = d.freeze(&base);
        // Rows 0 (remove + override) and 2 (add) are patched; 1 and 3
        // are served straight from the base.
        assert_eq!(frozen.num_patched(), 2);
        assert_eq!(d.num_edges(&base), 4);
        assert_eq!(
            rows(&frozen.view(&base)),
            vec![(0, 1, 2), (1, 2, 1), (2, 3, 5), (3, 0, 9)]
        );
    }

    #[test]
    fn removing_an_added_edge_undoes_it() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 1, v: 3, w: 2 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::RemoveEdge { u: 1, v: 3 })
            .unwrap());
        assert!(d.is_empty());
        assert_eq!(d.merged_csr(&base), base);
    }

    #[test]
    fn setweight_back_to_base_clears_the_override() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 6 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 4 })
            .unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn add_node_is_a_target_count() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d.apply(&base, MutationOp::AddNode { nodes: 6 }).unwrap());
        // Re-applying the same target (stale-log replay) is a no-op.
        assert!(!d.apply(&base, MutationOp::AddNode { nodes: 6 }).unwrap());
        assert!(!d.apply(&base, MutationOp::AddNode { nodes: 2 }).unwrap());
        assert_eq!(d.num_nodes(), 6);
        // New nodes can source and sink edges.
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 5, v: 0, w: 3 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 0, v: 5, w: 2 })
            .unwrap());
        let frozen = d.freeze(&base);
        let view = frozen.view(&base);
        assert_eq!(view.num_nodes(), 6);
        assert_eq!(view.out_degree(NodeId::new(5)), 1);
        assert_eq!(view.out_degree(NodeId::new(4)), 0);
        let merged = d.merged_csr(&base);
        assert_eq!(merged.num_nodes(), 6);
        assert_eq!(merged.neighbors(NodeId::new(5)), &[NodeId::new(0)]);
    }

    #[test]
    fn invalid_ops_are_rejected_and_leave_state_unchanged() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        for op in [
            MutationOp::AddEdge { u: 9, v: 0, w: 1 },
            MutationOp::AddEdge { u: 0, v: 9, w: 1 },
            MutationOp::RemoveEdge { u: 9, v: 0 },
            MutationOp::SetWeight { u: 0, v: 9, w: 1 },
        ] {
            assert!(matches!(d.apply(&base, op), Err(MutationError::Invalid(_))));
        }
        assert!(d.is_empty());

        let unweighted = CsrBuilder::new(2).edge(0, 1).build();
        let mut d = DeltaOverlay::new(&unweighted);
        assert!(matches!(
            d.apply(&unweighted, MutationOp::AddEdge { u: 1, v: 0, w: 7 }),
            Err(MutationError::Invalid(_))
        ));
        assert!(matches!(
            d.apply(&unweighted, MutationOp::SetWeight { u: 0, v: 1, w: 1 }),
            Err(MutationError::Invalid(_))
        ));
        // Unit-weight adds are fine and the merged graph stays
        // unweighted.
        assert!(d
            .apply(&unweighted, MutationOp::AddEdge { u: 1, v: 0, w: 1 })
            .unwrap());
        assert!(!d.merged_csr(&unweighted).is_weighted());
    }

    #[test]
    fn merged_csr_matches_from_scratch_build() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        for op in [
            MutationOp::AddNode { nodes: 5 },
            MutationOp::AddEdge { u: 4, v: 1, w: 3 },
            MutationOp::AddEdge { u: 0, v: 3, w: 2 },
            MutationOp::RemoveEdge { u: 1, v: 2 },
            MutationOp::SetWeight { u: 3, v: 0, w: 1 },
        ] {
            assert!(d.apply(&base, op).unwrap());
        }
        let merged = d.merged_csr(&base);

        let mut scratch = CsrBuilder::new(5);
        scratch
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(0, 3, 2)
            .weighted_edge(3, 0, 1)
            .weighted_edge(4, 1, 3);
        assert_eq!(merged, scratch.build());

        // The view's rows are the materialized CSR's rows, edge for
        // edge and in the same order.
        assert_eq!(rows(&d.freeze(&base).view(&base)), rows(&merged));

        // The row walk is the builder's merge, byte for byte, on every
        // delta shape. Parallel edges whose weights were assigned by
        // position leave row 0 of this base unsorted by `(dst, weight)`.
        let positional = Csr::from_parts(
            vec![0, 3, 4, 4, 6],
            [1, 1, 2, 2, 0, 0].map(NodeId::new).to_vec(),
            Some(vec![9, 2, 7, 1, 4, 3]),
        );
        let parallel_unit = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(0, 1)
            .edge(1, 2)
            .edge(3, 0)
            .build();
        let weighted_ops = [
            MutationOp::RemoveEdge { u: 0, v: 1 }, // hides the w = 9 twin only
            MutationOp::SetWeight { u: 3, v: 0, w: 8 },
            MutationOp::RemoveEdge { u: 1, v: 2 }, // empties row 1
            MutationOp::AddNode { nodes: 6 },
            MutationOp::AddEdge { u: 5, v: 0, w: 3 },
            MutationOp::AddEdge { u: 2, v: 5, w: 2 },
        ];
        let unit_ops = [
            MutationOp::RemoveEdge { u: 0, v: 1 },
            MutationOp::RemoveEdge { u: 3, v: 0 }, // empties row 3
            MutationOp::AddNode { nodes: 5 },
            MutationOp::AddEdge { u: 4, v: 4, w: 1 },
            MutationOp::AddEdge { u: 0, v: 3, w: 1 },
        ];
        for (base, ops) in [
            (&positional, &weighted_ops[..]),
            (&positional, &[]),
            (&base, &weighted_ops[..]),
            (&parallel_unit, &unit_ops[..]),
            (&parallel_unit, &[]),
        ] {
            let mut d = DeltaOverlay::new(base);
            for &op in ops {
                assert!(d.apply(base, op).unwrap(), "{op:?}");
            }
            let mut builder = CsrBuilder::from_edges(d.num_nodes(), d.merged_edges(base));
            builder.force_weighted(base.is_weighted());
            assert_eq!(d.merged_csr(base), builder.build(), "{ops:?}");
            assert_eq!(d.merged_edges(base).len(), d.num_edges(base));
        }
        // The unsorted row came out sorted, its hidden twin gone.
        let mut d = DeltaOverlay::new(&positional);
        d.apply(&positional, weighted_ops[0]).unwrap();
        assert_eq!(
            rows(&d.merged_csr(&positional))[..2],
            [(0, 1, 2), (0, 2, 7)]
        );
    }
}
