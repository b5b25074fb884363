//! Virtual split transformation (§4) and edge-array coalescing (§4.4).
//!
//! Instead of physically rewriting the graph, a [`VirtualGraph`] overlays
//! a *virtual node array* on the untouched physical CSR (Figure 10): each
//! high-degree node is represented by `⌈d/K⌉` virtual nodes, each covering
//! at most `K` of its edges. Computation is scheduled per virtual node;
//! values are read and written at the *physical* node's slot, so all
//! virtual nodes of a family observe each other's updates instantly —
//! the implicit value synchronization that makes the transformation free
//! of extra iterations (§4.1) and push-correct for every vertex-centric
//! program (Theorem 2).

use std::fmt;

use tigr_graph::io::binary::{MappedContainer, SectionParts};
use tigr_graph::{ArcSlice, Csr, NodeId, Plain};

/// One entry of the virtual node array.
///
/// A virtual node covers the edge flat-indices
/// `first_edge + j·stride` for `j < count` of the physical CSR.
/// Consecutive layout has `stride == 1`; the coalesced layout (§4.4)
/// uses `stride == family size` so that warp lanes running sibling
/// virtual nodes touch adjacent memory each step (Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct VirtualNode {
    /// The physical node this virtual node maps to (`map_v`, §4.1).
    pub physical: NodeId,
    /// Flat index of the first covered edge in the physical edge array.
    pub first_edge: u32,
    /// Distance between consecutive covered edges.
    pub stride: u32,
    /// Number of covered edges (`≤ K`).
    pub count: u32,
}

// SAFETY: `#[repr(C)]` over four 4-byte fields — 16 bytes, no padding,
// and every bit pattern is a valid `VirtualNode` (`NodeId` is a
// transparent `u32`). This is what lets the overlay section be
// reinterpreted in place from a mapped artifact.
unsafe impl Plain for VirtualNode {}

impl VirtualNode {
    /// Iterator over the flat edge indices this virtual node covers.
    pub fn edge_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count as usize).map(move |j| self.first_edge as usize + j * self.stride as usize)
    }
}

/// The virtual node array overlaying a physical CSR.
///
/// Built by [`VirtualGraph::new`] (consecutive edge assignment) or
/// [`VirtualGraph::coalesced`] (strided assignment, the `Tigr-V+`
/// layout). The physical graph is *not* stored here — the engine passes
/// graph and overlay together, mirroring how the CUDA implementation
/// keeps both arrays on device.
#[derive(Clone, PartialEq, Eq)]
pub struct VirtualGraph {
    vnodes: ArcSlice<VirtualNode>,
    /// `first_vnode[v]..first_vnode[v+1]` indexes the virtual nodes of
    /// physical node `v` (families are contiguous in `vnodes`).
    first_vnode: ArcSlice<u32>,
    physical_nodes: usize,
    physical_edges: usize,
    k: u32,
    coalesced: bool,
}

impl VirtualGraph {
    /// Builds the virtual node array with *consecutive* edge assignment
    /// (Figure 10b): virtual node `j` of a family covers edges
    /// `[jK, (j+1)K)` of its physical node.
    ///
    /// Runs in `O(|V| + |E|/K)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(g: &Csr, k: u32) -> Self {
        Self::build(g, k, false)
    }

    /// Builds the virtual node array with *strided* edge assignment
    /// (§4.4, Figure 12): virtual node `j` of a `B`-member family covers
    /// edges `j, j+B, j+2B, …`, so sibling virtual nodes scheduled into
    /// the same warp access consecutive edge-array words each step.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn coalesced(g: &Csr, k: u32) -> Self {
        Self::build(g, k, true)
    }

    fn build(g: &Csr, k: u32, coalesced: bool) -> Self {
        assert!(k >= 1, "degree bound K must be at least 1");
        let kk = k as usize;
        let mut vnodes = Vec::with_capacity(g.num_nodes() + g.num_edges() / kk);
        let mut first_vnode = Vec::with_capacity(g.num_nodes() + 1);

        for v in g.nodes() {
            first_vnode.push(vnodes.len() as u32);
            let d = g.out_degree(v);
            let start = g.edge_start(v) as u32;
            if d == 0 {
                // Zero-degree nodes still get one virtual node so that
                // pull-style programs can schedule them; it covers no edges.
                vnodes.push(VirtualNode {
                    physical: v,
                    first_edge: start,
                    stride: 1,
                    count: 0,
                });
                continue;
            }
            let families = d.div_ceil(kk);
            for j in 0..families {
                let (first, stride, count) = if coalesced {
                    // Member j takes edges j, j+B, j+2B, ...
                    (
                        start + j as u32,
                        families as u32,
                        ((d - j).div_ceil(families)) as u32,
                    )
                } else {
                    let lo = j * kk;
                    (start + lo as u32, 1u32, (d - lo).min(kk) as u32)
                };
                vnodes.push(VirtualNode {
                    physical: v,
                    first_edge: first,
                    stride,
                    count,
                });
            }
        }

        first_vnode.push(vnodes.len() as u32);
        VirtualGraph {
            vnodes: vnodes.into(),
            first_vnode: first_vnode.into(),
            physical_nodes: g.num_nodes(),
            physical_edges: g.num_edges(),
            k,
            coalesced,
        }
    }

    /// The contiguous range of virtual-node indices belonging to physical
    /// node `v` — used by worklist scheduling to activate a whole family
    /// when its physical value improves.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vnode_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.first_vnode[v.index()] as usize..self.first_vnode[v.index() + 1] as usize
    }

    /// Expands a list of active *physical* nodes into the virtual-node
    /// indices of their families, in family order — the frontier
    /// expansion a worklist scheduler performs before launching one
    /// thread per active virtual node (the engine's active-list sweep
    /// over an overlay).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn expand_active(&self, active: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(active.len());
        for &p in active {
            for i in self.vnode_range(NodeId::new(p)) {
                out.push(i as u32);
            }
        }
        out
    }

    /// Number of virtual nodes (= threads to schedule).
    pub fn num_virtual_nodes(&self) -> usize {
        self.vnodes.len()
    }

    /// Number of physical nodes of the underlying graph.
    pub fn num_physical_nodes(&self) -> usize {
        self.physical_nodes
    }

    /// The degree bound `K`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// `true` for the edge-array-coalesced (`Tigr-V+`) layout.
    pub fn is_coalesced(&self) -> bool {
        self.coalesced
    }

    /// The virtual node at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn vnode(&self, i: usize) -> VirtualNode {
        self.vnodes[i]
    }

    /// All virtual nodes, in schedule order (families are contiguous).
    pub fn vnodes(&self) -> &[VirtualNode] {
        &self.vnodes
    }

    /// Largest number of edges any virtual node covers (`≤ K`).
    pub fn max_virtual_degree(&self) -> usize {
        self.vnodes
            .iter()
            .map(|v| v.count as usize)
            .max()
            .unwrap_or(0)
    }

    /// `true` when both overlay tables borrow a memory-mapped segment
    /// rather than owned heap allocations.
    pub fn is_mapped(&self) -> bool {
        self.vnodes.is_mapped() && self.first_vnode.is_mapped()
    }

    /// Heap bytes owned by the overlay tables (zero when fully mapped).
    pub fn heap_bytes(&self) -> usize {
        self.vnodes.heap_bytes() + self.first_vnode.heap_bytes()
    }

    /// Bytes served from a mapped segment (zero when fully owned).
    pub fn mapped_bytes(&self) -> usize {
        let vnode_bytes = self.vnodes.len() * std::mem::size_of::<VirtualNode>();
        let index_bytes = self.first_vnode.len() * std::mem::size_of::<u32>();
        match (self.vnodes.is_mapped(), self.first_vnode.is_mapped()) {
            (true, true) => vnode_bytes + index_bytes,
            (true, false) => vnode_bytes,
            (false, true) => index_bytes,
            (false, false) => 0,
        }
    }

    /// Size in bytes of the virtual node array under the paper's
    /// accounting: 8 bytes per entry (physical id + edge pointer) for the
    /// consecutive layout, 12 bytes (physical id + offset + stride) for
    /// the coalesced layout of Algorithm 3.
    pub fn size_bytes(&self) -> usize {
        self.vnodes.len() * if self.coalesced { 12 } else { 8 }
    }

    /// Space cost of the virtually transformed graph relative to the
    /// original CSR — the metric of Table 6: the edge array is shared, so
    /// the overhead is exactly the virtual node array (minus the original
    /// node array it replaces).
    pub fn space_cost_ratio(&self, g: &Csr) -> f64 {
        let original = g.csr_size_bytes();
        let node_array = (g.num_nodes() + 1) * 4;
        let transformed = original - node_array + self.size_bytes();
        transformed as f64 / original as f64
    }

    /// The overlay as `TIGRCSR2` section `id` (see
    /// `tigr_graph::io::binary`): `k`, coalesced flag, physical counts
    /// and the vnode count, then the virtual node array and the family
    /// index, all little-endian — the arrays borrowed in place.
    pub fn section(&self, id: u32) -> SectionParts<'_> {
        let mut header = Vec::with_capacity(OverlayHeader::LEN);
        header.extend_from_slice(&self.k.to_le_bytes());
        header.extend_from_slice(&(self.coalesced as u32).to_le_bytes());
        header.extend_from_slice(&(self.physical_nodes as u64).to_le_bytes());
        header.extend_from_slice(&(self.physical_edges as u64).to_le_bytes());
        header.extend_from_slice(&(self.vnodes.len() as u64).to_le_bytes());
        SectionParts::new(id)
            .bytes(header)
            .u32_words(&self.vnodes)
            .u32_words(&self.first_vnode)
    }

    /// Decodes an overlay from a section payload produced by
    /// [`VirtualGraph::section`], validating sizes and the
    /// family-index invariants before construction.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation on malformed input.
    pub fn from_section_bytes(payload: &[u8]) -> Result<Self, String> {
        let (header, arrays) = OverlayHeader::parse(payload)?;
        let (vnode_bytes, index_bytes) = arrays.split_at(header.count * 16);
        let (vnode_table, _) = vnode_bytes.as_chunks::<4>().0.as_chunks();
        let vnodes: Vec<VirtualNode> = vnode_table
            .iter()
            .map(|&[physical, first_edge, stride, count]| VirtualNode {
                physical: NodeId::new(u32::from_le_bytes(physical)),
                first_edge: u32::from_le_bytes(first_edge),
                stride: u32::from_le_bytes(stride),
                count: u32::from_le_bytes(count),
            })
            .collect();
        let (index, _) = index_bytes.as_chunks();
        let first_vnode: Vec<u32> = index.iter().map(|f| u32::from_le_bytes(*f)).collect();
        header.finish(vnodes.into(), first_vnode.into(), true)
    }

    /// Opens an overlay directly over a mapped container section: the
    /// vnode table and family index borrow the artifact's bytes instead
    /// of being decoded (little-endian targets; elsewhere, or when
    /// alignment defeats the reinterpret, the owned decoder runs).
    /// Returns `Ok(None)` when the section is absent.
    ///
    /// With `validate` the same family-index invariants as
    /// [`VirtualGraph::from_section_bytes`] are checked; without, the
    /// `O(|vnodes|)` scan is skipped for lazy-verify opens of trusted
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation on malformed input.
    pub fn from_container(
        container: &MappedContainer,
        section_id: u32,
        validate: bool,
    ) -> Result<Option<Self>, String> {
        let Some(r) = container.section(section_id) else {
            return Ok(None);
        };
        let seg = container.segment();
        let payload = &seg.as_bytes()[r.offset..r.offset + r.len];
        #[cfg(target_endian = "little")]
        {
            let (header, _) = OverlayHeader::parse(payload)?;
            let vn_off = r.offset + OverlayHeader::LEN;
            let fv_off = vn_off + header.count * 16;
            let views = (
                ArcSlice::<VirtualNode>::from_segment(
                    std::sync::Arc::clone(seg),
                    vn_off,
                    header.count,
                ),
                ArcSlice::<u32>::from_segment(
                    std::sync::Arc::clone(seg),
                    fv_off,
                    header.physical_nodes + 1,
                ),
            );
            if let (Some(vnodes), Some(first_vnode)) = views {
                return header.finish(vnodes, first_vnode, validate).map(Some);
            }
        }
        Self::from_section_bytes(payload).map(Some)
    }

    /// Checks the overlay against its physical graph: every physical edge
    /// must be covered by exactly one virtual node of its source's family
    /// (the disjointness Theorem 3 relies on).
    ///
    /// Returns an error description on violation.
    pub fn validate_against(&self, g: &Csr) -> Result<(), String> {
        if self.physical_nodes != g.num_nodes() || self.physical_edges != g.num_edges() {
            return Err(format!(
                "overlay built for {}x{} graph, got {}x{}",
                self.physical_nodes,
                self.physical_edges,
                g.num_nodes(),
                g.num_edges()
            ));
        }
        let mut covered = vec![0u8; g.num_edges()];
        for vn in self.vnodes.iter() {
            let (lo, hi) = (g.edge_start(vn.physical), g.edge_end(vn.physical));
            for e in vn.edge_indices() {
                if e < lo || e >= hi {
                    return Err(format!(
                        "virtual node of {} covers edge {e} outside [{lo}, {hi})",
                        vn.physical
                    ));
                }
                if covered[e] != 0 {
                    return Err(format!("edge {e} covered twice"));
                }
                covered[e] = 1;
            }
            if vn.count as usize > self.k as usize {
                return Err(format!(
                    "virtual node of {} covers {} edges > K={}",
                    vn.physical, vn.count, self.k
                ));
            }
        }
        if let Some(e) = covered.iter().position(|&c| c == 0) {
            return Err(format!("edge {e} not covered"));
        }
        Ok(())
    }
}

/// An overlay section's header: `k`, the coalesced flag, the physical
/// counts and the vnode count. The owned and the mapped decoder both
/// parse it here and assemble the overlay through [`OverlayHeader::finish`].
struct OverlayHeader {
    k: u32,
    coalesced: bool,
    physical_nodes: usize,
    physical_edges: usize,
    count: usize,
}

impl OverlayHeader {
    /// Header bytes at the front of an overlay section payload.
    const LEN: usize = 32;

    /// Parses the header of an overlay section payload and checks that
    /// the arrays after it — the vnode table and the family index — have
    /// exactly the declared size. Returns the header and those arrays.
    fn parse(payload: &[u8]) -> Result<(Self, &[u8]), String> {
        let truncated = || "truncated overlay section".to_string();
        if payload.len() < Self::LEN {
            return Err(truncated());
        }
        let (k, rest) = payload.split_first_chunk().ok_or_else(truncated)?;
        let (coalesced, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (physical_nodes, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (physical_edges, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (count, arrays) = rest.split_first_chunk().ok_or_else(truncated)?;
        let k = u32::from_le_bytes(*k);
        let coalesced = match u32::from_le_bytes(*coalesced) {
            0 => false,
            1 => true,
            other => return Err(format!("bad coalesced flag {other}")),
        };
        let physical_nodes = u64::from_le_bytes(*physical_nodes) as usize;
        let physical_edges = u64::from_le_bytes(*physical_edges) as usize;
        let count = u64::from_le_bytes(*count) as usize;
        let need = count as u128 * 16 + (physical_nodes as u128 + 1) * 4;
        if arrays.len() as u128 != need {
            return Err(format!(
                "overlay payload size mismatch: need {need} bytes, have {}",
                arrays.len()
            ));
        }
        if k == 0 {
            return Err("overlay has K = 0".into());
        }
        let header = OverlayHeader {
            k,
            coalesced,
            physical_nodes,
            physical_edges,
            count,
        };
        Ok((header, arrays))
    }

    /// The overlay over its vnode table and family index, after checking
    /// the family-index invariants when `validate` is set.
    fn finish(
        self,
        vnodes: ArcSlice<VirtualNode>,
        first_vnode: ArcSlice<u32>,
        validate: bool,
    ) -> Result<VirtualGraph, String> {
        if validate
            && (first_vnode.first() != Some(&0)
                || first_vnode.last() != Some(&(self.count as u32))
                || first_vnode.windows(2).any(|w| w[0] > w[1])
                || vnodes
                    .iter()
                    .any(|v| v.physical.index() >= self.physical_nodes))
        {
            return Err("inconsistent overlay family index".into());
        }
        Ok(VirtualGraph {
            vnodes,
            first_vnode,
            physical_nodes: self.physical_nodes,
            physical_edges: self.physical_edges,
            k: self.k,
            coalesced: self.coalesced,
        })
    }
}

impl fmt::Debug for VirtualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualGraph")
            .field("virtual_nodes", &self.vnodes.len())
            .field("physical_nodes", &self.physical_nodes)
            .field("k", &self.k)
            .field("coalesced", &self.coalesced)
            .finish()
    }
}

/// Dynamic ("on-the-fly") mapping reasoning (§4.1, second design): no
/// virtual node array is stored; instead each thread derives its edge
/// range and physical source at kernel time.
///
/// Our realization blocks the flat edge array into chunks of `K`: thread
/// `t` covers edges `[tK, (t+1)K)`, locating the owning physical node of
/// its first edge by binary search over `row_ptr` and walking forward
/// across node boundaries. This needs zero bytes of mapping state and
/// bounds every thread's work by `K`, trading `O(log |V|)` extra compute
/// per thread for memory — exactly the tradeoff the paper describes.
#[derive(Clone, Copy, Debug)]
pub struct OnTheFlyMapper {
    k: u32,
    num_edges: usize,
    num_nodes: usize,
}

impl OnTheFlyMapper {
    /// Creates a mapper for graph `g` with degree bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(g: &Csr, k: u32) -> Self {
        assert!(k >= 1, "degree bound K must be at least 1");
        OnTheFlyMapper {
            k,
            num_edges: g.num_edges(),
            num_nodes: g.num_nodes(),
        }
    }

    /// Number of threads to schedule: `⌈|E|/K⌉`.
    pub fn num_threads(&self) -> usize {
        self.num_edges.div_ceil(self.k as usize)
    }

    /// The degree bound `K`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Resolves thread `tid`'s edge block against `g`, returning the
    /// half-open flat edge range and the physical node owning the first
    /// edge, plus the number of binary-search probes performed (so the
    /// engine can charge their cost).
    ///
    /// # Panics
    ///
    /// Panics if `tid >= num_threads()` or `g` does not match the mapper.
    pub fn resolve(&self, g: &Csr, tid: usize) -> ((usize, usize), NodeId, u32) {
        assert!(tid < self.num_threads(), "thread id out of range");
        assert_eq!(g.num_edges(), self.num_edges, "graph mismatch");
        assert_eq!(g.num_nodes(), self.num_nodes, "graph mismatch");
        let lo = tid * self.k as usize;
        let hi = (lo + self.k as usize).min(self.num_edges);

        // Binary search: the last node whose edge range starts at or
        // before `lo`.
        let row_ptr = g.row_ptr();
        let mut probes = 0u32;
        let (mut a, mut b) = (0usize, g.num_nodes());
        while a + 1 < b {
            probes += 1;
            let mid = (a + b) / 2;
            if row_ptr[mid] <= lo {
                a = mid;
            } else {
                b = mid;
            }
        }
        ((lo, hi), NodeId::from_index(a), probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, star_graph, RmatConfig};
    use tigr_graph::io::binary::SECTION_OVERLAY;
    use tigr_graph::CsrBuilder;

    #[test]
    fn consecutive_layout_matches_figure_10() {
        // Figure 10: node v2 with 6 edges, K=3 -> two virtual nodes
        // covering edges [start, start+3) and [start+3, start+6).
        let mut b = CsrBuilder::new(9);
        b.sort_neighbors(false);
        for d in [5u32, 4, 5, 4, 6, 8] {
            b.edge(2, d % 9);
        }
        b.edge(1, 2);
        let g = b.build();
        let vg = VirtualGraph::new(&g, 3);
        let hub_vnodes: Vec<_> = vg
            .vnodes()
            .iter()
            .filter(|v| v.physical == NodeId::new(2))
            .collect();
        assert_eq!(hub_vnodes.len(), 2);
        assert_eq!(hub_vnodes[0].count, 3);
        assert_eq!(hub_vnodes[1].count, 3);
        assert_eq!(hub_vnodes[0].stride, 1);
        assert_eq!(hub_vnodes[1].first_edge, hub_vnodes[0].first_edge + 3);
        vg.validate_against(&g).unwrap();
    }

    #[test]
    fn coalesced_layout_matches_figure_12() {
        // Family of 2 virtual nodes over 6 edges: member 0 takes edges
        // 0,2,4; member 1 takes 1,3,5 (offset = member id, stride = 2).
        let g = star_graph(7); // hub degree 6
        let vg = VirtualGraph::coalesced(&g, 3);
        let hub: Vec<_> = vg
            .vnodes()
            .iter()
            .filter(|v| v.physical == NodeId::new(0))
            .collect();
        assert_eq!(hub.len(), 2);
        assert_eq!(hub[0].stride, 2);
        assert_eq!(hub[1].stride, 2);
        assert_eq!(hub[0].edge_indices().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(hub[1].edge_indices().collect::<Vec<_>>(), vec![1, 3, 5]);
        vg.validate_against(&g).unwrap();
    }

    #[test]
    fn virtual_node_counts() {
        let g = star_graph(101); // hub 100 + 100 leaves (degree 0)
        let vg = VirtualGraph::new(&g, 10);
        // 10 vnodes for the hub + 1 each for the 100 leaves.
        assert_eq!(vg.num_virtual_nodes(), 110);
        assert_eq!(vg.max_virtual_degree(), 10);
        assert!(!vg.is_coalesced());
        assert_eq!(vg.k(), 10);
    }

    #[test]
    fn both_layouts_cover_every_edge_once_on_power_law_graphs() {
        let g = rmat(&RmatConfig::graph500(10, 8), 3);
        for k in [1u32, 4, 8, 10, 32] {
            VirtualGraph::new(&g, k).validate_against(&g).unwrap();
            VirtualGraph::coalesced(&g, k).validate_against(&g).unwrap();
        }
    }

    #[test]
    fn coalesced_counts_are_balanced_within_family() {
        // d=7, K=3 -> B=3 members with counts 3,2,2 (within 1 of each other).
        let g = star_graph(8);
        let vg = VirtualGraph::coalesced(&g, 3);
        let counts: Vec<u32> = vg
            .vnodes()
            .iter()
            .filter(|v| v.physical == NodeId::new(0))
            .map(|v| v.count)
            .collect();
        assert_eq!(counts, vec![3, 2, 2]);
    }

    #[test]
    fn space_cost_shrinks_with_k_as_table_6() {
        let g = rmat(&RmatConfig::graph500(12, 16), 5);
        let r4 = VirtualGraph::new(&g, 4).space_cost_ratio(&g);
        let r8 = VirtualGraph::new(&g, 8).space_cost_ratio(&g);
        let r32 = VirtualGraph::new(&g, 32).space_cost_ratio(&g);
        assert!(r4 > r8 && r8 > r32, "{r4} > {r8} > {r32}");
        assert!(r4 > 1.2 && r4 < 1.8, "K=4 overhead ≈ 25-50%: {r4}");
        assert!(r32 < 1.25, "K=32 overhead small: {r32}");
    }

    #[test]
    fn validate_catches_mismatched_graph() {
        let g = star_graph(10);
        let other = star_graph(11);
        let vg = VirtualGraph::new(&g, 3);
        assert!(vg.validate_against(&other).is_err());
    }

    #[test]
    fn otf_mapper_resolves_blocks() {
        let g = star_graph(11); // 10 edges, all from node 0
        let m = OnTheFlyMapper::new(&g, 4);
        assert_eq!(m.num_threads(), 3);
        let ((lo, hi), src, probes) = m.resolve(&g, 0);
        assert_eq!((lo, hi), (0, 4));
        assert_eq!(src, NodeId::new(0));
        assert!(probes <= 5);
        let ((lo, hi), _, _) = m.resolve(&g, 2);
        assert_eq!((lo, hi), (8, 10));
    }

    #[test]
    fn otf_blocks_can_straddle_nodes() {
        // Node 0 has 3 edges, node 1 has 3: with K=4 block 0 covers edges
        // of both nodes; resolve reports node 0 as the owner of edge 0.
        let mut b = CsrBuilder::new(8);
        for i in 2..5u32 {
            b.edge(0, i);
        }
        for i in 5..8u32 {
            b.edge(1, i);
        }
        let g = b.build();
        let m = OnTheFlyMapper::new(&g, 4);
        assert_eq!(m.num_threads(), 2);
        let ((lo, hi), src, _) = m.resolve(&g, 0);
        assert_eq!((lo, hi), (0, 4));
        assert_eq!(src, NodeId::new(0));
        let ((_, _), src1, _) = m.resolve(&g, 1);
        assert_eq!(src1, NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn otf_rejects_bad_tid() {
        let g = star_graph(5);
        let m = OnTheFlyMapper::new(&g, 2);
        let _ = m.resolve(&g, 99);
    }

    #[test]
    fn vnode_range_covers_families() {
        let g = star_graph(25); // hub degree 24
        let vg = VirtualGraph::new(&g, 10);
        let hub = vg.vnode_range(NodeId::new(0));
        assert_eq!(hub.len(), 3); // ⌈24/10⌉
        for i in hub.clone() {
            assert_eq!(vg.vnode(i).physical, NodeId::new(0));
        }
        // Every leaf family has exactly one (empty) virtual node.
        for v in 1..25u32 {
            assert_eq!(vg.vnode_range(NodeId::new(v)).len(), 1);
        }
        // Ranges tile the whole vnode array.
        let total: usize = (0..25u32)
            .map(|v| vg.vnode_range(NodeId::new(v)).len())
            .sum();
        assert_eq!(total, vg.num_virtual_nodes());
    }

    #[test]
    fn expand_active_yields_whole_families_in_order() {
        let g = star_graph(25); // hub degree 24 -> 3 vnodes with K=10
        let vg = VirtualGraph::new(&g, 10);
        let expanded = vg.expand_active(&[0, 2]);
        let hub: Vec<u32> = vg.vnode_range(NodeId::new(0)).map(|i| i as u32).collect();
        let leaf: Vec<u32> = vg.vnode_range(NodeId::new(2)).map(|i| i as u32).collect();
        assert_eq!(expanded, [hub, leaf].concat());
        assert!(vg.expand_active(&[]).is_empty());
    }

    #[test]
    fn section_bytes_round_trip() {
        let g = rmat(&RmatConfig::graph500(9, 8), 7);
        for vg in [VirtualGraph::new(&g, 6), VirtualGraph::coalesced(&g, 6)] {
            let bytes = vg.section(SECTION_OVERLAY).to_vec();
            let back = VirtualGraph::from_section_bytes(&bytes).unwrap();
            assert_eq!(back, vg);
            back.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn section_bytes_reject_corruption() {
        let g = star_graph(20);
        let vg = VirtualGraph::new(&g, 4);
        let bytes = vg.section(SECTION_OVERLAY).to_vec();
        for cut in 0..bytes.len() {
            assert!(VirtualGraph::from_section_bytes(&bytes[..cut]).is_err());
        }
        let longer = [&bytes[..], &[0]].concat();
        assert!(VirtualGraph::from_section_bytes(&longer).is_err());
        let mut bad_flag = bytes.clone();
        bad_flag[4] = 9;
        assert!(VirtualGraph::from_section_bytes(&bad_flag).is_err());
        let mut bad_index = bytes.clone();
        // First first_vnode entry must be zero.
        let fv_start = bytes.len() - (vg.num_physical_nodes() + 1) * 4;
        bad_index[fv_start] = 3;
        assert!(VirtualGraph::from_section_bytes(&bad_index).is_err());
    }

    #[test]
    fn overlay_opens_zero_copy_from_a_container_section() {
        use tigr_graph::io::binary::{checksums, write_sections, VerifyMode};
        use tigr_graph::Segment;

        let g = rmat(&RmatConfig::graph500(9, 8), 7);
        let vg = VirtualGraph::coalesced(&g, 6);
        let mut buf = Vec::new();
        let sections = [vg.section(SECTION_OVERLAY)];
        write_sections(&sections, &checksums(&sections), &mut buf).unwrap();
        let c = MappedContainer::from_segment(
            std::sync::Arc::new(Segment::from(buf)),
            VerifyMode::Eager,
        )
        .unwrap();
        for validate in [true, false] {
            let back = VirtualGraph::from_container(&c, SECTION_OVERLAY, validate)
                .unwrap()
                .unwrap();
            assert_eq!(back, vg);
            back.validate_against(&g).unwrap();
        }
        assert!(VirtualGraph::from_container(&c, 99, true)
            .unwrap()
            .is_none());
    }

    #[test]
    fn zero_degree_nodes_still_get_a_virtual_node() {
        let g = CsrBuilder::new(3).edge(0, 1).build();
        let vg = VirtualGraph::new(&g, 5);
        assert_eq!(vg.num_virtual_nodes(), 3);
        vg.validate_against(&g).unwrap();
    }
}
