//! Physical split transformations (§3).
//!
//! A split transformation rewrites every *high-degree node* — out-degree
//! above the bound `K` (Definition 1) — into a family of bounded-degree
//! nodes, redistributing its outgoing edges (Definition 2). The module
//! provides the three reference connection topologies of Figure 5 plus
//! the uniform-degree tree of §3.2:
//!
//! | transform | new nodes | new edges | hops | paper column |
//! |---|---|---|---|---|
//! | [`clique_transform`]   | `⌈d/K⌉-1` | `(⌈d/K⌉-1)·⌈d/K⌉` | 1 | `T_cliq` |
//! | [`circular_transform`] | `⌈d/K⌉-1` | `⌈d/K⌉-1` | `⌈d/K⌉-1` | `T_circ` |
//! | [`star_transform`]     | `⌈d/K⌉`   | `⌈d/K⌉` | 1 | `T_star` |
//! | [`udt_transform`]      | ≈`(d-K)/(K-1)` | = new nodes | `O(log_K d)` | `T_udt` |
//!
//! All transforms keep the original node ids `0..n` (the family root
//! retains the original id, so incoming edges need no rewriting), append
//! split nodes after `n`, and tag introduced edges with the chosen
//! [`DumbWeight`].

mod circular;
mod clique;
pub mod properties;
mod recursive_star;
mod star;
mod udt;

pub use circular::{circular_transform, CircularTopology};
pub use clique::{clique_transform, CliqueTopology};
pub use recursive_star::{count_residual_nodes, recursive_star_transform, RecursiveStarTopology};
pub use star::{star_transform, StarTopology};
pub use udt::{udt_transform, UdtTopology};

use std::fmt;

use tigr_graph::io::binary::{SectionParts, SECTION_CSR, SECTION_TRANSFORM};
use tigr_graph::{Csr, NodeId, Weight};

use crate::dumb_weights::DumbWeight;

/// An original outgoing edge of a node being split: its target and
/// weight, detached from its source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeStub {
    /// Edge destination.
    pub target: NodeId,
    /// Original edge weight (1 for unweighted graphs).
    pub weight: Weight,
}

/// Connection-topology strategy used by [`apply_split`].
///
/// Implementations receive each high-degree node together with its
/// detached outgoing edges and rebuild them as a bounded-degree family
/// through the [`SplitContext`].
pub trait SplitTopology {
    /// Short name used in reports ("udt", "star", ...).
    fn name(&self) -> &'static str;

    /// Splits one high-degree node. `root` keeps its original id; all
    /// original `stubs` must be re-attached exactly once.
    fn split_node(&self, ctx: &mut SplitContext<'_>, root: NodeId, stubs: &[EdgeStub]);
}

/// Mutable construction state handed to a [`SplitTopology`].
#[derive(Debug)]
pub struct SplitContext<'a> {
    k: usize,
    edges: &'a mut Vec<(NodeId, NodeId, Weight, bool)>,
    family_root: &'a mut Vec<NodeId>,
    next_node: &'a mut u32,
    dumb_value: Weight,
}

impl SplitContext<'_> {
    /// The degree bound `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Allocates a fresh split node belonging to `root`'s family.
    pub fn alloc_node(&mut self, root: NodeId) -> NodeId {
        let id = NodeId::new(*self.next_node);
        *self.next_node += 1;
        self.family_root.push(root);
        id
    }

    /// Re-attaches an original edge at `src` (weight preserved).
    pub fn attach_original(&mut self, src: NodeId, stub: EdgeStub) {
        self.edges.push((src, stub.target, stub.weight, false));
    }

    /// Adds a transformation-introduced edge (`E_new`), carrying the dumb
    /// weight.
    pub fn attach_new(&mut self, src: NodeId, dst: NodeId) {
        self.edges.push((src, dst, self.dumb_value, true));
    }
}

/// Result of physically applying a split transformation to a graph.
#[derive(Clone)]
pub struct TransformedGraph {
    graph: Csr,
    original_nodes: usize,
    family_root: Vec<NodeId>,
    new_edge_flags: Vec<bool>,
    num_new_edges: usize,
    k: u32,
    topology: &'static str,
}

impl TransformedGraph {
    /// The transformed topology as a CSR.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of nodes in the *original* graph; node ids below this value
    /// retain their original meaning, so algorithm results for original
    /// nodes are simply `values[..original_nodes()]`.
    pub fn original_nodes(&self) -> usize {
        self.original_nodes
    }

    /// Number of split nodes the transformation introduced.
    pub fn num_split_nodes(&self) -> usize {
        self.graph.num_nodes() - self.original_nodes
    }

    /// Number of edges the transformation introduced (`|E_new|`).
    pub fn num_new_edges(&self) -> usize {
        self.num_new_edges
    }

    /// Whether the edge at flat index `e` of [`Self::graph`] was
    /// introduced by the transformation (is in `E_new`, Theorem 1).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn is_new_edge(&self, e: usize) -> bool {
        self.new_edge_flags[e]
    }

    /// The family root (original node) that `v` belongs to; identity for
    /// original nodes.
    pub fn family_root(&self, v: NodeId) -> NodeId {
        self.family_root[v.index()]
    }

    /// Degree bound the transformation was applied with.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Topology name ("udt", "star", "circular", "clique").
    pub fn topology(&self) -> &'static str {
        self.topology
    }

    /// Size of the transformed graph relative to the original in CSR
    /// bytes — the metric of Table 5 (`100%` = no growth).
    pub fn space_cost_ratio(&self, original: &Csr) -> f64 {
        self.graph.csr_size_bytes() as f64 / original.csr_size_bytes() as f64
    }

    /// Truncates per-node `values` of the transformed graph to the
    /// original node range.
    pub fn project_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        values[..self.original_nodes].to_vec()
    }

    /// The transform as its `TIGRCSR2` section: `k`, a topology tag,
    /// original counts, the embedded transformed CSR (length-prefixed),
    /// the family-root map, and the new-edge flags — the arrays borrowed
    /// in place.
    pub fn section(&self) -> SectionParts<'_> {
        let csr = SectionParts::csr(SECTION_CSR, &self.graph);
        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(&self.k.to_le_bytes());
        header.extend_from_slice(&topology_tag(self.topology).to_le_bytes());
        header.extend_from_slice(&(self.original_nodes as u64).to_le_bytes());
        header.extend_from_slice(&(self.num_new_edges as u64).to_le_bytes());
        header.extend_from_slice(&(csr.len() as u64).to_le_bytes());
        SectionParts::new(SECTION_TRANSFORM)
            .bytes(header)
            .extend(csr)
            .u32_words(&self.family_root)
            .flags(&self.new_edge_flags)
    }

    /// Decodes a transform from a section payload produced by
    /// [`TransformedGraph::section`], validating the embedded
    /// CSR and every auxiliary array before construction.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation on malformed input.
    pub fn from_section_bytes(payload: &[u8]) -> Result<Self, String> {
        let truncated = || "truncated transform section".to_string();
        if payload.len() < 32 {
            return Err(truncated());
        }
        let (k, rest) = payload.split_first_chunk().ok_or_else(truncated)?;
        let (tag, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (original_nodes, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (num_new_edges, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (csr_len, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let k = u32::from_le_bytes(*k);
        let tag = u32::from_le_bytes(*tag);
        let topology = topology_name(tag).ok_or_else(|| format!("unknown topology tag {tag}"))?;
        let original_nodes = u64::from_le_bytes(*original_nodes) as usize;
        let num_new_edges = u64::from_le_bytes(*num_new_edges) as usize;
        let csr_len = u64::from_le_bytes(*csr_len) as usize;
        let Some((csr, rest)) = rest.split_at_checked(csr_len) else {
            return Err("truncated embedded CSR".into());
        };
        let graph = tigr_graph::io::decode_csr(csr).map_err(|e| e.to_string())?;

        let total_nodes = graph.num_nodes();
        let num_edges = graph.num_edges();
        let need = total_nodes as u128 * 4 + num_edges as u128;
        if rest.len() as u128 != need {
            return Err(format!(
                "transform payload size mismatch: need {need} trailing bytes, have {}",
                rest.len()
            ));
        }
        let (roots, flags) = rest.split_at(total_nodes * 4);
        let family_root: Vec<NodeId> = roots
            .as_chunks()
            .0
            .iter()
            .map(|r| NodeId::new(u32::from_le_bytes(*r)))
            .collect();
        let new_edge_flags: Vec<bool> = flags.iter().map(|&f| f != 0).collect();
        if original_nodes > total_nodes
            || num_new_edges > num_edges
            || family_root.iter().any(|r| r.index() >= total_nodes)
            || new_edge_flags.iter().filter(|&&f| f).count() != num_new_edges
        {
            return Err("inconsistent transform metadata".into());
        }
        Ok(TransformedGraph {
            graph,
            original_nodes,
            family_root,
            new_edge_flags,
            num_new_edges,
            k,
            topology,
        })
    }
}

fn topology_tag(name: &str) -> u32 {
    match name {
        "udt" => 1,
        "star" => 2,
        "recursive-star" => 3,
        "circular" => 4,
        "clique" => 5,
        _ => 0,
    }
}

fn topology_name(tag: u32) -> Option<&'static str> {
    match tag {
        1 => Some("udt"),
        2 => Some("star"),
        3 => Some("recursive-star"),
        4 => Some("circular"),
        5 => Some("clique"),
        _ => None,
    }
}

impl fmt::Debug for TransformedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransformedGraph")
            .field("topology", &self.topology)
            .field("k", &self.k)
            .field("original_nodes", &self.original_nodes)
            .field("split_nodes", &self.num_split_nodes())
            .field("new_edges", &self.num_new_edges)
            .finish()
    }
}

/// What a topology emits over a graph's high-degree nodes, before CSR
/// assembly. Rows of degree at most `K` pass through unchanged and are
/// not listed.
#[derive(Clone, Debug)]
pub struct SplitEdges {
    /// Every edge the topology attached, as `(source, target, weight,
    /// introduced)`, in attachment order: family by family, in ascending
    /// order of the high-degree node (the family root) each replaces.
    pub edges: Vec<(NodeId, NodeId, Weight, bool)>,
    /// Family root of every node, the original ids first, then split
    /// nodes in allocation order.
    pub family_root: Vec<NodeId>,
}

/// Runs `topology` over every node of `g` whose out-degree exceeds `k`
/// and collects the edges it attaches, introduced ones carrying `dumb`'s
/// value.
///
/// # Panics
///
/// Panics if `k == 0` (Definition 1 requires `K ≥ 1`).
pub fn split_edges(topology: &dyn SplitTopology, g: &Csr, k: u32, dumb: DumbWeight) -> SplitEdges {
    assert!(k >= 1, "degree bound K must be at least 1 (Definition 1)");
    let k_usize = k as usize;
    let mut edges: Vec<(NodeId, NodeId, Weight, bool)> = Vec::new();
    let mut family_root: Vec<NodeId> = g.nodes().collect();
    let mut next_node = g.num_nodes() as u32;
    let mut stubs: Vec<EdgeStub> = Vec::new();

    for v in g.nodes().filter(|&v| g.out_degree(v) > k_usize) {
        let start = g.edge_start(v);
        stubs.clear();
        stubs.extend(
            g.neighbors(v)
                .iter()
                .enumerate()
                .map(|(off, &target)| EdgeStub {
                    target,
                    weight: g.weight(start + off),
                }),
        );
        let mut ctx = SplitContext {
            k: k_usize,
            edges: &mut edges,
            family_root: &mut family_root,
            next_node: &mut next_node,
            dumb_value: dumb.value(),
        };
        topology.split_node(&mut ctx, v, &stubs);
    }
    SplitEdges { edges, family_root }
}

/// Applies `topology` to every high-degree node of `g` with degree bound
/// `k`, tagging introduced edges per `dumb`.
///
/// Runs in `O(|V| + |E|)`, matching the paper's linear-time claim for
/// UDT. Every node's row comes from one place, so the CSR is assembled
/// without sorting: a row of degree at most `k` is copied as it is, and
/// the topology's edges are placed into their sources' rows in
/// attachment order by one counting pass.
///
/// # Panics
///
/// Panics if `k == 0` (Definition 1 requires `K ≥ 1`).
pub fn apply_split(
    topology: &dyn SplitTopology,
    g: &Csr,
    k: u32,
    dumb: DumbWeight,
) -> TransformedGraph {
    let SplitEdges {
        edges: family,
        family_root,
    } = split_edges(topology, g, k, dumb);
    let whole = |v: NodeId| g.out_degree(v) <= k as usize;
    let total_nodes = family_root.len();
    let num_new_edges = family.iter().filter(|e| e.3).count();
    let keep_weights = dumb.keeps_weights() && (g.is_weighted() || num_new_edges > 0);

    let mut row_ptr = vec![0usize; total_nodes + 1];
    for v in g.nodes().filter(|&v| whole(v)) {
        row_ptr[v.index() + 1] = g.out_degree(v);
    }
    for e in &family {
        row_ptr[e.0.index() + 1] += 1;
    }
    for v in 0..total_nodes {
        row_ptr[v + 1] += row_ptr[v];
    }
    let m = row_ptr[total_nodes];
    let mut col_idx = vec![NodeId::new(0); m];
    let mut weights = vec![1 as Weight; if keep_weights { m } else { 0 }];
    let mut new_edge_flags = vec![false; m];
    for v in g.nodes().filter(|&v| whole(v)) {
        let row = row_ptr[v.index()]..row_ptr[v.index() + 1];
        col_idx[row.clone()].copy_from_slice(g.neighbors(v));
        if let (true, Some(w)) = (keep_weights, g.neighbor_weights(v)) {
            weights[row].copy_from_slice(w);
        }
    }
    let mut next = row_ptr[..total_nodes].to_vec();
    for &(src, dst, w, new) in &family {
        let slot = &mut next[src.index()];
        col_idx[*slot] = dst;
        if keep_weights {
            weights[*slot] = w;
        }
        new_edge_flags[*slot] = new;
        *slot += 1;
    }

    TransformedGraph {
        graph: Csr::from_parts(row_ptr, col_idx, keep_weights.then_some(weights)),
        original_nodes: g.num_nodes(),
        family_root,
        new_edge_flags,
        num_new_edges,
        k,
        topology: topology.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::star_graph;

    struct NoopTopology;
    impl SplitTopology for NoopTopology {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn split_node(&self, ctx: &mut SplitContext<'_>, root: NodeId, stubs: &[EdgeStub]) {
            // Pathological "split" that re-attaches everything to the root.
            for &s in stubs {
                ctx.attach_original(root, s);
            }
        }
    }

    #[test]
    fn low_degree_graphs_pass_through() {
        let g = tigr_graph::generators::ring_lattice(10, 2);
        let t = apply_split(&NoopTopology, &g, 5, DumbWeight::Unweighted);
        assert_eq!(t.graph().num_nodes(), 10);
        assert_eq!(t.graph().num_edges(), 20);
        assert_eq!(t.num_split_nodes(), 0);
        assert_eq!(t.num_new_edges(), 0);
        assert_eq!(t.topology(), "noop");
        assert!(!t.graph().is_weighted());
    }

    #[test]
    fn family_roots_identity_for_originals() {
        let g = star_graph(5);
        let t = apply_split(&NoopTopology, &g, 100, DumbWeight::Zero);
        for v in g.nodes() {
            assert_eq!(t.family_root(v), v);
        }
    }

    #[test]
    fn context_allocates_sequential_ids() {
        struct OneNode;
        impl SplitTopology for OneNode {
            fn name(&self) -> &'static str {
                "one"
            }
            fn split_node(&self, ctx: &mut SplitContext<'_>, root: NodeId, stubs: &[EdgeStub]) {
                let s = ctx.alloc_node(root);
                ctx.attach_new(root, s);
                for &stub in stubs {
                    ctx.attach_original(s, stub);
                }
            }
        }
        let g = star_graph(6); // hub degree 5
        let t = apply_split(&OneNode, &g, 2, DumbWeight::Zero);
        assert_eq!(t.original_nodes(), 6);
        assert_eq!(t.num_split_nodes(), 1);
        assert_eq!(t.family_root(NodeId::new(6)), NodeId::new(0));
        assert_eq!(t.num_new_edges(), 1);
        // New edge carries the dumb weight 0.
        let w = t.graph().neighbor_weights(NodeId::new(0)).unwrap();
        assert_eq!(w, &[0]);
    }

    #[test]
    fn project_values_truncates() {
        let g = star_graph(4);
        let t = apply_split(&NoopTopology, &g, 1000, DumbWeight::Zero);
        let vals = vec![9u32; t.graph().num_nodes()];
        assert_eq!(t.project_values(&vals).len(), 4);
    }

    #[test]
    fn section_bytes_round_trip() {
        let g = star_graph(20); // hub degree 19
        let t = udt_transform(&g, 4, DumbWeight::Zero);
        let bytes = t.section().to_vec();
        let back = TransformedGraph::from_section_bytes(&bytes).unwrap();
        assert_eq!(back.graph(), t.graph());
        assert_eq!(back.original_nodes(), t.original_nodes());
        assert_eq!(back.num_new_edges(), t.num_new_edges());
        assert_eq!(back.k(), t.k());
        assert_eq!(back.topology(), t.topology());
        for v in back.graph().nodes() {
            assert_eq!(back.family_root(v), t.family_root(v));
        }
        for e in 0..back.graph().num_edges() {
            assert_eq!(back.is_new_edge(e), t.is_new_edge(e));
        }
    }

    #[test]
    fn section_bytes_reject_corruption() {
        let g = star_graph(12);
        let t = udt_transform(&g, 3, DumbWeight::Zero);
        let bytes = t.section().to_vec();
        for cut in 0..bytes.len() {
            assert!(TransformedGraph::from_section_bytes(&bytes[..cut]).is_err());
        }
        let longer = [&bytes[..], &[0]].concat();
        assert!(TransformedGraph::from_section_bytes(&longer).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 99;
        assert!(TransformedGraph::from_section_bytes(&bad_tag).is_err());
        // Flipping a new-edge flag breaks the num_new_edges invariant.
        let mut bad_flag = bytes.clone();
        let last = bad_flag.len() - 1;
        bad_flag[last] ^= 1;
        assert!(TransformedGraph::from_section_bytes(&bad_flag).is_err());
    }

    #[test]
    #[should_panic(expected = "degree bound K must be at least 1")]
    fn k_zero_rejected() {
        let g = star_graph(3);
        let _ = apply_split(&NoopTopology, &g, 0, DumbWeight::Zero);
    }
}
