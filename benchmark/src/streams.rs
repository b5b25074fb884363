//! Seeded inputs: sources, request streams, and mutation batches.
//!
//! The program under test only ever sees what is generated here, and
//! one `--seed` always generates the same bytes.

use std::collections::HashMap;

use tigr_core::MutationOp;
use tigr_graph::{Csr, Edge, NodeId};
use tigr_server::{Algo, QueryRequest};

use crate::rng::Rng;
use crate::setup::GRAPH;

/// Ops per mutate batch: 384 add-edge, 64 remove-edge, 64 set-weight.
/// Sized so one batch costs milliseconds — at 64 ops a batch was
/// 0.26–0.30 ms, too small to repeat.
pub const BATCH_ADDS: usize = 384;
/// Removals per batch (of edges the stream added earlier).
pub const BATCH_REMOVES: usize = 64;
/// Weight changes per batch (of edges the stream added earlier).
pub const BATCH_REWEIGHTS: usize = 64;
/// Total ops per batch.
pub const BATCH_OPS: usize = BATCH_ADDS + BATCH_REMOVES + BATCH_REWEIGHTS;

/// Sources a query may start from: nodes with at least one out-edge.
/// Almost half of an R-MAT graph's nodes have none, and a query from
/// one of them returns at once — mixing the two populations would make
/// the median flip between them from seed to seed.
#[derive(Clone, Debug)]
pub struct SourcePool {
    nodes: Vec<u32>,
}

impl SourcePool {
    /// The pool of `g`.
    pub fn of(g: &Csr) -> SourcePool {
        SourcePool {
            nodes: (0..g.num_nodes() as u32)
                .filter(|&v| g.out_degree(NodeId::new(v)) > 0)
                .collect(),
        }
    }

    /// A uniform draw.
    pub fn pick(&self, rng: &mut Rng) -> u32 {
        self.nodes[rng.below(self.nodes.len())]
    }

    /// `count` distinct draws (fewer if the pool is smaller).
    pub fn pick_distinct(&self, rng: &mut Rng, count: usize) -> Vec<u32> {
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count.min(self.nodes.len()) {
            let v = self.pick(rng);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// A default request (`cache:true`, no values).
pub fn query(algo: Algo, source: u32) -> QueryRequest {
    QueryRequest::new(GRAPH, algo, Some(source))
}

/// `query` that bypasses the result cache.
pub fn uncached(algo: Algo, source: u32) -> QueryRequest {
    QueryRequest {
        cache: false,
        ..query(algo, source)
    }
}

/// PageRank with `cache:false`: the longest op the server runs.
pub fn pagerank() -> QueryRequest {
    QueryRequest {
        cache: false,
        ..QueryRequest::new(GRAPH, Algo::Pr, None)
    }
}

/// The `i`-th request of a `serve_cold` client: `bfs`/`sssp`/`sswp` in
/// rotation from a uniform random source.
pub fn cold_request(i: u64, pool: &SourcePool, rng: &mut Rng) -> QueryRequest {
    const ROTATION: [Algo; 3] = [Algo::Bfs, Algo::Sssp, Algo::Sswp];
    query(ROTATION[(i % 3) as usize], pool.pick(rng))
}

/// Generates mutation batches against a fixed original graph and keeps
/// the model of what the graph must look like afterwards.
///
/// Only edges absent from the original are added, and only edges added
/// since the last [`MutationStream::compacted`] are removed or
/// re-weighted, so every op applies (none is a skip), every removal
/// stays inside the delta overlay, and the expected final edge list is
/// simply *original ∪ still-alive additions*. (Removing an edge that
/// compaction has already folded into the base makes every later dirty
/// query pay a hash lookup per base edge — about 4x slower and twice as
/// scattered; the README records it, the workload stays off it.)
#[derive(Debug)]
pub struct MutationStream {
    rng: Rng,
    /// Alive additions still in the delta, in insertion order (never
    /// iterate the map).
    recent: Vec<(u32, u32)>,
    /// Alive additions compaction has folded into the base.
    sealed: Vec<(u32, u32)>,
    weights: HashMap<(u32, u32), u32>,
}

impl MutationStream {
    /// A stream drawing from `rng`.
    pub fn new(rng: Rng) -> MutationStream {
        MutationStream {
            rng,
            recent: Vec::new(),
            sealed: Vec::new(),
            weights: HashMap::new(),
        }
    }

    /// The next batch of [`BATCH_OPS`] ops over `original`.
    pub fn next_batch(&mut self, original: &Csr) -> Vec<MutationOp> {
        let n = original.num_nodes();
        let mut ops = Vec::with_capacity(BATCH_OPS);
        while ops.len() < BATCH_ADDS {
            let (u, v) = (self.rng.below(n) as u32, self.rng.below(n) as u32);
            if u == v
                || self.weights.contains_key(&(u, v))
                || original.neighbors(NodeId::new(u)).contains(&NodeId::new(v))
            {
                continue;
            }
            let w = self.rng.range(1, 64);
            self.recent.push((u, v));
            self.weights.insert((u, v), w);
            ops.push(MutationOp::AddEdge { u, v, w });
        }
        for _ in 0..BATCH_REMOVES {
            let (u, v) = self.recent.swap_remove(self.rng.below(self.recent.len()));
            self.weights.remove(&(u, v));
            ops.push(MutationOp::RemoveEdge { u, v });
        }
        for _ in 0..BATCH_REWEIGHTS {
            let (u, v) = self.recent[self.rng.below(self.recent.len())];
            let weight = self
                .weights
                .get_mut(&(u, v))
                .expect("alive edges have weights");
            // Always a different weight: an equal one would be a skip.
            *weight = *weight % 64 + 1;
            ops.push(MutationOp::SetWeight { u, v, w: *weight });
        }
        ops
    }

    /// Tells the stream a compaction folded the delta into the base:
    /// later batches leave the edges added so far alone.
    pub fn compacted(&mut self) {
        self.sealed.append(&mut self.recent);
    }

    /// The edge list the mutated graph must equal: `original` plus the
    /// alive additions at their current weights.
    pub fn expected_edges(&self, original: &Csr) -> Vec<Edge> {
        let mut edges: Vec<Edge> = original.edges().collect();
        edges.extend(
            self.sealed
                .iter()
                .chain(&self.recent)
                .map(|&(u, v)| Edge::new(NodeId::new(u), NodeId::new(v), self.weights[&(u, v)])),
        );
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::{GraphStore, PrepareSpec};
    use tigr_server::{encode_request, Request};

    fn small_graph() -> Csr {
        GraphStore::disabled()
            .prepare(&PrepareSpec::generated("rmat:8:8", 1).with_uniform_weights(1, 64, 1))
            .expect("generated graphs always prepare")
            .into_graph()
    }

    /// Wire bytes of the first requests and batches `seed` generates.
    fn wire_bytes(g: &Csr, seed: u64) -> String {
        let pool = SourcePool::of(g);
        let mut rng = Rng::new(seed, 0);
        let mut lines: Vec<String> = (0..64)
            .map(|i| encode_request(&Request::Query(cold_request(i, &pool, &mut rng))))
            .collect();
        for source in pool.pick_distinct(&mut rng, 16) {
            lines.push(encode_request(&Request::Query(uncached(
                Algo::Sssp,
                source,
            ))));
        }
        let mut stream = MutationStream::new(Rng::new(seed, 1));
        for _ in 0..3 {
            lines.push(encode_request(&Request::Mutate {
                graph: GRAPH.to_owned(),
                ops: stream.next_batch(g),
            }));
        }
        lines.join("\n")
    }

    #[test]
    fn one_seed_yields_byte_identical_streams() {
        let g = small_graph();
        assert_eq!(wire_bytes(&g, 7), wire_bytes(&g, 7));
        assert_ne!(wire_bytes(&g, 7), wire_bytes(&g, 8));
    }

    #[test]
    fn batches_have_the_documented_shape_and_never_skip() {
        let g = small_graph();
        let mut stream = MutationStream::new(Rng::new(3, 1));
        let mut overlay = tigr_core::DeltaOverlay::new(&g);
        for round in 0..4 {
            if round == 2 {
                stream.compacted();
            }
            let ops = stream.next_batch(&g);
            assert_eq!(ops.len(), BATCH_OPS);
            let adds = ops
                .iter()
                .filter(|op| matches!(op, MutationOp::AddEdge { .. }))
                .count();
            assert_eq!(adds, BATCH_ADDS);
            for op in ops {
                assert!(
                    overlay.apply(&g, op).expect("valid op"),
                    "{op:?} was a skip"
                );
            }
        }
        let mut expected = stream.expected_edges(&g);
        let mut merged = overlay.merged_edges(&g);
        expected.sort_by_key(|e| (e.src, e.dst, e.weight));
        merged.sort_by_key(|e| (e.src, e.dst, e.weight));
        assert_eq!(expected, merged);
    }

    #[test]
    fn sources_always_have_out_edges() {
        let g = small_graph();
        let pool = SourcePool::of(&g);
        let mut rng = Rng::new(1, 0);
        for _ in 0..256 {
            assert!(g.out_degree(NodeId::new(pool.pick(&mut rng))) > 0);
        }
        let distinct = pool.pick_distinct(&mut rng, 32);
        let mut sorted = distinct.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), distinct.len());
    }
}
