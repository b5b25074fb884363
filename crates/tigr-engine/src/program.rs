//! Vertex-program abstraction for the monotone push analytics.
//!
//! BFS, SSSP, SSWP, and CC share the structure of Figure 2 / Algorithm 2:
//! a per-node `u32` value, an edge function computing a candidate for the
//! neighbor, and a monotone combine folding candidates into the
//! neighbor's slot. PageRank and BC do not fit the monotone mold and get
//! dedicated drivers ([`crate::algorithms::pr`], [`crate::algorithms::bc`]).

use tigr_graph::{NodeId, Weight};

use crate::state::Combine;

/// Evaluates `$body` with `$apply` bound to the edge function of a
/// runtime [`EdgeOp`] — a closure `(value, weight) -> candidate` of its
/// own type per arm, so whatever `$body` calls with it is instantiated per
/// operator and the `match` runs once, outside it. The arithmetic of each
/// operator is written here and nowhere else ([`EdgeOp::apply`] is a use
/// of this macro).
macro_rules! resolve_edge_op {
    ($op:expr, |$apply:ident| $body:expr) => {
        match $op {
            $crate::program::EdgeOp::AddWeight => {
                let $apply = |value: u32, weight: tigr_graph::Weight| value.saturating_add(weight);
                $body
            }
            $crate::program::EdgeOp::MinWeight => {
                let $apply = |value: u32, weight: tigr_graph::Weight| value.min(weight);
                $body
            }
            $crate::program::EdgeOp::Copy => {
                let $apply = |value: u32, _weight: tigr_graph::Weight| value;
                $body
            }
            $crate::program::EdgeOp::AddUnit => {
                let $apply = |value: u32, _weight: tigr_graph::Weight| value.saturating_add(1);
                $body
            }
            $crate::program::EdgeOp::AddWeightCapped(cap) => {
                let $apply = move |value: u32, weight: tigr_graph::Weight| {
                    let cand = value.saturating_add(weight);
                    if cand > cap {
                        u32::MAX
                    } else {
                        cand
                    }
                };
                $body
            }
        }
    };
}
pub(crate) use resolve_edge_op;

/// How a node's value and an edge weight produce the candidate pushed to
/// the neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// `candidate = value + weight` (saturating): SSSP paths; BFS with
    /// all-1 weights; zero dumb weights are inert (Corollary 2).
    AddWeight,
    /// `candidate = min(value, weight)`: SSWP bottlenecks; infinite dumb
    /// weights are inert (Corollary 3).
    MinWeight,
    /// `candidate = value`: label propagation for CC; weights ignored.
    Copy,
    /// `candidate = value + 1` (saturating), weight ignored: true hop
    /// counts (k-hop neighborhoods) even on weighted graphs. Unlike
    /// [`EdgeOp::AddWeight`] there is no inert dumb weight, so physical
    /// splits inflate the count by one per split edge — plan validation
    /// rejects it over UDT representations.
    AddUnit,
    /// `candidate = value + weight`, but candidates above the cap
    /// collapse to `∞`: bounded-cost reachability (SSSP with a radius
    /// cutoff). With non-negative weights every prefix of a within-cap
    /// path is itself within the cap, so the fixpoint equals plain SSSP
    /// clamped at the radius. Zero dumb weights stay inert
    /// (`∞ + 0 = ∞`, and a within-cap value survives adding zero).
    AddWeightCapped(u32),
}

impl EdgeOp {
    /// Applies the edge function.
    #[inline]
    pub fn apply(self, value: u32, weight: Weight) -> u32 {
        resolve_edge_op!(self, |apply| apply(value, weight))
    }

    /// Whether the op admits an inert dumb-weight assignment (Corollary
    /// 2/3): a physically split graph with that assignment computes the
    /// same fixpoint. [`EdgeOp::AddUnit`] charges every edge — split
    /// edges included — so no assignment keeps it exact.
    pub fn split_invariant(self) -> bool {
        !matches!(self, EdgeOp::AddUnit)
    }
}

/// How per-node values are initialized before iteration 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitKind {
    /// Source gets `0`, everyone else the combine identity (`∞`): SSSP,
    /// BFS.
    SourceZero,
    /// Source gets `∞`, everyone else `0`: SSWP.
    SourceMax,
    /// Every node starts with its own id: CC label propagation
    /// (no source).
    OwnId,
}

/// A monotone push-based vertex program: the engine-facing description of
/// one of the paper's analytics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MonotoneProgram {
    /// Short name used in reports ("sssp", "bfs", ...).
    pub name: &'static str,
    /// Candidate computation along an edge.
    pub edge_op: EdgeOp,
    /// Monotone fold at the destination.
    pub combine: Combine,
    /// Initialization scheme.
    pub init: InitKind,
    /// Whether `combine` is associative (and commutative). Theorem 3
    /// licenses pull/gather over split representations — where one
    /// node's fold is partitioned across threads — only for associative
    /// combines applied atomically; plan validation enforces this.
    pub associative: bool,
}

impl MonotoneProgram {
    /// Single-source shortest paths (Figure 2, Algorithm 2).
    pub const SSSP: MonotoneProgram = MonotoneProgram {
        name: "sssp",
        edge_op: EdgeOp::AddWeight,
        combine: Combine::Min,
        init: InitKind::SourceZero,
        associative: true,
    };

    /// Breadth-first search as SSSP over unit weights (§3.3): the same
    /// edge function ([`EdgeOp::AddWeight`]) as [`MonotoneProgram::SSSP`],
    /// so it yields hop levels only on an unweighted graph (every weight
    /// 1); on a weighted graph its values are shortest-path distances.
    /// [`MonotoneProgram::KHOP`] counts hops whatever the weights.
    pub const BFS: MonotoneProgram = MonotoneProgram {
        name: "bfs",
        edge_op: EdgeOp::AddWeight,
        combine: Combine::Min,
        init: InitKind::SourceZero,
        associative: true,
    };

    /// Single-source widest path.
    pub const SSWP: MonotoneProgram = MonotoneProgram {
        name: "sswp",
        edge_op: EdgeOp::MinWeight,
        combine: Combine::Max,
        init: InitKind::SourceMax,
        associative: true,
    };

    /// Hop counts regardless of edge weights: every relaxation adds one
    /// ([`EdgeOp::AddUnit`]). The k-hop pipeline masks values above `k`
    /// afterwards; the fixpoint itself is `k`-independent, which is what
    /// lets mixed-`k` queries share a fused batch lane.
    pub const KHOP: MonotoneProgram = MonotoneProgram {
        name: "khop",
        edge_op: EdgeOp::AddUnit,
        combine: Combine::Min,
        init: InitKind::SourceZero,
        associative: true,
    };

    /// Connected components by min-label propagation. On directed inputs
    /// this computes reachability-closed labels; run it on a symmetrized
    /// graph to obtain the weakly connected components of the oracle.
    pub const CC: MonotoneProgram = MonotoneProgram {
        name: "cc",
        edge_op: EdgeOp::Copy,
        combine: Combine::Min,
        init: InitKind::OwnId,
        associative: true,
    };

    /// Whether the program needs a source node.
    pub fn needs_source(&self) -> bool {
        !matches!(self.init, InitKind::OwnId)
    }

    /// Initial values for `n` nodes with optional `source`.
    ///
    /// # Panics
    ///
    /// Panics if the program needs a source and none is given, or the
    /// source is out of range.
    pub fn initial_values(&self, n: usize, source: Option<NodeId>) -> Vec<u32> {
        match self.init {
            InitKind::OwnId => (0..n as u32).collect(),
            InitKind::SourceZero | InitKind::SourceMax => {
                let src = source.expect("program requires a source node");
                assert!(src.index() < n, "source out of range");
                let (src_val, rest) = match self.init {
                    InitKind::SourceZero => (0, u32::MAX),
                    _ => (u32::MAX, 0),
                };
                let mut vals = vec![rest; n];
                vals[src.index()] = src_val;
                vals
            }
        }
    }

    /// Nodes initially active (worklist seed): the source, or every node
    /// for source-free programs.
    pub fn initial_frontier(&self, n: usize, source: Option<NodeId>) -> Vec<u32> {
        if self.needs_source() {
            vec![source.expect("program requires a source node").raw()]
        } else {
            (0..n as u32).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_ops() {
        assert_eq!(EdgeOp::AddWeight.apply(5, 3), 8);
        assert_eq!(EdgeOp::AddWeight.apply(u32::MAX, 3), u32::MAX, "∞ absorbs");
        assert_eq!(EdgeOp::MinWeight.apply(5, 3), 3);
        assert_eq!(EdgeOp::MinWeight.apply(2, 9), 2);
        assert_eq!(EdgeOp::Copy.apply(7, 100), 7);
        assert_eq!(EdgeOp::AddUnit.apply(4, 100), 5, "weight ignored");
        assert_eq!(EdgeOp::AddUnit.apply(u32::MAX, 1), u32::MAX, "∞ absorbs");
        assert_eq!(EdgeOp::AddWeightCapped(10).apply(5, 3), 8);
        assert_eq!(
            EdgeOp::AddWeightCapped(10).apply(5, 6),
            u32::MAX,
            "over cap"
        );
        assert_eq!(EdgeOp::AddWeightCapped(10).apply(10, 0), 10, "at cap");
        assert_eq!(EdgeOp::AddWeightCapped(10).apply(u32::MAX, 0), u32::MAX);
    }

    #[test]
    fn split_invariance_flags() {
        assert!(EdgeOp::AddWeight.split_invariant());
        assert!(EdgeOp::MinWeight.split_invariant());
        assert!(EdgeOp::Copy.split_invariant());
        assert!(EdgeOp::AddWeightCapped(7).split_invariant());
        assert!(!EdgeOp::AddUnit.split_invariant());
    }

    #[test]
    fn sssp_initialization_matches_figure_2() {
        let v = MonotoneProgram::SSSP.initial_values(4, Some(NodeId::new(1)));
        assert_eq!(v, vec![u32::MAX, 0, u32::MAX, u32::MAX]);
    }

    #[test]
    fn sswp_initialization_inverts() {
        let v = MonotoneProgram::SSWP.initial_values(3, Some(NodeId::new(0)));
        assert_eq!(v, vec![u32::MAX, 0, 0]);
    }

    #[test]
    fn cc_initialization_needs_no_source() {
        assert!(!MonotoneProgram::CC.needs_source());
        assert_eq!(MonotoneProgram::CC.initial_values(3, None), vec![0, 1, 2]);
        assert_eq!(MonotoneProgram::CC.initial_frontier(3, None), vec![0, 1, 2]);
    }

    #[test]
    fn source_programs_seed_frontier_with_source() {
        assert_eq!(
            MonotoneProgram::BFS.initial_frontier(10, Some(NodeId::new(7))),
            vec![7]
        );
    }

    #[test]
    #[should_panic(expected = "requires a source")]
    fn missing_source_panics() {
        let _ = MonotoneProgram::SSSP.initial_values(3, None);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn oversized_source_panics() {
        let _ = MonotoneProgram::SSSP.initial_values(3, Some(NodeId::new(9)));
    }
}
