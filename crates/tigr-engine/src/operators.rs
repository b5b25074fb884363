//! Operator-based algorithm API: an analytic is *data*.
//!
//! A [`Pipeline`] is a short sequence of [`GraphOperator`]s — `Advance`
//! (traverse an edge space, folding candidates into per-node slots),
//! `Filter` (keep only improved nodes as the next frontier, with
//! dedup), and `Compute` (a per-vertex post-pass) — in the Gunrock
//! vocabulary the ROADMAP's "Operator-based algorithm API" item calls
//! for. Each operator carries typed capabilities ([`OperatorCaps`]):
//! whether its fold is monotone, whether its combine is associative
//! (Theorem 3's pull licence), whether a physically split (UDT)
//! representation preserves its fixpoint (Corollary 2/3's dumb-weight
//! argument), and whether it needs a transpose. Plan validation
//! ([`crate::ExecutionPlan::validate_pipeline`]) checks the pipeline's
//! folded capabilities against the representation instead of
//! special-casing algorithm names.
//!
//! [`crate::Engine::run_pipeline`] is the one entry point of every
//! analytic: the six paper analytics are pipeline constructors over the
//! [`MonotoneProgram`]/[`crate::kernel`] drivers, and the output carries
//! the driver's meter. Four serving workloads are new pipelines:
//!
//! * [`Pipeline::khop`] — hop counts via [`EdgeOp::AddUnit`] plus a
//!   [`ComputeStep::MaskAbove`] post-pass (`> k` → unreached).
//! * [`Pipeline::bounded_paths`] — SSSP with a radius cutoff
//!   ([`EdgeOp::AddWeightCapped`]) plus deterministic predecessor
//!   extraction ([`ComputeStep::Predecessors`]).
//! * [`Pipeline::label_propagation`] — the CC program run for a fixed
//!   number of synchronous (BSP) rounds.
//! * [`Pipeline::triangle_count`] — per-node triangle counts of the
//!   simple undirected closure ([`ComputeStep::TriangleCount`]).

use std::fmt;

use tigr_graph::{Csr, NodeId};
use tigr_sim::SimReport;

use crate::algorithms::pr::PrOptions;
use crate::plan::Direction;
use crate::program::{EdgeOp, InitKind, MonotoneProgram};
use crate::state::Combine;

/// The edge space an [`GraphOperator::Advance`] traverses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceSpace {
    /// Scatter along out-edges (fixed by the algorithm).
    OutEdges,
    /// Gather along in-edges over the transpose (fixed by the
    /// algorithm).
    InEdges,
    /// The plan's [`crate::Direction`] picks push (out-edges), pull
    /// (in-edges), or the Beamer auto switch — and the advance runs
    /// over virtual-node chunks when the representation is virtual.
    PlanChosen,
}

/// What an [`GraphOperator::Advance`] folds along each traversed edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdvanceRelax {
    /// A monotone `u32` fold through [`EdgeOp::apply`] — the
    /// `relax_kernel`/`pull_gather` layer. BFS/SSSP/SSWP/CC and the
    /// k-hop / bounded-path workloads.
    Monotone {
        /// Candidate computation along an edge.
        edge_op: EdgeOp,
        /// Monotone fold at the destination.
        combine: Combine,
        /// Initialization scheme.
        init: InitKind,
        /// Whether the combine is associative (Theorem 3).
        associative: bool,
    },
    /// `rank/out_degree` contributions summed at the destination
    /// (PageRank). Associative but not monotone, and dependent on the
    /// original out-degrees, which UDT splitting rewrites.
    RankContribution,
    /// Level-synchronous shortest-path counting plus dependency
    /// back-propagation (Brandes betweenness). Sigma sums are
    /// associative; split vertices would absorb centrality mass.
    ShortestPathCounts,
}

/// A per-vertex post-pass at the end of a pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeStep {
    /// Values above the bound collapse to `u32::MAX` (k-hop masking).
    MaskAbove(u32),
    /// Appends a deterministic predecessor array to the distance array:
    /// for each reached node, the minimum-id in-neighbor whose
    /// relaxation reproduces the node's final distance (the source is
    /// its own predecessor; unreached nodes get `u32::MAX`). Needs the
    /// original adjacency.
    Predecessors,
    /// Per-node triangle counts of the simple undirected closure of the
    /// graph (self-loops and multi-edges dropped). Needs the original
    /// adjacency.
    TriangleCount,
    /// Reinterprets `f32` results as `u32` bit patterns so PR/BC travel
    /// the same wire format as the monotone analytics.
    FloatBits,
}

impl ComputeStep {
    /// Whether the step reads the graph's adjacency (not just the value
    /// array) and is therefore unsound over a physically split
    /// representation, whose adjacency is rewired.
    pub fn needs_original_adjacency(self) -> bool {
        matches!(self, ComputeStep::Predecessors | ComputeStep::TriangleCount)
    }
}

/// One stage of a [`Pipeline`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphOperator {
    /// Traverse an edge space, folding candidates into per-node slots.
    Advance {
        /// Which edges the advance walks.
        space: AdvanceSpace,
        /// What it folds along each edge.
        relax: AdvanceRelax,
    },
    /// Keep only the nodes whose slot improved as the next frontier.
    Filter {
        /// Whether a node activated by several improving edges appears
        /// once (the engine's frontier builder always dedups; `false`
        /// marks full-sweep pipelines that keep no frontier at all).
        dedup: bool,
    },
    /// A per-vertex post-pass.
    Compute(ComputeStep),
}

/// Typed capabilities of one operator; plan validation checks the
/// pipeline's fold of these against the representation and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperatorCaps {
    /// Values only ever improve under the combine, so relaxed
    /// (non-BSP) schedules converge to the same fixpoint.
    pub monotone: bool,
    /// The fold may be partitioned across threads and merged atomically
    /// (Theorem 3's licence for pull over split views).
    pub associative: bool,
    /// A physically split (UDT) representation with inert dumb weights
    /// computes the same answer (Corollary 2/3).
    pub split_invariant: bool,
    /// The operator walks in-edges and needs a transpose view.
    pub needs_transpose: bool,
}

impl OperatorCaps {
    /// The identity of the capability fold: fully capable.
    const NEUTRAL: OperatorCaps = OperatorCaps {
        monotone: true,
        associative: true,
        split_invariant: true,
        needs_transpose: false,
    };

    fn and(self, other: OperatorCaps) -> OperatorCaps {
        OperatorCaps {
            monotone: self.monotone && other.monotone,
            associative: self.associative && other.associative,
            split_invariant: self.split_invariant && other.split_invariant,
            needs_transpose: self.needs_transpose || other.needs_transpose,
        }
    }
}

impl GraphOperator {
    /// The operator's typed capabilities.
    pub fn caps(&self) -> OperatorCaps {
        match self {
            GraphOperator::Advance { space, relax } => {
                let needs_transpose = *space == AdvanceSpace::InEdges;
                match relax {
                    AdvanceRelax::Monotone {
                        edge_op,
                        associative,
                        ..
                    } => OperatorCaps {
                        monotone: true,
                        associative: *associative,
                        split_invariant: edge_op.split_invariant(),
                        needs_transpose,
                    },
                    AdvanceRelax::RankContribution => OperatorCaps {
                        monotone: false,
                        associative: true,
                        // UDT rewrites the out-degrees PR divides by.
                        split_invariant: false,
                        needs_transpose,
                    },
                    AdvanceRelax::ShortestPathCounts => OperatorCaps {
                        monotone: false,
                        associative: true,
                        // Split vertices absorb dependency mass.
                        split_invariant: false,
                        needs_transpose,
                    },
                }
            }
            GraphOperator::Filter { .. } => OperatorCaps::NEUTRAL,
            GraphOperator::Compute(step) => OperatorCaps {
                split_invariant: !step.needs_original_adjacency(),
                ..OperatorCaps::NEUTRAL
            },
        }
    }
}

/// The algorithm vocabulary the CLI and server share: one table, one
/// registration point per verb. [`Algo::parse`]/[`Algo::label`] are the
/// single name ↔ verb mapping; `tigr run`, `tigr query`, and the server
/// protocol all dispatch through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-first search (hop levels over unit weights).
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Single-source widest paths.
    Sswp,
    /// Connected components (min-label propagation to fixpoint).
    Cc,
    /// PageRank (ranks as `f32` bit patterns).
    Pr,
    /// Single-source betweenness centrality (scores as bit patterns).
    Bc,
    /// k-hop neighborhood: hop counts masked above `k`.
    Khop,
    /// Bounded-cost paths: SSSP with a radius cutoff plus predecessors.
    Paths,
    /// Label propagation for a fixed number of synchronous rounds.
    Lp,
    /// Per-node triangle counts of the undirected closure.
    Tc,
}

impl Algo {
    /// Every verb, in protocol order.
    pub const ALL: [Algo; 10] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Sswp,
        Algo::Cc,
        Algo::Pr,
        Algo::Bc,
        Algo::Khop,
        Algo::Paths,
        Algo::Lp,
        Algo::Tc,
    ];

    /// Stable lowercase wire/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Sswp => "sswp",
            Algo::Cc => "cc",
            Algo::Pr => "pr",
            Algo::Bc => "bc",
            Algo::Khop => "khop",
            Algo::Paths => "paths",
            Algo::Lp => "lp",
            Algo::Tc => "tc",
        }
    }

    /// Parses a label (and its aliases) back to the verb.
    pub fn parse(s: &str) -> Option<Algo> {
        match s.to_ascii_lowercase().as_str() {
            "bfs" => Some(Algo::Bfs),
            "sssp" => Some(Algo::Sssp),
            "sswp" => Some(Algo::Sswp),
            "cc" => Some(Algo::Cc),
            "pr" | "pagerank" => Some(Algo::Pr),
            "bc" | "betweenness" => Some(Algo::Bc),
            "khop" | "k-hop" => Some(Algo::Khop),
            "paths" | "bounded-paths" => Some(Algo::Paths),
            "lp" | "label-propagation" => Some(Algo::Lp),
            "tc" | "triangles" => Some(Algo::Tc),
            _ => None,
        }
    }

    /// Whether the verb takes a source node.
    pub fn needs_source(self) -> bool {
        !matches!(self, Algo::Cc | Algo::Pr | Algo::Lp | Algo::Tc)
    }

    /// Whether the verb takes a `limit` parameter (and what it means —
    /// see [`Algo::limit_name`]).
    pub fn needs_limit(self) -> bool {
        matches!(self, Algo::Khop | Algo::Paths | Algo::Lp)
    }

    /// Human name of the verb's `limit` parameter, if it takes one.
    pub fn limit_name(self) -> Option<&'static str> {
        match self {
            Algo::Khop => Some("k"),
            Algo::Paths => Some("radius"),
            Algo::Lp => Some("rounds"),
            _ => None,
        }
    }

    /// Whether the server's batch former may fuse queries of this verb
    /// into multi-source lanes: monotone fixpoint pipelines whose
    /// post-pass (if any) is per-lane. PR/BC run dedicated drivers;
    /// bounded paths needs its adjacency post-pass per lane and label
    /// propagation pins its own schedule — all solo.
    pub fn batchable(self) -> bool {
        matches!(
            self,
            Algo::Bfs | Algo::Sssp | Algo::Sswp | Algo::Cc | Algo::Khop
        )
    }

    /// All known labels, comma-joined — the `unknown-algo` error
    /// payload.
    pub fn known_labels() -> String {
        let labels: Vec<&str> = Algo::ALL.iter().map(|a| a.label()).collect();
        labels.join(", ")
    }
}

/// A verb/parameter combination that does not form a pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineSpecError {
    /// The verb needs a limit parameter and none was given.
    MissingLimit {
        /// The offending verb.
        algo: Algo,
    },
    /// The verb takes no limit parameter but one was given.
    UnexpectedLimit {
        /// The offending verb.
        algo: Algo,
    },
}

impl fmt::Display for PipelineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineSpecError::MissingLimit { algo } => write!(
                f,
                "algo `{}` requires a limit ({})",
                algo.label(),
                algo.limit_name().unwrap_or("limit"),
            ),
            PipelineSpecError::UnexpectedLimit { algo } => {
                write!(f, "algo `{}` takes no limit parameter", algo.label())
            }
        }
    }
}

impl std::error::Error for PipelineSpecError {}

/// How [`crate::Engine::run_pipeline`] lowers the pipeline onto the
/// existing kernel layer. Private: the operator list is the public
/// description, the body is the compilation target.
#[derive(Clone, Debug)]
pub(crate) enum PipelineBody {
    /// The monotone fixpoint machinery (`relax_kernel`/`pull_gather`),
    /// optionally capped at a fixed number of synchronous rounds,
    /// optionally followed by a value post-pass.
    Monotone {
        prog: MonotoneProgram,
        rounds: Option<usize>,
        post: Option<ComputeStep>,
    },
    /// The PageRank power-iteration driver; ranks as bit patterns.
    PageRank(PrOptions),
    /// The Brandes betweenness driver; scores as bit patterns.
    Betweenness,
    /// No traversal at all: one per-vertex compute over the graph.
    ComputeOnly(ComputeStep),
}

/// An algorithm as data: named operator stages plus the compilation
/// body the engine lowers onto the kernel layer.
#[derive(Clone, Debug)]
pub struct Pipeline {
    name: &'static str,
    ops: Vec<GraphOperator>,
    pub(crate) body: PipelineBody,
}

fn monotone_advance(prog: &MonotoneProgram) -> GraphOperator {
    GraphOperator::Advance {
        space: AdvanceSpace::PlanChosen,
        relax: AdvanceRelax::Monotone {
            edge_op: prog.edge_op,
            combine: prog.combine,
            init: prog.init,
            associative: prog.associative,
        },
    }
}

impl Pipeline {
    /// The pipeline's short name ("bfs", "khop", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The operator stages, in execution order.
    pub fn ops(&self) -> &[GraphOperator] {
        &self.ops
    }

    /// The pipeline's capabilities: the fold of its operators', with
    /// one pipeline-level restriction — a fixed-round cap (label
    /// propagation) snapshots a non-fixpoint state, which physical
    /// splitting does not preserve (split chains retime propagation),
    /// so round-capped pipelines are never split-invariant.
    pub fn caps(&self) -> OperatorCaps {
        let mut caps = self
            .ops
            .iter()
            .fold(OperatorCaps::NEUTRAL, |acc, op| acc.and(op.caps()));
        if matches!(
            self.body,
            PipelineBody::Monotone {
                rounds: Some(_),
                ..
            }
        ) {
            caps.split_invariant = false;
        }
        caps
    }

    /// Whether the pipeline needs a source node.
    pub fn needs_source(&self) -> bool {
        match &self.body {
            PipelineBody::Monotone { prog, .. } => prog.needs_source(),
            PipelineBody::PageRank(_) => false,
            PipelineBody::Betweenness => true,
            PipelineBody::ComputeOnly(_) => false,
        }
    }

    /// The monotone program a monotone-bodied pipeline compiles to,
    /// for delegation to the per-program plan checks.
    pub fn monotone_program(&self) -> Option<MonotoneProgram> {
        match &self.body {
            PipelineBody::Monotone { prog, .. } => Some(*prog),
            _ => None,
        }
    }

    /// Builds the verb's pipeline, checking the limit parameter's
    /// arity.
    pub fn for_algo(algo: Algo, limit: Option<u32>) -> Result<Pipeline, PipelineSpecError> {
        if algo.needs_limit() && limit.is_none() {
            return Err(PipelineSpecError::MissingLimit { algo });
        }
        if !algo.needs_limit() && limit.is_some() {
            return Err(PipelineSpecError::UnexpectedLimit { algo });
        }
        Ok(match algo {
            Algo::Bfs => Pipeline::bfs(),
            Algo::Sssp => Pipeline::sssp(),
            Algo::Sswp => Pipeline::sswp(),
            Algo::Cc => Pipeline::cc(),
            Algo::Pr => Pipeline::pagerank(PrOptions::default()),
            Algo::Bc => Pipeline::betweenness(),
            Algo::Khop => Pipeline::khop(limit.unwrap()),
            Algo::Paths => Pipeline::bounded_paths(limit.unwrap()),
            Algo::Lp => Pipeline::label_propagation(limit.unwrap() as usize),
            Algo::Tc => Pipeline::triangle_count(),
        })
    }

    /// Breadth-first search as a pipeline.
    pub fn bfs() -> Pipeline {
        MonotoneProgram::BFS.pipeline()
    }

    /// Single-source shortest paths as a pipeline.
    pub fn sssp() -> Pipeline {
        MonotoneProgram::SSSP.pipeline()
    }

    /// Single-source widest paths as a pipeline.
    pub fn sswp() -> Pipeline {
        MonotoneProgram::SSWP.pipeline()
    }

    /// Connected components as a pipeline.
    pub fn cc() -> Pipeline {
        MonotoneProgram::CC.pipeline()
    }

    /// PageRank as a pipeline (ranks travel as `f32` bit patterns).
    pub fn pagerank(options: PrOptions) -> Pipeline {
        let space = match options.mode {
            crate::algorithms::pr::PrMode::Push => AdvanceSpace::OutEdges,
            crate::algorithms::pr::PrMode::Pull => AdvanceSpace::InEdges,
        };
        Pipeline {
            name: "pr",
            ops: vec![
                GraphOperator::Advance {
                    space,
                    relax: AdvanceRelax::RankContribution,
                },
                GraphOperator::Compute(ComputeStep::FloatBits),
            ],
            body: PipelineBody::PageRank(options),
        }
    }

    /// Single-source betweenness centrality as a pipeline (scores
    /// travel as `f32` bit patterns).
    pub fn betweenness() -> Pipeline {
        Pipeline {
            name: "bc",
            ops: vec![
                GraphOperator::Advance {
                    space: AdvanceSpace::OutEdges,
                    relax: AdvanceRelax::ShortestPathCounts,
                },
                GraphOperator::Compute(ComputeStep::FloatBits),
            ],
            body: PipelineBody::Betweenness,
        }
    }

    /// k-hop neighborhood: true hop counts (weights ignored) to the
    /// fixpoint, then hops above `k` masked to unreached. The fixpoint
    /// is `k`-independent, so mixed-`k` queries batch soundly — the
    /// mask is per lane.
    pub fn khop(k: u32) -> Pipeline {
        let mut p = MonotoneProgram::KHOP.pipeline();
        p.name = "khop";
        p.ops
            .push(GraphOperator::Compute(ComputeStep::MaskAbove(k)));
        if let PipelineBody::Monotone { post, .. } = &mut p.body {
            *post = Some(ComputeStep::MaskAbove(k));
        }
        p
    }

    /// Bounded-cost path query: SSSP relaxation where candidates above
    /// `radius` collapse to `∞`, then a deterministic predecessor
    /// array (minimum-id witness parent per reached node) appended to
    /// the distances.
    pub fn bounded_paths(radius: u32) -> Pipeline {
        let prog = MonotoneProgram {
            name: "paths",
            edge_op: EdgeOp::AddWeightCapped(radius),
            combine: Combine::Min,
            init: InitKind::SourceZero,
            associative: true,
        };
        let mut p = prog.pipeline();
        p.name = "paths";
        p.ops
            .push(GraphOperator::Compute(ComputeStep::Predecessors));
        if let PipelineBody::Monotone { post, .. } = &mut p.body {
            *post = Some(ComputeStep::Predecessors);
        }
        p
    }

    /// Label propagation: the CC min-label program run for exactly
    /// `rounds` synchronous (BSP) full sweeps — a bounded-work
    /// community sketch rather than a fixpoint. The engine pins the
    /// schedule (push, BSP, no worklist) so every backend produces the
    /// same per-round state.
    pub fn label_propagation(rounds: usize) -> Pipeline {
        let prog = MonotoneProgram {
            name: "lp",
            edge_op: EdgeOp::Copy,
            combine: Combine::Min,
            init: InitKind::OwnId,
            associative: true,
        };
        Pipeline {
            name: "lp",
            ops: vec![
                monotone_advance(&prog),
                GraphOperator::Filter { dedup: false },
            ],
            body: PipelineBody::Monotone {
                prog,
                rounds: Some(rounds),
                post: None,
            },
        }
    }

    /// Per-node triangle counts of the simple undirected closure
    /// (self-loops and duplicate edges dropped); each node's count sums
    /// the triangles it participates in, so the global sum is three
    /// times the triangle count.
    pub fn triangle_count() -> Pipeline {
        Pipeline {
            name: "tc",
            ops: vec![GraphOperator::Compute(ComputeStep::TriangleCount)],
            body: PipelineBody::ComputeOnly(ComputeStep::TriangleCount),
        }
    }
}

impl MonotoneProgram {
    /// Lifts the program into its operator pipeline: a plan-chosen
    /// advance plus a deduplicating filter, the shape every monotone
    /// analytic shares (Figure 2 / Algorithm 2 as operators).
    pub fn pipeline(self) -> Pipeline {
        Pipeline {
            name: self.name,
            ops: vec![
                monotone_advance(&self),
                GraphOperator::Filter { dedup: true },
            ],
            body: PipelineBody::Monotone {
                prog: self,
                rounds: None,
                post: None,
            },
        }
    }
}

/// Result of a pipeline run: final per-node values (already through any
/// `Compute` post-pass), convergence metadata, and the run's meter.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// Final values. Monotone analytics: one `u32` per value slot.
    /// PR/BC: `f32` bit patterns. Bounded paths: distances followed by
    /// predecessors (`2n` values).
    pub values: Vec<u32>,
    /// Sweeps/iterations the traversal ran.
    pub iterations: u64,
    /// Whether the run reached its fixpoint (round-capped pipelines
    /// converge early only if the fixpoint arrives before the cap).
    pub converged: bool,
    /// Whether a cancellation token fired mid-run.
    pub cancelled: bool,
    /// Per-kernel simulator metrics; empty off the simulator and for
    /// compute-only pipelines.
    pub report: SimReport,
    /// Edges whose relaxation was attempted (monotone bodies; 0
    /// otherwise).
    pub edges_touched: u64,
    /// Direction of each monotone sweep; empty for PR, BC and TC.
    pub directions: Vec<Direction>,
}

/// Applies [`ComputeStep::MaskAbove`]: values above `bound` become
/// unreached.
pub fn mask_above(values: &mut [u32], bound: u32) {
    for v in values.iter_mut() {
        if *v > bound {
            *v = u32::MAX;
        }
    }
}

/// Applies [`ComputeStep::Predecessors`]: for every node with a finite
/// distance, the minimum-id neighbor `u` with an edge `u → v` whose
/// relaxation lands exactly on `dist[v]`. Deterministic by
/// construction (ascending scan), independent of how the fixpoint was
/// scheduled.
pub(crate) fn predecessors(g: &Csr, edge_op: EdgeOp, dist: &[u32], source: NodeId) -> Vec<u32> {
    let mut pred = vec![u32::MAX; dist.len()];
    pred[source.index()] = source.raw();
    for u in 0..g.num_nodes() {
        let du = dist[u];
        if du == u32::MAX {
            continue;
        }
        let v = NodeId::from_index(u);
        for e in g.edge_start(v)..g.edge_end(v) {
            let t = g.edge_target(e).index();
            if t == source.index() || pred[t] != u32::MAX {
                continue;
            }
            if dist[t] != u32::MAX && edge_op.apply(du, g.weight(e)) == dist[t] {
                pred[t] = u as u32;
            }
        }
    }
    pred
}

/// Applies [`ComputeStep::TriangleCount`]: counts, per node, the
/// triangles of the graph's simple undirected closure (every edge made
/// bidirectional, self-loops and duplicates dropped). Sorted-adjacency
/// merge intersection per edge `u < v`, counting common neighbors
/// `w > v` so each triangle is found exactly once and credited to all
/// three corners.
pub(crate) fn triangle_counts(g: &Csr) -> Vec<u32> {
    let n = g.num_nodes();
    // Simple undirected closure as sorted, deduped adjacency lists.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..n {
        for &t in g.neighbors(NodeId::from_index(u)) {
            let v = t.index();
            if v != u {
                adj[u].push(v as u32);
                adj[v].push(u as u32);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let mut counts = vec![0u32; n];
    for u in 0..n {
        for &v in adj[u].iter().filter(|&&v| (v as usize) > u) {
            let v = v as usize;
            // Merge-intersect N(u) and N(v), keeping w > v.
            let (mut i, mut j) = (0, 0);
            let (a, b) = (&adj[u], &adj[v]);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = a[i] as usize;
                        if w > v {
                            counts[u] += 1;
                            counts[v] += 1;
                            counts[w] += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::CsrBuilder;

    #[test]
    fn algo_labels_round_trip() {
        for a in Algo::ALL {
            assert_eq!(Algo::parse(a.label()), Some(a), "{}", a.label());
        }
        assert_eq!(Algo::parse("pagerank"), Some(Algo::Pr));
        assert_eq!(Algo::parse("k-hop"), Some(Algo::Khop));
        assert_eq!(Algo::parse("bogus"), None);
        assert!(Algo::known_labels().contains("khop"));
        assert!(Algo::known_labels().contains("bfs"));
    }

    #[test]
    fn limit_arity_is_typed() {
        assert!(matches!(
            Pipeline::for_algo(Algo::Khop, None),
            Err(PipelineSpecError::MissingLimit { algo: Algo::Khop })
        ));
        let err = Pipeline::for_algo(Algo::Bfs, Some(3)).unwrap_err();
        assert_eq!(err, PipelineSpecError::UnexpectedLimit { algo: Algo::Bfs });
        assert!(err.to_string().contains("no limit"));
        let err = Pipeline::for_algo(Algo::Lp, None).unwrap_err();
        assert!(err.to_string().contains("rounds"), "{err}");
        assert!(Pipeline::for_algo(Algo::Paths, Some(9)).is_ok());
    }

    #[test]
    fn pipeline_caps_fold_per_theory() {
        // The six analytics: monotone pipelines are split-invariant,
        // PR/BC are not (degree rewiring / dependency mass).
        assert!(Pipeline::bfs().caps().split_invariant);
        assert!(Pipeline::sssp().caps().split_invariant);
        assert!(Pipeline::sswp().caps().split_invariant);
        assert!(Pipeline::cc().caps().split_invariant);
        assert!(
            !Pipeline::pagerank(PrOptions::default())
                .caps()
                .split_invariant
        );
        assert!(!Pipeline::betweenness().caps().split_invariant);
        // khop: AddUnit charges split edges — not split-invariant.
        assert!(!Pipeline::khop(2).caps().split_invariant);
        // paths: the capped relaxation is split-invariant, but the
        // predecessor post-pass reads the adjacency.
        assert!(!Pipeline::bounded_paths(10).caps().split_invariant);
        // lp: round caps snapshot non-fixpoint state.
        assert!(!Pipeline::label_propagation(3).caps().split_invariant);
        assert!(!Pipeline::triangle_count().caps().split_invariant);
        // Associativity flows from the program.
        assert!(Pipeline::bfs().caps().associative);
        assert!(Pipeline::pagerank(PrOptions::default()).caps().associative);
        // Pull-mode PR declares its transpose need.
        let pull = Pipeline::pagerank(PrOptions {
            mode: crate::algorithms::pr::PrMode::Pull,
            ..PrOptions::default()
        });
        assert!(pull.caps().needs_transpose);
        assert!(!Pipeline::bfs().caps().needs_transpose);
    }

    #[test]
    fn source_arity_follows_init() {
        assert!(Pipeline::bfs().needs_source());
        assert!(Pipeline::betweenness().needs_source());
        assert!(Pipeline::khop(1).needs_source());
        assert!(Pipeline::bounded_paths(1).needs_source());
        assert!(!Pipeline::cc().needs_source());
        assert!(!Pipeline::pagerank(PrOptions::default()).needs_source());
        assert!(!Pipeline::label_propagation(2).needs_source());
        assert!(!Pipeline::triangle_count().needs_source());
        for a in Algo::ALL {
            let limit = a.needs_limit().then_some(2);
            let p = Pipeline::for_algo(a, limit).unwrap();
            assert_eq!(p.needs_source(), a.needs_source(), "{}", a.label());
        }
    }

    #[test]
    fn mask_above_clamps() {
        let mut v = vec![0, 2, 3, u32::MAX];
        mask_above(&mut v, 2);
        assert_eq!(v, vec![0, 2, u32::MAX, u32::MAX]);
    }

    #[test]
    fn predecessors_pick_min_id_witness() {
        // 0 → 1 (w 2), 0 → 2 (w 2), 1 → 3 (w 2), 2 → 3 (w 2): node 3 is
        // reachable at distance 4 through both 1 and 2; the witness is
        // the min-id parent 1.
        let g = CsrBuilder::new(4)
            .weighted_edge(0, 1, 2)
            .weighted_edge(0, 2, 2)
            .weighted_edge(1, 3, 2)
            .weighted_edge(2, 3, 2)
            .build();
        let dist = vec![0, 2, 2, 4];
        let pred = predecessors(&g, EdgeOp::AddWeightCapped(10), &dist, NodeId::new(0));
        assert_eq!(pred, vec![0, 0, 0, 1]);
        // Unreached nodes keep ∞ predecessors.
        let dist = vec![0, 2, 2, u32::MAX];
        let pred = predecessors(&g, EdgeOp::AddWeightCapped(3), &dist, NodeId::new(0));
        assert_eq!(pred, vec![0, 0, 0, u32::MAX]);
    }

    #[test]
    fn triangle_counts_on_known_shapes() {
        // A directed 3-cycle closes into one undirected triangle.
        let cycle = CsrBuilder::new(3).edge(0, 1).edge(1, 2).edge(2, 0).build();
        assert_eq!(triangle_counts(&cycle), vec![1, 1, 1]);
        // K4: every node sits on C(3,2) = 3 triangles.
        let mut b = CsrBuilder::new(4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u < v {
                    b.edge(u, v);
                }
            }
        }
        assert_eq!(triangle_counts(&b.build()), vec![3, 3, 3, 3]);
        // Self-loops and duplicate arcs do not create triangles.
        let noisy = CsrBuilder::new(3)
            .edge(0, 0)
            .edge(0, 1)
            .edge(1, 0)
            .edge(1, 2)
            .edge(2, 0)
            .build();
        assert_eq!(triangle_counts(&noisy), vec![1, 1, 1]);
    }

    #[test]
    fn triangle_counts_agree_with_the_directed_oracle() {
        // On an already-symmetric simple graph the per-node sum is 3T
        // and the ordered-triple oracle counts 6T.
        let g = tigr_graph::generators::barabasi_albert(
            &tigr_graph::generators::BarabasiAlbertConfig {
                num_nodes: 60,
                edges_per_node: 3,
                symmetric: true,
            },
            7,
        );
        let counts = triangle_counts(&g);
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        let oracle = tigr_graph::properties::triangle_count(&g) as u64;
        assert_eq!(sum * 2, oracle);
    }

    #[test]
    fn monotone_program_lifts_to_its_named_pipeline() {
        let p = MonotoneProgram::SSSP.pipeline();
        assert_eq!(p.name(), "sssp");
        assert_eq!(p.ops().len(), 2);
        assert!(matches!(
            p.ops()[0],
            GraphOperator::Advance {
                space: AdvanceSpace::PlanChosen,
                relax: AdvanceRelax::Monotone {
                    edge_op: EdgeOp::AddWeight,
                    ..
                },
            }
        ));
        assert!(matches!(p.ops()[1], GraphOperator::Filter { dedup: true }));
        assert_eq!(p.monotone_program(), Some(MonotoneProgram::SSSP));
        assert!(Pipeline::triangle_count().monotone_program().is_none());
    }
}
