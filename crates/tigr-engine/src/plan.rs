//! Execution plans: backend × direction × frontier as *data*, validated
//! against the paper's correctness theorems before anything runs.
//!
//! A [`ExecutionPlan`] is assembled by [`crate::Engine`]'s builder
//! methods (or literally) and handed to [`crate::run_monotone`] or the
//! host lane driver in [`crate::batch`]. Validation encodes what the
//! paper proves rather than what a comment promises:
//!
//! * **Theorem 3** — pull/gather over a split (virtual or on-the-fly)
//!   representation partitions a node's in-edge fold across threads, so
//!   the combine operator must be associative and applied atomically.
//!   Non-associative programs over split views are a [`PlanError`], not
//!   a wrong answer.
//! * **Corollary 4 analog** — pull over a *physical* (UDT) split is
//!   rejected: the split vertices are real nodes with rewired in-edges,
//!   so gathering over them computes a different fixpoint.

use std::fmt;

use tigr_core::CancelToken;
use tigr_graph::{Csr, NodeId};

use crate::operators::Pipeline;
use crate::program::MonotoneProgram;
use crate::push::PushOptions;
use crate::representation::Representation;

/// Traversal direction of a plan: which side of each edge does the work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Scatter: active nodes push candidates along out-edges (one
    /// atomic per improving edge). Always valid (Theorem 2).
    #[default]
    Push,
    /// Gather: every node folds candidates over in-edges (at most one
    /// atomic per node per iteration). Over split representations this
    /// requires an associative combine (Theorem 3).
    Pull,
    /// Direction-optimizing: start pushing, switch to pull when the
    /// frontier grows dense (Beamer's α/β heuristic generalized from
    /// BFS to any monotone program), and fall back to push as it
    /// thins.
    Auto,
}

impl Direction {
    /// All directions, in ablation order.
    pub const ALL: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::Auto];

    /// Parses a CLI/env spelling (`push`, `pull`, `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "push" | "td" | "top-down" => Some(Direction::Push),
            "pull" | "bu" | "bottom-up" => Some(Direction::Pull),
            "auto" | "do" | "hybrid" => Some(Direction::Auto),
            _ => None,
        }
    }

    /// Stable lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
            Direction::Auto => "auto",
        }
    }
}

/// Tuning knobs of the [`Direction::Auto`] density switch, after Beamer
/// et al.'s direction-optimizing BFS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoOptions {
    /// Switch to pull when `frontier_edges * alpha > unvisited_edges`.
    /// `0.0` never pulls.
    pub alpha: f64,
    /// Additionally require the frontier to span more than `n / beta`
    /// nodes, guarding against pulling on deep, thin frontiers.
    pub beta: f64,
}

impl Default for AutoOptions {
    fn default() -> Self {
        AutoOptions {
            alpha: 14.0,
            beta: 24.0,
        }
    }
}

/// Beamer's α/β density switch over a forward graph, with its
/// bookkeeping: the out-edges no frontier has owned yet. The one rule
/// every [`Direction::Auto`] driver consults before each sweep.
pub(crate) struct DirectionSwitch<'a> {
    graph: &'a Csr,
    auto: AutoOptions,
    /// Out-edges not yet owned by any frontier: the denominator of the
    /// switch.
    remaining: u64,
}

impl<'a> DirectionSwitch<'a> {
    /// A switch over `graph` before its first sweep.
    pub(crate) fn new(graph: &'a Csr, auto: AutoOptions) -> Self {
        DirectionSwitch {
            graph,
            auto,
            remaining: graph.num_edges() as u64,
        }
    }

    fn out_edges(&self, nodes: &[u32]) -> u64 {
        nodes
            .iter()
            .map(|&v| self.graph.out_degree(NodeId::new(v)) as u64)
            .sum()
    }

    /// Whether the sweep over `frontier` (of `n` value slots) gathers:
    /// its out-edges outweigh `1 / alpha` of the remaining ones, and it
    /// spans more than `n / beta` nodes.
    pub(crate) fn pull_now(&self, frontier: &[u32], n: usize) -> bool {
        self.out_edges(frontier) as f64 * self.auto.alpha > self.remaining as f64
            && frontier.len() > n.div_ceil(self.auto.beta.max(1.0) as usize).max(1)
    }

    /// Retires the out-edges of the frontier the last sweep produced.
    pub(crate) fn retire(&mut self, next: &[u32]) {
        self.remaining = self.remaining.saturating_sub(self.out_edges(next));
    }
}

/// Which executor runs the plan. The simulator is the paper's meter and
/// only `WarpSim` touches it: the other two construct no
/// [`tigr_sim::Lane`] for any pipeline body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The warp-lockstep GPU simulator (`tigr-sim`): architectural
    /// metrics, values via shared atomics.
    #[default]
    WarpSim,
    /// The host executor with threads: `Sequential`, except that a
    /// batch's lanes are dealt across [`CpuOptions::threads`] workers
    /// (see [`crate::batch`]). A lane is the unit of parallelism, so
    /// every answer — solo run or batch lane, any verb — is byte-equal
    /// to `Sequential`'s.
    CpuPool,
    /// Single-threaded deterministic sweeps: the differential-testing
    /// reference, and the plan the server runs. Push and auto run the
    /// host lane driver's push schedule (auto's fixpoint is push's); pull
    /// runs [`crate::run_monotone`] on [`crate::HostLoop`] over the same
    /// transpose view the simulator gathers over, so it equals a
    /// `WarpSim` pull run on a sequential simulator ([`crate::Engine::new`])
    /// in everything but the (empty) report.
    Sequential,
}

impl BackendKind {
    /// Parses a CLI/env spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "warpsim" | "warp-sim" | "gpu" => Some(BackendKind::WarpSim),
            "cpu" | "cpupool" | "cpu-pool" => Some(BackendKind::CpuPool),
            "seq" | "sequential" => Some(BackendKind::Sequential),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::WarpSim => "warpsim",
            BackendKind::CpuPool => "cpupool",
            BackendKind::Sequential => "sequential",
        }
    }
}

/// Options of the [`BackendKind::CpuPool`] executor.
#[derive(Clone, Copy, Debug)]
pub struct CpuOptions {
    /// Workers a batch's lanes are dealt across, in contiguous chunks
    /// (`0` counts as 1). A solo run is one lane and uses one.
    pub threads: usize,
}

impl Default for CpuOptions {
    fn default() -> CpuOptions {
        CpuOptions {
            threads: default_threads(),
        }
    }
}

/// Number of worker threads matching the host's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fully specified execution: backend × direction × the existing
/// frontier/sync knobs ([`PushOptions`]) × CPU worker count
/// ([`CpuOptions`]). Representation stays a per-run argument — one plan
/// runs against many graphs.
#[derive(Clone, Debug, Default)]
pub struct ExecutionPlan {
    /// Executor the plan targets.
    pub backend: BackendKind,
    /// Traversal direction (push / pull / auto).
    pub direction: Direction,
    /// Density-switch tuning for [`Direction::Auto`].
    pub auto: AutoOptions,
    /// Frontier mode, sync mode, worklist toggle, iteration cap.
    pub push: PushOptions,
    /// Workers a `CpuPool` batch's lanes are dealt across.
    pub cpu: CpuOptions,
    /// Cooperative cancellation token, polled by every backend driver at
    /// iteration boundaries. The default ([`CancelToken::never`]) costs
    /// one branch per iteration; arm it for per-request deadlines or
    /// client-initiated aborts. A cancelled run returns its consistent
    /// monotone prefix with `cancelled = true` and `converged = false`.
    pub cancel: CancelToken,
}

impl ExecutionPlan {
    /// Checks the plan against `rep` and `prog` per the paper's
    /// theorems. Called by every entry point before launching; exposed
    /// so callers can validate eagerly.
    pub fn validate(
        &self,
        rep: &Representation<'_>,
        prog: &MonotoneProgram,
    ) -> Result<(), PlanError> {
        match self.direction {
            Direction::Pull => {
                if matches!(rep, Representation::Physical(_)) {
                    return Err(PlanError::PullOverPhysical);
                }
                if matches!(
                    rep,
                    Representation::Virtual { .. } | Representation::OnTheFly { .. }
                ) && !prog.associative
                {
                    return Err(PlanError::PullNeedsAssociativity { program: prog.name });
                }
            }
            // Auto degrades to push where pull would be invalid, so it
            // never errors on direction grounds.
            Direction::Push | Direction::Auto => {}
        }
        Ok(())
    }

    /// Checks the plan against a [`Pipeline`]'s typed operator
    /// capabilities: source range and arity, split-invariance over physical
    /// representations (Corollary 2/3), then — for monotone-bodied
    /// pipelines — the per-program rules of [`ExecutionPlan::validate`]
    /// (Theorem 3 and friends).
    pub fn validate_pipeline(
        &self,
        rep: &Representation<'_>,
        pipeline: &Pipeline,
        source: Option<NodeId>,
    ) -> Result<(), PlanError> {
        check_source(rep, source)?;
        if pipeline.needs_source() && source.is_none() {
            return Err(PlanError::MissingSource {
                pipeline: pipeline.name(),
            });
        }
        if !pipeline.needs_source() && source.is_some() {
            return Err(PlanError::UnexpectedSource {
                pipeline: pipeline.name(),
            });
        }
        if !pipeline.caps().split_invariant && matches!(rep, Representation::Physical(_)) {
            return Err(PlanError::NotSplitInvariant {
                pipeline: pipeline.name(),
            });
        }
        if let Some(prog) = pipeline.monotone_program() {
            self.validate(rep, &prog)?;
        }
        Ok(())
    }
}

/// Refuses a `source` that names no value slot of `rep`.
pub(crate) fn check_source(
    rep: &Representation<'_>,
    source: Option<NodeId>,
) -> Result<(), PlanError> {
    let slots = rep.num_value_slots();
    match source {
        Some(source) if source.index() >= slots => {
            Err(PlanError::SourceOutOfRange { source, slots })
        }
        _ => Ok(()),
    }
}

/// A plan combination the paper's theorems do not license, or a query
/// the representation cannot answer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// Pull over a UDT physical split: split vertices are real nodes
    /// with rewired in-edges, so the gather computes a different
    /// fixpoint (the Corollary 4 failure mode).
    PullOverPhysical,
    /// Pull over a virtual/on-the-fly split partitions a node's in-edge
    /// fold across threads; Theorem 3 requires the combine to be
    /// associative (applied via atomics), and this program's is not.
    PullNeedsAssociativity {
        /// Name of the offending program.
        program: &'static str,
    },
    /// The pipeline needs a source node and none was supplied.
    MissingSource {
        /// Name of the offending pipeline.
        pipeline: &'static str,
    },
    /// The pipeline takes no source node but one was supplied.
    UnexpectedSource {
        /// Name of the offending pipeline.
        pipeline: &'static str,
    },
    /// The pipeline is not split-invariant — no dumb-weight assignment
    /// preserves its answer (an [`crate::EdgeOp::AddUnit`] advance, a
    /// compute step reading the original adjacency, or a fixed-round
    /// snapshot), so running it over a physically split (UDT)
    /// representation would compute a different result.
    NotSplitInvariant {
        /// Name of the offending pipeline.
        pipeline: &'static str,
    },
    /// The source node is not one of the representation's value slots.
    SourceOutOfRange {
        /// The requested source.
        source: NodeId,
        /// Value slots of the representation.
        slots: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::PullOverPhysical => write!(
                f,
                "pull direction over a physically split graph: UDT split vertices have \
                 rewired in-edges, so a gather computes a different fixpoint"
            ),
            PlanError::PullNeedsAssociativity { program } => write!(
                f,
                "pull direction over a split representation partitions each node's in-edge \
                 fold across threads; Theorem 3 requires an associative combine, which \
                 program `{program}` does not provide"
            ),
            PlanError::MissingSource { pipeline } => {
                write!(f, "pipeline `{pipeline}` requires a source node")
            }
            PlanError::UnexpectedSource { pipeline } => {
                write!(f, "pipeline `{pipeline}` takes no source node")
            }
            PlanError::NotSplitInvariant { pipeline } => write!(
                f,
                "pipeline `{pipeline}` is not split-invariant: no dumb-weight assignment \
                 preserves its answer over a physically split (UDT) representation"
            ),
            PlanError::SourceOutOfRange { source, slots } => {
                write!(f, "source {source} out of range ({slots} nodes)")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::star_graph;

    fn non_associative() -> MonotoneProgram {
        MonotoneProgram {
            associative: false,
            ..MonotoneProgram::SSSP
        }
    }

    #[test]
    fn parse_round_trips() {
        for d in Direction::ALL {
            assert_eq!(Direction::parse(d.label()), Some(d));
        }
        assert_eq!(Direction::parse("bogus"), None);
        for b in [
            BackendKind::WarpSim,
            BackendKind::CpuPool,
            BackendKind::Sequential,
        ] {
            assert_eq!(BackendKind::parse(b.label()), Some(b));
        }
    }

    #[test]
    fn pull_on_virtual_needs_associativity() {
        let g = star_graph(32);
        let ov = VirtualGraph::new(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        let plan = ExecutionPlan {
            direction: Direction::Pull,
            ..ExecutionPlan::default()
        };
        assert!(matches!(
            plan.validate(&rep, &non_associative()),
            Err(PlanError::PullNeedsAssociativity { program: "sssp" })
        ));
        // The real SSSP combine (min) is associative: licensed.
        assert!(plan.validate(&rep, &MonotoneProgram::SSSP).is_ok());
        // Pull over the *original* graph folds each node in one thread;
        // no split, no Theorem 3 obligation.
        assert!(plan
            .validate(&Representation::Original(&g), &non_associative())
            .is_ok());
    }

    #[test]
    fn pull_on_physical_rejected() {
        let g = star_graph(32);
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let plan = ExecutionPlan {
            direction: Direction::Pull,
            ..ExecutionPlan::default()
        };
        let err = plan
            .validate(&Representation::Physical(&t), &MonotoneProgram::BFS)
            .unwrap_err();
        assert_eq!(err, PlanError::PullOverPhysical);
        assert!(err.to_string().contains("physically split"));
    }

    #[test]
    fn cpu_pool_pull_is_licensed() {
        // CpuPool pull over an unsplit representation validates like
        // Sequential, and the Theorem 3 obligations still apply over
        // split views.
        let g = star_graph(8);
        let plan = ExecutionPlan {
            backend: BackendKind::CpuPool,
            direction: Direction::Pull,
            ..ExecutionPlan::default()
        };
        assert!(plan
            .validate(&Representation::Original(&g), &MonotoneProgram::BFS)
            .is_ok());
        let ov = VirtualGraph::new(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        assert!(matches!(
            plan.validate(&rep, &non_associative()),
            Err(PlanError::PullNeedsAssociativity { .. })
        ));
    }

    #[test]
    fn pipeline_source_arity_is_typed() {
        use crate::operators::Pipeline;
        let g = star_graph(8);
        let rep = Representation::Original(&g);
        let plan = ExecutionPlan::default();
        assert_eq!(
            plan.validate_pipeline(&rep, &Pipeline::bfs(), None),
            Err(PlanError::MissingSource { pipeline: "bfs" })
        );
        let err = plan
            .validate_pipeline(&rep, &Pipeline::cc(), Some(NodeId::new(0)))
            .unwrap_err();
        assert_eq!(err, PlanError::UnexpectedSource { pipeline: "cc" });
        assert!(err.to_string().contains("takes no source"));
        assert!(plan
            .validate_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .is_ok());
        assert!(plan.validate_pipeline(&rep, &Pipeline::cc(), None).is_ok());
    }

    #[test]
    fn non_split_invariant_pipelines_rejected_on_physical() {
        use crate::operators::Pipeline;
        let g = star_graph(32);
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let phys = Representation::Physical(&t);
        let plan = ExecutionPlan::default();
        for (p, src) in [
            (Pipeline::khop(2), Some(NodeId::new(0))),
            (Pipeline::bounded_paths(10), Some(NodeId::new(0))),
            (Pipeline::label_propagation(3), None),
            (Pipeline::triangle_count(), None),
        ] {
            let err = plan.validate_pipeline(&phys, &p, src).unwrap_err();
            assert!(
                matches!(err, PlanError::NotSplitInvariant { .. }),
                "{}: {err}",
                p.name()
            );
            assert!(err.to_string().contains("split-invariant"));
            // The same pipelines are licensed over unsplit views.
            assert!(plan
                .validate_pipeline(&Representation::Original(&g), &p, src)
                .is_ok());
        }
        // Split-invariant analytics still pass over physical splits.
        assert!(plan
            .validate_pipeline(&phys, &Pipeline::sssp(), Some(NodeId::new(0)))
            .is_ok());
    }

    #[test]
    fn pipeline_validation_delegates_monotone_rules() {
        use crate::operators::Pipeline;
        let g = star_graph(32);
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let plan = ExecutionPlan {
            direction: Direction::Pull,
            ..ExecutionPlan::default()
        };
        // BFS is split-invariant, so the pipeline check falls through to
        // the per-program Corollary 4 rule.
        assert_eq!(
            plan.validate_pipeline(
                &Representation::Physical(&t),
                &Pipeline::bfs(),
                Some(NodeId::new(0))
            ),
            Err(PlanError::PullOverPhysical)
        );
    }

    #[test]
    fn auto_never_errors_on_direction() {
        let g = star_graph(32);
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let plan = ExecutionPlan {
            direction: Direction::Auto,
            ..ExecutionPlan::default()
        };
        assert!(plan
            .validate(&Representation::Physical(&t), &non_associative())
            .is_ok());
    }
}
