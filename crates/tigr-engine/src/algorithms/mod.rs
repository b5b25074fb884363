//! The six graph analytics of the paper's evaluation (§6.1): BFS, CC,
//! SSSP, SSWP, BC, and PR.
//!
//! The four monotone analytics are [`crate::MonotoneProgram`]s run by
//! [`crate::run_monotone`] (or [`crate::Engine`]); PageRank and
//! betweenness centrality have dedicated multi-kernel drivers here.

pub mod bc;
pub mod pr;

/// Identifier of one of the paper's six analytics, used by the benchmark
/// harness to iterate Table 4's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Analytic {
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// Single-source shortest path.
    Sssp,
    /// Single-source widest path.
    Sswp,
    /// Betweenness centrality (single source, Brandes).
    Bc,
    /// PageRank.
    Pr,
}

impl Analytic {
    /// All six, in the paper's Table 4 order.
    pub const ALL: [Analytic; 6] = [
        Analytic::Bfs,
        Analytic::Sssp,
        Analytic::Pr,
        Analytic::Cc,
        Analytic::Sswp,
        Analytic::Bc,
    ];

    /// Lowercase name as used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            Analytic::Bfs => "bfs",
            Analytic::Cc => "cc",
            Analytic::Sssp => "sssp",
            Analytic::Sswp => "sswp",
            Analytic::Bc => "bc",
            Analytic::Pr => "pr",
        }
    }

    /// Whether the analytic needs edge weights.
    pub fn weighted(self) -> bool {
        matches!(self, Analytic::Sssp | Analytic::Sswp)
    }

    /// Whether the analytic takes a source node.
    pub fn needs_source(self) -> bool {
        !matches!(self, Analytic::Cc | Analytic::Pr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_analytics() {
        assert_eq!(Analytic::ALL.len(), 6);
        let names: Vec<_> = Analytic::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["bfs", "sssp", "pr", "cc", "sswp", "bc"]);
    }

    #[test]
    fn weight_and_source_requirements() {
        assert!(Analytic::Sssp.weighted());
        assert!(Analytic::Sswp.weighted());
        assert!(!Analytic::Bfs.weighted());
        assert!(!Analytic::Pr.needs_source());
        assert!(!Analytic::Cc.needs_source());
        assert!(Analytic::Bc.needs_source());
    }
}
