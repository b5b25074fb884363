//! Shared framework plumbing: the monotone [`fixpoint`] loop every
//! framework feeds its mapping to, and the [`Baseline`] dispatcher.

use std::sync::atomic::{AtomicBool, Ordering};

use tigr_engine::{AtomicValues, MonotoneProgram, PrOptions, PrOutput};
use tigr_graph::{Csr, NodeId};
use tigr_sim::{DeviceMemory, GpuSimulator, KernelMetrics, OutOfMemory, SimReport};

use crate::{cusha, gunrock, mw};

/// The monotone fixpoint every framework runs. From `prog`'s initial
/// values over `n` nodes, each iteration calls `iterate(values,
/// changed)` — the framework's mapping of one iteration onto threads,
/// which raises `changed` when another iteration is due — and reports
/// the thread count and metrics it returns. The loop stops after the
/// first iteration that leaves `changed` down.
pub(crate) fn fixpoint(
    n: usize,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    mut iterate: impl FnMut(&AtomicValues, &AtomicBool) -> (usize, KernelMetrics),
) -> FrameworkRun {
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let mut report = SimReport::new();
    loop {
        let changed = AtomicBool::new(false);
        let (threads, metrics) = iterate(&values, &changed);
        report.push(threads, metrics);
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    FrameworkRun {
        values: values.snapshot(),
        report,
    }
}

/// Result of running a framework on an analytic.
#[derive(Clone, Debug)]
pub struct FrameworkRun {
    /// Final per-node values (encoding as in [`tigr_engine`]).
    pub values: Vec<u32>,
    /// Per-iteration simulator metrics.
    pub report: SimReport,
}

/// CuSha's two graph representations (§2 of the CuSha paper; the better
/// of the two is reported in Table 4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CushaMode {
    /// G-Shards: full shard entries (src, dst, weight, src-value copy).
    #[default]
    GShards,
    /// Concatenated Windows: compacted shards with denser windows,
    /// trading some coalescing for a smaller footprint.
    ConcatenatedWindows,
}

/// Uniform handle over the three comparison frameworks, as they appear
/// in Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Baseline {
    /// Maximum Warp with a fixed virtual-warp width, or `None` to try
    /// all of {2, 4, 8, 16, 32} and keep the fastest (the paper's
    /// methodology: "the best performance is chosen").
    MaximumWarp {
        /// Virtual warp width; `None` = auto-select.
        width: Option<usize>,
    },
    /// CuSha with the given representation.
    CuSha {
        /// Shard representation.
        mode: CushaMode,
    },
    /// Gunrock-style frontier engine.
    Gunrock,
}

impl Baseline {
    /// The three frameworks in their Table 4 column order, with
    /// auto-selection behaviour matching the paper's methodology.
    pub const ALL: [Baseline; 3] = [
        Baseline::MaximumWarp { width: None },
        Baseline::CuSha {
            mode: CushaMode::GShards,
        },
        Baseline::Gunrock,
    ];

    /// Framework name as used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::MaximumWarp { .. } => "MW",
            Baseline::CuSha { .. } => "CuSha",
            Baseline::Gunrock => "Gunrock",
        }
    }

    /// Device-memory footprint of processing `g` with this framework.
    pub fn footprint_bytes(&self, g: &Csr) -> u64 {
        let n = g.num_nodes() as u64;
        let m = g.num_edges() as u64;
        let values = n * 4;
        match self {
            // MW runs on the plain CSR: no auxiliary structures (§6.2:
            // "MW is also free from OOM issues").
            Baseline::MaximumWarp { .. } => g.csr_size_bytes() as u64 + values,
            Baseline::CuSha { mode } => {
                // Shard entry: src id + dst id + src-value copy
                // (+ weight), roughly doubling edge storage; windows add
                // per-shard indexing.
                let entry = if g.is_weighted() { 16 } else { 12 };
                let window_index = n;
                let compaction = match mode {
                    CushaMode::GShards => 0,
                    CushaMode::ConcatenatedWindows => m, // window offsets
                };
                m * entry + window_index + compaction + values
            }
            // Gunrock keeps double frontier buffers sized for the worst
            // advance output (one entry per edge).
            Baseline::Gunrock => g.csr_size_bytes() as u64 + values + 2 * m * 4,
        }
    }

    /// Checks the footprint against an optional device budget.
    ///
    /// # Errors
    ///
    /// Returns the simulated [`OutOfMemory`] failure, as thrown by CuSha
    /// and Gunrock on the paper's largest graphs.
    pub fn check_budget(&self, g: &Csr, budget: Option<u64>) -> Result<(), OutOfMemory> {
        if let Some(capacity) = budget {
            DeviceMemory::new(capacity).alloc(self.footprint_bytes(g))?;
        }
        Ok(())
    }

    /// Runs a monotone analytic (BFS/SSSP/SSWP/CC) with this framework.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the representation exceeds `budget`.
    pub fn run_monotone(
        &self,
        sim: &GpuSimulator,
        g: &Csr,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        budget: Option<u64>,
    ) -> Result<FrameworkRun, OutOfMemory> {
        self.check_budget(g, budget)?;
        Ok(match self {
            Baseline::MaximumWarp { width } => mw::run_monotone(sim, g, prog, source, *width),
            Baseline::CuSha { mode } => cusha::run_monotone(sim, g, prog, source, *mode),
            Baseline::Gunrock => gunrock::run_monotone(sim, g, prog, source),
        })
    }

    /// Runs PageRank with this framework. `g` is the forward graph; each
    /// framework uses its native direction internally.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the representation exceeds `budget`.
    pub fn run_pagerank(
        &self,
        sim: &GpuSimulator,
        g: &Csr,
        options: &PrOptions,
        budget: Option<u64>,
    ) -> Result<PrOutput, OutOfMemory> {
        self.check_budget(g, budget)?;
        Ok(match self {
            Baseline::MaximumWarp { width } => mw::run_pagerank(sim, g, options, *width),
            Baseline::CuSha { mode } => cusha::run_pagerank(sim, g, options, *mode),
            Baseline::Gunrock => gunrock::run_pagerank(sim, g, options),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::star_graph;

    #[test]
    fn names_match_table_2() {
        let names: Vec<_> = Baseline::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["MW", "CuSha", "Gunrock"]);
    }

    #[test]
    fn mw_has_smallest_footprint() {
        let g = star_graph(1000).with_weights_from(|_| 1);
        let mw = Baseline::MaximumWarp { width: Some(4) }.footprint_bytes(&g);
        let cusha = Baseline::CuSha {
            mode: CushaMode::GShards,
        }
        .footprint_bytes(&g);
        let gunrock = Baseline::Gunrock.footprint_bytes(&g);
        assert!(mw < cusha, "MW {mw} < CuSha {cusha}");
        assert!(mw < gunrock, "MW {mw} < Gunrock {gunrock}");
    }

    #[test]
    fn budget_enforcement() {
        let g = star_graph(10_000);
        let b = Baseline::Gunrock;
        assert!(b.check_budget(&g, None).is_ok());
        assert!(b.check_budget(&g, Some(u64::MAX / 2)).is_ok());
        assert!(b.check_budget(&g, Some(1024)).is_err());
        // MW fits where Gunrock does not.
        let tight = Baseline::MaximumWarp { width: Some(4) }.footprint_bytes(&g) + 1;
        assert!(Baseline::MaximumWarp { width: Some(4) }
            .check_budget(&g, Some(tight))
            .is_ok());
        assert!(Baseline::Gunrock.check_budget(&g, Some(tight)).is_err());
    }

    #[test]
    fn concatenated_windows_cost_more_than_gshards_index() {
        let g = star_graph(100);
        let gs = Baseline::CuSha {
            mode: CushaMode::GShards,
        }
        .footprint_bytes(&g);
        let cw = Baseline::CuSha {
            mode: CushaMode::ConcatenatedWindows,
        }
        .footprint_bytes(&g);
        assert!(cw > gs);
    }
}
