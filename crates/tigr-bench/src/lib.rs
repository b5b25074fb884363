//! Benchmark harness regenerating the paper's evaluation (§6).
//!
//! Each binary under `src/bin/` regenerates one table or figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `profile_irregularity` | the §2.3 degree-distribution profile |
//! | `table1_properties` | Table 1 (split-transformation properties) |
//! | `table3_datasets` | Table 3 (dataset characteristics) |
//! | `table4_comparison` | Table 4 (MW / CuSha / Gunrock / Tigr-V+) |
//! | `fig13_speedups` | Figure 13 (Tigr-UDT / V / V+ over baseline, SSSP) |
//! | `table5_udt_space` | Table 5 (physical space cost) |
//! | `table6_virtual_space` | Table 6 (virtual space cost) |
//! | `table7_transform_time` | Table 7 (transformation time) |
//! | `table8_sssp_detail` | Table 8 (SSSP case study) |
//! | `ablation_k_sweep` | §5 / §6.4 K-sensitivity observations |
//!
//! Run with `cargo run --release -p tigr-bench --bin <name>`. The analog
//! scale is `1/TIGR_SCALE` of the paper's node counts
//! (default 256; set `TIGR_SCALE=64` for larger, closer-to-paper runs).

#![warn(missing_docs)]

use std::time::Instant;

use tigr_core::{GraphStore, PrepareSpec, PreparedGraph};
use tigr_graph::datasets::{DatasetSpec, PAPER_DATASETS};
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuConfig, GpuSimulator};

/// Harness configuration, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Analogs are `1/scale_denominator` of the paper's node counts.
    pub scale_denominator: u64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale_denominator: 256,
            seed: 2018, // ASPLOS '18
        }
    }
}

impl BenchConfig {
    /// Reads `TIGR_SCALE` and `TIGR_SEED` from the environment.
    pub fn from_env() -> Self {
        let mut cfg = BenchConfig::default();
        if let Ok(s) = std::env::var("TIGR_SCALE") {
            if let Ok(v) = s.parse() {
                cfg.scale_denominator = v;
            }
        }
        if let Ok(s) = std::env::var("TIGR_SEED") {
            if let Ok(v) = s.parse() {
                cfg.seed = v;
            }
        }
        cfg
    }

    /// Simulated device budget preserving the paper's 8 GB-to-graph-size
    /// ratio at analog scale.
    pub fn device_budget(&self) -> u64 {
        8 * 1024 * 1024 * 1024 / self.scale_denominator.max(1)
    }

    /// A sequential simulator with the default (P4000-like)
    /// configuration: its warp replay is deterministic, so every table a
    /// bin prints is the same from run to run.
    pub fn simulator(&self) -> GpuSimulator {
        GpuSimulator::new(GpuConfig::default())
    }
}

/// Resolves a generator tag (`rmat:<scale>:<ef>`, `star:<nodes>`,
/// `ba:<n>:<m>[:sym]`, `dataset:<name>[:<denom>[:weighted]]`) through
/// the shared [`GraphStore`] artifact layer — the one load/generate
/// path every bench binary uses. With `TIGR_CACHE_DIR` set, repeated
/// invocations load the cached `TIGRCSR2` artifact instead of
/// regenerating; without it, the store builds in memory.
///
/// `weights` overlays uniform random `[lo, hi]` edge weights drawn with
/// the given seed (the SSSP/SSWP variants).
///
/// # Panics
///
/// Panics on a malformed tag — bench inputs are hard-coded, so a bad
/// tag is a bug, not an input error.
pub fn prepare_input(tag: &str, seed: u64, weights: Option<(u32, u32, u64)>) -> PreparedGraph {
    let mut spec = PrepareSpec::generated(tag, seed);
    if let Some((lo, hi, wseed)) = weights {
        spec = spec.with_uniform_weights(lo, hi, wseed);
    }
    GraphStore::from_env()
        .prepare(&spec)
        .unwrap_or_else(|e| panic!("prepare_input(`{tag}`): {e}"))
}

/// The highest-out-degree node (ties broken toward the lowest id): the
/// source every source-driven bench uses so propagation is non-trivial.
///
/// # Panics
///
/// Panics on an empty graph.
pub fn max_degree_source(g: &Csr) -> NodeId {
    g.nodes()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v.raw())))
        .expect("non-empty graph")
}

/// One generated dataset analog with weighted and unweighted variants.
#[derive(Debug)]
pub struct DatasetInstance {
    /// The Table 3 spec this analog mirrors.
    pub spec: &'static DatasetSpec,
    /// Unweighted topology (BFS, CC, PR, BC).
    pub graph: Csr,
    /// Uniform-\[1,64\]-weighted variant (SSSP, SSWP).
    pub weighted: Csr,
}

impl DatasetInstance {
    /// Generates the analog for `spec` through the [`GraphStore`]
    /// artifact layer (cached under `TIGR_CACHE_DIR` when set).
    pub fn generate(spec: &'static DatasetSpec, cfg: &BenchConfig) -> Self {
        let tag = format!("dataset:{}:{}", spec.name, cfg.scale_denominator);
        let graph = prepare_input(&tag, cfg.seed, None).into_graph();
        let weighted = prepare_input(&tag, cfg.seed, Some((1, 64, cfg.seed ^ 0xA5))).into_graph();
        DatasetInstance {
            spec,
            graph,
            weighted,
        }
    }

    /// The highest-out-degree node: the source used for the
    /// source-driven analytics (guarantees non-trivial propagation).
    pub fn source(&self) -> NodeId {
        max_degree_source(&self.graph)
    }
}

/// Generates all six Table 3 analogs, printing progress to stderr.
pub fn load_datasets(cfg: &BenchConfig) -> Vec<DatasetInstance> {
    PAPER_DATASETS
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let d = DatasetInstance::generate(spec, cfg);
            eprintln!(
                "  generated {:<12} {:>9} nodes {:>10} edges in {:.1?}",
                spec.name,
                d.graph.num_nodes(),
                d.graph.num_edges(),
                t.elapsed()
            );
            d
        })
        .collect()
}

/// Generates a single dataset analog by name.
///
/// # Panics
///
/// Panics if `name` is not one of the Table 3 datasets.
pub fn load_datasets_one(cfg: &BenchConfig, name: &str) -> DatasetInstance {
    let spec = tigr_graph::datasets::by_name(name).expect("unknown dataset name");
    DatasetInstance::generate(spec, cfg)
}

/// Formats a cell: milliseconds with two decimals, `OOM`, or `-`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cell {
    /// Simulated milliseconds.
    Ms(f64),
    /// Out of device memory (Table 4's `OOM`).
    Oom,
    /// Primitive not available in this framework (`-`).
    Missing,
}

impl Cell {
    /// Renders the cell as the paper's tables do.
    pub fn render(&self) -> String {
        match self {
            Cell::Ms(v) => format!("{v:.2}"),
            Cell::Oom => "OOM".to_string(),
            Cell::Missing => "-".to_string(),
        }
    }

    /// The numeric value if present.
    pub fn as_ms(&self) -> Option<f64> {
        match self {
            Cell::Ms(v) => Some(*v),
            _ => None,
        }
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Converts total simulated cycles to nominal milliseconds under the
/// default device clock.
pub fn cycles_to_ms(cycles: u64) -> f64 {
    GpuConfig::default().cycles_to_ms(cycles)
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.scale_denominator, 256);
        assert_eq!(cfg.device_budget(), (8 << 30) / 256);
    }

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::Ms(12.345).render(), "12.35");
        assert_eq!(Cell::Oom.render(), "OOM");
        assert_eq!(Cell::Missing.render(), "-");
        assert_eq!(Cell::Ms(1.0).as_ms(), Some(1.0));
        assert_eq!(Cell::Oom.as_ms(), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn prepare_input_matches_direct_generation() {
        let p = prepare_input("rmat:7:8", 11, None);
        let direct =
            tigr_graph::generators::rmat(&tigr_graph::generators::RmatConfig::graph500(7, 8), 11);
        assert_eq!(p.graph(), &direct);
        let w = prepare_input("rmat:7:8", 11, Some((1, 9, 5)));
        assert!(w.graph().is_weighted());
        assert_eq!(w.graph().num_edges(), direct.num_edges());
        assert_eq!(w.into_graph().num_nodes(), direct.num_nodes());
    }

    #[test]
    fn dataset_instance_generates_both_variants() {
        let cfg = BenchConfig {
            scale_denominator: 4096,
            seed: 1,
        };
        let d = DatasetInstance::generate(&PAPER_DATASETS[0], &cfg);
        assert!(!d.graph.is_weighted());
        assert!(d.weighted.is_weighted());
        assert_eq!(d.graph.num_edges(), d.weighted.num_edges());
        let src = d.source();
        assert_eq!(
            d.graph.out_degree(src),
            d.graph.max_out_degree(),
            "source is the max-degree hub"
        );
    }
}
