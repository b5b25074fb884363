//! Regenerates Table 4: execution-time comparison of MW, CuSha,
//! Gunrock, and Tigr-V+ across six analytics and six graphs.
//!
//! Expected shape (paper): Tigr-V+ wins most BFS/SSSP/SSWP/BC/CC cells
//! (1.04×–10.4× over the best competitor); CuSha wins PR (pull/scan
//! parallelism); CuSha and Gunrock hit OOM on the largest graphs while
//! MW and Tigr-V+ never do.
//!
//! Environment knobs: `TIGR_SCALE` (analog scale), `TIGR_DATASETS` /
//! `TIGR_ALGS` (comma-separated subsets), `TIGR_FAST=1` (single MW
//! width instead of the best-of-5 sweep).

use tigr_baselines::Baseline;
use tigr_bench::{cycles_to_ms, load_datasets, print_table, BenchConfig, Cell, DatasetInstance};
use tigr_core::{k_select, VirtualGraph};
use tigr_engine::{
    Engine, EngineError, MonotoneProgram, Pipeline, PrMode, PrOptions, Representation,
};
use tigr_graph::Csr;
use tigr_sim::GpuSimulator;

fn main() {
    let cfg = BenchConfig::from_env();
    let budget = cfg.device_budget();
    println!(
        "Table 4 at 1/{} scale; device budget {} MiB (8 GiB scaled)",
        cfg.scale_denominator,
        budget >> 20
    );

    let dataset_filter = env_set("TIGR_DATASETS");
    let alg_filter = env_set("TIGR_ALGS");
    let fast = std::env::var("TIGR_FAST").is_ok();

    let datasets: Vec<DatasetInstance> = load_datasets(&cfg)
        .into_iter()
        .filter(|d| {
            dataset_filter
                .as_ref()
                .is_none_or(|f| f.contains(d.spec.name))
        })
        .collect();

    let sim = cfg.simulator();
    let mw = Baseline::MaximumWarp {
        width: if fast { Some(8) } else { None },
    };
    let gunrock = Baseline::Gunrock;

    let algs = ["bfs", "sssp", "pr", "cc", "sswp", "bc"];
    let mut rows = Vec::new();

    for alg in algs {
        if let Some(f) = &alg_filter {
            if !f.contains(alg) {
                continue;
            }
        }
        for d in &datasets {
            eprintln!("  running {} / {} ...", alg, d.spec.name);
            let g: &Csr = if alg == "sssp" || alg == "sswp" {
                &d.weighted
            } else {
                &d.graph
            };
            let src = d.source();

            let prog = match alg {
                "bfs" => Some(MonotoneProgram::BFS),
                "sssp" => Some(MonotoneProgram::SSSP),
                "cc" => Some(MonotoneProgram::CC),
                "sswp" => Some(MonotoneProgram::SSWP),
                _ => None,
            };
            let source = prog.and_then(|p| p.needs_source().then_some(src));

            let run_baseline = |b: Baseline| -> Cell {
                match (prog, alg) {
                    (Some(p), _) => b
                        .run_monotone(&sim, g, p, source, Some(budget))
                        .map(|r| Cell::Ms(cycles_to_ms(r.report.total_cycles())))
                        .unwrap_or(Cell::Oom),
                    (None, "pr") => b
                        .run_pagerank(&sim, g, &pr_options(), Some(budget))
                        .map(|r| Cell::Ms(cycles_to_ms(r.report.total_cycles())))
                        .unwrap_or(Cell::Oom),
                    (None, "bc") => gunrock_bc(&sim, g, src, budget),
                    _ => Cell::Missing,
                }
            };

            let mut cells: Vec<Cell> = Vec::new();
            // MW: best virtual-warp width (or fixed in fast mode).
            cells.push(if alg == "bc" {
                Cell::Missing
            } else {
                run_baseline(mw)
            });
            // CuSha: the better of G-Shards and Concatenated Windows,
            // as the paper reports.
            cells.push(if alg == "bc" {
                Cell::Missing
            } else {
                let gs = run_baseline(Baseline::CuSha {
                    mode: tigr_baselines::CushaMode::GShards,
                });
                let cw = run_baseline(Baseline::CuSha {
                    mode: tigr_baselines::CushaMode::ConcatenatedWindows,
                });
                match (gs.as_ms(), cw.as_ms()) {
                    (Some(a), Some(b)) => Cell::Ms(a.min(b)),
                    (Some(a), None) => Cell::Ms(a),
                    (None, Some(b)) => Cell::Ms(b),
                    (None, None) => gs,
                }
            });
            // Gunrock lacks SSWP (as in the paper's Table 4).
            cells.push(if alg == "sswp" {
                Cell::Missing
            } else {
                run_baseline(gunrock)
            });

            // --- Tigr-V+ ---
            cells.push(tigr_vplus(&sim, g, alg, prog, source, src, budget));

            let mut row = vec![alg.to_uppercase(), d.spec.name.to_string()];
            row.extend(cells.iter().map(Cell::render));
            // Bold-equivalent: mark the winner with '*'.
            let best = cells
                .iter()
                .filter_map(Cell::as_ms)
                .fold(f64::INFINITY, f64::min);
            for (i, c) in cells.iter().enumerate() {
                if c.as_ms() == Some(best) {
                    row[i + 2] = format!("{}*", row[i + 2]);
                }
            }
            rows.push(row);
        }
    }

    print_table(
        "Table 4: performance comparison (simulated ms; * = best; OOM as in paper)",
        &["alg", "dataset", "MW", "CuSha", "Gunrock", "Tigr-V+"],
        &rows,
    );
}

fn pr_options() -> PrOptions {
    PrOptions {
        damping: 0.85,
        tolerance: 1e-4,
        max_iterations: 20,
        mode: PrMode::Push,
    }
}

/// Gunrock's BC: the frontier-level-synchronous Brandes of the engine on
/// the original representation (Gunrock's forward/backward operators map
/// onto exactly this structure).
fn gunrock_bc(sim: &GpuSimulator, g: &Csr, src: tigr_graph::NodeId, budget: u64) -> Cell {
    let rep = Representation::Original(g);
    if rep.device_footprint_bytes() + 2 * g.num_edges() as u64 * 4 > budget {
        return Cell::Oom;
    }
    let out = tigr_engine::bc::run(sim, &rep, src);
    Cell::Ms(cycles_to_ms(out.report.total_cycles()))
}

/// Tigr-V+: coalesced virtual overlay at K = 10 with worklist.
fn tigr_vplus(
    sim: &GpuSimulator,
    g: &Csr,
    alg: &str,
    prog: Option<MonotoneProgram>,
    source: Option<tigr_graph::NodeId>,
    bc_source: tigr_graph::NodeId,
    budget: u64,
) -> Cell {
    let overlay = VirtualGraph::coalesced(g, k_select::VIRTUAL_K);
    let rep = Representation::Virtual {
        graph: g,
        overlay: &overlay,
    };
    let engine = Engine::new(*sim.config()).with_device_memory(budget);

    let to_cell = |cycles: u64| Cell::Ms(cycles_to_ms(cycles));
    let result = match (prog, alg) {
        (Some(p), _) => engine.run_pipeline(&rep, &p.pipeline(), source),
        (None, "pr") => engine.run_pipeline(&rep, &Pipeline::pagerank(pr_options()), None),
        (None, "bc") => engine.run_pipeline(&rep, &Pipeline::betweenness(), Some(bc_source)),
        _ => return Cell::Missing,
    };
    match result {
        Ok(o) => to_cell(o.report.total_cycles()),
        Err(EngineError::OutOfMemory(_)) => Cell::Oom,
        Err(_) => Cell::Missing,
    }
}

fn env_set(var: &str) -> Option<std::collections::HashSet<String>> {
    std::env::var(var)
        .ok()
        .map(|s| s.split(',').map(|t| t.trim().to_lowercase()).collect())
}
