//! Ablation of traversal direction: push (top-down) versus pull
//! (bottom-up over the transpose) versus the auto density switch, all
//! expressed as execution plans over the same engine.
//!
//! Runs BFS and SSSP on a power-law RMAT analog and on a star graph (the
//! pathological hub that motivates the paper's transformations) and
//! reports, per direction: iteration count, edge relaxations attempted,
//! simulated milliseconds, warp efficiency, and — for auto — how many
//! iterations ran in each direction. Every direction must reach values
//! identical to the push reference (Theorem 3 licenses the pull side);
//! asserted, not just printed.
//!
//! Output goes both to stdout (aligned table) and to a machine-readable
//! JSON file: `BENCH_direction.json` at the workspace root by default,
//! `target/BENCH_direction.smoke.json` under `--smoke` (the quick CI
//! configuration). `--out <path>` overrides the destination.
//! `TIGR_FRONTIER` selects the worklist policy the plans schedule with.

use std::fmt::Write as _;
use std::time::Instant;

use tigr_bench::{cycles_to_ms, max_degree_source, prepare_input, print_table, BenchConfig};
use tigr_core::PreparedGraph;
use tigr_engine::{Direction, Engine, MonotoneProgram, PushOptions, Representation};
use tigr_sim::GpuConfig;

/// One measured (graph, analytic, direction) cell.
struct Sample {
    graph: &'static str,
    analytic: &'static str,
    direction: Direction,
    sim_ms: f64,
    wall_ms: f64,
    iterations: usize,
    edges_touched: u64,
    pull_iterations: usize,
    warp_efficiency: f64,
}

impl Sample {
    fn json(&self) -> String {
        format!(
            "{{\"graph\": \"{}\", \"analytic\": \"{}\", \"direction\": \"{}\", \
             \"sim_ms\": {:.4}, \"wall_ms\": {:.3}, \"iterations\": {}, \
             \"edges_touched\": {}, \"pull_iterations\": {}, \"warp_efficiency\": {:.4}}}",
            self.graph,
            self.analytic,
            self.direction.label(),
            self.sim_ms,
            self.wall_ms,
            self.iterations,
            self.edges_touched,
            self.pull_iterations,
            self.warp_efficiency,
        )
    }

    fn row(&self) -> Vec<String> {
        let mix = if self.direction == Direction::Auto {
            format!(
                "{}p/{}g",
                self.iterations - self.pull_iterations,
                self.pull_iterations
            )
        } else {
            "-".to_string()
        };
        vec![
            self.direction.label().to_string(),
            self.iterations.to_string(),
            mix,
            self.edges_touched.to_string(),
            format!("{:.3}", self.sim_ms),
            format!("{:.1}", 100.0 * self.warp_efficiency),
            format!("{:.1}", self.wall_ms),
        ]
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_direction.smoke.json".to_string()
        } else {
            "BENCH_direction.json".to_string()
        }
    });
    // Smoke: a few thousand nodes — a CI-speed regression gate. Full: a
    // ≥60k-node power-law graph where the dense middle levels make the
    // direction switch pay. The simulator is deterministic, so a single
    // run per cell is exact; wall clock is informative only.
    let (scale, star_leaves) = if smoke {
        (10u32, 1usize << 10)
    } else {
        (16, 1 << 16)
    };

    let cfg = BenchConfig::from_env();
    let t = Instant::now();
    // Inputs resolve through the shared GraphStore artifact layer; set
    // TIGR_CACHE_DIR to skip regeneration on repeat runs.
    let weight_seed = cfg.seed ^ 0xD1;
    let graphs: Vec<(&'static str, PreparedGraph, PreparedGraph)> = vec![
        (
            "rmat",
            prepare_input(&format!("rmat:{scale}:16"), cfg.seed, None),
            prepare_input(
                &format!("rmat:{scale}:16"),
                cfg.seed,
                Some((1, 64, weight_seed)),
            ),
        ),
        (
            "star",
            prepare_input(&format!("star:{}", star_leaves + 1), cfg.seed, None),
            prepare_input(
                &format!("star:{}", star_leaves + 1),
                cfg.seed,
                Some((1, 64, weight_seed)),
            ),
        ),
    ];
    eprintln!("prepared inputs in {:.1?}", t.elapsed());
    println!(
        "Direction ablation (frontier: {}): push vs pull vs auto",
        cfg.frontier.label()
    );

    let mut samples: Vec<Sample> = Vec::new();
    for (name, unweighted, weighted) in &graphs {
        let g = unweighted.graph();
        let src = max_degree_source(g);
        eprintln!(
            "  {name}: {} nodes, {} edges, source {src}",
            g.num_nodes(),
            g.num_edges()
        );
        for (analytic, graph, prog) in [
            ("bfs", g, MonotoneProgram::BFS),
            ("sssp", weighted.graph(), MonotoneProgram::SSSP),
        ] {
            let rep = Representation::Original(graph);
            let mut reference: Option<Vec<u32>> = None;
            for direction in Direction::ALL {
                let engine = Engine::parallel(GpuConfig::default())
                    .with_options(PushOptions {
                        worklist: true,
                        frontier: cfg.frontier,
                        ..PushOptions::default()
                    })
                    .with_direction(direction);
                let t = Instant::now();
                let out = engine
                    .run_pipeline(&rep, &prog.pipeline(), Some(src))
                    .unwrap();
                let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                match &reference {
                    None => reference = Some(out.values.clone()),
                    Some(expect) => assert_eq!(
                        &out.values,
                        expect,
                        "{name}/{analytic}/{}: diverged from push reference",
                        direction.label()
                    ),
                }
                samples.push(Sample {
                    graph: name,
                    analytic,
                    direction,
                    sim_ms: cycles_to_ms(out.report.total_cycles()),
                    wall_ms,
                    iterations: out.report.num_iterations(),
                    edges_touched: out.edges_touched,
                    pull_iterations: out
                        .directions
                        .iter()
                        .filter(|&&d| d == Direction::Pull)
                        .count(),
                    warp_efficiency: out.report.warp_efficiency(),
                });
            }
        }
    }

    for (name, ..) in &graphs {
        for analytic in ["bfs", "sssp"] {
            let rows: Vec<Vec<String>> = samples
                .iter()
                .filter(|s| s.graph == *name && s.analytic == analytic)
                .map(Sample::row)
                .collect();
            print_table(
                &format!("{name}/{analytic}: traversal direction"),
                &[
                    "direction",
                    "iters",
                    "mix",
                    "edges",
                    "sim ms",
                    "warp eff %",
                    "wall ms",
                ],
                &rows,
            );
        }
    }

    // The unweighted power-law BFS is the shape the direction switch was
    // built for: auto must actually engage the pull side there.
    let rmat_auto_bfs = samples
        .iter()
        .find(|s| s.graph == "rmat" && s.analytic == "bfs" && s.direction == Direction::Auto)
        .expect("auto sample");
    assert!(
        rmat_auto_bfs.pull_iterations > 0,
        "auto never pulled on dense power-law BFS"
    );

    // Simulated-time ratios of pull/auto against the push baseline.
    let mut speedup_json = String::new();
    println!("\nsim-time speedup over push:");
    for (name, ..) in &graphs {
        for analytic in ["bfs", "sssp"] {
            let base = samples
                .iter()
                .find(|s| {
                    s.graph == *name && s.analytic == analytic && s.direction == Direction::Push
                })
                .expect("push baseline")
                .sim_ms;
            let mut parts = Vec::new();
            for s in samples.iter().filter(|s| {
                s.graph == *name && s.analytic == analytic && s.direction != Direction::Push
            }) {
                let speedup = base / s.sim_ms.max(1e-12);
                println!(
                    "  {name:<5} {analytic:<5} {:<5} {speedup:.2}x",
                    s.direction.label()
                );
                parts.push(format!("\"{}\": {:.4}", s.direction.label(), speedup));
            }
            let _ = write!(
                speedup_json,
                "{}\"{name}/{analytic}\": {{{}}}",
                if speedup_json.is_empty() { "" } else { ", " },
                parts.join(", ")
            );
        }
    }

    let graph_json = graphs
        .iter()
        .map(|(name, p, _)| {
            let g = p.graph();
            format!(
                "{{\"name\": \"{name}\", \"nodes\": {}, \"edges\": {}, \"max_out_degree\": {}}}",
                g.num_nodes(),
                g.num_edges(),
                g.max_out_degree()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"direction\",\n  \"smoke\": {smoke},\n  \"frontier\": \"{}\",\n  \
         \"graphs\": [{graph_json}],\n  \"results\": [\n    {}\n  ],\n  \
         \"sim_speedup_over_push\": {{{speedup_json}}}\n}}\n",
        cfg.frontier.label(),
        samples
            .iter()
            .map(Sample::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write JSON output");
    println!("\nwrote {out_path}");
}
