//! Ablation of active-frontier worklist scheduling: full sweeps versus
//! dense / sparse / auto-switched frontiers.
//!
//! Runs SSSP on RMAT and Barabási–Albert analogs and reports, per
//! scheduling policy: iteration count, edge relaxations attempted
//! (`edges_touched`), simulated milliseconds, and host wall-clock. The
//! frontier must reach the exact full-sweep fixpoint while attempting
//! strictly fewer relaxations — both are asserted, not just printed.
//!
//! `TIGR_FRONTIER` selects the policy for the composition row that runs
//! the frontier over a coalesced virtual overlay (Tigr-V+ + worklist).

use std::time::Instant;

use tigr_bench::{cycles_to_ms, max_degree_source, prepare_input, print_table, BenchConfig};
use tigr_core::{PreparedGraph, VirtualGraph};
use tigr_engine::{Engine, FrontierMode, Pipeline, PipelineOutput, PushOptions, Representation};
use tigr_sim::GpuConfig;

fn engine_with(worklist: bool, frontier: FrontierMode) -> Engine {
    Engine::parallel(GpuConfig::default()).with_options(PushOptions {
        worklist,
        frontier,
        ..PushOptions::default()
    })
}

fn row(label: &str, out: &PipelineOutput, wall: f64) -> Vec<String> {
    vec![
        label.to_string(),
        out.report.num_iterations().to_string(),
        out.edges_touched.to_string(),
        format!("{:.2}", cycles_to_ms(out.report.total_cycles())),
        format!("{wall:.1}"),
    ]
}

fn main() {
    let cfg = BenchConfig::from_env();
    // The paper's RMAT inputs have 2^24-ish nodes; analog at 1/scale.
    let scale = (24u32.saturating_sub(cfg.scale_denominator.max(1).ilog2())).max(10);
    let ba_nodes = ((1usize << 22) / cfg.scale_denominator.max(1) as usize).max(1024);
    println!(
        "Frontier-scheduling ablation at 1/{} scale (SSSP, composition mode: {})",
        cfg.scale_denominator,
        cfg.frontier.label()
    );

    // Inputs resolve through the shared GraphStore artifact layer; set
    // TIGR_CACHE_DIR to skip regeneration on repeat runs. The BA analog
    // is symmetric (undirected, as the social graphs BA models are — and
    // so the traversal reaches the whole graph).
    let datasets: Vec<(&str, PreparedGraph)> = vec![
        (
            "rmat",
            prepare_input(
                &format!("rmat:{scale}:16"),
                cfg.seed,
                Some((1, 64, cfg.seed)),
            ),
        ),
        (
            "barabasi-albert",
            prepare_input(
                &format!("ba:{ba_nodes}:8:sym"),
                cfg.seed,
                Some((1, 64, cfg.seed ^ 0xBA)),
            ),
        ),
    ];

    for (name, prepared) in &datasets {
        let g = prepared.graph();
        let src = max_degree_source(g);
        eprintln!(
            "  {name}: {} nodes, {} edges, source {src}",
            g.num_nodes(),
            g.num_edges()
        );
        let rep = Representation::Original(g);
        let run = |worklist: bool, mode: FrontierMode| {
            let engine = engine_with(worklist, mode);
            let t = Instant::now();
            let out = engine
                .run_pipeline(&rep, &Pipeline::sssp(), Some(src))
                .unwrap();
            (out, t.elapsed().as_secs_f64() * 1e3)
        };

        let (full, full_wall) = run(false, FrontierMode::Auto);
        let mut rows = vec![row("full-sweep", &full, full_wall)];
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            let (out, wall) = run(true, mode);
            assert_eq!(
                out.values,
                full.values,
                "{name}/{}: frontier values diverge from full sweep",
                mode.label()
            );
            assert!(
                out.edges_touched < full.edges_touched,
                "{name}/{}: frontier attempted {} relaxations, full sweep {}",
                mode.label(),
                out.edges_touched,
                full.edges_touched
            );
            rows.push(row(&format!("frontier-{}", mode.label()), &out, wall));
        }

        // Composition with Tigr-V+: the frontier expands physical nodes
        // into their virtual families before scheduling.
        let ov = VirtualGraph::coalesced(g, 8);
        let vrep = Representation::Virtual {
            graph: g,
            overlay: &ov,
        };
        let t = Instant::now();
        let vout = engine_with(true, cfg.frontier)
            .run_pipeline(&vrep, &Pipeline::sssp(), Some(src))
            .unwrap();
        let vwall = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            vout.values, full.values,
            "{name}: virtual+frontier diverges"
        );
        rows.push(row(
            &format!("virtual+frontier-{}", cfg.frontier.label()),
            &vout,
            vwall,
        ));

        print_table(
            &format!("{name}: full sweep vs frontier scheduling"),
            &["schedule", "iters", "edges touched", "sim ms", "wall ms"],
            &rows,
        );
    }

    println!(
        "\nall frontier schedules reached the full-sweep fixpoint with strictly \
         fewer edge relaxations"
    );
}
