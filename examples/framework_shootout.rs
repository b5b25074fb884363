//! Mini Table 4: one dataset, every framework.
//!
//! Runs BFS, SSSP, and PageRank on a Pokec-like analog with Maximum
//! Warp, CuSha, a Gunrock-style frontier engine, and Tigr-V+, printing a
//! small comparison table — the workflow of the paper's §6.2 in one
//! binary.
//!
//! ```sh
//! cargo run --release --example framework_shootout
//! ```

use tigr::baselines::Baseline;
use tigr::engine::{MonotoneProgram, Pipeline, PrMode, PrOptions};
use tigr::graph::datasets;
use tigr::{Engine, GpuConfig, GpuSimulator, Representation, VirtualGraph};

fn main() {
    let spec = datasets::by_name("pokec").expect("pokec is a Table 3 dataset");
    let graph = spec.generate(1024, 2018);
    let weighted = spec.generate_weighted(1024, 2018);
    println!(
        "pokec analog: {} nodes, {} edges, dmax {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_out_degree()
    );

    let sim = GpuSimulator::new(GpuConfig::default());
    let src = tigr::NodeId::new(0);
    let overlay = VirtualGraph::coalesced(&graph, 10);
    let overlay_w = VirtualGraph::coalesced(&weighted, 10);
    let engine = Engine::new(GpuConfig::default());
    let ms = |cycles: u64| GpuConfig::default().cycles_to_ms(cycles);

    println!(
        "\n{:<8} {:>10} {:>10} {:>10} {:>10}",
        "alg", "MW", "CuSha", "Gunrock", "Tigr-V+"
    );
    for (alg, prog, g, ov) in [
        ("BFS", MonotoneProgram::BFS, &graph, &overlay),
        ("SSSP", MonotoneProgram::SSSP, &weighted, &overlay_w),
    ] {
        let mut cells = Vec::new();
        for b in Baseline::ALL {
            let r = b.run_monotone(&sim, g, prog, Some(src), None).unwrap();
            cells.push(ms(r.report.total_cycles()));
        }
        let tigr = engine
            .run_pipeline(
                &Representation::Virtual {
                    graph: g,
                    overlay: ov,
                },
                &prog.pipeline(),
                Some(src),
            )
            .unwrap();
        cells.push(ms(tigr.report.total_cycles()));
        println!(
            "{:<8} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.2}ms",
            alg, cells[0], cells[1], cells[2], cells[3]
        );
    }

    // PageRank: the one analytic where shard-based CuSha usually wins.
    let opts = PrOptions {
        max_iterations: 20,
        tolerance: 1e-4,
        mode: PrMode::Push,
        ..PrOptions::default()
    };
    let mut cells = Vec::new();
    for b in Baseline::ALL {
        let r = b.run_pagerank(&sim, &graph, &opts, None).unwrap();
        cells.push(ms(r.report.total_cycles()));
    }
    let tigr = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &graph,
                overlay: &overlay,
            },
            &Pipeline::pagerank(opts),
            None,
        )
        .unwrap();
    cells.push(ms(tigr.report.total_cycles()));
    println!(
        "{:<8} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.2}ms",
        "PR", cells[0], cells[1], cells[2], cells[3]
    );

    println!("\n(simulated milliseconds; expect Tigr-V+ ahead on BFS/SSSP, CuSha on PR)");
}
