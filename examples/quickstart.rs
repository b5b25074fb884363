//! Quickstart: transform an irregular graph and watch SIMD efficiency
//! recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tigr::engine::{Pipeline, PrOptions};
use tigr::graph::generators::{rmat, with_uniform_weights, RmatConfig};
use tigr::graph::properties::dijkstra;
use tigr::graph::stats::degree_stats;
use tigr::{DumbWeight, Engine, NodeId, Representation, VirtualGraph};

fn main() {
    // 1. A synthetic power-law graph: 16K nodes, ~128K edges, with hubs.
    let graph = with_uniform_weights(&rmat(&RmatConfig::graph500(14, 8), 42), 1, 64, 42);
    let stats = degree_stats(&graph);
    println!(
        "graph: {} nodes, {} edges, max degree {}, degree CV {:.2}",
        stats.num_nodes, stats.num_edges, stats.max_degree, stats.coefficient_of_variation
    );

    // 2. Transform it. Physically (UDT) ...
    let udt = tigr::udt_transform(&graph, 64, DumbWeight::Zero);
    println!(
        "UDT(K=64): +{} split nodes, +{} edges, max degree now {}",
        udt.num_split_nodes(),
        udt.num_new_edges(),
        udt.graph().max_out_degree()
    );
    // ... or virtually (no graph change at all — just an overlay).
    let overlay = VirtualGraph::coalesced(&graph, 10);
    println!(
        "virtual(K=10): {} virtual nodes over {} physical, overlay costs {} KiB",
        overlay.num_virtual_nodes(),
        overlay.num_physical_nodes(),
        overlay.size_bytes() / 1024
    );

    // 3. Run SSSP on the simulated GPU, all three ways.
    // Every analytic is one operator pipeline; the output carries the
    // simulator's report alongside the values.
    let engine = Engine::default();
    let src = NodeId::new(0);
    let sssp = |rep: &Representation<'_>| {
        engine
            .run_pipeline(rep, &Pipeline::sssp(), Some(src))
            .unwrap()
    };
    let base = sssp(&Representation::Original(&graph));
    let phys = sssp(&Representation::Physical(&udt));
    let virtual_rep = Representation::Virtual {
        graph: &graph,
        overlay: &overlay,
    };
    let virt = sssp(&virtual_rep);

    // All agree with Dijkstra.
    let oracle = dijkstra(&graph, src);
    assert_eq!(base.values, oracle);
    assert_eq!(udt.project_values(&phys.values), oracle);
    assert_eq!(virt.values, oracle);
    println!("\nall three representations agree with Dijkstra ✓");

    println!(
        "\n{:<12} {:>8} {:>14} {:>12}",
        "repr", "#iter", "cycles", "warp effi."
    );
    for (name, out) in [("original", &base), ("udt", &phys), ("virtual+", &virt)] {
        println!(
            "{:<12} {:>8} {:>14} {:>11.1}%",
            name,
            out.report.num_iterations(),
            out.report.total_cycles(),
            100.0 * out.report.warp_efficiency()
        );
    }
    println!(
        "\nTigr-V+ speedup over baseline: {:.2}x",
        base.report.total_cycles() as f64 / virt.report.total_cycles() as f64
    );

    // 4. PageRank works on the virtual layer too (Corollary 4); its ranks
    // travel as f32 bit patterns.
    let ranks = engine
        .run_pipeline(
            &virtual_rep,
            &Pipeline::pagerank(PrOptions::default()),
            None,
        )
        .unwrap();
    let top = ranks
        .values
        .iter()
        .map(|&bits| f32::from_bits(bits))
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    println!("top PageRank node: {} (rank {:.5})", top.0, top.1);
}
