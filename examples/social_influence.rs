//! Social-network influence analysis — the paper's motivating use case
//! ("identifying influencers in social networks", §1).
//!
//! Builds a Barabási–Albert friendship network, then finds influencers
//! two ways: PageRank (global standing) and betweenness centrality
//! (brokerage). Both run on the virtually transformed graph, and the
//! example shows how much SIMD utilization the transformation recovers
//! on exactly this kind of hub-heavy data.
//!
//! ```sh
//! cargo run --release --example social_influence
//! ```

use tigr::engine::{bc, Pipeline, PrOptions};
use tigr::graph::generators::{barabasi_albert, BarabasiAlbertConfig};
use tigr::graph::stats::degree_stats;
use tigr::{Engine, NodeId, Representation, VirtualGraph};

fn main() {
    // A friendship network with preferential attachment: early members
    // become hubs, exactly the irregularity Tigr targets.
    let network = barabasi_albert(
        &BarabasiAlbertConfig {
            num_nodes: 20_000,
            edges_per_node: 4,
            symmetric: true,
        },
        7,
    );
    let stats = degree_stats(&network);
    println!(
        "social network: {} members, {} friendships, biggest hub has {} connections",
        stats.num_nodes,
        stats.num_edges / 2,
        stats.max_degree
    );

    let overlay = VirtualGraph::coalesced(&network, 10);
    let rep = Representation::Virtual {
        graph: &network,
        overlay: &overlay,
    };
    let engine = Engine::default();

    // --- PageRank influencers ---
    let ranks = engine
        .run_pipeline(&rep, &Pipeline::pagerank(PrOptions::default()), None)
        .unwrap();
    let mut by_rank: Vec<(usize, f32)> = ranks
        .values
        .iter()
        .map(|&b| f32::from_bits(b))
        .enumerate()
        .collect();
    by_rank.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 influencers by PageRank:");
    for (v, r) in by_rank.iter().take(5) {
        println!(
            "  member {v:>6}  rank {:.5}  ({} friends)",
            r,
            network.out_degree(NodeId::from_index(*v))
        );
    }

    // --- Brokers by betweenness (sampled sources) ---
    let sources: Vec<NodeId> = [0u32, 77, 500, 9_001, 19_999]
        .into_iter()
        .map(NodeId::new)
        .collect();
    let (centrality, bc_report) = bc::run_sampled(engine.sim(), &rep, &sources);
    let total_cycles = bc_report.total_cycles();
    let mut by_bc: Vec<(usize, f64)> = centrality.iter().copied().enumerate().collect();
    by_bc.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "\ntop-5 brokers by sampled betweenness ({} sources):",
        sources.len()
    );
    for (v, c) in by_bc.iter().take(5) {
        println!("  member {v:>6}  score {c:.1}");
    }
    println!("betweenness cost: {total_cycles} simulated cycles");

    // --- What the transformation bought us ---
    let base = engine
        .run_pipeline(
            &Representation::Original(&network),
            &Pipeline::bfs(),
            Some(NodeId::new(0)),
        )
        .unwrap();
    let tigr = engine
        .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
        .unwrap();
    println!(
        "\nBFS sweep efficiency: {:.1}% untransformed -> {:.1}% with Tigr-V+ ({:.2}x faster)",
        100.0 * base.report.warp_efficiency(),
        100.0 * tigr.report.warp_efficiency(),
        base.report.total_cycles() as f64 / tigr.report.total_cycles() as f64
    );
}
