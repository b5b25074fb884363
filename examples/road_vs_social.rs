//! Road network vs social network: when does Tigr help?
//!
//! Tigr's transformations target *power-law* irregularity. A road
//! network (modeled as a grid) is already regular — every intersection
//! has at most four neighbors — so splitting has nothing to do. This
//! example quantifies that contrast, reproducing the paper's framing
//! that the benefit tracks the degree skew of the input.
//!
//! ```sh
//! cargo run --release --example road_vs_social
//! ```

use tigr::engine::Pipeline;
use tigr::graph::generators::{grid_2d, rmat, with_uniform_weights, RmatConfig};
use tigr::graph::stats::degree_stats;
use tigr::graph::Csr;
use tigr::{Engine, NodeId, Representation, VirtualGraph};

fn report(name: &str, g: &Csr, engine: &Engine) {
    let s = degree_stats(g);
    let overlay = VirtualGraph::coalesced(g, 10);
    let src = NodeId::new(0);

    let base = engine
        .run_pipeline(&Representation::Original(g), &Pipeline::sssp(), Some(src))
        .unwrap();
    let tigr = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: g,
                overlay: &overlay,
            },
            &Pipeline::sssp(),
            Some(src),
        )
        .unwrap();
    assert_eq!(base.values, tigr.values);

    println!(
        "{name:<14} dmax {:>6}  CV {:>5.2}  | warp effi. {:>5.1}% -> {:>5.1}%  | speedup {:.2}x",
        s.max_degree,
        s.coefficient_of_variation,
        100.0 * base.report.warp_efficiency(),
        100.0 * tigr.report.warp_efficiency(),
        base.report.total_cycles() as f64 / tigr.report.total_cycles() as f64,
    );
}

fn main() {
    let engine = Engine::default();

    // A 150x150 city grid with travel times: regular, high diameter.
    let road = with_uniform_weights(&grid_2d(150, 150), 1, 10, 3);

    // A social graph of the same node count: skewed, low diameter.
    let social = with_uniform_weights(&rmat(&RmatConfig::heavy_tail(15, 8), 3), 1, 10, 3);

    println!("SSSP with Tigr-V+ (K=10) vs untransformed baseline:\n");
    report("road grid", &road, &engine);
    report("social rmat", &social, &engine);

    println!(
        "\nthe transformation pays off where the degree distribution is skewed; on a\n\
         regular, high-diameter grid nothing is split and the virtual layer only adds\n\
         per-iteration frontier-expansion overhead — use the plain engine there."
    );
}
