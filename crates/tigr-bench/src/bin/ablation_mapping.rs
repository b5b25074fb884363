//! Ablation of the two virtualization designs of §4.1: the stored
//! *virtual node array* versus *dynamic (on-the-fly) mapping reasoning*.
//!
//! The paper describes the tradeoff qualitatively — "this design trades
//! off computation cost for better memory efficiency". This binary
//! quantifies it: cycles and instructions for SSSP with each design,
//! alongside the mapping-state memory each needs.

use tigr_bench::{cycles_to_ms, load_datasets, print_table, BenchConfig};
use tigr_core::{k_select, OnTheFlyMapper, VirtualGraph};
use tigr_engine::{Engine, FrontierMode, Pipeline, PushOptions, Representation, SyncMode};
use tigr_sim::GpuConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "Virtualization-design ablation at 1/{} scale (SSSP, full sweeps)",
        cfg.scale_denominator
    );
    let datasets = load_datasets(&cfg);
    // Both designs process all nodes per iteration here: on-the-fly
    // mapping has no per-node identity to worklist on.
    let engine = Engine::new(GpuConfig::default()).with_options(PushOptions {
        worklist: false,
        sort_frontier_by_degree: false,
        sync: SyncMode::Relaxed,
        max_iterations: 100_000,
        frontier: FrontierMode::Auto,
    });
    let k = k_select::VIRTUAL_K;

    let mut rows = Vec::new();
    for d in &datasets {
        let g = &d.weighted;
        let sssp = |rep: &Representation<'_>| {
            let out = engine.run_pipeline(rep, &Pipeline::sssp(), Some(d.source()));
            out.unwrap()
        };

        let overlay = VirtualGraph::new(g, k);
        let vna = sssp(&Representation::Virtual {
            graph: g,
            overlay: &overlay,
        });

        let mapper = OnTheFlyMapper::new(g, k);
        let otf = sssp(&Representation::OnTheFly { graph: g, mapper });
        assert_eq!(vna.values, otf.values, "designs must agree on results");

        rows.push(vec![
            d.spec.name.to_string(),
            format!("{:.2}", cycles_to_ms(vna.report.total_cycles())),
            format!("{}", overlay.size_bytes() / 1024),
            format!("{:.2}", cycles_to_ms(otf.report.total_cycles())),
            "0".to_string(),
            format!(
                "{:.2}x",
                otf.report.total_cycles() as f64 / vna.report.total_cycles() as f64
            ),
        ]);
    }

    print_table(
        "virtual node array vs on-the-fly mapping (SSSP)",
        &[
            "dataset", "VNA ms", "VNA KiB", "OTF ms", "OTF KiB", "OTF/VNA",
        ],
        &rows,
    );
    println!(
        "\nthe stored array wins time; dynamic reasoning wins memory —\n\
         the §4.1 compute-for-memory tradeoff, quantified."
    );
}
