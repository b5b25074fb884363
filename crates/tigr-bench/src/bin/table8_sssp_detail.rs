//! Regenerates Table 8: the SSSP case study on LiveJournal with K = 8.
//!
//! Reports, for the original / physically transformed / virtually
//! transformed graph, with and without the worklist optimization:
//! iteration count, cycles per iteration, executed instructions, and
//! warp efficiency.
//!
//! Expected shape (paper, without worklist): physical needs >2× the
//! iterations; virtual needs none extra; both raise warp efficiency from
//! ~26% to >90%; the worklist slashes instruction counts everywhere.

use tigr_bench::{load_datasets_one, print_table, BenchConfig};
use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
use tigr_engine::{Engine, FrontierMode, Pipeline, PushOptions, Representation, SyncMode};
use tigr_sim::GpuConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "Table 8 at 1/{} scale: SSSP on the LiveJournal analog, K = 8",
        cfg.scale_denominator
    );
    let d = load_datasets_one(&cfg, "livejournal");
    let g = &d.weighted;
    let src = Some(d.source());
    let k = 8;

    let t = udt_transform(g, k, DumbWeight::Zero);
    let ov = VirtualGraph::coalesced(g, k);

    let mut rows = Vec::new();
    // The third configuration batches similar degrees into warps, which
    // is what lifts the paper's original+worklist efficiency to 60.53%.
    for (worklist, sorted) in [(false, false), (true, false), (true, true)] {
        let engine = Engine::new(GpuConfig::default()).with_options(PushOptions {
            worklist,
            sort_frontier_by_degree: sorted,
            sync: SyncMode::Relaxed,
            max_iterations: 100_000,
            // Degree batching reorders the compacted list, so pin the
            // sparse representation.
            frontier: FrontierMode::Sparse,
        });
        let virt = Representation::Virtual {
            graph: g,
            overlay: &ov,
        };
        let runs = [
            ("original", Representation::Original(g)),
            ("physical", Representation::Physical(&t)),
            ("virtual", virt),
        ];
        for (name, rep) in runs {
            let out = engine.run_pipeline(&rep, &Pipeline::sssp(), src).unwrap();
            let total = out.report.total();
            let suffix = match (worklist, sorted) {
                (false, _) => "",
                (true, false) => " +worklist",
                (true, true) => " +worklist sorted",
            };
            rows.push(vec![
                format!("{name}{suffix}"),
                out.report.num_iterations().to_string(),
                format!("{:.0}", out.report.cycles_per_iteration()),
                format!("{:.2e}", total.instructions as f64),
                format!("{:.2}%", 100.0 * out.report.warp_efficiency()),
            ]);
        }
    }

    print_table(
        "Table 8: SSSP performance details (LiveJournal analog, K=8)",
        &[
            "configuration",
            "#iter",
            "cycles/iter",
            "#instr",
            "warp effi.",
        ],
        &rows,
    );
    println!(
        "\npaper reference (no worklist): original 14 iters @ 25.98% effi.;\n\
         physical 29 iters @ 91.15%; virtual 14 iters @ 92.81%.\n\
         with worklist: 18 / 45 / 18 iters, instructions cut 3-4x."
    );
}
