//! Regenerates Figure 13: speedups of Tigr-UDT, Tigr-V, and Tigr-V+ over
//! the baseline engine, for SSSP on every dataset.
//!
//! Expected shape (paper): geometric means ≈ 1.2× (UDT), 1.7× (V),
//! 2.1× (V+), with UDT < V < V+ on nearly every graph.

use tigr_bench::{cycles_to_ms, geomean, load_datasets, print_table, BenchConfig};
use tigr_core::{k_select, udt_transform, DumbWeight, VirtualGraph};
use tigr_engine::{Engine, Pipeline, PushOptions, Representation};
use tigr_sim::GpuConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "Figure 13 at 1/{} scale: SSSP speedups over the untransformed baseline",
        cfg.scale_denominator
    );
    let datasets = load_datasets(&cfg);
    let engine = Engine::new(GpuConfig::default()).with_options(PushOptions::default());

    let mut rows = Vec::new();
    let (mut s_udt, mut s_v, mut s_vp) = (Vec::new(), Vec::new(), Vec::new());

    for d in &datasets {
        let g = &d.weighted;
        let src = Some(d.source());
        let sssp = |rep: &Representation<'_>| {
            let out = engine.run_pipeline(rep, &Pipeline::sssp(), src);
            out.expect("every representation fits")
        };

        let base = sssp(&Representation::Original(g));
        let base_cycles = base.report.total_cycles();

        let k_udt = k_select::physical_k(g);
        let t = udt_transform(g, k_udt, DumbWeight::Zero);
        let udt = sssp(&Representation::Physical(&t));

        let k_v = k_select::VIRTUAL_K;
        let ov = VirtualGraph::new(g, k_v);
        let v = sssp(&Representation::Virtual {
            graph: g,
            overlay: &ov,
        });

        let ovc = VirtualGraph::coalesced(g, k_v);
        let vp = sssp(&Representation::Virtual {
            graph: g,
            overlay: &ovc,
        });

        let speedup = |cycles: u64| base_cycles as f64 / cycles as f64;
        let (su, sv, svp) = (
            speedup(udt.report.total_cycles()),
            speedup(v.report.total_cycles()),
            speedup(vp.report.total_cycles()),
        );
        s_udt.push(su);
        s_v.push(sv);
        s_vp.push(svp);

        rows.push(vec![
            d.spec.name.to_string(),
            format!("{:.2}", cycles_to_ms(base_cycles)),
            format!("{su:.2}x"),
            format!("{sv:.2}x"),
            format!("{svp:.2}x"),
        ]);
    }

    rows.push(vec![
        "geomean".to_string(),
        "-".to_string(),
        format!("{:.2}x", geomean(&s_udt)),
        format!("{:.2}x", geomean(&s_v)),
        format!("{:.2}x", geomean(&s_vp)),
    ]);

    print_table(
        "Figure 13: SSSP speedups over baseline (paper geomeans: 1.2x / 1.7x / 2.1x)",
        &["dataset", "base ms", "Tigr-UDT", "Tigr-V", "Tigr-V+"],
        &rows,
    );
}
