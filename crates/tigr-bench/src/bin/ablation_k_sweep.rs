//! Ablation of the degree bound K (§5, §6.4): virtual transformation is
//! insensitive to K while the physical transformation varies strongly.
//!
//! Sweeps SSSP on the LiveJournal analog over K for both schemes and
//! prints cycles relative to each scheme's best K.

use tigr_bench::{cycles_to_ms, load_datasets_one, print_table, BenchConfig};
use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
use tigr_engine::{Engine, Pipeline, PushOptions, Representation};
use tigr_sim::GpuConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "K-sensitivity ablation at 1/{} scale (SSSP, LiveJournal analog)",
        cfg.scale_denominator
    );
    let d = load_datasets_one(&cfg, "livejournal");
    let g = &d.weighted;
    let src = Some(d.source());
    let engine = Engine::new(GpuConfig::default()).with_options(PushOptions::default());
    let sssp = |rep: &Representation<'_>| engine.run_pipeline(rep, &Pipeline::sssp(), src).unwrap();

    let ks = [4u32, 8, 10, 16, 32, 64, 128];

    let mut virt_cycles = Vec::new();
    let mut phys_cycles = Vec::new();
    for &k in &ks {
        let ov = VirtualGraph::coalesced(g, k);
        let v = sssp(&Representation::Virtual {
            graph: g,
            overlay: &ov,
        });
        virt_cycles.push(v.report.total_cycles());

        let t = udt_transform(g, k.max(2), DumbWeight::Zero);
        let p = sssp(&Representation::Physical(&t));
        phys_cycles.push(p.report.total_cycles());
    }

    let min_v = *virt_cycles.iter().min().unwrap() as f64;
    let min_p = *phys_cycles.iter().min().unwrap() as f64;

    let mut rows = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        rows.push(vec![
            k.to_string(),
            format!("{:.2}", cycles_to_ms(virt_cycles[i])),
            format!("{:.2}x", virt_cycles[i] as f64 / min_v),
            format!("{:.2}", cycles_to_ms(phys_cycles[i])),
            format!("{:.2}x", phys_cycles[i] as f64 / min_p),
        ]);
    }
    print_table(
        "K sweep: virtual vs physical (x = slowdown vs best K of that scheme)",
        &[
            "K",
            "virtual ms",
            "virt vs best",
            "physical ms",
            "phys vs best",
        ],
        &rows,
    );

    let spread = |cycles: &[u64]| {
        let max = *cycles.iter().max().unwrap() as f64;
        let min = *cycles.iter().min().unwrap() as f64;
        max / min
    };
    println!(
        "\nspread across K: virtual {:.2}x, physical {:.2}x\n\
         (paper: virtual shows only marginal K-sensitivity; physical varies substantially)",
        spread(&virt_cycles),
        spread(&phys_cycles)
    );
}
