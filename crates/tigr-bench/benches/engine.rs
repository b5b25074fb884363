//! Criterion benches for the engine across representations: the
//! micro-scale counterpart of Table 4 / Figure 13 (wall-clock of the
//! simulated runs; relative ordering mirrors the simulated cycles).

use criterion::{criterion_group, criterion_main, Criterion};

use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
use tigr_engine::{Engine, Pipeline, PushOptions, Representation};
use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
use tigr_graph::NodeId;
use tigr_sim::GpuConfig;

fn engine_benches(c: &mut Criterion) {
    let g = with_uniform_weights(&rmat(&RmatConfig::graph500(12, 8), 2018), 1, 64, 7);
    let src = Some(NodeId::new(0));
    let t = udt_transform(&g, 64, DumbWeight::Zero);
    let ov = VirtualGraph::new(&g, 10);
    let ovc = VirtualGraph::coalesced(&g, 10);
    let engine = Engine::new(GpuConfig::default()).with_options(PushOptions::default());
    let sssp = Pipeline::sssp();
    let reps = [
        ("baseline_original", Representation::Original(&g)),
        ("tigr_udt", Representation::Physical(&t)),
        (
            "tigr_v",
            Representation::Virtual {
                graph: &g,
                overlay: &ov,
            },
        ),
        (
            "tigr_v_plus",
            Representation::Virtual {
                graph: &g,
                overlay: &ovc,
            },
        ),
    ];

    let mut group = c.benchmark_group("sssp");
    group.sample_size(10);
    for (name, rep) in &reps {
        group.bench_function(*name, |b| {
            b.iter(|| engine.run_pipeline(rep, &sssp, src).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, engine_benches);
criterion_main!(benches);
