//! Determinism guarantees: simulated runs are bit-identical across
//! repeated executions, metrics included, and generation is seed-stable
//! — the properties the benchmark harness relies on.

use tigr::engine::{
    run_monotone, ExecutionPlan, FrontierMode, HostLoop, MonotoneProgram, PushOptions, SyncMode,
};
use tigr::graph::datasets;
use tigr::{NodeId, Representation, VirtualGraph};
use tigr_sim::{GpuConfig, GpuSimulator};

fn plan(push: PushOptions) -> ExecutionPlan {
    ExecutionPlan {
        push,
        ..ExecutionPlan::default()
    }
}

fn bsp_opts(worklist: bool) -> PushOptions {
    PushOptions {
        worklist,
        sort_frontier_by_degree: false,
        sync: SyncMode::Bsp,
        max_iterations: 100_000,
        frontier: FrontierMode::Auto,
    }
}

#[test]
fn bsp_runs_are_bit_identical_across_repeats() {
    let g = datasets::by_name("pokec")
        .unwrap()
        .generate_weighted(8192, 77);
    let src = NodeId::new(0);
    let overlay = VirtualGraph::coalesced(&g, 10);

    let run = || {
        run_monotone(
            &GpuSimulator::new(GpuConfig::default()),
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            None,
            MonotoneProgram::SSSP,
            Some(src),
            &plan(bsp_opts(true)),
        )
        .unwrap()
    };

    let (a, b) = (run(), run());
    assert_eq!(a.values, b.values);
    assert_eq!(a.report, b.report);
    assert_eq!(a.edges_touched, b.edges_touched);
}

#[test]
fn relaxed_mode_converges_to_the_same_values_regardless_of_schedule() {
    // Relaxed sweeps see values written earlier in the same sweep, BSP
    // sweeps only the previous round's; the monotone fixpoint is the
    // same, on the simulator and on the host loop alike.
    let g = datasets::by_name("hollywood")
        .unwrap()
        .generate_weighted(8192, 78);
    let src = Some(NodeId::new(1));
    let rep = Representation::Original(&g);
    let sim = GpuSimulator::new(GpuConfig::default());
    let relaxed = ExecutionPlan::default();
    let bsp = plan(bsp_opts(true));
    let run = |on_sim: bool, plan: &ExecutionPlan| {
        if on_sim {
            run_monotone(&sim, &rep, None, MonotoneProgram::SSSP, src, plan)
        } else {
            run_monotone(&HostLoop, &rep, None, MonotoneProgram::SSSP, src, plan)
        }
        .unwrap()
        .values
    };
    let reference = run(true, &relaxed);
    assert_eq!(run(false, &relaxed), reference);
    assert_eq!(run(true, &bsp), reference);
    assert_eq!(run(false, &bsp), reference);
}

/// Frontier scheduling must be reproducible: for a fixed seed corpus of
/// (dataset, source) pairs, repeated runs produce identical values,
/// reports and edge relaxation counts in every frontier mode. The next
/// frontier is drained from a bitmap in ascending node order.
#[test]
fn frontier_runs_are_deterministic_over_seed_corpus() {
    let corpus = [
        ("pokec", 101u64, 0u32),
        ("pokec", 202, 5),
        ("hollywood", 303, 1),
        ("orkut", 404, 7),
    ];
    for (name, seed, src) in corpus {
        let g = datasets::by_name(name)
            .unwrap()
            .generate_weighted(16384, seed);
        let src = NodeId::new(src);
        let overlay = VirtualGraph::coalesced(&g, 8);
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            let opts = plan(PushOptions {
                frontier: mode,
                ..bsp_opts(true)
            });
            let run = || {
                let sim = GpuSimulator::new(GpuConfig::default());
                let orig = run_monotone(
                    &sim,
                    &Representation::Original(&g),
                    None,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &opts,
                )
                .unwrap();
                let virt = run_monotone(
                    &sim,
                    &Representation::Virtual {
                        graph: &g,
                        overlay: &overlay,
                    },
                    None,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &opts,
                )
                .unwrap();
                (orig, virt)
            };
            let (a_o, a_v) = run();
            let (b_o, b_v) = run();
            for (a, b) in [(&a_o, &b_o), (&a_v, &b_v)] {
                let ctx = format!("{name}/seed {seed}/src {src}/{}", mode.label());
                assert_eq!(a.values, b.values, "{ctx}: values drift across repeats");
                assert_eq!(a.report, b.report, "{ctx}: report drifts across repeats");
                assert_eq!(
                    a.edges_touched, b.edges_touched,
                    "{ctx}: edges touched drift"
                );
            }
            // Original and virtual scheduling agree on the fixpoint too.
            assert_eq!(a_o.values, a_v.values, "{name}/{}", mode.label());
        }
    }
}

#[test]
fn dataset_generation_is_seed_stable() {
    let spec = datasets::by_name("orkut").unwrap();
    assert_eq!(spec.generate(8192, 5), spec.generate(8192, 5));
    assert_ne!(spec.generate(8192, 5), spec.generate(8192, 6));
}

#[test]
fn transformations_are_deterministic() {
    let g = datasets::by_name("pokec").unwrap().generate(8192, 9);
    let a = tigr::udt_transform(&g, 16, tigr::DumbWeight::Zero);
    let b = tigr::udt_transform(&g, 16, tigr::DumbWeight::Zero);
    assert_eq!(a.graph(), b.graph());
    let ov_a = VirtualGraph::coalesced(&g, 10);
    let ov_b = VirtualGraph::coalesced(&g, 10);
    assert_eq!(ov_a, ov_b);
}
