//! Determinism guarantees: BSP-mode runs are bit-identical across
//! repeated executions and host-parallelism levels, and generation is
//! seed-stable — the properties the benchmark harness relies on.

use tigr::engine::{
    run_monotone, ExecutionPlan, FrontierMode, MonotoneProgram, PushOptions, SyncMode,
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
fn bsp_runs_are_bit_identical_across_repeats_and_threads() {
    let g = datasets::by_name("pokec")
        .unwrap()
        .generate_weighted(8192, 77);
    let src = NodeId::new(0);
    let overlay = VirtualGraph::coalesced(&g, 10);

    let run = |host_threads: usize| {
        let sim = GpuSimulator::new(GpuConfig::default()).with_host_threads(host_threads);
        run_monotone(
            &sim,
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

    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a.values, b.values);
    assert_eq!(a.values, c.values);
    // Sequential replay is fully deterministic, metrics included.
    assert_eq!(a.report.total(), b.report.total());
    // Parallel replay preserves the schedule-independent quantities:
    // results, iteration structure, and launched warps. Trace details
    // like which lane logs a frontier-enqueue atomic are won by racing
    // threads (exactly as on a GPU), so instruction/transaction counts
    // may wiggle by a few parts per million.
    assert_eq!(a.report.num_iterations(), c.report.num_iterations());
    let (at, ct) = (a.report.total(), c.report.total());
    assert_eq!(at.warps, ct.warps);
    let drift =
        (at.instructions as f64 - ct.instructions as f64).abs() / at.instructions.max(1) as f64;
    assert!(drift < 1e-2, "instruction drift {drift}");
}

#[test]
fn relaxed_mode_converges_to_the_same_values_regardless_of_schedule() {
    // Relaxed metrics may differ run to run, but monotone fixpoints
    // cannot.
    let g = datasets::by_name("hollywood")
        .unwrap()
        .generate_weighted(8192, 78);
    let src = NodeId::new(1);
    let run = |threads: usize| {
        let sim = GpuSimulator::new(GpuConfig::default()).with_host_threads(threads);
        run_monotone(
            &sim,
            &Representation::Original(&g),
            None,
            MonotoneProgram::SSSP,
            Some(src),
            &ExecutionPlan::default(),
        )
        .unwrap()
        .values
    };
    assert_eq!(run(1), run(8));
}

/// Frontier scheduling must be reproducible: for a fixed seed corpus of
/// (dataset, source) pairs, repeated runs — and runs at different host
/// parallelism — produce identical values, iteration counts, and edge
/// relaxation counts in every frontier mode. The next frontier is drained
/// from an atomic bitmap in ascending node order, so worker interleaving
/// cannot perturb the schedule.
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
            let run = |host_threads: usize| {
                let sim = GpuSimulator::new(GpuConfig::default()).with_host_threads(host_threads);
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
            let (a_o, a_v) = run(1);
            let (b_o, b_v) = run(1);
            let (c_o, c_v) = run(4);
            for (a, b, c) in [(&a_o, &b_o, &c_o), (&a_v, &b_v, &c_v)] {
                let ctx = format!("{name}/seed {seed}/src {src}/{}", mode.label());
                assert_eq!(a.values, b.values, "{ctx}: values drift across repeats");
                assert_eq!(
                    a.values, c.values,
                    "{ctx}: values drift across host threads"
                );
                assert_eq!(
                    a.report.num_iterations(),
                    b.report.num_iterations(),
                    "{ctx}: iteration count drifts across repeats"
                );
                assert_eq!(
                    a.report.num_iterations(),
                    c.report.num_iterations(),
                    "{ctx}: iteration count drifts across host threads"
                );
                assert_eq!(
                    a.edges_touched, b.edges_touched,
                    "{ctx}: edges touched drift"
                );
                assert_eq!(
                    a.edges_touched, c.edges_touched,
                    "{ctx}: edges touched drift across host threads"
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
