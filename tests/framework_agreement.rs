//! All frameworks must agree on *results* — they differ only in cost.
//! This is the cross-implementation differential test: MW, CuSha,
//! Gunrock, the Tigr engine (all representations), and the CPU path all
//! compute the same fixpoints.

use tigr::baselines::{Baseline, CushaMode};
use tigr::engine::{BackendKind, CpuOptions, MonotoneProgram, Pipeline};
use tigr::graph::datasets;
use tigr::graph::properties as oracle;
use tigr::{Engine, NodeId, Representation, VirtualGraph};
use tigr_sim::GpuSimulator;

fn fixture() -> tigr::Csr {
    datasets::by_name("hollywood")
        .unwrap()
        .generate_weighted(8192, 3)
}

#[test]
fn five_implementations_one_sssp_answer() {
    let g = fixture();
    let src = NodeId::new(0);
    let expect = oracle::dijkstra(&g, src);
    let sim = GpuSimulator::new(tigr::GpuConfig::default());

    for b in [
        Baseline::MaximumWarp { width: Some(8) },
        Baseline::CuSha {
            mode: CushaMode::GShards,
        },
        Baseline::CuSha {
            mode: CushaMode::ConcatenatedWindows,
        },
        Baseline::Gunrock,
    ] {
        let out = b
            .run_monotone(&sim, &g, MonotoneProgram::SSSP, Some(src), None)
            .unwrap();
        assert_eq!(out.values, expect, "{} disagrees", b.name());
    }

    let engine = Engine::new(tigr::GpuConfig::default());
    let overlay = VirtualGraph::coalesced(&g, 10);
    let tigr_out = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            &Pipeline::sssp(),
            Some(src),
        )
        .unwrap();
    assert_eq!(tigr_out.values, expect, "Tigr-V+ disagrees");

    let cpu = Engine::default()
        .with_backend(BackendKind::CpuPool)
        .with_cpu_options(CpuOptions { threads: 4 })
        .run_pipeline(&Representation::Original(&g), &Pipeline::sssp(), Some(src))
        .unwrap();
    assert_eq!(cpu.values, expect, "CPU pool disagrees");
}

#[test]
fn all_frameworks_agree_on_pagerank() {
    let g = datasets::by_name("pokec").unwrap().generate(8192, 5);
    let sim = GpuSimulator::new(tigr::GpuConfig::default());
    let opts = tigr::engine::PrOptions {
        max_iterations: 30,
        tolerance: 1e-7,
        ..tigr::engine::PrOptions::default()
    };
    let expect = oracle::pagerank(&g, 0.85, 30);

    for b in Baseline::ALL {
        let b = match b {
            // Pin MW's width: the auto sweep is unnecessary for a
            // result-equality test.
            Baseline::MaximumWarp { .. } => Baseline::MaximumWarp { width: Some(8) },
            other => other,
        };
        let out = b.run_pagerank(&sim, &g, &opts, None).unwrap();
        for (i, (&got, &want)) in out.ranks.iter().zip(&expect).enumerate() {
            assert!(
                (got as f64 - want).abs() < 1e-4,
                "{}: rank[{i}] {got} vs {want}",
                b.name()
            );
        }
    }
}

#[test]
fn frameworks_differ_in_cost_not_in_answers() {
    // Sanity on the evaluation premise: identical values, different
    // cycle counts.
    let g = fixture();
    let src = NodeId::new(0);
    let sim = GpuSimulator::new(tigr::GpuConfig::default());

    let mw = Baseline::MaximumWarp { width: Some(4) }
        .run_monotone(&sim, &g, MonotoneProgram::BFS, Some(src), None)
        .unwrap();
    let gunrock = Baseline::Gunrock
        .run_monotone(&sim, &g, MonotoneProgram::BFS, Some(src), None)
        .unwrap();
    assert_eq!(mw.values, gunrock.values);
    assert_ne!(
        mw.report.total_cycles(),
        gunrock.report.total_cycles(),
        "cost models should distinguish the strategies"
    );
}
