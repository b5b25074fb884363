//! End-to-end integration: every analytic × every representation on a
//! realistic power-law analog, validated against the sequential oracles.

use tigr::core::k_select;
use tigr::engine::{pr, FrontierMode, MonotoneProgram, Pipeline, PushOptions, SyncMode};
use tigr::graph::datasets;
use tigr::graph::properties as oracle;
use tigr::{DumbWeight, Engine, NodeId, Representation, VirtualGraph};

/// A small but genuinely irregular analog of Pokec.
fn analog() -> (tigr::Csr, tigr::Csr) {
    let spec = datasets::by_name("pokec").unwrap();
    (spec.generate(4096, 7), spec.generate_weighted(4096, 7))
}

fn engine() -> Engine {
    Engine::parallel(tigr::GpuConfig::default())
}

#[test]
fn sssp_agrees_across_all_representations() {
    let (_, g) = analog();
    let src = NodeId::new(0);
    let expect = oracle::dijkstra(&g, src);
    let engine = engine();

    let base = engine
        .run_pipeline(&Representation::Original(&g), &Pipeline::sssp(), Some(src))
        .unwrap();
    assert_eq!(base.values, expect);

    let k = k_select::physical_k(&g);
    let t = tigr::udt_transform(&g, k, DumbWeight::Zero);
    let phys = engine
        .run_pipeline(&Representation::Physical(&t), &Pipeline::sssp(), Some(src))
        .unwrap();
    assert_eq!(t.project_values(&phys.values), expect);

    for overlay in [VirtualGraph::new(&g, 10), VirtualGraph::coalesced(&g, 10)] {
        let v = engine
            .run_pipeline(
                &Representation::Virtual {
                    graph: &g,
                    overlay: &overlay,
                },
                &Pipeline::sssp(),
                Some(src),
            )
            .unwrap();
        assert_eq!(v.values, expect);
    }
}

#[test]
fn bfs_and_sswp_agree_with_oracles() {
    let (g, w) = analog();
    let src = NodeId::new(3);
    let engine = engine();
    let overlay = VirtualGraph::coalesced(&g, 10);

    let bfs = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            &Pipeline::bfs(),
            Some(src),
        )
        .unwrap();
    let expect: Vec<u32> = oracle::bfs_levels(&g, src)
        .into_iter()
        .map(|l| if l == usize::MAX { u32::MAX } else { l as u32 })
        .collect();
    assert_eq!(bfs.values, expect);

    let overlay_w = VirtualGraph::coalesced(&w, 10);
    let sswp = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &w,
                overlay: &overlay_w,
            },
            &Pipeline::sswp(),
            Some(src),
        )
        .unwrap();
    assert_eq!(sswp.values, oracle::widest_path(&w, src));
}

#[test]
fn cc_component_structure_is_preserved() {
    // Symmetrize the analog so weak components are well-defined.
    let (g, _) = analog();
    let mut b = tigr::CsrBuilder::new(g.num_nodes());
    b.symmetric(true);
    for e in g.edges() {
        b.add(tigr::Edge::unweighted(e.src, e.dst));
    }
    let sym = b.build();
    let expect = oracle::connected_components(&sym);

    let engine = engine();
    let overlay = VirtualGraph::new(&sym, 10);
    let out = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &sym,
                overlay: &overlay,
            },
            &Pipeline::cc(),
            None,
        )
        .unwrap();
    assert_eq!(out.values, expect);

    let t = tigr::udt_transform(&sym, 32, DumbWeight::Unweighted);
    let phys = engine
        .run_pipeline(&Representation::Physical(&t), &Pipeline::cc(), None)
        .unwrap();
    assert_eq!(t.project_values(&phys.values), expect);
}

#[test]
fn pagerank_push_and_pull_agree_with_power_iteration() {
    let (g, _) = analog();
    let expect = oracle::pagerank(&g, 0.85, 40);
    let engine = engine();
    let opts = pr::PrOptions {
        max_iterations: 40,
        tolerance: 1e-7,
        ..pr::PrOptions::default()
    };

    // Push scatters over a coalesced overlay; pull gathers over the
    // transpose the engine builds, mirrored onto a consecutive one.
    let overlay = VirtualGraph::coalesced(&g, 10);
    let push = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            &Pipeline::pagerank(opts),
            None,
        )
        .unwrap();

    let consecutive = VirtualGraph::new(&g, 10);
    let pull = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &consecutive,
            },
            &Pipeline::pagerank(pr::PrOptions {
                mode: pr::PrMode::Pull,
                ..opts
            }),
            None,
        )
        .unwrap();

    let rank =
        |out: &tigr::engine::PipelineOutput, v: usize| f64::from(f32::from_bits(out.values[v]));
    for (v, &want) in expect.iter().enumerate() {
        assert!((rank(&push, v) - want).abs() < 1e-4, "push rank[{v}]");
        assert!((rank(&pull, v) - want).abs() < 1e-4, "pull rank[{v}]");
    }
}

#[test]
fn bc_matches_brandes_on_virtual_representation() {
    let (g, _) = analog();
    let src = NodeId::new(0);
    let mut expect = vec![0.0f64; g.num_nodes()];
    oracle::brandes_accumulate(&g, src, &mut expect);

    let overlay = VirtualGraph::coalesced(&g, 10);
    let out = engine()
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            &Pipeline::betweenness(),
            Some(src),
        )
        .unwrap();
    for (v, &want) in expect.iter().enumerate() {
        let got = f32::from_bits(out.values[v]);
        assert!(
            (f64::from(got) - want).abs() < 1e-2 * (1.0 + want.abs()),
            "bc[{v}]: {got} vs {want}"
        );
    }
}

#[test]
fn table8_shape_holds_end_to_end() {
    // The three headline effects of the paper's case study, end to end:
    // physical costs extra iterations, virtual does not, both raise warp
    // efficiency.
    let (_, g) = analog();
    let src = NodeId::new(0);
    let engine = Engine::new(tigr::GpuConfig::default()).with_options(PushOptions {
        worklist: false,
        sort_frontier_by_degree: false,
        sync: SyncMode::Bsp,
        max_iterations: 10_000,
        frontier: FrontierMode::Auto,
    });

    let base = engine
        .run_pipeline(&Representation::Original(&g), &Pipeline::sssp(), Some(src))
        .unwrap();
    let t = tigr::udt_transform(&g, 8, DumbWeight::Zero);
    let phys = engine
        .run_pipeline(&Representation::Physical(&t), &Pipeline::sssp(), Some(src))
        .unwrap();
    let overlay = VirtualGraph::new(&g, 8);
    let virt = engine
        .run_pipeline(
            &Representation::Virtual {
                graph: &g,
                overlay: &overlay,
            },
            &Pipeline::sssp(),
            Some(src),
        )
        .unwrap();

    assert!(phys.report.num_iterations() > base.report.num_iterations());
    assert_eq!(virt.report.num_iterations(), base.report.num_iterations());
    assert!(phys.report.warp_efficiency() > base.report.warp_efficiency());
    assert!(virt.report.warp_efficiency() > base.report.warp_efficiency());
    assert!(virt.report.total_cycles() < base.report.total_cycles());
}

#[test]
fn every_analytic_runs_on_the_engine_facade() {
    let (g, w) = analog();
    let engine = engine();
    let src = NodeId::new(0);
    let rep_g = Representation::Original(&g);
    let rep_w = Representation::Original(&w);

    assert!(
        engine
            .run_pipeline(&rep_g, &Pipeline::bfs(), Some(src))
            .unwrap()
            .converged
    );
    assert!(
        engine
            .run_pipeline(&rep_w, &Pipeline::sssp(), Some(src))
            .unwrap()
            .converged
    );
    assert!(
        engine
            .run_pipeline(&rep_w, &Pipeline::sswp(), Some(src))
            .unwrap()
            .converged
    );
    assert!(
        engine
            .run_pipeline(&rep_g, &Pipeline::cc(), None)
            .unwrap()
            .converged
    );
    let pagerank = Pipeline::pagerank(pr::PrOptions::default());
    assert!(!engine
        .run_pipeline(&rep_g, &pagerank, None)
        .unwrap()
        .values
        .is_empty());
    assert!(!engine
        .run_pipeline(&rep_g, &Pipeline::betweenness(), Some(src))
        .unwrap()
        .values
        .is_empty());
}

#[test]
fn cc_program_runs_via_generic_pipeline_entry() {
    let (g, _) = analog();
    let engine = engine();
    let out = engine
        .run_pipeline(
            &Representation::Original(&g),
            &MonotoneProgram::CC.pipeline(),
            None,
        )
        .unwrap();
    assert_eq!(out.values.len(), g.num_nodes());
}
