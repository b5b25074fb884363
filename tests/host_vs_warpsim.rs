//! Differential suite for the two launchers of the drivers written once
//! over a `Launcher` — the monotone driver, PageRank and betweenness: the
//! wall-clock host loop (what `Sequential` and `CpuPool` plans run for
//! `pr`/`bc` and a forced pull) must agree with the
//! simulator's sequential replay **to the bit** — values or
//! ranks/centralities, iteration counts and directions, edge counts,
//! `converged` and `cancelled` — on every representation, because the
//! two visit threads in the same order and `f32` accumulation order is
//! the only thing that could tell them apart. Every committed checksum
//! and the server's cached answers rest on this. So
//! does the host's push `pr` over a prepared transpose, which runs as a
//! gather over it: the theorem that licenses that is checked here too,
//! along with its cost against a plain reference gather.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;

use std::sync::atomic::{AtomicUsize, Ordering};

use tigr::core::{CancelToken, DumbWeight, GraphStore, OnTheFlyMapper, PrepareSpec, ViewPlan};
use tigr::engine::{
    bc, pr, run_monotone, BackendKind, BcOutput, Direction, ExecutionPlan, HostLoop, Launcher,
    MonotoneOutput, MonotoneProgram, Pipeline, PrMode, PrOptions, PrOutput, PushOptions,
};
use tigr::graph::reverse::transpose;
use tigr::sim::KernelMetrics;
use tigr::{udt_transform, Csr, CsrBuilder, Engine, GpuConfig, GpuSimulator, NodeId};
use tigr::{Representation, VirtualGraph};

const KS: [u32; 3] = [1, 3, 10];

/// Strategy: a directed graph of `0..max_nodes` nodes (so `n ∈ {0, 1}`
/// occur) whose edge list keeps multi-edges and self-loops; most draws
/// leave some nodes dangling.
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Csr> {
    (0..max_nodes, vec((0..1000u32, 0..1000u32), 0..max_edges)).prop_map(|(nodes, edges)| {
        let mut b = CsrBuilder::new(nodes);
        if nodes > 0 {
            for (s, d) in edges {
                b.edge(s % nodes as u32, d % nodes as u32);
            }
        }
        b.build()
    })
}

/// [`arb_graph`] with a weight in `1..=32` on every edge.
fn arb_weighted_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Csr> {
    (
        arb_graph(max_nodes, max_edges),
        vec(1..33u32, max_edges..max_edges + 1),
    )
        .prop_map(|(g, weights)| {
            let mut weights = weights.into_iter().cycle();
            g.with_weights_from(|_| weights.next().expect("cycled"))
        })
}

const PROGRAMS: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

/// Runs `check` on each of the four representations PageRank and the
/// monotone driver's gathers run on, over `g` with bound `k`.
fn for_each_representation(
    g: &Csr,
    k: u32,
    mut check: impl FnMut(&Representation<'_>) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    check(&Representation::Original(g))?;
    for overlay in [VirtualGraph::new(g, k), VirtualGraph::coalesced(g, k)] {
        check(&Representation::Virtual {
            graph: g,
            overlay: &overlay,
        })?;
    }
    check(&Representation::OnTheFly {
        graph: g,
        mapper: OnTheFlyMapper::new(g, k),
    })
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pagerank_host_equals_warpsim_to_the_bit(
        g in arb_graph(28, 120),
        k in 0usize..3,
        max_iterations in 1usize..40,
    ) {
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let degrees = pr::out_degrees(&g);
        let rev = transpose(&g);
        for (mode, graph) in [(PrMode::Push, &g), (PrMode::Pull, &rev)] {
            let options = PrOptions { mode, max_iterations, ..PrOptions::default() };
            for_each_representation(graph, KS[k], |rep| {
                let host = pr::run(&HostLoop, rep, &degrees, &options);
                let warp = pr::run(&sim, rep, &degrees, &options);
                let answer = |o: &PrOutput| (bits(&o.ranks), o.iterations, o.converged, o.cancelled);
                prop_assert_eq!(answer(&host), answer(&warp), "{:?} on {}", mode, rep.label());
                prop_assert_eq!(warp.iterations, warp.report.num_iterations());
                prop_assert_eq!(host.report.num_iterations(), 0);
                Ok(())
            })?;
        }
    }

    #[test]
    fn monotone_host_equals_warpsim_in_every_direction(
        g in arb_weighted_graph(28, 120),
        k in 0usize..3,
        prog in 0usize..4,
        source in 0u32..1000,
        worklist in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        prop_assume!(g.num_nodes() > 0);
        // Unweighted BFS is where auto's gathers take the bottom-up
        // early exit.
        let g = if weighted { g } else { g.without_weights() };
        let prog = PROGRAMS[prog];
        let source = prog.needs_source().then(|| NodeId::new(source % g.num_nodes() as u32));
        let sim = GpuSimulator::new(GpuConfig::tiny());
        for direction in Direction::ALL {
            let plan = ExecutionPlan {
                direction,
                push: PushOptions { worklist, ..PushOptions::default() },
                ..ExecutionPlan::default()
            };
            for_each_representation(&g, KS[k], |rep| {
                let host = run_monotone(&HostLoop, rep, None, prog, source, &plan).unwrap();
                let warp = run_monotone(&sim, rep, None, prog, source, &plan).unwrap();
                let answer = |o: &MonotoneOutput| {
                    (o.values.clone(), o.directions.clone(), o.edges_touched, o.converged, o.cancelled)
                };
                prop_assert_eq!(
                    answer(&host), answer(&warp),
                    "{} {} on {}", prog.name, direction.label(), rep.label()
                );
                prop_assert_eq!(warp.report.num_iterations(), warp.directions.len());
                prop_assert_eq!(host.report.num_iterations(), 0);
                Ok(())
            })?;
        }
    }

    #[test]
    fn betweenness_host_equals_warpsim_to_the_bit(
        g in arb_graph(28, 120),
        k in 0usize..3,
        source in 0u32..1000,
    ) {
        prop_assume!(g.num_nodes() > 0);
        let source = NodeId::new(source % g.num_nodes() as u32);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let consecutive = VirtualGraph::new(&g, KS[k]);
        let coalesced = VirtualGraph::coalesced(&g, KS[k]);
        for rep in [
            Representation::Original(&g),
            Representation::Virtual { graph: &g, overlay: &consecutive },
            Representation::Virtual { graph: &g, overlay: &coalesced },
        ] {
            let host = bc::run(&HostLoop, &rep, source);
            let warp = bc::run(&sim, &rep, source);
            prop_assert_eq!(bits(&host.centrality), bits(&warp.centrality), "{}", rep.label());
            prop_assert_eq!(bits(&host.sigma), bits(&warp.sigma), "{}", rep.label());
            prop_assert_eq!(&host.levels, &warp.levels, "{}", rep.label());
            prop_assert_eq!(host.iterations, warp.iterations, "{}", rep.label());
            prop_assert_eq!(warp.iterations, warp.report.num_iterations());
            prop_assert_eq!(host.report.num_iterations(), 0);
            prop_assert!(!host.cancelled && !warp.cancelled);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The push scatter over any unsplit view of `g` is the gather over
    /// its plain transpose, to the bit. Every target's accumulator
    /// receives the same `f32` shares in ascending-source order either
    /// way: the scatter's threads run in `tid` order and every view walks
    /// sources in ascending order (an overlay's families are contiguous
    /// and ordered by physical node in both layouts; on-the-fly blocks
    /// walk the edge array in order), and `transpose` lists each in-row by
    /// ascending source. Only a source's parallel edges can swap places,
    /// and they carry equal terms. Dangling nodes and self-loops included.
    #[test]
    fn push_pagerank_is_the_gather_over_the_plain_transpose(
        g in arb_graph(28, 120),
        k in 0usize..3,
        max_iterations in 1usize..40,
    ) {
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let degrees = pr::out_degrees(&g);
        let push = PrOptions { max_iterations, ..PrOptions::default() };
        let pull = PrOptions { mode: PrMode::Pull, ..push };
        let rev = transpose(&g);
        let gather = pr::run(&HostLoop, &Representation::Original(&rev), &degrees, &pull);
        let answer = |o: &PrOutput| (bits(&o.ranks), o.iterations, o.converged);
        for_each_representation(&g, KS[k], |rep| {
            let scatter = pr::run(&sim, rep, &degrees, &push);
            prop_assert_eq!(answer(&scatter), answer(&gather), "push on {}", rep.label());
            Ok(())
        })?;

        // What a served `pr` runs: the host backends over a prepared
        // transpose, against the simulator's scatter over the forward view.
        prop_assume!(g.num_nodes() > 0);
        let store = GraphStore::disabled();
        for (virtual_k, coalesced) in [(None, false), (Some(KS[k]), false), (Some(KS[k]), true)] {
            let plan = ViewPlan { virtual_k, coalesced, transpose: true };
            let prepared = store.materialize(g.clone(), plan).unwrap();
            let rep = Representation::from_prepared(&prepared);
            let warp = pr::run(&sim, &rep, &degrees, &push);
            for backend in [BackendKind::Sequential, BackendKind::CpuPool] {
                let engine = Engine::new(GpuConfig::tiny()).with_backend(backend);
                let label = format!("{} on {}", backend.label(), rep.label());
                let served = engine
                    .run_prepared_pipeline(&prepared, &Pipeline::pagerank(push), None)
                    .unwrap();
                prop_assert_eq!(&served.values, &bits(&warp.ranks), "{}", label);
                prop_assert_eq!(served.iterations as usize, warp.iterations, "{}", label);
                prop_assert_eq!(served.converged, warp.converged, "{}", label);
            }
        }
    }
}

/// A host `pr` over a prepared Tigr-V+ graph with its transpose costs
/// what a plain gather costs: `common::reference_pagerank`, a `Vec<f32>`
/// of shares and one row loop, shares no code with the engine. The two
/// return the same bits; fastest of seven order-flipped pairs. Optimized,
/// the ratio is 1.10–1.20 and the bound 1.3 (`scripts/verify.sh` runs
/// this under `--release`); when the host scattered over the overlay and
/// divided per edge it was ≈ 1.47. The test profile keeps debug
/// assertions and inlines no cross-crate accessor, which costs the
/// engine's generic kernel more than the plain loop: 1.21–1.28 there
/// (1.84 for the scatter), so its bound is 1.5.
#[test]
fn host_pagerank_costs_what_a_plain_gather_costs() {
    let spec = PrepareSpec::generated("rmat:15:16", 3)
        .with_virtual(10, true)
        .with_transpose(true);
    let prepared = GraphStore::disabled().prepare(&spec).unwrap();
    let rev = prepared.transpose().unwrap();
    let degrees = pr::out_degrees(prepared.graph());
    let options = PrOptions::default();
    let pipeline = Pipeline::pagerank(options);
    let engine = Engine::new(GpuConfig::default()).with_backend(BackendKind::Sequential);

    let (engine_ms, reference_ms) = common::fastest_pairs(
        7,
        || {
            engine
                .run_prepared_pipeline(&prepared, &pipeline, None)
                .unwrap()
        },
        || common::reference_pagerank(rev, &degrees, &options),
        |host, reference| {
            assert_eq!(host.values, bits(&reference.ranks));
            assert_eq!(host.iterations as usize, reference.iterations);
            assert!(host.converged && reference.converged);
        },
    );
    let ratio = engine_ms / reference_ms;
    let bound = if cfg!(debug_assertions) { 1.5 } else { 1.3 };
    println!(
        "host pr {engine_ms:.2} ms / plain reference gather {reference_ms:.2} ms = {ratio:.2}"
    );
    assert!(
        ratio <= bound,
        "host pr took {ratio:.2}x the plain reference gather (bound {bound})"
    );
}

fn fixture() -> Csr {
    tigr::graph::generators::rmat(&tigr::graph::generators::RmatConfig::graph500(8, 6), 7)
}

#[test]
fn a_pre_cancelled_token_stops_both_launchers_at_iteration_zero() {
    let g = fixture();
    let rep = Representation::Original(&g);
    let token = CancelToken::new();
    token.cancel();
    for backend in [
        BackendKind::WarpSim,
        BackendKind::CpuPool,
        BackendKind::Sequential,
    ] {
        let engine = Engine::new(GpuConfig::tiny())
            .with_backend(backend)
            .with_cancel(token.clone());
        let ranks = engine
            .run_pipeline(&rep, &Pipeline::pagerank(PrOptions::default()), None)
            .unwrap();
        assert!(ranks.cancelled && !ranks.converged, "{}", backend.label());
        assert_eq!(ranks.iterations, 0, "{}", backend.label());
        assert_eq!(
            ranks.values,
            bits(&vec![1.0 / g.num_nodes() as f32; g.num_nodes()]),
            "{}: the initial ranks",
            backend.label()
        );
        let scores = engine
            .run_pipeline(&rep, &Pipeline::betweenness(), Some(NodeId::new(0)))
            .unwrap();
        assert!(scores.cancelled, "{}", backend.label());
        assert_eq!(scores.iterations, 0, "{}", backend.label());
        assert!(
            scores.values.iter().all(|&c| f32::from_bits(c) == 0.0),
            "{}",
            backend.label()
        );
    }
}

/// A launcher that fires `token` once it has run `budget` kernels: the
/// deterministic stand-in for a deadline expiring mid-run.
struct CancelAfter<'a, L> {
    inner: &'a L,
    token: CancelToken,
    budget: AtomicUsize,
}

impl<L: Launcher> Launcher for CancelAfter<'_, L> {
    type Mirror = L::Mirror;
    const METERED: bool = L::METERED;

    fn launch<F>(&self, threads: usize, body: F) -> KernelMetrics
    where
        F: Fn(usize, &mut L::Mirror),
    {
        let metrics = self.inner.launch(threads, body);
        if self.budget.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.token.cancel();
        }
        metrics
    }
}

/// BC polls its token before every level of both phases, so a token
/// that fires after `k` kernels stops the run at exactly `k` — forward
/// or backward, identically on both launchers — and the partial
/// dependencies are discarded.
#[test]
fn betweenness_cancels_between_levels() {
    let g = fixture();
    let rep = Representation::Original(&g);
    let full = bc::run(&HostLoop, &rep, NodeId::new(0));
    assert!(full.iterations > 4, "fixture has several levels");
    let sim = GpuSimulator::new(GpuConfig::tiny());

    fn cut<L: Launcher>(inner: &L, rep: &Representation<'_>, budget: usize) -> BcOutput {
        let token = CancelToken::new();
        let launcher = CancelAfter {
            inner,
            token: token.clone(),
            budget: AtomicUsize::new(budget),
        };
        bc::run_cancellable(&launcher, rep, NodeId::new(0), &token)
    }
    for budget in [1, full.iterations / 2, full.iterations - 1] {
        let host = cut(&HostLoop, &rep, budget);
        let warp = cut(&sim, &rep, budget);
        for out in [&host, &warp] {
            assert!(out.cancelled, "{budget}");
            assert_eq!(out.iterations, budget);
            assert!(out.centrality.iter().all(|&c| c == 0.0), "{budget}");
        }
        assert_eq!(host.levels, warp.levels, "{budget}");
    }
    // A token that fires with the last kernel is never polled again.
    let done = cut(&HostLoop, &rep, full.iterations);
    assert!(!done.cancelled);
    assert_eq!(bits(&done.centrality), bits(&full.centrality));
}

/// The monotone driver polls its token before every iteration, and a
/// flat CSR runs one kernel per iteration in either direction, so a
/// token that fires after `k` kernels stops both launchers at exactly `k`
/// iterations — holding the same consistent value prefix.
#[test]
fn monotone_runs_cancel_between_iterations() {
    let g = fixture();
    let rep = Representation::Original(&g);
    let sim = GpuSimulator::new(GpuConfig::tiny());

    fn cut<L: Launcher>(
        inner: &L,
        rep: &Representation<'_>,
        direction: Direction,
        budget: usize,
    ) -> MonotoneOutput {
        let token = CancelToken::new();
        let launcher = CancelAfter {
            inner,
            token: token.clone(),
            budget: AtomicUsize::new(budget),
        };
        let plan = ExecutionPlan {
            direction,
            cancel: token,
            ..ExecutionPlan::default()
        };
        run_monotone(
            &launcher,
            rep,
            None,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            &plan,
        )
        .unwrap()
    }
    for direction in Direction::ALL {
        let full = cut(&HostLoop, &rep, direction, usize::MAX);
        let iterations = full.directions.len();
        assert!(full.converged && iterations > 3, "{}", direction.label());
        for budget in [1, iterations / 2, iterations - 1] {
            let label = format!("{}/{budget}", direction.label());
            let host = cut(&HostLoop, &rep, direction, budget);
            let warp = cut(&sim, &rep, direction, budget);
            for out in [&host, &warp] {
                assert!(out.cancelled && !out.converged, "{label}");
                assert_eq!(out.directions.len(), budget, "{label}");
            }
            assert_eq!(host.values, warp.values, "{label}");
            assert_eq!(host.directions, warp.directions, "{label}");
            assert_eq!(host.edges_touched, warp.edges_touched, "{label}");
        }
    }
}

fn pagerank_over_a_physical_split<L: Launcher>(launcher: &L) {
    let g = fixture();
    let t = udt_transform(&g, 4, DumbWeight::Unweighted);
    let degrees = vec![0u32; t.graph().num_nodes()];
    pr::run(
        launcher,
        &Representation::Physical(&t),
        &degrees,
        &PrOptions::default(),
    );
}

#[test]
#[should_panic(expected = "PageRank is undefined on physically transformed graphs")]
fn physical_representation_is_rejected_for_pagerank_on_the_host() {
    pagerank_over_a_physical_split(&HostLoop);
}

#[test]
#[should_panic(expected = "PageRank is undefined on physically transformed graphs")]
fn physical_representation_is_rejected_for_pagerank_on_the_simulator() {
    pagerank_over_a_physical_split(&GpuSimulator::new(GpuConfig::tiny()));
}
