//! Golden digests of the simulated engine — the paper's meter.
//! Every cell of graph × representation × program × plan is pinned by
//! one FNV-1a64 digest over all a run reports: `values`, `converged`,
//! `cancelled`, `edges_touched`, `directions`, and every iteration's
//! thread count and kernel counters. A plan the cell rejects is pinned
//! by its typed error instead. PageRank and betweenness, the two float
//! drivers, are pinned the same way: every rank, centrality, σ and level
//! bit, the iteration count, the flags and the whole report. A refactor
//! of the simulated drivers must leave every digest where it is.

use tigr::core::{CancelToken, DumbWeight, OnTheFlyMapper};
use tigr::engine::{
    bc, pr, run_monotone, BcOutput, Direction, EngineError, ExecutionPlan, FrontierMode,
    MonotoneOutput, MonotoneProgram, PrMode, PrOptions, PrOutput, PushOptions, SyncMode,
};
use tigr::graph::generators::{rmat, star_graph, with_uniform_weights, RmatConfig};
use tigr::graph::reverse::transpose;
use tigr::sim::SimReport;
use tigr::{udt_transform, Csr, GpuConfig, GpuSimulator, NodeId, Representation, VirtualGraph};

/// The one call under test.
fn run_cell(
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> Result<MonotoneOutput, EngineError> {
    let sim = GpuSimulator::new(GpuConfig::default());
    run_monotone(&sim, rep, None, prog, source, plan).map_err(EngineError::from)
}

/// FNV-1a64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.words(xs.iter().map(|x| u64::from(x.to_bits())));
    }

    /// Every iteration's thread count and kernel counters.
    fn report(&mut self, report: &SimReport) {
        self.word(report.iterations.len() as u64);
        for it in &report.iterations {
            let m = &it.metrics;
            self.word(it.threads as u64);
            for counter in [
                m.cycles,
                m.instructions,
                m.issued_slots,
                m.mem_transactions,
                m.atomic_ops,
                m.warps,
            ] {
                self.word(counter);
            }
            self.words(m.sm_cycles.iter().copied());
        }
    }
}

fn digest(result: Result<MonotoneOutput, EngineError>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    match result {
        Ok(out) => {
            h.word(0);
            h.words(out.values.iter().map(|&v| u64::from(v)));
            h.word(u64::from(out.converged));
            h.word(u64::from(out.cancelled));
            h.word(out.edges_touched);
            h.words(out.directions.iter().map(|&d| match d {
                Direction::Push => 0,
                Direction::Pull => 1,
                Direction::Auto => 2,
            }));
            h.report(&out.report);
        }
        Err(EngineError::InvalidPlan(e)) => {
            h.word(1);
            h.words(format!("{e:?}").bytes().map(u64::from));
        }
        Err(e) => panic!("unexpected engine error: {e}"),
    }
    h.0
}

/// The plan axis: push schedules, forced pull with and without a
/// worklist, and the density-switched auto driver.
fn plans() -> Vec<(&'static str, ExecutionPlan)> {
    let plan = |direction, push| ExecutionPlan {
        direction,
        push,
        ..ExecutionPlan::default()
    };
    let worklist = |frontier| PushOptions {
        frontier,
        ..PushOptions::default()
    };
    vec![
        (
            "push/full/bsp",
            plan(
                Direction::Push,
                PushOptions {
                    worklist: false,
                    sync: SyncMode::Bsp,
                    ..PushOptions::default()
                },
            ),
        ),
        (
            "push/auto",
            plan(Direction::Push, worklist(FrontierMode::Auto)),
        ),
        (
            "push/dense",
            plan(Direction::Push, worklist(FrontierMode::Dense)),
        ),
        (
            "push/sparse",
            plan(Direction::Push, worklist(FrontierMode::Sparse)),
        ),
        (
            "push/sparse/sorted",
            plan(
                Direction::Push,
                PushOptions {
                    sort_frontier_by_degree: true,
                    ..worklist(FrontierMode::Sparse)
                },
            ),
        ),
        (
            "push/bsp",
            plan(
                Direction::Push,
                PushOptions {
                    sync: SyncMode::Bsp,
                    ..PushOptions::default()
                },
            ),
        ),
        ("pull", plan(Direction::Pull, PushOptions::default())),
        (
            "pull/full",
            plan(
                Direction::Pull,
                PushOptions {
                    worklist: false,
                    ..PushOptions::default()
                },
            ),
        ),
        (
            "auto/auto",
            plan(Direction::Auto, worklist(FrontierMode::Auto)),
        ),
        (
            "auto/sparse",
            plan(Direction::Auto, worklist(FrontierMode::Sparse)),
        ),
    ]
}

const PROGRAMS: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

/// The graph axis: a weighted R-MAT and a 1 024-leaf star.
fn graphs() -> [(&'static str, Csr); 2] {
    [
        (
            "rmat",
            with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 11), 1, 32, 12),
        ),
        ("star", star_graph(1025)),
    ]
}

/// Every cell's label and digest, in table order.
fn cells() -> Vec<(String, u64)> {
    let graphs = graphs();
    let plans = plans();
    let mut cells = Vec::new();
    for (graph, g) in &graphs {
        let plain = VirtualGraph::new(g, 4);
        let coalesced = VirtualGraph::coalesced(g, 4);
        let udt = udt_transform(g, 4, DumbWeight::Zero);
        let reps: [(&str, Representation<'_>); 5] = [
            ("original", Representation::Original(g)),
            (
                "virtual",
                Representation::Virtual {
                    graph: g,
                    overlay: &plain,
                },
            ),
            (
                "virtual+",
                Representation::Virtual {
                    graph: g,
                    overlay: &coalesced,
                },
            ),
            ("udt", Representation::Physical(&udt)),
            (
                "otf",
                Representation::OnTheFly {
                    graph: g,
                    mapper: OnTheFlyMapper::new(g, 4),
                },
            ),
        ];
        for (rep_label, rep) in &reps {
            for prog in PROGRAMS {
                let source = prog.needs_source().then_some(NodeId::new(0));
                for (plan_label, plan) in &plans {
                    let label = format!("{graph}/{rep_label}/{}/{plan_label}", prog.name);
                    cells.push((label, digest(run_cell(rep, prog, source, plan))));
                }
            }
        }
    }

    // A token cancelled before the first iteration, and a two-iteration
    // cap, once per direction.
    let g = &graphs[0].1;
    let rep = Representation::Original(g);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for direction in Direction::ALL {
        for (label, plan) in [
            (
                "cancelled",
                ExecutionPlan {
                    direction,
                    cancel: cancelled.clone(),
                    ..ExecutionPlan::default()
                },
            ),
            (
                "capped",
                ExecutionPlan {
                    direction,
                    push: PushOptions {
                        max_iterations: 2,
                        ..PushOptions::default()
                    },
                    ..ExecutionPlan::default()
                },
            ),
        ] {
            let label = format!("rmat/original/sssp/{}/{label}", direction.label());
            let out = run_cell(&rep, MonotoneProgram::SSSP, Some(NodeId::new(0)), &plan);
            cells.push((label, digest(out)));
        }
    }
    cells
}

/// The unsplit views the float drivers run over, at `K = 4`.
fn float_views<'a>(
    g: &'a Csr,
    plain: &'a VirtualGraph,
    coalesced: &'a VirtualGraph,
) -> [(&'static str, Representation<'a>); 4] {
    [
        ("original", Representation::Original(g)),
        (
            "virtual",
            Representation::Virtual {
                graph: g,
                overlay: plain,
            },
        ),
        (
            "virtual+",
            Representation::Virtual {
                graph: g,
                overlay: coalesced,
            },
        ),
        (
            "otf",
            Representation::OnTheFly {
                graph: g,
                mapper: OnTheFlyMapper::new(g, 4),
            },
        ),
    ]
}

fn pr_digest(out: &PrOutput) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.floats(&out.ranks);
    h.word(out.iterations as u64);
    h.word(u64::from(out.converged));
    h.word(u64::from(out.cancelled));
    h.report(&out.report);
    h.0
}

fn bc_digest(out: &BcOutput) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.floats(&out.centrality);
    h.floats(&out.sigma);
    h.words(out.levels.iter().map(|&l| u64::from(l)));
    h.word(out.iterations as u64);
    h.word(u64::from(out.cancelled));
    h.report(&out.report);
    h.0
}

/// Every float cell's label and digest: PageRank push over the forward
/// graph and pull over its transpose, on each unsplit view, at three
/// iteration caps; betweenness from two sources over the flat CSR and
/// both overlays.
fn float_cells() -> Vec<(String, u64)> {
    let sim = GpuSimulator::new(GpuConfig::default());
    let mut cells = Vec::new();
    for (graph, g) in &graphs() {
        let degrees = pr::out_degrees(g);
        let rev = transpose(g);
        for (mode, over) in [(PrMode::Push, g), (PrMode::Pull, &rev)] {
            let plain = VirtualGraph::new(over, 4);
            let coalesced = VirtualGraph::coalesced(over, 4);
            for (rep_label, rep) in &float_views(over, &plain, &coalesced) {
                for max_iterations in [1, 5, PrOptions::default().max_iterations] {
                    let options = PrOptions {
                        mode,
                        max_iterations,
                        ..PrOptions::default()
                    };
                    let label = format!("{graph}/{rep_label}/pr/{mode:?}/{max_iterations}");
                    let out = pr::run(&sim, rep, &degrees, &options);
                    cells.push((label, pr_digest(&out)));
                }
            }
        }
        let plain = VirtualGraph::new(g, 4);
        let coalesced = VirtualGraph::coalesced(g, 4);
        for (rep_label, rep) in &float_views(g, &plain, &coalesced)[..3] {
            for source in [0, 7] {
                let label = format!("{graph}/{rep_label}/bc/{source}");
                let out = bc::run(&sim, rep, NodeId::new(source));
                cells.push((label, bc_digest(&out)));
            }
        }
    }
    cells
}

fn assert_pinned(cells: &[(String, u64)], golden: &[u64]) {
    assert_eq!(cells.len(), golden.len(), "cell count");
    let moved: Vec<String> = cells
        .iter()
        .zip(golden)
        .filter(|((_, got), pinned)| got != *pinned)
        .map(|((label, got), pinned)| format!("{label}: {got:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} digests moved:\n{}",
        moved.len(),
        cells.len(),
        moved.join("\n")
    );
}

#[test]
fn simulated_monotone_runs_match_their_golden_digests() {
    assert_pinned(&cells(), &GOLDEN);
}

#[test]
fn simulated_pagerank_and_betweenness_match_their_golden_digests() {
    assert_pinned(&float_cells(), &FLOAT_GOLDEN);
}

/// The digest of every cell, in [`cells`] order, as the simulated
/// engine produced them before its drivers were folded into one.
#[rustfmt::skip]
const GOLDEN: [u64; 406] = [
    0xc32753c38b12ee87, 0x52804d364741bb63, 0xacaee351dac9f9d8, 0x1f04939d5e28dbce,
    0x9834a7af1b9106c8, 0x823b304f8ecc19df, 0x51c9e352bac7db76, 0x4236f20d06af503c,
    0x27d7d75842ccaec4, 0x27d7d75842ccaec4, 0xc32753c38b12ee87, 0x52804d364741bb63,
    0xacaee351dac9f9d8, 0x1f04939d5e28dbce, 0x9834a7af1b9106c8, 0x823b304f8ecc19df,
    0x51c9e352bac7db76, 0x4236f20d06af503c, 0x27d7d75842ccaec4, 0x27d7d75842ccaec4,
    0xc12988d213f5a471, 0xb044e08387b377bf, 0xd6cc6203e1079920, 0x6887003ab9e4d589,
    0x0f646f97af012f87, 0x613bc00ef8225d22, 0x9a0b6b7de81f2449, 0xb66724a2735bfaa1,
    0xddca70bd821ff825, 0xddca70bd821ff825, 0x3f37cb7eb38f9528, 0xa3790447d4349da3,
    0xa3790447d4349da3, 0xf12a94286a04486b, 0x585d66bc57a8ba89, 0x5e57bbc3e0f34adb,
    0x000bb0e5a458c1db, 0x8763863c8b45f02b, 0x000bb0e5a458c1db, 0x000bb0e5a458c1db,
    0x7f92df111fcae2be, 0x4869aab8b8814e8b, 0x4f939fd3018470a3, 0xd77a53820fb81228,
    0xd5a9736ccca9ca01, 0xfc8d853d4361440d, 0xa8ff60a3b3802a42, 0x122aa07aaad5caab,
    0x06b3cc9b2c5ed86e, 0x06b3cc9b2c5ed86e, 0x7f92df111fcae2be, 0x4869aab8b8814e8b,
    0x4f939fd3018470a3, 0xd77a53820fb81228, 0xd5a9736ccca9ca01, 0xfc8d853d4361440d,
    0xa8ff60a3b3802a42, 0x122aa07aaad5caab, 0x06b3cc9b2c5ed86e, 0x06b3cc9b2c5ed86e,
    0x814e2c176f3e02b0, 0x38dbb9d9d6d12bad, 0xe2182ea748f04fff, 0xdad368cd411f76ca,
    0x6b9328dc9be4a856, 0x7ac3451858bbad2d, 0x47f1a86ba92fe46e, 0xf19a2ac0a506b36e,
    0x0d5cdcacf1353b88, 0x0d5cdcacf1353b88, 0xb0f6ae6068608498, 0xd1aa5ca43b326f8a,
    0xd1aa5ca43b326f8a, 0x1352893307e9a98e, 0xd5f216f941b4f6f9, 0x93a00f1f79b81ca8,
    0x2a8773cdc368eda5, 0xaf2163bb1f1ca218, 0x2a8773cdc368eda5, 0x2a8773cdc368eda5,
    0x63acf2fb10f6af4d, 0x4321baff1b726a8b, 0xdadb1a3aab92681c, 0x6ee0133a6cdbb938,
    0xb0aefcf59a2006fa, 0xc02751d4f95459d4, 0x8705c1635eabdd5c, 0x8a7eb5916d243290,
    0x289d25490376e557, 0x289d25490376e557, 0x63acf2fb10f6af4d, 0x4321baff1b726a8b,
    0xdadb1a3aab92681c, 0x6ee0133a6cdbb938, 0xb0aefcf59a2006fa, 0xc02751d4f95459d4,
    0x8705c1635eabdd5c, 0x8a7eb5916d243290, 0x289d25490376e557, 0x289d25490376e557,
    0xad19ab40bb63254d, 0x86a038f238bc427e, 0xf6512857ce1b9350, 0xa5325a47f9947d91,
    0xa888b51acd2be563, 0x866f99b1277f2adf, 0x6ac8e28fb0fd2e90, 0xa73f89bffe687359,
    0xf7fb968d488083af, 0xf7fb968d488083af, 0xc8f3a87baf14ad08, 0xfbf8978cec3411ca,
    0xfbf8978cec3411ca, 0x155eb95e199cdd51, 0xa1f3d565834d17aa, 0x7d2eb343aaff4454,
    0x4572b428974d26ec, 0x8a653771e36ccba5, 0x4572b428974d26ec, 0x4572b428974d26ec,
    0xe01b5128e4714cb0, 0xbe02464e9504321a, 0x778c45f7d89628d3, 0x3df7f75f66f9fdd7,
    0x14761d0ccc0b8aae, 0x19a29d697f662c15, 0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a,
    0xbe02464e9504321a, 0x3df7f75f66f9fdd7, 0xe01b5128e4714cb0, 0xbe02464e9504321a,
    0x778c45f7d89628d3, 0x3df7f75f66f9fdd7, 0x14761d0ccc0b8aae, 0x19a29d697f662c15,
    0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a, 0xbe02464e9504321a, 0x3df7f75f66f9fdd7,
    0xe13a4ff0cfa2c6a1, 0xef5a35c12de079cb, 0x609a080af8d52bc6, 0xef5a35c12de079cb,
    0xef5a35c12de079cb, 0xef5a35c12de079cb, 0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a,
    0xef5a35c12de079cb, 0xef5a35c12de079cb, 0xca3ca2ce0a9a7fcf, 0xffb583e2ad1165b0,
    0xc0b48a7699d81230, 0x146f69a491b7104b, 0xb386d993329f53e8, 0x82546f70f42b91ba,
    0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a, 0xffb583e2ad1165b0, 0x146f69a491b7104b,
    0xbc53f3939bfce88e, 0xa412d2a6982300ca, 0x20b51cc7afde46bd, 0x110b74093ea3a146,
    0x110b74093ea3a146, 0xc9de86785ea08306, 0xa58777ec3c6ee291, 0x54131a53f4f0bf93,
    0xa412d2a6982300ca, 0x110b74093ea3a146, 0xbc53f3939bfce88e, 0xa412d2a6982300ca,
    0x20b51cc7afde46bd, 0x110b74093ea3a146, 0x110b74093ea3a146, 0xc9de86785ea08306,
    0xa58777ec3c6ee291, 0x54131a53f4f0bf93, 0xa412d2a6982300ca, 0x110b74093ea3a146,
    0x83d7764c8fa3367a, 0xae0c324674c842be, 0x0320e40e8d56cc00, 0x5ebfbe3ca7d94c6c,
    0x5ebfbe3ca7d94c6c, 0x2826907890b9acec, 0x3a965fc00ec16fd2, 0x09bff3784b29891e,
    0xae0c324674c842be, 0x5ebfbe3ca7d94c6c, 0x2e08b42909f8697d, 0x6a690e446542ac74,
    0x6a690e446542ac74, 0xc46a5cd5318aaf1d, 0xc46a5cd5318aaf1d, 0x2adfdbb8df6379af,
    0x8337e9925a897c88, 0x07f72f9a587d37ce, 0x6a690e446542ac74, 0xc46a5cd5318aaf1d,
    0xd36e154305570d44, 0x66d7f4952ad93f0d, 0x77c97fac54a89cc9, 0xc2aa76c85821edaf,
    0xc2aa76c85821edaf, 0x66d7f4952ad93f0d, 0x289501052ef13e99, 0x26ec7c252ab7c569,
    0x66d7f4952ad93f0d, 0xc2aa76c85821edaf, 0xd36e154305570d44, 0x66d7f4952ad93f0d,
    0x77c97fac54a89cc9, 0xc2aa76c85821edaf, 0xc2aa76c85821edaf, 0x66d7f4952ad93f0d,
    0x289501052ef13e99, 0x26ec7c252ab7c569, 0x66d7f4952ad93f0d, 0xc2aa76c85821edaf,
    0x15f7c9ac31ed2d18, 0xaa538763fa22d9c1, 0x396cb82d31339505, 0xd9d2dd249dbd0323,
    0xd9d2dd249dbd0323, 0xaa538763fa22d9c1, 0x1bb5c8cc82538225, 0x4b64cee853c988c5,
    0xaa538763fa22d9c1, 0xd9d2dd249dbd0323, 0x7067db0150aacd44, 0xe95cce762a050854,
    0xe95cce762a050854, 0x38fe0b484f54fab6, 0x38fe0b484f54fab6, 0xe95cce762a050854,
    0xc58ec6c37a44fe99, 0xc3e641e3760b8569, 0x137f3fdd2e9a59fb, 0xbf57b3754e5edf81,
    0x105e21f96183a74e, 0xeffdb787854c272c, 0x59f5480128efb102, 0x7ad3f5b605bf48c8,
    0x7ad3f5b605bf48c8, 0xeffdb787854c272c, 0x289501052ef13e99, 0x26ec7c252ab7c569,
    0xeffdb787854c272c, 0x7ad3f5b605bf48c8, 0x105e21f96183a74e, 0xeffdb787854c272c,
    0x59f5480128efb102, 0x7ad3f5b605bf48c8, 0x7ad3f5b605bf48c8, 0xeffdb787854c272c,
    0x289501052ef13e99, 0x26ec7c252ab7c569, 0xeffdb787854c272c, 0x7ad3f5b605bf48c8,
    0x64bf1bb4febbb4fa, 0xe9546eba528e6fd8, 0xe7c11f15a07fff6e, 0xd056bd2a5e5b8d6c,
    0xd056bd2a5e5b8d6c, 0xe9546eba528e6fd8, 0x1bb5c8cc82538225, 0x4b64cee853c988c5,
    0xe9546eba528e6fd8, 0xd056bd2a5e5b8d6c, 0xad57e7b7acd7674e, 0x667d1aa29f65a439,
    0x667d1aa29f65a439, 0xbbeab34310725697, 0xbbeab34310725697, 0x667d1aa29f65a439,
    0xc58ec6c37a44fe99, 0xc3e641e3760b8569, 0xc67865d74aed069b, 0x2527f8661c94cecf,
    0xa94c93a4eab7a754, 0x2c8a3b599b01a717, 0x052c527ae80cfd76, 0x6528c75b1c25d2a3,
    0x6528c75b1c25d2a3, 0x2c8a3b599b01a717, 0x289501052ef13e99, 0x26ec7c252ab7c569,
    0x2c8a3b599b01a717, 0x6528c75b1c25d2a3, 0xa94c93a4eab7a754, 0x2c8a3b599b01a717,
    0x052c527ae80cfd76, 0x6528c75b1c25d2a3, 0x6528c75b1c25d2a3, 0x2c8a3b599b01a717,
    0x289501052ef13e99, 0x26ec7c252ab7c569, 0x2c8a3b599b01a717, 0x6528c75b1c25d2a3,
    0x7604203487cbfda8, 0x648352050aa7d9f3, 0x152f6dbc2a4980d2, 0x69c2c26fd00bbdf7,
    0x69c2c26fd00bbdf7, 0x648352050aa7d9f3, 0x1bb5c8cc82538225, 0x4b64cee853c988c5,
    0x648352050aa7d9f3, 0x69c2c26fd00bbdf7, 0x46465963360b6754, 0xb0e1f00fc1583336,
    0xb0e1f00fc1583336, 0xea46665bc2f1560d, 0xea46665bc2f1560d, 0xb0e1f00fc1583336,
    0xc58ec6c37a44fe99, 0xc3e641e3760b8569, 0xc67865d74aed069b, 0x2527f8661c94cecf,
    0xd2473539c16d2e2c, 0x9c01411a852f0bea, 0x8ad71aebd80ce939, 0xb1695d7f29aa94df,
    0xb1695d7f29aa94df, 0x9c01411a852f0bea, 0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a,
    0x9c01411a852f0bea, 0xb1695d7f29aa94df, 0xd2473539c16d2e2c, 0x9c01411a852f0bea,
    0x8ad71aebd80ce939, 0xb1695d7f29aa94df, 0xb1695d7f29aa94df, 0x9c01411a852f0bea,
    0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a, 0x9c01411a852f0bea, 0xb1695d7f29aa94df,
    0x61aefa2d57581883, 0xf7a7f9f20a5ce026, 0xa0d7953798386299, 0xf7a7f9f20a5ce026,
    0xf7a7f9f20a5ce026, 0xf7a7f9f20a5ce026, 0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a,
    0xf7a7f9f20a5ce026, 0xf7a7f9f20a5ce026, 0x87a79603ab996e2c, 0xf5a2520d42c223fe,
    0x225402f006161661, 0x5bc16c89b15172bb, 0x5bc16c89b15172bb, 0x64f88a2ae330076e,
    0xcbfb5d4fa7af0a6a, 0xcbfb5d4fa7af0a6a, 0xf5a2520d42c223fe, 0x5bc16c89b15172bb,
    0x37e5852dec62c1ef, 0x11122337c1807018, 0xda7a993d690a135a, 0x34c4355e0884922f,
    0x34c4355e0884922f, 0x11122337c1807018, 0xf7df8384c00cbf2e, 0xda50d3195ae55ca7,
    0x11122337c1807018, 0x34c4355e0884922f, 0x37e5852dec62c1ef, 0x11122337c1807018,
    0xda7a993d690a135a, 0x34c4355e0884922f, 0x34c4355e0884922f, 0x11122337c1807018,
    0xf7df8384c00cbf2e, 0xda50d3195ae55ca7, 0x11122337c1807018, 0x34c4355e0884922f,
    0x6a5ad46bd61e8ee3, 0x13d46ee89798e83c, 0x67cbadcd2b236e2e, 0x623f0dae83f89a8b,
    0x623f0dae83f89a8b, 0x13d46ee89798e83c, 0xce275fa44654239a, 0xed4629cb360415e3,
    0x13d46ee89798e83c, 0x623f0dae83f89a8b, 0xd4df4aec37b681ef, 0x77745efbb45dd35a,
    0x77745efbb45dd35a, 0x4cc52a4a206e7e7b, 0x4cc52a4a206e7e7b, 0x77745efbb45dd35a,
    0x94d949430b607f2e, 0x774a98d7a6391ca7, 0x77745efbb45dd35a, 0x4cc52a4a206e7e7b,
    0x52d02089d1ea7d2f, 0x3314877e5fa08a29, 0x52d02089d1ea7d2f, 0x3d63bc8fcbfea14d,
    0x52d02089d1ea7d2f, 0x2df976aee452d6e8,
];

/// The digest of every cell, in [`float_cells`] order, as the simulated
/// PageRank and betweenness drivers produced them before the host run of
/// a push `pr` became a gather over the transpose.
#[rustfmt::skip]
const FLOAT_GOLDEN: [u64; 60] = [
    0x760311f224151502, 0xe4e3b66313fa1260, 0x413171d4382e48f8, 0x03ee0d8c2bf2c827,
    0xe43358dbe8c39e21, 0x8ccb4aca088f9bd0, 0x9efe059775050a47, 0xe1d6e02742dcf55d,
    0xdb4cc773ad1b08f0, 0x647aca636774d4df, 0xff5b850a4321f089, 0x9ed18408a867c7b0,
    0x05fe7e38924bbb18, 0x58fec74919e01baa, 0x5bb4e7c41af24640, 0xf143fe81d17d0de0,
    0xf515f4532d0a0d26, 0x41c6a06849ece3f2, 0xf41f466783f0012c, 0xc72d4632e49e1367,
    0x4c12a939e0537c53, 0xf7ba1e332daa6644, 0x52740e3feb6ee23d, 0x03d5d1378c389113,
    0xe7c257ab483a21ca, 0xacb7c95457602fad, 0x384ced989c310705, 0x74023eba4246ae0b,
    0xacbce641247e2991, 0x58dbc164aec47ca0, 0xc7a1c2eab27157a6, 0x2f3fc17f5ab908d6,
    0x2f3fc17f5ab908d6, 0x9e1167ba3e49c04a, 0x6a21ac4adaccb8da, 0x6a21ac4adaccb8da,
    0xdc6684e7b77019e0, 0x31ffd8e3ee9107be, 0x31ffd8e3ee9107be, 0xefacee6dc56fc38b,
    0x30203d67ac69c2b2, 0x30203d67ac69c2b2, 0x028fd29f4b99e197, 0x78a8803296291c82,
    0x78a8803296291c82, 0x028fd29f4b99e197, 0x78a8803296291c82, 0x78a8803296291c82,
    0x028fd29f4b99e197, 0x78a8803296291c82, 0x78a8803296291c82, 0xf4ff96bb0430ed9a,
    0xad2aa03730e87732, 0xad2aa03730e87732, 0xaeae0fe71531b44d, 0xb943a9547260e346,
    0x7576995e60af0df3, 0xb943a9547260e346, 0xf777ff7dbd073407, 0xb943a9547260e346,
];
