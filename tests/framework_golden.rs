//! Golden digests of the comparison frameworks — Table 4's competitor
//! columns. Every cell of framework × analytic × dataset analog is
//! pinned by one FNV-1a64 digest over all a run reports: the values (or
//! every rank bit, the iteration count and the flags) and every
//! iteration's thread count and kernel counters. A cell whose footprint
//! exceeds the scaled device budget is pinned as OOM. A refactor of the
//! frameworks must leave every digest where it is.

use tigr::baselines::{Baseline, CushaMode, FrameworkRun};
use tigr::engine::{MonotoneProgram, PrMode, PrOptions, PrOutput};
use tigr::graph::datasets::PAPER_DATASETS;
use tigr::graph::generators::with_uniform_weights;
use tigr::sim::OutOfMemory;
use tigr::{Csr, CsrBuilder, GpuConfig, GpuSimulator, SimReport};

/// Table 4's analogs at 1/4096 of the paper's node counts, with the
/// device budget scaled to match (8 GiB / 4096).
const SCALE: u64 = 4096;
const SEED: u64 = 2018;

/// The frameworks: MW with its best width and a fixed width, CuSha in
/// both representations, and Gunrock.
const FRAMEWORKS: [(&str, Baseline); 5] = [
    ("mw", Baseline::MaximumWarp { width: None }),
    ("mw8", Baseline::MaximumWarp { width: Some(8) }),
    (
        "cusha-gs",
        Baseline::CuSha {
            mode: CushaMode::GShards,
        },
    ),
    (
        "cusha-cw",
        Baseline::CuSha {
            mode: CushaMode::ConcatenatedWindows,
        },
    ),
    ("gunrock", Baseline::Gunrock),
];

const PROGRAMS: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

/// Table 4's PageRank options.
const PR_OPTIONS: PrOptions = PrOptions {
    damping: 0.85,
    tolerance: 1e-4,
    max_iterations: 20,
    mode: PrMode::Push,
};

/// FNV-1a64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

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

fn monotone_digest(result: Result<FrameworkRun, OutOfMemory>) -> u64 {
    let mut h = Fnv::new();
    match result {
        Ok(out) => {
            h.word(0);
            h.words(out.values.iter().map(|&v| u64::from(v)));
            h.report(&out.report);
        }
        Err(_) => h.word(1),
    }
    h.0
}

fn pr_digest(result: Result<PrOutput, OutOfMemory>) -> u64 {
    let mut h = Fnv::new();
    match result {
        Ok(out) => {
            h.word(0);
            h.words(out.ranks.iter().map(|x| u64::from(x.to_bits())));
            h.word(out.iterations as u64);
            h.word(u64::from(out.converged));
            h.word(u64::from(out.cancelled));
            h.report(&out.report);
        }
        Err(_) => h.word(1),
    }
    h.0
}

/// Every cell's label, digest and whether it ran out of memory, in
/// table order: analog, then analytic, then framework.
fn cells() -> Vec<(String, u64, bool)> {
    let sim = GpuSimulator::new(GpuConfig::default());
    let budget = Some(8 * 1024 * 1024 * 1024 / SCALE);
    let mut cells = Vec::new();
    for spec in &PAPER_DATASETS {
        let graph = spec.generate(SCALE, SEED);
        let weighted = with_uniform_weights(&graph, 1, 64, SEED ^ 0xA5);
        let source = graph
            .nodes()
            .max_by_key(|&v| (graph.out_degree(v), std::cmp::Reverse(v.raw())))
            .expect("non-empty analog");
        for prog in PROGRAMS {
            let g = match prog.name {
                "sssp" | "sswp" => &weighted,
                _ => &graph,
            };
            let source = prog.needs_source().then_some(source);
            for (name, framework) in FRAMEWORKS {
                let out = framework.run_monotone(&sim, g, prog, source, budget);
                let oom = out.is_err();
                let label = format!("{}/{}/{name}", spec.name, prog.name);
                cells.push((label, monotone_digest(out), oom));
            }
        }
        for (name, framework) in FRAMEWORKS {
            let out = framework.run_pagerank(&sim, &graph, &PR_OPTIONS, budget);
            let oom = out.is_err();
            let label = format!("{}/pr/{name}", spec.name);
            cells.push((label, pr_digest(out), oom));
        }
    }
    cells
}

#[test]
fn framework_runs_match_their_golden_digests() {
    let cells = cells();
    assert_eq!(cells.len(), GOLDEN.len(), "cell count");
    let moved: Vec<String> = cells
        .iter()
        .zip(&GOLDEN)
        .filter(|((_, got, _), pinned)| got != *pinned)
        .map(|((label, got, _), pinned)| format!("{label}: {got:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} digests moved:\n{}",
        moved.len(),
        cells.len(),
        moved.join("\n")
    );
    let oom: Vec<&str> = cells
        .iter()
        .filter(|(_, _, oom)| *oom)
        .map(|(label, _, _)| label.as_str())
        .collect();
    assert_eq!(oom, OOM_CELLS, "the cells that run out of device memory");
}

/// On a graph without nodes, MW and CuSha sweep once and find nothing
/// changed, Gunrock's frontier starts empty so it does no iteration, and
/// every framework's PageRank is converged after none.
#[test]
fn empty_graph_runs() {
    let g: Csr = CsrBuilder::new(0).build();
    let sim = GpuSimulator::new(GpuConfig::default());
    for (name, framework) in FRAMEWORKS {
        let out = framework
            .run_monotone(&sim, &g, MonotoneProgram::CC, None, None)
            .expect("an empty graph fits");
        assert!(out.values.is_empty(), "{name}");
        let sweeps = if framework == Baseline::Gunrock { 0 } else { 1 };
        assert_eq!(out.report.num_iterations(), sweeps, "{name}");

        let pr = framework
            .run_pagerank(&sim, &g, &PR_OPTIONS, None)
            .expect("an empty graph fits");
        assert!(pr.ranks.is_empty(), "{name}");
        assert_eq!(pr.iterations, 0, "{name}");
        assert!(pr.converged && !pr.cancelled, "{name}");
        assert_eq!(pr.report.num_iterations(), 0, "{name}");
    }
}

/// The cells whose footprint exceeds the scaled budget.
const OOM_CELLS: [&str; 6] = [
    "sinaweibo/sssp/cusha-gs",
    "sinaweibo/sssp/cusha-cw",
    "sinaweibo/sssp/gunrock",
    "sinaweibo/sswp/cusha-gs",
    "sinaweibo/sswp/cusha-cw",
    "sinaweibo/sswp/gunrock",
];

/// The digest of every cell, in [`cells`] order, as the frameworks
/// produced them when each carried its own iteration loop, except the
/// six `pr/mw` cells: those are MW's PageRank at its best width, as
/// every other MW cell is (width 32 on each analog).
#[rustfmt::skip]
const GOLDEN: [u64; 150] = [
    0x698b5f58cd138d22, 0xad8e0917bbd0ac76, 0x71779f3f54abf7de, 0x0dee8ee76721fa89,
    0x8506b9f8e9e85925, 0x4c75c5fa11906e7b, 0x53ebbca81e507448, 0x06916caeefcf0bf8,
    0x3a46d34039083084, 0xf63fe33764fbb45a, 0x9c0e6f9d202049ac, 0x5ade7b1e6a2a4bdb,
    0x322f899eb6326be3, 0x43a6e0e260c3170a, 0x0f476d1e3c7ac7cc, 0x28f262d065a84ed4,
    0x3810ce796459e8cb, 0xf30541da6e32add0, 0x214c861a22e87bd7, 0xba84d5251ce526f5,
    0x1dc646b37d84772e, 0x237f4abcd04a4c48, 0xe1f163cdeb46afbb, 0x461cc2bd53b9427b,
    0xa3bcd50dd48160ba, 0xfcebcc677f3e13be, 0xcca6c171e53b95ab, 0x8cb1d0eaf0aa5085,
    0x13a6012a47b44205, 0xd88fdff19ab21f78, 0xa5426a90847bad2b, 0xd4562b969017fd96,
    0x6eeaa3df6fff9515, 0xec1d65eeeecc4391, 0x7f3b6627ad9765a5, 0x2d5f7685a35e6e94,
    0xfc22c5caac2fb086, 0x5505790578bdd866, 0xc7f75f6a5c1a7cb6, 0x9772779664f511cc,
    0xf351a50c900a7065, 0x5c947637c1b727e9, 0xf7381d9455601b6e, 0xaba670506746d6ee,
    0x6afc4dfec4e72915, 0x0d248684e85d2f26, 0x3b590d7b4c03cade, 0xd5eb56f386823979,
    0x0c3c6f83149e3251, 0x7089c84abacb4019, 0x95b33d680901dab9, 0x53f3283c78cdc029,
    0x16adf6e6d9a85a40, 0x14cccb7ed6406540, 0x3190831f72afb1c0, 0x2009534a88486de4,
    0xeb565553b11215ee, 0xbb3d37332815d300, 0x28c4cb6b472e4a66, 0x11f5df98754338da,
    0x3bac36ed8cb701ce, 0x65bbe881fc5043c2, 0x4f51bf68a600e8b4, 0x717aa595122ac170,
    0xdee864a62bcfc67c, 0xd2bebdcc80a7a5c0, 0x905f0177669c93c0, 0x56944ef63b42f6b1,
    0x5ccff9e31a641fd1, 0x39d5ffd327f6b9b7, 0x1552f18139c9489b, 0xcd81f847f1aee850,
    0x43e48dea304c762c, 0xd4fecd1199354059, 0xbe464a9a2357935b, 0x51c0569800c76e62,
    0x7ef63c77a35b552b, 0xc53a6302abf75612, 0x47238778ebd62306, 0x01a6ca86371c9800,
    0x7068d318070cf074, 0x97cddd379c91ba87, 0x2861fcb6815445c7, 0xc6b3f8ea85ab32ad,
    0xfd9bc96803537bb2, 0x34b4dd1522540c57, 0x3a950e870a6677ac, 0x487511616e516e10,
    0xc2f3f72fce83d4c7, 0x4be45677c869e527, 0xb355918a7585686f, 0x236403b959c19a72,
    0x4c6e019480e79dd5, 0xb3f54dc93d31a001, 0x1c4e6d0fbcc311f5, 0x7f8258b4fd3f1a58,
    0x5ca2c8d1f7b8d210, 0x70034fd526f5564e, 0x2b1c180ba50faca8, 0xec8522264344e435,
    0x4526b6e7382d0722, 0x8ef26ef00284f484, 0x3e4f6b8148c96998, 0x92959f50970314a4,
    0xb9dc499abf7dfdd9, 0x9192e677e65d57b2, 0xb755b046e9dff955, 0x89cd31291d2aefa4,
    0x89cd31291d2aefa4, 0x89cd31291d2aefa4, 0x2c24952fca8ed285, 0x7c8c773efaaf77cb,
    0x89cd31291d2aefa4, 0x89cd31291d2aefa4, 0x89cd31291d2aefa4, 0x57e0687746df87d7,
    0x376d5bc881e68124, 0xdbcb251480a65b1c, 0x746c2ab7ad842772, 0xd72c6315caacb16d,
    0xf3eb608420107c31, 0x7ab1b7ae294b81e9, 0x4c68088e6392d30d, 0xb513d10029a0bcd9,
    0xc4126ca922327231, 0x23c4fe9d0d4b1e7d, 0x0b94a254dfab6c43, 0x2553ccb1045cda9b,
    0x3de88f49ba22ea2b, 0xe2beff6081645b34, 0x8df00367415f50e7, 0xba68f496edc42ab5,
    0xddfd43f53f4d462e, 0xd1f63bc9ce0b265e, 0xadb2885c0fea10ed, 0x95f73fe49eec92bf,
    0x4c863d26056f1c38, 0x2d5e8d13fcc4b1e9, 0xb30337134467dc0e, 0x3f3a1992d06ea029,
    0xbcf66342c5a44fc4, 0x4e2723c673d1fc49, 0x9ed6e18744c6144f, 0x1b5f1c7c828dab27,
    0xe92b06dcf5d606e7, 0xc409b9521887a42d, 0x01bc5ad5e19328f9, 0x38c7bb2f94b80091,
    0x26fe2426a40b8cf1, 0xc86be43b634d1131,
];
