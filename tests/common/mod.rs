//! What the differential suites hold the host lane driver against: a
//! plain reference loop that shares no code with the engine (not the
//! kernel, not the frontier, not even the operators' arithmetic), and the
//! simulated push engine. The reference pins what goes on the wire —
//! `values`, `iterations`, `converged` — and `edges_touched`; the
//! simulator, a second independent loop, pins `values` and `converged`.
//! Beside them sits the sequential R-MAT generator the chunked one must
//! reproduce byte for byte.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tigr::engine::{
    run_monotone, Combine, EdgeOp, ExecutionPlan, InitKind, MonotoneOutput, PrOptions, SyncMode,
};
use tigr::graph::generators::RmatConfig;
use tigr::graph::RowView;
use tigr::{
    Csr, CsrBuilder, Edge, GpuConfig, GpuSimulator, MonotoneProgram, NodeId, PushOptions,
    Representation, Weight,
};

/// The `paths` verb's program: SSSP whose candidates above the radius
/// collapse to `∞`.
pub const fn paths_program(radius: u32) -> MonotoneProgram {
    MonotoneProgram {
        name: "paths",
        edge_op: EdgeOp::AddWeightCapped(radius),
        combine: Combine::Min,
        init: InitKind::SourceZero,
        associative: true,
    }
}

/// The push options of `rounds` synchronous full sweeps — what
/// `Engine::run_rounds` pins for label propagation.
pub fn bsp_rounds(rounds: usize) -> PushOptions {
    PushOptions {
        worklist: false,
        sync: SyncMode::Bsp,
        max_iterations: rounds,
        ..PushOptions::default()
    }
}

/// One run of [`reference_push`].
#[derive(Debug)]
pub struct Reference {
    pub values: Vec<u32>,
    pub iterations: usize,
    pub edges_touched: u64,
    pub converged: bool,
}

/// The sequential push schedule, written the plain way: `Vec<u32>`
/// values, a `Vec<u64>` next-frontier bitmap drained in ascending order,
/// a `prev` copy per iteration under BSP.
pub fn reference_push(
    rows: &impl RowView,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
) -> Reference {
    fn with_fold(
        rows: &impl RowView,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        options: &PushOptions,
        apply: impl Fn(u32, Weight) -> u32,
    ) -> Reference {
        match prog.combine {
            Combine::Min => reference_loop(rows, prog, source, options, apply, |c, cur| c < cur),
            Combine::Max => reference_loop(rows, prog, source, options, apply, |c, cur| c > cur),
        }
    }
    match prog.edge_op {
        EdgeOp::AddWeight => with_fold(rows, prog, source, options, |d, w| d.saturating_add(w)),
        EdgeOp::MinWeight => with_fold(rows, prog, source, options, |d, w| d.min(w)),
        EdgeOp::Copy => with_fold(rows, prog, source, options, |d, _| d),
        EdgeOp::AddUnit => with_fold(rows, prog, source, options, |d, _| d.saturating_add(1)),
        EdgeOp::AddWeightCapped(cap) => with_fold(rows, prog, source, options, move |d, w| {
            let sum = d.saturating_add(w);
            if sum <= cap {
                sum
            } else {
                u32::MAX
            }
        }),
    }
}

fn reference_loop(
    rows: &impl RowView,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
    apply: impl Fn(u32, Weight) -> u32,
    better: impl Fn(u32, u32) -> bool,
) -> Reference {
    let n = rows.num_nodes();
    let mut values = prog.initial_values(n, source);
    let mut active = prog.initial_frontier(n, source);
    let mut next = vec![0u64; n.div_ceil(64)];
    let (mut iterations, mut edges_touched, mut converged) = (0, 0u64, false);
    while iterations < options.max_iterations {
        if options.worklist && active.is_empty() {
            converged = true;
            break;
        }
        iterations += 1;
        if !options.worklist {
            active = (0..n as u32).collect();
        }
        let prev = (options.sync == SyncMode::Bsp).then(|| values.clone());
        let mut changed = false;
        for &v in &active {
            let d = prev.as_ref().map_or(values[v as usize], |p| p[v as usize]);
            let (targets, weights) = rows.row(NodeId::new(v));
            for (i, t) in targets.iter().map(|t| t.index()).enumerate() {
                let cand = apply(d, weights.map_or(1, |ws| ws[i]));
                edges_touched += 1;
                let seen = prev.as_ref().map_or(values[t], |p| p[t]);
                if better(cand, seen) && better(cand, values[t]) {
                    values[t] = cand;
                    next[t / 64] |= 1 << (t % 64);
                    changed = true;
                }
            }
        }
        active.clear();
        for (w, word) in next.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                active.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    Reference {
        values,
        iterations,
        edges_touched,
        converged,
    }
}

/// The simulated push engine (sequential replay) on a CSR.
pub fn simulated_push(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
) -> MonotoneOutput {
    let sim = GpuSimulator::new(GpuConfig::default());
    let rep = Representation::Original(g);
    let plan = ExecutionPlan {
        push: *options,
        ..ExecutionPlan::default()
    };
    run_monotone(&sim, &rep, None, prog, source, &plan).unwrap()
}

/// Asserts that a lane of the host driver is the run both independent
/// loops take: `reference` over the same rows, `simulated` over the same
/// graph as a CSR.
pub fn assert_lane_is_the_reference_run(
    lane: &MonotoneOutput,
    reference: &Reference,
    simulated: &MonotoneOutput,
    label: &str,
) {
    assert_eq!(lane.values, simulated.values, "{label}: values vs sim");
    assert_eq!(
        lane.converged, simulated.converged,
        "{label}: converged vs sim"
    );
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        lane.directions.len(),
        reference.iterations,
        "{label}: iterations"
    );
    assert_eq!(
        lane.edges_touched, reference.edges_touched,
        "{label}: edges_touched"
    );
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert!(!lane.cancelled, "{label}: cancelled");
}

/// One run of [`reference_pagerank`].
#[derive(Debug)]
pub struct ReferenceRanks {
    pub ranks: Vec<f32>,
    pub iterations: usize,
    pub converged: bool,
}

/// PageRank written the plain way, as a gather: a `Vec<f32>` of per-node
/// shares `rank / max(outdeg, 1)`, one partial sum per in-row of
/// `reverse` (the transpose of the graph `out_degrees` belong to). Its
/// `f32` arithmetic is the power iteration's, term for term and in the
/// same order, so its ranks are the engine's to the bit.
pub fn reference_pagerank(
    reverse: &Csr,
    out_degrees: &[u32],
    options: &PrOptions,
) -> ReferenceRanks {
    let n = reverse.num_nodes();
    let (rows, sources) = (reverse.row_ptr(), reverse.col_idx());
    let (d, nf) = (options.damping, n as f32);
    let share = |v: usize, rank: f32| rank / out_degrees[v].max(1) as f32;
    let mut ranks = vec![1.0 / nf; n];
    let mut shares: Vec<f32> = (0..n).map(|v| share(v, ranks[v])).collect();
    let (mut iterations, mut converged) = (0, n == 0);
    while !converged && iterations < options.max_iterations {
        let mut dangling = 0.0f64;
        for v in 0..n {
            if out_degrees[v] == 0 {
                dangling += f64::from(ranks[v]);
            }
        }
        let base = (1.0 - d) / nf + d * (dangling as f32) / nf;
        let mut delta = 0.0f32;
        for (t, rank) in ranks.iter_mut().enumerate() {
            let mut partial = 0.0f32;
            for s in &sources[rows[t]..rows[t + 1]] {
                partial += shares[s.index()];
            }
            let new = base + d * partial;
            delta += (new - *rank).abs();
            *rank = new;
        }
        for (v, s) in shares.iter_mut().enumerate() {
            *s = share(v, ranks[v]);
        }
        iterations += 1;
        converged = delta < options.tolerance;
    }
    ReferenceRanks {
        ranks,
        iterations,
        converged,
    }
}

/// R-MAT generation the sequential way: one stream, one branchy walk down
/// the quadrants per edge, a `Vec<Edge>` through [`CsrBuilder`]. Its
/// output is what `generators::rmat` must produce at any chunk count.
pub fn reference_rmat(config: &RmatConfig, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_nodes();
    let m = config.num_edges();

    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (src, dst) = rmat_edge(config, &mut rng);
        edges.push(Edge::unweighted(NodeId::new(src), NodeId::new(dst)));
    }

    let mut b = CsrBuilder::from_edges(n, edges);
    b.dedup(config.dedup);
    b.build()
}

fn rmat_edge(config: &RmatConfig, rng: &mut StdRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for level in (0..config.scale).rev() {
        // Multiplicative noise keeps the expected simplex but perturbs each
        // level, smoothing the synthetic degree distribution.
        let mut jitter = |p: f64| {
            if config.noise > 0.0 {
                p * (1.0 - config.noise + 2.0 * config.noise * rng.gen::<f64>())
            } else {
                p
            }
        };
        let (a, b, c, d) = (
            jitter(config.a),
            jitter(config.b),
            jitter(config.c),
            jitter(config.d()),
        );
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        let bit = 1u32 << level;
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            dst |= bit;
        } else if r < a + b + c {
            src |= bit;
        } else {
            src |= bit;
            dst |= bit;
        }
    }
    (src, dst)
}
