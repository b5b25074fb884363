//! PageRank (Corollary 4, Theorem 3).
//!
//! PageRank divides each node's rank by its *out-degree*. UDT changes
//! out-degrees, so physical transformations are unsuitable; the virtual
//! transformation keeps the physical out-degrees intact (Corollary 4) and
//! its partial sums commute because addition is associative (Theorem 3).
//! Both the paper's push-based Tigr variant and the CuSha-style pull
//! variant are provided; pull mode is what lets shard/scan frameworks win
//! PR in Table 4.
//!
//! There is one power iteration, [`power_iterate`], generic over the
//! [`Launcher`] that runs its kernels: on a [`tigr_sim::GpuSimulator`]
//! every access is recorded and the report fills — the paper's meter; on
//! [`crate::kernel::HostLoop`] the same bodies run as plain loops — what
//! [`crate::Engine`] picks for every backend but `WarpSim`. Both visit
//! threads in `tid` order, so every `f32` sum adds its terms in the same
//! order and ranks, iteration count and flags agree **to the bit** on
//! every representation (pull mode included: one partial per virtual
//! node either way). Every mapping reads a node's share `rank /
//! max(outdeg, 1)`, divided once per node per iteration. A push run also
//! equals, to the bit, a gather over the plain transpose ([`PrMode::Push`]).

use tigr_core::CancelToken;
use tigr_graph::Csr;
use tigr_sim::{KernelMetrics, SimReport};

use crate::addr::{aux_addr, value_addr};
use crate::kernel::{csr_targets, relax_kernel, AccessMirror, EdgeFlow, Launcher};
use crate::mapping::{search_compute, EdgeWalk, Mapping};
use crate::representation::Representation;
use crate::state::AtomicFloats;

/// Direction of rank propagation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrMode {
    /// Scatter `rank/outdeg` along *out*-edges with one atomic add per
    /// edge — Tigr's scheme (the representation is built over the forward
    /// graph). Simple, but atomic-heavy: the reason Tigr-V+ loses PR to
    /// pull-based CuSha in Table 4.
    ///
    /// The simulator always runs it as that scatter. The engine's host
    /// backends, handed a prepared transpose, run it as a [`PrMode::Pull`]
    /// gather over the plain transpose instead, with the same bits:
    /// threads run in `tid` order and every unsplit view hands them the
    /// edges in ascending-source order (overlay families are contiguous
    /// and ordered by physical node in both layouts; on-the-fly blocks
    /// walk the edge array in order), so each accumulator receives its
    /// shares in ascending-source order — the order in which
    /// [`tigr_graph::reverse::transpose`] lists an in-row and a row gather
    /// adds it. Only one source's parallel edges can trade places, and
    /// they carry equal shares.
    #[default]
    Push,
    /// Gather `rank/outdeg` along *in*-edges, one atomic add per virtual
    /// node — the representation must be built over the **transpose**
    /// ([`tigr_graph::reverse::transpose`]).
    Pull,
}

/// PageRank options.
#[derive(Clone, Copy, Debug)]
pub struct PrOptions {
    /// Damping factor `d` (0.85 conventionally).
    pub damping: f32,
    /// Stop when the L1 rank change falls below this threshold.
    pub tolerance: f32,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Propagation direction.
    pub mode: PrMode,
}

impl Default for PrOptions {
    fn default() -> Self {
        PrOptions {
            damping: 0.85,
            tolerance: 1e-6,
            max_iterations: 100,
            mode: PrMode::Push,
        }
    }
}

/// PageRank result.
#[derive(Clone, Debug)]
pub struct PrOutput {
    /// Final ranks, summing to ≈ 1.
    pub ranks: Vec<f32>,
    /// Per-iteration simulator metrics; empty when the launcher is not
    /// the simulator.
    pub report: SimReport,
    /// Power iterations completed (on the simulator,
    /// `report.num_iterations()`).
    pub iterations: usize,
    /// `false` if `max_iterations` hit before `tolerance`.
    pub converged: bool,
    /// `true` if a [`CancelToken`] fired between power iterations before
    /// `tolerance` was reached.
    pub cancelled: bool,
}

/// Runs PageRank over `rep` on `launcher` (a [`tigr_sim::GpuSimulator`]
/// or [`crate::kernel::HostLoop`]).
///
/// `out_degrees` are the **original** per-node out-degrees (push: the
/// degrees of `rep`'s own graph; pull: the degrees of the graph whose
/// transpose `rep` wraps). Dangling nodes redistribute uniformly.
///
/// # Panics
///
/// Panics if `out_degrees.len()` differs from the representation's value
/// slots or the representation is [`Representation::Physical`] (UDT
/// changes the degrees PR depends on — use a virtual representation, as
/// the paper does).
pub fn run<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    out_degrees: &[u32],
    options: &PrOptions,
) -> PrOutput {
    run_cancellable(launcher, rep, out_degrees, options, &CancelToken::never())
}

/// [`run`] with a cooperative cancellation hook polled between power
/// iterations: a fired token stops the run with `cancelled = true`,
/// returning the ranks of the last completed iteration.
///
/// # Panics
///
/// See [`run`].
pub fn run_cancellable<L: Launcher>(
    launcher: &L,
    rep: &Representation<'_>,
    out_degrees: &[u32],
    options: &PrOptions,
    cancel: &CancelToken,
) -> PrOutput {
    assert_eq!(
        out_degrees.len(),
        rep.num_value_slots(),
        "out-degree array must cover all nodes"
    );
    assert!(
        !matches!(rep, Representation::Physical(_)),
        "PageRank is undefined on physically transformed graphs: UDT alters out-degrees (Corollary 4)"
    );
    let (mapping, g) = (Mapping::of(rep), rep.graph());
    power_iterate(
        launcher,
        out_degrees,
        options,
        cancel,
        |shares, accum| {
            let metrics = match options.mode {
                PrMode::Push => push_kernel(launcher, &mapping, g, shares, accum, out_degrees),
                PrMode::Pull => pull_kernel(launcher, &mapping, g, shares, accum),
            };
            (mapping.full_threads(), metrics)
        },
        |m, v| {
            m.load(aux_addr(0, v), 4);
            m.load(value_addr(v), 4);
        },
    )
}

/// The power iteration every PageRank runs, fed the mapping of its
/// scatter onto threads: the engine's kernels in [`run`], each comparison
/// framework's in `tigr-baselines`. `scatter(shares, accum)` adds every
/// node's share `rank / max(outdeg, 1)` into `accum` along its out-edges
/// and returns the thread count to report with its metrics;
/// `finalize_loads(mirror, v)` charges what node `v`'s finalize thread
/// loads before it stores `base + damping * accum`. Stops at
/// `options.tolerance` (L1), after `options.max_iterations`, or when
/// `cancel` fires between iterations.
pub fn power_iterate<L: Launcher>(
    launcher: &L,
    out_degrees: &[u32],
    options: &PrOptions,
    cancel: &CancelToken,
    scatter: impl Fn(&AtomicFloats, &AtomicFloats) -> (usize, KernelMetrics),
    finalize_loads: impl Fn(&mut L::Mirror, usize),
) -> PrOutput {
    let n = out_degrees.len();
    let mut out = PrOutput {
        ranks: Vec::new(),
        report: SimReport::new(),
        iterations: 0,
        converged: n == 0,
        cancelled: false,
    };
    if n == 0 {
        return out;
    }

    let ranks = AtomicFloats::new(n, 1.0 / n as f32);
    // What one node sends along each out-edge: divided once per node per
    // iteration, never per edge.
    let share_of = |v: usize, rank: f32| rank / out_degrees[v].max(1) as f32;
    let shares = AtomicFloats::new(n, 0.0);
    (0..n).for_each(|v| shares.store(v, share_of(v, ranks.load(v))));
    let accum = AtomicFloats::new(n, 0.0);
    // The nodes without out-edges, ascending: their ranks are the
    // dangling mass, summed in node order every iteration.
    let dangling_nodes: Vec<usize> = (0..n).filter(|&v| out_degrees[v] == 0).collect();

    for _ in 0..options.max_iterations {
        if cancel.is_cancelled() {
            out.cancelled = true;
            break;
        }
        accum.fill(0.0);

        // Scatter/gather kernel.
        let (threads, mut metrics) = scatter(&shares, &accum);

        // Dangling mass (host reduction mirrored as a small kernel).
        let dangling = dangling_nodes
            .iter()
            .fold(0.0f64, |sum, &v| sum + ranks.load(v) as f64);
        let base =
            (1.0 - options.damping) / n as f32 + options.damping * (dangling as f32) / n as f32;

        // Finalize kernel: rank = base + d * accum, tracking the L1 delta.
        let delta = AtomicFloats::new(1, 0.0);
        let finalize = launcher.launch(n, |v, m| {
            finalize_loads(m, v);
            let new = base + options.damping * accum.load(v);
            let old = ranks.load(v);
            ranks.store(v, new);
            shares.store(v, share_of(v, new));
            delta.add(0, (new - old).abs());
            m.compute(3);
            m.store(value_addr(v), 4);
        });
        out.iterations += 1;
        if L::METERED {
            metrics.merge(&finalize);
            out.report.push(threads, metrics);
        }

        if delta.load(0) < options.tolerance {
            out.converged = true;
            break;
        }
    }

    out.ranks = ranks.snapshot();
    out
}

/// Push scatter: one accumulator add per out-edge.
fn push_kernel<L: Launcher>(
    launcher: &L,
    mapping: &Mapping<'_>,
    g: &Csr,
    shares: &AtomicFloats,
    accum: &AtomicFloats,
    out_degrees: &[u32],
) -> KernelMetrics {
    let scatter = |m: &mut L::Mirror, slot: usize, edges: EdgeWalk| {
        m.load(value_addr(slot), 4);
        m.load(aux_addr(1, slot), 4);
        if out_degrees[slot] == 0 {
            return;
        }
        let share = shares.load(slot);
        m.compute(1);
        relax_kernel(m, csr_targets(g, edges), |m, edge| {
            accum.add(edge.target, share);
            m.atomic(aux_addr(0, edge.target), 4);
            EdgeFlow::Continue
        });
    };
    mapping.sweep(launcher, search_compute, scatter)
}

/// Pull gather: partial sum per (virtual) node, one accumulator add per
/// node.
fn pull_kernel<L: Launcher>(
    launcher: &L,
    mapping: &Mapping<'_>,
    g: &Csr, // the transpose: edges lead to in-neighbors
    shares: &AtomicFloats,
    accum: &AtomicFloats,
) -> KernelMetrics {
    let gather = |m: &mut L::Mirror, slot: usize, edges: EdgeWalk| {
        let mut partial = 0.0f32;
        let mut any = false;
        relax_kernel(m, csr_targets(g, edges), |m, edge| {
            let src = edge.target;
            m.load(value_addr(src), 4);
            m.load(aux_addr(1, src), 4);
            partial += shares.load(src);
            m.compute(2);
            any = true;
            EdgeFlow::Continue
        });
        if any {
            accum.add(slot, partial);
            m.atomic(aux_addr(0, slot), 4);
        }
    };
    mapping.sweep(launcher, search_compute, gather)
}

/// Per-node out-degrees of `g` as `u32` — the helper callers pass to
/// [`run`].
pub fn out_degrees(g: &Csr) -> Vec<u32> {
    g.nodes().map(|v| g.out_degree(v) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::{rmat, RmatConfig};
    use tigr_graph::properties::pagerank;
    use tigr_graph::reverse::transpose;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn fixture() -> Csr {
        rmat(&RmatConfig::graph500(7, 6), 41)
    }

    fn assert_close(got: &[f32], expect: &[f64], tol: f64) {
        assert_eq!(got.len(), expect.len());
        for (i, (&g, &e)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g as f64 - e).abs() < tol,
                "rank[{i}]: got {g}, expected {e}"
            );
        }
    }

    fn opts(mode: PrMode) -> PrOptions {
        PrOptions {
            damping: 0.85,
            tolerance: 1e-7,
            max_iterations: 60,
            mode,
        }
    }

    #[test]
    fn push_pr_matches_power_iteration() {
        let g = fixture();
        let expect = pagerank(&g, 0.85, 60);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &Representation::Original(&g),
            &out_degrees(&g),
            &opts(PrMode::Push),
        );
        assert!(out.converged);
        assert_close(&out.ranks, &expect, 1e-4);
        let total: f32 = out.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "ranks sum to {total}");
    }

    #[test]
    fn pull_pr_on_transpose_matches() {
        let g = fixture();
        let expect = pagerank(&g, 0.85, 60);
        let rev = transpose(&g);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &Representation::Original(&rev),
            &out_degrees(&g),
            &opts(PrMode::Pull),
        );
        assert_close(&out.ranks, &expect, 1e-4);
    }

    #[test]
    fn virtual_push_pr_matches() {
        let g = fixture();
        let expect = pagerank(&g, 0.85, 60);
        let ov = VirtualGraph::coalesced(&g, 10);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &Representation::Virtual {
                graph: &g,
                overlay: &ov,
            },
            &out_degrees(&g),
            &opts(PrMode::Push),
        );
        assert_close(&out.ranks, &expect, 1e-4);
    }

    #[test]
    fn virtual_pull_pr_matches_theorem_3() {
        // Pull over the transpose with a virtual overlay: the associative
        // nested-sum case of Theorem 3.
        let g = fixture();
        let expect = pagerank(&g, 0.85, 60);
        let rev = transpose(&g);
        let ov = VirtualGraph::new(&rev, 4);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &Representation::Virtual {
                graph: &rev,
                overlay: &ov,
            },
            &out_degrees(&g),
            &opts(PrMode::Pull),
        );
        assert_close(&out.ranks, &expect, 1e-4);
    }

    #[test]
    fn pull_uses_fewer_atomics_than_push() {
        let g = fixture();
        let rev = transpose(&g);
        let sim = GpuSimulator::new(GpuConfig::default());
        let push = run(
            &sim,
            &Representation::Original(&g),
            &out_degrees(&g),
            &PrOptions {
                max_iterations: 5,
                tolerance: 0.0,
                ..opts(PrMode::Push)
            },
        );
        let pull = run(
            &sim,
            &Representation::Original(&rev),
            &out_degrees(&g),
            &PrOptions {
                max_iterations: 5,
                tolerance: 0.0,
                ..opts(PrMode::Pull)
            },
        );
        assert!(
            pull.report.total().atomic_ops < push.report.total().atomic_ops / 2,
            "pull {} vs push {}",
            pull.report.total().atomic_ops,
            push.report.total().atomic_ops
        );
    }

    #[test]
    #[should_panic(expected = "PageRank is undefined on physically transformed graphs")]
    fn physical_representation_rejected() {
        let g = fixture();
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Unweighted);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let degs = vec![0u32; t.graph().num_nodes()];
        let _ = run(
            &sim,
            &Representation::Physical(&t),
            &degs,
            &PrOptions::default(),
        );
    }

    #[test]
    fn empty_graph() {
        let g = tigr_graph::CsrBuilder::new(0).build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(
            &sim,
            &Representation::Original(&g),
            &[],
            &PrOptions::default(),
        );
        assert!(out.ranks.is_empty());
        assert!(out.converged);
    }
}
