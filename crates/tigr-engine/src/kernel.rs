//! The single edge-relaxation inner loop (§5, Algorithm 2 lines 6–10).
//!
//! Every driver in this crate — the monotone driver
//! ([`crate::run_monotone`]) with its push and pull sweeps, the host lane
//! driver ([`crate::batch`]), PageRank and betweenness centrality
//! ([`crate::algorithms`]) — routes its per-edge work through
//! [`relax_kernel`]. The loop is parameterized along two axes:
//!
//! * an **edge source**: any `Iterator<Item = EdgeRef>` — a contiguous
//!   CSR range, a strided virtual-node cursor, or a slice zip on the CPU
//!   fast path (see [`csr_edges`] and friends);
//! * an **access mirror**: how each architectural memory access is
//!   accounted. A simulator [`Lane`] records it; [`NoMirror`] compiles
//!   every charge away for the wall-clock CPU backends, so both
//!   executors share one loop with zero overhead on the native path.
//!
//! One level up, a [`Launcher`] decides how a whole sweep of such
//! threads runs: replayed warp by warp on the [`GpuSimulator`], or as a
//! plain loop ([`HostLoop`]). The monotone driver, PageRank and
//! betweenness are written once over it.
//!
//! On top of the raw loop sit the two monotone functor bodies,
//! [`push_relax`] (scatter: one atomic per improving edge) and
//! [`pull_gather`] (gather: local fold, at most one atomic per slot) —
//! direction is a *schedule*, not a reimplementation.
//!
//! What is resolved where: a [`MonotoneProgram`] is data (two enums), and
//! a row may or may not carry weights. Neither changes while one row is
//! relaxed, so [`push_relax`] looks at both **once per call** and hands
//! the per-edge loop a body in which each is a type — the edge function
//! and the combine of the program, the edge iterator. It is generic over
//! the [`ValueCells`] it writes as well: the shared [`AtomicValues`] of
//! [`crate::run_monotone`], simulated or on [`HostLoop`] (a hardware
//! read-modify-write per improving edge, Algorithm 2 line 9), or the
//! `&mut [u32]` a host lane owns (a compare and a store). Mirror charges
//! are issued by the body, not by the cells, so they are the same call
//! for call whatever it is instantiated over.

use tigr_graph::{Csr, NodeId, Weight};
use tigr_sim::{GpuSimulator, KernelMetrics, Lane};

use crate::addr::{edge_addr, frontier_bit_addr, value_addr, EDGE_ENTRY_BYTES};
use crate::frontier::Frontier;
use crate::program::{resolve_edge_op, MonotoneProgram};
use crate::state::{resolve_combine, AtomicValues, Fold, ValueCells};

/// One edge as seen by the kernel: its CSR index (for address
/// accounting), the slot it leads to, and its weight.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef {
    /// Global edge index (addresses the `{target, weight}` entry).
    pub index: usize,
    /// Destination slot (push: the neighbor written; pull: the source
    /// read).
    pub target: usize,
    /// Edge weight (1 on unweighted graphs).
    pub weight: Weight,
}

/// Control flow returned by a per-edge body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeFlow {
    /// The edge was processed: count it and continue.
    Continue,
    /// The edge was skipped (e.g. inactive source under a worklist
    /// filter): do not count it.
    Skip,
    /// The edge was processed; stop walking the range (bottom-up BFS
    /// early exit).
    Stop,
}

/// How a kernel's memory traffic is accounted. The methods mirror the
/// simulator's [`Lane`]; the CPU backends plug in [`NoMirror`] and the
/// optimizer deletes every call.
pub trait AccessMirror {
    /// Mirror of [`Lane::load`].
    fn load(&mut self, addr: u64, bytes: u64);
    /// Mirror of [`Lane::store`].
    fn store(&mut self, addr: u64, bytes: u64);
    /// Mirror of [`Lane::atomic`].
    fn atomic(&mut self, addr: u64, bytes: u64);
    /// Mirror of [`Lane::compute`].
    fn compute(&mut self, n: u64);
}

/// A simulator lane records every access (warp-lockstep accounting).
impl AccessMirror for Lane {
    #[inline]
    fn load(&mut self, addr: u64, bytes: u64) {
        Lane::load(self, addr, bytes);
    }
    #[inline]
    fn store(&mut self, addr: u64, bytes: u64) {
        Lane::store(self, addr, bytes);
    }
    #[inline]
    fn atomic(&mut self, addr: u64, bytes: u64) {
        Lane::atomic(self, addr, bytes);
    }
    #[inline]
    fn compute(&mut self, n: u64) {
        Lane::compute(self, n);
    }
}

/// Zero-cost mirror for the wall-clock CPU backends.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMirror;

impl AccessMirror for NoMirror {
    #[inline]
    fn load(&mut self, _addr: u64, _bytes: u64) {}
    #[inline]
    fn store(&mut self, _addr: u64, _bytes: u64) {}
    #[inline]
    fn atomic(&mut self, _addr: u64, _bytes: u64) {}
    #[inline]
    fn compute(&mut self, _n: u64) {}
}

/// How a kernel sweep — `body(tid, mirror)` for every `tid` of a grid —
/// is launched, mirrored and accumulated. The drivers
/// ([`crate::run_monotone`], [`crate::algorithms::pr`],
/// [`crate::algorithms::bc`]) are generic over it, so their arithmetic
/// exists once:
///
/// * [`GpuSimulator`] records a [`Lane`] per thread and replays warps —
///   the paper's meter.
/// * [`HostLoop`] is a plain `for` over the grid with [`NoMirror`] — the
///   system's meter.
///
/// Both run on the calling thread and visit threads in `tid` order, so an
/// accumulation is one load, add and store ([`crate::AtomicFloats::add`]).
/// `f32` addition is order-sensitive and nothing else is, which is why
/// the two agree to the bit.
pub trait Launcher {
    /// What a thread's accesses are charged to.
    type Mirror: AccessMirror;

    /// Whether launches return metrics worth recording in a
    /// [`tigr_sim::SimReport`].
    const METERED: bool;

    /// Runs `body` once per thread of a `threads`-wide grid.
    fn launch<F>(&self, threads: usize, body: F) -> KernelMetrics
    where
        F: Fn(usize, &mut Self::Mirror);
}

impl Launcher for GpuSimulator {
    type Mirror = Lane;
    const METERED: bool = true;

    fn launch<F>(&self, threads: usize, body: F) -> KernelMetrics
    where
        F: Fn(usize, &mut Lane),
    {
        GpuSimulator::launch(self, threads, body)
    }
}

/// The wall-clock [`Launcher`]: threads run in `tid` order on the calling
/// thread, nothing is recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostLoop;

impl Launcher for HostLoop {
    type Mirror = NoMirror;
    const METERED: bool = false;

    #[inline]
    fn launch<F>(&self, threads: usize, body: F) -> KernelMetrics
    where
        F: Fn(usize, &mut NoMirror),
    {
        for tid in 0..threads {
            body(tid, &mut NoMirror);
        }
        KernelMetrics::default()
    }
}

/// THE edge-relaxation inner loop: charges the `{target, weight}` entry
/// load for every edge and hands it to `per_edge`. Returns how many
/// edges were processed (relaxation attempted, [`EdgeFlow::Skip`] not
/// counted).
///
/// This is the only per-edge loop in the engine; every driver builds its
/// body as a `per_edge` closure over it.
#[inline]
pub fn relax_kernel<M, I, F>(mirror: &mut M, edges: I, mut per_edge: F) -> u64
where
    M: AccessMirror,
    I: Iterator<Item = EdgeRef>,
    F: FnMut(&mut M, EdgeRef) -> EdgeFlow,
{
    let mut touched = 0u64;
    for edge in edges {
        mirror.load(edge_addr(edge.index), EDGE_ENTRY_BYTES);
        match per_edge(mirror, edge) {
            EdgeFlow::Continue => touched += 1,
            EdgeFlow::Skip => {}
            EdgeFlow::Stop => {
                touched += 1;
                break;
            }
        }
    }
    touched
}

/// Push-relaxes `edges` whose owning slot holds `d`: computes the
/// candidate, compares it against the destination's live value, and
/// improves it in `values`. `on_improve` runs once per newly improving
/// edge, after the value atomic is charged — callers hang frontier
/// activation and finished-flag traffic there.
///
/// A BSP run reads `d` from its previous-iteration snapshot but compares
/// against live values: they only improve, so a candidate that improves
/// the live value also improves the snapshot's, and the atomic is charged
/// exactly when the live value improves either way.
///
/// Everything that is the same for every edge of the call — the
/// program's edge function and combine, whether the row carries weights —
/// is resolved here, so the loop `scatter` runs branches on none of it.
///
/// Returns the number of edges relaxed.
#[inline]
pub fn push_relax<M, V, E>(
    mirror: &mut M,
    prog: MonotoneProgram,
    values: V,
    d: u32,
    edges: E,
    on_improve: impl FnMut(&mut M, usize),
) -> u64
where
    M: AccessMirror,
    V: ValueCells,
    E: EdgeSource,
{
    resolve_edge_op!(prog.edge_op, |apply| resolve_combine!(
        prog.combine,
        |fold| {
            let candidate = move |weight| apply(d, weight);
            match edges.resolve() {
                RowEdges::Weighted(edges) => {
                    scatter(mirror, candidate, fold, values, edges, on_improve)
                }
                RowEdges::Unit(edges) => {
                    scatter(mirror, candidate, fold, values, edges, on_improve)
                }
            }
        }
    ))
}

/// The scatter body (Algorithm 2 lines 6–10) with every choice made: by
/// the time this is instantiated, `candidate`, `fold` and `edges` are
/// types, and the per-edge path is straight-line — load the target, load
/// the weight, apply, compare, and rarely store and report.
#[inline]
fn scatter<M: AccessMirror, V: ValueCells>(
    mirror: &mut M,
    candidate: impl Fn(Weight) -> u32,
    fold: impl Fold,
    mut values: V,
    edges: impl Iterator<Item = EdgeRef>,
    mut on_improve: impl FnMut(&mut M, usize),
) -> u64 {
    relax_kernel(mirror, edges, |m, edge| {
        let cand = candidate(edge.weight);
        // alt computation + comparison (Algorithm 2 lines 7-8).
        m.compute(2);
        m.load(value_addr(edge.target), 4);
        if fold.improves(cand, values.load(edge.target)) && values.improve(edge.target, cand, fold)
        {
            // atomicMin (Algorithm 2 line 9).
            m.atomic(value_addr(edge.target), 4);
            on_improve(m, edge.target);
        }
        EdgeFlow::Continue
    })
}

/// Worklist filter and early-exit policy of a [`pull_gather`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatherFilter<'a> {
    /// Fold only candidates from sources active last iteration,
    /// consulting this dense bitmap per in-edge.
    pub active: Option<&'a Frontier>,
    /// Bottom-up BFS shape: skip already-claimed slots entirely and stop
    /// at the first improving candidate. Sound only for unweighted
    /// source-zero min-plus programs under a worklist — the level of a
    /// claimed node can never improve again, and any active parent
    /// offers the same `level + 1`.
    pub early_exit: bool,
}

/// Pull-gathers `edges` (in-edges of `slot`, i.e. a transpose range):
/// folds candidates locally and issues at most **one** value atomic on
/// the slot — the Theorem 3 gather scheme. `on_improve` runs after that
/// atomic when the slot improved.
///
/// Returns the number of candidates folded (edges skipped by the
/// worklist filter are not counted).
#[inline]
pub fn pull_gather<M: AccessMirror>(
    mirror: &mut M,
    prog: MonotoneProgram,
    values: &AtomicValues,
    slot: usize,
    edges: impl Iterator<Item = EdgeRef>,
    filter: GatherFilter<'_>,
    mut on_improve: impl FnMut(&mut M, usize),
) -> u64 {
    mirror.load(value_addr(slot), 4);
    let start = values.load(slot);
    if filter.early_exit && start != u32::MAX {
        // Already claimed: a monotone level never improves again.
        return 0;
    }
    let mut best = start;
    let mut improved_locally = false;
    let touched = relax_kernel(mirror, edges, |m, edge| {
        if let Some(f) = filter.active {
            m.load(frontier_bit_addr(edge.target), 4);
            if !f.contains(edge.target) {
                return EdgeFlow::Skip;
            }
        }
        m.load(value_addr(edge.target), 4);
        let cand = prog.edge_op.apply(values.load(edge.target), edge.weight);
        m.compute(2);
        if prog.combine.improves(cand, best) {
            best = cand;
            improved_locally = true;
            if filter.early_exit {
                return EdgeFlow::Stop;
            }
        }
        EdgeFlow::Continue
    });
    if improved_locally && values.try_improve(slot, best, prog.combine) {
        mirror.atomic(value_addr(slot), 4);
        on_improve(mirror, slot);
    }
    touched
}

/// Edge source over global CSR edge indices: the common case for
/// simulated kernels (any [`crate::mapping::EdgeWalk`]).
#[inline]
pub fn csr_edges<'a>(
    g: &'a Csr,
    indices: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = EdgeRef> + 'a {
    indices.map(move |e| EdgeRef {
        index: e,
        target: g.edge_target(e).index(),
        weight: g.weight(e),
    })
}

/// [`csr_edges`] for kernels that never read weights (PageRank,
/// betweenness): every edge reports weight 1 and the weight array stays
/// untouched — on the host path that is one memory stream fewer.
#[inline]
pub fn csr_targets<'a>(
    g: &'a Csr,
    indices: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = EdgeRef> + 'a {
    let targets = g.col_idx(); // sliced once: no accessor call per edge
    indices.map(move |e| EdgeRef {
        index: e,
        target: targets[e].index(),
        weight: 1,
    })
}

/// An edge source as [`push_relax`] walks it, after its one look per
/// call at whether the row carries weights.
#[derive(Clone, Debug)]
pub enum RowEdges<W, U> {
    /// Every edge reports its stored weight.
    Weighted(W),
    /// Every edge weighs 1; no weight array is read.
    Unit(U),
}

/// What [`push_relax`] accepts as edges. Any `Iterator<Item = EdgeRef>`
/// is one (it has nothing left to resolve); [`SliceEdges`] is the source
/// whose weight slice is optional, and says which once per row instead
/// of once per edge.
pub trait EdgeSource {
    /// The walk over a row that carries weights.
    type Weighted: Iterator<Item = EdgeRef>;
    /// The walk over a unit-weight row.
    type Unit: Iterator<Item = EdgeRef>;

    /// Decides, once, which walk this source is.
    fn resolve(self) -> RowEdges<Self::Weighted, Self::Unit>;
}

impl<I: Iterator<Item = EdgeRef>> EdgeSource for I {
    type Weighted = I;
    type Unit = std::iter::Empty<EdgeRef>;

    #[inline]
    fn resolve(self) -> RowEdges<I, Self::Unit> {
        RowEdges::Weighted(self)
    }
}

/// A row as pre-sliced neighbor/weight arrays (see [`slice_edges`]).
#[derive(Clone, Copy, Debug)]
pub struct SliceEdges<'a> {
    first_edge: usize,
    targets: &'a [NodeId],
    weights: Option<&'a [Weight]>,
}

/// Edge source over pre-sliced neighbor/weight arrays — the CPU hot
/// path, which indexes `row_ptr` once per node and then walks
/// contiguous slices. `weights == None` means every edge weighs 1.
#[inline]
pub fn slice_edges<'a>(
    first_edge: usize,
    targets: &'a [NodeId],
    weights: Option<&'a [Weight]>,
) -> SliceEdges<'a> {
    SliceEdges {
        first_edge,
        targets,
        weights,
    }
}

impl<'a> EdgeSource for SliceEdges<'a> {
    type Weighted = RowWalk<'a, std::iter::Copied<std::slice::Iter<'a, Weight>>>;
    type Unit = RowWalk<'a, std::iter::Repeat<Weight>>;

    /// # Panics
    ///
    /// Panics if a weight slice does not cover the targets.
    #[inline]
    fn resolve(self) -> RowEdges<Self::Weighted, Self::Unit> {
        match self.weights {
            Some(weights) => {
                assert_eq!(weights.len(), self.targets.len(), "weights cover targets");
                RowEdges::Weighted(RowWalk {
                    index: self.first_edge,
                    edges: self.targets.iter().zip(weights.iter().copied()),
                })
            }
            None => RowEdges::Unit(unit_edges(self.first_edge, self.targets)),
        }
    }
}

/// The walk over a [`SliceEdges`] row once its weights are settled: `W`
/// yields the stored weights, or repeats 1.
#[derive(Clone, Debug)]
pub struct RowWalk<'a, W> {
    index: usize,
    edges: std::iter::Zip<std::slice::Iter<'a, NodeId>, W>,
}

impl<W: Iterator<Item = Weight>> Iterator for RowWalk<'_, W> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let (target, weight) = self.edges.next()?;
        let index = self.index;
        self.index += 1;
        Some(EdgeRef {
            index,
            target: target.index(),
            weight,
        })
    }
}

/// Edge source over a pre-sliced neighbor array whose edges all weigh 1
/// — what [`slice_edges`] resolves to without a weight slice, for callers
/// that never had one (PageRank).
#[inline]
pub fn unit_edges(first_edge: usize, targets: &[NodeId]) -> RowWalk<'_, std::iter::Repeat<Weight>> {
    RowWalk {
        index: first_edge,
        edges: targets.iter().zip(std::iter::repeat(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Combine;
    use tigr_graph::CsrBuilder;

    #[test]
    fn relax_kernel_counts_and_stops() {
        let g = CsrBuilder::new(4)
            .weighted_edge(0, 1, 5)
            .weighted_edge(0, 2, 7)
            .weighted_edge(0, 3, 9)
            .build();
        let mut seen = Vec::new();
        let touched = relax_kernel(&mut NoMirror, csr_edges(&g, 0..3), |_, e| {
            seen.push((e.target, e.weight));
            if e.target == 2 {
                EdgeFlow::Stop
            } else {
                EdgeFlow::Continue
            }
        });
        assert_eq!(touched, 2, "stop counts the stopping edge");
        assert_eq!(seen, vec![(1, 5), (2, 7)]);
        let skipped = relax_kernel(&mut NoMirror, csr_edges(&g, 0..3), |_, _| EdgeFlow::Skip);
        assert_eq!(skipped, 0, "skips are not counted");
    }

    #[test]
    fn push_relax_improves_and_reports() {
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 2)
            .build();
        let values = AtomicValues::from_values(vec![0, u32::MAX, 1]);
        let mut improved = Vec::new();
        let touched = push_relax(
            &mut NoMirror,
            MonotoneProgram::SSSP,
            &values,
            0,
            csr_edges(&g, 0..2),
            |_, t| improved.push(t),
        );
        assert_eq!(touched, 2);
        assert_eq!(improved, vec![1], "slot 2 already held a better value");
        assert_eq!(values.snapshot(), vec![0, 4, 1]);
    }

    #[test]
    fn pull_gather_folds_locally() {
        // Transpose view of 1->0 (w=3), 2->0 (w=1): node 0 gathers.
        let rev = CsrBuilder::new(3)
            .weighted_edge(0, 1, 3)
            .weighted_edge(0, 2, 1)
            .build();
        let values = AtomicValues::from_values(vec![u32::MAX, 2, 5]);
        let mut improved = Vec::new();
        let touched = pull_gather(
            &mut NoMirror,
            MonotoneProgram::SSSP,
            &values,
            0,
            csr_edges(&rev, 0..2),
            GatherFilter::default(),
            |_, s| improved.push(s),
        );
        assert_eq!(touched, 2);
        assert_eq!(improved, vec![0]);
        assert_eq!(values.load(0), 5, "min(2+3, 5+1)");
        assert!(MonotoneProgram::SSSP.combine == Combine::Min);
    }

    #[test]
    fn early_exit_skips_claimed_slots() {
        let rev = CsrBuilder::new(2).edge(0, 1).build();
        let values = AtomicValues::from_values(vec![3, 0]);
        let filter = GatherFilter {
            active: None,
            early_exit: true,
        };
        let touched = pull_gather(
            &mut NoMirror,
            MonotoneProgram::BFS,
            &values,
            0,
            csr_edges(&rev, 0..1),
            filter,
            |_, _| {},
        );
        assert_eq!(touched, 0, "claimed slot folds nothing");
        assert_eq!(values.load(0), 3);
    }

    #[test]
    fn slice_edges_matches_csr_edges() {
        let g = CsrBuilder::new(4)
            .weighted_edge(1, 2, 8)
            .weighted_edge(1, 3, 9)
            .build();
        let v = NodeId::new(1);
        let lo = g.edge_start(v);
        let flat = |edges: &mut dyn Iterator<Item = EdgeRef>| -> Vec<(usize, usize, Weight)> {
            edges.map(|e| (e.index, e.target, e.weight)).collect()
        };
        let a = flat(&mut csr_edges(&g, lo..g.edge_end(v)));
        match slice_edges(lo, g.neighbors(v), g.neighbor_weights(v)).resolve() {
            RowEdges::Weighted(mut edges) => assert_eq!(flat(&mut edges), a),
            RowEdges::Unit(_) => panic!("the row carries weights"),
        }
        // Without a weight slice the same row walks as unit edges.
        match slice_edges(lo, g.neighbors(v), None).resolve() {
            RowEdges::Weighted(_) => panic!("no weight slice was given"),
            RowEdges::Unit(mut edges) => {
                assert_eq!(flat(&mut edges), vec![(lo, 2, 1), (lo + 1, 3, 1)]);
            }
        }
    }
}
